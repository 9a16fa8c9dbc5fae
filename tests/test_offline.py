"""Off-line enumerators: brute force and the pruned select variant."""

import pytest

from abelianperiods import (
    Alphabet,
    PrefixParikhTable,
    Word,
    brute_force_periods,
    cyclic_word,
    is_abelian_period,
    period_order_key,
    random_word,
    select_periods,
    spike_word,
)
from abelianperiods.offline import _one_block_starts, _select_bound
from conftest import field_boundary_words, oracle_periods, recount_periods, words_over

GOLDEN = "abaababa"
GOLDEN_PERIODS = [
    (1, 2),
    (0, 3), (2, 3),
    (1, 4), (2, 4), (3, 4),
    (0, 5), (1, 5), (2, 5), (3, 5),
    (0, 6), (1, 6), (2, 6),
    (0, 7), (1, 7),
    (0, 8),
]


def table_of(text, alphabet=None):
    return PrefixParikhTable(Word(text, alphabet))


@pytest.mark.parametrize("enumerate_periods", [brute_force_periods, select_periods])
class TestBothEnumerators:
    def test_golden_word(self, enumerate_periods):
        assert list(enumerate_periods(table_of(GOLDEN))) == GOLDEN_PERIODS

    def test_single_letter_runs(self, enumerate_periods):
        assert set(enumerate_periods(table_of("a"))) == {(0, 1)}
        assert set(enumerate_periods(table_of("aaaaa"))) == {
            (0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3), (0, 4), (1, 4), (0, 5),
        }

    def test_all_distinct_letters(self, enumerate_periods):
        got = list(enumerate_periods(table_of("abc")))
        assert got == list(oracle_periods("abc"))
        assert (0, 1) not in got

    def test_empty_word(self, enumerate_periods):
        assert list(enumerate_periods(table_of(""))) == []

    def test_emitted_in_canonical_order(self, enumerate_periods):
        for text in ("abaababa", "aabbaabb", "abcacba", "aaaaaaab"):
            got = list(enumerate_periods(table_of(text)))
            keys = [period_order_key(hp) for hp in got]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_shape_and_whole_length(self, enumerate_periods):
        for text in words_over("ab", 8):
            n = len(text)
            got = list(enumerate_periods(table_of(text, Alphabet("ab"))))
            assert (0, n) in got
            for h, p in got:
                assert 0 <= h < p and h + p <= n

    def test_capped_run_equals_filtered_run(self, enumerate_periods):
        for text in list(words_over("ab", 9))[::7] + ["abaababa" * 3]:
            table = table_of(text)
            n = len(text)
            full = [hp for hp in enumerate_periods(table) if hp[0] + 2 * hp[1] <= n]
            capped = list(enumerate_periods(table, nontrivial_only=True))
            assert capped == full, text


@pytest.mark.parametrize("text, letters", field_boundary_words())
def test_packed_field_boundaries(text, letters):
    """Counts that fill a packed field, against the recount checker."""
    expected = recount_periods(text)
    capped = [(h, p) for h, p in expected if h + 2 * p <= len(text)]
    t = table_of(text, Alphabet(letters))
    for enumerate_periods in (brute_force_periods, select_periods):
        assert list(enumerate_periods(t)) == expected, enumerate_periods
        assert list(enumerate_periods(t, nontrivial_only=True)) == capped, enumerate_periods


class TestOneBlockStarts:
    @pytest.mark.parametrize("letters,max_len", [("ab", 11), ("abc", 7)])
    def test_least_one_block_period(self, letters, max_len):
        """starts[h] is the least one-block p, or n - h + 1, and every
        larger one-block p is a period too."""
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            table = table_of(text, alphabet)
            n = len(text)
            starts = _one_block_starts(table, _select_bound(table.word))
            for h, start in enumerate(starts):
                one_block = range(max(h + 1, (n - h) // 2 + 1), n - h + 1)
                periods = [p for p in one_block if is_abelian_period(table, h, p)]
                assert start == (periods[0] if periods else n - h + 1), (text, h)
                assert periods == list(range(start, n - h + 1)), (text, h)

    def test_first_period_comes_before_the_multi_block_scan_ends(self):
        """A spike word has no multi-block period (h + 2p <= n), and its
        smallest period has p near n / 3. Handling both head ranges per p,
        select yields it before reading the multi-block candidates of the
        larger p, which the nontrivial_only run reads in full."""

        class ReadCounter(list):
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return super().__getitem__(i)

        table = PrefixParikhTable(spike_word(500))
        table.packed = ReadCounter(table.packed)
        assert list(select_periods(table, nontrivial_only=True)) == []
        multi_block_reads = table.packed.reads
        table.packed = ReadCounter(table.packed)
        next(select_periods(table))
        assert table.packed.reads < multi_block_reads, (table.packed.reads, multi_block_reads)


class TestLemmaSuperset:
    def test_cyclic_word_carries_the_quadratic_family(self):
        for sigma, n in [(2, 8), (2, 16), (3, 9)]:
            table = PrefixParikhTable(cyclic_word(sigma, n))
            got = set(brute_force_periods(table))
            family = {
                (h, p)
                for p in range(sigma, n + 1, sigma)
                for h in range(min(p - 1, n - p) + 1)
            }
            assert family <= got


class TestSelectEqualsBruteForce:
    def test_exhaustive_binary(self):
        for text in words_over("ab", 12):
            table = table_of(text, Alphabet("ab"))
            assert list(select_periods(table)) == list(brute_force_periods(table)), text

    def test_exhaustive_ternary(self):
        for text in words_over("abc", 8):
            table = table_of(text, Alphabet("abc"))
            assert list(select_periods(table)) == list(brute_force_periods(table)), text

    def test_seeded_random_words(self):
        sigmas = (2, 4, 8, 16)
        for j in range(1000):
            sigma = sigmas[j % 4]
            length = (j % 200) + 1
            table = PrefixParikhTable(random_word(sigma, length, seed=j))
            assert list(select_periods(table)) == list(brute_force_periods(table)), (
                sigma,
                length,
                j,
            )
