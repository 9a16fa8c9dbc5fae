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
    periods_by_definition,
    random_word,
    select_periods,
    spike_word,
)
from abelianperiods import offline
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
        larger one-block p is a period too. It is never below
        max(h + 1, (n - h) // 2 + 1), which select's cut at n - p needs."""
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
                assert start >= max(h + 1, (n - h) // 2 + 1), (text, h)

    def test_first_period_comes_before_the_multi_block_scan_ends(self, monkeypatch):
        """A spike word has no multi-block period (h + 2p <= n), and its
        smallest period has p near n / 3. Handling both head ranges per p,
        select yields it before reading the multi-block candidates of the
        larger p, which the nontrivial_only run reads in full. One shared
        letter weight lets every multi-block candidate through the
        fingerprint screen, so each one reads the packed table."""
        monkeypatch.setattr(offline, "_letter_weights", lambda sigma: [1] * sigma)

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


def per_candidate_one_block_rows(table, starts):
    """Per p, the heads h in the one-block window of p (h + 2p > n, h < p,
    h + p <= n, h < len(starts)) with p >= starts[h], one candidate at a
    time."""
    n = table.n
    rows = {}
    for p in range(1, n + 1):
        lo = max(0, n - 2 * p + 1)
        hi = min(p - 1, n - p, len(starts) - 1) + 1
        if heads := [h for h in range(lo, hi) if starts[h] <= p]:
            rows[p] = heads
    return rows


def one_block_rows(rows, n):
    """The one-block heads (h + 2p > n) of rows ``(p, heads)``, by p."""
    picked = {p: [h for h in heads if h + 2 * p > n] for p, heads in rows}
    return {p: heads for p, heads in picked.items() if heads}


class TestOneBlockSlices:
    """select takes each row's one-block heads as one slice of the heads
    whose start p has passed, against the rule p >= starts[h] per head."""

    @pytest.mark.parametrize("letters,max_len", [("ab", 12), ("abc", 7)])
    def test_slices_equal_the_per_candidate_rule(self, letters, max_len):
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            table = table_of(text, alphabet)
            starts = _one_block_starts(table, _select_bound(table.word))
            got = one_block_rows(offline._select_rows(table), len(text))
            assert got == per_candidate_one_block_rows(table, starts), text

    @pytest.mark.parametrize("text, tried", [("abaaaaabaa", 5), ("bbaaaaaaaa", 2)])
    def test_blocked_heads(self, text, tried):
        # select tries only the heads h < len(bound): from n / 2 on no block
        # is longer than the head, and from 2 on the head of the second
        # word holds more b than the rest of the word
        table = table_of(text)
        bound = _select_bound(table.word)
        starts = _one_block_starts(table, bound)
        assert len(bound) == tried
        rows = one_block_rows(offline._select_rows(table), len(text))
        assert rows == per_candidate_one_block_rows(table, starts)
        expected = {}
        for h, p in oracle_periods(text):
            if h + 2 * p > len(text):
                expected.setdefault(p, []).append(h)
        assert rows == expected

    @pytest.mark.parametrize("text", ["abaababaab", "aabbbabaab", "abcacbacab"])
    def test_heads_that_never_get_ready(self, text):
        # an unblocked head of select always has the one-block period
        # (h, n - h), so starts[h] = n - h + 1 (no one-block period) is set
        # by hand here: such a head must never enter a slice, and the heads
        # that share its window must still come out
        table = table_of(text)
        n = len(text)
        bound = _select_bound(table.word)
        starts = _one_block_starts(table, bound)
        for h in range(len(starts)):
            never = starts[:h] + [n - h + 1] + starts[h + 1 :]
            rows = list(offline._verified_rows(table, False, bound, never))
            assert one_block_rows(rows, n) == per_candidate_one_block_rows(table, never), (text, h)
            assert all(h not in heads or h + 2 * p <= n for p, heads in rows), (text, h)


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
        sigmas = (2, 4, 8, 16, 26)
        for j in range(1250):
            sigma = sigmas[j % 5]
            length = (j % 200) + 1
            table = PrefixParikhTable(random_word(sigma, length, seed=j))
            assert list(select_periods(table)) == list(brute_force_periods(table)), (
                sigma,
                length,
                j,
            )


def fingerprint(text, letters):
    weights = offline._letter_weights(len(letters))
    return sum(weights[letters.index(a)] for a in text)


class TestFingerprintScreen:
    """The multi-block screen drops a candidate only when the fingerprints
    of its first two blocks differ; every survivor gets the exact walk."""

    @pytest.mark.parametrize("letters,max_len", [("ab", 10), ("abc", 7)])
    def test_screen_never_decides_alone(self, monkeypatch, letters, max_len):
        """With one shared letter weight every block has the same
        fingerprint, so every multi-block candidate passes the screen and
        only the exact tests decide."""
        monkeypatch.setattr(offline, "_letter_weights", lambda sigma: [1] * sigma)
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            expected = list(oracle_periods(text))
            table = table_of(text, alphabet)
            capped = [(h, p) for h, p in expected if h + 2 * p <= len(text)]
            for enumerate_periods in (brute_force_periods, select_periods):
                assert list(enumerate_periods(table)) == expected, (text, enumerate_periods)
                assert list(enumerate_periods(table, nontrivial_only=True)) == capped, (text, enumerate_periods)

    def test_colliding_blocks(self):
        """aaaaaccc and bbbbbbbb are no anagrams, yet they share a
        fingerprint, so (0, 8) passes the screen and the walk rejects it."""
        text = "aaaaaccc" + "bbbbbbbb"
        assert fingerprint(text[:8], "abc") == fingerprint(text[8:], "abc")
        expected = recount_periods(text)
        assert (0, 8) not in expected
        table = table_of(text, Alphabet("abc"))
        assert list(periods_by_definition(table)) == expected
        for enumerate_periods in (brute_force_periods, select_periods):
            assert list(enumerate_periods(table)) == expected, enumerate_periods
            assert list(enumerate_periods(table, nontrivial_only=True)) == [
                (h, p) for h, p in expected if h + 2 * p <= len(text)
            ], enumerate_periods


WIDE = "".join(map(chr, range(256)))


class TestSlotSizes:
    """Both screens size their slots by the word: the fingerprint slots by
    the whole word's fingerprint, the one-block slots by sigma * width."""

    @staticmethod
    def check(text, letters, oracle=True):
        table = table_of(text, Alphabet(letters))
        got = list(brute_force_periods(table))
        assert list(select_periods(table)) == got, text
        if oracle:
            assert got == list(periods_by_definition(table)), text
        capped = [(h, p) for h, p in got if h + 2 * p <= len(text)]
        for enumerate_periods in (brute_force_periods, select_periods):
            assert list(enumerate_periods(table, nontrivial_only=True)) == capped, (text, enumerate_periods)

    def test_shortest_words(self):
        for text in words_over("abc", 2, min_len=0):
            self.check(text, "abc")

    def test_alphabet_much_wider_than_the_word(self):
        """sigma = 256 over three letters: the lowest, a middle and the
        highest field of one-block slots 65 to 129 bytes wide."""
        for text in words_over("\x00\x80\xff", 5):
            self.check(text, WIDE)

    @pytest.mark.parametrize("letters,step", [("ab", 1), ("abcd", 97)])
    def test_value_bits_fill_whole_bytes(self, letters, step):
        """sigma * width a multiple of 8 (width 4 at n = 7): the value bits
        fill whole bytes, and the spare byte starts right above the top
        guard bit."""
        assert PrefixParikhTable(Word("a" * 7)).width == 4
        for text in list(words_over(letters, 7, min_len=7))[::step]:
            self.check(text, letters)

    @pytest.mark.parametrize("n", [127, 128, 255, 256])
    def test_width_and_fingerprint_steps(self, n):
        """width steps up at n = 128 and 256, and the fingerprint of a^n
        (weight 1 per a) needs a second byte from n = 128 on."""
        words = ["a" * n, "a" * (n - 1) + "b", "b" + "a" * (n - 1)]
        words += [random_word(sigma, n, seed=n + sigma).text for sigma in (2, 3, 26)]
        for text in words:
            self.check(text, "".join(sorted(set(text))), oracle=False)
