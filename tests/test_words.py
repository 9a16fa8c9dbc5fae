"""Core types: alphabets, words, Parikh vectors, the period oracle."""

from itertools import product

import pytest

from abelianperiods import (
    Alphabet,
    PrefixParikhTable,
    Word,
    contains_strict,
    contains_weak,
    is_abelian_period,
    parikh,
    periods_by_definition,
)
from conftest import field_boundary_words, recount_is_period, words_over


def table_of(text, alphabet=None):
    return PrefixParikhTable(Word(text, alphabet))


class TestAlphabet:
    def test_inferred_from_text_is_sorted(self):
        assert Alphabet.from_text("banana").letters == "abn"

    def test_ind_is_the_one_based_rank(self):
        a = Alphabet("abc")
        assert [a.ind(ch) for ch in "abc"] == [1, 2, 3]
        assert a.size == 3

    def test_rejects_duplicates_and_disorder(self):
        # strict order already rules out a repeated letter
        for letters in ("aab", "aba", "ba"):
            with pytest.raises(ValueError, match="strictly increasing"):
                Alphabet(letters)

    def test_foreign_letter(self):
        with pytest.raises(ValueError):
            Alphabet("ab").ind("z")


class TestWord:
    def test_positions_are_one_based(self):
        w = Word("abaababa")
        assert w.factor(1, 1) == "a" and w.factor(2, 2) == "b"
        assert w.factor(2, 4) == "baa"
        assert len(w) == 8

    def test_explicit_alphabet_validates_symbols(self):
        Word("bbb", Alphabet("ab"))
        with pytest.raises(ValueError, match="symbol 'c' is not in the alphabet"):
            Word("abc", Alphabet("ab"))

    @pytest.mark.parametrize(
        "text, alphabet, codes",
        [
            ("banana", None, (1, 0, 2, 0, 2, 0)),
            ("bbb", Alphabet("ab"), (1, 1, 1)),
            ("", None, ()),
            ("", Alphabet("ab"), ()),
        ],
        ids=["inferred", "wider", "empty", "empty-explicit"],
    )
    def test_codes_are_zero_based_ranks(self, text, alphabet, codes):
        w = Word(text, alphabet)
        assert w.codes == codes
        assert w.codes == tuple(w.alphabet.ind(ch) - 1 for ch in text)

    def test_empty_word_has_no_periods(self):
        assert list(periods_by_definition(table_of(""))) == []

    def test_single_letter_word(self):
        assert list(periods_by_definition(table_of("a"))) == [(0, 1)]


class TestContainment:
    def test_weak_examples(self):
        assert contains_weak((0, 0), (3, 2))
        assert contains_weak((3, 2), (3, 2))
        assert not contains_weak((2, 1), (1, 2))

    def test_strict_examples(self):
        # head a against block bab of ababbbabb
        assert contains_strict((1, 0), (1, 2))
        assert not contains_strict((3, 2), (3, 2))
        assert not contains_strict((0, 0), (0, 0))

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            contains_weak((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            contains_strict((1,), (1, 2))

    def test_strict_implies_weak_irreflexive_transitive(self):
        space = list(product(range(3), repeat=2))
        for p in space:
            assert not contains_strict(p, p)
            for q in space:
                if contains_strict(p, q):
                    assert contains_weak(p, q)
                for r in space:
                    if contains_strict(p, q) and contains_strict(q, r):
                        assert contains_strict(p, r)


class TestFactorParikh:
    def test_whole_word(self):
        assert table_of("abaababa").factor(1, 8) == (5, 3)

    def test_empty_factor_is_zero(self):
        assert table_of("abaababa").factor(1, 0) == (0, 0)
        assert table_of("abaababa").factor(9, 0) == (0, 0)

    def test_inner_factor(self):
        assert table_of("abaababa").factor(2, 3) == (2, 1)  # baa

    def test_out_of_range(self):
        t = table_of("abaababa")
        for i, m in [(0, 1), (1, 9), (8, 2), (-1, 0), (1, -1), (10, 0)]:
            with pytest.raises(ValueError):
                t.factor(i, m)

    def test_norm_equals_length(self):
        t = table_of("abaababa")
        for i in range(1, 9):
            for m in range(0, 9 - i + 1):
                assert sum(t.factor(i, m)) == m

    def test_additivity(self):
        t = table_of("aabbaba")
        n = t.n
        for i in range(1, n + 1):
            for m in range(0, n - i + 1):
                for m2 in range(0, n - i - m + 1):
                    left = t.factor(i, m)
                    right = t.factor(i + m, m2)
                    joint = t.factor(i, m + m2)
                    assert tuple(x + y for x, y in zip(left, right)) == joint

    def test_rows(self):
        w = Word("abaababa")
        t = PrefixParikhTable(w)
        assert t.factor(1, 0) == (0, 0)
        assert t.factor(1, 8) == parikh(w)
        for j in range(1, 9):
            delta = tuple(x - y for x, y in zip(t.factor(1, j), t.factor(1, j - 1)))
            unit = tuple(int(a == w.factor(j, j)) for a in w.alphabet)
            assert delta == unit


class TestPackedFieldBoundaries:
    """Counts that fill a packed field: prefix and factor vectors against parikh."""

    @pytest.mark.parametrize("text, letters", field_boundary_words())
    def test_rows_and_factors_match_parikh(self, text, letters):
        alphabet = Alphabet(letters)
        t = table_of(text, alphabet)
        n = len(text)
        for j in range(n + 1):
            assert t.factor(1, j) == parikh(Word(text[:j], alphabet)), j
        for i in {1, 2, n // 2 + 1, n} & set(range(1, n + 1)):
            for m in range(n - i + 2):
                expected = parikh(Word(text[i - 1 : i - 1 + m], alphabet))
                assert t.factor(i, m) == expected, (i, m)

    @pytest.mark.parametrize("text, letters", field_boundary_words())
    def test_packed_containment_matches_tuples(self, text, letters):
        t = table_of(text, Alphabet(letters))
        guard = t.guard
        rows = [t.factor(1, j) for j in range(t.n + 1)]
        for x, xs in zip(t.packed, rows):
            for y, ys in zip(t.packed, rows):
                packed_leq = ((y | guard) - x) & guard == guard
                assert packed_leq == contains_weak(xs, ys), (xs, ys)


class TestIsAbelianPeriod:
    def test_golden_word(self):
        t = table_of("abaababa")
        assert is_abelian_period(t, 1, 2)
        assert not is_abelian_period(t, 0, 2)
        assert is_abelian_period(t, 0, 8)

    def test_intro_word(self):
        # ababbbabb = a | bab | bba | bb
        assert is_abelian_period(table_of("ababbbabb"), 1, 3)

    def test_precondition_violations(self):
        t = table_of("abaababa")
        for h, p in [(-1, 2), (2, 2), (3, 2), (0, 0), (4, 5), (0, 9)]:
            with pytest.raises(ValueError):
                is_abelian_period(t, h, p)

    def test_whole_length_is_always_a_period(self):
        for text in words_over("ab", 6):
            assert is_abelian_period(table_of(text), 0, len(text))

    def test_agrees_with_recount_checker_binary_words(self):
        # exhaustive cross-check of the oracle itself, lengths 1..12
        for text in words_over("ab", 12):
            t = table_of(text)
            n = len(text)
            for p in range(1, n + 1):
                for h in range(min(p - 1, n - p) + 1):
                    assert is_abelian_period(t, h, p) == recount_is_period(
                        text, h, p
                    ), (text, h, p)
