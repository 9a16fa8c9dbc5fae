"""Select index and the M / G pruning tables."""

import pytest

from abelianperiods import (
    Alphabet,
    PrefixParikhTable,
    Word,
    compute_g,
    compute_m,
    compute_select,
    is_abelian_period,
    select,
)
from conftest import words_over


def m_table_oracle(word: Word) -> list[int]:
    """Direct evaluation of the head-containment bound, scanning p upward.

    Head 0 carries no constraint, so M[0] = 0 by convention. A head is
    blocked (-1) when some letter already uses more than half of its total
    occurrences; otherwise M[h] is the least p with w[1..h] strictly
    contained in w[h+1..h+p].
    """
    table = PrefixParikhTable(word)
    n = len(word)
    out = []
    for h in range(((n - 1) // 2) + 1 if n else 0):
        if h == 0:
            out.append(0)
            continue
        head = table.factor(1, h)
        total = table.factor(1, n)
        if any(2 * x > y for x, y in zip(head, total)):
            out.append(-1)
            continue
        for p in range(h + 1, n - h + 1):
            window = table.factor(h + 1, p)
            if all(x <= y for x, y in zip(head, window)):
                out.append(p)
                break
        else:  # pragma: no cover - unblocked heads always find a bound
            raise AssertionError(f"no bound found for {word.text!r}, h={h}")
    return out


def g_table_oracle(word: Word) -> list[int]:
    """Max gap between consecutive equal letters strictly beyond each h."""
    n = len(word)
    positions = {}
    for j, ch in enumerate(word.text, start=1):
        positions.setdefault(ch, []).append(j)
    out = []
    for h in range(n + 1):
        best = 0
        for occ in positions.values():
            for lo, hi in zip(occ, occ[1:]):
                if lo > h:
                    best = max(best, hi - lo)
        out.append(best)
    return out


class TestComputeSelect:
    def test_golden_index(self):
        idx = compute_select(Word("abaababa"))
        assert list(idx.C) == [1, 6, 9]
        assert list(idx.S) == [1, 3, 4, 6, 8, 2, 5, 7]

    def test_single_letter(self):
        idx = compute_select(Word("a"))
        assert list(idx.C) == [1, 2] and list(idx.S) == [1]

    def test_letter_absent_from_word(self):
        idx = compute_select(Word("bbb", Alphabet("ab")))
        assert list(idx.C) == [1, 1, 4] and list(idx.S) == [1, 2, 3]

    def test_empty_word_trivial_index(self):
        idx = compute_select(Word("", Alphabet("ab")))
        assert list(idx.C) == [1, 1, 1] and list(idx.S) == []


class TestSelect:
    def test_golden_queries(self):
        idx = compute_select(Word("abaababa"))
        assert select(idx, "b", 2) == 5
        assert select(idx, "a", 0) == 0
        assert select(idx, "b", 0) == 0
        assert select(idx, "a", 6) is None

    def test_errors(self):
        idx = compute_select(Word("ab"))
        with pytest.raises(ValueError):
            select(idx, "z", 1)
        with pytest.raises(ValueError):
            select(idx, "a", -1)

    def test_matches_linear_scan_exhaustively(self):
        # sigma = 1, 2, 3, all words up to length 10
        for letters in ("a", "ab", "abc"):
            alphabet = Alphabet(letters)
            for text in words_over(letters, 10):
                idx = compute_select(Word(text, alphabet))
                occurrences = {a: [] for a in letters}
                for j, ch in enumerate(text, start=1):
                    occurrences[ch].append(j)
                for a in letters:
                    assert select(idx, a, 0) == 0
                    for rank, position in enumerate(occurrences[a], start=1):
                        assert select(idx, a, rank) == position
                    assert select(idx, a, len(occurrences[a]) + 1) is None


class TestComputeM:
    def test_known_table(self):
        w = Word("abaaaaabaa")
        m = compute_m(w, compute_select(w))
        assert m == [0, 2, 6, 5, 5]
        assert m[2] == 6

    def test_head_zero_unconstrained(self):
        for text in ("ab", "abaababa", "bbbb", "abcabc"):
            w = Word(text)
            assert compute_m(w, compute_select(w))[0] == 0

    def test_two_letter_word_has_single_entry(self):
        w = Word("ab")
        assert compute_m(w, compute_select(w)) == [0]

    def test_adjusted_entry(self):
        # the raw bound lands on h itself and gets bumped to h + 1
        w = Word("aab")
        assert compute_m(w, compute_select(w)) == [0, 2]

    def test_blocked_head(self):
        w = Word("abb")
        m = compute_m(w, compute_select(w))
        assert m == [0, -1]
        assert m[1] == -1 and m[0] != -1

    def test_matches_direct_bound_binary_words(self):
        # and ternary words, whose heads block at other lengths
        for letters, max_len in (("ab", 12), ("abc", 7)):
            alphabet = Alphabet(letters)
            for text in words_over(letters, max_len):
                w = Word(text, alphabet)
                assert compute_m(w, compute_select(w)) == m_table_oracle(w), text

    def test_blocked_suffix_is_monotone(self):
        for text in words_over("ab", 12):
            w = Word(text, Alphabet("ab"))
            m = compute_m(w, compute_select(w))
            if -1 in m:
                assert all(x == -1 for x in m[m.index(-1) :]), text


class TestComputeG:
    def test_all_distinct_letters(self):
        assert compute_g(Word("abcd")) == [0] * 5

    def test_known_values(self):
        assert compute_g(Word("abaaaaabaa"))[0] == 6
        assert compute_g(Word("abaababa"))[5] == 2

    def test_last_entry_zero_and_non_increasing(self):
        for text in ("abaababa", "aabbab", "abcabcabc"):
            g = compute_g(Word(text))
            assert g[len(text)] == 0
            assert all(x >= y for x, y in zip(g, g[1:]))

    def test_matches_double_loop_binary_words(self):
        for text in words_over("ab", 12):
            w = Word(text, Alphabet("ab"))
            assert compute_g(w) == g_table_oracle(w), text


class TestPruningSoundness:
    def test_no_period_below_the_bound(self):
        # anything under max(M[h], (G[h]+1)//2) must fail the oracle
        for text in words_over("ab", 11):
            w = Word(text, Alphabet("ab"))
            table = PrefixParikhTable(w)
            n = len(text)
            m = compute_m(w, compute_select(w))
            g = compute_g(w)
            for h in range(len(m)):
                if m[h] == -1:
                    for p in range(h + 1, n - h + 1):
                        assert not is_abelian_period(table, h, p), (text, h, p)
                    continue
                bound = max(m[h], (g[h] + 1) // 2)
                for p in range(h + 1, min(bound, n - h + 1)):
                    assert not is_abelian_period(table, h, p), (text, h, p)
