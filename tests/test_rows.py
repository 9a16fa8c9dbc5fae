"""The answer as rows ``(p, heads)``, one per block length with a period,
through the row dispatch the CLI reads, for all five algorithms."""

import pytest

import abelianperiods
from abelianperiods import ALGOS, Alphabet, Word, offline
from abelianperiods.analysis import _nondeducible_rows
from conftest import oracle_periods, pairwise_nondeducible, words_over

CORPORA = [("ab", 10), ("abc", 7)]


def check_rows(letters, max_len, algos):
    """Rows are non-empty, by increasing p, with increasing heads, and
    flatten to the definition's periods, all or the non-trivial ones."""
    alphabet = Alphabet(letters)
    for text in words_over(letters, max_len):
        n = len(text)
        every = list(oracle_periods(text))
        capped = [(h, p) for h, p in every if h + 2 * p <= n]
        word = Word(text, alphabet)
        for algo in algos:
            for nontrivial_only, expected in ((False, every), (True, capped)):
                case = (text, algo, nontrivial_only)
                rows = list(abelianperiods._period_rows(word, algo, nontrivial_only=nontrivial_only))
                blocks = [p for p, _ in rows]
                assert all(heads for _, heads in rows), case
                assert all(a < b for a, b in zip(blocks, blocks[1:])), case
                assert all(a < b for _, heads in rows for a, b in zip(heads, heads[1:])), case
                assert [(h, p) for p, heads in rows for h in heads] == expected, case


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("letters,max_len", CORPORA)
def test_rows_flatten_to_the_definition(letters, max_len, algo):
    check_rows(letters, max_len, [algo])


@pytest.mark.parametrize("letters,max_len", CORPORA)
def test_rows_when_the_screen_never_decides_alone(monkeypatch, letters, max_len):
    # one shared letter weight lets every multi-block candidate through the
    # fingerprint screen of brute and select, so only the exact tests decide;
    # the on-line algorithms read no weights
    monkeypatch.setattr(offline, "_letter_weights", lambda sigma: [1] * sigma)
    check_rows(letters, max_len, ["brute", "select"])


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("letters,max_len", CORPORA)
def test_nondeducible_rows_match_the_pairwise_filter(letters, max_len, algo):
    # the CLI's streamed filter, one row at a time, against the O(s^2) referee
    alphabet = Alphabet(letters)
    for text in words_over(letters, max_len):
        n = len(text)
        rows = list(_nondeducible_rows(abelianperiods._period_rows(Word(text, alphabet), algo), n))
        assert all(heads for _, heads in rows), (text, algo)
        expected = pairwise_nondeducible(oracle_periods(text), n)
        assert [(h, p) for p, heads in rows for h in heads] == expected, (text, algo)
