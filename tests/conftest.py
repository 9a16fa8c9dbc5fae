"""Shared test helpers: an independent recount checker and word corpora."""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from abelianperiods import (
    PrefixParikhTable,
    Word,
    cutting_positions,
    periods_by_definition,
)


def recount_is_period(text: str, h: int, p: int) -> bool:
    """Definition check by recounting raw slices; no tables, no library code."""
    n = len(text)
    assert 0 <= h < p and h + p <= n
    letters = sorted(set(text))

    def counts(piece: str) -> list[int]:
        return [piece.count(a) for a in letters]

    block = counts(text[h : h + p])
    if not all(x <= y for x, y in zip(counts(text[:h]), block)):
        return False  # the norm condition h < p holds by precondition
    k = (n - h) // p
    for j in range(1, k):
        if counts(text[h + j * p : h + (j + 1) * p]) != block:
            return False
    t = (n - h) % p
    return t == 0 or all(x <= y for x, y in zip(counts(text[n - t :]), block))


def recount_periods(text: str) -> list[tuple[int, int]]:
    """All periods of ``text`` through the recount checker, canonical order."""
    n = len(text)
    return [
        (h, p)
        for p in range(1, n + 1)
        for h in range(min(p - 1, n - p) + 1)
        if recount_is_period(text, h, p)
    ]


@lru_cache(maxsize=None)
def oracle_periods(text: str) -> tuple[tuple[int, int], ...]:
    """Period tuple of ``text`` via the library's definition-level oracle."""
    return tuple(periods_by_definition(PrefixParikhTable(Word(text))))


def pairwise_nondeducible(periods, n: int) -> list[tuple[int, int]]:
    """The pairwise non-deducible filter, kept as the oracle of the fast one.

    ``periods`` should be the complete period set of the word; deducibility
    is relative to it. Pairwise subset checks, O(s^2) set comparisons.
    """
    periods = list(periods)
    cuts = [cutting_positions(h, p, n) for h, p in periods]
    kept = []
    for i, hp in enumerate(periods):
        ci = cuts[i]
        if not any(ci < cj for j, cj in enumerate(cuts) if j != i):
            kept.append(hp)
    return kept


def words_over(letters: str, max_len: int, min_len: int = 1):
    """All strings over ``letters`` of each length from min_len to max_len."""
    for length in range(min_len, max_len + 1):
        for combo in product(letters, repeat=length):
            yield "".join(combo)
