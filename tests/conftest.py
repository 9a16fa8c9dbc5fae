"""Shared test helpers: an independent recount checker and word corpora."""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache
from itertools import groupby, product

import pytest

import abelianperiods
from abelianperiods import (
    PrefixParikhTable,
    Word,
    cutting_positions,
    is_abelian_period,
    periods_by_definition,
)


def fresh_python(probe: str) -> str:
    """The stdout of ``probe`` run in a new interpreter on this package.

    What a module loads, and when, shows only in a process that has not
    imported it yet. ``-S`` keeps site-packages hooks from adding modules of
    their own.
    """
    src = os.path.dirname(os.path.dirname(abelianperiods.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


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


@lru_cache(maxsize=None)
def prefix_lifetimes(text: str) -> dict[tuple[int, int], int]:
    """The last prefix length having each candidate (h, p) of ``text``, or -1.

    Covers every pair with h < p and h + p <= n, the entries of the
    ``online_array`` rows; -1 marks a pair that is no period of
    w[1..h+p]. A period that fails on a prefix fails on every longer one
    (its failing head, block or tail only grows), so the prefixes having
    (h, p) form an interval starting at h + p, whose end is found by binary
    search with ``is_abelian_period``: O(n² log n) definition checks where
    testing every prefix would take O(n³). Callers must not mutate the
    result.
    """
    word = Word(text)
    n = len(text)
    tables = [PrefixParikhTable(word.prefix(i)) for i in range(n + 1)]
    last = {}
    for p in range(1, n + 1):
        for h in range(min(p - 1, n - p) + 1):
            lo = h + p
            if not is_abelian_period(tables[lo], h, p):
                last[h, p] = -1
                continue
            hi = n
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if is_abelian_period(tables[mid], h, p):
                    lo = mid
                else:
                    hi = mid - 1
            last[h, p] = lo
    return last


def rows_as_dict(rows) -> dict[tuple[int, int], int]:
    """``online_array`` rows as ``{(h, p): rows[p][h]}``, every entry kept."""
    return {(h, p): v for p, row in enumerate(rows) for h, v in enumerate(row)}


def prefix_sets(text: str):
    """Yield ``(i, periods)`` for every prefix w[1..i] of ``text``, i = 1..n.

    Built from :func:`prefix_lifetimes`: (h, p) is a period of w[1..i]
    exactly when h + p <= i <= its last prefix. Each set is a fresh copy.
    """
    n = len(text)
    enter = [[] for _ in range(n + 1)]
    leave = [[] for _ in range(n + 2)]
    for (h, p), last in prefix_lifetimes(text).items():
        if last >= 0:
            enter[h + p].append((h, p))
            leave[last + 1].append((h, p))
    live = set()
    for i in range(1, n + 1):
        live.difference_update(leave[i])
        live.update(enter[i])
        yield i, live.copy()


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


def field_boundary_words() -> list:
    """``pytest.param(text, alphabet letters)`` cases whose packed count
    fields are only just wide enough.

    One letter's count reaches n or n - 1, for n = 2^k - 1, 2^k, 2^k + 1
    (k = 1..7); a field holds bitlen(n) + 1 bits. Covered: unary words,
    unary words with one foreign letter at the start, middle or end, and
    unary words over an alphabet wider than the text, with the used letter
    in the lowest, the middle and the highest field. Ids run-length encode
    the text, e.g. ``a63b1a64-ab``.
    """
    lengths = sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)})
    cases = []
    for n in lengths:
        cases.append(("a" * n, "a"))
        for letter in "abc":
            cases.append((letter * n, "abc"))
        if n >= 2:
            mid = n // 2
            cases.append(("b" + "a" * (n - 1), "ab"))
            cases.append(("a" * mid + "b" + "a" * (n - 1 - mid), "ab"))
            cases.append(("a" * (n - 1) + "b", "ab"))
    return [
        pytest.param(
            text,
            letters,
            id="".join(f"{a}{len(list(run))}" for a, run in groupby(text)) + "-" + letters,
        )
        for text, letters in cases
    ]
