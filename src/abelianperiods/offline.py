"""Off-line enumeration of all Abelian periods of a whole word.

Two enumerators with identical output:

* :func:`brute_force_periods` tests every admissible (h, p): the head
  against the first block, then the blocks one by one until the first
  mismatch, then the tail.
* :func:`select_periods` prunes candidates with the M and G lower-bound
  tables first, which also settles the head test, then verifies the
  surviving multi-block ones (h + 2p <= n) with the same block walk and
  tail test. A one-block candidate (h + 2p > n: one full block, the tail
  shorter than it) needs no vector test: the one-block periods of each
  head form an interval of p, found once per head by binary search.

Every head, block and tail test is one operation on packed Parikh vectors
(see :class:`~abelianperiods.words.PrefixParikhTable`), so its cost does
not grow with the alphabet. Both stream their output lazily as generators,
in canonical order (increasing p, then increasing h), in O(n^2) vector
operations.

With ``nontrivial_only`` the candidate range is capped at h + 2p <= n, so
only periods with at least two full blocks are enumerated (and paid for);
there select gains only what the M and G tables prune.
"""

from __future__ import annotations

from typing import Iterator

from .rank_select import compute_g, compute_m, compute_select
from .words import Period, PrefixParikhTable, Word

__all__ = ["brute_force_periods", "select_periods"]


def _verified_periods(
    table: PrefixParikhTable,
    nontrivial_only: bool,
    bound: list[int] | None = None,
    starts: list[int] | None = None,
) -> Iterator[Period]:
    """The candidates (h, p) that pass the head, block and tail tests.

    Per p, the multi-block heads (h + 2p <= n) come before the one-block
    heads (h + 2p > n), which keeps the canonical order. Without ``bound``
    every admissible candidate is tried and the head is tested against the
    first block. With it only heads h < len(bound) are tried, a multi-block
    candidate only if p >= bound[h], and without a head test: the bound
    must guarantee it. A one-block candidate has no blocks to walk: with
    ``starts`` (see :func:`_one_block_starts`) it is a period iff
    p >= starts[h], without it its head and tail are tested.
    """
    n = table.n
    P, guard = table.packed, table.guard
    Pn = P[n]
    hcap = n if bound is None else len(bound)
    for p in range(1, n + 1):
        for h in range(min(p - 1, n - 2 * p, hcap - 1) + 1):
            if bound is not None and p < bound[h]:
                continue
            ph = P[h]
            j = h + p
            block = P[j] - ph
            if bound is None and ((block | guard) - ph) & guard != guard:
                continue
            t = (n - h) % p
            last = n - t
            e = P[j]
            while j < last:
                j += p
                e += block
                if P[j] != e:
                    break
            else:
                if not t or ((block | guard) - (Pn - P[last])) & guard == guard:
                    yield h, p
        if nontrivial_only:
            continue
        one_block = range(max(0, n - 2 * p + 1), min(p - 1, n - p, hcap - 1) + 1)
        if starts is None:
            for h in one_block:
                ph = P[h]
                e = P[h + p]
                guarded = (e - ph) | guard
                if (guarded - ph) & guard == guard and (guarded - (Pn - e)) & guard == guard:
                    yield h, p
        else:
            for h in one_block:
                if starts[h] <= p:
                    yield h, p


def _one_block_starts(table: PrefixParikhTable, bound: list[int]) -> list[int]:
    """Per head h < len(bound), the least one-block p making (h, p) a period.

    A one-block candidate (h + 2p > n) is a period iff its head and its
    tail both fit in its block. For a fixed h a larger p grows the block and
    shrinks the tail, so both tests are monotone in p, and the one-block
    periods of h are exactly p in [starts[h], n - h]; starts[h] is n - h + 1
    when there are none. Each entry is a binary search over p from
    max((n - h) // 2 + 1, bound[h]) that tests the tail only: ``bound``
    must exclude no period and have bound[h] >= M[h], where the head
    already fits. O(n log n) vector operations for the whole table.
    """
    n = table.n
    P, guard = table.packed, table.guard
    Pn = P[n]
    starts = []
    for h, bh in enumerate(bound):
        ph = P[h]
        hi = n - h + 1
        lo = min(max((n - h) // 2 + 1, bh), hi)
        while lo < hi:
            mid = (lo + hi) // 2
            e = P[h + mid]
            if (((e - ph) | guard) - (Pn - e)) & guard == guard:
                hi = mid
            else:
                lo = mid + 1
        starts.append(lo)
    return starts


def brute_force_periods(
    table: PrefixParikhTable, *, nontrivial_only: bool = False
) -> Iterator[Period]:
    """Every Abelian period of the word, by direct block comparison.

    For each candidate the head is checked against the first block, the
    remaining full blocks against the first one, and the tail last. A
    one-block candidate (h + 2p > n) has no remaining block to walk.
    """
    return _verified_periods(table, nontrivial_only)


def _select_bound(word: Word) -> list[int]:
    """max(M[h], (G[h] + 1) // 2) per head h before the first blocked one:
    no period (h, p) has a smaller p, and no longer head has a period."""
    idx = compute_select(word)
    m = compute_m(word, idx)
    g = compute_g(word)
    # blocked heads (-1) form a suffix of the table
    return [max(mh, (gh + 1) // 2) for mh, gh in zip(m, g) if mh >= 0]


def select_periods(
    table: PrefixParikhTable, *, nontrivial_only: bool = False
) -> Iterator[Period]:
    """Every Abelian period of the word, with M/G pruning and exact
    one-block intervals.

    Candidates below max(M[h], (G[h] + 1) // 2) are skipped outright, heads
    at or beyond the first blocked one are never tried, and the head
    containment test is folded into M (p >= M[h] already implies it).
    Surviving multi-block candidates (h + 2p <= n) get the block walk and
    tail test of :func:`brute_force_periods`; one-block candidates are one
    comparison with :func:`_one_block_starts`. Output is identical to it.
    """
    bound = _select_bound(table.word)
    starts = None if nontrivial_only else _one_block_starts(table, bound)
    return _verified_periods(table, nontrivial_only, bound, starts)
