"""Off-line enumeration of all Abelian periods of a whole word.

Two enumerators with identical output:

* :func:`brute_force_periods` tests every admissible (h, p): the head
  against the first block, then the blocks one by one until the first
  mismatch, then the tail.
* :func:`select_periods` prunes candidates with the M and G lower-bound
  tables first, which also settles the head test, then verifies the
  surviving ones with the same block walk and tail test.

Every head, block and tail test is one operation on packed Parikh vectors
(see :class:`~abelianperiods.words.PrefixParikhTable`), so its cost does
not grow with the alphabet. Both stream their output lazily as generators,
in canonical order (increasing p, then increasing h), in O(n^2) vector
operations.

:func:`shift_check` is the paper's select-jump walk, kept as a standalone
reference: it verifies a candidate through occurrence ranks alone, in
O(n / p * sigma) lookups.

With ``nontrivial_only`` the candidate range is capped at h + 2p <= n, so
only periods with at least two full blocks are enumerated (and paid for);
this is the regime where the pruned enumerator visibly wins.
"""

from __future__ import annotations

from typing import Iterator

from .rank_select import SelectIndex, compute_g, compute_m, compute_select
from .words import Period, PrefixParikhTable, contains_weak

__all__ = ["brute_force_periods", "select_periods", "shift_check"]


def _verified_periods(
    table: PrefixParikhTable, nontrivial_only: bool, bound: list[int] | None = None
) -> Iterator[Period]:
    """The candidates (h, p) that pass the head, block and tail tests.

    Without ``bound`` every admissible candidate is tried and the head is
    tested against the first block. With it only heads h < len(bound) are
    tried, each with p >= bound[h] only, and the head test is skipped: the
    bound must guarantee it.
    """
    n = table.n
    P, guard = table.packed, table.guard
    Pn = P[n]
    hcap = n if bound is None else len(bound)
    for p in range(1, n + 1):
        hmax = min(p - 1, (n - 2 * p) if nontrivial_only else (n - p), hcap - 1)
        for h in range(hmax + 1):
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


def brute_force_periods(
    table: PrefixParikhTable, *, nontrivial_only: bool = False
) -> Iterator[Period]:
    """Every Abelian period of the word, by direct block comparison.

    For each candidate the head is checked against the first block, the
    remaining full blocks against the first one, and the tail last.
    """
    yield from _verified_periods(table, nontrivial_only)


def shift_check(
    table: PrefixParikhTable,
    idx: SelectIndex,
    h: int,
    p: int,
    *,
    skip_head_check: bool = False,
) -> bool:
    """Whether (h, p) is an Abelian period, with empty tail, of the longest
    prefix it tiles exactly (length n - ((n - h) mod p)).

    Instead of comparing block vectors, each step asks select where the
    cumulative count of every letter must land: after k blocks the word
    must contain head[a] + k * block[a] occurrences of a within the first
    h + k*p positions. An undefined select answer fails the candidate.
    O(n / p * sigma) time, O(sigma) extra space.

    ``skip_head_check`` omits the head containment test for callers that
    already guarantee it (p at least M[h] implies it, the block vector only
    growing with p).
    """
    n = table.n
    if not 0 <= h < p:
        raise ValueError(f"head/period ({h}, {p}) violates 0 <= h < p")
    if h + p > n:
        raise ValueError(f"period ({h}, {p}) does not fit in a word of length {n}")
    head = table.factor(1, h)
    block = table.factor(h + 1, p)
    if not skip_head_check and not contains_weak(head, block):
        return False
    C, S = idx.C, idx.S
    sigma = len(C) - 1
    i = h + p
    while i + p <= n:
        k1 = 1 + i // p
        limit = i + p
        for ai in range(sigma):
            r = head[ai] + k1 * block[ai]
            if r:
                if r > C[ai + 1] - C[ai]:
                    return False
                if S[C[ai] + r - 2] > limit:
                    return False
        i += p
    return True


def select_periods(
    table: PrefixParikhTable, *, nontrivial_only: bool = False
) -> Iterator[Period]:
    """Every Abelian period of the word, with M/G pruning.

    Candidates below max(M[h], (G[h] + 1) // 2) are skipped outright, heads
    at or beyond the first blocked one are never tried, and the head
    containment test is folded into M (p >= M[h] already implies it).
    Surviving candidates get the block walk and tail test of
    :func:`brute_force_periods`. Output is identical to it.
    """
    n = table.n
    if n == 0:
        return
    word = table.word
    idx = compute_select(word)
    m = compute_m(word, idx)
    g = compute_g(word)
    try:
        h_blocked = m.index(-1)  # blocked heads form a suffix of the table
    except ValueError:
        h_blocked = len(m)
    bound = [max(mh, (gh + 1) // 2) for mh, gh in zip(m[:h_blocked], g)]
    yield from _verified_periods(table, nontrivial_only, bound)
