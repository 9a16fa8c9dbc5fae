"""Off-line enumeration of all Abelian periods of a whole word.

Two enumerators with identical output:

* :func:`brute_force_periods` tests every admissible (h, p) against the
  prefix Parikh table, walking the blocks until the first mismatch.
* :func:`select_periods` prunes candidates with the M and G lower-bound
  tables first, then verifies the surviving ones block by block through
  constant-time select jumps (:func:`shift_check`) plus one tail test.

Both stream their output lazily as generators, in canonical order
(increasing p, then increasing h), and both run in O(n^2 * sigma) time
with O(n * sigma) space for the shared prefix table.

With ``nontrivial_only`` the candidate range is capped at h + 2p <= n, so
only periods with at least two full blocks are enumerated (and paid for);
this is the regime where the pruned enumerator visibly wins.
"""

from __future__ import annotations

from typing import Iterator

from .rank_select import SelectIndex, compute_g, compute_m, compute_select
from .words import Period, PrefixParikhTable, contains_weak

__all__ = ["brute_force_periods", "select_periods", "shift_check"]


def brute_force_periods(
    table: PrefixParikhTable, *, nontrivial_only: bool = False
) -> Iterator[Period]:
    """Every Abelian period of the word, by direct block comparison.

    For each candidate the head is checked against the first block, the
    remaining full blocks against the first one (only sigma - 1 letters
    need comparing, block lengths being equal), and the tail last.
    """
    n = table.n
    if n == 0:
        return
    cols = table.prefix_counts
    body = cols[:-1]  # last letter's count is implied by equal lengths
    for p in range(1, n + 1):
        hmax = min(p - 1, (n - 2 * p) if nontrivial_only else (n - p))
        b1 = p
        for h in range(hmax + 1):
            k, t = divmod(n - h, p)
            ok = True
            for c in cols:
                if 2 * c[h] > c[b1]:
                    ok = False
                    break
            if ok and k > 1:
                last = n - t
                for c in body:
                    base = c[b1] - c[h]
                    j = b1
                    while j < last:
                        j2 = j + p
                        if c[j2] - c[j] != base:
                            ok = False
                            break
                        j = j2
                    if not ok:
                        break
            if ok and t:
                nt = n - t
                for c in cols:
                    if c[n] - c[nt] > c[b1] - c[h]:
                        ok = False
                        break
            if ok:
                yield h, p
            b1 += 1


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
    """Every Abelian period of the word, with M/G pruning and select jumps.

    Candidates below max(M[h], (G[h] + 1) // 2) are skipped outright, heads
    at or beyond the first blocked one are never tried, and the head
    containment test is folded into M (p >= M[h] already implies it).
    Surviving candidates get the :func:`shift_check` walk, inlined here to
    keep the per-candidate cost down, then the tail test. Output is
    identical to :func:`brute_force_periods`.
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
    bound = [max(mh, (gh + 1) // 2) for mh, gh in zip(m, g)]
    cols = table.prefix_counts
    C, S = idx.C, idx.S
    letters = range(len(cols))
    for p in range(1, n + 1):
        hmax = min(p - 1, (n - 2 * p) if nontrivial_only else (n - p), h_blocked - 1)
        for h in range(hmax + 1):
            if p < bound[h]:
                continue
            b1 = h + p
            i = b1
            ok = True
            while i + p <= n:
                k1 = 1 + i // p
                limit = i + p
                for ai in letters:
                    c = cols[ai]
                    r = c[h] + k1 * (c[b1] - c[h])
                    if r and (r > C[ai + 1] - C[ai] or S[C[ai] + r - 2] > limit):
                        ok = False
                        break
                if not ok:
                    break
                i += p
            if not ok:
                continue
            t = (n - h) % p
            if t:
                nt = n - t
                for c in cols:
                    if c[n] - c[nt] > c[b1] - c[h]:
                        ok = False
                        break
            if ok:
                yield h, p
