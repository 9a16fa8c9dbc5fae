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

Both come from one body, :func:`_verified_rows`, which yields one row
``(p, heads)`` per block length p that has a period: ``heads`` is the
increasing list of every h with (h, p) a period, and the rows come by
increasing p. The enumerators flatten the rows into (h, p) tuples
(:func:`_periods_of_rows`), lazily and in canonical order (increasing p,
then increasing h); the CLI reads the rows themselves
(:func:`_brute_force_rows`, :func:`_select_rows`), in every whole-word mode.

The body screens all heads of one block length p at once, on big ints
with one slot per head. A multi-block head goes on to the exact tests only
if its first two blocks have equal fingerprints, a fixed positive weighted
sum of the letter counts; brute's one-block heads get their head and tail
tests on slots holding whole packed Parikh vectors. Anagrams share a
fingerprint, so the screen drops no period, and two blocks that are not
anagrams but share one only cost an exact block walk, which compares
whole vectors from the first block on. Per p the screens take
O(n * sigma * log n / w) operations on w-bit machine words; every exact
head, block and tail test is one operation on packed Parikh vectors (see
:class:`~abelianperiods.words.PrefixParikhTable`), O(n^2) vector
operations in all.

With ``nontrivial_only`` the candidate range is capped at h + 2p <= n, so
only periods with at least two full blocks are enumerated (and paid for);
there select gains only what the M and G tables prune.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, compress, repeat

from .rank_select import compute_g, compute_m, compute_select
from .words import Period, PrefixParikhTable, Word

__all__ = ["brute_force_periods", "select_periods"]

# one block length p and the increasing heads h of its periods (h, p)
Row = tuple[int, list[int]]


def _letter_weights(sigma: int) -> list[int]:
    """The fingerprint weight of each letter rank: positive, so prefix
    fingerprints never decrease, and distinct, so two blocks over two
    letters share a fingerprint only if they are anagrams."""
    return [(a + 1) ** 2 for a in range(sigma)]


def _slots(values, size: int) -> int:
    """One int holding the values in consecutive ``size``-byte slots, the
    first value lowest."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def _verified_rows(
    table: PrefixParikhTable,
    nontrivial_only: bool,
    bound: list[int] | None = None,
    starts: list[int] | None = None,
) -> Iterator[Row]:
    """Per p, the heads h of the candidates (h, p) that pass the head,
    block and tail tests, as a row ``(p, heads)``; a p without a period
    yields nothing.

    Each row is done before the next p is read. Its multi-block heads
    (h + 2p <= n) come before its one-block heads (h + 2p > n), so the
    heads increase. Without ``bound`` every admissible candidate is tried
    and the head is tested against the first block. With it only heads
    h < len(bound) are tried, a multi-block candidate only if
    p >= bound[h], and without a head test: the bound must guarantee it. A
    one-block candidate has no blocks to walk: with ``starts`` (see
    :func:`_one_block_starts`) it is a period iff p >= starts[h], without
    it its head and tail are tested.

    Each p's heads are screened together, on windows of slots cut out of
    one int per table. Slots have spare top bits, so none borrows from the
    next, and each head's verdict lands in its slot's top byte, read back
    by ``to_bytes`` as ``compress`` selectors. A multi-block head passes
    iff the slot of (X2 - X1) ^ (X1 - X0), X0, X1 and X2 the fingerprint
    windows at heads 0, p and 2p, is 0. A one-block head passes iff all
    guard bits of its slot survive the containment test of
    :class:`PrefixParikhTable` for both its head and its tail.
    """
    n = table.n
    P, guard = table.packed, table.guard
    Pn = P[n]
    hcap = n if bound is None else len(bound)
    weights = _letter_weights(table.word.alphabet.size)
    f = list(accumulate(map(weights.__getitem__, table.word.codes), initial=0))
    nb = (f[n].bit_length() + 8) // 8
    bits, most = 8 * nb, n // 3 + 1
    fingerprints = _slots(f, nb)
    tops = _slots([1 << bits - 1] * most, nb)
    if starts is None and not nontrivial_only:
        vb = -(-table.width * table.word.alphabet.size // 8)
        sb, wide = vb + 1, n // 2 + 1
        sbits = 8 * sb
        prefixes = _slots(P, sb)
        s_ones, guards, gaps, lifts = (
            _slots([v] * wide, sb) for v in ((1 << sbits) - 1, guard, guard - Pn, (1 << 8 * vb) - guard)
        )
    for p in range(1, n + 1):
        heads = []
        m = min(p - 1, n - 2 * p, hcap - 1) + 1
        same = 0
        if m > 0:
            cut = bits * (most - m)
            mask, F = (1 << bits * m) - 1, tops >> cut
            X0 = fingerprints & mask
            X1 = (fingerprints >> bits * p) & mask
            X2 = (fingerprints >> 2 * bits * p) & mask
            same = (F - ((X2 - X1) ^ (X1 - X0))) & F
        if same:
            for h in compress(range(m), same.to_bytes(m * nb, "little")[nb - 1 :: nb]):
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
                        heads.append(h)
        if not nontrivial_only:
            lo = max(0, n - 2 * p + 1)
            hi = min(p - 1, n - p, hcap - 1) + 1
            if starts is not None:
                for h in range(lo, hi):
                    if starts[h] <= p:
                        heads.append(h)
            elif lo < hi:
                cut = sbits * (wide - (hi - lo))
                mask, G = s_ones >> cut, guards >> cut
                H = (prefixes >> sbits * lo) & mask
                E = (prefixes >> sbits * (lo + p)) & mask
                B = E - H
                both = (B + G - H) & (B + E + (gaps >> cut)) & G
                ok = (both + (lifts >> cut)).to_bytes((hi - lo) * sb, "little")
                heads += compress(range(lo, hi), ok[sb - 1 :: sb])
        if heads:
            yield p, heads


def _periods_of_rows(rows: Iterable[Row]) -> Iterator[Period]:
    """The periods (h, p) of rows ``(p, heads)``, lazily and in row order."""
    return chain.from_iterable(zip(heads, repeat(p)) for p, heads in rows)


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
    return _periods_of_rows(_brute_force_rows(table, nontrivial_only=nontrivial_only))


def _brute_force_rows(table: PrefixParikhTable, *, nontrivial_only: bool = False) -> Iterator[Row]:
    """The periods of :func:`brute_force_periods` as rows ``(p, heads)``."""
    return _verified_rows(table, nontrivial_only)


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
    return _periods_of_rows(_select_rows(table, nontrivial_only=nontrivial_only))


def _select_rows(table: PrefixParikhTable, *, nontrivial_only: bool = False) -> Iterator[Row]:
    """The periods of :func:`select_periods` as rows ``(p, heads)``."""
    bound = _select_bound(table.word)
    starts = None if nontrivial_only else _one_block_starts(table, bound)
    return _verified_rows(table, nontrivial_only, bound, starts)
