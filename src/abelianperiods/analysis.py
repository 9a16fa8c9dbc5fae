"""Post-processing of period sets: classification, minima, redundancy.

A period (h, p) of a word of length n is *trivial* when h + 2p > n: the
block of length p occurs only once, so the factorisation repeats nothing.
Non-trivial periods (h + 2p <= n) are the interesting minority.

A period is *deducible* from another one when its cutting positions (the
block boundaries h, h + p, h + 2p, ... inside 1..n) form a strict subset of
the other's: every boundary it asserts is already asserted by the finer
period. Non-deducible periods are the maximal elements under that strict
containment, so at least one always survives the filter.

Cutting sets are residue classes: for 0 <= h < p and h + p <= n the cuts of
(h, p) are exactly {x in 1..n : x = h (mod p)}. Two cuts x and x + p lie in
another class mod q only if q divides p, so strict containment reduces to
one bit test against the head masks of the proper divisors of p, and the
filter never compares two cutting sets (see :func:`filter_nondeducible`).
"""

from __future__ import annotations

from collections.abc import Iterable

from .words import Period, period_order_key

__all__ = [
    "filter_nontrivial",
    "cutting_positions",
    "filter_nondeducible",
    "smallest_period",
]


def filter_nontrivial(periods: Iterable[Period], n: int) -> list[Period]:
    """Keep the periods with at least two full blocks: h + 2p <= n."""
    return [hp for hp in periods if hp[0] + 2 * hp[1] <= n]


def cutting_positions(h: int, p: int, n: int) -> set[int]:
    """Block boundaries of (h, p) inside 1..n: the positions h + j*p.

    h = 0 itself is not a position, so a zero head starts cutting at p.
    """
    return set(range(h if h else p, n + 1, p))


def filter_nondeducible(periods: Iterable[Period], n: int) -> list[Period]:
    """Drop every period whose cutting set another period strictly refines.

    ``periods`` should be the complete period set of the word; deducibility
    is relative to it. Input order is kept, and duplicates never refine
    each other. With ``heads[q]`` the int whose bit h is set for each input
    period (h, q), a period (h, p) is deducible iff

    * it cuts twice or more (h > 0 or 2p <= n) and some proper divisor q
      of p has bit ``h % q`` of ``heads[q]`` set; or
    * its only cut is p (h = 0, 2p > n) and some other period (h', q) !=
      (0, p) has h' = p (mod q), which needs q < p.

    ``cut[p]`` ORs each divisor's mask tiled p // q times, so each period
    costs one bit test. The single-cut periods are settled together: each
    block length q, smallest first, tiles its mask over m bits by doubling
    and clears the pending p > q it refines, until none is pending. Cost,
    for s periods of largest block length m: O(s) validation and bit tests,
    O(m log m) tile products over ints of at most m bits, and O(log m)
    shifts of m-bit ints per block length q that a pending period still
    exceeds.

    Raises ValueError for a pair outside 0 <= h < p, h + p <= n, where the
    criterion does not hold.
    """
    periods = list(periods)
    heads = [0]
    for h, p in periods:
        if not (0 <= h < p and h + p <= n):
            raise ValueError(
                f"pair ({h}, {p}) violates 0 <= h < p, h + p <= n for n = {n}"
            )
        try:
            heads[p] |= 1 << h
        except IndexError:
            heads += [0] * p
            heads[p] |= 1 << h
    present = [q for q in range(1, len(heads)) if heads[q]]
    cut = [0] * len(heads)
    for q in present:
        for p in range(2 * q, len(heads), q):
            if heads[p]:
                # heads[q] repeated p // q times, q bits apart
                cut[p] |= heads[q] * (((1 << p) - 1) // ((1 << q) - 1))
    # bit p of pending: (0, p) cuts only at p, and no q seen yet refines it
    single = pending = sum(1 << p for p in present if 2 * p > n and heads[p] & 1)
    for q in present:
        if not pending >> q + 1:
            break
        # heads[q] tiled over the bits of every block length: bit x is set
        # iff x % q is a head of q; it refines the pending p > q it covers
        tile, width = heads[q], q
        while width < len(heads):
            tile |= tile << width
            width *= 2
        pending &= ~(tile >> q + 1 << q + 1)
    refined = single & ~pending
    for p in present:
        cut[p] |= refined >> p & 1
    return [hp for hp in periods if not cut[hp[1]] >> hp[0] & 1]


def smallest_period(periods: Iterable[Period]) -> Period | None:
    """Minimum under the canonical order (p, then h); None when empty."""
    return min(periods, key=period_order_key, default=None)
