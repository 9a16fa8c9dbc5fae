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
filter never compares two cutting sets. Each test looks at shorter block
lengths only, so :func:`_cuts` settles one block length at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator

from .offline import Row
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


def _cuts(n: int, lengths: Collection[int]) -> Callable[[int, int], int]:
    """The criterion as a step ``cut(p, mask)``, called once per block
    length p that has a period, by increasing p, each p in ``lengths``:
    ``mask`` has bit h set for each period (h, p), and the step returns the
    mask of p's deducible heads. (h, p) is deducible iff

    * it cuts twice or more (h > 0 or 2p <= n) and some proper divisor q
      of p has a period (h % q, q); or
    * its only cut is p (h = 0, 2p > n) and some period (h', q) with
      q < p has h' = p (mod q).

    Cost per step, m the largest length: O(m / p) steps over the multiples
    of p, an entry for each one in ``lengths``, and O(log m) shifts of
    m-bit ints.
    """
    top = max(lengths, default=0)
    # multiple p of q -> the (q, mask) pairs of its proper divisors so far
    divisors: dict[int, list[tuple[int, int]]] = {}
    # bit x set iff x % q is a head of some block length q seen so far
    hit = 0

    def cut(p: int, mask: int) -> int:
        nonlocal hit
        deducible = hit >> p & 1 if 2 * p > n and mask & 1 else 0
        for q, heads in divisors.pop(p, ()):
            # heads repeated p // q times, q bits apart
            deducible |= heads * (((1 << p) - 1) // ((1 << q) - 1))
        pair = (p, mask)
        for multiple in range(2 * p, top + 1, p):
            if multiple in lengths:
                divisors.setdefault(multiple, []).append(pair)
        # laid only after p is tested: no block length refines itself
        width = p
        while width <= top:
            mask |= mask << width
            width *= 2
        hit |= mask
        return deducible

    return cut


def filter_nondeducible(periods: Iterable[Period], n: int) -> list[Period]:
    """Drop every period whose cutting set another period strictly refines.

    ``periods`` should be the complete period set of the word; deducibility
    is relative to it. Input order is kept, and duplicates never refine
    each other. Each period is one bit test against the cut masks that
    :func:`_cuts` gives its head masks, sized by the block lengths, not n.

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
    masks = {p: mask for p, mask in enumerate(heads) if mask}
    cut = _cuts(n, masks)
    cuts = {p: cut(p, mask) for p, mask in masks.items()}
    return [hp for hp in periods if not cuts[hp[1]] >> hp[0] & 1]


def _nondeducible_rows(rows: Iterable[Row], n: int) -> Iterator[Row]:
    """:func:`filter_nondeducible` on the rows ``(p, heads)`` of a whole
    answer, row by row: an uncut row passes as it is, a fully cut one not."""
    cut = _cuts(n, range(1, n + 1))
    for p, heads in rows:
        # "0" and "1" by decreasing bit, so flags[~h] is bit h
        flags = bytearray(b"0") * p
        for h in heads:
            flags[~h] = 49
        if deducible := cut(p, int(flags, 2)):
            flags = f"{deducible:0{p}b}"
            if not (heads := [h for h in heads if flags[~h] == "0"]):
                continue
        yield p, heads


def smallest_period(periods: Iterable[Period]) -> Period | None:
    """Minimum under the canonical order (p, then h); None when empty."""
    return min(periods, key=period_order_key, default=None)
