"""On-line algorithms: the period sets of every prefix, one letter at a time.

A period of a prefix can only survive an extension, never reappear: if
(h, p) fails for w[1..i] it fails for every longer prefix. The periods of
w[1..i] are therefore the survivors among those of w[1..i-1], found by the
extension test :func:`_survivors`, plus the new candidates (h, i - h) with
2h < i whose head fits strictly in the rest of the prefix. Head containment
is monotone in h, so those seeds are h < k for the count k that
:func:`_fitting_heads` returns. Each extension or head test is one
operation on packed Parikh vectors, whatever the alphabet size.

The list step's extension test is keyed. Every full block of a live
period (h, p) equals its first, so its block vector B = P[h+p] − P[h] is
fixed for its whole life; with mid the end of its last full block, its key
is K = B + guard + P[mid]. At position i the tail is P[i] − P[mid], and
``K − P[i]`` is B minus that tail over the guard bits: one subtraction
tests the tail against the block, a just-completed block included, since
containment at equal length is equality.

One driver, :func:`_sweep`, seeds each position and asks a survival step
which live periods die there. :func:`online_list` and :func:`online_array`
use the list step, which retests every live period, and record it
differently: the live list itself, or a table of the longest prefix each
pair survived. :func:`online_heap` uses the bucket step. The members of a
bucket have their last full blocks ending at one position s, the bucket
start, so they share the tail w[s+1..i] and their blocks nest by length:
when the minimum (p, h) survives, the whole bucket does. With
``base = guard + P[s] − P[i]`` once per bucket, it survives iff
``(P[h+p] − P[h] + base) & guard == guard`` (:func:`extract_until_ok`), and
it has just completed a block iff i − s == p.

Every algorithm accepts an optional ``sink(i, periods)`` callback invoked
after each position with the period set of w[1..i] (a fresh set, unordered;
sinks must not call back into the running algorithm). Each pair is born and
dies at most once, so a word has O(n²) such events where its prefix sets
hold Θ(n³) members: the driver folds the events into one running set and
hands the sink a copy. Without a sink no per-prefix sets are materialised.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from .words import Period, PrefixParikhTable

__all__ = [
    "online_array",
    "online_list",
    "online_heap",
    "extract_until_ok",
]

Sink = Callable[[int, "set[Period]"], None]
Buckets = list[tuple[int, list[tuple[int, int]]]]
Keyed = tuple[list[Period], list[int]]


def _survivors(
    table: PrefixParikhTable, i: int, periods: list[Period], keys: list[int]
) -> tuple[list[Period], list[int], list[Period]]:
    """Split ``periods`` (periods of w[1..i-1], with their keys at i - 1 in
    ``keys``) into the survivors of position i with their keys at i and the
    periods that die there, all in their given order.

    One subtraction per period: with K its key, ``K − P[i]`` is the guard
    bits plus the block vector minus the current tail, so the tail fits in
    the block exactly when every guard bit is still set. It equals the guard
    bits alone exactly when the tail has just become a full block equal to
    the first; then the last full block ends at i and K grows by the block
    vector. Keys are exact ints, and carries between the fields of K never
    matter: only ``K − P[i]`` is inspected. A whole list is filtered per call
    because the test is the on-line algorithms' inner loop.
    """
    P, guard = table.packed, table.guard
    Pi = P[i]
    out: list[Period] = []
    out_keys: list[int] = []
    dead: list[Period] = []
    for hp, key in zip(periods, keys):
        slack = key - Pi
        if slack & guard != guard:
            dead.append(hp)
            continue
        if slack == guard:
            h, p = hp
            key += P[h + p] - P[h]
        out.append(hp)
        out_keys.append(key)
    return out, out_keys, dead


def _fitting_heads(table: PrefixParikhTable, i: int) -> int:
    """The count k of heads h with 2h < i strictly contained in w[h+1..i].

    Head containment is monotone in h, so the fitting heads are h < k.
    """
    P, guard = table.packed, table.guard
    Pi = P[i]
    h = 0
    while 2 * h < i:
        ph = P[h]
        if (((Pi - ph) | guard) - ph) & guard != guard:
            return h
        h += 1
    return h


def _sweep(
    table: PrefixParikhTable,
    step: Callable[[PrefixParikhTable, int, Any, list[Period]], tuple[Any, list[Period]]],
    state: Any,
    sink: Sink | None = None,
) -> Iterator[tuple[int, Any, list[Period], list[Period]]]:
    """Yield ``(i, state, seeds, dead)`` for i = 1..n.

    ``seeds`` are the births (h, i - h) for the fitting heads h by
    increasing h. ``step(table, i, state, seeds)`` returns the state holding
    the periods of w[1..i] and ``dead``, the periods of w[1..i-1] that fail
    at i. With a sink, one running set drops ``dead``, gains ``seeds`` and
    is copied to the sink. Callers must not mutate what is yielded.
    """
    running: set[Period] | None = None if sink is None else set()
    for i in range(1, table.n + 1):
        seeds = [(h, i - h) for h in range(_fitting_heads(table, i))]
        state, dead = step(table, i, state, seeds)
        if running is not None:
            running.difference_update(dead)
            running.update(seeds)
            sink(i, running.copy())
        yield i, state, seeds, dead


def _list_step(
    table: PrefixParikhTable, i: int, state: Keyed, seeds: list[Period]
) -> tuple[Keyed, list[Period]]:
    """Survival step over a plain list and its parallel list of keys: every
    live period is retested, the survivors keep their order and the seeds
    follow them. A seed (h, i - h) has just completed its first block, so
    its key is ``2·P[i] + guard − P[h]``."""
    live, keys, dead = _survivors(table, i, *state)
    P = table.packed
    base = 2 * P[i] + table.guard
    live += seeds
    keys += [base - P[h] for h, _ in seeds]
    return (live, keys), dead


def online_array(
    table: PrefixParikhTable, sink: Sink | None = None
) -> dict[Period, int]:
    """Longest-surviving-prefix table over all (h, p) pairs.

    The returned mapping sends (h, p) to the length of the longest prefix
    having that Abelian period, or to -1 when the candidate already failed
    head containment when it was first seeded. Pairs never seeded are
    absent. The final period set of the word is ``{hp : t[hp] == n}``.

    Each entry is written once: i - 1 when the pair dies at position i, n
    for the pairs alive at the end, -1 when the head does not fit.
    """
    t: dict[Period, int] = {}
    state: Keyed = ([], [])
    for i, state, seeds, dead in _sweep(table, _list_step, state, sink):
        for hp in dead:
            t[hp] = i - 1
        for h in range(len(seeds), (i - 1) // 2 + 1):
            t[h, i - h] = -1
    for hp in state[0]:
        t[hp] = table.n
    return t


def online_list(table: PrefixParikhTable, sink: Sink | None = None) -> list[Period]:
    """Plain-list variant: keeps exactly the ongoing periods, retests all.

    Returns the period list of the whole word (unordered).
    """
    state: Keyed = ([], [])
    for _, state, _, _ in _sweep(table, _list_step, state, sink):
        pass
    return state[0]


def extract_until_ok(
    heap: list[tuple[int, int]],
    s: int,
    i: int,
    table: PrefixParikhTable,
    new_heap: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Pop failing minima off ``heap``, the bucket starting at ``s``, until
    its root survives position i.

    Heap entries are (p, h) pairs so the heap order is the canonical period
    order. The bucket shares one tail, so its part of the test is computed
    once and each root adds only its block vector. That is not the list
    step's per-period key, and a :func:`_survivors` call per root would
    build one each time, so the bucket test lives here. Popped periods are
    this bucket's deaths at i (a failed extension never recovers), returned
    in pop order. A surviving root that just completed a block migrates to
    ``new_heap``, the bucket starting at i. A heap whose root already
    survives is otherwise left untouched.
    """
    P, guard = table.packed, table.guard
    base = guard + P[s] - P[i]
    popped: list[tuple[int, int]] = []
    while heap:
        p, h = heap[0]
        if (P[h + p] - P[h] + base) & guard == guard:
            if i - s == p:
                heapq.heappush(new_heap, heapq.heappop(heap))
            break
        popped.append(heapq.heappop(heap))
    return popped


def _bucket_step(
    table: PrefixParikhTable, i: int, buckets: Buckets, seeds: list[Period]
) -> tuple[Buckets, list[Period]]:
    """Survival step over the buckets, ``(s, heap)`` pairs: each heap is
    trimmed by :func:`extract_until_ok`, emptied heaps are dropped, and
    completed-block roots and seeds form the new bucket starting at i."""
    new_heap: list[tuple[int, int]] = []
    popped: list[tuple[int, int]] = []
    for s, heap in buckets:
        popped += extract_until_ok(heap, s, i, table, new_heap)
    buckets = [bucket for bucket in buckets if bucket[1]]
    for h, p in seeds:
        heapq.heappush(new_heap, (p, h))
    if new_heap:
        buckets.append((i, new_heap))
    return buckets, [(h, p) for p, h in popped]


def online_heap(table: PrefixParikhTable, sink: Sink | None = None) -> set[Period]:
    """Heap-bucket variant: ongoing periods are grouped into min-heaps by
    bucket start (:func:`_bucket_step`), one test per bucket on the happy
    path. Returns the period set of the whole word."""
    buckets: Buckets = []
    for _, buckets, _, _ in _sweep(table, _bucket_step, buckets, sink):
        pass
    return {(h, p) for _, heap in buckets for p, h in heap}
