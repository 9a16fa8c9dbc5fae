"""On-line algorithms: the period sets of every prefix, one letter at a time.

A period of a prefix can only survive an extension, never reappear: if
(h, p) fails for w[1..i] it fails for every longer prefix. The periods of
w[1..i] are therefore the survivors among those of w[1..i-1], found by the
extension test :func:`_survivors`, plus the new candidates (h, i - h) with
2h < i whose head fits strictly in the rest of the prefix. Head containment
is monotone in h, so those seeds are h < k for the count k that
:func:`_fitting_heads` returns. Each extension or head test is one
operation on packed Parikh vectors, whatever the alphabet size.

:func:`online_list` and :func:`online_array` share the per-position sweep
:func:`_sweep` and only record it differently: the live list itself, or a
table remembering the longest prefix each pair survived. :func:`online_heap`
buckets the live periods into min-heaps by current tail length and tests
only each heap's minimum (:func:`extract_until_ok`): if the minimum
survives, every period sharing that tail length survives with it (their
last full blocks end at the same position and nest by length), so whole
buckets pass in one comparison.

Each algorithm works from born/died events: position i gives birth to its
seeds and kills the periods of w[1..i-1] that fail the extension test, or,
in the heap variant, that :func:`extract_until_ok` pops. A pair is born at
most once and dies at most once, so the events of a whole word number
O(n²), where the per-prefix sets hold Θ(n³) members in the worst case.

Every algorithm accepts an optional ``sink(i, periods)`` callback invoked
after each position with the period set of w[1..i] (a fresh set, unordered;
sinks must not call back into the running algorithm). It is served by
:func:`_running_set`, which folds the events into one running set and hands
the sink a copy: O(births + deaths) set updates plus one set copy per
prefix. Without a sink no per-prefix sets are materialised.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from .words import Period, PrefixParikhTable, period_order_key

__all__ = [
    "online_array",
    "online_list",
    "online_heap",
    "extract_until_ok",
    "table_final_periods",
]

Sink = Callable[[int, "set[Period]"], None]


def _running_set(sink: Sink) -> Callable[[int, list[Period], list[Period]], None]:
    """Adapt ``sink`` to the born/died events of each position.

    The returned ``events(i, born, died)`` keeps one running set, removes
    ``died`` from it, adds ``born`` and passes a copy to ``sink``. A set copy
    reuses the stored hashes, so no period is hashed or built again.
    """
    running: set[Period] = set()

    def events(i: int, born: list[Period], died: list[Period]) -> None:
        running.difference_update(died)
        running.update(born)
        sink(i, running.copy())

    return events


def _survivors(
    table: PrefixParikhTable, i: int, periods: list[Period]
) -> tuple[list[Period], list[Period]]:
    """Split ``periods`` (periods of w[1..i-1]) into those that survive
    position i and those that die there, both in their given order.

    One packed-vector test per period: the current tail against the last
    full block, or, on a just-completed block, the two last blocks for
    equality. A whole list is filtered per call because the test is the
    on-line algorithms' inner loop.
    """
    P, guard = table.packed, table.guard
    Pi = P[i]
    out: list[Period] = []
    dead: list[Period] = []
    for hp in periods:
        h, p = hp
        d = (i - h) % p
        if d:
            mid = i - d  # where the leaned-on block ends
            if ((((P[mid] - P[mid - p]) | guard) - (Pi - P[mid])) & guard) == guard:
                out.append(hp)
            else:
                dead.append(hp)
        elif Pi - P[i - p] == P[i - p] - P[i - 2 * p]:
            out.append(hp)
        else:
            dead.append(hp)
    return out, dead


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
) -> Iterator[tuple[int, list[Period], list[Period], list[Period]]]:
    """Yield ``(i, live, seeds, dead)`` for i = 1..n.

    ``live`` lists the periods of w[1..i]: the survivors among those of
    w[1..i-1] in their previous order, then ``seeds``, the births (h, i - h)
    for the fitting heads h by increasing h. ``dead`` lists the periods of
    w[1..i-1] that fail at i. Callers must not mutate them.
    """
    live: list[Period] = []
    for i in range(1, table.n + 1):
        seeds = [(h, i - h) for h in range(_fitting_heads(table, i))]
        live, dead = _survivors(table, i, live)
        live += seeds
        yield i, live, seeds, dead


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
    events = None if sink is None else _running_set(sink)
    t: dict[Period, int] = {}
    live: list[Period] = []
    for i, live, seeds, dead in _sweep(table):
        for hp in dead:
            t[hp] = i - 1
        for h in range(len(seeds), (i - 1) // 2 + 1):
            t[h, i - h] = -1
        if events is not None:
            events(i, seeds, dead)
    for hp in live:
        t[hp] = table.n
    return t


def table_final_periods(t: dict[Period, int], n: int) -> list[Period]:
    """Period set of the whole word out of an :func:`online_array` table."""
    return sorted((hp for hp, j in t.items() if j == n), key=period_order_key)


def online_list(table: PrefixParikhTable, sink: Sink | None = None) -> list[Period]:
    """Plain-list variant: keeps exactly the ongoing periods, retests all.

    Returns the period list of the whole word (unordered).
    """
    events = None if sink is None else _running_set(sink)
    live: list[Period] = []
    for i, live, seeds, dead in _sweep(table):
        if events is not None:
            events(i, seeds, dead)
    return live


def extract_until_ok(
    heap: list[tuple[int, int]],
    i: int,
    table: PrefixParikhTable,
    new_heap: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Pop failing minima off ``heap`` until its root survives position i.

    Heap entries are (p, h) pairs so the heap order is the canonical period
    order. Popped periods are gone for good (a failed extension can never
    recover): they are the deaths of this bucket at position i, returned as
    popped entries in pop order. If the surviving root just completed a
    block it migrates to ``new_heap``, the bucket for empty tails. A heap
    whose root already survives is left untouched.
    """
    popped: list[tuple[int, int]] = []
    while heap:
        p, h = heap[0]
        if _survivors(table, i, [(h, p)])[0]:
            if (i - h) % p == 0:
                heapq.heappush(new_heap, heapq.heappop(heap))
            break
        popped.append(heapq.heappop(heap))
    return popped


def online_heap(table: PrefixParikhTable, sink: Sink | None = None) -> set[Period]:
    """Heap-bucket variant: one test per bucket on the happy path.

    Ongoing periods are grouped into min-heaps by current tail length; all
    members of a bucket keep sharing a tail (the same suffix of the prefix
    read so far), so when the bucket minimum survives the whole bucket
    does. Only on a failing minimum does the bucket get trimmed entry by
    entry. Completed-block roots and fresh candidates collect in a new
    empty-tail bucket each round; emptied buckets are dropped. The births
    of a position are its fresh candidates, its deaths the popped entries.

    Returns the period set of the whole word.
    """
    events = None if sink is None else _running_set(sink)
    heaps: list[list[tuple[int, int]]] = []
    for i in range(1, table.n + 1):
        new_heap: list[tuple[int, int]] = []
        popped: list[tuple[int, int]] = []
        for heap in heaps:
            popped += extract_until_ok(heap, i, table, new_heap)
        heaps = [heap for heap in heaps if heap]
        k = _fitting_heads(table, i)
        for h in range(k):
            heapq.heappush(new_heap, (i - h, h))
        if new_heap:
            heaps.append(new_heap)
        if events is not None:
            events(i, [(h, i - h) for h in range(k)], [(h, p) for p, h in popped])
    return {(h, p) for heap in heaps for p, h in heap}
