"""On-line algorithms: the period sets of every prefix, one letter at a time.

A period of a prefix can only survive an extension, never reappear: if
(h, p) fails for w[1..i] it fails for every longer prefix. The periods of
w[1..i] are therefore the survivors among those of w[1..i-1] plus the new
candidates (h, i - h) with 2h < i whose head fits strictly in the rest of
the prefix. Head containment is monotone in h and in i, so those seeds are
h < k for the count k that :func:`_fitting_heads` returns, a count that
never decreases along the word.

One driver, :func:`_sweep`, hands each position's seeds to a survival
step, which updates its state in place, and yields the position with the
live periods that die there. :func:`online_list` and :func:`online_array`
use the packed step, which retests every live period; the list reads its
slots at the end, the array writes rows of the longest prefix each pair
survived from the deaths. :func:`online_heap` uses the bucket step.

The packed step (:class:`_Slots`, :func:`_packed_step`) gives every live
period a slot: one W-bit field in each of a few Python ints, W a multiple
of 8 with guard bit g = 2^(W-1) > 2n. Every full block of a live period
(h, p) equals its first, so its block vector B is fixed for its whole life.
Only the field of the letter c = w[i] of its tail grows at position i, so
the period survives i iff cnt_c(i) − cnt_c(mid) ≤ B_c, with mid the end of
its last full block before i; a tail that just became a full block passes
exactly when it equals B, since containment at equal length is equality.
Letter c keeps one int of E = g + cnt_c(mid) + B_c per slot, and
``E − cnt_c(i)·ones`` tests every live period at once: a slot fails iff its
guard bit clears, and no field ever borrows from its neighbour. The ints of
other letters are not touched at i. A countdown int tells when each slot
completes a block, and a block counter int lets letter c add B_c to the
fields that moved on since its last update: at most once, as every full
block contains a c when B_c ≥ 1. Seeds reach a letter's ints when it next
occurs, one block per birth position. Slots of dead periods are tombstoned
and dropped once they outnumber the live ones.

The members of a heap bucket have their last full blocks ending at one
position s, the bucket start, so they share the tail w[s+1..i] and their
blocks nest by length: when the member of least p, the root, survives, the
whole bucket does. A bucket gets all its members at s and afterwards only
loses its root, so the paper's heap is a stack of (h, p) by decreasing p,
root last; p fixes h, as s = h + kp with h < p. It is born so: seeds, then
roots. The seeds (h, s − h) for 2h < s come by increasing h, so p > s/2.
A root moves in on completing a block at s: p = s − s' for its old start
s' ≥ h + p ≥ p, so p ≤ s/2, and old buckets come by increasing s'. With
``base = guard + P[s] − P[i]`` once per bucket, the root survives iff
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

import re
from array import array
from collections.abc import Callable, Iterator
from itertools import accumulate, compress

from .words import Period, PrefixParikhTable

__all__ = [
    "online_array",
    "online_list",
    "online_heap",
    "extract_until_ok",
]

Sink = Callable[[int, set[Period]], None]
Buckets = list[tuple[int, list[Period]]]


def _fitting_heads(table: PrefixParikhTable, i: int, h: int) -> int:
    """The count k of heads h with 2h < i strictly contained in w[h+1..i],
    given that the heads below ``h`` fit.

    Head containment is monotone in h, so the fitting heads are h < k. It
    is monotone in i too, so the count at i − 1 is a valid start.
    """
    P, guard = table.packed, table.guard
    Pi = P[i]
    while 2 * h < i:
        ph = P[h]
        if (((Pi - ph) | guard) - ph) & guard != guard:
            return h
        h += 1
    return h


def _sweep(
    table: PrefixParikhTable,
    step: Callable[[PrefixParikhTable, int, object, list[Period]], list[Period]],
    state: object,
    sink: Sink | None = None,
) -> Iterator[tuple[int, list[Period]]]:
    """Yield ``(i, dead)`` for i = 1..n.

    ``step(table, i, state, seeds)`` receives the seeds, the births
    (h, i - h) for the fitting heads h by increasing h, updates ``state``
    in place to hold the periods of w[1..i] and returns ``dead``, the
    periods of w[1..i-1] that fail at i. With a sink, one running set drops
    ``dead``, gains the seeds and is copied to the sink.
    """
    running: set[Period] | None = None if sink is None else set()
    k = 0
    for i in range(1, table.n + 1):
        k = _fitting_heads(table, i, k)
        seeds = [(h, i - h) for h in range(k)]
        dead = step(table, i, state, seeds)
        if running is not None:
            running.difference_update(dead)
            running.update(seeds)
            sink(i, running.copy())
        yield i, dead


class _Slots:
    """The live periods of the packed step, ``live[j]`` in slot j: bits
    ``j·W`` to ``j·W + W − 1`` of every int below. Dead periods keep their
    slot, a tombstone, until :meth:`_compact` drops it.

    * ``alive``: a 1 in every live slot.
    * ``countdown``: g − 1 plus the positions to go until the next block
      completes; it drops below g on completion and then gains ``periods``
      (p) back.
    * ``blocks``: the number of blocks completed since birth.
    * per letter c, brought up to date only where w[i] = c: ``limit[c]``
      (E = g + cnt_c(mid) + B_c), ``block[c]`` (B_c) and ``seen[c]``, the
      ``blocks`` int at its last update.
    * ``births``: ``(first slot, i, k)`` per position i that seeded k
      heads; ``synced[c]`` counts those already in letter c's ints.

    The ints of dead slots stay frozen in [0, 2^W), so they borrow from no
    neighbour either.
    """

    __slots__ = (
        "width", "top", "ones", "heads", "prefix", "live", "tombstones", "alive",
        "countdown", "blocks", "periods", "births", "limit", "block", "seen",
        "synced",
    )

    def __init__(self, table: PrefixParikhTable):
        n = table.n
        self.width = width = 8 * -(-(n.bit_length() + 2) // 8)
        self.top = 1 << (width - 1)
        # a position seeds at most the heads h with 2h < n
        heads = range((n + 1) // 2)
        size = width // 8
        self.heads = int.from_bytes(b"".join(h.to_bytes(size, "little") for h in heads), "little")
        self.ones = int.from_bytes((1).to_bytes(size, "little") * len(heads), "little")
        # per letter of the word, cnt_c(j) for j = 0..n in W-bit fields
        codes = table.word.codes
        self.prefix: dict[int, bytes] = {}
        for c in set(codes):
            counts = accumulate(map(c.__eq__, codes), initial=0)
            self.prefix[c] = b"".join(k.to_bytes(size, "little") for k in counts)
        self.live: list[Period] = []
        self.tombstones = 0
        self.alive = self.countdown = self.blocks = self.periods = 0
        self.births: list[tuple[int, int, int]] = []
        self.limit: dict[int, int] = {}
        self.block: dict[int, int] = {}
        self.seen: dict[int, int] = {}
        self.synced: dict[int, int] = {}

    def _sync(self, c: int) -> None:
        """Bring the seeds born since letter c's last update into its ints.

        A seed (h, i − h) has just completed its first block, so its E is
        g + 2·cnt_c(i) − cnt_c(h), with B_c = cnt_c(i) − cnt_c(h); its
        ``seen`` field is 0, the ``blocks`` field it was born with.
        """
        births = self.births
        first = self.synced.get(c, 0)
        if first == len(births):
            return
        size = self.width // 8
        prefix = self.prefix[c]
        counts, heads = [], []
        for _, i, k in births[first:]:
            counts.append(prefix[i * size : (i + 1) * size] * k)
            heads.append(prefix[: k * size])
        region = b"".join(counts)
        count = int.from_bytes(region, "little")
        block = count - int.from_bytes(b"".join(heads), "little")
        top = int.from_bytes(self.top.to_bytes(size, "little") * (len(region) // size), "little")
        at = births[first][0] * self.width
        self.limit[c] = self.limit.get(c, 0) | (block + count + top) << at
        self.block[c] = self.block.get(c, 0) | block << at
        self.synced[c] = len(births)

    def _seed(self, i: int, seeds: list[Period]) -> None:
        """Give the seeds born at i, (h, i − h) for h < k, the next k slots."""
        width, k = self.width, len(seeds)
        at = width * len(self.live)
        cut = (1 << (width * k)) - 1
        ones = self.ones & cut
        periods = i * ones - (self.heads & cut)
        self.births.append((len(self.live), i, k))
        self.live += seeds
        self.alive |= ones << at
        self.periods |= periods << at
        self.countdown |= (periods + (self.top - 1) * ones) << at

    def _compact(self) -> None:
        """Drop the tombstones from ``live`` and from every int.

        The live slots are cut into runs, and each int is rebuilt from the
        bytes of those runs. Every letter of the word first takes in the
        pending seeds, because a birth block stops being a constant block
        once its dead slots are gone.
        """
        size = self.width // 8
        nbytes = len(self.live) * size
        flags = self.alive.to_bytes(nbytes, "little")[::size]
        runs = [slice(m.start() * size, m.end() * size) for m in re.finditer(b"\x01+", flags)]

        def squeeze(v: int) -> int:
            data = v.to_bytes(nbytes, "little")
            return int.from_bytes(b"".join([data[run] for run in runs]), "little")

        if runs:
            for c in self.prefix:
                self._sync(c)
        for ints in (self.limit, self.block, self.seen):
            for c in ints:
                ints[c] = squeeze(ints[c])
        self.live = list(compress(self.live, flags))
        self.alive = squeeze(self.alive)
        self.countdown = squeeze(self.countdown)
        self.blocks = squeeze(self.blocks)
        self.periods = squeeze(self.periods)
        self.births = []
        self.synced = {}
        self.tombstones = 0

    def alive_periods(self) -> list[Period]:
        """The live periods, tombstones skipped, in slot order."""
        size = self.width // 8
        flags = self.alive.to_bytes(len(self.live) * size, "little")[::size]
        return list(compress(self.live, flags))


def _packed_step(
    table: PrefixParikhTable, i: int, slots: _Slots, seeds: list[Period]
) -> list[Period]:
    """Survival step over the packed slots: every live period is retested by
    one subtraction on the ints of letter c = w[i], the survivors keep their
    slots and the seeds take the next ones. Returns the dead in slot order.
    """
    width = slots.width
    size = width // 8
    c = table.word.codes[i - 1]
    count = int.from_bytes(slots.prefix[c][i * size : (i + 1) * size], "little")
    slots._sync(c)
    limit, alive, blocks = slots.limit.get(c, 0), slots.alive, slots.blocks
    guards = alive << (width - 1)
    fields = (1 << width) - 1
    # the slots whose last full block moved on since c's last update; bit 0
    # of the difference is enough, and bitwise operations are the cheap ones
    moved = (blocks ^ slots.seen.get(c, 0)) & alive
    if moved:
        limit += slots.block[c] & moved * fields
    slots.limit[c] = limit
    slots.seen[c] = blocks
    lost = guards ^ (guards & (limit - count * alive))
    dead: list[Period] = []
    if lost:
        flags = lost.to_bytes(len(slots.live) * size, "little")[size - 1 :: size]
        dead = list(compress(slots.live, flags))
        slots.tombstones += len(dead)
        guards ^= lost
        slots.alive = alive = alive ^ (lost >> (width - 1))
    countdown = slots.countdown - alive
    done = guards ^ (guards & countdown)
    if done:
        done >>= width - 1
        slots.blocks = blocks + done
        countdown += slots.periods & done * fields
    slots.countdown = countdown
    if 2 * slots.tombstones > len(slots.live):
        slots._compact()
    if seeds:
        slots._seed(i, seeds)
    return dead


def _lifetime_rows(n: int) -> list[array]:
    """Rows p = 0..n of -1s, ``array('i')``, one entry per head h < p with h + p <= n."""
    return [array("i", [-1]) * min(p, n - p + 1) for p in range(n + 1)]


def online_array(table: PrefixParikhTable, sink: Sink | None = None) -> list[array]:
    """Longest-surviving-prefix table: ``t[p][h]`` (:func:`_lifetime_rows`) is
    the length of the longest prefix having the period (h, p), or -1 when its
    head never fits. The final periods are the pairs with ``t[p][h] == n``."""
    n = table.n
    t = _lifetime_rows(n)
    slots = _Slots(table)
    for i, dead in _sweep(table, _packed_step, slots, sink):
        for h, p in dead:
            t[p][h] = i - 1
    for h, p in slots.alive_periods():
        t[p][h] = n
    return t


def online_list(table: PrefixParikhTable, sink: Sink | None = None) -> list[Period]:
    """Plain-list variant: keeps exactly the ongoing periods, retests all.

    Returns the period list of the whole word (unordered).
    """
    slots = _Slots(table)
    for _ in _sweep(table, _packed_step, slots, sink):
        pass
    return slots.alive_periods()


def extract_until_ok(
    stack: list[Period],
    s: int,
    i: int,
    table: PrefixParikhTable,
    new_stack: list[Period],
) -> list[Period]:
    """Pop failing roots off ``stack``, the bucket starting at ``s``, until
    its root survives position i.

    The stack holds (h, p) by decreasing p, root last. The bucket shares
    one tail, so its part of the test is computed once and each root adds
    only its block vector. Popped periods are this bucket's deaths at i (a
    failed extension never recovers), returned in pop order. A surviving
    root that just completed a block moves to ``new_stack``, the roots of
    the bucket starting at i. A stack whose root already survives is
    otherwise left untouched.
    """
    P, guard = table.packed, table.guard
    base = guard + P[s] - P[i]
    popped: list[Period] = []
    while stack:
        h, p = stack[-1]
        if (P[h + p] - P[h] + base) & guard == guard:
            if i - s == p:
                new_stack.append(stack.pop())
            break
        popped.append(stack.pop())
    return popped


def _bucket_step(
    table: PrefixParikhTable, i: int, buckets: Buckets, seeds: list[Period]
) -> list[Period]:
    """Survival step over the buckets, ``(s, stack)`` pairs by increasing s:
    each stack is trimmed by :func:`extract_until_ok`, emptied ones are
    dropped, and ``seeds + roots`` is the new bucket, born by decreasing p."""
    roots: list[Period] = []
    dead: list[Period] = []
    for s, stack in buckets:
        dead += extract_until_ok(stack, s, i, table, roots)
    buckets[:] = [bucket for bucket in buckets if bucket[1]]
    if new_stack := seeds + roots:
        buckets.append((i, new_stack))
    return dead


def online_heap(table: PrefixParikhTable, sink: Sink | None = None) -> set[Period]:
    """Heap-bucket variant (:func:`_bucket_step`): stacks born by decreasing
    p, one test per bucket root. Returns the period set of the whole word."""
    buckets: Buckets = []
    for _ in _sweep(table, _bucket_step, buckets, sink):
        pass
    return set().union(*(stack for _, stack in buckets))
