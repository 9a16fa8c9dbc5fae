"""Spans around the calls into each layer of abelianperiods, from outside.

The tracer replaces a layer's public function at the module attribute its
caller looks up (``abelianperiods.cli.select_periods`` for the API's
dispatch, ``abelianperiods.select_periods`` for the benchmark's own calls)
with a wrapper that records a span, and puts the original back afterwards.
Nothing under ``src/`` is edited. An attribute that no longer exists is
skipped, so its layer metric goes unreported instead of failing the run.

Spans live in memory as ``[name, start, end, parent]`` lists; the parent is
the index of the enclosing span (-1 at top level). A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# span name -> (kind, [(module, attribute), ...]); "gen" spans cover a
# generator from its first resumption until it is exhausted or closed.
LAYERS = {
    "words.table": ("call", [("abelianperiods", "PrefixParikhTable"), ("abelianperiods.cli", "PrefixParikhTable")]),
    "rank_select.select_index": ("call", [("abelianperiods.offline", "compute_select")]),
    "rank_select.m": ("call", [("abelianperiods.offline", "compute_m")]),
    "rank_select.g": ("call", [("abelianperiods.offline", "compute_g")]),
    "offline.brute": ("gen", [("abelianperiods", "brute_force_periods"), ("abelianperiods.cli", "brute_force_periods")]),
    "offline.select": ("gen", [("abelianperiods", "select_periods"), ("abelianperiods.cli", "select_periods")]),
    "online.array": ("call", [("abelianperiods", "online_array"), ("abelianperiods.cli", "online_array")]),
    "online.list": ("call", [("abelianperiods", "online_list"), ("abelianperiods.cli", "online_list")]),
    "online.heap": ("call", [("abelianperiods", "online_heap"), ("abelianperiods.cli", "online_heap")]),
    "api.abelian_periods": ("call", [("abelianperiods", "abelian_periods")]),
    "analysis.nondeducible": ("call", [("abelianperiods", "filter_nondeducible")]),
    "generators": (
        "call",
        [("abelianperiods", name) for name in ("random_word", "fibonacci_word", "spike_word", "cyclic_word")],
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator function ``fn`` with a span around each generator's run."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def run():
                index = self.open(name)
                try:
                    yield from inner
                finally:
                    self.close(index)

            return run()

        return traced

    def install(self, layers=None) -> set[str]:
        """Wrap the attributes of ``layers`` (default: all); returns the
        names of the layers that had at least one attribute to wrap."""
        found = set()
        for name, (kind, targets) in LAYERS.items():
            if layers is not None and name not in layers:
                continue
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap_generator if kind == "gen" else self.wrap
                setattr(module, attr, wrapper(name, original))
                self._installed.append((module, attr, original))
                found.add(name)
        return found

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_times(self, start: int = 0, stop: int | None = None) -> dict[str, float]:
        """Self time per span name over ``spans[start:stop]`` (all closed)."""
        spans = self.spans[start:stop]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= start:
                child_time[parent - start] += t1 - t0
        totals: dict[str, float] = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            totals[name] = totals.get(name, 0.0) + (t1 - t0) - child_time[i]
        return totals

    def counts(self, start: int = 0, stop: int | None = None) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, *_ in self.spans[start:stop]:
            totals[name] = totals.get(name, 0) + 1
        return totals
