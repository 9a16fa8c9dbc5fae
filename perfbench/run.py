"""End-to-end and per-layer benchmark of abelianperiods.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: random-offline, structured-cli, online-prefix, nondeducible-query
(see workloads.py and README.md). Each run is one fresh single-threaded
process; CLI children run one at a time. The package is imported from
``src/`` next to this directory, never from an installed copy.

A run sets up several times (fresh import, word generation, loading the
reference records, warm-up) and reports the median as ``setup_s``. It then
runs passes over the workload's calls while another pass still fits in
``--seconds`` (at least one). Every answer is reduced to a digest outside
the timed region and checked after the passes against a reference record
from the definition-level oracle; missing records are computed then.
The warm-up runs one call of each kind on a tiny word.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and one traced and prints the per-layer metrics. The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
MIN_SAMPLES = 20  # probe samples (5 ms apart) for a call's own speed factor

from measure import SpeedProbe, peak_rss_mb, speed_factor  # noqa: E402
from reference import RefStore  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CLI_MODES, WORKLOADS, CliCall  # noqa: E402


def fresh_import():
    """Import abelianperiods from scratch out of ``src/``."""
    for name in [m for m in sys.modules if m == "abelianperiods" or m.startswith("abelianperiods.")]:
        del sys.modules[name]
    ap = importlib.import_module("abelianperiods")
    importlib.import_module("abelianperiods.cli")
    if not Path(ap.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"abelianperiods imported from {ap.__file__}, not from {SRC}")
    return ap


class Run:
    """One workload run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = HERE / ".cache" / f"run-{os.getpid()}"
        self.records = {}
        self.failures = []

    # -- set-up ---------------------------------------------------------

    def setup_once(self):
        tracer = self.tracer
        self.ap = ap = fresh_import()
        if tracer is not None:
            tracer.install({"generators"})
            first_span = len(tracer.spans)
        try:
            words = self.workload.words(ap, self.seed)
            warm = self.workload.warm_words(ap)
        finally:
            if tracer is not None:
                self.setup_spans = (first_span, len(tracer.spans))
                tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "warm").mkdir(parents=True)
        self.calls = self.workload.calls(words, self.seed, str(self.workdir), str(SRC))
        self.store = RefStore()
        self.records = {}
        for call in self.calls:
            key = (call.ref_kind, call.word.text, call.word.alphabet.letters)
            if key not in self.records:
                self.records[key] = self.store.get(call.ref_kind, call.word)
        warmed = set()
        for call in self.workload.calls(warm, self.seed, str(self.workdir / "warm"), str(SRC)):
            if type(call) not in warmed:
                warmed.add(type(call))
                call.run(ap, None)

    def setup(self) -> float:
        times = []
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                t0, spent = perf_counter(), probe.spent
                self.setup_once()
                times.append(perf_counter() - t0 - (probe.spent - spent))
        self.setup_factor = probe.factor()
        return statistics.median(times) * self.setup_factor

    # -- timed passes -----------------------------------------------------

    def run_pass(self, tracer=None) -> list:
        """Time every call once; returns (call, seconds, first_output_s, summary).

        Times are calibrated (see measure.py): a call long enough to collect
        MIN_SAMPLES probe samples is scaled by its own factor (a CLI child by
        the factor it reports), a shorter one by the whole pass's factor,
        which is left in ``self.pass_factor``.
        """
        raw = []
        self.pass_span_wall = 0.0  # uncorrected call time, the base of trace.coverage_frac
        with SpeedProbe() as probe:
            for call in self.calls:
                t0, spent, samples = perf_counter(), probe.spent, probe.samples
                try:
                    answer, first = call.run(self.ap, tracer)
                except Exception:
                    traceback.print_exc()
                    raw.append((call, perf_counter() - t0, 0.0, None, None))
                    continue
                t1 = perf_counter()
                self.pass_span_wall += t1 - t0
                spent, samples = probe.spent - spent, probe.samples - samples
                own = call.speed(answer)
                if own is None and samples >= MIN_SAMPLES:
                    own = (0.0, speed_factor(spent, samples))
                elapsed = t1 - t0 - spent - (own[0] if own else 0.0)
                first = elapsed if first is None else min(first - t0, elapsed)
                raw.append((call, elapsed, first, own and own[1], call.summarize(answer)))
                del answer
        self.pass_factor = factor = probe.factor()
        print(f"pass: {sum(r[1] for r in raw):.3f} s uncalibrated, speed factor {factor:.4f}", file=sys.stderr)
        return [(call, t * (own or factor), f * (own or factor), summary) for call, t, f, own, summary in raw]

    def timed_passes(self) -> list:
        passes, durations = [], []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(self.run_pass())
            durations.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(durations) > self.seconds:
                return passes

    # -- checks -------------------------------------------------------------

    def record(self, call):
        key = (call.ref_kind, call.word.text, call.word.alphabet.letters)
        if self.records.get(key) is None:
            self.records[key] = self.store.build(self.ap, call.ref_kind, call.word)
        return self.records[key]

    def check(self, passes) -> tuple[int, int]:
        attempted = failed = 0
        for results in passes:
            for call, _, _, summary in results:
                attempted += 1
                if summary is None or not call.check(summary, self.record(call)):
                    failed += 1
                    self.failures.append(call.label)
        return attempted, failed

    # -- metrics ------------------------------------------------------------

    def workload_peak_rss_mb(self, passes) -> float:
        child = [s["rss_mb"] for results in passes for _, _, _, s in results if s and "rss_mb" in s]
        if child:
            return max(child)
        return peak_rss_mb()

    def end_to_end(self, setup_s: float, passes, peak: float) -> dict:
        per_call = list(zip(*passes))
        wall = sum(statistics.median(r[1] for r in rs) for rs in per_call)
        first = sum(statistics.median(r[2] for r in rs) for rs in per_call)
        periods = sum(
            call.periods(summary, self.record(call)) for call, _, _, summary in passes[0] if summary is not None
        )
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "periods_per_s": (periods / wall, "1/s"),
            "first_output_s": (first, "s"),
            "peak_rss_mb": (peak, "MB"),
        }

    def candidate_counts(self, results) -> dict:
        """Exact candidate and yield counts of the off-line enumerator runs.

        Brute tries every (h, p) with h < p and h + p <= n (h + 2p <= n when
        capped). Select skips heads from the first blocked one on and block
        lengths below max(M[h], ceil(G[h] / 2)), using the package's own
        ``compute_m`` and ``compute_g``.
        """
        ap = self.ap
        tried = {"brute": 0, "select": 0}
        full = {"brute": 0, "select": 0}
        found = {"brute": 0, "select": 0}
        for call, _, _, summary in results:
            if call.enumerator is None or summary is None:
                continue
            word, n = call.word, len(call.word)

            def pmax(h):
                return (n - h) // 2 if call.nontrivial else n - h

            everything = sum(max(0, pmax(h) - h) for h in range(n))
            if call.enumerator == "brute":
                count = everything
            else:
                m = ap.compute_m(word, ap.compute_select(word))
                g = ap.compute_g(word)
                heads = m.index(-1) if -1 in m else len(m)
                count = sum(
                    max(0, pmax(h) - max(m[h], (g[h] + 1) // 2, h + 1) + 1) for h in range(heads)
                )
            tried[call.enumerator] += count
            full[call.enumerator] += everything
            record = self.record(call)
            found[call.enumerator] += record["nt_count"] if call.nontrivial else record["count"]
        return {
            "offline.brute.candidates": (tried["brute"], "count"),
            "offline.select.candidates": (tried["select"], "count"),
            "offline.select.pruned_frac": (1 - tried["select"] / full["select"] if full["select"] else 0.0, "ratio"),
            "offline.brute.yield_frac": (found["brute"] / tried["brute"] if tried["brute"] else 0.0, "ratio"),
            "offline.select.yield_frac": (found["select"] / tried["select"] if tried["select"] else 0.0, "ratio"),
        }

    def cli_metrics(self, results) -> dict:
        metrics = {}
        for mode in CLI_MODES:
            rows = [(t, f, s) for call, t, f, s in results if isinstance(call, CliCall) and call.mode == mode and s]
            metrics[f"cli.{mode}.wall_s"] = (sum(t for t, _, _ in rows), "s")
            metrics[f"cli.{mode}.first_output_s"] = (sum(f for _, f, _ in rows), "s")
            metrics[f"cli.{mode}.stdout_bytes"] = (sum(s["bytes"] for _, _, s in rows), "bytes")
            metrics[f"cli.{mode}.peak_rss_mb"] = (max((s["rss_mb"] for _, _, s in rows), default=0.0), "MB")
        return metrics

    def cli_overhead(self, results) -> float:
        """CLI wall time minus the same work done in-process (traced)."""
        ap = self.ap
        inproc = {}
        with SpeedProbe() as probe:
            for word in {call.word.text: call.word for call, *_ in results if isinstance(call, CliCall)}.values():
                n = len(word)
                t0 = perf_counter()
                periods = ap.cli.run_algorithm(word, "select")
                t1 = perf_counter()
                ap.filter_nontrivial(periods, n)
                t2 = perf_counter()
                ap.smallest_period(periods)
                t3 = perf_counter()
                del periods
                ap.cli.run_algorithm(word, "brute")
                t4 = perf_counter()
                inproc[word.text] = {
                    "list": t1 - t0,
                    "nontrivial": t2 - t0,
                    "count": t1 - t0,
                    "smallest": t1 - t0 + t3 - t2,
                    "brute_count": t4 - t3,
                }
        factor = probe.factor()
        return sum(
            t - inproc[call.word.text][call.mode] * factor
            for call, t, _, s in results
            if isinstance(call, CliCall) and s
        )

    def per_layer(self, plain, traced, window, found) -> dict:
        """Per-layer metrics; span times are scaled by the traced pass's factor."""
        tracer = self.tracer
        factor = self.traced_factor
        busy = {name: t * factor for name, t in tracer.self_times(*window).items()}
        metrics = {}
        for layer in sorted(found - {"generators"}):
            metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        metrics["generators.busy_s"] = (tracer.self_times(*self.setup_spans).get("generators", 0.0) * self.setup_factor, "s")
        metrics["online.sink.busy_s"] = (busy.get("online.sink", 0.0), "s")
        if "words.table" in found:
            metrics["words.table.calls"] = (tracer.counts(*window).get("words.table", 0), "count")
        metrics.update(self.candidate_counts(traced))
        sinks = [s for call, _, _, s in traced if call.ref_kind == "prefix" and s and "total" in s]
        metrics["online.prefix_periods"] = (sum(s["total"] for s in sinks), "count")
        metrics["online.live_peak"] = (max((s["peak"] for s in sinks), default=0), "count")
        queries = [s for call, _, _, s in traced if call.ref_kind == "nondeducible" and s]
        metrics["analysis.nondeducible.pairs"] = (sum(s["count"] * (s["count"] - 1) for s in queries), "count")
        metrics.update(self.cli_metrics(traced))
        metrics["cli.overhead_s"] = (self.cli_overhead_s, "s")
        plain_wall = sum(t for _, t, _, _ in plain)
        traced_wall = sum(t for _, t, _, _ in traced)
        metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
        pass_busy = tracer.self_times(window[0], self.pass_end)
        metrics["trace.coverage_frac"] = (sum(pass_busy.values()) / self.traced_span_wall, "ratio")
        metrics["calibration.speed_factor"] = (factor, "ratio")
        return metrics

    # -- driver -------------------------------------------------------------

    def execute(self) -> dict:
        try:
            setup_s = self.setup()
            if self.tracer is None:
                passes = self.timed_passes()
                peak = self.workload_peak_rss_mb(passes)
            else:
                tracer = self.tracer
                plain = self.run_pass()
                found = tracer.install()
                start = len(tracer.spans)
                traced = self.run_pass(tracer)
                self.traced_factor, self.traced_span_wall = self.pass_factor, self.pass_span_wall
                self.pass_end = len(tracer.spans)
                self.cli_overhead_s = self.cli_overhead(traced) if self.workload.name == "structured-cli" else 0.0
                window = (start, len(tracer.spans))
                tracer.uninstall()
                passes = [plain, traced]
            attempted, failed = self.check(passes)
            if self.tracer is None:
                metrics = self.end_to_end(setup_s, passes, peak)
            else:
                metrics = self.per_layer(plain, traced, window, found)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abelianperiods" / "__init__.py").is_file():
        print(f"error: no abelianperiods package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    for label in sorted(set(run.failures)):
        print(f"wrong answer: {label}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
