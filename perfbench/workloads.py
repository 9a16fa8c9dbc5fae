"""The four benchmark workloads: seeded inputs, timed calls and their checks.

Each workload turns ``--seed`` into a list of words and each word into calls.
A call runs one request through the package's public API or the
``abelianperiods`` CLI and returns its answer; the runner times it, then
(outside the timed region) reduces the answer to a summary that is checked
against a reference record from :mod:`reference`.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from time import perf_counter

from measure import speed_factor
from reference import fingerprints_digest, listing_digest, set_fingerprint

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

OFFLINE_LENGTH = 2000
OFFLINE_SIGMAS = (2, 16, 26)
# Structured words are fixed families, scaled down from the 4181-letter
# acceptance anchors so a pass of 15 CLI runs fits one run.
STRUCTURED_LENGTH = 987
ONLINE_LENGTH = 300
ONLINE_SIGMAS = (2, 16)
ONLINE_ALGOS = ("array", "list", "heap")
NONDEDUCIBLE_SIGMAS = (2, 3)
NONDEDUCIBLE_LENGTHS = (130, 140, 150)
# Two words per (sigma, n): the filter's cost grows with the square of the
# answer size, which varies by 20-35 % between random words, so a pass
# averages over twelve of them.
NONDEDUCIBLE_COPIES = 2
# CLI mode name -> extra ``periods`` arguments.
CLI_MODES = {
    "list": [],
    "nontrivial": ["--filter", "nontrivial"],
    "count": ["--count"],
    "smallest": ["--smallest"],
    "brute_count": ["--algo", "brute", "--count"],
}


def word_seed(seed: int, tag: str, index: int) -> int:
    """Seed of one generated word, derived from the workload seed."""
    data = hashlib.sha256(f"{seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(data[:8], "little")


class Call:
    """One timed request. Subclasses set what runs and how it is checked.

    ``enumerator`` names the off-line enumerator the call runs over the
    whole candidate range (``nontrivial`` caps it at h + 2p <= n), for the
    candidate counts; None when it runs none.
    """

    ref_kind = "offline"
    enumerator = None
    nontrivial = False

    def __init__(self, label: str, word):
        self.label = label
        self.word = word

    def run(self, ap, tracer):
        """Execute the call; returns (answer, perf_counter of first output or None)."""
        raise NotImplementedError

    def summarize(self, answer) -> dict:
        return {"count": len(answer), "digest": listing_digest(answer)}

    def check(self, summary: dict, record: dict) -> bool:
        return summary == {"count": record["count"], "digest": record["digest"]}

    def periods(self, summary: dict, record: dict) -> int:
        return summary["count"]

    def speed(self, answer):
        """(seconds the call's own probe took, speed factor it measured), or
        None to use the probe of the benchmark process."""
        return None


class ApiCall(Call):
    """``abelian_periods(word, algo)``: the library's one-shot entry point."""

    def __init__(self, word, algo: str, ref_kind: str):
        super().__init__(f"api {algo} sigma={word.alphabet.size} n={len(word)}", word)
        self.algo = algo
        self.ref_kind = ref_kind
        if algo in ("brute", "select"):
            self.enumerator = algo

    def run(self, ap, tracer):
        return ap.abelian_periods(self.word, self.algo), None


class CappedCall(Call):
    """An off-line enumerator with ``nontrivial_only=True``, on a fresh table."""

    nontrivial = True

    def __init__(self, word, algo: str):
        super().__init__(f"capped {algo} sigma={word.alphabet.size} n={len(word)}", word)
        self.enumerator = algo

    def run(self, ap, tracer):
        table = ap.PrefixParikhTable(self.word)
        enumerate_ = ap.brute_force_periods if self.enumerator == "brute" else ap.select_periods
        periods = enumerate_(table, nontrivial_only=True)
        first = next(periods, None)
        first_time = perf_counter()
        return ([] if first is None else [first, *periods]), first_time

    def check(self, summary, record):
        return summary == {"count": record["nt_count"], "digest": record["nt_digest"]}


class SinkCall(Call):
    """An on-line algorithm streaming every prefix's period set to a sink.

    The sink keeps one (size, hash) fingerprint per prefix, so no set
    outlives its callback.
    """

    ref_kind = "prefix"

    def __init__(self, word, algo: str):
        super().__init__(f"sink online-{algo} n={len(word)}", word)
        self.algo = algo

    def run(self, ap, tracer):
        fingerprints = []
        first = []

        def sink(i, periods):
            if not first:
                first.append(perf_counter())
            fingerprints.append(set_fingerprint(periods))

        if tracer is not None:
            sink = tracer.wrap("online.sink", sink)
        getattr(ap, f"online_{self.algo}")(ap.PrefixParikhTable(self.word), sink)
        return fingerprints, (first[0] if first else None)

    def summarize(self, answer):
        sizes = [size for size, _ in answer]
        return {"total": sum(sizes), "peak": max(sizes, default=0), "digest": fingerprints_digest(answer)}

    def check(self, summary, record):
        expected = {"total": record["prefix_total"], "peak": record["prefix_peak"], "digest": record["prefix_digest"]}
        return summary == expected

    def periods(self, summary, record):
        return summary["total"]


class QueryCall(Call):
    """``filter_nondeducible(abelian_periods(word, "select"), n)``."""

    ref_kind = "nondeducible"
    enumerator = "select"

    def __init__(self, word):
        super().__init__(f"nondeducible sigma={word.alphabet.size} n={len(word)}", word)

    def run(self, ap, tracer):
        periods = ap.abelian_periods(self.word, "select")
        return (periods, ap.filter_nondeducible(periods, len(self.word))), None

    def summarize(self, answer):
        periods, kept = answer
        return {
            "count": len(periods),
            "digest": listing_digest(periods),
            "nd_count": len(kept),
            "nd_digest": listing_digest(kept),
        }

    def check(self, summary, record):
        return summary == {key: record[key] for key in ("count", "digest", "nd_count", "nd_digest")}

    def periods(self, summary, record):
        return summary["count"] + summary["nd_count"]


class CliCall(Call):
    """One ``abelianperiods periods --file`` run in a child process.

    The child runs ``abelianperiods.cli.main`` through cli_child.py, which
    reports its own speed probe and peak RSS on an extra pipe; ``wait4``
    gives its exit status. Per-child RSS shows a drop in one mode that
    RUSAGE_CHILDREN, the maximum over all children, would hide.
    """

    def __init__(self, word, path: str, mode: str, src: str):
        super().__init__(f"cli {mode} n={len(word)} {word.text[:6]}..", word)
        self.mode = mode
        self.enumerator = "brute" if mode == "brute_count" else "select"
        self.args = ["periods", "--file", path, *CLI_MODES[mode]]
        self.env = dict(os.environ, PYTHONPATH=src)

    def run(self, ap, tracer):
        span = tracer.open(f"cli.{self.mode}") if tracer is not None else None
        probe_r, probe_w = os.pipe()
        try:
            child = subprocess.Popen(
                [sys.executable, CLI_CHILD, str(probe_w), *self.args],
                stdout=subprocess.PIPE,
                env=self.env,
                pass_fds=(probe_w,),
            )
            os.close(probe_w)
            probe_w = None
            fd = child.stdout.fileno()
            chunks = []
            first_time = None
            while True:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                if first_time is None:
                    first_time = perf_counter()
                chunks.append(chunk)
            child.stdout.close()
            _, status, _ = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            probe = os.read(probe_r, 256).split()
        finally:
            os.close(probe_r)
            if probe_w is not None:
                os.close(probe_w)
            if span is not None:
                tracer.close(span)
        return (chunks, child.returncode, probe), first_time

    def speed(self, answer):
        probe = answer[2]
        if len(probe) != 3:
            return None
        spent, samples = float(probe[0]), int(probe[1])
        return spent, speed_factor(spent, samples)

    def summarize(self, answer):
        chunks, exit_code, probe = answer
        rss_mb = float(probe[2]) if len(probe) == 3 else 0.0
        out = b"".join(chunks)
        return {
            "exit": exit_code,
            "bytes": len(out),
            "lines": out.count(b"\n"),
            "digest": hashlib.sha256(out).hexdigest(),
            "text": out.decode("ascii", "replace") if len(out) <= 64 else None,
            "rss_mb": rss_mb,
        }

    def check(self, summary, record):
        if summary["exit"] != 0:
            return False
        if self.mode == "list":
            return summary["digest"] == record["digest"]
        if self.mode == "nontrivial":
            return summary["digest"] == record["nt_digest"]
        if self.mode == "smallest":
            smallest = record["smallest"]
            return summary["text"] == ("" if smallest is None else f"{smallest[0]} {smallest[1]}\n")
        return summary["text"] == f"{record['count']}\n"

    def periods(self, summary, record):
        if self.mode in ("list", "nontrivial"):
            return summary["lines"]
        if self.mode == "smallest":
            return record["count"]
        text = summary["text"] or ""
        return int(text) if text.strip().isdigit() else 0


class Workload:
    """Words from a seed, and the calls made on them.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name = ""

    def words(self, ap, seed: int) -> list:
        raise NotImplementedError

    def warm_words(self, ap) -> list:
        """A tiny word for the warm-up."""
        return [ap.random_word(3, 40, 7)]

    def calls(self, words, seed: int, workdir: str, src: str) -> list[Call]:
        raise NotImplementedError


class RandomOffline(Workload):
    name = "random-offline"

    def words(self, ap, seed):
        return [ap.random_word(s, OFFLINE_LENGTH, word_seed(seed, self.name, s)) for s in OFFLINE_SIGMAS]

    def calls(self, words, seed, workdir, src):
        calls = []
        for word in words:
            calls += [ApiCall(word, "brute", "offline"), ApiCall(word, "select", "offline")]
            calls += [CappedCall(word, "brute"), CappedCall(word, "select")]
        return calls


class StructuredCli(Workload):
    name = "structured-cli"

    def words(self, ap, seed):
        # Fixed families: the seed only orders the CLI runs.
        n = STRUCTURED_LENGTH
        return [ap.fibonacci_word(n), ap.spike_word(n // 2), ap.cyclic_word(4, n + 1)]

    def warm_words(self, ap):
        return [ap.fibonacci_word(21)]

    def calls(self, words, seed, workdir, src):
        calls = []
        for index, word in enumerate(words):
            path = os.path.join(workdir, f"word{index}.txt")
            with open(path, "w", encoding="latin-1") as fh:
                fh.write(word.text)
            calls += [CliCall(word, path, mode, src) for mode in CLI_MODES]
        random.Random(seed).shuffle(calls)
        return calls


class OnlinePrefix(Workload):
    name = "online-prefix"

    def words(self, ap, seed):
        words = [ap.random_word(s, ONLINE_LENGTH, word_seed(seed, self.name, s)) for s in ONLINE_SIGMAS]
        return words + [ap.fibonacci_word(ONLINE_LENGTH)]

    def calls(self, words, seed, workdir, src):
        calls = []
        for word in words:
            for algo in ONLINE_ALGOS:
                calls += [SinkCall(word, algo), ApiCall(word, f"online-{algo}", "prefix")]
        return calls


class NondeducibleQuery(Workload):
    name = "nondeducible-query"

    def words(self, ap, seed):
        return [
            ap.random_word(s, n, word_seed(seed, self.name, 1000 * copy + 100 * s + n))
            for copy in range(NONDEDUCIBLE_COPIES)
            for s in NONDEDUCIBLE_SIGMAS
            for n in NONDEDUCIBLE_LENGTHS
        ]

    def calls(self, words, seed, workdir, src):
        return [QueryCall(word) for word in words]


WORKLOADS = {w.name: w for w in (RandomOffline(), StructuredCli(), OnlinePrefix(), NondeducibleQuery())}
