"""The benchmark's own tests: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import abelianperiods as ap  # noqa: E402
from make_refs import ANCHORS, anchor_words  # noqa: E402
from reference import (  # noqa: E402
    RefStore,
    fingerprints_digest,
    listing_digest,
    pairwise_nondeducible,
    prefix_record,
    set_fingerprint,
)
from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".candidates", ".yield_frac", ".pruned_frac", ".calls", ".pairs", ".stdout_bytes")
COUNT_NAMES = ("online.prefix_periods", "online.live_peak")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        runs.append(
            {
                name: metric["value"]
                for name, metric in result["metrics"].items()
                if name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES
            }
        )
    assert len(runs[0]) >= 12
    assert runs[0] == runs[1]


def test_end_to_end_line():
    done = bench("--workload", "nondeducible-query", "--seed", "1", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "periods_per_s", "first_output_s", "peak_rss_mb"}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "random-offline", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_shipped_anchor_records_reproduce_the_acceptance_counts():
    store = RefStore()
    for name, word in anchor_words(ap).items():
        record = store.get("offline", word)
        assert record is not None, name
        assert (record["count"], record["nt_count"]) == ANCHORS[name]


@pytest.mark.parametrize(
    "word",
    [ap.random_word(2, 28, 3), ap.random_word(3, 22, 4), ap.fibonacci_word(30), ap.spike_word(9)],
    ids=lambda w: w.text,
)
def test_prefix_record_matches_the_definition_on_every_prefix(word):
    sets = [
        set(ap.periods_by_definition(ap.PrefixParikhTable(word.prefix(i)))) for i in range(1, len(word) + 1)
    ]
    record = prefix_record(ap, word)
    assert record["prefix_digest"] == fingerprints_digest([set_fingerprint(s) for s in sets])
    assert record["prefix_total"] == sum(map(len, sets))
    assert record["digest"] == listing_digest(sorted(sets[-1], key=lambda hp: (hp[1], hp[0])))


def test_frozen_filter_matches_the_package_today():
    word = ap.random_word(2, 60, 11)
    periods = ap.abelian_periods(word)
    assert pairwise_nondeducible(periods, len(word)) == ap.filter_nondeducible(periods, len(word))
