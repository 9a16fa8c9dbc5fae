"""Rebuild ``refs.json``: the shipped reference records of the benchmark.

    python3 perfbench/make_refs.py [--seeds 0-9] [--anchors]

Computes, from the definition-level oracle only, the record of every word
that the given seeds generate in every workload (see reference.py; records
already in the run-time cache, which the same code computed, are reused), and
with ``--anchors`` the full-listing records of the acceptance anchors
fibonacci_word(4181) and spike_word(2090), which must reproduce the
acceptance counts 3,453,511 (538,739 non-trivial) and 2,914,854. Existing
records of other words are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

from reference import BUILDERS, COMMITTED, HERE, RefStore, record_key
from run import SRC, WORKLOADS

ANCHORS = {"fibonacci": (3453511, 538739), "spike": (2914854, 0)}


def anchor_words(ap):
    return {"fibonacci": ap.fibonacci_word(4181), "spike": ap.spike_word(2090)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="seed range A-B or comma-separated seeds")
    parser.add_argument("--anchors", action="store_true", help="also rebuild the 4181-letter anchors")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import abelianperiods as ap

    records = json.loads(COMMITTED.read_text()) if COMMITTED.is_file() else {}
    workdir = HERE / ".cache" / "make-refs"  # structured-cli writes its word files here
    workdir.mkdir(parents=True, exist_ok=True)
    cache = RefStore()
    if "-" in args.seeds:
        first, last = args.seeds.split("-")
        seeds = range(int(first), int(last) + 1)
    else:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    for seed in seeds:
        for workload in WORKLOADS.values():
            for call in workload.calls(workload.words(ap, seed), seed, str(workdir), str(SRC)):
                key = record_key(call.ref_kind, call.word)
                if key not in records:
                    records[key] = cache.get(call.ref_kind, call.word) or BUILDERS[call.ref_kind](ap, call.word)
                    print(f"seed {seed} {workload.name}: {call.label}", flush=True)
    if args.anchors:
        for name, word in anchor_words(ap).items():
            record = BUILDERS["offline"](ap, word)
            if (record["count"], record["nt_count"]) != ANCHORS[name]:
                print(f"error: {name} anchor gives {record['count']}/{record['nt_count']}", file=sys.stderr)
                return 1
            records[record_key("offline", word)] = record
            print(f"anchor {name}: {record['count']} periods, {record['nt_count']} non-trivial", flush=True)
    COMMITTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
