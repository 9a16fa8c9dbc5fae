"""Reference answers for the benchmark, from the definition only.

Every answer the benchmark checks is compared with a record built here.
Records come from ``periods_by_definition`` / ``is_abelian_period`` (the
package's definition-level oracle) and, for non-deducible queries, from a
frozen copy of the pairwise filter, never from an enumerator under test.

A record is keyed by the word it describes (alphabet and text), so the same
record serves every seed and workload that generates that word. Records for
the documented seeds ship in ``refs.json``; others are computed after the
timed pass and cached under ``.cache/refs`` in the benchmark directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "refs.json"
CACHE_DIR = HERE / ".cache" / "refs"

# Per-prefix records hold set hashes, which are only comparable between
# interpreters that hash int tuples the same way.
HASH_SCHEME = f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}-{sys.hash_info.width}"

_CHUNK = 4096


def listing_digest(periods) -> str:
    """SHA-256 of the canonical listing: one ``h p`` line per period, in order.

    This is byte for byte what ``abelianperiods periods`` prints.
    """
    digest = hashlib.sha256()
    lines = []
    for h, p in periods:
        lines.append(f"{h} {p}\n")
        if len(lines) == _CHUNK:
            digest.update("".join(lines).encode())
            lines.clear()
    digest.update("".join(lines).encode())
    return digest.hexdigest()


def set_fingerprint(periods) -> tuple[int, int]:
    """(size, hash) of one period set; the on-line sinks record these."""
    return len(periods), hash(frozenset(periods))


def fingerprints_digest(fingerprints) -> str:
    """SHA-256 over a per-prefix sequence of :func:`set_fingerprint` pairs."""
    text = "".join(f"{size} {value}\n" for size, value in fingerprints)
    return hashlib.sha256(text.encode()).hexdigest()


def pairwise_nondeducible(periods, n: int) -> list:
    """The pairwise non-deducible filter, frozen as the benchmark's reference.

    A period is dropped when another period's cutting set {h + jp} inside
    1..n strictly contains its own. O(s^2) subset tests.
    """
    periods = list(periods)
    cuts = [set(range(h if h else p, n + 1, p)) for h, p in periods]
    return [
        hp
        for i, hp in enumerate(periods)
        if not any(cuts[i] < cj for j, cj in enumerate(cuts) if j != i)
    ]


class _ListingCounter:
    """Streams periods into a count, a listing digest and the smallest one."""

    def __init__(self):
        self.count = 0
        self.smallest = None
        self._digest = hashlib.sha256()
        self._lines = []

    def add(self, h: int, p: int) -> None:
        if self.smallest is None:
            self.smallest = [h, p]
        self.count += 1
        self._lines.append(f"{h} {p}\n")
        if len(self._lines) == _CHUNK:
            self._digest.update("".join(self._lines).encode())
            self._lines.clear()

    def digest(self) -> str:
        self._digest.update("".join(self._lines).encode())
        self._lines.clear()
        return self._digest.hexdigest()


def offline_record(ap, word) -> dict:
    """Full and non-trivial listings of the whole word, streamed from the oracle.

    Holds no period list, so it also serves the 4181-letter anchors.
    """
    n = len(word)
    full, nontrivial = _ListingCounter(), _ListingCounter()
    for h, p in ap.periods_by_definition(ap.PrefixParikhTable(word)):
        full.add(h, p)
        if h + 2 * p <= n:
            nontrivial.add(h, p)
    return {
        "count": full.count,
        "digest": full.digest(),
        "smallest": full.smallest,
        "nt_count": nontrivial.count,
        "nt_digest": nontrivial.digest(),
    }


def nondeducible_record(ap, word) -> dict:
    """Full listing plus its pairwise non-deducible subset."""
    periods = list(ap.periods_by_definition(ap.PrefixParikhTable(word)))
    kept = pairwise_nondeducible(periods, len(word))
    return {
        "count": len(periods),
        "digest": listing_digest(periods),
        "nd_count": len(kept),
        "nd_digest": listing_digest(kept),
    }


def prefix_record(ap, word) -> dict:
    """Period sets of every prefix, and of the whole word.

    A candidate (h, p) that fails on w[1..i] fails on every longer prefix:
    its failing head, block or tail only grows (a tail that outgrows the
    block can only complete into a block that is no anagram). So the
    prefixes having (h, p) form an interval starting at h + p, whose end is
    found by binary search with ``is_abelian_period``; checking all
    prefixes with ``periods_by_definition`` would cost O(n^3) checks, about
    half a minute per word at n = 350. The final set is cross-checked
    against ``periods_by_definition`` on the whole word.
    """
    n = len(word)
    is_period = ap.is_abelian_period
    tables = [None] + [ap.PrefixParikhTable(word.prefix(i)) for i in range(1, n + 1)]
    enter = [[] for _ in range(n + 1)]
    leave = [[] for _ in range(n + 1)]
    for p in range(1, n + 1):
        for h in range(min(p - 1, n - p) + 1):
            lo = h + p
            if not is_period(tables[lo], h, p):
                continue
            hi = n
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if is_period(tables[mid], h, p):
                    lo = mid
                else:
                    hi = mid - 1
            enter[h + p].append((h, p))
            leave[lo].append((h, p))
    live: set = set()
    fingerprints = []
    for i in range(1, n + 1):
        live.update(enter[i])
        fingerprints.append(set_fingerprint(live))
        if i < n:
            live.difference_update(leave[i])
    final = list(ap.periods_by_definition(tables[n]))
    if set(final) != live:
        raise RuntimeError(f"per-prefix reference disagrees with the definition on {word.text!r}")
    return {
        "hash_scheme": HASH_SCHEME,
        "count": len(final),
        "digest": listing_digest(final),
        "prefix_total": sum(size for size, _ in fingerprints),
        "prefix_peak": max((size for size, _ in fingerprints), default=0),
        "prefix_digest": fingerprints_digest(fingerprints),
    }


BUILDERS = {"offline": offline_record, "nondeducible": nondeducible_record, "prefix": prefix_record}


def record_key(kind: str, word) -> str:
    text = f"{word.alphabet.letters}|{word.text}".encode()
    return f"{kind}-{hashlib.sha256(text).hexdigest()[:24]}"


def _usable(record) -> bool:
    return record is not None and record.get("hash_scheme", HASH_SCHEME) == HASH_SCHEME


class RefStore:
    """Reference records: shipped ones first, then the local cache."""

    def __init__(self, committed: Path = COMMITTED, cache_dir: Path = CACHE_DIR):
        self.cache_dir = cache_dir
        self.records = json.loads(committed.read_text()) if committed.is_file() else {}

    def get(self, kind: str, word):
        key = record_key(kind, word)
        record = self.records.get(key)
        if not _usable(record):
            path = self.cache_dir / f"{key}.json"
            record = json.loads(path.read_text()) if path.is_file() else None
        return record if _usable(record) else None

    def build(self, ap, kind: str, word) -> dict:
        """Compute a record from the oracle and cache it (atomic write)."""
        record = BUILDERS[kind](ap, word)
        key = record_key(kind, word)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_dir / f"{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(record))
        os.replace(tmp, self.cache_dir / f"{key}.json")
        return record
