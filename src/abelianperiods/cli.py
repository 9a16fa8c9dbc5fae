"""Command-line interface: enumerate, generate, cross-verify, benchmark.

Four subcommands:

* ``periods``  - print the Abelian periods of one word, one ``h p`` line per
  period in canonical order (or JSON, a count, the smallest period, or a
  per-prefix listing for the on-line algorithms).
* ``generate`` - print a deterministic test word (fibonacci, cyclic, spike,
  random).
* ``verify``   - run all five algorithms plus the definition-level
  enumeration on a corpus of words and report the first disagreement.
* ``bench``    - CSV timing comparison over seeded random words.

Exit codes: 0 success, 1 data or verification failure, 2 usage error,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from itertools import islice, product
from string import ascii_lowercase

from . import ALGOS, ONLINE_ALGOS, _period_rows
# the library's list entry point: verify and bench call it, and perfbench's
# cli_overhead times the in-process answer under this name
from . import abelian_periods as run_algorithm
from .generators import cyclic_word, fibonacci_word, random_word, spike_word
from .offline import Row
from .words import (
    Alphabet,
    Period,
    PrefixParikhTable,
    Word,
    period_order_key,
    periods_by_definition,
)

# "nondeducible" and --prefixes alone import .analysis
FILTERS = ("all", "nontrivial", "nondeducible")
# periods per write: one write(2) per line would cost more than the listing
# when stdout is unbuffered (PYTHONUNBUFFERED=1), while the first byte still
# comes out after at most one batch
BATCH = 1024
# 128 + SIGPIPE: what a shell reports for a command killed by a closed pipe
EXIT_BROKEN_PIPE = 141


def cross_check_word(word: Word, *, check_prefixes: bool = True) -> str | None:
    """Compare all five algorithms against the definition-level enumeration.

    Returns None when everything agrees, otherwise a one-line description
    of the first disagreement (word, algorithm pair, differing period, or
    the order or duplicates of an otherwise equal list). With
    ``check_prefixes`` the three on-line algorithms' per-prefix sets are
    also compared against the definition on every prefix.
    """
    reference = list(periods_by_definition(PrefixParikhTable(word)))
    # each on-line algorithm runs once, its sink on the run whose list is checked
    per_prefix: dict[str, list[set[Period]]] = {}
    for name in ALGOS:
        sink = None
        if check_prefixes and name in ONLINE_ALGOS:
            sets = per_prefix[name] = []
            sink = lambda i, periods: sets.append(periods)
        got = run_algorithm(word, name, sink=sink)
        if got != reference:
            differ = set(got) ^ set(reference)
            if differ:
                bad = min(differ, key=period_order_key)
                what = f"period ({bad[0]}, {bad[1]})"
            else:
                # the reference has no duplicates, so a longer list repeats one
                what = "duplicate periods" if len(got) > len(reference) else "period order"
            return f"word {word.text!r}: {name} vs definition disagree on {what}"
    if check_prefixes:
        for i in range(1, len(word) + 1):
            ref_i = set(periods_by_definition(PrefixParikhTable(word.prefix(i))))
            for name, sets in per_prefix.items():
                got_i = sets[i - 1]
                if got_i != ref_i:
                    bad = min(got_i ^ ref_i, key=period_order_key)
                    return (
                        f"word {word.text!r}: {name} vs definition disagree on "
                        f"period ({bad[0]}, {bad[1]}) at prefix length {i}"
                    )
    return None


def _write_rows(rows: Iterable[Row], n: int, head: str = "{} ", end: str = "{}\n", skip: int = 0) -> None:
    """Write ``head.format(h) + end.format(p)`` per period of rows ``(p, heads)``,
    less the first ``skip`` characters, in whole rows of at least ``BATCH`` periods."""
    names = [head.format(h) for h in range(n // 2 + 1)]
    pieces: list[str] = []
    joined = 0
    for p, heads in rows:
        tail = end.format(p)
        pieces += tail.join(map(names.__getitem__, heads)), tail
        joined += len(heads)
        if joined >= BATCH:
            sys.stdout.write("".join(pieces)[skip:])
            pieces.clear()
            joined = skip = 0
    sys.stdout.write("".join(pieces)[skip:])


def _input_word(args) -> Word:
    if args.word is not None:
        return Word(args.word)
    with open(args.file, "rb") as fh:
        raw = fh.read()
    return Word(raw.rstrip(b"\r\n").decode("latin-1"))


def cmd_periods(args) -> int:
    try:
        word = _input_word(args)
    except OSError as exc:
        print(f"error: cannot read word: {exc}", file=sys.stderr)
        return 1
    if args.prefixes:
        if args.algo not in ONLINE_ALGOS:
            args.parser.error("--prefixes requires an on-line --algo")
        from .analysis import filter_nondeducible, filter_nontrivial

        keep = {
            "all": lambda periods, n: periods,
            "nontrivial": filter_nontrivial,
            "nondeducible": filter_nondeducible,
        }[args.filter_name]

        def show(i: int, periods: set[Period]) -> None:
            sys.stdout.write(f"# prefix {i}\n")
            _write_rows(((p, [h]) for h, p in sorted(keep(periods, i), key=period_order_key)), i)

        # the sink prints every prefix; the final rows are not read
        _period_rows(word, args.algo, sink=show)
        return 0
    # rows (p, heads) in canonical order: a count is a sum of row lengths,
    # the smallest period the first head of the first row
    n = len(word)
    rows = _period_rows(word, args.algo, nontrivial_only=args.filter_name == "nontrivial")
    if args.filter_name == "nondeducible":
        from .analysis import _nondeducible_rows

        rows = _nondeducible_rows(rows, n)
    if args.as_json:
        # imported here, not at the top: every other `periods` child would load it
        import json

        # the bytes of print(json.dumps(document)), written in pieces: the
        # other fields, then ", [h, p]" per period less the first ", "
        fields = {"word_length": n, "algo": args.algo, "filter": args.filter_name}
        sys.stdout.write(json.dumps(fields)[:-1] + ', "periods": [')
        _write_rows(rows, n, ", [{}, ", "{}]", skip=2)
        sys.stdout.write("]}\n")
    elif args.count:
        print(sum(len(heads) for _, heads in rows))
    elif args.smallest:
        _write_rows(((p, heads[:1]) for p, heads in islice(rows, 1)), n)
    else:
        _write_rows(rows, n)
    return 0


def cmd_generate(args) -> int:
    takes_sigma = args.kind in ("cyclic", "random")
    if (args.sigma is None) == takes_sigma:
        verb = "is required for" if takes_sigma else "does not apply to"
        args.parser.error(f"--sigma {verb} {args.kind} words")
    if args.seed is not None and args.kind != "random":
        args.parser.error(f"--seed goes with random words only, not {args.kind} words")
    try:
        if args.kind == "fibonacci":
            word = fibonacci_word(args.length)
        elif args.kind == "cyclic":
            word = cyclic_word(args.sigma, args.length)
        elif args.kind == "spike":
            if args.length % 2 == 0:
                args.parser.error("spike words have odd length 2k + 1")
            word = spike_word((args.length - 1) // 2)
        else:
            word = random_word(args.sigma, args.length, args.seed or 0)
    except ValueError as exc:
        args.parser.error(str(exc))
    print(word.text)
    return 0


def _verify_corpus(args) -> Iterator[Word]:
    if args.max_len is not None:
        alphabet = Alphabet(ascii_lowercase[: args.sigma])
        for length in range(1, args.max_len + 1):
            for letters in product(alphabet.letters, repeat=length):
                yield Word("".join(letters), alphabet)
    else:
        for j in range(args.random_count):
            yield random_word(args.sigma, args.length, seed=(args.seed or 0) + j)


def cmd_verify(args) -> int:
    if (args.random_count is None) != (args.length is None):
        args.parser.error("--len goes with --random: give both or neither")
    if args.max_len is not None and args.seed is not None:
        args.parser.error("--seed goes with --random: exhaustive mode draws no words")
    checked = 0
    for word in _verify_corpus(args):
        message = cross_check_word(word)
        if message is not None:
            print(message)
            return 1
        checked += 1
    noun = "word" if checked == 1 else "words"
    print(f"verified {checked} {noun}: all algorithms and the definition agree")
    return 0


def _word_seed(seed: int, sigma: int, length: int, j: int) -> int:
    # a cell's words depend on the seed and the cell alone, not on the other cells
    return ((seed * 1000003 + sigma) * 1000003 + length) * 1000003 + j


def cmd_bench(args) -> int:
    # imported here, not at the top: every `periods` child would load them
    import csv
    import statistics

    try:
        out = open(args.csv_path, "w", newline="") if args.csv_path else sys.stdout
    except OSError as exc:
        print(f"error: cannot write CSV: {exc}", file=sys.stderr)
        return 1
    try:
        writer = csv.writer(out)
        writer.writerow(
            ["algo", "sigma", "length", "reps", "mean_ms", "stddev_ms", "total_periods"]
        )
        if args.reps == 0:
            return 0
        nontrivial = args.filter_name == "nontrivial"
        rows: list[list] = [[] for _ in args.algos]
        for sigma, length in product(args.sigmas, args.lengths):
            runs = [([], []) for _ in args.algos]  # (times_ms, counts) per algorithm
            for j in range(args.reps):
                word = random_word(sigma, length, seed=_word_seed(args.seed, sigma, length, j))
                # all algorithms back to back on one word: host drift moves them alike
                for algo, (times_ms, counts) in zip(args.algos, runs):
                    t0 = time.perf_counter()
                    count = len(run_algorithm(word, algo, nontrivial_only=nontrivial))
                    times_ms.append((time.perf_counter() - t0) * 1000.0)
                    counts.append(count)
            for algo, (times_ms, counts), algo_rows in zip(args.algos, runs, rows):
                algo_rows.append(
                    [
                        algo,
                        sigma,
                        length,
                        args.reps,
                        f"{statistics.fmean(times_ms):.3f}",
                        f"{statistics.pstdev(times_ms):.3f}",
                        sum(counts),
                    ]
                )
        for algo_rows in rows:
            writer.writerows(algo_rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _int_range(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``low`` and, if given, at most ``high``."""

    # argparse reports the ValueError of a non-number as "invalid integer value"
    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {value}")
        return value

    return integer


def _algo(name: str) -> str:
    if name not in ALGOS:
        raise argparse.ArgumentTypeError(f"unknown algorithm {name!r}")
    return name


def _comma_list(item: Callable[[str], object]) -> Callable[[str], list]:
    """An argparse type: a non-empty comma-separated list of ``item`` values."""

    def comma_separated(text: str) -> list:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return comma_separated


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelianperiods",
        description="Compute, verify and benchmark the Abelian periods of words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="enumerate the Abelian periods of a word")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--word", help="the word itself")
    source.add_argument("--file", help="file to read the word from (raw bytes, trailing newlines stripped)")
    p.add_argument("--algo", choices=ALGOS, default="select")
    p.add_argument("--filter", choices=FILTERS, default="all", dest="filter_name")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--smallest", action="store_true", help="print only the smallest period")
    mode.add_argument("--count", action="store_true", help="print only the number of periods")
    mode.add_argument("--json", action="store_true", dest="as_json", help="print one JSON document")
    mode.add_argument("--prefixes", action="store_true", help="print the period set of every prefix (on-line algorithms only)")
    p.set_defaults(func=cmd_periods, parser=p)

    p = sub.add_parser("generate", help="print a deterministic test word")
    p.add_argument("--kind", choices=("fibonacci", "cyclic", "spike", "random"), required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--sigma", type=int, help="alphabet size (cyclic and random words)")
    p.add_argument("--seed", type=int, help="random words only (default 0)")
    p.set_defaults(func=cmd_generate, parser=p)

    # an empty corpus, or one of empty words, would pass without checking anything
    positive, sigma = _int_range(1), _int_range(1, len(ascii_lowercase))
    p = sub.add_parser("verify", help="cross-check all algorithms against the definition")
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--max-len", type=positive, dest="max_len", help="exhaustive mode: all words up to this length")
    corpus.add_argument("--random", type=positive, dest="random_count", help="sampled mode: number of random words")
    p.add_argument("--sigma", type=sigma, default=2, help="alphabet size (both modes)")
    p.add_argument("--len", type=positive, dest="length", help="sampled mode: word length")
    p.add_argument("--seed", type=int, help="sampled mode: first word's seed (default 0)")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("bench", help="CSV timing comparison on seeded random words")
    p.add_argument("--algos", type=_comma_list(_algo), default=list(ALGOS[:2]))
    p.add_argument("--lengths", type=_comma_list(_int_range(0)), default=[100, 1000])
    p.add_argument("--sigma", type=_comma_list(sigma), default=[2], dest="sigmas")
    p.add_argument("--reps", type=_int_range(0), default=10, help="words per (algo, sigma, length) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", choices=("all", "nontrivial"), default="all", dest="filter_name")
    p.add_argument("--csv", dest="csv_path", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point stdout at devnull so the
        # flush at interpreter exit cannot raise again and print a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
