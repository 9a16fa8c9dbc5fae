"""Command-line surface: flags, formats, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product

import pytest

import abelianperiods
from abelianperiods import (
    ONLINE_ALGOS,
    abelian_periods,
    cyclic_word,
    fibonacci_word,
    filter_nondeducible,
    filter_nontrivial,
    period_order_key,
    random_word,
    smallest_period,
    spike_word,
)
from abelianperiods.cli import ALGOS, EXIT_BROKEN_PIPE, FILTERS, _word_seed, build_parser, main
from conftest import fresh_python, words_over

GOLDEN = "abaababa"


@pytest.fixture
def cli(capsys):
    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


class TestPeriodsCommand:
    def test_golden_text_output(self, cli):
        code, out, _ = cli("periods", "--word", GOLDEN, "--algo", "brute")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 16
        assert lines[0] == "1 2" and lines[-1] == "0 8"

    def test_all_algorithms_print_identical_bytes(self, cli):
        outputs = set()
        for algo in ALGOS:
            code, out, _ = cli("periods", "--word", GOLDEN, "--algo", algo)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_output_is_stable_across_runs(self, cli):
        first = cli("periods", "--word", GOLDEN)
        second = cli("periods", "--word", GOLDEN)
        assert first == second

    def test_nontrivial_count(self, cli):
        code, out, _ = cli(
            "periods", "--word", GOLDEN, "--filter", "nontrivial", "--count"
        )
        assert code == 0 and out.strip() == "3"

    def test_smallest(self, cli):
        code, out, _ = cli("periods", "--word", GOLDEN, "--smallest")
        assert code == 0 and out.strip() == "1 2"

    def test_nondeducible_filter(self, cli):
        code, out, _ = cli("periods", "--word", GOLDEN, "--filter", "nondeducible")
        assert code == 0
        assert out.splitlines() == [
            "1 2", "0 3", "2 3", "2 4", "1 5", "2 5", "3 5", "1 7",
        ]

    def test_json_document_round_trips(self, cli):
        code, out, _ = cli("periods", "--word", GOLDEN, "--json")
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"word_length", "algo", "filter", "periods"}
        assert doc["word_length"] == 8
        assert doc["algo"] == "select" and doc["filter"] == "all"
        _, text_out, _ = cli("periods", "--word", GOLDEN)
        text_pairs = [[int(x) for x in line.split()] for line in text_out.splitlines()]
        assert doc["periods"] == text_pairs

    def test_empty_word(self, cli):
        code, out, _ = cli("periods", "--word", "")
        assert code == 0 and out == ""
        code, out, _ = cli("periods", "--word", "", "--count")
        assert code == 0 and out.strip() == "0"
        code, out, _ = cli("periods", "--word", "", "--smallest")
        assert code == 0 and out == ""

    def test_file_input(self, cli, tmp_path):
        path = tmp_path / "word.txt"
        path.write_bytes(GOLDEN.encode() + b"\n")
        code, out, _ = cli("periods", "--file", str(path))
        _, expected, _ = cli("periods", "--word", GOLDEN)
        assert code == 0 and out == expected

    def test_file_trailing_crlf_stripped(self, cli, tmp_path):
        path = tmp_path / "word.txt"
        path.write_bytes(b"aaaa\r\n")
        code, out, _ = cli("periods", "--file", str(path), "--count")
        _, expected, _ = cli("periods", "--word", "aaaa", "--count")
        assert code == 0 and out == expected

    def test_missing_file_is_a_data_error(self, cli, tmp_path):
        code, _, err = cli("periods", "--file", str(tmp_path / "nope"))
        assert code == 1 and "cannot read" in err

    def test_source_is_required(self, cli):
        code, _, _ = cli("periods")
        assert code == 2

    def test_unknown_algo_and_filter(self, cli):
        assert cli("periods", "--word", "ab", "--algo", "quick")[0] == 2
        assert cli("periods", "--word", "ab", "--filter", "other")[0] == 2

    def test_prefixes_blocks(self, cli):
        code, out, _ = cli(
            "periods", "--word", "aba", "--algo", "online-list", "--prefixes"
        )
        assert code == 0
        assert out.splitlines() == [
            "# prefix 1", "0 1",
            "# prefix 2", "0 2",
            "# prefix 3", "0 2", "1 2", "0 3",
        ]

    def test_prefixes_needs_an_online_algorithm(self, cli):
        code, _, _ = cli("periods", "--word", "aba", "--algo", "brute", "--prefixes")
        assert code == 2

    def test_prefixes_rejects_other_output_modes(self, cli):
        for mode in ("--count", "--json", "--smallest"):
            code, out, _ = cli(
                "periods", "--word", "aba", "--algo", "online-heap", "--prefixes", mode
            )
            assert code == 2 and out == "", mode


def _listing(periods) -> str:
    return "".join(f"{h} {p}\n" for h, p in periods)


def _filtered(periods, filter_name, n):
    if filter_name == "nontrivial":
        return filter_nontrivial(periods, n)
    if filter_name == "nondeducible":
        return filter_nondeducible(periods, n)
    return periods


DIFFERENTIAL_WORDS = [
    *words_over("ab", 8),
    *(fibonacci_word(n).text for n in (13, 21, 34, 55)),
    *(spike_word(k).text for k in (1, 4, 10)),
    *(cyclic_word(sigma, n).text for sigma, n in ((3, 12), (4, 32), (5, 35))),
]


class TestStreamedOutput:
    """Every output mode against the whole-list formula: enumerate with
    ``abelian_periods``, filter the list, then count it, take its minimum
    or print it."""

    @pytest.fixture
    def periods_cmd(self, capsys, monkeypatch):
        # one parser for the thousands of runs below: building it costs ten
        # times what parsing and running a short word do
        parser = build_parser()
        # output is written in batches of this many periods; a small batch
        # makes most listings below cross batch boundaries
        monkeypatch.setattr("abelianperiods.cli.BATCH", 3)

        def run(*argv):
            args = parser.parse_args(["periods", *argv])
            code = args.func(args)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        return run

    @pytest.mark.parametrize("filter_name", FILTERS)
    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_mode_matches_the_list_formula(self, periods_cmd, algo, filter_name):
        for text in DIFFERENTIAL_WORDS:
            n = len(text)
            periods = _filtered(abelian_periods(text, algo), filter_name, n)
            hp = smallest_period(periods)
            doc = {"word_length": n, "algo": algo, "filter": filter_name,
                   "periods": [list(hp) for hp in periods]}
            expected = {
                (): _listing(periods),
                ("--count",): f"{len(periods)}\n",
                ("--smallest",): "" if hp is None else _listing([hp]),
                ("--json",): json.dumps(doc) + "\n",
            }
            for mode, want in expected.items():
                got = periods_cmd("--word", text, "--algo", algo,
                                  "--filter", filter_name, *mode)
                assert got == (0, want, ""), (text, mode)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_rows_longer_than_a_batch(self, periods_cmd, monkeypatch, algo):
        # a listing goes out once BATCH periods are joined, in whole rows
        # (p, heads): each word below has rows longer than a batch and rows
        # that end inside one
        batch = 64
        monkeypatch.setattr("abelianperiods.cli.BATCH", batch)
        for word in (fibonacci_word(377), spike_word(150), cyclic_word(4, 300)):
            n = len(word)
            every = abelian_periods(word, algo)
            for filter_name in FILTERS:
                periods = _filtered(every, filter_name, n)
                sizes = Counter(p for _, p in periods).values()
                assert not periods or min(sizes) < batch < max(sizes), (n, filter_name)
                hp = smallest_period(periods)
                doc = {"word_length": n, "algo": algo, "filter": filter_name,
                       "periods": [list(hp) for hp in periods]}
                expected = {
                    (): _listing(periods),
                    ("--count",): f"{len(periods)}\n",
                    ("--smallest",): "" if hp is None else _listing([hp]),
                    ("--json",): json.dumps(doc) + "\n",
                }
                for mode, want in expected.items():
                    got = periods_cmd("--word", word.text, "--algo", algo,
                                      "--filter", filter_name, *mode)
                    assert got == (0, want, ""), (n, filter_name, mode)

    @pytest.mark.parametrize("filter_name", FILTERS)
    @pytest.mark.parametrize("algo", ONLINE_ALGOS)
    def test_prefix_listing_matches_the_sink_sets(self, periods_cmd, algo, filter_name):
        for text in DIFFERENTIAL_WORDS:
            blocks = []

            def sink(i, periods):
                shown = sorted(periods, key=period_order_key)
                blocks.append(f"# prefix {i}\n" + _listing(_filtered(shown, filter_name, i)))

            abelian_periods(text, algo, sink=sink)
            got = periods_cmd("--word", text, "--algo", algo,
                              "--filter", filter_name, "--prefixes")
            assert got == (0, "".join(blocks), ""), text

    @staticmethod
    def check_smallest_pulls_one_row(cli, monkeypatch, filter_name):
        """``--smallest`` on a Fibonacci word prints the smallest period and
        pulls from select only the row that holds it."""
        text = fibonacci_word(233).text
        smallest = smallest_period(_filtered(abelian_periods(text), filter_name, len(text)))
        real = abelianperiods._select_rows
        pulled = []

        def counting(table, **kwargs):
            for row in real(table, **kwargs):
                pulled.append(row)
                yield row

        monkeypatch.setattr("abelianperiods._select_rows", counting)
        code, out, _ = cli("periods", "--word", text, "--filter", filter_name, "--smallest")
        assert code == 0 and out == _listing([smallest])
        assert [p for p, _ in pulled] == [smallest[1]]
        assert pulled[0][1][0] == smallest[0]

    def test_smallest_pulls_one_period(self, cli, monkeypatch):
        # the CLI reads select's rows (p, heads), not its (h, p) tuples: it
        # must pull only the row that holds the smallest period
        self.check_smallest_pulls_one_row(cli, monkeypatch, "all")

    def test_smallest_nondeducible_pulls_one_row(self, cli, monkeypatch):
        # no shorter block length can refine the smallest period, so the
        # non-deducible filter keeps it without reading a second row
        self.check_smallest_pulls_one_row(cli, monkeypatch, "nondeducible")

    def test_count_holds_no_list(self, cli):
        text = fibonacci_word(987).text
        tracemalloc.start()
        try:
            periods = abelian_periods(text)
            _, list_peak = tracemalloc.get_traced_memory()
            del periods
            tracemalloc.reset_peak()
            code, out, _ = cli("periods", "--word", text, "--count")
            _, count_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and int(out) > 100_000
        assert count_peak < list_peak / 4, (count_peak, list_peak)

    def test_closed_stdout_ends_quietly(self):
        # about 90,000 periods, far more than a pipe buffer holds, so the
        # writer is still running when the reader goes away
        src = os.path.dirname(os.path.dirname(abelianperiods.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, "-m", "abelianperiods.cli", "periods", "--word", "a" * 600],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert child.stdout.readline() == b"0 1\n"
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert err == b""


class TestStartup:
    @staticmethod
    def loaded_by_import(names, module="abelianperiods.cli"):
        # every `periods` child pays for what importing the CLI loads
        return fresh_python(f"import {module}, sys; print(sorted({set(names)!r} & set(sys.modules)))")

    def test_cli_import_leaves_out_dataclasses_and_inspect(self):
        assert self.loaded_by_import(["dataclasses", "inspect"]) == "[]\n"

    def test_cli_import_leaves_out_the_bench_modules(self):
        # statistics alone pulls in fractions, decimal and random
        assert self.loaded_by_import(["statistics", "csv"]) == "[]\n"

    def test_cli_import_leaves_out_json(self):
        # only --json writes JSON
        assert self.loaded_by_import(["json", "_json"]) == "[]\n"

    def test_cli_import_leaves_out_online_analysis_and_typing(self):
        # a listing, --count or --smallest runs neither module; their names
        # load on first use
        names = ["abelianperiods.online", "abelianperiods.analysis", "array", "typing"]
        assert self.loaded_by_import(names) == "[]\n"

    def test_package_import_leaves_out_the_generators_too(self):
        names = ["abelianperiods.online", "abelianperiods.analysis", "abelianperiods.generators", "array", "typing"]
        assert self.loaded_by_import(names, module="abelianperiods") == "[]\n"

    @pytest.mark.parametrize(
        "args, loaded",
        [
            pytest.param((), [], id="listing"),
            pytest.param(("--filter", "nondeducible", "--count"), ["abelianperiods.analysis"], id="nondeducible"),
            pytest.param(("--algo", "online-heap"), ["abelianperiods.online"], id="online"),
            pytest.param(
                ("--algo", "online-list", "--prefixes"),
                ["abelianperiods.analysis", "abelianperiods.online"],
                id="prefixes",
            ),
        ],
    )
    def test_periods_loads_what_it_runs(self, args, loaded):
        names = ["abelianperiods.analysis", "abelianperiods.online"]
        probe = (
            "import contextlib, io, sys\n"
            "from abelianperiods.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['periods', '--word', 'abaababa', *{args!r}])\n"
            f"print(sorted({set(names)!r} & set(sys.modules)))"
        )
        assert fresh_python(probe) == f"{loaded!r}\n"


class TestGenerateCommand:
    def test_fibonacci(self, cli):
        code, out, _ = cli("generate", "--kind", "fibonacci", "--length", "13")
        assert code == 0 and out.strip() == "abaababaabaab"

    def test_spike(self, cli):
        code, out, _ = cli("generate", "--kind", "spike", "--length", "5")
        assert code == 0 and out.strip() == "aabaa"

    def test_cyclic(self, cli):
        code, out, _ = cli(
            "generate", "--kind", "cyclic", "--length", "6", "--sigma", "3"
        )
        assert code == 0 and out.strip() == "abcabc"

    def test_random_is_deterministic(self, cli):
        args = ("generate", "--kind", "random", "--length", "40", "--sigma", "4",
                "--seed", "9")
        assert cli(*args) == cli(*args)

    def test_usage_errors(self, cli):
        assert cli("generate", "--kind", "spike", "--length", "4")[0] == 2
        assert cli("generate", "--kind", "cyclic", "--length", "7", "--sigma", "3")[0] == 2
        assert cli("generate", "--kind", "cyclic", "--length", "6")[0] == 2
        assert cli("generate", "--kind", "random", "--length", "5")[0] == 2
        assert cli("generate", "--kind", "fibonacci", "--length", "0")[0] == 2

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(("fibonacci", "8", "--sigma", "5", "--seed", "3"), id="fibonacci-sigma-seed"),
            pytest.param(("fibonacci", "8", "--sigma", "5"), id="fibonacci-sigma"),
            pytest.param(("fibonacci", "8", "--seed", "3"), id="fibonacci-seed"),
            pytest.param(("spike", "5", "--sigma", "2"), id="spike-sigma"),
            pytest.param(("spike", "5", "--seed", "0"), id="spike-seed"),
            pytest.param(("cyclic", "6", "--sigma", "3", "--seed", "1"), id="cyclic-seed"),
        ],
    )
    def test_options_the_kind_does_not_use(self, cli, args):
        # an option that cannot change the word is a usage error, not ignored
        kind, length, *rest = args
        code, out, err = cli("generate", "--kind", kind, "--length", length, *rest)
        assert code == 2 and out == "" and ("--sigma" in err or "--seed" in err)

    def test_random_seed_defaults_to_zero(self, cli):
        args = ("generate", "--kind", "random", "--length", "40", "--sigma", "4")
        assert cli(*args) == cli(*args, "--seed", "0")


class TestVerifyCommand:
    def test_exhaustive_smallest_corpus(self, cli):
        code, out, _ = cli("verify", "--max-len", "1", "--sigma", "1")
        assert code == 0 and "verified 1 word" in out

    def test_exhaustive_binary(self, cli):
        code, out, _ = cli("verify", "--max-len", "6", "--sigma", "2")
        assert code == 0 and "verified 126 words" in out

    def test_sampled_mode(self, cli):
        code, out, _ = cli(
            "verify", "--random", "20", "--len", "12", "--sigma", "3", "--seed", "1"
        )
        assert code == 0 and "verified 20 words" in out

    def test_mode_is_required(self, cli):
        assert cli("verify")[0] == 2
        assert cli("verify", "--max-len", "2", "--random", "2", "--len", "3")[0] == 2
        assert cli("verify", "--random", "2")[0] == 2

    def test_negative_length_is_a_usage_error(self, cli):
        assert cli("verify", "--random", "2", "--len", "-3")[0] == 2

    def test_zero_length_is_a_usage_error(self, cli):
        code, out, _ = cli("verify", "--random", "3", "--len", "0")
        assert code == 2 and "verified" not in out

    def test_len_without_random_is_a_usage_error(self, cli):
        code, out, _ = cli("verify", "--max-len", "2", "--len", "50")
        assert code == 2 and "verified" not in out

    def test_seed_without_random_is_a_usage_error(self, cli):
        code, out, _ = cli("verify", "--max-len", "2", "--seed", "5")
        assert code == 2 and "verified" not in out

    def test_sampled_mode_seed_defaults_to_zero(self, cli, monkeypatch):
        seeds = []
        real = abelianperiods.cli.random_word

        def recording(sigma, n, seed=0):
            seeds.append(seed)
            return real(sigma, n, seed)

        monkeypatch.setattr("abelianperiods.cli.random_word", recording)
        assert cli("verify", "--random", "3", "--len", "4")[0] == 0
        assert cli("verify", "--random", "2", "--len", "4", "--seed", "7")[0] == 0
        assert seeds == [0, 1, 2, 7, 8]

    def test_negative_random_count_is_a_usage_error(self, cli):
        assert cli("verify", "--random", "-3", "--len", "5")[0] == 2

    def test_negative_max_len_is_a_usage_error(self, cli):
        assert cli("verify", "--max-len", "-2")[0] == 2

    def test_zero_max_len_is_a_usage_error(self, cli):
        code, out, _ = cli("verify", "--max-len", "0")
        assert code == 2 and "verified" not in out

    def test_zero_random_count_is_a_usage_error(self, cli):
        code, out, _ = cli("verify", "--random", "0", "--len", "5")
        assert code == 2 and "verified" not in out

    @pytest.mark.parametrize("sigma", ["0", "27"])
    def test_sigma_outside_the_alphabet_is_a_usage_error(self, cli, sigma):
        assert cli("verify", "--max-len", "2", "--sigma", sigma)[:2] == (2, "")

    def test_detects_an_injected_fault(self, cli, monkeypatch):
        from abelianperiods.offline import select_periods as real

        def broken(table, **kwargs):
            results = iter(real(table, **kwargs))
            next(results, None)  # swallow one period
            yield from results

        monkeypatch.setattr("abelianperiods.select_periods", broken)
        code, out, _ = cli("verify", "--max-len", "3", "--sigma", "2")
        assert code == 1
        assert "select" in out and "disagree" in out

    @pytest.mark.parametrize(
        "fault, what",
        [(reversed, "order"), (lambda periods: periods * 2, "duplicate")],
        ids=["reversed", "duplicated"],
    )
    def test_reports_a_fault_in_order_or_duplicates(self, cli, monkeypatch, fault, what):
        from abelianperiods.offline import select_periods as real

        def broken(table, **kwargs):
            yield from fault(list(real(table, **kwargs)))

        monkeypatch.setattr("abelianperiods.select_periods", broken)
        code, out, _ = cli("verify", "--max-len", "3", "--sigma", "2")
        assert code == 1
        assert out.count("\n") == 1 and "select" in out and what in out

    def test_reports_a_per_prefix_fault(self, cli, monkeypatch):
        # the final lists agree; only the set given for prefix length 2
        # misses (0, 2), a period of every word of length 2
        real = abelianperiods.online_heap

        def broken(table, sink=None):
            def lossy(i, periods):
                sink(i, periods - {(0, 2)} if i == 2 else periods)

            return real(table, lossy if sink else None)

        monkeypatch.setattr("abelianperiods.online_heap", broken)
        code, out, _ = cli("verify", "--max-len", "3", "--sigma", "2")
        assert code == 1
        assert out.count("\n") == 1
        assert "online-heap" in out and "at prefix length 2" in out


class TestBenchCommand:
    HEADER = "algo,sigma,length,reps,mean_ms,stddev_ms,total_periods"

    def test_header_and_rows(self, cli):
        code, out, _ = cli(
            "bench", "--algos", "brute,select", "--lengths", "20,40",
            "--sigma", "2,3", "--reps", "3", "--seed", "7",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 2 * 2 * 2

    def test_reps_zero_prints_header_only(self, cli):
        code, out, _ = cli("bench", "--reps", "0")
        assert code == 0 and out.strip() == self.HEADER

    def test_negative_reps_is_a_usage_error(self, cli):
        code, out, _ = cli("bench", "--reps", "-1")
        assert code == 2 and out == ""

    def test_negative_length_is_a_usage_error(self, cli):
        assert cli("bench", "--lengths", "-5", "--reps", "1")[0] == 2

    def test_zero_sigma_is_a_usage_error(self, cli):
        for sigma in ("0", "27"):
            assert cli("bench", "--sigma", sigma, "--reps", "1")[:2] == (2, ""), sigma

    @pytest.mark.parametrize(
        "option, value",
        [("--lengths", "x"), ("--lengths", ","), ("--algos", ",")],
        ids=["lengths-not-a-number", "lengths-empty", "algos-empty"],
    )
    def test_malformed_list_is_a_usage_error(self, cli, option, value):
        assert cli("bench", option, value, "--reps", "1")[:2] == (2, "")

    def test_same_words_for_every_algorithm(self, cli):
        code, out, _ = cli(
            "bench", "--algos", "brute,select,online-heap", "--lengths", "25",
            "--sigma", "2", "--reps", "4", "--filter", "nontrivial",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0
        totals = {row[0]: row[6] for row in rows}
        assert len(set(totals.values())) == 1

    def test_words_drawn_once_and_rows_algo_major(self, cli, monkeypatch):
        algos, sigmas, lengths, reps = ["brute", "select", "online-heap"], [2, 3], [12, 7], 2
        drawn, texts, timed = [], [], []

        def drawing(sigma, length, seed):
            drawn.append((sigma, length, seed))
            word = random_word(sigma, length, seed=seed)
            texts.append(word.text)
            return word

        def timing(word, algo, **kwargs):
            timed.append((word.text, algo))
            return abelian_periods(word, algo, **kwargs)

        monkeypatch.setattr("abelianperiods.cli.random_word", drawing)
        monkeypatch.setattr("abelianperiods.cli.run_algorithm", timing)
        code, out, _ = cli(
            "bench", "--algos", ",".join(algos), "--lengths", "12,7",
            "--sigma", "2,3", "--reps", str(reps), "--seed", "5",
        )
        assert code == 0
        cells = list(product(sigmas, lengths, range(reps)))
        assert drawn == [(s, n, _word_seed(5, s, n, j)) for s, n, j in cells]
        # each word is timed under every algorithm before the next is drawn
        assert timed == [(text, algo) for text in texts for algo in algos]
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(a, int(s), int(n)) for a, s, n, *_ in rows] == list(product(algos, sigmas, lengths))
        for algo, sigma, length, reps_text, _, _, total in rows:
            seeds = [_word_seed(5, int(sigma), int(length), j) for j in range(reps)]
            words = [random_word(int(sigma), int(length), seed=seed) for seed in seeds]
            assert reps_text == str(reps)
            assert int(total) == sum(len(abelian_periods(w, algo)) for w in words)

    def test_csv_file_output(self, cli, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = cli(
            "bench", "--lengths", "10", "--sigma", "2", "--reps", "1",
            "--csv", str(path),
        )
        assert code == 0 and out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0] == self.HEADER and len(lines) == 3

    def test_unwritable_csv_is_a_data_error(self, cli, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = cli("bench", "--reps", "1", "--csv", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write CSV:") and "Traceback" not in err

    def test_unknown_algorithm(self, cli):
        assert cli("bench", "--algos", "quick")[0] == 2
