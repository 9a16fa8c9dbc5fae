"""Acceptance gate: one test per criterion, one PASS line each.

``pytest tests/test_acceptance.py -v`` lists pass/fail per criterion; add
``-s`` to see the PASS lines and the benchmark ratio report as they print.
"""

import csv
import io
import time
from contextlib import redirect_stdout

import pytest

from abelianperiods import (
    ALGOS,
    ONLINE_ALGOS,
    Alphabet,
    PrefixParikhTable,
    Word,
    brute_force_periods,
    compute_g,
    compute_m,
    compute_select,
    cyclic_word,
    fibonacci_word,
    online_array,
    online_heap,
    online_list,
    select,
    select_periods,
    smallest_period,
    spike_word,
)
from abelianperiods.cli import cross_check_word, main, run_algorithm
from conftest import oracle_periods, prefix_sets, rows_as_dict, words_over

GOLDEN = "abaababa"
EXAMPLE_1_PERIODS = [
    (1, 2),
    (0, 3), (2, 3),
    (1, 4), (2, 4), (3, 4),
    (0, 5), (1, 5), (2, 5), (3, 5),
    (0, 6), (1, 6), (2, 6),
    (0, 7), (1, 7),
    (0, 8),
]
EXAMPLE_2_TABLE = {
    (0, 1): 1, (0, 2): 3, (0, 3): 8, (0, 4): 6,
    (0, 5): 8, (0, 6): 8, (0, 7): 8, (0, 8): 8,
    (1, 2): 8, (1, 3): 6, (1, 4): 8, (1, 5): 8, (1, 6): 8, (1, 7): 8,
    (2, 3): 8, (2, 4): 8, (2, 5): 8, (2, 6): 8,
    (3, 4): 8, (3, 5): 8,
}
ALGO_NAMES = ("brute", "select", "online-array", "online-list", "online-heap")


def count_periods(table, *, nontrivial_of: int | None = None) -> int:
    total = 0
    for h, p in brute_force_periods(table):
        if nontrivial_of is None or h + 2 * p <= nontrivial_of:
            total += 1
    return total


def test_criterion_1_golden_period_listing():
    word = Word(GOLDEN)
    for algo in ALGO_NAMES:
        assert run_algorithm(word, algo) == EXAMPLE_1_PERIODS, algo
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_algorithm(word, algo)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"{algo} took {best * 1e3:.3f} ms"
    assert smallest_period(EXAMPLE_1_PERIODS) == (1, 2)
    print("PASS 1: five algorithms emit the 16 golden periods in order, <1 ms each")


def test_criterion_2_golden_online_table():
    table = online_array(PrefixParikhTable(Word(GOLDEN)))
    assert rows_as_dict(table) == EXAMPLE_2_TABLE
    print("PASS 2: on-line array table matches the golden table entry for entry")


def test_criterion_3_golden_select_index():
    word = Word(GOLDEN)
    idx = compute_select(word)
    assert list(idx.C) == [1, 6, 9]
    assert list(idx.S) == [1, 3, 4, 6, 8, 2, 5, 7]
    assert select(idx, "b", 2) == 5
    print("PASS 3: select index is C=[1,6,9], S=[1,3,4,6,8,2,5,7]; select_b(w,2)=5")


def test_criterion_4_m_table_anchor():
    word = Word("abaaaaabaa")
    assert compute_m(word, compute_select(word))[2] == 6
    print("PASS 4: M[2] = 6 for abaaaaabaa")


def test_criterion_5_fibonacci_counts():
    t0 = time.perf_counter()
    table = PrefixParikhTable(fibonacci_word(4181))
    total = nontrivial = 0
    for h, p in brute_force_periods(table):
        total += 1
        if h + 2 * p <= 4181:
            nontrivial += 1
    elapsed = time.perf_counter() - t0
    assert total == 3_453_511
    assert nontrivial == 538_739
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    # select's one-block periods come from its per-head intervals, not tests
    one_block = sum(1 for h, p in select_periods(table) if h + 2 * p > 4181)
    assert one_block == 2_914_772
    print(
        f"PASS 5: fibonacci(4181) has 3,453,511 periods, 538,739 non-trivial "
        f"({elapsed:.1f} s); select finds the 2,914,772 trivial ones"
    )


def test_criterion_6_spike_counts():
    table = PrefixParikhTable(spike_word(2090))
    total = nontrivial = 0
    for h, p in brute_force_periods(table):
        total += 1
        if h + 2 * p <= 4181:
            nontrivial += 1
    assert total == 2_914_854
    assert nontrivial == 0
    one_block = sum(1 for h, p in select_periods(table) if h + 2 * p > 4181)
    assert one_block == 2_914_854
    print(
        "PASS 6: spike(2090) has 2,914,854 periods, none non-trivial; "
        "select finds them all"
    )


def fibonacci_numbers(count: int) -> list[int]:
    """F_0 .. F_(count - 1) with F_0 = F_1 = 1."""
    fib = [1, 1]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib[:count]


def fibonacci_smallest_period(j: int) -> int:
    """Fici et al., "Abelian powers and repetitions in Sturmian words"
    (TCS 2016): with F_0 = F_1 = 1, the Fibonacci prefix of length F_j,
    j >= 3, has smallest Abelian period F_(j // 2) when j = 0, 1, 2 (mod 4)
    and F_(1 + j // 2) when j = 3 (mod 4)."""
    return fibonacci_numbers(j // 2 + 2)[j // 2 + (j % 4 == 3)]


@pytest.mark.parametrize("algo", ALGOS)
def test_fibonacci_prefix_smallest_periods(algo):
    """The closed form of :func:`fibonacci_smallest_period`, through the
    streamed ``periods --smallest``, the first row of ``_period_rows``: up
    to F_20 = 10946 off-line and F_14 = 610 on-line."""
    top = 14 if algo in ONLINE_ALGOS else 20
    fib = fibonacci_numbers(top + 1)
    for j in range(3, top + 1):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["periods", "--word", fibonacci_word(fib[j]).text, "--algo", algo, "--smallest"])
        h, p = map(int, out.getvalue().split())
        assert code == 0 and p == fibonacci_smallest_period(j), (j, h, p)
    print(f"PASS anchor: {algo} gives Fibonacci prefixes of length F_3..F_{top} their known smallest periods")


def smallest_prefix_periods(rows) -> list[int]:
    """The smallest period p of every prefix w[1..i], i = 1..n, read off
    ``online_array`` rows ``t[p][h]``, the last prefix having (h, p).

    (h, p) is a period of w[1..i] exactly for i in [h + p, t[p][h]]. Going by
    increasing p, each prefix of such an interval not claimed yet takes p.
    """
    n = len(rows) - 1
    smallest = [0] * (n + 1)
    for p, row in enumerate(rows):
        for h, last in enumerate(row):
            for i in range(h + p, last + 1):
                if not smallest[i]:
                    smallest[i] = p
    return smallest[1:]


def test_smallest_prefix_periods_reader():
    """The reader against the prefix sets of ``prefix_lifetimes``, which
    come from the definition, on every binary word up to length 10."""
    alphabet = Alphabet("ab")
    for text in words_over("ab", 10):
        got = smallest_prefix_periods(online_array(PrefixParikhTable(Word(text, alphabet))))
        assert got == [min(p for _, p in live) for _, live in prefix_sets(text)], text
    print("PASS reader: smallest period of every prefix, every binary word up to length 10")


def test_fibonacci_every_prefix_has_a_fibonacci_smallest_period():
    """Fici et al., "Abelian powers and repetitions in Sturmian words"
    (TCS 2016): the smallest Abelian period of every factor of the Fibonacci
    word is a Fibonacci number. They index F_1 = 1, F_2 = 2, the same values
    as F_0 = F_1 = 1 above. Checked on every prefix of the Fibonacci word of
    length 377, from ``online_array``'s lifetime rows. Which heads take the
    smallest period is not part of the theorem and is not checked."""
    fib = set(fibonacci_numbers(15))
    smallest = smallest_prefix_periods(online_array(PrefixParikhTable(fibonacci_word(377))))
    assert len(smallest) == 377
    assert all(p in fib for p in smallest), [(i, p) for i, p in enumerate(smallest, 1) if p not in fib]
    print("PASS anchor: every prefix of the Fibonacci word of length 377 has a Fibonacci smallest period")


def test_criterion_7a_binary_words_agree():
    alphabet = Alphabet("ab")
    checked = 0
    for text in words_over("ab", 14):
        message = cross_check_word(Word(text, alphabet), check_prefixes=False)
        assert message is None, message
        checked += 1
    print(f"PASS 7a: five algorithms match the definition on {checked} binary words")


def test_criterion_7b_ternary_words_agree():
    alphabet = Alphabet("abc")
    checked = 0
    for text in words_over("abc", 9):
        message = cross_check_word(Word(text, alphabet), check_prefixes=False)
        assert message is None, message
        checked += 1
    print(f"PASS 7b: five algorithms match the definition on {checked} ternary words")


def test_criterion_7c_per_prefix_sets_agree():
    alphabet = Alphabet("ab")
    checked = 0
    for text in words_over("ab", 12):
        table = PrefixParikhTable(Word(text, alphabet))
        collected = {name: [] for name in ("online-array", "online-list", "online-heap")}
        online_array(table, lambda i, s: collected["online-array"].append(s))
        online_list(table, lambda i, s: collected["online-list"].append(s))
        online_heap(table, lambda i, s: collected["online-heap"].append(s))
        for i in range(1, len(text) + 1):
            expected = set(oracle_periods(text[:i]))
            for name, sets in collected.items():
                assert sets[i - 1] == expected, (text, i, name)
        checked += 1
    print(f"PASS 7c: per-prefix sets match the definition on {checked} binary words")


def test_criterion_8_pruning_soundness():
    alphabet = Alphabet("ab")
    for text in words_over("ab", 14):
        word = Word(text, alphabet)
        table = PrefixParikhTable(word)
        n = len(text)
        m = compute_m(word, compute_select(word))
        g = compute_g(word)
        if -1 in m:
            first = m.index(-1)
            assert all(x == -1 for x in m[first:]), text
        true_periods = set(brute_force_periods(table))
        for h in range(len(m)):
            if m[h] == -1:
                has_head = any(hp[0] == h for hp in true_periods)
                assert not has_head, (text, h)
                continue
            bound = max(m[h], (g[h] + 1) // 2)
            for p in range(h + 1, min(bound, n - h + 1)):
                assert (h, p) not in true_periods, (text, h, p)
    print("PASS 8: M/G bound excludes no true period; -1 entries form a suffix")


def test_criterion_9_cyclic_family_and_growth():
    counts = {}
    for n in (8, 16, 32, 64):
        table = PrefixParikhTable(cyclic_word(2, n))
        got = set(brute_force_periods(table))
        family = {
            (h, p)
            for p in range(2, n + 1, 2)
            for h in range(min(p - 1, n - p) + 1)
        }
        assert family <= got, n
        counts[n] = len(got)
    for n in (8, 16, 32):
        assert counts[2 * n] >= 3 * counts[n], counts
    print(f"PASS 9: cyclic words carry the quadratic family; counts {counts}")


def test_criterion_10_benchmark_report(tmp_path):
    path = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--algos", "brute,select",
            "--lengths", "100,1000",
            "--sigma", "2,16",
            "--reps", "100",
            "--filter", "nontrivial",
            "--seed", "0",
            "--csv", str(path),
        ]
    )
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    cells = {(r["algo"], r["sigma"], r["length"]): r for r in rows}
    for sigma in ("2", "16"):
        for length in ("100", "1000"):
            brute = cells[("brute", sigma, length)]
            sel = cells[("select", sigma, length)]
            assert brute["total_periods"] == sel["total_periods"]
            ratio = float(sel["mean_ms"]) / float(brute["mean_ms"])
            print(
                f"REPORT 10: sigma={sigma} n={length}: "
                f"select/brute mean time ratio = {ratio:.2f}"
            )
    print("PASS 10: benchmark CSV well-formed; ratios reported above (non-gating)")
