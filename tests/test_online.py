"""On-line algorithms: per-prefix period sets by array, list and heap buckets."""

import tracemalloc
from array import array
from collections import Counter

import pytest

import abelianperiods.online
from abelianperiods import (
    ALGOS,
    ONLINE_ALGOS,
    Alphabet,
    PrefixParikhTable,
    Word,
    abelian_periods,
    contains_strict,
    contains_weak,
    cyclic_word,
    extract_until_ok,
    fibonacci_word,
    filter_nontrivial,
    is_abelian_period,
    iter_abelian_periods,
    online_array,
    online_heap,
    online_list,
    period_order_key,
    random_word,
    select_periods,
    spike_word,
)
from conftest import (
    field_boundary_words,
    oracle_periods,
    prefix_lifetimes,
    prefix_sets,
    recount_periods,
    rows_as_dict,
    words_over,
)

GOLDEN = "abaababa"
ALPHABET_26 = "abcdefghijklmnopqrstuvwxyz"

EXAMPLE_TABLE = {
    (0, 1): 1, (0, 2): 3, (0, 3): 8, (0, 4): 6,
    (0, 5): 8, (0, 6): 8, (0, 7): 8, (0, 8): 8,
    (1, 2): 8, (1, 3): 6, (1, 4): 8, (1, 5): 8, (1, 6): 8, (1, 7): 8,
    (2, 3): 8, (2, 4): 8, (2, 5): 8, (2, 6): 8,
    (3, 4): 8, (3, 5): 8,
}


def table_of(text, alphabet=None):
    return PrefixParikhTable(Word(text, alphabet))


def collect_prefix_sets(algorithm, table):
    seen = []
    algorithm(table, lambda i, periods: seen.append((i, periods)))
    return seen


class TestOnlineArray:
    def test_golden_final_table(self):
        assert rows_as_dict(online_array(table_of(GOLDEN))) == EXAMPLE_TABLE

    def test_golden_final_periods(self):
        t = rows_as_dict(online_array(table_of(GOLDEN)))
        final = sorted((hp for hp, j in t.items() if j == len(GOLDEN)), key=period_order_key)
        assert final == list(oracle_periods(GOLDEN))

    def test_single_letter(self):
        assert rows_as_dict(online_array(table_of("a"))) == {(0, 1): 1}

    def test_dead_entries_keep_their_last_prefix(self):
        # (0, 1) survives only the one-letter prefix of ab
        assert rows_as_dict(online_array(table_of("ab"))) == {(0, 1): 1, (0, 2): 2}

    def test_failed_head_containment_is_minus_one(self):
        # head a can never sit inside the block bb of abb
        t = online_array(table_of("abb"))
        assert t[2][1] == -1

    @pytest.mark.parametrize(
        "text", ["", "a", GOLDEN, random_word(2, 300, seed=7).text], ids=len
    )
    def test_one_int_row_per_block_length(self, text):
        n = len(text)
        t = online_array(table_of(text))
        assert len(t) == n + 1
        assert all(type(row) is array and row.typecode == "i" for row in t)
        assert [len(row) for row in t] == [min(p, n - p + 1) for p in range(n + 1)]

    def test_table_costs_a_few_bytes_per_pair_beyond_the_list(self):
        # the same packed step as online_list plus 4-byte entries; a dict of
        # (h, p) keys cost about 76 bytes per pair
        text = random_word(2, 300, seed=7).text
        table = table_of(text)
        pairs = len(prefix_lifetimes(text))
        peaks = {}
        tracemalloc.start()
        try:
            for algorithm in (online_list, online_array):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                algorithm(table)
                peaks[algorithm] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peaks[online_array] - peaks[online_list] < 12 * pairs, peaks

    def test_golden_prefix_three(self):
        sets = dict(collect_prefix_sets(online_array, table_of(GOLDEN)))
        assert sets[3] == set(oracle_periods(GOLDEN[:3]))

    @pytest.mark.parametrize("letters,max_len", [("ab", 10), ("abc", 6)])
    def test_whole_table_matches_definition(self, letters, max_len):
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            word = Word(text, alphabet)
            n = len(text)
            prefixes = [PrefixParikhTable(word.prefix(j)) for j in range(n + 1)]
            t = rows_as_dict(online_array(prefixes[n]))
            assert set(t) == {
                (h, p) for p in range(1, n + 1) for h in range(min(p - 1, n - p) + 1)
            }, text
            for (h, p), got in t.items():
                # one full block and no tail: only the head test decides
                if not is_abelian_period(prefixes[h + p], h, p):
                    assert got == -1, (text, h, p)
                    continue
                holders = [
                    j for j in range(h + p, n + 1)
                    if is_abelian_period(prefixes[j], h, p)
                ]
                assert got == max(holders), (text, h, p)


class TestOnlineList:
    def test_golden_final(self):
        got = sorted(online_list(table_of(GOLDEN)), key=period_order_key)
        assert got == list(oracle_periods(GOLDEN))

    def test_two_letter_prefixes(self):
        assert set(online_list(table_of("aa"))) == {(0, 1), (0, 2)}
        assert set(online_list(table_of("ab"))) == {(0, 2)}


class TestOnlineHeap:
    def test_golden_final(self):
        got = sorted(online_heap(table_of(GOLDEN)), key=period_order_key)
        assert got == list(oracle_periods(GOLDEN))

    def test_single_letter(self):
        assert online_heap(table_of("a")) == {(0, 1)}


class TestExtractUntilOk:
    # stacks hold (h, p) by decreasing p, root last; the second argument is
    # the bucket start s, where every member's last full block ends: (1, 2)
    # and (0, 3) both have s = 3 at position 4

    def test_every_member_fails(self):
        stack, fresh = [(1, 2)], []
        extract_until_ok(stack, 3, 5, table_of("abcbab"), fresh)
        assert stack == [] and fresh == []

    def test_failing_root_then_passing_root(self):
        stack, fresh = [(0, 3), (1, 2)], []
        extract_until_ok(stack, 3, 5, table_of("abcbab"), fresh)
        assert stack == [(0, 3)] and fresh == []

    def test_single_passing_root_unchanged(self):
        stack, fresh = [(0, 3)], []
        extract_until_ok(stack, 3, 5, table_of("abcbab"), fresh)
        assert stack == [(0, 3)] and fresh == []

    def test_passing_root_with_completed_block_migrates(self):
        stack, fresh = [(1, 2)], []
        extract_until_ok(stack, 3, 5, table_of("ababa"), fresh)
        assert stack == [] and fresh == [(1, 2)]

    @pytest.mark.parametrize(
        "stack, s, i, text, popped",
        [
            pytest.param([(1, 2)], 3, 5, "abcbab", [(1, 2)], id="every-member-fails"),
            pytest.param([(0, 3), (1, 2)], 3, 5, "abcbab", [(1, 2)], id="failing-then-passing"),
            pytest.param([(0, 3)], 3, 5, "abcbab", [], id="single-passing-root"),
            pytest.param([(1, 2)], 3, 5, "ababa", [], id="completed-block-migrates"),
            # the bucket s = 4 of ababa: (0, 2) and (1, 3) die at 6 on the
            # tail aa, (0, 4) survives
            pytest.param([(0, 4), (1, 3), (0, 2)], 4, 6, "ababaa", [(0, 2), (1, 3)], id="two-pops"),
        ],
    )
    def test_returns_the_popped_entries(self, stack, s, i, text, popped):
        # the popped entries are the bucket's deaths, in pop order
        assert extract_until_ok(stack, s, i, table_of(text), []) == popped

    # (0, 2) has completed two blocks by position 4 of abab..., so its
    # bucket starts at s = 4 > h + p and its tail is w[5..i], not w[3..i]
    @pytest.mark.parametrize(
        "text, i, popped, stack, fresh",
        [
            pytest.param("ababa", 5, [], [(0, 2)], [], id="tail-fits"),
            pytest.param("ababab", 6, [], [], [(0, 2)], id="third-block-migrates"),
            pytest.param("ababbb", 6, [(0, 2)], [], [], id="tail-too-long"),
        ],
    )
    def test_root_with_several_blocks(self, text, i, popped, stack, fresh):
        got, new_stack = [(0, 2)], []
        assert extract_until_ok(got, 4, i, table_of(text), new_stack) == popped
        assert got == stack and new_stack == fresh


@pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
def test_bucket_test_matches_definition(monkeypatch, letters, max_len):
    # every bucket test made by online_heap, against the definition: it pops
    # exactly the members that are no period of w[1..i], by increasing p,
    # and moves the surviving root on exactly when it completes a block at i
    test = abelianperiods.online.extract_until_ok
    calls = []

    def recorder(stack, s, i, table, new_stack):
        # members by increasing p, the pop order
        members, before = stack[::-1], set(new_stack)
        popped = test(stack, s, i, table, new_stack)
        calls.append((members, i, popped, sorted(set(new_stack) - before), stack[::-1]))
        return popped

    monkeypatch.setattr(abelianperiods.online, "extract_until_ok", recorder)
    alphabet = Alphabet(letters)
    tested = 0
    for text in words_over(letters, max_len):
        last = prefix_lifetimes(text)
        calls.clear()
        online_heap(table_of(text, alphabet))
        for members, i, popped, moved, kept in calls:
            alive = [hp for hp in members if last[hp] >= i]
            assert popped == [hp for hp in members if last[hp] == i - 1], (text, i)
            assert popped + alive == members, (text, i)
            completes = alive and (i - alive[0][0]) % alive[0][1] == 0
            expected_move = alive[:1] if completes else []
            assert moved == expected_move and kept == alive[len(moved):], (text, i)
        tested += len(calls)
    assert tested


@pytest.mark.parametrize("algorithm", [online_array, online_list, online_heap])
class TestPerPrefixSets:
    def test_sink_sees_every_prefix_once(self, algorithm):
        seen = collect_prefix_sets(algorithm, table_of(GOLDEN))
        assert [i for i, _ in seen] == list(range(1, 9))
        assert seen[0][1] == {(0, 1)}

    def test_sink_not_called_for_empty_word(self, algorithm):
        assert collect_prefix_sets(algorithm, table_of("")) == []

    def test_sink_receives_fresh_sets(self, algorithm):
        table = table_of(GOLDEN)
        first = []
        algorithm(table, lambda i, s: (first.append(set(s)), s.clear()))
        second = collect_prefix_sets(algorithm, table_of(GOLDEN))
        assert first == [s for _, s in second]

    @pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
    def test_matches_definition_on_every_prefix(self, algorithm, letters, max_len):
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            table = table_of(text, alphabet)
            for i, got in collect_prefix_sets(algorithm, table):
                assert got == set(oracle_periods(text[:i])), (text, i)


class TestPrefixOracle:
    # the oracle of the events and of the tests at scale, against the definition
    @pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
    def test_matches_definition_on_every_prefix(self, letters, max_len):
        for text in words_over(letters, max_len):
            expected = [(i, set(oracle_periods(text[:i]))) for i in range(1, len(text) + 1)]
            assert list(prefix_sets(text)) == expected, text
            for (h, p), last in prefix_lifetimes(text).items():
                if last == -1:
                    assert (h, p) not in oracle_periods(text[: h + p]), (text, h, p)


def resumed_seed_counts(table):
    """The seed count of every position, as the driver finds it."""
    counts = []

    def step(table, i, state, seeds):
        counts.append(len(seeds))
        return []

    for _ in abelianperiods.online._sweep(table, step, None):
        pass
    return counts


@pytest.mark.parametrize("letters,max_len", [("ab", 10), ("abc", 6)])
def test_resumed_seed_scan_matches_definition(letters, max_len):
    # the driver resumes the head scan at the previous count; from scratch,
    # each count is the number of heads h with 2h < i that fit
    alphabet = Alphabet(letters)
    for text in words_over(letters, max_len):
        table = table_of(text, alphabet)
        fitting = [
            sum(
                contains_strict(table.factor(1, h), table.factor(h + 1, i - h))
                for h in range((i - 1) // 2 + 1)
            )
            for i in range(1, len(text) + 1)
        ]
        assert resumed_seed_counts(table) == fitting, text


@pytest.fixture
def record_events(monkeypatch):
    """Run an on-line algorithm with a sink and return the born/died events
    of its survival step, as ``(i, seeds, dead)`` triples."""
    events = []
    for name in ("_packed_step", "_bucket_step"):
        # bound once: reading the attribute after patching would recurse
        def recorder(table, i, state, seeds, step=getattr(abelianperiods.online, name)):
            born = list(seeds)
            dead = step(table, i, state, seeds)
            events.append((i, born, list(dead)))
            return dead

        monkeypatch.setattr(abelianperiods.online, name, recorder)

    def run(algorithm, table):
        events.clear()
        algorithm(table, lambda i, periods: None)
        return list(events)

    return run


@pytest.mark.parametrize("algorithm", [online_array, online_list, online_heap])
class TestEvents:
    @pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
    def test_events_fold_into_every_prefix_set(
        self, algorithm, record_events, letters, max_len
    ):
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            last = prefix_lifetimes(text)
            expected = [periods for _, periods in prefix_sets(text)]
            events = record_events(algorithm, table_of(text, alphabet))
            assert [i for i, _, _ in events] == list(range(1, len(text) + 1)), text
            running = set()
            for i, born, died in events:
                # every birth is a seed; every death is of a live pair, at the
                # first prefix that lacks it
                assert all(h + p == i for h, p in born), (text, i, born)
                assert all(last[hp] == i - 1 for hp in died), (text, i, died)
                assert running.issuperset(died), (text, i, died)
                running.difference_update(died)
                running.update(born)
                assert running == expected[i - 1], (text, i)
            deaths = Counter(hp for _, _, died in events for hp in died)
            assert all(count == 1 for count in deaths.values()), text


@pytest.fixture
def packed_slots(monkeypatch):
    """Run a packed-step algorithm and decode its slots after every position
    i, against the definition and against a plain list kept the way the
    list algorithm is written: the survivors in their order, then the seeds.

    For every live slot of (h, p), with mid = i − (i − h) mod p: ``periods``
    holds p, ``blocks`` (mid − h) / p − 1 and ``countdown`` g − 1 + mid +
    p − i. For the slots tested at i, the ints of the letter c = w[i] hold
    B_c and g + cnt_c(mid') + B_c, mid' being mid at i − 1. The
    dead of each position must come in list order. Returns the number of
    slots checked and of compactions that kept some slot.
    """
    step = abelianperiods.online._packed_step
    run_state = {}

    def checker(table, i, slots, seeds):
        dead = step(table, i, slots, seeds)
        text, last = table.word.text, run_state["last"]
        P, tw = table.packed, table.width

        def cnt(c, j):
            return (P[j] >> (tw * c)) & ((1 << tw) - 1)

        width = slots.width
        g, mask = 1 << (width - 1), (1 << width) - 1

        def field(v, j):
            return (v >> (width * j)) & mask

        expected = run_state["expected"]
        assert dead == [hp for hp in expected if last[hp] == i - 1], (text, i)
        tested = [hp for hp in expected if last[hp] >= i]
        run_state["expected"] = expected = tested + seeds
        live = slots.live
        kept = [j for j in range(len(live)) if field(slots.alive, j)]
        assert [live[j] for j in kept] == expected, (text, i)
        if len(live) < run_state["slots_before"] + len(seeds) and tested:
            run_state["compactions"] += 1
        run_state["slots_before"] = len(live)
        c = table.word.alphabet.ind(text[i - 1]) - 1
        limit, block = slots.limit[c], slots.block.get(c, 0)
        for j in kept:
            h, p = live[j]
            mid = i - (i - h) % p
            assert field(slots.periods, j) == p, (text, i, h, p)
            assert field(slots.blocks, j) == (mid - h) // p - 1, (text, i, h, p)
            assert field(slots.countdown, j) == g - 1 + mid + p - i, (text, i, h, p)
            if h + p < i:
                before = i - 1 - (i - 1 - h) % p
                b = cnt(c, h + p) - cnt(c, h)
                assert field(block, j) == b, (text, i, h, p)
                assert field(limit, j) == g + cnt(c, before) + b, (text, i, h, p)
        run_state["slots"] += len(kept)
        return dead

    monkeypatch.setattr(abelianperiods.online, "_packed_step", checker)

    def run(algorithm, table):
        run_state.update(
            last=prefix_lifetimes(table.word.text), expected=[], slots_before=0,
            slots=0, compactions=0,
        )
        algorithm(table)
        return run_state["slots"], run_state["compactions"]

    return run


@pytest.mark.parametrize("algorithm", [online_array, online_list])
@pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
def test_packed_slots_follow_the_definition(algorithm, packed_slots, letters, max_len):
    # a wrong field can leave a survival outcome right by chance, so the
    # fields themselves are checked after every position; some compaction
    # must keep live slots, or the bytes slicing goes untested
    alphabet = Alphabet(letters)
    compactions = 0
    for text in words_over(letters, max_len):
        checked, compacted = packed_slots(algorithm, table_of(text, alphabet))
        assert checked, text
        compactions += compacted
    assert compactions


@pytest.fixture
def bucket_starts(monkeypatch):
    """Run online_heap and return what is wrong with its buckets after
    every position i, and the number of members checked: ``(i, s, h, p)``
    for a member (h, p) of the bucket with start s where
    ``s != i − (i − h) mod p``, and ``(i, s, stack)`` for a stack that is
    not strictly decreasing in p or holds a member it lacked at s."""
    step = abelianperiods.online._bucket_step
    wrong, formed = [], {}
    checked = [0]

    def checker(table, i, buckets, seeds):
        dead = step(table, i, buckets, seeds)
        for s, stack in buckets:
            for h, p in stack:
                if s != i - (i - h) % p:
                    wrong.append((i, s, h, p))
            ps = [p for _, p in stack]
            first = formed.setdefault(s, set(stack))
            if ps != sorted(set(ps), reverse=True) or not first.issuperset(stack):
                wrong.append((i, s, list(stack)))
            checked[0] += len(stack)
        return dead

    monkeypatch.setattr(abelianperiods.online, "_bucket_step", checker)

    def run(table):
        wrong.clear()
        formed.clear()
        checked[0] = 0
        online_heap(table)
        return list(wrong), checked[0]

    return run


@pytest.mark.parametrize("letters,max_len", [("ab", 9), ("abc", 6)])
def test_buckets_start_at_the_last_full_block(bucket_starts, letters, max_len):
    # a wrong start or order can leave the survival outcome right by
    # chance, so the buckets themselves are checked after every position
    alphabet = Alphabet(letters)
    for text in words_over(letters, max_len):
        wrong, checked = bucket_starts(table_of(text, alphabet))
        assert wrong == [], (text, wrong[:5])
        assert checked, text


# many live periods die at one position: at the b of a^k b a^k, and at the
# first few b of a^3k b^k
MASS_DEATH_WORDS = [
    pytest.param(text, id=name)
    for k in (1, 7, 20, 40)
    for name, text in [
        (f"spike-{k}", spike_word(k).text),
        (f"a{3 * k}-b{k}", "a" * (3 * k) + "b" * k),
    ]
]


@pytest.mark.parametrize("algorithm", [online_array, online_list, online_heap])
@pytest.mark.parametrize("text", MASS_DEATH_WORDS)
def test_mass_deaths(algorithm, text):
    assert collect_prefix_sets(algorithm, table_of(text)) == list(prefix_sets(text))


@pytest.mark.parametrize("algorithm", [online_array, online_list])
@pytest.mark.parametrize("text", MASS_DEATH_WORDS)
def test_packed_slots_through_mass_deaths(algorithm, packed_slots, text):
    checked, _ = packed_slots(algorithm, table_of(text))
    assert checked, text


@pytest.mark.parametrize(
    "text",
    [
        *MASS_DEATH_WORDS,
        # many roots complete a block at one position and join the seeds in
        # one new bucket, whose order the fixture checks after every step
        pytest.param(cyclic_word(3, 90).text, id="cyclic-3-90"),
        pytest.param(cyclic_word(4, 96).text, id="cyclic-4-96"),
        pytest.param(fibonacci_word(144).text, id="fibonacci-144"),
    ],
)
def test_buckets_through_mass_deaths(bucket_starts, text):
    wrong, checked = bucket_starts(table_of(text))
    assert wrong == [], (text, wrong[:5])
    assert checked, text


@pytest.mark.parametrize(
    "step, new_state",
    [
        pytest.param(abelianperiods.online._packed_step, abelianperiods.online._Slots, id="packed"),
        pytest.param(abelianperiods.online._bucket_step, lambda table: [], id="bucket"),
    ],
)
def test_driver_yields_each_position_and_its_dead(step, new_state):
    # callers read only the position and the dead, so that is all it yields
    mass_death = MASS_DEATH_WORDS[-1].values[0]
    yields = 0
    for text in [*words_over("ab", 8), mass_death]:
        table = table_of(text)
        events = list(abelianperiods.online._sweep(table, step, new_state(table)))
        assert all(len(event) == 2 for event in events), text
        assert [i for i, _ in events] == list(range(1, len(text) + 1)), text
        yields += len(events)
    assert yields == sum(2**n * n for n in range(1, 9)) + len(mass_death)


@pytest.mark.parametrize("k", [7, 20, 40])
def test_mass_deaths_compact_the_slots(monkeypatch, k):
    # every live period of a^3k dies at the first b: the tombstones then
    # outnumber the live slots, which are dropped before the next seeds
    compact = abelianperiods.online._Slots._compact
    sizes = []

    def recorder(slots):
        sizes.append((len(slots.live), slots.tombstones))
        compact(slots)

    monkeypatch.setattr(abelianperiods.online._Slots, "_compact", recorder)
    text = "a" * (3 * k) + "b" * k
    assert collect_prefix_sets(online_list, table_of(text)) == list(prefix_sets(text))
    live = sum(1 for p in range(1, 3 * k + 1) for h in range(min(p - 1, 3 * k - p) + 1))
    assert (live, live) in sizes


# n = 300, beyond any exhaustive corpus: the per-prefix sets of a binary
# word hold over a million members
SCALE_WORDS = [
    pytest.param(random_word(2, 300, seed=7).text, id="random-2-300"),
    pytest.param(random_word(16, 300, seed=7).text, id="random-16-300"),
    pytest.param(fibonacci_word(300).text, id="fibonacci-300"),
    # every period with 3 | p lives to the end and completes a block every p
    # letters, moving its key on each time
    pytest.param(cyclic_word(3, 300).text, id="cyclic-3-300"),
]


@pytest.mark.parametrize("text", SCALE_WORDS)
class TestAtScale:
    @pytest.mark.parametrize("algorithm", [online_array, online_list, online_heap])
    def test_every_sink_set(self, algorithm, text):
        expected = prefix_sets(text)

        def check(i, got):
            j, want = next(expected)
            assert i == j and got == want, (i, sorted(got ^ want)[:10])

        algorithm(table_of(text), check)
        assert next(expected, None) is None

    def test_resumed_seed_scan(self, text):
        table = table_of(text)
        scratch = [
            abelianperiods.online._fitting_heads(table, i, 0) for i in range(1, len(text) + 1)
        ]
        assert resumed_seed_counts(table) == scratch

    def test_whole_array_table(self, text):
        assert rows_as_dict(online_array(table_of(text))) == prefix_lifetimes(text)


# the packed step's slot fields are W = 8·ceil((bitlen(n) + 2) / 8) bits
# wide, so n = 63 and 64 sit on both sides of a byte boundary, and 127 and
# 128 on both sides of a change of the prefix table's field width. A unary
# word fills a field the most; σ = 26 has the most per-letter ints, and an
# alphabet wider than the word has letters that never occur
PACKED_LAYOUT_WORDS = [
    *(
        pytest.param(random_word(26, 150, seed=s).text, ALPHABET_26, id=f"random-26-150-{s}")
        for s in (1, 2)
    ),
    pytest.param(
        random_word(2, 120, seed=3).text.translate(str.maketrans("ab", "bd")),
        "abcde",
        id="bd-120-abcde",
    ),
    pytest.param("b" * 70, "ab", id="b70-ab"),
    *(pytest.param("a" * n, "a", id=f"a{n}") for n in (63, 64, 127, 128)),
    *(
        pytest.param(random_word(2, n, seed=n).text, "ab", id=f"random-2-{n}")
        for n in (63, 64, 127, 128)
    ),
]


@pytest.mark.parametrize("algorithm", [online_array, online_list])
@pytest.mark.parametrize("text, letters", PACKED_LAYOUT_WORDS)
def test_packed_layout_edges(algorithm, text, letters):
    got = collect_prefix_sets(algorithm, table_of(text, Alphabet(letters)))
    assert got == list(prefix_sets(text))


class TestDispatch:
    @pytest.mark.parametrize("algo", ONLINE_ALGOS)
    @pytest.mark.parametrize("letters,max_len", [("ab", 8), ("abc", 5)])
    def test_sink_sets_match_definition(self, algo, letters, max_len):
        alphabet = Alphabet(letters)
        for text in words_over(letters, max_len):
            seen = []
            got = abelian_periods(
                Word(text, alphabet), algo, sink=lambda i, s: seen.append((i, s))
            )
            assert got == list(oracle_periods(text)), text
            assert seen == [
                (i, set(oracle_periods(text[:i]))) for i in range(1, len(text) + 1)
            ], text

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty"),
            pytest.param("a", id="a"),
            pytest.param(random_word(2, 300, seed=7).text, id="random-2-300"),
            pytest.param(fibonacci_word(300).text, id="fibonacci-300"),
            pytest.param(cyclic_word(3, 300).text, id="cyclic-3-300"),
        ],
    )
    @pytest.mark.parametrize("nontrivial_only", [False, True])
    def test_array_finals_skip_the_sort(self, monkeypatch, text, nontrivial_only):
        # every on-line algorithm's finals are read off array rows by p and
        # then h, the canonical order
        expected = list(iter_abelian_periods(text, "select", nontrivial_only=nontrivial_only))
        calls = Counter()

        def counting_key(period):
            calls["period_order_key"] += 1
            return period_order_key(period)

        def counting_sorted(*args, **kwargs):
            calls["sorted"] += 1
            return sorted(*args, **kwargs)

        monkeypatch.setattr(abelianperiods, "period_order_key", counting_key)
        monkeypatch.setattr(abelianperiods, "sorted", counting_sorted, raising=False)
        for algo in ONLINE_ALGOS:
            got = list(iter_abelian_periods(text, algo, nontrivial_only=nontrivial_only))
            assert got == expected, algo
            assert not calls, (algo, calls)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(random_word(2, 600, seed=7).text, id="random-2-600"),
            pytest.param(fibonacci_word(600).text, id="fibonacci-600"),
        ],
    )
    @pytest.mark.parametrize("algo", ["online-list", "online-heap"])
    def test_finals_cost_the_rows_beyond_the_call(self, text, algo):
        # the dispatch writes the finals into lifetime rows, 4 bytes an entry
        # (90,300 entries at n = 600), and holds no sorted copy of them
        word = Word(text)
        n = len(text)
        entries = sum(min(p, n - p + 1) for p in range(n + 1))
        enumerator = getattr(abelianperiods, algo.replace("-", "_"))
        peaks = []
        tracemalloc.start()
        try:
            for run in (
                lambda: enumerator(PrefixParikhTable(word)),
                lambda: sum(1 for _ in iter_abelian_periods(word, algo)),
            ):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 12 * entries, (peaks, entries)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_nontrivial_only(self, algo):
        for text in words_over("ab", 8):
            expected = filter_nontrivial(list(oracle_periods(text)), len(text))
            assert abelian_periods(text, algo, nontrivial_only=True) == expected, text

    @pytest.fixture
    def no_table(self, monkeypatch):
        # bad arguments must be rejected before any work starts
        def refuse(word):
            raise AssertionError("prefix table built")

        monkeypatch.setattr("abelianperiods.PrefixParikhTable", refuse)

    def test_unknown_algorithm(self, no_table):
        with pytest.raises(ValueError, match="unknown algorithm"):
            abelian_periods(GOLDEN, "quick")

    @pytest.mark.parametrize("algo", ["brute", "select"])
    def test_sink_needs_an_online_algorithm(self, algo, no_table):
        with pytest.raises(ValueError, match="on-line"):
            abelian_periods(GOLDEN, algo, sink=lambda i, s: None)

    # the lazy form must fail when called, not when first advanced
    def test_lazy_form_rejects_an_unknown_algorithm_on_call(self, no_table):
        with pytest.raises(ValueError, match="unknown algorithm"):
            iter_abelian_periods(GOLDEN, "quick")

    @pytest.mark.parametrize("algo", ["brute", "select"])
    def test_lazy_form_rejects_a_sink_on_call(self, algo, no_table):
        with pytest.raises(ValueError, match="on-line"):
            iter_abelian_periods(GOLDEN, algo, sink=lambda i, s: None)

    @pytest.mark.parametrize("word", [b"abba", None, list("abba")])
    def test_foreign_word_type(self, word, no_table):
        with pytest.raises(TypeError, match="str or Word"):
            iter_abelian_periods(word)


@pytest.mark.parametrize("text, letters", field_boundary_words())
def test_packed_field_boundaries(text, letters):
    """Counts that fill a packed field, against the recount checker."""
    expected = recount_periods(text)
    word = Word(text, Alphabet(letters))
    for algo in ONLINE_ALGOS:
        assert abelian_periods(word, algo) == expected, algo


class TestPrefixProperties:
    def test_lost_periods_never_return(self):
        # a pair absent from some prefix's set stays absent ever after
        for text in words_over("ab", 10):
            sets = [set(oracle_periods(text[:i])) for i in range(1, len(text) + 1)]
            for i in range(1, len(sets)):
                for h, p in sets[i]:
                    if h + p <= i:
                        assert (h, p) in sets[i - 1], (text, i + 1, (h, p))

    def test_shared_tail_groups_survive_together(self):
        # whenever the smallest of a common-tail group survives, all do
        for text in words_over("ab", 10):
            n = len(text)
            sets = [set(oracle_periods(text[:i])) for i in range(1, n + 1)]
            for i in range(1, n):
                groups = {}
                for h, p in sets[i - 1]:
                    t = (i - h) % p
                    if t:
                        groups.setdefault(t, []).append((h, p))
                for members in groups.values():
                    if min(members, key=period_order_key) in sets[i]:
                        assert all(hp in sets[i] for hp in members), (text, i)

    def test_head_containment_fails_monotonically(self):
        # for fixed prefix length, growing the head can only lose containment
        for text in words_over("ab", 10):
            table = table_of(text)
            for i in range(1, len(text) + 1):
                flags = [
                    contains_weak(table.factor(1, h), table.factor(h + 1, i - h))
                    for h in range((i - 1) // 2 + 1)
                ]
                assert flags == sorted(flags, reverse=True), (text, i)


class TestFinalStateAgreement:
    def test_seeded_random_words(self):
        sigmas = (2, 4, 8)
        for j in range(1000):
            sigma = sigmas[j % 3]
            length = (j % 150) + 1
            table = PrefixParikhTable(random_word(sigma, length, seed=20000 + j))
            expected = list(select_periods(table))
            t = rows_as_dict(online_array(table))
            final = sorted((hp for hp, j in t.items() if j == length), key=period_order_key)
            assert final == expected
            assert sorted(online_list(table), key=period_order_key) == expected
            assert sorted(online_heap(table), key=period_order_key) == expected
