"""Period-set post-processing: classification, cutting sets, minima."""

import random
import tracemalloc

import pytest

from abelianperiods import (
    PrefixParikhTable,
    Word,
    abelian_periods,
    brute_force_periods,
    cutting_positions,
    fibonacci_word,
    filter_nondeducible,
    filter_nontrivial,
    period_order_key,
    random_word,
    smallest_period,
)
from conftest import oracle_periods, pairwise_nondeducible, words_over

GOLDEN = "abaababa"
GOLDEN_PERIODS = list(oracle_periods(GOLDEN))


class TestFilterNontrivial:
    def test_golden_word(self):
        assert filter_nontrivial(GOLDEN_PERIODS, 8) == [(1, 2), (0, 3), (2, 3)]

    def test_empty(self):
        assert filter_nontrivial([], 8) == []

    def test_whole_length_period_is_always_trivial(self):
        for n in (1, 2, 5, 9):
            assert filter_nontrivial([(0, n)], n) == []

    def test_idempotent(self):
        once = filter_nontrivial(GOLDEN_PERIODS, 8)
        assert filter_nontrivial(once, 8) == once


class TestCuttingPositions:
    def test_examples(self):
        assert cutting_positions(1, 2, 8) == {1, 3, 5, 7}
        assert cutting_positions(0, 8, 8) == {8}
        assert cutting_positions(3, 4, 8) == {3, 7}

    def test_zero_head_starts_at_p(self):
        assert cutting_positions(0, 3, 10) == {3, 6, 9}

    def test_every_valid_period_cuts_at_least_once(self):
        for text in words_over("ab", 8):
            for h, p in oracle_periods(text):
                cuts = cutting_positions(h, p, len(text))
                assert cuts and all(1 <= k <= len(text) for k in cuts)


class TestFilterNondeducible:
    def test_golden_word(self):
        kept = filter_nondeducible(GOLDEN_PERIODS, 8)
        assert kept == [(1, 2), (0, 3), (2, 3), (2, 4), (1, 5), (2, 5), (3, 5), (1, 7)]

    def test_consequences_of_the_smallest_period_are_dropped(self):
        # (1,4), (1,6) and (3,4) only restate cuts that (1,2) already makes
        kept = set(filter_nondeducible(GOLDEN_PERIODS, 8))
        fine = cutting_positions(1, 2, 8)
        for hp in [(1, 4), (1, 6), (3, 4)]:
            assert cutting_positions(*hp, 8) < fine
            assert hp not in kept

    def test_singleton_unchanged(self):
        assert filter_nondeducible([(0, 5)], 5) == [(0, 5)]

    def test_idempotent_and_never_empty(self):
        for text in words_over("ab", 9):
            periods = list(oracle_periods(text))
            kept = filter_nondeducible(periods, len(text))
            assert kept, text
            assert filter_nondeducible(kept, len(text)) == kept

    def test_single_cut_period_refined_by_a_non_divisor(self):
        # (0, 5) cuts only at 5, and (1, 2) cuts at 1, 3, 5, 7: 2 does not divide 5
        alone = [(0, 5), (0, 2), (1, 3)]
        assert filter_nondeducible(alone, 8) == alone
        refined = alone + [(1, 2)]
        assert filter_nondeducible(refined, 8) == [(0, 2), (1, 3), (1, 2)]
        for periods in (alone, refined):
            assert filter_nondeducible(periods, 8) == pairwise_nondeducible(periods, 8)

    def test_single_cut_period_refined_only_just_below(self):
        # (0, 5) cuts only at 5; of the shorter block lengths only (1, 4),
        # cutting at 1, 5 and 9, refines it
        periods = [(0, 5), (0, 3), (1, 4)]
        assert filter_nondeducible(periods, 9) == [(0, 3), (1, 4)] == pairwise_nondeducible(periods, 9)
        # no block length refines itself: the tile of (0, 4) covers 4, and
        # it is laid while (0, 5) is still to be settled
        periods = [(0, 4), (0, 5)]
        assert filter_nondeducible(periods, 7) == periods == pairwise_nondeducible(periods, 7)

    def test_single_cuts_all_refined_before_the_last_block_length(self):
        # (1, 2) refines both single-cut periods, (0, 5) and (0, 7), so
        # block lengths 5 and 7 refine none that is left
        periods = [(0, 7), (1, 7), (0, 5), (1, 2)]
        assert filter_nondeducible(periods, 9) == [(1, 7), (1, 2)] == pairwise_nondeducible(periods, 9)

    @pytest.mark.parametrize(
        "periods,n,kept",
        [
            ([(0, 9), (0, 1), (0, 13)], 16, [(0, 1)]),
            ([(0, 19), (0, 12), (1, 2), (0, 11)], 21, [(0, 12), (1, 2)]),
        ],
        ids=["q=1", "q=2"],
    )
    def test_short_block_length_tiled_by_several_doublings(self, periods, n, kept):
        # the mask of q = 1 or 2 is doubled four or five times to reach the
        # last block length
        assert filter_nondeducible(periods, n) == kept == pairwise_nondeducible(periods, n)

    def test_divisor_tiled_four_times_refines_a_late_head(self):
        # (37, 44) cuts at 37 and 81, both 4 mod 11: only (4, 11), whose
        # head mask is tiled four times over 44 bits, refines it
        periods = [(37, 44), (4, 11), (0, 44), (3, 11), (5, 22)]
        kept = [(4, 11), (0, 44), (3, 11), (5, 22)]
        assert filter_nondeducible(periods, 81) == kept == pairwise_nondeducible(periods, 81)
        assert filter_nondeducible(periods[:1] + periods[2:], 81) == periods[:1] + periods[2:]

    def test_matches_pairwise_subset_table(self):
        n = 8
        cuts = {hp: cutting_positions(*hp, n) for hp in GOLDEN_PERIODS}
        expected = [
            hp
            for hp in GOLDEN_PERIODS
            if not any(cuts[hp] < cuts[other] for other in GOLDEN_PERIODS if other != hp)
        ]
        assert filter_nondeducible(GOLDEN_PERIODS, n) == expected


class TestNondeducibleAgainstPairwise:
    """The head-bitmask filter against the pairwise O(s^2) oracle."""

    def test_complete_period_sets(self):
        for letters, max_len in (("ab", 11), ("abc", 7)):
            for text in words_over(letters, max_len):
                periods = list(oracle_periods(text))
                n = len(text)
                assert filter_nondeducible(periods, n) == pairwise_nondeducible(periods, n), text

    def test_per_prefix_sets(self):
        for text in words_over("ab", 9):
            checked = []

            def sink(i, periods):
                ordered = sorted(periods, key=period_order_key)
                assert filter_nondeducible(ordered, i) == pairwise_nondeducible(ordered, i)
                checked.append(i)

            abelian_periods(text, "online-heap", sink=sink)
            assert checked == list(range(1, len(text) + 1)), text

    def test_random_subsets_with_duplicates_keep_order(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(1, 16)
            pairs = [(h, p) for p in range(1, n + 1) for h in range(min(p - 1, n - p) + 1)]
            chosen = rng.choices(pairs, k=rng.randint(0, 2 * len(pairs)))
            rng.shuffle(chosen)
            kept = filter_nondeducible(chosen, n)
            assert kept == pairwise_nondeducible(chosen, n), (n, chosen)
            rest = iter(chosen)
            assert all(hp in rest for hp in kept)  # a subsequence of the input

    def test_random_subsets_of_wide_masks(self):
        # n >= 65: head masks and their tiles span several 30-bit int digits
        rng = random.Random(11)
        wide_drops = 0
        for _ in range(300):
            n = rng.randint(65, 200)
            chosen = []
            for _ in range(rng.randint(1, 130)):
                # short block lengths refine many pairs, long ones give wide masks
                p = rng.randint(1, rng.choice((12, n)))
                chosen.append((rng.randint(0, min(p - 1, n - p)), p))
            chosen += rng.choices(chosen, k=rng.randint(0, 20))
            rng.shuffle(chosen)
            kept = filter_nondeducible(chosen, n)
            assert kept == pairwise_nondeducible(chosen, n), (n, chosen)
            rest = iter(chosen)
            assert all(hp in rest for hp in kept)  # a subsequence of the input
            wide_drops += sum(h >= 30 for h, _ in set(chosen) - set(kept))
        assert wide_drops  # some dropped head lies past the first int digit

    @pytest.mark.parametrize("order", ["increasing-p", "decreasing-p", "largest-p-first"])
    @pytest.mark.parametrize(
        "text",
        [fibonacci_word(55).text, random_word(2, 40, seed=5).text, "ab" * 20],
        ids=["fibonacci-55", "random-2-40", "ab20"],
    )
    def test_head_masks_grow_with_the_block_lengths_given(self, order, text):
        # the masks are sized by the block lengths seen so far, not by n
        periods = list(oracle_periods(text))
        if order == "decreasing-p":
            periods.reverse()
        elif order == "largest-p-first":
            periods = periods[-1:] + periods[:-1]
        n = len(text)
        assert filter_nondeducible(periods, n) == pairwise_nondeducible(periods, n)

    def test_memory_follows_the_input_not_n(self):
        tracemalloc.start()
        try:
            kept = filter_nondeducible([(0, 1), (3, 5)], 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept == [(0, 1)]
        assert peak < 2**20, peak

    @pytest.mark.parametrize("bad", [(-1, 2), (2, 2), (3, 1), (1, 8), (0, 9), (0, 0)])
    def test_pairs_outside_the_domain_are_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"\({bad[0]}, {bad[1]}\)"):
            filter_nondeducible([(0, 1), bad], 8)


class TestSmallestPeriod:
    def test_golden_word(self):
        assert smallest_period(GOLDEN_PERIODS) == (1, 2)

    def test_singleton_and_empty(self):
        assert smallest_period([(0, 7)]) == (0, 7)
        assert smallest_period([]) is None

    def test_single_letter_run(self):
        table = PrefixParikhTable(Word("aaaaa"))
        assert smallest_period(brute_force_periods(table)) == (0, 1)

    def test_is_a_lower_bound(self):
        for text in words_over("ab", 8):
            periods = oracle_periods(text)
            least = smallest_period(periods)
            assert all(
                period_order_key(least) <= period_order_key(hp) for hp in periods
            )
