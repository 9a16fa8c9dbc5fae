"""Property tests over arbitrary alphabets and arbitrary sets of valid pairs.

Letters are drawn from all of Unicode except surrogates, so alphabets wider
than 26 letters, non-ASCII letters and alphabets wider than the text all
occur. All five enumerators, the on-line per-prefix sets and the packed
prefix table are checked against recounts of raw slices, and the
non-deducible filter against its pairwise oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from abelianperiods import (
    ALGOS,
    ONLINE_ALGOS,
    Alphabet,
    PrefixParikhTable,
    Word,
    abelian_periods,
    filter_nondeducible,
    parikh,
)
from conftest import pairwise_nondeducible, recount_periods

letters = st.characters(blacklist_categories=("Cs",))


@st.composite
def words_with_alphabets(draw, max_sigma=60):
    """A text over 1..max_sigma distinct letters and an alphabet of up to ten more."""
    sigma = draw(st.integers(1, max_sigma))
    alphabet = draw(st.lists(letters, min_size=sigma, max_size=sigma + 10, unique=True))
    used = alphabet[:sigma]
    extra = draw(st.lists(st.sampled_from(used), max_size=20))
    text = "".join(draw(st.permutations(used + extra)))
    return text, Alphabet(sorted(alphabet))


@st.composite
def valid_pair_lists(draw):
    """A length n and a list of pairs with 0 <= h < p, h + p <= n."""
    n = draw(st.integers(0, 100))
    if n == 0:
        return n, []
    pair = st.integers(1, n).flatmap(
        lambda p: st.tuples(st.integers(0, min(p - 1, n - p)), st.just(p))
    )
    return n, draw(st.lists(pair, max_size=60))


@settings(max_examples=40, deadline=None)
@given(words_with_alphabets())
def test_periods_and_filter_over_arbitrary_alphabets(case):
    text, alphabet = case
    n = len(text)
    word = Word(text, alphabet)
    table = PrefixParikhTable(word)
    for j in range(n + 1):
        assert table.factor(1, j) == parikh(Word(text[:j], alphabet))
    expected = recount_periods(text)
    capped = [(h, p) for h, p in expected if h + 2 * p <= n]
    for algo in ALGOS:
        assert abelian_periods(word, algo) == expected, algo
        assert abelian_periods(word, algo, nontrivial_only=True) == capped, algo
    assert abelian_periods(text, "online-heap") == expected
    assert filter_nondeducible(expected, n) == pairwise_nondeducible(expected, n)


@settings(max_examples=40, deadline=None)
@given(words_with_alphabets(max_sigma=20))
def test_per_prefix_sets_over_arbitrary_alphabets(case):
    text, alphabet = case
    expected = [set(recount_periods(text[:i])) for i in range(1, len(text) + 1)]
    for algo in ONLINE_ALGOS:
        seen = []
        abelian_periods(Word(text, alphabet), algo, sink=lambda i, periods: seen.append(periods))
        assert seen == expected, algo


@settings(max_examples=100, deadline=None)
@given(valid_pair_lists())
def test_filter_on_arbitrary_pair_lists(case):
    n, pairs = case
    assert filter_nondeducible(pairs, n) == pairwise_nondeducible(pairs, n)
