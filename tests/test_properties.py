"""Property tests over arbitrary alphabets and arbitrary sets of valid pairs.

Letters are drawn from all of Unicode except surrogates, so alphabets wider
than 26 letters, non-ASCII letters and alphabets wider than the text all
occur. Every enumeration is checked against the recount checker and the
non-deducible filter against its pairwise oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from abelianperiods import Alphabet, Word, abelian_periods, filter_nondeducible
from conftest import pairwise_nondeducible, recount_periods

letters = st.characters(blacklist_categories=("Cs",))


@st.composite
def words_with_alphabets(draw):
    """A text over 1..60 distinct letters and an alphabet of up to ten more."""
    sigma = draw(st.integers(1, 60))
    alphabet = draw(st.lists(letters, min_size=sigma, max_size=sigma + 10, unique=True))
    used = alphabet[:sigma]
    extra = draw(st.lists(st.sampled_from(used), max_size=20))
    text = "".join(draw(st.permutations(used + extra)))
    return text, Alphabet(sorted(alphabet))


@st.composite
def valid_pair_lists(draw):
    """A length n and a list of pairs with 0 <= h < p, h + p <= n."""
    n = draw(st.integers(0, 20))
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
    expected = recount_periods(text)
    assert abelian_periods(Word(text, alphabet)) == expected
    assert abelian_periods(text, "online-heap") == expected
    assert filter_nondeducible(expected, n) == pairwise_nondeducible(expected, n)


@settings(max_examples=100, deadline=None)
@given(valid_pair_lists())
def test_filter_on_arbitrary_pair_lists(case):
    n, pairs = case
    assert filter_nondeducible(pairs, n) == pairwise_nondeducible(pairs, n)
