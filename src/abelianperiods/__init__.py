"""Abelian periods of words: enumeration, pruning indexes, analysis.

Quick start::

    >>> from abelianperiods import abelian_periods
    >>> abelian_periods("abaababa")[:3]
    [(1, 2), (0, 3), (2, 3)]

Five interchangeable enumerators are available (two off-line, three
on-line); see :func:`abelian_periods`, its lazy form
:func:`iter_abelian_periods`, and the module docs.
"""

from typing import Iterator

from .analysis import (
    cutting_positions,
    filter_nondeducible,
    filter_nontrivial,
    smallest_period,
)
from .generators import cyclic_word, fibonacci_word, random_word, spike_word
from .offline import brute_force_periods, select_periods
from .online import Sink, _lifetime_rows, extract_until_ok, online_array, online_heap, online_list
from .rank_select import (
    SelectIndex,
    compute_g,
    compute_m,
    compute_select,
    select,
)
from .words import (
    Alphabet,
    ParikhVector,
    Period,
    PrefixParikhTable,
    Word,
    contains_strict,
    contains_weak,
    is_abelian_period,
    parikh,
    period_order_key,
    periods_by_definition,
)

__version__ = "0.1.0"

__all__ = [
    "ALGOS",
    "Alphabet",
    "ONLINE_ALGOS",
    "ParikhVector",
    "Period",
    "PrefixParikhTable",
    "SelectIndex",
    "Word",
    "abelian_periods",
    "brute_force_periods",
    "compute_g",
    "compute_m",
    "compute_select",
    "contains_strict",
    "contains_weak",
    "cutting_positions",
    "cyclic_word",
    "extract_until_ok",
    "fibonacci_word",
    "filter_nondeducible",
    "filter_nontrivial",
    "is_abelian_period",
    "iter_abelian_periods",
    "online_array",
    "online_heap",
    "online_list",
    "parikh",
    "period_order_key",
    "periods_by_definition",
    "random_word",
    "select",
    "select_periods",
    "smallest_period",
    "spike_word",
]


ONLINE_ALGOS = ("online-array", "online-list", "online-heap")
ALGOS = ("brute", "select") + ONLINE_ALGOS


def iter_abelian_periods(
    word,
    algo: str = "select",
    *,
    nontrivial_only: bool = False,
    sink: "Sink | None" = None,
) -> "Iterator[Period]":
    """The list of :func:`abelian_periods`, as an iterator in the same order.

    Arguments are checked on the call, not on the first ``next``. ``brute``
    and ``select`` return their generators, so stopping early stops the
    enumeration. The on-line algorithms run the whole word (and ``sink``)
    first, and their finals go into rows of lifetimes read by p, then h.
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if sink is not None and algo not in ONLINE_ALGOS:
        raise ValueError(f"{algo!r} is not an on-line algorithm and takes no sink")
    if isinstance(word, str):
        word = Word(word)
    elif not isinstance(word, Word):
        raise TypeError(f"word must be a str or Word, not {type(word).__name__}")
    table = PrefixParikhTable(word)
    # module-global lookups, so that patching or wrapping an enumerator on
    # this package reaches every call made through here
    if algo == "brute":
        return brute_force_periods(table, nontrivial_only=nontrivial_only)
    if algo == "select":
        return select_periods(table, nontrivial_only=nontrivial_only)
    n = table.n
    if algo == "online-array":
        rows = online_array(table, sink)
    else:
        final = online_list(table, sink) if algo == "online-list" else online_heap(table, sink)
        rows = _lifetime_rows(n)
        for h, p in final:
            rows[p][h] = n
    # by p, then h: canonical order with no sort, cut at h + blocks·p <= n
    blocks = 2 if nontrivial_only else 1
    return ((h, p) for p in range(1, n // blocks + 1)
            for h, j in enumerate(rows[p][: n - blocks * p + 1]) if j == n)


def abelian_periods(
    word,
    algo: str = "select",
    *,
    nontrivial_only: bool = False,
    sink: "Sink | None" = None,
) -> "list[Period]":
    """All Abelian periods of ``word`` (a str or :class:`Word`), sorted.

    ``algo`` is one of :data:`ALGOS`; all five return the same list. With
    ``nontrivial_only`` only periods with h + 2p <= n are kept, and the
    off-line algorithms enumerate just those. ``sink(i, periods)`` receives
    the period set of every prefix w[1..i]; only the on-line algorithms take
    one. An unknown ``algo`` or a sink for an off-line one raises ValueError,
    a word of another type TypeError.
    :func:`iter_abelian_periods` gives the same periods one at a time.
    """
    return list(
        iter_abelian_periods(word, algo, nontrivial_only=nontrivial_only, sink=sink)
    )
