"""Abelian periods of words: enumeration, pruning indexes, analysis.

Quick start::

    >>> from abelianperiods import abelian_periods
    >>> abelian_periods("abaababa")[:3]
    [(1, 2), (0, 3), (2, 3)]

Five interchangeable enumerators are available (two off-line, three
on-line); see :func:`abelian_periods`, its lazy form
:func:`iter_abelian_periods`, and the module docs.

Importing the package loads only :mod:`.words`, :mod:`.rank_select` and
:mod:`.offline`, all that listing, counting or finding the smallest period
off-line runs. The on-line enumerators and ``Sink`` (:mod:`.online`), the
filters and ``cutting_positions`` / ``smallest_period`` (:mod:`.analysis`)
and the word generators (:mod:`.generators`) load their module on first
use, as do those three submodule names themselves.
"""

from collections.abc import Iterator

from .offline import _brute_force_rows, _periods_of_rows, _select_rows, brute_force_periods, select_periods
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


# name -> the submodule that defines it, loaded by __getattr__ on first use
_LAZY = {
    **dict.fromkeys(
        ("Sink", "extract_until_ok", "online_array", "online_heap", "online_list", "online"),
        "online",
    ),
    **dict.fromkeys(
        ("cutting_positions", "filter_nondeducible", "filter_nontrivial", "smallest_period", "analysis"),
        "analysis",
    ),
    **dict.fromkeys(
        ("cyclic_word", "fibonacci_word", "random_word", "spike_word", "generators"),
        "generators",
    ),
}


def __getattr__(name: str) -> object:
    """Load the submodule of a lazy name and bind the value here, so that
    later lookups, patches and wrappers see a plain module global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    submodule = _LAZY[name]
    module = import_module(f".{submodule}", __name__)
    value = globals()[name] = module if name == submodule else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


ONLINE_ALGOS = ("online-array", "online-list", "online-heap")
ALGOS = ("brute", "select") + ONLINE_ALGOS


def _checked_table(word, algo: str, sink: "Sink | None") -> PrefixParikhTable:
    """The prefix table of ``word``, once ``algo`` and ``sink`` are checked."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if sink is not None and algo not in ONLINE_ALGOS:
        raise ValueError(f"{algo!r} is not an on-line algorithm and takes no sink")
    if isinstance(word, str):
        word = Word(word)
    elif not isinstance(word, Word):
        raise TypeError(f"word must be a str or Word, not {type(word).__name__}")
    return PrefixParikhTable(word)


def _online_rows(
    table: PrefixParikhTable, algo: str, sink: "Sink | None", nontrivial_only: bool
) -> "Iterator[offline.Row]":
    """Run an on-line algorithm over the whole word now, and return its
    finals as rows ``(p, heads)``, read off rows of lifetimes by p."""
    # looked up on the package at call time, so that patching or wrapping an
    # on-line enumerator there reaches this dispatch, loaded or not
    from . import online_array, online_heap, online_list
    from .online import _lifetime_rows

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
    return (
        (p, heads)
        for p in range(1, n // blocks + 1)
        if (heads := [h for h, j in enumerate(rows[p][: n - blocks * p + 1]) if j == n])
    )


def _period_rows(word, algo: str = "select", *, nontrivial_only: bool = False) -> "Iterator[offline.Row]":
    """The periods of :func:`iter_abelian_periods` as rows ``(p, heads)``:
    one per block length p that has a period, by increasing p, with the
    increasing heads h of its periods (h, p).

    Arguments are checked as there. ``brute`` and ``select`` return their
    row generators, so stopping early stops the enumeration.
    """
    table = _checked_table(word, algo, None)
    # module-global lookups, as in iter_abelian_periods
    if algo == "brute":
        return _brute_force_rows(table, nontrivial_only=nontrivial_only)
    if algo == "select":
        return _select_rows(table, nontrivial_only=nontrivial_only)
    return _online_rows(table, algo, None, nontrivial_only)


def iter_abelian_periods(
    word,
    algo: str = "select",
    *,
    nontrivial_only: bool = False,
    sink: "Sink | None" = None,
) -> "Iterator[Period]":
    """The list of :func:`abelian_periods`, as an iterator in the same order.

    Arguments are checked on the call, not on the first ``next``. ``brute``
    and ``select`` return their lazy iterators, so stopping early stops the
    enumeration. The on-line algorithms run the whole word (and ``sink``)
    first, and their finals go into rows of lifetimes read by p, then h.
    """
    table = _checked_table(word, algo, sink)
    # module-global lookups, so that patching or wrapping an enumerator on
    # this package reaches every call made through here
    if algo == "brute":
        return brute_force_periods(table, nontrivial_only=nontrivial_only)
    if algo == "select":
        return select_periods(table, nontrivial_only=nontrivial_only)
    return _periods_of_rows(_online_rows(table, algo, sink, nontrivial_only))


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
