"""Constant-time select over a word, and the two period lower-bound tables.

The select index is a pair of integer arrays: ``S`` lists the positions of
all occurrences, grouped by letter in alphabet order and increasing inside
each group; ``C`` holds, per letter, the 1-based offset of its group in
``S`` (so ``C[i] - 1`` counts the occurrences of letters smaller than the
i-th one). With those two arrays, the position of the i-th occurrence of
any letter is a single lookup.

On top of select, two tables prune the search for periods of a word of
length n, for every head length h up to (n - 1) // 2:

* ``M[h]`` is the least block length p whose first block can strictly
  contain the head w[1..h], or -1 when no block ever can (some letter
  already uses more than half of its total occurrences). A -1 is final:
  every longer head is blocked too.
* ``G[h]`` is the widest gap between two consecutive occurrences of the
  same letter lying entirely to the right of position h. Any block length
  below (G[h] + 1) // 2 would leave a block without that letter.
"""

from __future__ import annotations

from itertools import accumulate

from .words import Word, parikh

__all__ = [
    "SelectIndex",
    "compute_select",
    "select",
    "compute_m",
    "compute_g",
]


class SelectIndex:
    """The (C, S) arrays answering occurrence-rank queries in O(1).

    ``C`` has sigma + 1 entries with C[0] = 1 and C[sigma] = n + 1; the
    group of the i-th letter (1-based) occupies S positions C[i-1] .. C[i]-1
    in the paper-style 1-based numbering. Both arrays are stored as tuples
    and hold 1-based word positions.
    """

    __slots__ = ("alphabet", "C", "S")

    def __init__(self, alphabet, C, S):
        self.alphabet = alphabet
        self.C = tuple(C)
        self.S = tuple(S)

    def __repr__(self) -> str:
        return f"SelectIndex(C={list(self.C)}, S={list(self.S)})"


def compute_select(word: Word) -> SelectIndex:
    """Build the select index in one left-to-right pass, O(n + sigma).

    The empty word gets the trivial index: C all ones, S empty.
    """
    C = list(accumulate(parikh(word), initial=1))
    S = [0] * len(word)
    # the next free S slot (1-based) of each letter's group
    free = C[:-1]
    for i, a in enumerate(word.codes, start=1):
        S[free[a] - 1] = i
        free[a] += 1
    return SelectIndex(word.alphabet, C, S)


def select(idx: SelectIndex, letter: str, i: int) -> int | None:
    """Position of the i-th occurrence of ``letter``; 0 for i = 0.

    Returns None (not 0) when the word has fewer than i occurrences; 0 is
    reserved for the legitimate i = 0 answer.
    """
    if i < 0:
        raise ValueError("occurrence rank must be non-negative")
    if i == 0:
        return 0
    ai = idx.alphabet.ind(letter) - 1
    if i > idx.C[ai + 1] - idx.C[ai]:
        return None
    return idx.S[idx.C[ai] + i - 2]


def compute_m(word: Word, idx: SelectIndex) -> list[int]:
    """Minimal feasible block length per head length, -1 for blocked heads.

    One pass over the head positions: extending the head by one letter only
    tightens that letter's constraint, whose new bound is where its doubled
    occurrence count lands. A block must also be strictly longer than the
    head it contains, hence the h + 1 term. At the first blocked head (-1)
    the pass stops: every longer head stays blocked.
    """
    n = len(word)
    if n == 0:
        return []
    m = [-1] * ((n - 1) // 2 + 1)
    m[0] = 0
    codes = word.codes
    seen = [0] * word.alphabet.size
    C, S = idx.C, idx.S
    for h in range(1, len(m)):
        ai = codes[h - 1]
        seen[ai] += 1
        r = 2 * seen[ai]
        if r > C[ai + 1] - C[ai]:
            break
        m[h] = max(m[h - 1] - 1, S[C[ai] + r - 2] - h, h + 1)
    return m


def compute_g(word: Word) -> list[int]:
    """Maximal same-letter gap strictly beyond each position, right to left.

    ``g[h]`` is the largest j' - j with h < j < j' <= n and w[j] = w[j'];
    0 when no such pair exists. Indexed 0..n with g[n] = 0; the values are
    non-increasing in h.
    """
    n = len(word)
    g = [0] * (n + 1)
    codes = word.codes
    nxt = [0] * word.alphabet.size
    for h in range(n, 0, -1):
        ai = codes[h - 1]
        if nxt[ai]:
            g[h - 1] = max(g[h], nxt[ai] - h)
        else:
            g[h - 1] = g[h]
        nxt[ai] = h
    return g
