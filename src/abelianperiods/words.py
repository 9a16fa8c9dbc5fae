"""Words over ordered alphabets, letter-count vectors, and the period oracle.

An Abelian period of a word w of length n is a pair (h, p): w factors as
u0 u1 ... u(k-1) uk where the middle blocks u1..u(k-1) all share one
letter-count (Parikh) vector of norm p, the head u0 has length h and its
vector is strictly contained in the block vector, and the tail uk (length
t = (n - h) mod p) is weakly contained in it.

Conventions used across the whole package:

* positions inside words are 1-based, like in the combinatorics literature;
* periods are plain ``(h, p)`` integer tuples;
* the canonical order on periods is by ``p`` first, then ``h``
  (see :func:`period_order_key`);
* Parikh vectors are plain tuples of per-letter counts, indexed by the
  alphabet order. :class:`PrefixParikhTable` stores them packed, one int
  per prefix, and hands out tuple views through ``factor``.

``is_abelian_period`` is written directly against the definition and acts
as the correctness oracle for every enumeration algorithm in this package.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate


Period = tuple[int, int]
ParikhVector = tuple[int, ...]


def period_order_key(period: Period) -> tuple[int, int]:
    """Sort key realising the canonical period order: by p, ties by h."""
    h, p = period
    return (p, h)


class Alphabet:
    """An ordered alphabet a_1 < a_2 < ... < a_sigma of single characters.

    ``ind(a)`` returns the 1-based rank of a letter, so ``ind(a_i) == i``.
    """

    __slots__ = ("letters", "_pos")

    def __init__(self, letters):
        letters = "".join(letters)
        if any(a >= b for a, b in zip(letters, letters[1:])):
            raise ValueError("alphabet letters must be strictly increasing")
        self.letters = letters
        self._pos = {a: i for i, a in enumerate(letters)}

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet of the distinct symbols of ``text``, sorted by code point."""
        return cls(sorted(set(text)))

    @property
    def size(self) -> int:
        return len(self.letters)

    def ind(self, letter: str) -> int:
        """1-based index of ``letter``; raises ValueError for foreign symbols."""
        try:
            return self._pos[letter] + 1
        except KeyError:
            raise ValueError(f"letter {letter!r} is not in the alphabet") from None

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({self.letters!r})"


class Word:
    """A word over an :class:`Alphabet`.

    The alphabet may be wider than the set of symbols that actually occur
    (e.g. the word ``bbb`` over the alphabet ``ab``). When no alphabet is
    given it is inferred from the text.

    ``codes`` holds the 0-based alphabet rank of each letter, in word order:
    :func:`parikh`, the prefix table, the select index and the on-line step
    read the word through it.
    """

    __slots__ = ("text", "alphabet", "codes")

    def __init__(self, text: str, alphabet: Alphabet | None = None):
        if alphabet is None:
            alphabet = Alphabet.from_text(text)
        try:
            self.codes = tuple(map(alphabet._pos.__getitem__, text))
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} is not in the alphabet") from None
        self.text = text
        self.alphabet = alphabet

    def __len__(self) -> int:
        return len(self.text)

    def factor(self, i: int, j: int) -> str:
        """The factor from position i to position j inclusive, 1-based."""
        if not (1 <= i and i - 1 <= j <= len(self.text)):
            raise ValueError(f"factor bounds {i}..{j} out of range")
        return self.text[i - 1 : j]

    def prefix(self, i: int) -> "Word":
        """The prefix of length i, over the same alphabet."""
        return Word(self.factor(1, i), self.alphabet)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.text == other.text
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.text, self.alphabet))

    def __repr__(self) -> str:
        return f"Word({self.text!r}, {self.alphabet!r})"


def parikh(word: Word) -> ParikhVector:
    """Parikh vector of a whole word: per-letter occurrence counts."""
    counts = [0] * word.alphabet.size
    for a in word.codes:
        counts[a] += 1
    return tuple(counts)


def contains_weak(p: ParikhVector, q: ParikhVector) -> bool:
    """Componentwise p[i] <= q[i]; no condition on the norms."""
    if len(p) != len(q):
        raise ValueError("Parikh vectors over different alphabet sizes")
    return all(x <= y for x, y in zip(p, q))


def contains_strict(p: ParikhVector, q: ParikhVector) -> bool:
    """Weak containment plus strictly smaller norm."""
    # weak first: it raises on mismatched sizes, whatever the norms
    return contains_weak(p, q) and sum(p) < sum(q)


class PrefixParikhTable:
    """Parikh vectors of all prefixes of a word, packed one int per prefix.

    ``packed[j]`` holds the counts of w[1..j], letter a (0-based rank) in
    bits ``a * width`` to ``(a + 1) * width - 1``. A field is one bit wider
    than n needs, and its top bit, a guard bit, stays 0 since no count
    exceeds n; ``guard`` masks all the guard bits. Hence, for factor
    vectors x and y:

    * the vector of w[i+1..j] is ``packed[j] - packed[i]`` (no field
      borrows from its neighbour);
    * x and y are anagrams iff ``x == y``;
    * x <= y componentwise iff ``((y | guard) - x) & guard == guard``.

    The cost of a test is thus independent of the alphabet size. Immutable
    by convention: do not mutate ``packed``.
    """

    __slots__ = ("word", "n", "width", "guard", "packed")

    def __init__(self, word: Word):
        n = len(word)
        sigma = word.alphabet.size
        width = n.bit_length() + 1
        unit = [1 << (width * a) for a in range(sigma)]
        self.word = word
        self.n = n
        self.width = width
        # one guard bit at the top of every field
        self.guard = ((1 << (width * sigma)) - 1) // ((1 << width) - 1) << (width - 1)
        self.packed = list(accumulate(map(unit.__getitem__, word.codes), initial=0))

    def _unpack(self, v: int) -> ParikhVector:
        width = self.width
        mask = (1 << width) - 1
        return tuple((v >> (width * a)) & mask for a in range(self.word.alphabet.size))

    def factor(self, i: int, m: int) -> ParikhVector:
        """Parikh vector of the factor of length m starting at position i."""
        if i < 1 or m < 0 or i + m - 1 > self.n:
            raise ValueError(f"factor (i={i}, m={m}) out of range for n={self.n}")
        return self._unpack(self.packed[i + m - 1] - self.packed[i - 1])


def is_abelian_period(table: PrefixParikhTable, h: int, p: int) -> bool:
    """Definition-level check that (h, p) is an Abelian period of the word.

    Requires 0 <= h < p and h + p <= n. Head containment is strict, the
    tail check is weak containment (the tail is shorter than p, so the norm
    condition holds automatically). A single full block with empty head and
    tail is allowed, hence (0, n) is a period of every non-empty word.
    """
    n = table.n
    if not 0 <= h < p:
        raise ValueError(f"head/period ({h}, {p}) violates 0 <= h < p")
    if h + p > n:
        raise ValueError(f"period ({h}, {p}) does not fit in a word of length {n}")
    k, t = divmod(n - h, p)
    block = table.factor(h + 1, p)
    if not contains_strict(table.factor(1, h), block):
        return False
    for j in range(1, k):
        if table.factor(h + j * p + 1, p) != block:
            return False
    return t == 0 or contains_weak(table.factor(n - t + 1, t), block)


def periods_by_definition(table: PrefixParikhTable) -> Iterator[Period]:
    """All Abelian periods, straight from the definition, in canonical order.

    Tries every admissible (h, p) through :func:`is_abelian_period`; the
    enumeration algorithms are validated against this.
    """
    n = table.n
    for p in range(1, n + 1):
        for h in range(min(p - 1, n - p) + 1):
            if is_abelian_period(table, h, p):
                yield h, p
