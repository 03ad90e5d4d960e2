"""Finite and infinite words over the alphabet {1, ..., n}.

Finite words are plain tuples of 1-based letters, e.g. ``(1, 2, 2)`` for
s_1 s_2 s_2.  Infinite words come in two flavors:

* :class:`EventuallyPeriodicWord` -- ``pre . per per per ...`` stored in a
  canonical form (primitive period, right-stripped preperiod) so that equality
  of infinite words is structural equality;
* :class:`LazyWord` -- rule-generated words (Thue-Morse, Sturmian) that are
  not eventually periodic, read letter by letter up to a finite horizon.

>>> primitive_root((1, 2, 1, 2))
((1, 2), 2)
>>> EventuallyPeriodicWord((1,), (2, 1), 2) == EventuallyPeriodicWord((), (1, 2), 2)
True
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Iterator

from .errors import AlphabetMismatch, EmptyWord, SchemaError

__all__ = [
    "Word",
    "check_word",
    "all_words",
    "words_upto",
    "is_prefix",
    "primitive_root",
    "words_conjugate",
    "EventuallyPeriodicWord",
    "LazyWord",
    "LAZY_PRESETS",
    "tail_equivalent",
]

Word = tuple[int, ...]


def check_word(word: Word, n: int) -> Word:
    """Validate letters lie in 1..n and return the word as a tuple."""
    w = tuple(word)
    for a in w:
        if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= n:
            raise SchemaError(f"letter {a!r} outside alphabet 1..{n}")
    return w


def all_words(n: int, length: int) -> Iterator[Word]:
    """All words of exactly the given length, in lexicographic order."""
    return product(range(1, n + 1), repeat=length)


def words_upto(n: int, max_length: int) -> Iterator[Word]:
    """All words of length 0..max_length in (length, lex) order."""
    for length in range(max_length + 1):
        yield from all_words(n, length)


def is_prefix(a: Word, b: Word) -> bool:
    return len(a) <= len(b) and b[: len(a)] == tuple(a)


def _prefix_function(w: Word) -> list[int]:
    # classic KMP failure table: pi[i] = length of the longest proper border of w[:i+1]
    pi = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = pi[k - 1]
        if w[i] == w[k]:
            k += 1
        pi[i] = k
    return pi


def primitive_root(word: Word) -> tuple[Word, int]:
    """Shortest word r and exponent e with word = r^e.

    >>> primitive_root((1, 2, 1))
    ((1, 2, 1), 1)
    """
    w = tuple(word)
    if not w:
        raise EmptyWord("the empty word has no primitive root")
    pi = _prefix_function(w)
    p = len(w) - pi[-1]
    if len(w) % p == 0:
        return w[:p], len(w) // p
    return w, 1


def words_conjugate(w1: Word, w2: Word) -> bool:
    """True when w2 is a cyclic rotation of w1."""
    a, b = tuple(w1), tuple(w2)
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = a + a
    return any(doubled[i : i + len(b)] == b for i in range(len(a)))


class EventuallyPeriodicWord:
    """The infinite word pre . per^infinity over {1..n}, canonicalized.

    Canonical form: the period is replaced by its primitive root, then the
    preperiod is stripped from the right as long as its last letter equals the
    last period letter (rotating the period right by one each time, which
    leaves the infinite word unchanged).  The resulting (pre, per) pair is a
    unique address for the infinite word, so ``==`` is structural.
    """

    __slots__ = ("n", "pre", "per")

    def __init__(self, pre: Word, per: Word, n: int):
        if n < 2:
            raise SchemaError(f"alphabet size must be >= 2, got {n}")
        pre = check_word(pre, n)
        per = check_word(per, n)
        if not per:
            raise EmptyWord("period must be nonempty")
        per, _ = primitive_root(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def __setattr__(self, name, value):
        raise AttributeError("EventuallyPeriodicWord is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def preperiod_length(self) -> int:
        return len(self.pre)

    @property
    def period_length(self) -> int:
        return len(self.per)

    @property
    def is_purely_periodic(self) -> bool:
        return not self.pre

    def letter(self, i: int) -> int:
        """1-based letter access."""
        if i < 1:
            raise IndexError("letters are 1-based")
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.per[(i - len(self.pre) - 1) % len(self.per)]

    def prefix(self, length: int) -> Word:
        return tuple(self.letter(i) for i in range(1, length + 1))

    def starts_with(self, w: Word) -> bool:
        return all(self.letter(i + 1) == a for i, a in enumerate(w))

    def shift(self) -> "EventuallyPeriodicWord":
        """Drop the first letter."""
        if self.pre:
            return EventuallyPeriodicWord(self.pre[1:], self.per, self.n)
        return EventuallyPeriodicWord((), self.per[1:] + self.per[:1], self.n)

    def shift_by(self, t: int) -> "EventuallyPeriodicWord":
        x = self
        t = t if t <= len(self.pre) else len(self.pre) + (t - len(self.pre)) % len(self.per)
        for _ in range(t):
            x = x.shift()
        return x

    def prepend(self, w: Word) -> "EventuallyPeriodicWord":
        """The word w . self (w a finite word)."""
        w = check_word(w, self.n)
        return EventuallyPeriodicWord(w + self.pre, self.per, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventuallyPeriodicWord):
            return NotImplemented
        return self.n == other.n and self.pre == other.pre and self.per == other.per

    def __hash__(self):
        return hash((self.n, self.pre, self.per))

    def __repr__(self):
        return f"EventuallyPeriodicWord({self.pre!r}, {self.per!r}, n={self.n})"


class LazyWord:
    """A rule-generated infinite word that is not eventually periodic.

    The rule maps a 1-based index to a letter in {1..n}.  The word must not be
    eventually periodic (both presets are not): the shift representation then
    tells its canonical keys apart by tuple equality, with no letter compared.
    ``horizon`` bounds only the checks that read letters one by one, such as
    the delta table of the state's isometry sequence, whose answers are
    evidence up to it.
    """

    __slots__ = ("n", "rule", "horizon", "name", "_cache")

    def __init__(self, rule: Callable[[int], int], n: int, horizon: int = 256, name: str = "lazy"):
        if n < 2:
            raise SchemaError(f"alphabet size must be >= 2, got {n}")
        if horizon < 1:
            raise SchemaError("horizon must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_cache", [])

    def __setattr__(self, name, value):
        raise AttributeError("LazyWord is immutable")

    def letter(self, i: int) -> int:
        if i < 1:
            raise IndexError("letters are 1-based")
        cache = self._cache
        while len(cache) < i:
            a = self.rule(len(cache) + 1)
            if not 1 <= a <= self.n:
                raise SchemaError(f"lazy rule produced letter {a!r} outside 1..{self.n}")
            cache.append(a)
        return cache[i - 1]

    def prefix(self, length: int) -> Word:
        return tuple(self.letter(i) for i in range(1, length + 1))

    def starts_with(self, w: Word) -> bool:
        return all(self.letter(i + 1) == a for i, a in enumerate(w))

    def __repr__(self):
        return f"LazyWord({self.name!r}, n={self.n}, horizon={self.horizon})"


def _thue_morse_letter(i: int) -> int:
    return 1 + (i - 1).bit_count() % 2


def _beatty_golden(k: int) -> int:
    # floor(k * golden_ratio) with exact integer arithmetic
    return (k + math.isqrt(5 * k * k)) // 2


def _sturmian_letter(i: int) -> int:
    return _beatty_golden(i + 1) - _beatty_golden(i)


# binary words: a preset takes only its horizon
LAZY_PRESETS: dict[str, Callable[[int], LazyWord]] = {
    "thue_morse": lambda horizon=256: LazyWord(_thue_morse_letter, 2, horizon, "thue_morse"),
    "sturmian": lambda horizon=256: LazyWord(_sturmian_letter, 2, horizon, "sturmian"),
}


def tail_equivalent(x: EventuallyPeriodicWord, y: EventuallyPeriodicWord) -> bool:
    """True when some tail of x equals some tail of y.

    For eventually periodic words this happens exactly when the primitive
    periods are cyclic rotations of each other.
    """
    if x.n != y.n:
        raise AlphabetMismatch(f"words over different alphabets: {x.n} vs {y.n}")
    return words_conjugate(x.per, y.per)
