"""Symbolic *-algebra of the Cuntz relations on n isometries.

Elements are finite combinations of monomials s_J s_K* (J, K finite words)
subject to s_i* s_j = delta_ij I and sum_i s_i s_i* = I.  The second relation
makes the monomials linearly dependent; a unique normal form is obtained by
eliminating every monomial whose two words both end in the letter n via

    s_{Jn} s_{Kn}*  =  s_J s_K*  -  sum_{i<n} s_{Ji} s_{Ki}*.

The surviving monomials form a linear basis of the dense *-subalgebra, so
equality of normal forms is equality in O_n.

A product term s_J s_K* . s_L s_M* survives only when one of K, L is a
prefix of the other, so ``multiply`` indexes the right factor's terms by L
and by the prefixes of L as long as the left factor's K: each left term
looks up the L that extend its K and the L that are proper prefixes of it.
The isometry check u*u = I on a prefix code's u of N terms meets N terms,
not N^2 pairs.
"""

from __future__ import annotations

from math import prod

from .errors import NotUnitary, SchemaError
from .scalars import conj, is_exact_scalar, format_scalar, scalar_is_zero, scalars_close
from .words import Word, all_words, check_word

__all__ = [
    "CuntzElement",
    "identity",
    "zero",
    "gen",
    "monomial",
    "multiply",
    "adjoint",
    "is_isometry_in_plus",
    "gauge_image",
    "gauge_apply",
    "check_unitary",
]


def _normalized(n: int, raw: dict[tuple[Word, Word], object]) -> dict[tuple[Word, Word], object]:
    out: dict[tuple[Word, Word], object] = {}
    stack = list(raw.items())
    while stack:
        (J, K), c = stack.pop()
        if J and K and J[-1] == n and K[-1] == n:
            body = ((J[:-1], K[:-1]), c)
            stack.append(body)
            for i in range(1, n):
                stack.append(((J[:-1] + (i,), K[:-1] + (i,)), -c))
            continue
        acc = out.get((J, K))
        acc = c if acc is None else acc + c
        if acc == 0:
            out.pop((J, K), None)
        else:
            out[(J, K)] = acc
    return out


class CuntzElement:
    """A normal-form element of the dense *-subalgebra of O_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[Word, Word], object] | None = None):
        if n < 2:
            raise SchemaError(f"alphabet size must be >= 2, got {n}")
        raw = {}
        for (J, K), c in (terms or {}).items():
            raw[(check_word(J, n), check_word(K, n))] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", _normalized(n, raw))

    def __setattr__(self, name, value):
        raise AttributeError("CuntzElement is immutable")

    # -- arithmetic ----------------------------------------------------------

    def _check_same_algebra(self, other: "CuntzElement"):
        if self.n != other.n:
            raise SchemaError(f"elements over different algebras: n={self.n} vs n={other.n}")

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        self._check_same_algebra(other)
        raw = dict(self.terms)
        for key, c in other.terms.items():
            raw[key] = raw.get(key, 0) + c
        return CuntzElement(self.n, raw)

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + (-1) * other

    def __neg__(self) -> "CuntzElement":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, CuntzElement):
            return multiply(self, other)
        return CuntzElement(self.n, {key: c * other for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        return CuntzElement(self.n, {key: scalar * c for key, c in self.terms.items()})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.terms.values())

    def isclose(self, other: "CuntzElement") -> bool:
        self._check_same_algebra(other)
        return (self - other).is_zero()

    def in_plus_span(self) -> bool:
        """True when every term is a pure creation monomial s_J with J nonempty."""
        return all(K == () and J != () for (J, K) in self.terms)

    def sorted_terms(self) -> list[tuple[Word, Word, object]]:
        keys = sorted(self.terms, key=lambda jk: (len(jk[0]), jk[0], len(jk[1]), jk[1]))
        return [(J, K, self.terms[(J, K)]) for J, K in keys]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CuntzElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms))))

    def __repr__(self):
        if not self.terms:
            return f"CuntzElement(n={self.n}, 0)"
        bits = []
        for J, K, c in self.sorted_terms():
            mono = "I" if (not J and not K) else ""
            if J:
                mono += "s" + "".join(map(str, J))
            if K:
                mono += "s" + "".join(map(str, K)) + "*"
            bits.append(f"({format_scalar(c)})*{mono}")
        return f"CuntzElement(n={self.n}, " + " + ".join(bits) + ")"


def identity(n: int) -> CuntzElement:
    return CuntzElement(n, {((), ()): 1})


def zero(n: int) -> CuntzElement:
    return CuntzElement(n, {})


def gen(n: int, i: int) -> CuntzElement:
    """The generator s_i."""
    return CuntzElement(n, {((i,), ()): 1})


def monomial(n: int, J: Word, K: Word = (), coeff=1) -> CuntzElement:
    """The monomial coeff * s_J s_K*."""
    return CuntzElement(n, {(tuple(J), tuple(K)): coeff})


def multiply(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    """Product in O_n: (s_J s_K*)(s_L s_M*) reduced through s_K* s_L, which
    is s_C when L = K.C (I when C is empty), s_C* when K = L.C, and 0 otherwise.

    Only those pairs meet, so y's terms are indexed by L and by each prefix
    of L as long as some K of x: a term of x finds the L that extend K in one
    lookup and the L that are proper prefixes of K in |K| lookups.  Its hits
    are taken in y's term order, so every key sums the products of the
    all-pairs loop in that loop's order, floats included.
    """
    x._check_same_algebra(y)
    lengths = {len(K) for _, K in x.terms}
    by_word: dict[Word, list] = {}
    by_prefix: dict[Word, list] = {}
    for i, ((L, M), cy) in enumerate(y.terms.items()):
        term = (i, L, M, cy)
        by_word.setdefault(L, []).append(term)
        for k in lengths:
            if k <= len(L):
                by_prefix.setdefault(L[:k], []).append(term)
    raw: dict[tuple[Word, Word], object] = {}
    for (J, K), cx in x.terms.items():
        k = len(K)
        hits = by_prefix.get(K, [])
        shorter = [term for p in range(k) for term in by_word.get(K[:p], ())]
        if shorter:
            hits = sorted(hits + shorter)  # the indices are distinct
        for _, L, M, cy in hits:
            # s_C* s_M* = (s_M s_C)* when L is shorter than K
            key = (J + L[k:], M) if len(L) >= k else (J, M + K[len(L):])
            raw[key] = raw.get(key, 0) + cx * cy
    return CuntzElement(x.n, raw)


def adjoint(x: CuntzElement) -> CuntzElement:
    return CuntzElement(x.n, {(K, J): conj(c) for (J, K), c in x.terms.items()})


def is_isometry_in_plus(u: CuntzElement) -> tuple[bool, bool]:
    """Return (isometry, in_plus): whether u*u = I and whether u lies in
    the span of the pure creation monomials {s_J : J nonempty}."""
    isometry = multiply(adjoint(u), u).isclose(identity(u.n))
    return isometry, u.in_plus_span()


def check_unitary(g, n: int) -> None:
    """Raise NotUnitary unless g is an n x n unitary matrix."""
    if len(g) != n or any(len(row) != n for row in g):
        got = f"rows of lengths {', '.join(str(len(row)) for row in g)}" if g else "no rows"
        raise NotUnitary(f"expected a {n} x {n} matrix, got {got}")
    for a in range(n):
        for b in range(n):
            s = sum((conj(g[k][a]) * g[k][b] for k in range(n)), 0)
            target = 1 if a == b else 0
            if not scalars_close(s, target):
                raise NotUnitary(f"g*g != I at entry ({a + 1},{b + 1}): {s if is_exact_scalar(s) else complex(s)}")


def gauge_image(g, J: Word) -> dict:
    """alpha_g(s_J) = sum_J' (prod_t g[J'_t][J_t]) s_J' as {J': coefficient},
    for the gauge automorphism alpha_g(s_i) = sum_j g[j][i] s_j of O_len(g)."""
    return {Jp: prod(g[a - 1][b - 1] for a, b in zip(Jp, J)) for Jp in all_words(len(g), len(J))}


def gauge_apply(g, x: CuntzElement) -> CuntzElement:
    """Apply the gauge automorphism alpha_g(s_i) = sum_j g[j][i] s_j termwise:
    alpha_g(s_J s_K*) = sum_{J', K'} alpha_g(s_J)_J' conj(alpha_g(s_K)_K') s_J' s_K'*."""
    check_unitary(g, x.n)
    raw: dict[tuple[Word, Word], object] = {}
    for (J, K), c in x.terms.items():
        image_k = gauge_image(g, K)
        for Jp, a in gauge_image(g, J).items():
            for Kp, b in image_k.items():
                raw[(Jp, Kp)] = raw.get((Jp, Kp), 0) + c * a * conj(b)
    return CuntzElement(x.n, raw)
