"""Exact simulators of permutative representations of O_n.

Each kind of representation answers one protocol: ``generator_key``,
``check_key`` (checks a key, and puts a lazy key in canonical form), ``up``,
``down``, ``key_str``, ``sample_keys`` (the basis vectors ``kappa_rep``
compares) and ``state_facts`` (a vector state's family label and facts):

* :class:`ShiftRepresentation` -- the shift representation on the tail class
  of a one-sided infinite word x: basis vectors e_y for words y with the same
  tail as x, pi(s_i) e_y = e_{i.y} and pi(s_i)* e_y = [y_1 = i] e_{shift y}.
  A lazily defined word (rule-based, e.g. Thue-Morse) gets a
  :class:`LazyShiftRepresentation`, whose moments are exact too; only the
  delta table of its states' isometry sequences is evidence to a horizon.

* :class:`GridRepresentation` -- the representation on l^2(N x Z) with
  pi(s_i) e_{k,m} = e_{n(k-1)+i, m+1}; the extra Z-grading rules out any
  finite-dimensional invariant subspace.

A vector is a plain dict {key: coefficient} of finite support, and a basis
key stands for its basis vector.  Each key passes ``check_key`` on the way
in, keys that name one vector merge and zeros drop; pi(s_i) and pi(s_i)*
move each key by ``up`` and ``down``.  :func:`vector_state` turns a vector
into a :class:`~cuntzlab.moments.MomentFunctional` whose
:class:`~cuntzlab.moments.StateFacts` hold what the representation proves.
The grading of the representation space generated by an s_i*-invariant
subspace is computed by :func:`dhj_grading`, and
:func:`lemma_convergence_check` tracks how fast a[l]* v approaches such a
subspace, reading its sequence through ``moments.isometries`` and stepping
v's vector model by ``adjoint_image``, as the delta table does.  Both admit
vectors in order into the L D L* factor of their inner products
(:class:`~cuntzlab.linalg.LDLFactor`) and read orthogonal vectors off its
unit-lower factor: Gram-Schmidt's in exact arithmetic, and in float mode
the Gram growth's rank rule decides which vectors are new.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import sqrt
from typing import Iterable, Sequence

from .errors import NotInvariant, SchemaError
from .linalg import LDLFactor
from .moments import IsometrySequence, MomentFunctional, StateFacts, VectorModel, _combine_maps, isometries
from .scalars import conj, is_exact_scalar, scalar_is_zero
from .symalg import monomial
from .words import EventuallyPeriodicWord, LazyWord, Word, check_word, tail_equivalent

__all__ = [
    "ShiftRepresentation",
    "LazyShiftRepresentation",
    "GridRepresentation",
    "vector_state",
    "dhj_grading",
    "lemma_convergence_check",
]


def _inner(x: dict, y: dict):
    """<x, y> of vectors stored as {key: coefficient}, linear in y: a sum over the keys both hold."""
    return sum((conj(c) * y[k] for k, c in x.items() if k in y), 0)


def _combine(pairs) -> dict:
    """sum c x over (c, x) pairs of vectors, without the keys whose coefficient is exactly zero."""
    return {k: c for k, c in _combine_maps(pairs).items() if not scalar_is_zero(c, 0.0)}


# a vector state of an irreducible representation is pure
_SHIFT_PURE = ("Pure", "vector state of an irreducible shift representation")
_GRID_PURE = ("Pure", "vector state of the irreducible grid representation")


class ShiftRepresentation:
    """Shift representation on the tail class of the eventually periodic word x.

    The basis keys are canonical :class:`EventuallyPeriodicWord` objects with
    x's tail.  ``ShiftRepresentation(word)`` takes a :class:`LazyWord` too,
    and then builds a :class:`LazyShiftRepresentation`.
    """

    def __new__(cls, word: EventuallyPeriodicWord | LazyWord):
        if isinstance(word, LazyWord):
            cls = LazyShiftRepresentation
        elif not isinstance(word, EventuallyPeriodicWord) or cls is LazyShiftRepresentation:
            raise SchemaError("expected an eventually periodic or lazily defined word")
        return super().__new__(cls)

    def __init__(self, word: EventuallyPeriodicWord | LazyWord):
        self.word = word
        self.n = word.n

    def generator_key(self):
        return self.word

    def check_key(self, key):
        """The key of an eventually periodic word x, when it has x's tail."""
        if not isinstance(key, EventuallyPeriodicWord) or key.n != self.n:
            raise SchemaError(f"shift keys are eventually periodic words over n={self.n}; got {key!r}")
        if not tail_equivalent(key, self.word):
            raise SchemaError(f"shift key {self.key_str(key)} is not in the tail class of {self.key_str(self.word)}")
        return key

    def up(self, key, i: int):
        """Key of pi(s_i) e_key."""
        return key.prepend((i,))

    def down(self, key, i: int):
        """Key of pi(s_i)* e_key, or None when it vanishes."""
        return key.shift() if key.letter(1) == i else None

    def key_str(self, key) -> str:
        head = "".join(str(a) for a in key.pre)
        body = "".join(str(a) for a in key.per)
        return f"{head}({body})^inf" if head else f"({body})^inf"

    def sample_keys(self) -> list:
        word = self.word
        return [word, word.shift(), word.prepend((1,))]

    def state_facts(self, key) -> tuple[str, StateFacts]:
        """(family, facts) of the state of e_key, or of a superposition for key
        None: the tail class and shift period, a basis vector's Cuntz parameter
        at period 1, and its fixed isometry (minimality) when purely periodic."""
        if key is None:
            return "shift_vector", StateFacts(purity=_SHIFT_PURE, shift_period=self.word.period_length,
                                              tail_class=self.word)
        n = self.n
        return "shift", StateFacts(
            purity=_SHIFT_PURE,
            cuntz=(tuple(1 if j == key.per[0] else 0 for j in range(1, n + 1)), "family")
            if key.period_length == 1 else None,
            shift_period=key.period_length,
            tail_class=key,
            minimal_isometry=monomial(n, key.per) if key.is_purely_periodic else None,
        )


class LazyShiftRepresentation(ShiftRepresentation):
    """Shift representation on the tail class of a lazily defined word x.

    The keys are pairs (prefix, t) standing for prefix . shift^t(x),
    canonicalized so the prefix cannot be absorbed into the tail.  Since x is
    not eventually periodic, prefix . shift^t(x) = prefix' . shift^t'(x)
    forces t + |w| = t' for prefix' = prefix . w, and the last letter of a
    nonempty w would be letter t' of x, which the canonical form strips: two
    canonical keys name one vector only when they are equal, and the moments
    are exact.  The delta table of a basis vector's isometry sequence reads
    the word's letters, so it is evidence up to the word's horizon.
    """

    def generator_key(self):
        return ((), 0)

    def check_key(self, key):
        """The canonical form of the key (prefix, t), a word over 1..n and
        an int t >= 0."""
        if not _is_pair(key) or not _is_int(key[1]) or key[1] < 0:
            raise SchemaError(f"lazy shift keys are pairs (prefix, t >= 0); got {key!r}")
        prefix, t = key
        return self._canonical(check_word(prefix, self.n), t)

    def _canonical(self, prefix, t):
        while prefix and t >= 1 and prefix[-1] == self.word.letter(t):
            prefix = prefix[:-1]
            t -= 1
        return (prefix, t)

    def up(self, key, i: int):
        prefix, t = key
        return self._canonical((i,) + prefix, t)

    def down(self, key, i: int):
        prefix, t = key
        if prefix:
            return (prefix[1:], t) if prefix[0] == i else None
        return ((), t + 1) if self.word.letter(t + 1) == i else None

    def key_str(self, key) -> str:
        prefix, t = key
        head = "".join(str(a) for a in prefix)
        return f"{head}.shift^{t}({self.word.name})" if head else f"shift^{t}({self.word.name})"

    def sample_keys(self) -> list:
        return [((), 0), ((), 1), ((), 2)]

    def state_facts(self, key) -> tuple[str, StateFacts]:
        """("shift_lazy", facts): a basis vector carries the generators along
        its letters as an isometry sequence, evidence to the horizon."""
        seq = None
        if key is not None:
            prefix, t = key
            word = self.word

            def letter(i: int):
                return prefix[i - 1] if i <= len(prefix) else word.letter(t + i - len(prefix))

            seq = IsometrySequence(
                lambda i: monomial(self.n, (letter(i),)),
                "evidence",
                "generators along the letters of the defining word",
                horizon=word.horizon,
            )
        return "shift_lazy", StateFacts(purity=_SHIFT_PURE, sequence=seq)


class GridRepresentation:
    """Representation on l^2(N x Z): pi(s_i) e_{k,m} = e_{n(k-1)+i, m+1}."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise SchemaError("need an integer alphabet size n >= 2")
        self.n = n

    def generator_key(self):
        return (1, 0)

    def check_key(self, key):
        if not _is_pair(key) or not (_is_int(key[0]) and _is_int(key[1])) or key[0] < 1:
            raise SchemaError(f"grid keys are pairs (k >= 1, m in Z); got {key!r}")
        return tuple(key)

    def up(self, key, i: int):
        k, m = key
        return (self.n * (k - 1) + i, m + 1)

    def down(self, key, i: int):
        k, m = key
        if (k - 1) % self.n != i - 1:
            return None
        return ((k - 1) // self.n + 1, m - 1)

    def key_str(self, key) -> str:
        return f"({key[0]},{key[1]})"

    def sample_keys(self) -> list:
        return [(1, 0), (2, 3), (self.n + 1, -2)]

    def state_facts(self, key) -> tuple[str, StateFacts]:
        """(family, facts): a basis vector yields a proved delta-table
        isometry sequence (proper infiniteness), a superposition only purity."""
        if key is None:
            return "grid_vector", StateFacts(purity=_GRID_PURE)
        path = _grid_digit_path(key[0], self.n)

        def letter(i: int):
            return path[i - 1] if i <= len(path) else 1

        seq = IsometrySequence(
            lambda i: monomial(self.n, (letter(i),)),
            "proved",
            "digit path of the base vector padded by the first generator; "
            "the Z-grading makes the delta table exact at every order",
        )
        return "grid", StateFacts(purity=_GRID_PURE, sequence=seq)


def _is_pair(key) -> bool:
    return isinstance(key, (list, tuple)) and len(key) == 2


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _vector(rep, x) -> dict:
    """The map {key: coefficient} of a basis key or of a {key: coefficient}
    dict: each key passes ``rep.check_key``, the coefficients of keys that
    name one vector are merged, and zeros are dropped."""
    v: dict = {}
    for key, c in (x.items() if isinstance(x, dict) else [(x, 1)]):
        key = rep.check_key(key)
        v[key] = v[key] + c if key in v else c
    return {key: c for key, c in v.items() if not scalar_is_zero(c, 0.0)}


def _down(rep, u: dict, i: int) -> dict:
    """pi(s_i)* u: injective on the keys it does not kill, so no two keys merge."""
    down = rep.down
    return {new: c for key, c in u.items() if (new := down(key, i)) is not None}


def _up(rep, u: dict, i: int) -> dict:
    """pi(s_i) u: an isometry, so no two keys merge."""
    up = rep.up
    return {up(key, i): c for key, c in u.items()}


def _grid_digit_path(k: int, n: int) -> tuple[int, ...]:
    # e_{k,m} = pi(s_{p_1}) ... pi(s_{p_r}) e_{1, m-r} for this letter path
    path = []
    while k > 1:
        i = (k - 1) % n + 1
        path.append(i)
        k = (k - 1) // n + 1
    return tuple(path)


def vector_state(rep, x) -> MomentFunctional:
    """The state omega(y) = <v, pi(y) v> / <v, v> of a vector in the representation.

    x is a basis key or a superposition, a dict {key: coefficient}.  Each
    key passes ``rep.check_key`` (SchemaError for a grid key that is not a
    pair (k >= 1, m), a shift key outside the word's tail class, or a lazy
    key whose prefix leaves the alphabet or whose offset is not an int >= 0);
    lazy keys are put in canonical form, the coefficients of keys that name
    one vector merged and zeros dropped.  Moments divide by the squared norm, so unnormalized exact vectors stay
    exact, and the state is exact when its coefficients are.  They are read
    off the state's vector model (``omega.model``): v_J = pi(s_J)* v is a map
    {key: coefficient} stepped through ``rep.down`` and memoized by prefix,
    and omega(s_J s_K*) = <v_J, v_K> / <v, v>.  ``rep.state_facts`` gives
    the family label and the facts, from the key of a basis vector or None.
    """
    v = _vector(rep, x)
    nrm2 = _inner(v, v)
    if scalar_is_zero(nrm2):
        raise SchemaError("the zero vector does not define a state")

    ratios: dict[int, Fraction] = {}

    def inner(a: dict, b: dict):
        val = _inner(a, b)
        if type(val) is int and type(nrm2) is int:
            # a Gram matrix repeats a few integer values: one shared Fraction each, not one per entry
            ratio = ratios.get(val)
            if ratio is None:
                ratio = ratios[val] = Fraction(val, nrm2)
            return ratio
        if is_exact_scalar(val) and is_exact_scalar(nrm2):
            return val / nrm2
        return complex(val) / complex(nrm2)

    family, facts = rep.state_facts(next(iter(v)) if len(v) == 1 else None)
    exact = all(is_exact_scalar(c) for c in v.values())
    return MomentFunctional(rep.n, family, VectorModel(v, partial(_down, rep), inner, _combine_maps), facts=facts, exact=exact)


# ---------------------------------------------------------------------------
# Orthogonal grading and convergence checks
# ---------------------------------------------------------------------------


class _OrthogonalSpan:
    """The span of the vectors admitted so far: an LDLFactor of their Gram
    form, and the orthogonal vectors b_k = v_k - sum_j (y_kj / D_j) b_j its
    unit-lower factor defines, exactly those of Gram-Schmidt in exact
    arithmetic (|b_k|^2 = D_k)."""

    def __init__(self):
        self.factor = LDLFactor(_inner)
        self.basis: list[dict] = []

    def residual(self, c) -> dict:
        r = c.item
        for yj, dj, b in zip(c.y, self.factor.dvals, self.basis):
            if yj:
                r = _combine([(1, r), (-(yj / dj), b)])
        return r

    def extend(self, vectors: Iterable[dict]) -> list[dict]:
        """Admit the vectors in order; returns the b of each admitted one."""
        start = len(self.basis)
        for v in vectors:
            c = self.factor.score(v)
            if self.factor.admissible(c):
                self.basis.append(self.residual(c))
                self.factor.admit(c)
        return self.basis[start:]


def _invariant_span(rep, vectors: Sequence[dict]) -> _OrthogonalSpan:
    """The span of M, after checking that pi(s_i)* maps M into it."""
    span = _OrthogonalSpan()
    if not span.extend(vectors):
        raise SchemaError("M must span a nonzero subspace")
    for v in vectors:
        for i in range(1, rep.n + 1):
            c = span.factor.score(_down(rep, v, i))
            if span.factor.admissible(c):
                key = rep.key_str(next(iter(span.residual(c))))
                raise NotInvariant(f"pi(s_{i})* maps the subspace outside itself (residual on {key})")
    return span


def dhj_grading(rep, M: Sequence, depth: int) -> list[list[dict]]:
    """Orthogonal grading H_0, ..., H_depth generated by the invariant subspace M.

    Each vector of M is a basis key or a dict, read as by :func:`vector_state`.
    H_0 = span(M) and H_k is the orthogonal complement of the previous levels
    inside span{pi(s_J) v : |J| = k, v in M}; the levels are returned as
    orthonormal bases in float mode and unnormalized orthogonal bases in exact
    mode.  Raises NotInvariant unless pi(s_i)* M lies in span(M) for every i.
    """
    vectors = [_vector(rep, x) for x in M]
    exact = all(is_exact_scalar(c) for v in vectors for c in v.values())
    total = _invariant_span(rep, vectors)
    levels = [list(total.basis)]
    spanning = levels[0]  # independent spanning set of the current level-k image
    for _ in range(depth):
        images = [_up(rep, b, i) for b in spanning for i in range(1, rep.n + 1)]
        spanning = _OrthogonalSpan().extend(images)
        levels.append(total.extend(images))
    if not exact:
        levels = [[_combine([(1.0 / sqrt(abs(complex(_inner(b, b)))), b)]) for b in level] for level in levels]
    return levels


def lemma_convergence_check(rep, M: Sequence, a, v, L: int) -> list[float]:
    """Distances || a[l]* v - P_M a[l]* v || for l = 1..L, a[l] = a_1 ... a_l.

    M and v are read as in :func:`dhj_grading`, and ``a`` as in
    ``verify_properly_infinite``: ``moments.isometries`` reads a_1..a_L
    and checks each.  a[l]* v = a_l* a[l-1]* v is stepped by v's vector
    model, as the delta table is.  M must be s_i*-invariant (NotInvariant
    otherwise).  The sequence is expected to decrease; its limit is 0
    exactly when the subspace the a_i squeeze onto sits inside span(M).
    Each distance is the norm of a[l]* v's residual vector against M's
    factor: exactly sqrt(res2) for exact vectors, and in float it keeps the
    digits that sqrt(res2) loses to cancellation near 0.
    """
    elements = isometries(a, L, rep.n)
    span = _invariant_span(rep, [_vector(rep, x) for x in M])
    w = _vector(rep, v)
    model = VectorModel(w, partial(_down, rep), _inner, _combine)
    norms = []
    for al in elements:
        w = model.adjoint_image(al, w)
        r = span.residual(span.factor.score(w))
        norms.append(sqrt(abs(complex(_inner(r, r)))))
    return norms
