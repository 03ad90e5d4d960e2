"""Moment functionals of states on O_n and their concrete families.

A state omega is represented by its moments omega(s_J s_K*), exposed through
:class:`MomentFunctional`.  Each family constructor also fills one frozen
:class:`StateFacts` record, ``omega.facts``, with what the family proves about
its state; the classification layer reads that record and never the family
label.  Which constructor fills which fact:

* ``make_cuntz(z)``               -- omega(s_J s_K*) = conj(z_J) z_K, the
                                     order-1 case.  Purity, the Cuntz parameter
                                     z, the tail class (i)^inf when z = e_i, the
                                     order-1 tensor and the minimal isometry
                                     u = sum_j z_j s_j.
* ``make_prefix_code_state(P,z)`` -- the state(s) fixed by the isometry
                                     u = sum_W z_W s_W over a finite prefix
                                     code P; covers uniform codes
                                     (``make_sub_cuntz``, order-m states) and
                                     progression codes
                                     (``make_geometric_progression``).  The
                                     minimal isometry u and the solution
                                     dimension; for a unique solution the tail
                                     class W^inf of a single code word with
                                     coefficient 1, and the tensor (uniform
                                     codes) or the parameter (progression
                                     codes); the purity of both code shapes;
                                     the Cuntz parameter y when a progression
                                     parameter is hat_parameter(y, k).
* ``make_induced_product(...)``   -- product states induced from a sequence of
                                     unit vectors, nonzero only on balanced
                                     monomials.  The inducing blocks, a proved
                                     isometry sequence and purity (not pure).
* ``make_mixture(...)``           -- convex combinations; purity (not pure).
* ``transform_gauge``             -- omega o alpha_g.  The twist (omega, g);
                                     from the base only its Cuntz parameter
                                     (moved by g^H) and its purity.
* ``transform_sandwich``          -- isometric sandwiches.  Purity when the
                                     base is decided pure; a user-declared
                                     Cuntz parameter.
* ``make_split_series_sandwich()``-- the series sandwich sum_l 2^-l
                                     omega(A_l* . A_l) with A_l = s_2^{l-1} s_1 s_2^l
                                     over the Cuntz state by (1,0), in closed
                                     form.  Purity and the Cuntz parameter (1,0).
* ``shiftrep.vector_state``       -- vector states of the shift and grid
                                     representations: purity, shift period,
                                     tail class, minimal isometry or isometry
                                     sequence.

Facts that depend on a float comparison (the Cuntz parameter of a
progression state, the tail class of a single-support state) are decided at
construction with the fixed tolerance ``scalars.DEFAULT_EQ_TOL``, the same
one classification uses, so the two always agree.

Inner products are linear in the second argument throughout, so
omega(s_J s_K*) = <pi(s_J)* Omega, pi(s_K)* Omega>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import sqrt
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EmptyWord, Inconsistent, NotPrefixFree, NotUnit, SchemaError, TailNotCertified
from .linalg import hermitian_psd_check, hermitian_transpose, kernel_basis, mat_vec, min_norm_solution
from .scalars import (
    DEFAULT_EQ_TOL,
    QQi,
    abs2,
    conj,
    format_float,
    is_exact_scalar,
    scalar_is_zero,
    scalars_close,
)
from .symalg import CuntzElement, adjoint, check_unitary, gauge_image, is_isometry_in_plus, monomial, multiply, zero
from .words import EventuallyPeriodicWord, Word, all_words, check_word, is_prefix, words_upto

__all__ = [
    "IsometrySequence",
    "sequence_factory",
    "InducingBlocks",
    "StateFacts",
    "MomentFunctional",
    "eval_moment",
    "gram_matrix",
    "make_cuntz",
    "make_prefix_code_state",
    "make_sub_cuntz",
    "make_geometric_progression",
    "hat_parameter",
    "hat_parameter_inverse",
    "make_induced_product",
    "make_mixture",
    "transform_gauge",
    "transform_sandwich",
    "make_split_series_sandwich",
    "solve_low_moments",
    "LowMomentSolution",
    "positivity_check",
    "check_unit",
]


class IsometrySequence:
    """A sequence a_1, a_2, ... of isometries in the creation span.

    ``factory(i)`` returns a_i.  ``status`` records whether the delta table
    omega(a_1..a_l a_k*..a_1*) = delta_lk is known analytically ("proved") or
    only finitely checkable ("evidence"); ``horizon`` is the depth to which
    evidence holds when the sequence is read off a word known only that far.
    """

    __slots__ = ("factory", "status", "description", "horizon")

    def __init__(self, factory: Callable[[int], CuntzElement], status: str, description: str,
                 horizon: int | None = None):
        self.factory = factory
        self.status = status
        self.description = description
        self.horizon = horizon


def sequence_factory(a, count: int) -> Callable[[int], CuntzElement]:
    """i -> a_i for an IsometrySequence, a callable, or a list of at least ``count`` elements."""
    if isinstance(a, IsometrySequence):
        return a.factory
    if callable(a):
        return a
    elems = list(a)
    if len(elems) < count:
        raise SchemaError(f"need {count} sequence elements, got {len(elems)}")
    return lambda i: elems[i - 1]


class InducingBlocks(NamedTuple):
    """The unit vectors z^(1), z^(2), ...: ``pre`` once, then ``rep`` cycling."""

    pre: tuple
    rep: tuple

    def at(self, t: int):
        """z^(t), 1-based."""
        if t <= len(self.pre):
            return self.pre[t - 1]
        return self.rep[(t - len(self.pre) - 1) % len(self.rep)]


_UNKNOWN_PURITY = ("Unknown", "no purity criterion applies to this presentation")
_PURE_IN_PURE = "unit vector state in the irreducible representation of a pure state"


@dataclass(frozen=True)
class StateFacts:
    """What a family constructor proved about its state.

    * ``purity``: (verdict, reason), verdict "Pure", "NotPure" or "Unknown";
    * ``cuntz``: (z, provenance) when the state is equivalent to the Cuntz
      state by z, provenance "family" or "user" (declared, not verified);
    * ``shift_period``: the primitive period d of a vector state of an
      eventually periodic shift representation (kappa = d);
    * ``tail_class``: the eventually periodic word whose shift representation
      holds the state;
    * ``tensor``: (m, coefficient map on the words of length m) of a uniquely
      determined word-moment state;
    * ``progression``: (k, parameter in progression order) of a uniquely
      determined progression state on the k-step code;
    * ``induced``: the inducing blocks of an induced product state;
    * ``minimal_isometry``: an isometry u in the creation span with omega(u) = 1,
      still to be verified;
    * ``sequence``: an isometry sequence with its delta-table status;
    * ``twist``: (base, g) for the state base o alpha_g;
    * ``solution_dim``: dimension of the fixed-point system of a prefix code.
    """

    purity: tuple = _UNKNOWN_PURITY
    cuntz: tuple | None = None
    shift_period: int | None = None
    tail_class: EventuallyPeriodicWord | None = None
    tensor: tuple | None = None
    progression: tuple | None = None
    induced: InducingBlocks | None = None
    minimal_isometry: CuntzElement | None = None
    sequence: IsometrySequence | None = None
    twist: tuple | None = None
    solution_dim: int | None = None


class MomentFunctional:
    """A state on O_n presented through its moments omega(s_J s_K*).

    ``family`` labels the constructor (for display and tracing only);
    ``facts`` holds what the constructor proved.
    """

    def __init__(
        self,
        n: int,
        family: str,
        evaluator: Callable[[Word, Word], object],
        *,
        facts: StateFacts = StateFacts(),
        exact: bool = True,
        warnings: Iterable[str] = (),
    ):
        self.n = n
        self.family = family
        self.facts = facts
        self.exact = exact
        self.warnings = list(warnings)
        self._evaluator = evaluator
        self._memo: dict[tuple[Word, Word], object] = {}
        # finished Gram growths per (level cap, rank tolerance); see classify.gram_growth
        self._growths: dict[tuple, object] = {}

    def moment(self, J: Word, K: Word = ()) -> object:
        """omega(s_J s_K*), with J and K checked as words over 1..n."""
        return self.lookup(check_word(J, self.n), check_word(K, self.n))

    def lookup(self, J: Word, K: Word = ()) -> object:
        """omega(s_J s_K*) for tuples J, K the caller built as words over 1..n:
        the memoized value, with no validation."""
        key = (J, K)
        memo = self._memo
        hit = memo.get(key)
        if hit is None and key not in memo:
            hit = memo[key] = self._evaluator(J, K)
        return hit

    def moment_of_element(self, x: CuntzElement) -> object:
        if x.n != self.n:
            raise SchemaError(f"element over n={x.n}, state over n={self.n}")
        return sum((c * self.lookup(J, K) for (J, K), c in x.terms.items()), 0)

    def moment_of_pair(self, x: dict, y: dict) -> object:
        """omega(x y*) for creation-span x, y given as {word: coefficient}:
        the sum of x_J conj(y_K) omega(s_J s_K*), with no product formed."""
        return sum((cx * conj(cy) * self.lookup(J, K) for J, cx in x.items() for K, cy in y.items()), 0)

    def __repr__(self):
        return f"MomentFunctional(n={self.n}, family={self.family!r})"


def eval_moment(omega: MomentFunctional, J: Word, K: Word = ()) -> object:
    """omega(s_J s_K*); K defaults to the empty word."""
    return omega.moment(J, K)


def gram_matrix(omega: MomentFunctional, words: Sequence[Word]):
    """Gram matrix of the vectors pi(s_J)* Omega for J in words."""
    return [[omega.moment(a, b) for b in words] for a in words]


def check_unit(vec) -> None:
    total = sum((abs2(x) for x in vec), 0)
    if is_exact_scalar(total) or isinstance(total, Fraction):
        if total != 1:
            raise NotUnit(f"parameter vector has squared norm {total}, expected 1")
    elif abs(float(total) - 1.0) > DEFAULT_EQ_TOL:
        raise NotUnit(f"parameter vector has squared norm {float(total)!r}, expected 1")


def _word_product(z: Sequence, J: Word):
    out = 1
    for a in J:
        out = out * z[a - 1]
    return out


# ---------------------------------------------------------------------------
# Cuntz states
# ---------------------------------------------------------------------------


def _single_word_tail(pairs, n: int):
    """The tail class W^inf of a state prescribed on one word W with coefficient 1."""
    support = [(w, c) for w, c in pairs if not scalar_is_zero(c)]
    if len(support) == 1 and scalars_close(support[0][1], 1):
        return EventuallyPeriodicWord((), support[0][0], n)
    return None


def make_cuntz(z) -> MomentFunctional:
    """The state with pi(s_j)* Omega = z_j Omega, i.e. omega(s_J s_K*) = conj(z_J) z_K."""
    z = tuple(z)
    n = len(z)
    if n < 2:
        raise SchemaError("need at least two components")
    check_unit(z)
    exact = all(is_exact_scalar(x) for x in z)

    def evaluator(J: Word, K: Word):
        return conj(_word_product(z, J)) * _word_product(z, K)

    letters = {(j,): z[j - 1] for j in range(1, n + 1)}
    facts = StateFacts(
        purity=("Pure", "a Cuntz state is a vector state of an irreducible representation"),
        cuntz=(z, "family"),
        tail_class=_single_word_tail(letters.items(), n),
        tensor=(1, letters),
        minimal_isometry=CuntzElement(n, {(w, ()): c for w, c in letters.items() if not scalar_is_zero(c, 0.0)}),
    )
    return MomentFunctional(n, "cuntz", evaluator, facts=facts, exact=exact)


# ---------------------------------------------------------------------------
# Prefix-code fixed-point states and their low-moment solver
# ---------------------------------------------------------------------------


class LowMomentSolution:
    """Solved creation moments v_C = omega(s_C) for |C| <= max code length."""

    __slots__ = ("table", "solution_dim", "warnings")

    def __init__(self, table, solution_dim, warnings):
        self.table = table
        self.solution_dim = solution_dim
        self.warnings = warnings


def _validate_prefix_code(P, n: int):
    words = []
    for W in P:
        w = check_word(W, n)
        if not w:
            raise EmptyWord("a prefix code may not contain the empty word")
        words.append(w)
    if len(set(words)) != len(words):
        raise NotPrefixFree("repeated word in code")
    for a in words:
        for b in words:
            if a != b and is_prefix(a, b):
                raise NotPrefixFree(f"{a} is a prefix of {b}")
    return words


def _align_coefficients(code, z, n: int) -> dict:
    if isinstance(z, dict):
        zmap = {check_word(k, n): v for k, v in z.items()}
        extra = set(zmap) - set(code)
        if extra:
            raise SchemaError(f"coefficients on words outside the code: {sorted(extra)}")
        for w in code:
            zmap.setdefault(w, 0)
    else:
        z = list(z)
        if len(z) != len(code):
            raise SchemaError(f"{len(z)} coefficients for a code of {len(code)} words")
        zmap = dict(zip(code, z))
    return zmap


def _code_lookup(support: Sequence[Word]):
    """(head, tails) over the code words of ``support``: head(X) is the code
    word that is a prefix of X (equality included; a prefix code has at most
    one), or None; tails(X) lists the code words X is a proper prefix of, in
    support order."""
    words = set(support)
    lengths = sorted({len(w) for w in support})
    below: dict[Word, list[Word]] = {}
    for W in support:
        for i in range(len(W)):
            below.setdefault(W[:i], []).append(W)

    def head(X: Word) -> Word | None:
        for length in lengths:
            if length > len(X):
                break
            if X[:length] in words:
                return X[:length]
        return None

    return head, lambda X: below.get(X, ())


class _PrefixCode(NamedTuple):
    """A validated prefix code with its coefficients, read once per construction."""

    code: list
    z: dict
    support: list  # words with a nonzero coefficient, in (length, lex) order
    max_len: int
    exact: bool
    head: Callable[[Word], Word | None]
    tails: Callable[[Word], Sequence[Word]]


def _read_code(P, z, n: int) -> _PrefixCode:
    code = _validate_prefix_code(P, n)
    zmap = _align_coefficients(code, z, n)
    support = sorted((w for w in code if not scalar_is_zero(zmap[w], 0.0)), key=lambda w: (len(w), w))
    return _PrefixCode(code, zmap, support, max((len(w) for w in code), default=0),
                       all(is_exact_scalar(zmap[w]) for w in code), *_code_lookup(support))


def _add_scaled(acc: dict, expr: dict, c, conjugated: bool = False) -> None:
    """acc += c * expr (or c * conj(expr)) for R-linear expressions
    {(word, conjugated): coefficient} in the unknowns v_word."""
    for (w, f), v in expr.items():
        key = (w, f != conjugated)
        acc[key] = acc.get(key, 0) + c * (conj(v) if conjugated else v)


def solve_low_moments(P, z, n: int | None = None) -> LowMomentSolution:
    """Solve for the creation moments of the state fixed by u = sum_W z_W s_W.

    The fixed-point identity omega(u* s_C) = omega(s_C) gives one equation per
    word C with |C| <= max code length; the homogeneous real-linear system
    (with the normalization v_empty left free) has solution dimension 1
    exactly when the state is unique.  When underdetermined, sandwich
    equations omega(u* s_C u) = omega(s_C) are added; if the dimension is
    still > 1 the minimum-norm table on the slice v_empty = 1 is returned
    (the symmetric mixture) together with a warning.
    """
    if n is None:
        n = max(max(W) for W in P)
    return _solve_low_moments(_read_code(P, z, n), n)


def _solve_low_moments(pc: _PrefixCode, n: int) -> LowMomentSolution:
    check_unit([pc.z[w] for w in pc.code])
    zmap, M, head, tails = pc.z, pc.max_len, pc.head, pc.tails
    table_words = list(words_upto(n, M))
    index = {w: i for i, w in enumerate(table_words)}
    width = 2 * len(table_words)
    creation_cache: dict[Word, dict] = {}

    def creation_expr(C: Word) -> dict:
        if len(C) <= M:
            return {(C, False): 1}
        hit = creation_cache.get(C)
        if hit is None:
            hit = {}
            W = head(C)
            if W is not None:
                _add_scaled(hit, creation_expr(C[len(W):]), conj(zmap[W]))
            creation_cache[C] = hit
        return hit

    def subtract_peeled(row: dict, D: Word, c) -> None:
        # row -= c omega(u* s_D): the code word W <= D leaves s_{D - W}, and a
        # code word W extending D leaves s_{W - D}*
        W = head(D)
        if W is not None:
            _add_scaled(row, creation_expr(D[len(W):]), -c * conj(zmap[W]))
        for W in tails(D):
            _add_scaled(row, creation_expr(W[len(D):]), -c * conj(zmap[W]), conjugated=True)

    def realified(row: dict):
        # (a + bi)(x + s iy) = (a x - s b y) + i (b x + s a y), columns 2i, 2i+1 for (x, y) of word i
        zero = 0 if pc.exact else 0.0
        re, im = [zero] * width, [zero] * width
        for (w, conjugated), c in row.items():
            if pc.exact:
                q = c if isinstance(c, QQi) else QQi(c)
                a, b = q.re, q.im
            else:
                cc = complex(c)
                a, b = cc.real, cc.imag
            i, s = 2 * index[w], -1 if conjugated else 1
            re[i] += a
            re[i + 1] -= s * b
            im[i] += b
            im[i + 1] += s * a
        return [re, im]

    def equation(C: Word, peeled) -> list:
        # v_C - sum of c omega(u* s_D) over (D, c): the fixed-point equation takes
        # D = C, the sandwich omega(u* s_C u) the words D = C B with c = z_B
        row = {(C, False): 1}
        for D, c in peeled:
            subtract_peeled(row, D, c)
        return realified(row)

    rows = [r for C in table_words for r in equation(C, [(C, 1)])]
    kernel = kernel_basis(rows, width)
    if len(kernel) > 1:
        rows += [r for C in table_words for r in equation(C, [(C + B, zmap[B]) for B in pc.support])]
        kernel = kernel_basis(rows, width)
    dim = len(kernel)
    if dim == 0:
        raise Inconsistent("fixed-point system has no nonzero solution")

    warnings = []
    if dim == 1:
        vec = kernel[0]
    else:
        vec = min_norm_solution(kernel, [[1 if j == 0 else 0 for j in range(width)],
                                         [1 if j == 1 else 0 for j in range(width)]], [1, 0])
        warnings.append(f"solution space has dimension {dim}; returning the symmetric minimum-norm table")

    def assemble(i: int):
        re, im = vec[2 * i], vec[2 * i + 1]
        return QQi(re, im) if pc.exact else complex(re, im)

    v0 = assemble(0)
    if scalar_is_zero(v0, 1e-12):
        raise Inconsistent("solution space is orthogonal to the normalization v_empty = 1")
    table = {w: assemble(i) / v0 for w, i in index.items()}
    return LowMomentSolution(table, dim, warnings)


def _detect_code_family(code: set[Word], n: int):
    """(family, m or k): the uniform code of order m, the k-step progression
    code, or ("prefix_code", None)."""
    lengths = {len(w) for w in code}
    if len(lengths) == 1:
        m = lengths.pop()
        if code == set(all_words(n, m)):
            return "sub_cuntz", m
    k = max(len(w) for w in code)
    if code == set(_progression_code(k, n)):
        return "geometric_progression", k
    return "prefix_code", None


def make_prefix_code_state(P, z, n: int | None = None) -> MomentFunctional:
    """The state(s) omega with omega(s_W) = conj(z_W) on a finite prefix code P.

    Equivalently the state fixed by the isometry u = sum_W z_W s_W.  When the
    defining system does not pin omega uniquely, the symmetric mixture is
    returned and ``facts.solution_dim`` records the dimension.
    """
    if n is None:
        n = max(max(W) for W in P)
    pc = _read_code(P, z, n)
    code, zmap, support, M, head, tails = pc.code, pc.z, pc.support, pc.max_len, pc.head, pc.tails
    family, size = _detect_code_family(set(code), n)
    if family == "sub_cuntz" and size == 1:
        return make_cuntz([zmap[(i,)] for i in range(1, n + 1)])

    sol = _solve_low_moments(pc, n)
    table = sol.table
    creation_memo: dict[Word, object] = {}

    # Both peel code words off a word in a loop, then multiply the factors
    # back from the innermost one out.  A one-term sum is written 0 + x, as
    # sum() computes it, so float zeros keep their sign.
    def creation(C: Word):
        # omega(s_C) = conj(z_W) omega(s_{C - W}) for the code word W <= C
        if len(C) <= M:
            return table[C]
        peeled = []
        while len(C) > M and C not in creation_memo:
            W = head(C)
            if W is None:
                creation_memo[C] = 0
                break
            peeled.append((C, W))
            C = C[len(W):]
        value = table[C] if len(C) <= M else creation_memo[C]
        while peeled:
            D, W = peeled.pop()
            value = creation_memo[D] = 0 + conj(zmap[W]) * value
        return value

    moment_memo: dict[tuple[Word, Word], object] = {}

    def evaluator(J: Word, K: Word):
        # peel code factors off the annihilation side: omega(x u) = omega(x)
        if not K:
            return creation(J)
        peeled = []
        while K and (J, K) not in moment_memo:
            W = head(K)
            if W is None:
                moment_memo[J, K] = sum((zmap[V] * creation(J + V[len(K):]) for V in tails(K)), 0)
                break
            peeled.append((K, W))
            K = K[len(W):]
        value = moment_memo[J, K] if K else creation(J)
        while peeled:
            D, W = peeled.pop()
            value = moment_memo[J, D] = 0 + zmap[W] * value
        return value

    u = CuntzElement(n, {(w, ()): zmap[w] for w in support})
    isometry, in_plus = is_isometry_in_plus(u)
    if not (isometry and in_plus):
        raise NotUnit("the defining combination is not an isometry in the creation span")
    dim = sol.solution_dim
    unique = dim == 1
    purity, tensor, progression, cuntz = _UNKNOWN_PURITY, None, None, None
    if family == "sub_cuntz" and unique:
        purity = ("Pure", "the word moments pin the state uniquely (the defining tensor is not a "
                          "proper tensor power), and the unique solution is pure")
        tensor = (size, zmap)
    elif family == "sub_cuntz":
        purity = ("NotPure", f"the defining tensor is a {dim}-th tensor power, so the canonical table is "
                             f"the uniform mixture of {dim} phase-twisted pure states")
    elif family == "geometric_progression":
        z_indexed = tuple(zmap[w] for w in _progression_code(size, n))
        y = hat_parameter_inverse(z_indexed, size, n)
        cuntz = (y, "family") if y is not None else None
        if unique:
            purity = ("Pure", "the closing coefficient has modulus < 1, so the state is unique and pure")
            progression = (size, z_indexed)
        else:
            purity = ("Unknown", "the defining system is underdetermined on this code and no purity "
                                 "criterion applies")
    facts = StateFacts(
        purity=purity,
        cuntz=cuntz,
        tail_class=_single_word_tail(((w, zmap[w]) for w in code), n) if unique else None,
        tensor=tensor,
        progression=progression,
        minimal_isometry=u,
        solution_dim=dim,
    )
    return MomentFunctional(n, family, evaluator, facts=facts, exact=pc.exact, warnings=sol.warnings)


def make_sub_cuntz(m: int, z, n: int) -> MomentFunctional:
    """Order-m state: omega(s_J) = conj(z_J) for every |J| = m.

    z may be a dict keyed by words or a flat sequence in lexicographic word
    order of length n^m.
    """
    if not isinstance(z, dict):
        z = list(z)
        # sizes are compared before the n^m words are listed; n^m >= 2^m > len(z)
        # once m reaches the bit length of len(z), so a huge m forms no power
        if m >= len(z).bit_length() or n**m != len(z):
            raise SchemaError(f"expected {n}^{m} coefficients in lexicographic order, got {len(z)}")
    return make_prefix_code_state(list(all_words(n, m)), z, n)


def _progression_code(k: int, n: int, axis: int | None = None) -> list[Word]:
    """The k-step progression code {a^r i : i != a, r < k} + {a^k} along the
    letter a = ``axis`` (default n)."""
    a = n if axis is None else axis
    code = [(a,) * r + (i,) for r in range(k) for i in range(1, n + 1) if i != a]
    code.append((a,) * k)
    return code


def make_geometric_progression(k: int, z, n: int) -> MomentFunctional:
    """State prescribed on the progression code {n^r i : r < k} + {n^k}.

    z is indexed so that z[(n-1)r + i - 1] sits on the word n^r i and the last
    entry z[(n-1)k] on n^k.
    """
    z = list(z)
    if len(z) != (n - 1) * k + 1:
        raise SchemaError(f"expected {(n - 1) * k + 1} coefficients, got {len(z)}")
    return make_prefix_code_state(_progression_code(k, n), z, n)


def hat_parameter(y, k: int):
    """Finite-progression parameter built from a unit vector y with |y_n| < 1.

    Entries y_n^r y_i on the words n^r i (r < k) and y_n^k on n^k; always a
    unit vector, and the resulting progression state coincides with the Cuntz
    state by y.
    """
    y = tuple(y)
    n = len(y)
    out = []
    for r in range(k):
        p = y[n - 1] ** r if r else 1
        for i in range(1, n):
            out.append(p * y[i - 1])
    out.append(y[n - 1] ** k)
    return out


def hat_parameter_inverse(z, k: int, n: int):
    """Recover y with hat_parameter(y, k) == z, or None."""
    z = list(z)
    if len(z) != (n - 1) * k + 1:
        return None
    first = list(z[: n - 1])
    if all(scalar_is_zero(c) for c in first):
        return None
    if k >= 2:
        j = max(range(n - 1), key=lambda t: abs(complex(z[t])))
        yn = z[(n - 1) + j] / z[j]
    else:
        # k = 1: z ends with y_n itself
        yn = z[-1]
    y = tuple(first) + (yn,)
    if abs(complex(yn)) >= 1:
        return None
    try:
        check_unit(y)
    except NotUnit:
        return None
    zhat = hat_parameter(y, k)
    if all(scalars_close(a, b) for a, b in zip(zhat, z)):
        return y
    return None


# ---------------------------------------------------------------------------
# Induced product states
# ---------------------------------------------------------------------------


def make_induced_product(pre_blocks, rep_blocks, n: int) -> MomentFunctional:
    """Product state induced by the eventually periodic sequence of unit vectors.

    z^(t) runs through pre_blocks then cycles rep_blocks; the moments are
    omega(s_J s_K*) = conj(z_J) z_K when |J| = |K| and 0 otherwise, with
    z_J = prod_t z^(t)_{j_t}.
    """
    pre = tuple(tuple(b) for b in pre_blocks)
    rep = tuple(tuple(b) for b in rep_blocks)
    if not rep:
        raise SchemaError("need at least one repeating block")
    for b in pre + rep:
        if len(b) != n:
            raise SchemaError(f"block of length {len(b)}, expected {n}")
        check_unit(b)
    exact = all(is_exact_scalar(x) for b in pre + rep for x in b)
    blocks = InducingBlocks(pre, rep)
    block = blocks.at
    paths = {(): 1}

    def path_product(J: Word):
        # z_J = z_{J minus its last letter} z^(|J|)_{last letter}, memoized by prefix
        known = len(J)
        while J[:known] not in paths:
            known -= 1
        out = paths[J[:known]]
        for t in range(known, len(J)):
            out = out * block(t + 1)[J[t] - 1]
            paths[J[:t + 1]] = out
        return out

    def evaluator(J: Word, K: Word):
        if len(J) != len(K):
            return QQi(0) if exact else 0j
        return conj(path_product(J)) * path_product(K)

    seq = IsometrySequence(
        lambda i: CuntzElement(n, {((j,), ()): block(i)[j - 1] for j in range(1, n + 1)}),
        "proved",
        "row isometries a_i = sum_j z^(i)_j s_j of the inducing sequence",
    )
    facts = StateFacts(
        purity=("NotPure", "the inducing sequence is eventually periodic: a shift by one full cycle "
                           "aligns it with itself, the overlap series converges, and the state decomposes"),
        induced=blocks,
        sequence=seq,
    )
    return MomentFunctional(n, "induced_product", evaluator, facts=facts, exact=exact)


# ---------------------------------------------------------------------------
# Mixtures and transforms
# ---------------------------------------------------------------------------


def make_mixture(states: Sequence[MomentFunctional], weights) -> MomentFunctional:
    if len(states) < 2:
        raise SchemaError("a mixture needs at least two components")
    n = states[0].n
    if any(s.n != n for s in states):
        raise SchemaError("mixture components live over different algebras")
    weights = list(weights)
    if len(weights) != len(states):
        raise SchemaError("weights do not match components")
    total = sum(weights)
    ok = total == 1 if all(is_exact_scalar(w) for w in weights) else abs(complex(total) - 1) <= DEFAULT_EQ_TOL
    if not ok or any(complex(w).real <= 0 for w in weights):
        raise SchemaError("weights must be positive and sum to 1")
    exact = all(s.exact for s in states) and all(is_exact_scalar(w) for w in weights)

    def evaluator(J: Word, K: Word):
        return sum((w * s.lookup(J, K) for w, s in zip(weights, states)), 0)

    facts = StateFacts(purity=("NotPure", "constructed as an explicit convex mixture"))
    return MomentFunctional(n, "mixture", evaluator, facts=facts, exact=exact)


def transform_gauge(omega: MomentFunctional, g) -> MomentFunctional:
    """The state omega o alpha_g for the gauge automorphism alpha_g(s_i) = sum_j g_ji s_j.

    From its base the twist inherits only the Cuntz parameter, moved by g^H
    (alpha_g is inverted by alpha of the conjugate transpose), and the purity
    verdict; everything else classify derives through ``facts.twist``.
    """
    n = omega.n
    check_unitary(g, n)
    g = tuple(tuple(row) for row in g)
    exact = omega.exact and all(is_exact_scalar(x) for row in g for x in row)

    image = cache(lambda J: gauge_image(g, J))

    def evaluator(J: Word, K: Word):
        return omega.moment_of_pair(image(J), image(K))

    base = omega.facts
    cuntz = None
    if base.cuntz is not None:
        z, provenance = base.cuntz
        cuntz = (tuple(mat_vec(hermitian_transpose(g), list(z))), provenance)
    verdict, reason = base.purity
    if verdict != "Unknown":
        reason += "; composition with a gauge automorphism preserves purity"
    facts = StateFacts(purity=(verdict, reason), cuntz=cuntz, twist=(omega, g))
    return MomentFunctional(n, "gauge", evaluator, facts=facts, exact=exact)


def transform_sandwich(
    omega: MomentFunctional,
    terms: Sequence[tuple[object, CuntzElement]],
    tail_bound=0,
    *,
    equivalent_to_cuntz=None,
) -> MomentFunctional:
    """The functional x -> sum_{l,l'} conj(c_l) c_l' omega(A_l* x A_l').

    ``terms`` is a finite list of (c_l, A_l), read as A Omega with
    A = sum_l c_l A_l in the cyclic representation of the base state; A and
    A* are built once, so each moment is the one product omega(A* s_J s_K* A).

    With ``tail_bound`` 0 the list is the whole sum, so the constructor
    evaluates the mass omega'(I) and refuses (TailNotCertified) unless it
    equals 1.  A positive ``tail_bound`` declares the list a truncation of a
    longer series and certifies ||(A - A_given) Omega|| <= tail_bound; every
    moment of a word pair then carries the error bound

        truncation_error = tail_bound^2 + 2 sqrt(mass) tail_bound,

    recorded in a warning, and the mass check is relaxed to
    |sqrt(mass) - 1| <= tail_bound.  A user-supplied ``equivalent_to_cuntz``
    parameter (a unit vector of length n) is recorded with provenance "user";
    the equivalence itself is not verified.  A unit vector state of an
    irreducible representation is pure, so the sandwich is decided pure when
    its base is; over any other base nothing follows.
    """
    n = omega.n
    terms = [(c, Al) for c, Al in terms]
    for _, Al in terms:
        if Al.n != n:
            raise SchemaError("sandwich element over a different algebra")
    tail = float(tail_bound)
    if tail < 0:
        raise SchemaError("tail_bound must be nonnegative")
    if equivalent_to_cuntz is not None:
        if len(equivalent_to_cuntz) != n:
            raise SchemaError(f"equivalent_to_cuntz needs {n} entries, got {len(equivalent_to_cuntz)}")
        check_unit(equivalent_to_cuntz)
    exact = omega.exact and all(is_exact_scalar(c) for c, _ in terms) and tail == 0

    A = sum((c * Al for c, Al in terms), zero(n))
    A_star = adjoint(A)

    def evaluator(J: Word, K: Word):
        return omega.moment_of_element(multiply(multiply(A_star, monomial(n, J, K)), A))

    mass = evaluator((), ())
    warnings: list[str] = []
    if tail == 0:
        if is_exact_scalar(mass):
            if mass != 1:
                raise TailNotCertified(f"transform has total mass {mass}, expected 1")
        elif abs(complex(mass) - 1) > DEFAULT_EQ_TOL:
            raise TailNotCertified(f"transform has total mass {complex(mass)}, expected 1")
    else:
        root = sqrt(max(float(complex(mass).real), 0.0))
        if abs(root - 1) > tail + DEFAULT_EQ_TOL:
            raise TailNotCertified(
                f"partial mass {complex(mass)} is not within the declared tail bound of a unit vector"
            )
        truncation_error = tail * tail + 2 * root * tail
        warnings.append(
            f"moments carry a truncation error of at most {format_float(truncation_error)}"
        )

    facts = StateFacts(
        purity=("Pure", _PURE_IN_PURE) if omega.facts.purity[0] == "Pure" else _UNKNOWN_PURITY,
        cuntz=(tuple(equivalent_to_cuntz), "user") if equivalent_to_cuntz is not None else None,
    )
    return MomentFunctional(n, "sandwich", evaluator, facts=facts, exact=exact, warnings=warnings)


def make_split_series_sandwich() -> MomentFunctional:
    """The series sandwich sum_l 2^-l omega(A_l* . A_l), A_l = s_2^{l-1} s_1 s_2^l,
    over the Cuntz state by (1, 0) on O_2.

    In the permutative model of the base state, A Omega = sum_l 2^{-l/2} e_{x_l}
    with x_l = 2^{l-1} 1 2^l 1 1 1 ...; two shifted tails of x_l and x_{l'} can
    only agree when l = l' (the positions of the letter 1 pin l), so the moments
    collapse to the diagonal series

        omega'(s_J s_K*) = sum_l 2^-l [x_l starts J][x_l starts K]
                                      [shift^{|J|} x_l = shift^{|K|} x_l],

    which has an exact dyadic value: finitely many l plus a geometric tail that
    only survives when J = K is a power of the letter 2.
    """
    n = 2

    # x_l and its tails are built once per state, not once per moment
    @cache
    def x_word(l: int) -> EventuallyPeriodicWord:
        return EventuallyPeriodicWord((2,) * (l - 1) + (1,) + (2,) * l, (1,), n)

    @cache
    def x_tail(l: int, t: int) -> EventuallyPeriodicWord:
        return x_word(l).shift_by(t)

    def evaluator(J: Word, K: Word):
        lcut = max(len(J), len(K), 1) + 1
        total = Fraction(0)
        for l in range(1, lcut):
            x = x_word(l)
            if x.starts_with(J) and x.starts_with(K) and x_tail(l, len(J)) == x_tail(l, len(K)):
                total += Fraction(1, 2**l)
        if len(J) == len(K) and set(J) <= {2} and set(K) <= {2} and J == K:
            total += Fraction(1, 2 ** (lcut - 1))
        return QQi(total)

    facts = StateFacts(purity=("Pure", _PURE_IN_PURE), cuntz=((QQi(1), QQi(0)), "family"))
    return MomentFunctional(n, "sandwich_series", evaluator, facts=facts)


# ---------------------------------------------------------------------------
# Sanity gate
# ---------------------------------------------------------------------------


def positivity_check(omega: MomentFunctional, level: int = 2):
    """PSD check of the Gram matrix of {pi(s_J)* Omega : |J| <= level}.

    Returns (ok, min_eigenvalue_estimate), as ``hermitian_psd_check`` does:
    the estimate is a float numpy eigenvalue for a float state and for an
    exact state that fails, and None for an exact state that passes.
    """
    words = list(words_upto(omega.n, level))
    return hermitian_psd_check(gram_matrix(omega, words))
