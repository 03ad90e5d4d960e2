"""Finitely correlated presentations (d, A_1..A_n, Omega, metric) of states.

When the conjugate-cyclic subspace K = span{pi(s_J)* Omega} of a state is
finite dimensional, the whole moment functional compresses to finitely many
numbers: a basis of K, the Gram metric G of that basis, the coordinate vector
of Omega, and the matrices A_i representing pi(s_i)*|_K.  Moments come back
through

    omega(s_J s_K*) = <A_J Omega, A_K Omega>_G,   A_J = A_{j_l} ... A_{j_1},

where the first letter of J acts first.  A presentation is therefore a
:class:`~cuntzlab.moments.VectorModel` (``FCSPresentation.model``): Omega
stepped by v -> A_i v, read through <a, G b>.  The Cuntz relation
sum_i s_i s_i* = I survives the compression as sum_i A_i^H G A_i = G, which
doubles as the validation identity for extracted presentations.

The matrices are read off the Gram growth that found the basis
(:func:`~cuntzlab.classify.gram_growth`): the growth scored every child
p + (i,) of a pivot p and kept its forward solve against the factor
G = L D L*, so column p of A_i is a unit vector when the child became a
pivot, and otherwise that forward solve, continued along the pivots admitted
after the child was dropped, and one back substitution.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .classify import GramGrowth, LowerBoundOnly, gram_growth
from .errors import ValidationFailed
from .linalg import hermitian_transpose, mat_mul
from .moments import MomentFunctional, VectorModel
from .scalars import conj, scalars_close

__all__ = [
    "FCSPresentation",
    "presentation",
    "extract_fcs",
    "check_row_isometry",
]

_ROUND_TRIP_SEED = 271828
_ROUND_TRIP_COUNT = 20


class FCSPresentation(NamedTuple):
    """A state compressed to its conjugate-cyclic subspace.

    ``A[i-1]`` is the d x d matrix of pi(s_i)* in the pivot-word basis,
    ``omega`` the coordinate vector of the cyclic vector (the empty word's
    basis vector), and ``metric`` the Hermitian positive-definite Gram matrix
    of the basis.  The metric is kept explicit instead of orthonormalizing so
    exact presentations stay exact (orthonormalization needs square roots).
    """

    d: int
    A: tuple
    omega: tuple
    metric: tuple
    pivot_words: tuple = ()
    level: int | None = None

    def model(self) -> VectorModel:
        """The presented state as a vector model: it starts at Omega, steps
        v -> A_i v and reads <a, G b>.  Zero products are skipped, as exact
        presentations are often sparse; the sums start at the metric's zero,
        so a float presentation's values stay floats."""
        A, metric, d = self.A, self.metric, self.d
        zero = metric[0][0] * 0

        def apply(rows, v: list) -> list:
            nz = [(j, x) for j, x in enumerate(v) if x]
            return [sum([row[j] * x for j, x in nz if row[j]], zero) for row in rows]

        def inner(a: list, b: list):
            return sum((conj(x) * y for x, y in zip(a, apply(metric, b)) if x and y), zero)

        def combine(pairs) -> list:
            return [sum((c * v[r] for c, v in pairs if v[r]), zero) for r in range(d)]

        return VectorModel(list(self.omega), lambda v, i: apply(A[i - 1], v), inner, combine)


def check_row_isometry(F: FCSPresentation) -> bool:
    """Whether sum_i A_i^H G A_i = G, the compressed Cuntz row relation."""
    total = [[0] * F.d for _ in range(F.d)]
    for A in F.A:
        term = mat_mul(hermitian_transpose(A), mat_mul(F.metric, A))
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, term)]
    return all(
        scalars_close(total[i][j], F.metric[i][j])
        for i in range(F.d)
        for j in range(F.d)
    )


def _back_solve(growth: GramGrowth, z: list) -> list:
    """x with L* x = D^-1 z, through the growth's factor G = L D L*: with z
    the forward solve L z = r of a right-hand side r, x solves G x = r in
    O(d^2).  Zero products are skipped; exact factors and columns are often
    sparse."""
    lower, dvals = growth.lower, growth.dvals
    d = len(dvals)
    x: list = [0] * d
    for k in reversed(range(d)):
        tail = (conj(lower[j][k]) * x[j] for j in range(k + 1, d) if x[j] and lower[j][k])
        x[k] = z[k] / dvals[k] - sum(tail, 0)
    return x


def _matrices(growth: GramGrowth, omega: MomentFunctional) -> tuple:
    """A_1..A_n, the matrices of pi(s_i)* on the pivot basis of ``omega``'s
    growth: column p of A_i solves G x = (omega(s_q s_{p i}*))_q over the
    pivots q.  The growth scored every child p + (i,) and kept its forward
    solve y (``GramGrowth.children``).  A child that became pivot k gets the
    k-th unit vector, in the mode's own one and zero.  A dropped child's
    forward solve continues along the pivots admitted after it was dropped,
    the only inner products read here, and one back substitution L* x =
    D^-1 y ends it.  They compress omega only when the growth has
    stabilized."""
    pivots, lower = growth.pivots, growth.lower
    d = len(pivots)
    index = {p: k for k, p in enumerate(pivots)}
    coords = dict(growth.children)
    moment = omega.model.moment
    one, zero = (Fraction(1), Fraction(0)) if omega.exact else (1.0, 0.0)
    out = []
    for i in range(1, omega.n + 1):
        cols = []
        for p in pivots:
            child = p + (i,)
            k = index.get(child)
            if k is not None:
                cols.append([one if j == k else zero for j in range(d)])
                continue
            z = list(coords[child])
            for k in range(len(z), d):
                r = moment(pivots[k], child)
                z.append(r - sum((lj * zj for lj, zj in zip(lower[k], z) if lj and zj), 0))
            cols.append(_back_solve(growth, z))
        out.append(tuple(zip(*cols)))
    return tuple(out)


def presentation(omega: MomentFunctional, growth: GramGrowth) -> FCSPresentation:
    """The presentation a stabilized Gram growth of ``omega`` proves.

    Once a level adds no pivots the pivot span is closed under every
    pi(s_i)* (new vectors only arise by one more letter), so the matrices
    A_i are filled in by solving the metric against the children's
    correlation vectors, read off the growth's record of each child's
    forward solve and its factor G = L D L* (``_matrices``).  ``growth``
    must therefore be a growth of ``omega`` itself, one that
    :func:`~cuntzlab.classify.gram_growth` memoized on it; any other raises
    ValueError.  The compressed row relation sum_i A_i^H G A_i = G is
    checked, exactly for an exact state; a failure raises ValidationFailed
    (in float mode this usually signals tolerance trouble; rerun in exact
    mode).
    """
    if not any(growth is g for g in omega._growths.values()):
        raise ValueError("the growth was not grown from this state; pass gram_growth(omega)")
    pivots = growth.pivots
    F = FCSPresentation(
        d=len(pivots),
        A=_matrices(growth, omega),
        omega=tuple(1 if j == 0 else 0 for j in range(len(pivots))),
        metric=tuple(map(tuple, omega.model.gram(pivots))),
        pivot_words=pivots,
        level=growth.last_level,
    )
    if not check_row_isometry(F):
        raise ValidationFailed(
            "the compressed row relation sum_i A_i^H G A_i = G fails; "
            "in float mode this usually signals tolerance trouble (rerun exact)"
        )
    return F


def extract_fcs(omega: MomentFunctional, L_max: int = 8):
    """Compress a moment functional to an FCSPresentation, or report the rank.

    The Gram of {pi(s_J)* Omega} is grown level by level with greedy
    largest-residual pivoting (lexicographic tie-break).  Once it stabilizes,
    ``presentation`` solves the matrices and checks the row relation, and
    twenty seeded random moment round-trips, read off one model of the
    presentation, validate the result against the source's model; a failure
    raises ValidationFailed (in float mode this usually signals tolerance
    trouble; rerun in exact mode).  If the rank is still growing at L_max
    the rank bound is returned as a LowerBoundOnly value instead; a level
    cap below 1 is refused by ``gram_growth``.
    """
    growth = gram_growth(omega, L_max)
    d = len(growth.pivots)
    if not growth.stabilized:
        return LowerBoundOnly(
            d,
            level=growth.last_level,
            note="the Gram rank was still growing at the level cap; "
            "the state is not finitely correlated within reach",
        )

    F = presentation(omega, growth)
    model, source = F.model(), omega.model
    rng = random.Random(_ROUND_TRIP_SEED)
    max_len = min(growth.last_level + 2, L_max + 2)
    for _ in range(_ROUND_TRIP_COUNT):
        J = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
        K = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
        if not scalars_close(model.moment(J, K), source.moment(J, K)):
            raise ValidationFailed(
                f"moment round-trip mismatch at J={J}, K={K}; "
                "in float mode this usually signals tolerance trouble (rerun exact)"
            )
    return F
