"""Finitely correlated presentations (d, A_1..A_n, Omega, metric) of states.

When the conjugate-cyclic subspace K = span{pi(s_J)* Omega} of a state is
finite dimensional, the whole moment functional compresses to finitely many
numbers: a basis of K, the Gram metric G of that basis, the coordinate vector
of Omega, and the matrices A_i representing pi(s_i)*|_K.  Moments come back
through

    omega(s_J s_K*) = <A_J Omega, A_K Omega>_G,   A_J = A_{j_l} ... A_{j_1},

where the first letter of J acts first.  The Cuntz relation sum_i s_i s_i* = I
survives the compression as sum_i A_i^H G A_i = G, which doubles as the
validation identity for extracted presentations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classify import LowerBoundOnly, gram_growth
from .errors import SchemaError, ValidationFailed
from .linalg import hermitian_transpose, mat_mul, mat_vec, rank
from .moments import MomentFunctional
from .scalars import conj, scalars_close
from .words import Word, check_word

__all__ = [
    "FCSPresentation",
    "fcs_moment",
    "orbit_closure_cdim",
    "extract_fcs",
    "check_row_isometry",
]

_ROUND_TRIP_SEED = 271828
_ROUND_TRIP_COUNT = 20


@dataclass(frozen=True)
class FCSPresentation:
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

    @property
    def n(self) -> int:
        return len(self.A)


def _vector_of(F: FCSPresentation, J: Word):
    vec = list(F.omega)
    for letter in J:
        vec = mat_vec(F.A[letter - 1], vec)
    return vec


def fcs_moment(F: FCSPresentation, J: Word, K: Word = ()):
    """omega(s_J s_K*) = <A_J Omega, A_K Omega>_G (linear in the second word)."""
    J = check_word(J, F.n)
    K = check_word(K, F.n)
    left = _vector_of(F, J)
    right = mat_vec(F.metric, _vector_of(F, K))
    return sum((conj(a) * b for a, b in zip(left, right)), 0)


def orbit_closure_cdim(F: FCSPresentation) -> int:
    """Dimension of span{A_J Omega : all words J}, by breadth-first closure.

    S_{L+1} = S_L + sum_i A_i S_L grows strictly until stationary and is then
    stationary forever; the loop asserts that and stops within d steps.
    """
    vectors = [list(F.omega)]
    dim = rank(vectors)
    frontier = [list(F.omega)]
    while frontier:
        children = [mat_vec(A, v) for v in frontier for A in F.A]
        new_dim = rank(vectors + children)
        if new_dim < dim:
            raise ValidationFailed("orbit span dimension decreased; the metric or matrices are inconsistent")
        if new_dim == dim:
            break
        vectors += children
        frontier = children
        dim = new_dim
        if dim > F.d:
            raise ValidationFailed("orbit span exceeded the ambient dimension")
    return dim


def check_row_isometry(F: FCSPresentation) -> bool:
    """Whether sum_i A_i^H G A_i = G, the compressed Cuntz row relation."""
    total = None
    for A in F.A:
        term = mat_mul(mat_mul(hermitian_transpose(A), list(map(list, F.metric))), A)
        total = term if total is None else [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, term)
        ]
    return all(
        scalars_close(total[i][j], F.metric[i][j])
        for i in range(F.d)
        for j in range(F.d)
    )


def extract_fcs(omega: MomentFunctional, L_max: int = 8):
    """Compress a moment functional to an FCSPresentation, or report the rank.

    The Gram of {pi(s_J)* Omega} is grown level by level with greedy
    largest-residual pivoting (lexicographic tie-break).  Once a level adds no
    pivots the subspace is closed under every pi(s_i)* (new vectors only arise
    by one more letter), so the matrices A_i are filled in by solving the
    metric against the children's correlation vectors, each column by two
    triangular solves through the growth's factor G = L D L*.  The result is
    validated twice -- the compressed row relation sum_i A_i^H G A_i = G and
    twenty seeded random moment round-trips against the source -- and a
    failure raises ValidationFailed (in float mode this usually signals
    tolerance trouble; rerun in exact mode).  If the rank is still growing at
    L_max the rank bound is returned as a LowerBoundOnly value instead.
    """
    if L_max < 1:
        raise SchemaError(f"the level cap must be at least 1, got {L_max}")
    growth = gram_growth(omega, L_max)
    d = len(growth.pivots)
    if not growth.stabilized:
        return LowerBoundOnly(
            d,
            level=growth.last_level,
            note="the Gram rank was still growing at the level cap; "
            "the state is not finitely correlated within reach",
        )

    pivots = growth.pivots
    gram = growth.gram
    matrices = []
    for i in range(1, omega.n + 1):
        cols = []
        for p in pivots:
            rhs = [omega.lookup(q, p + (i,)) for q in pivots]
            cols.append(growth.solve(rhs))
        matrices.append(tuple(tuple(cols[j][r] for j in range(d)) for r in range(d)))

    F = FCSPresentation(
        d=d,
        A=tuple(matrices),
        omega=tuple(1 if j == 0 else 0 for j in range(d)),
        metric=gram,
        pivot_words=pivots,
        level=growth.last_level,
    )

    if not check_row_isometry(F):
        raise ValidationFailed(
            "the compressed row relation sum_i A_i^H G A_i = G fails; "
            "in float mode this usually signals tolerance trouble (rerun exact)"
        )
    rng = random.Random(_ROUND_TRIP_SEED)
    max_len = min(growth.last_level + 2, L_max + 2)
    for _ in range(_ROUND_TRIP_COUNT):
        J = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
        K = tuple(rng.randint(1, omega.n) for _ in range(rng.randint(0, max_len)))
        if not scalars_close(fcs_moment(F, J, K), omega.lookup(J, K)):
            raise ValidationFailed(
                f"moment round-trip mismatch at J={J}, K={K}; "
                "in float mode this usually signals tolerance trouble (rerun exact)"
            )
    return F
