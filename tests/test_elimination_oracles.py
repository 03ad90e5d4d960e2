"""Exact elimination against independent oracles, and its float twin.

The oracle is sympy (``nullspace``, ``rank``, ``det``, ``LUsolve``,
``gauss_jordan_solve``, ``is_positive_semidefinite`` and
``DomainMatrix.rref_den``).  Outputs must agree entry by entry, not only
as spans: the nullspace basis built from the reduced echelon form is unique.
The exact PSD verdict must agree with sympy's on drawn Hermitian matrices,
and each way the L D L* stream can refuse a matrix has a pinned case.
``LDLFactor`` itself, grown on drawn Hermitian PSD matrices, must take
sympy's rank in pivots, with the product of its D equal to the determinant
of the pivots' Gram minor, and ``mat_vec`` must agree with sympy on exact
matrices and numpy on a float one.  Its exact steps run on integer
triples; ``reference_ldl`` grows the same Grams greedily, as
``classify._grow`` does, with the rational loop the factor ran before, and
every candidate's y and res2 and the factor's pivots, lower and dvals must
equal it in value and in type, on Grams of int, Fraction and QQi entries
with tied and zero rows.  On float Grams whose first entry is the int 1,
as a float state with omega(1) = 1 gives, the pivots must agree and the
residuals lie within 1e-12.  ``kernel_basis`` reduces one connected
block of columns at a time: on shuffled block-diagonal matrices, given as
list rows and as mapping rows, it must return sympy's nullspace vector for
vector, and its float twin must span what a dense SVD's kernel spans.

Every linear system is read off ``kernel_basis``, so ``rank``, ``solve``
and ``min_norm_solution`` are checked against sympy in exact mode, and
their float twins against the exact answers: the float rank of each named
case equals its exact rank, every float singular system raises, and every
float minimum-norm case lies within 1e-12 of its exact answer, although
its orthonormal kernel can hold several vectors that do not end in 0.  An
exact block of ``kernel_basis`` is reduced in Markowitz order, which frees
other columns than the reduced echelon form does, and its basis is then
restored to the reduced-echelon one.  Sparse systems with kernels of
dimension two or more must give sympy's nullspace, a pinned case frees
other columns, and ``reference_exact_kernel``, sympy's per-block reduced
echelon form, must give the same basis on every fixed-point system that
building the golden code, progression and mixture states and the
benchmark's heavy exact states solves.
"""

import json
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from cuntzlab import Inconsistent, QQi, linalg, moments
from cuntzlab.linalg import (
    _MARKOWITZ,
    LDLFactor,
    _integral,
    _sparse_reduce,
    hermitian_psd_check,
    kernel_basis,
    mat_vec,
    min_norm_solution,
    rank,
    solve,
)
from cuntzlab.scalars import DEFAULT_RANK_TOL, abs2, conj, gaussian_parts
from cuntzlab.specio import state_from_spec
from cuntzlab.words import words_upto


def to_sympy(rows):
    def entry(x):
        if isinstance(x, QQi):
            return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
                x.im.numerator, x.im.denominator)
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    return sympy.Matrix([[entry(x) for x in row] for row in rows])


def from_sympy(x):
    re, im = sympy.expand(sympy.radsimp(x)).as_real_imag()
    return QQi(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def as_qqi(vector):
    return [x if isinstance(x, QQi) else QQi(x) for x in vector]


F = Fraction
ZERO_ROWS = [[F(1), F(2), F(0)], [F(0), F(0), F(0)], [F(3), F(-1), F(5)], [F(0), F(0), F(0)]]
ALL_ZERO = [[F(0)] * 4 for _ in range(3)]
DUPLICATED = [[F(1, 2), F(1), F(-3)], [F(2), F(0), F(1, 3)], [F(1, 2), F(1), F(-3)]]
RANK_DEFICIENT = [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]]
GAUSSIAN = [[QQi(1, 1), QQi(0, 2), QQi(F(1, 2))], [QQi(2), QQi(-2, 2), QQi(F(1, 2), F(1, 2))],
            [QQi(0), QQi(0), QQi(0)], [QQi(3, 1), QQi(-2, 4), QQi(1, F(1, 2))]]
MIXED = [[1, QQi(0, 1), F(2, 3)], [QQi(2, -1), 0, 1], [F(1, 3), QQi(1, 1), 0]]
CASES = {"zero_rows": ZERO_ROWS, "all_zero": ALL_ZERO, "duplicated_rows": DUPLICATED,
         "rank_deficient_square": RANK_DEFICIENT, "gaussian": GAUSSIAN, "mixed_types": MIXED}

entries = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
gaussian_entries = st.one_of(st.just(QQi(0)), st.builds(QQi, entries, entries))


def matrices(elements, largest=5):
    return st.integers(1, largest).flatmap(lambda m: st.integers(1, largest).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=m, max_size=m)))


def as_float(rows):
    """The float twin of an exact matrix: complex entries when some entry is a QQi."""
    gaussian = any(isinstance(x, QQi) for row in rows for x in row)
    return [[complex(x) if gaussian else float(x) for x in row] for row in rows]


def assert_matches_sympy(rows):
    ncols = len(rows[0])
    assert rank(rows) == to_sympy(rows).rank()
    basis = kernel_basis(rows, ncols)
    assert [as_qqi(v) for v in basis] == [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_match_sympy(name):
    assert_matches_sympy(CASES[name])
    assert rank(as_float(CASES[name])) == rank(CASES[name])


@given(matrices(entries))
def test_rational_matrices_match_sympy(rows):
    assert_matches_sympy(rows)


@given(matrices(gaussian_entries))
def test_gaussian_matrices_match_sympy(rows):
    assert_matches_sympy(rows)




@pytest.mark.parametrize("name", ["rank_deficient_square", "duplicated_rows", "all_zero"])
def test_singular_square_systems_raise(name):
    rows = [r[:3] for r in CASES[name][:3]]
    for a in (rows, as_float(rows)):
        with pytest.raises(Inconsistent):
            solve(a, [1, 2, 3])


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(st.lists(gaussian_entries, min_size=d, max_size=d), min_size=d, max_size=d),
    st.lists(gaussian_entries, min_size=d, max_size=d))))
def test_solve_matches_sympy(system):
    a, b = system
    A, B = to_sympy(a), to_sympy([[x] for x in b])
    if A.rank() < len(a):
        with pytest.raises(Inconsistent):
            solve(a, b)
        return
    expected = [from_sympy(x) for x in A.LUsolve(B)]
    assert as_qqi(solve(a, b)) == expected


def test_exact_solution_of_an_int_system_holds_no_float():
    # the kernel vector of [a | -b] ends in the int 1, which must not turn
    # its int entries into floats by a division
    x = solve([[1, 0], [0, 1]], [0, 1])
    assert x == [0, 1] and not any(isinstance(v, float) for v in x)


@pytest.mark.parametrize("b", [[1.0, 2.0], [1.0, 3.0]], ids=["consistent", "inconsistent"])
def test_float_singular_systems_raise(b):
    # the kernel vector of [a | -b] for the inconsistent b ends in about 1e-16
    with pytest.raises(Inconsistent):
        solve([[1.0, 2.0], [2.0, 4.0]], b)


def min_norm_oracle(basis, constraint_rows, rhs):
    """The element x of span(basis) with C x = rhs orthogonal to every
    direction in span(basis) that C annihilates, solved by sympy."""
    W = to_sympy(basis).T
    A = to_sympy(constraint_rows) * W
    free = [W * v for v in A.nullspace()]
    lhs = A.col_join(sympy.Matrix.vstack(*[(f.H * W) for f in free])) if free else A
    target = to_sympy([[x] for x in rhs]).col_join(sympy.zeros(len(free), 1))
    sol, params = lhs.gauss_jordan_solve(target)
    x = W * sol.subs({p: 0 for p in params})
    return [from_sympy(v) for v in x]


MIN_NORM_CASES = {
    "affine_line": ([[F(1), F(0)], [F(0), F(1)]], [[F(1), F(1)]], [1]),
    "redundant_constraints": ([[F(1), F(0), F(1)], [F(0), F(1), F(1)]], [[F(1), F(0), F(0)], [F(2), F(0), F(0)]],
                              [2, 4]),
    "zero_constraint_row": ([[F(1), F(2), F(0)], [F(0), F(1), F(-1)]], [[F(0)] * 3, [F(1), F(1), F(1)]], [0, 3]),
    "kernel_of_rank_deficient": (kernel_basis(RANK_DEFICIENT + [[F(0)] * 3], 3) + [[F(0), F(1), F(0)]],
                                 [[F(1), F(0), F(0)]], [1]),
    "gaussian": ([[QQi(1), QQi(0, 1), QQi(0)], [QQi(0), QQi(1), QQi(1, -1)]], [[QQi(1), QQi(1), QQi(0)]],
                 [QQi(0, 2)]),
}


@pytest.mark.parametrize("name", sorted(MIN_NORM_CASES))
def test_min_norm_solution_matches_sympy(name):
    basis, constraints, rhs = MIN_NORM_CASES[name]
    assert as_qqi(min_norm_solution(basis, constraints, rhs)) == min_norm_oracle(basis, constraints, rhs)


@pytest.mark.parametrize("name", sorted(MIN_NORM_CASES))
def test_float_min_norm_solution_is_the_exact_one(name):
    # the float kernel of [C B | -rhs] is orthonormal: several of its vectors
    # can end in a nonzero entry, and each must lose its multiple of p
    basis, constraints, rhs = MIN_NORM_CASES[name]
    exact = min_norm_solution(basis, constraints, rhs)
    got = min_norm_solution(as_float(basis), as_float(constraints), as_float([rhs])[0])
    assert all(isinstance(x, (float, complex)) for x in got)
    assert max(abs(complex(x) - complex(y)) for x, y in zip(got, exact)) < 1e-12


def test_min_norm_solution_of_the_solver_system():
    # the fixed-point table slice v_empty = 1 of a two-dimensional kernel,
    # as solve_low_moments poses it: constraints pick coordinates 0 and 1
    basis = [[F(1), F(0), F(1, 2), F(0)], [F(0), F(0), F(1), F(1)]]
    constraints = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert as_qqi(min_norm_solution(basis, constraints, [1, 0])) == min_norm_oracle(basis, constraints, [1, 0])


def sympy_psd(g):
    """sympy's verdict on the Hermitian g.  A Gaussian matrix H = A + iB goes
    in as its real form [[A, -B], [B, A]], PSD exactly when H is: sympy's
    Cholesky leaves complex radicals it cannot sign, and answers None."""
    h = to_sympy(g)
    if any(x.has(sympy.I) for x in h):
        a, b = h.applyfunc(sympy.re), h.applyfunc(sympy.im)
        h = sympy.BlockMatrix([[a, -b], [b, a]]).as_explicit()
    verdict = h.is_positive_semidefinite
    assert verdict is not None
    return verdict


def gram_of_rows(b):
    """B B*: Hermitian and PSD, of rank at most the width of B."""
    return [[sum((x * conj(y) for x, y in zip(ri, rj)), 0) for rj in b] for ri in b]


def low_rank_factors(elements):
    """B with d rows and fewer columns than rows (one column when d = 1)."""
    return st.integers(1, 4).flatmap(lambda d: st.integers(1, max(1, d - 1)).flatmap(
        lambda k: st.lists(st.lists(elements, min_size=k, max_size=k), min_size=d, max_size=d)))


def perturbed(g, i, j, t):
    """g with t added at (i, j) and conj(t) at (j, i); on the diagonal,
    |Re t| is subtracted, so a diagonal entry only goes down."""
    g = [list(row) for row in g]
    if i == j:
        t = t.re if isinstance(t, QQi) else t
        g[i][i] = g[i][i] - abs(t)
    else:
        g[i][j] = g[i][j] + t
        g[j][i] = g[j][i] + conj(t)
    return g


def perturbations(elements):
    return low_rank_factors(elements).flatmap(lambda b: st.tuples(
        st.just(gram_of_rows(b)), st.integers(0, len(b) - 1), st.integers(0, len(b) - 1), elements))


int_entries = st.integers(-4, 4)


@settings(max_examples=60)
@given(low_rank_factors(entries))
def test_psd_of_rank_deficient_rational_grams_matches_sympy(b):
    g = gram_of_rows(b)
    assert hermitian_psd_check(g)[0] is sympy_psd(g) is True


@settings(max_examples=30)
@given(low_rank_factors(gaussian_entries))
def test_psd_of_rank_deficient_gaussian_grams_matches_sympy(b):
    g = gram_of_rows(b)
    assert hermitian_psd_check(g)[0] is sympy_psd(g) is True


@settings(max_examples=60)
@given(perturbations(entries))
def test_psd_of_perturbed_rational_grams_matches_sympy(case):
    g = perturbed(*case)
    assert hermitian_psd_check(g)[0] == sympy_psd(g)


@settings(max_examples=30)
@given(perturbations(gaussian_entries))
def test_psd_of_perturbed_gaussian_grams_matches_sympy(case):
    g = perturbed(*case)
    assert hermitian_psd_check(g)[0] == sympy_psd(g)


@settings(max_examples=60)
@given(perturbations(int_entries))
def test_psd_of_int_matrices_matches_sympy(case):
    # int entries, as the level-2 gate sees from a functional returning ints
    g = perturbed(*case)
    assert hermitian_psd_check(g)[0] == sympy_psd(g)


# each way the exact stream refuses a matrix: rows are scored in order, a
# positive residual makes a pivot, a zero residual a null row
PSD_REFUSALS = {
    # row 1 has zero diagonal but couples to pivot 0: its residual is -1
    "zero_diagonal_with_a_coupling": [[1, 1], [1, 0]],
    # row 1 is null against pivot 0; pivot 2 gives it the coordinate 1
    "null_row_coupled_to_a_later_pivot": [[1, 1, 1], [1, 1, 2], [1, 2, 3]],
    # rows 1 and 2 are null against pivot 0, with Schur coupling 2 - 1
    "two_coupled_null_rows": [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
    # no pivot at all: two zero diagonals joined by an entry
    "two_coupled_zero_rows": [[F(0), F(1, 2)], [F(1, 2), F(0)]],
}


@pytest.mark.parametrize("name", sorted(PSD_REFUSALS))
def test_psd_refusals_match_sympy(name):
    g = PSD_REFUSALS[name]
    assert sympy_psd(g) is False
    ok, witness = hermitian_psd_check(g)
    assert not ok and witness < 0


def test_psd_refuses_a_non_real_diagonal():
    # 1 + i on the diagonal: its real part alone would pass
    assert hermitian_psd_check([[QQi(1), QQi(0)], [QQi(0), QQi(1, 1)]])[0] is False


@settings(max_examples=40)
@given(st.one_of(low_rank_factors(entries), low_rank_factors(gaussian_entries)))
def test_ldl_factor_of_psd_grams_matches_sympy(b):
    # every candidate with a positive residual is admitted, as the PSD stream does
    g = gram_of_rows(b)
    factor = LDLFactor(lambda i, j: g[i][j])
    for k in range(len(g)):
        c = factor.score(k)
        if factor.admissible(c):
            factor.admit(c)
    assert len(factor.pivots) == to_sympy(g).rank()
    minor = to_sympy([[g[i][j] for j in factor.pivots] for i in factor.pivots])
    assert from_sympy(minor.det()) == QQi(prod(factor.dvals))


def real_part(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x.re if isinstance(x, QQi) else complex(x).real


class RationalLDL:
    """``LDLFactor``'s interface over the loop it ran before its exact steps
    went to integer triples: every step in the scalars' own arithmetic."""

    rank_tol = DEFAULT_RANK_TOL

    def __init__(self, inner):
        self.inner = inner
        self.pivots, self.lower, self.dvals = [], [], []

    def score(self, item):
        diag = real_part(self.inner(item, item))
        c = SimpleNamespace(item=item, y=[], diag=diag, res2=diag)
        self.catch_up(c)
        return c

    def catch_up(self, c):
        for k in range(len(c.y), len(self.pivots)):
            v = self.inner(self.pivots[k], c.item) - sum((lj * yj for lj, yj in zip(self.lower[k], c.y)), 0)
            c.y.append(v)
            c.res2 = c.res2 - abs2(v) / self.dvals[k]

    def admissible(self, c):
        if isinstance(c.res2, Fraction):
            return c.res2 > 0
        return max(c.res2, 0.0) > self.rank_tol * max(1.0, c.diag)

    def admit(self, c):
        self.lower.append([conj(yj) / dj for yj, dj in zip(c.y, self.dvals)])
        self.dvals.append(c.res2)
        self.pivots.append(c.item)


def greedy(factor, levels):
    """Each level's items scored on ``factor`` and admitted as
    ``classify._grow`` admits them: largest residual first, ties (for a
    float residual, within the rank tolerance) to the first item.  Returns
    (every candidate's (item, y, res2) after each scoring and catch-up,
    pivots, lower, dvals)."""
    trace = []
    for items in levels:
        cands = [factor.score(item) for item in items]
        trace += [(c.item, list(c.y), c.res2) for c in cands]
        while cands := [c for c in cands if factor.admissible(c)]:
            best = max(cands, key=lambda c: c.res2)
            if not isinstance(best.res2, Fraction):
                floor = best.res2 - factor.rank_tol * max(1.0, best.diag)
                best = next(c for c in cands if c.res2 >= floor)
            cands.remove(best)
            factor.admit(best)
            for c in cands:
                factor.catch_up(c)
            trace += [(c.item, list(c.y), c.res2) for c in cands]
    return trace, factor.pivots, factor.lower, factor.dvals


def reference_ldl(g, split):
    """The greedy growth over the Hermitian g by the rational loop: rows
    before ``split`` form the first level, the others the second."""
    return greedy(RationalLDL(lambda i, j: g[i][j]), [range(split), range(split, len(g))])


def identical(a, b):
    """Equal in value and in type, entry by entry."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def retyped(x, form):
    """x as it is, as the narrowest of int, Fraction and QQi that holds it,
    or as a QQi."""
    if form == "as_is":
        return x
    a, b, d = gaussian_parts(x)
    if form == "qqi" or b:
        return QQi(Fraction(a, d), Fraction(b, d))
    return a if d == 1 else Fraction(a, d)


@st.composite
def psd_grams(draw, unit_first=False):
    """(B B*, split): rows of B of rank at most 3, each row of ints,
    Fractions or QQi, some rows repeated (tied candidates) and zero rows;
    each entry then kept, narrowed or made a QQi.  With ``unit_first`` the
    first row of B is e_1, so the Gram starts with the int 1."""
    k = draw(st.integers(1, 3))
    kinds = st.sampled_from([int_entries, entries, gaussian_entries])
    rows = draw(st.lists(kinds.flatmap(lambda e: st.lists(e, min_size=k, max_size=k)), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 1))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * k)
    if unit_first:
        rows.insert(0, [1] + [0] * (k - 1))
    g = gram_of_rows(rows)
    forms = st.sampled_from(["as_is", "narrow", "qqi"])
    g = [[retyped(x, draw(forms)) for x in row] for row in g]
    if unit_first:
        g[0][0] = 1
    return g, draw(st.integers(1, len(g)))


@settings(max_examples=150)
@given(psd_grams())
def test_ldl_factor_matches_the_rational_loop_entry_by_entry(case):
    g, split = case
    ours = greedy(LDLFactor(lambda i, j: g[i][j]), [range(split), range(split, len(g))])
    assert identical(ours, reference_ldl(g, split))


def close(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return abs(complex(a) - complex(b)) <= 1e-12


def floated(x, to_float):
    """A non-integer entry as a complex float; an integer one too when drawn."""
    a, b, d = gaussian_parts(x)
    return complex(x) if b or d != 1 or to_float else a


@settings(max_examples=80)
@given(psd_grams(unit_first=True).flatmap(lambda case: st.tuples(
    st.just(case), st.lists(st.booleans(), min_size=len(case[0]) ** 2, max_size=len(case[0]) ** 2))))
def test_float_gram_with_an_exact_first_pivot_follows_the_rational_loop(case):
    # as a float state whose omega(1) is the int 1 gives: the first pivot is
    # exact, and a step that meets a float continues on the float loop
    (g, split), to_float = case
    d = len(g)
    g = [[floated(x, to_float[i * d + j]) if (i, j) != (0, 0) else 1 for j, x in enumerate(row)]
         for i, row in enumerate(g)]
    trace, pivots, lower, dvals = greedy(LDLFactor(lambda i, j: g[i][j]), [range(split), range(split, d)])
    ref_trace, ref_pivots, ref_lower, ref_dvals = reference_ldl(g, split)
    assert pivots == ref_pivots
    assert [item for item, _, _ in trace] == [item for item, _, _ in ref_trace]
    assert close([[*y, res2] for _, y, res2 in trace], [[*y, res2] for _, y, res2 in ref_trace])
    assert close(lower, ref_lower) and close(dvals, ref_dvals)


@pytest.mark.parametrize("spec", [
    {"family": "cuntz", "z": [["3/5", 0], ["4/5", 0]]},
    {"family": "gauge", "base": {"family": "shift", "n": 2, "word": {"pre": [1], "per": [1, 2]}},
     "g": [[1, 0], [0, [0, 1]]]},
], ids=["cuntz", "gauge_shift"])
def test_float_state_with_an_exact_omega_one_follows_the_rational_loop(spec):
    # omega(1) is the int 1 or the Fraction 1 and every other moment a
    # complex float: the factor's first pivot is exact, the rest float
    omega = state_from_spec(spec, "float")
    levels = [[()], *([w for w in words_upto(2, L) if len(w) == L] for L in (1, 2, 3))]
    moment = omega.model.moment
    assert type(moment((), ())) in (int, Fraction)
    assert {type(moment(J, K)) for J in levels[1] for K in levels[2]} == {complex}
    trace, pivots, lower, dvals = greedy(LDLFactor(moment), levels)
    ref_trace, ref_pivots, ref_lower, ref_dvals = greedy(RationalLDL(moment), levels)
    assert pivots == ref_pivots
    assert close([[*y, res2] for _, y, res2 in trace], [[*y, res2] for _, y, res2 in ref_trace])
    assert close(lower, ref_lower) and close(dvals, ref_dvals)


@given(matrices(gaussian_entries).flatmap(lambda a: st.tuples(
    st.just(a), st.lists(gaussian_entries, min_size=len(a[0]), max_size=len(a[0])))))
def test_mat_vec_matches_sympy(case):
    a, v = case
    expected = [from_sympy(x) for x in to_sympy(a) * to_sympy([[x] for x in v])]
    assert as_qqi(mat_vec(a, v)) == expected


def test_mat_vec_of_a_float_matrix_matches_numpy():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    v = rng.standard_normal(3)
    assert np.abs(np.array(mat_vec(a.tolist(), v.tolist())) - a @ v).max() < 1e-12


def test_null_rows_that_stay_null_pass():
    # rows 1 and 3 repeat rows 0 and 2; row 4 is zero
    v = [[F(1), F(2)], [F(1), F(2)], [F(0), F(3)], [F(0), F(3)], [F(0), F(0)]]
    g = gram_of_rows(v)
    assert hermitian_psd_check(g) == (True, None)
    assert sympy_psd(g) is True


# The kernel is reduced one connected block of columns at a time.  These
# matrices are block diagonal up to a shuffle of their rows and columns, and
# come both as dense list rows and as sparse {column: entry} rows.


@st.composite
def block_diagonal(draw, elements):
    """(rows, ncols): 1-3 blocks of at most 3 x 3 entries and up to two
    columns no row touches, with rows and columns shuffled."""
    blocks = draw(st.lists(matrices(elements, largest=3), min_size=1, max_size=3))
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    order = draw(st.permutations(range(ncols)))
    rows, start = [], 0
    for b in blocks:
        for row in b:
            dense = [Fraction(0)] * ncols
            for j, x in enumerate(row):
                dense[order[start + j]] = x
            rows.append(dense)
        start += len(b[0])
    return draw(st.permutations(rows)), ncols


def as_mapping(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def assert_blocks_match_sympy(rows, ncols):
    assert rank(rows) == to_sympy(rows).rank()
    expected = [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]
    assert [as_qqi(v) for v in kernel_basis(rows, ncols)] == expected
    assert [as_qqi(v) for v in kernel_basis(as_mapping(rows), ncols)] == expected


def float_projector(basis, ncols):
    if not basis:
        return np.zeros((ncols, ncols))
    q, _ = np.linalg.qr(np.array(basis, dtype=complex).T)
    return q @ q.conj().T


def assert_float_twin_matches_dense_svd(rows, ncols):
    floats = [[complex(x) for x in row] for row in rows]
    _, s, vh = np.linalg.svd(np.array(floats))
    r = int(np.sum(s > DEFAULT_RANK_TOL * max(1.0, s[0])))
    expected = float_projector(list(vh[r:].conj()), ncols)
    for twin in (floats, as_mapping(floats)):
        basis = kernel_basis(twin, ncols)
        assert len(basis) == ncols - r
        assert np.abs(float_projector(basis, ncols) - expected).max() < 1e-12


@settings(max_examples=60)
@given(block_diagonal(entries))
def test_rational_block_diagonal_kernels_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=40)
@given(block_diagonal(gaussian_entries))
def test_gaussian_block_diagonal_kernels_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=60)
@given(block_diagonal(gaussian_entries))
def test_float_block_diagonal_kernels_match_dense_svd(case):
    assert_float_twin_matches_dense_svd(*case)


# columns 0 and 3 form one block, 2 and 4 another, and no row touches column 1
UNTOUCHED_COLUMN = [[F(1), F(0), F(0), F(2), F(0)], [F(0), F(0), F(3), F(0), F(-1, 2)],
                    [F(2), F(0), F(0), F(4), F(0)]]


def test_untouched_column_is_a_kernel_vector_of_its_own():
    assert_blocks_match_sympy(UNTOUCHED_COLUMN, 5)
    assert [0, 1, 0, 0, 0] in kernel_basis(as_mapping(UNTOUCHED_COLUMN), 5)
    assert_float_twin_matches_dense_svd(UNTOUCHED_COLUMN, 5)


def test_float_rank_threshold_is_shared_by_the_blocks():
    # a dense SVD drops the singular value 1 below 1e-10 * 1e12: so must the
    # block of column 1, although it is the largest in its own block
    rows = [[1e12, 0.0], [0.0, 1.0]]
    assert_float_twin_matches_dense_svd(rows, 2)
    assert kernel_basis(as_mapping(rows), 2) == [[0.0, 1.0]]


# Sparse systems wider than they are tall, so every kernel has two or more
# vectors for the basis restoration to reduce.

nonzero_entries = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
nonzero_gaussian_entries = st.builds(QQi, entries, entries).filter(bool)


@st.composite
def sparse_wide(draw, elements):
    """(rows, ncols): up to 10 rows over 3-12 columns, at least two columns
    more than rows, and at most 30 % of the entries nonzero."""
    ncols = draw(st.integers(3, 12))
    nrows = draw(st.integers(1, min(10, ncols - 2)))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i, j in draw(st.lists(st.sampled_from(cells), unique=True, max_size=3 * len(cells) // 10)):
        rows[i][j] = draw(elements)
    return rows, ncols


@settings(max_examples=80)
@given(sparse_wide(nonzero_entries))
def test_rational_sparse_kernels_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=40)
@given(sparse_wide(nonzero_gaussian_entries))
def test_gaussian_sparse_kernels_match_sympy(case):
    assert_blocks_match_sympy(*case)


# x1 - x2 + x3 = 0 and x0 + x1 = 0: the reduced echelon form pivots on
# columns 0 and 1 and frees 2 and 3.  The Markowitz order takes the shorter
# row first, on column 0, which only it holds, then column 2, and frees 1
# and 3; its kernel vector of column 3, e3 + e2, must lose its entry at
# column 2, the last column of the other vector, e1 - e0 + e2
MARKOWITZ_FREES_OTHERS = [[F(0), F(1), F(-1), F(1)], [F(1), F(1), F(0), F(0)]]


def test_markowitz_order_frees_other_columns_and_the_basis_is_restored():
    work = [_integral(row, False) for row in as_mapping(MARKOWITZ_FREES_OTHERS)]
    assert [c for _, c in _sparse_reduce(work, _MARKOWITZ, False)] == [0, 2]
    assert kernel_basis(MARKOWITZ_FREES_OTHERS, 4) == [[-1, 1, 1, 0], [1, -1, 0, 1]]
    assert_blocks_match_sympy(MARKOWITZ_FREES_OTHERS, 4)


def reference_exact_kernel(blocks):
    """The exact block kernel by sympy: each block's reduced echelon form
    R / den, R over the integers from ``DomainMatrix.rref_den``, and one
    kernel vector e_f - sum_r (R[r][f] / den) e_(c_r) per free column f."""
    found = []
    for cols, rows in blocks:
        local = {c: j for j, c in enumerate(cols)}
        entries = {i: {local[c]: ZZ(x) for c, x in row.items()} for i, row in enumerate(rows)}
        rref, den, pivots = DomainMatrix(entries, (len(rows), len(cols)), ZZ).rref_den()
        rref = rref.to_list()
        for free in range(len(cols)):
            if free not in pivots:
                found.append((cols[free], [(cols[free], 1), *(
                    (cols[c], -Fraction(int(rref[r][free]), int(den))) for r, c in enumerate(pivots))]))
    return found


SOLVED_FAMILIES = ("sub_cuntz", "prefix_code", "geometric_progression", "mixture")
GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


def test_every_solved_system_gives_the_reference_basis(heavy_twins, monkeypatch):
    specs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN_SPECS.glob("*.json"))]
    specs = [spec for spec in specs if spec["family"] in SOLVED_FAMILIES] + list(heavy_twins.values())
    systems = []

    def spy(rows, ncols):
        systems.append(([dict(row) for row in rows], ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(moments, "kernel_basis", spy)
    for spec in specs:
        state_from_spec(spec)
    monkeypatch.undo()
    assert len(systems) >= len(specs)
    for rows, ncols in systems:
        assert all(type(x) is int for row in rows for x in row.values())
        found = kernel_basis(rows, ncols)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_exact_kernel", reference_exact_kernel)
            assert found == kernel_basis(rows, ncols)
