"""Exact elimination against independent oracles, and its float twin.

The oracle is sympy (``nullspace``, ``rank``, ``det``, ``LUsolve``,
``gauss_jordan_solve``, ``is_positive_semidefinite`` and
``DomainMatrix.rref_den``).  An exact kernel basis is the one the
elimination gives, and its contract is checked, not the basis itself: its
vectors are killed by the rows, there are as many as sympy's nullity, they
span sympy's nullspace, and each has 1 at its own free column and 0 at the
others'.  The exact PSD verdict must agree with sympy's on drawn Hermitian
matrices, and each way the L D L* stream can refuse a matrix has a pinned
case.
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
list rows and as mapping rows, it must keep that contract, and its float
twin must span what a dense SVD's kernel spans.  On drawn sparse real and
complex float systems whose singular values keep clear of the rank
threshold, the float kernel must be orthonormal and span numpy's SVD
kernel; on drawn matrices whose Hermitian part keeps its smallest
eigenvalue clear of -eps, the float PSD gate must decide as eigvalsh does.

Every linear system is read off ``kernel_basis``, so ``rank`` and
``solve`` are checked against sympy in exact mode, and their float twins
against the exact answers: the float rank of each named case equals its
exact rank, and every float singular system raises.  ``min_norm_oracle``
is sympy's least-norm point on an affine slice of a span, the oracle of
the minimum-norm fixed-point tables in ``test_moments.py``.  An exact
block of ``kernel_basis`` is reduced in Markowitz order, which frees other
columns than the reduced echelon form does.  No exact answer depends on
the basis: ``solve`` and ``rank`` match sympy on systems whose Markowitz
order frees other columns.  Sparse systems with kernels of dimension two
or more keep the contract, a pinned case frees other columns, and every
golden or heavy benchmark spec that solves a fixed-point table reduces
exactly one system, whose basis spans the kernel of
``reference_exact_kernel``, sympy's per-block reduced echelon form.
"""

import json
from fractions import Fraction
from math import lcm, prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from cuntzlab import Inconsistent, QQi, linalg, moments
from cuntzlab.linalg import (
    LDLFactor,
    _integral,
    _sparse_reduce,
    hermitian_psd_check,
    kernel_basis,
    mat_vec,
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


def markowitz_free_columns(rows, ncols):
    """The free columns of ``kernel_basis``'s exact elimination, ascending:
    one per kernel vector."""
    free = []
    exact_kernel = linalg._exact_kernel

    def spy(blocks):
        found = exact_kernel(blocks)
        free.extend(g for g, _ in found)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_exact_kernel", spy)
        kernel_basis(rows, ncols)
    return sorted(free)


def rref_free_columns(rows):
    pivots = to_sympy(rows).rref()[1]
    return [c for c in range(len(rows[0])) if c not in pivots]


def assert_kernel_contract(rows, ncols, basis, reference):
    """``basis``, the exact kernel of ``rows``, against a reference basis of
    that kernel: each vector is killed by the rows, there are as many, each
    has 1 at its own free column and 0 at the others', and each reference
    vector is the combination of the basis by its entries at those columns,
    so the two span one space."""
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in rows]
    basis = [as_qqi(v) for v in basis]
    reference = [as_qqi(v) for v in reference]
    assert all(sum((x * v[j] for j, x in row.items()), QQi(0)) == 0 for v in basis for row in rows)
    assert len(basis) == len(reference)
    free = markowitz_free_columns(rows, ncols)
    assert [[v[g] for g in free] for v in basis] == [[int(i == k) for k in range(len(free))]
                                                     for i in range(len(free))]
    for r in reference:
        assert r == [sum((r[g] * v[j] for g, v in zip(free, basis)), QQi(0)) for j in range(ncols)]


def sympy_nullspace(rows):
    return [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]


def assert_matches_sympy(rows):
    ncols = len(rows[0])
    assert rank(rows) == to_sympy(rows).rank()
    assert_kernel_contract(rows, ncols, kernel_basis(rows, ncols), sympy_nullspace(rows))


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
    basis = kernel_basis(rows, ncols)
    assert_kernel_contract(rows, ncols, basis, sympy_nullspace(rows))
    assert kernel_basis(as_mapping(rows), ncols) == basis


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


def test_float_pivot_passes_over_a_small_entry():
    # the Markowitz order alone would pivot on 1e-9, and the update by its
    # inverse would keep the other row's 1 and 0.3 only to about 1e-7
    rows = [[1e-9, 1.0, 1.0], [1.0, 1.0, 0.3]]
    (v,) = kernel_basis(rows, 3)
    assert max(abs(sum(x * y for x, y in zip(row, v))) for row in rows) < 1e-14
    assert abs(sum(x * x for x in v) - 1.0) < 1e-15


# The float kernel against numpy's SVD, and the float PSD gate against
# eigvalsh, on drawn systems whose singular values (eigenvalues) keep clear
# of the rank threshold, so that the two decide alike.

float_values = st.builds(lambda x, negative: -x if negative else x, st.floats(0.05, 4), st.booleans())
complex_values = st.builds(complex, float_values, float_values)


@st.composite
def float_systems(draw, values):
    """(rows, ncols): up to seven sparse rows over 1-10 columns, and up to
    three more that are combinations of them, shuffled; the nonzero singular
    values lie above 1e-6 and the others below 1e-12 times max(1, the
    largest)."""
    ncols = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        row = [0.0] * ncols
        for j in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=max(1, ncols // 2), unique=True)):
            row[j] = draw(values)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        coefficients = [draw(values) for _ in picked]
        rows.append([sum((c * row[j] for c, row in zip(coefficients, picked)), 0.0) for j in range(ncols)])
    rows = draw(st.permutations(rows))
    s = np.linalg.svd(np.array(rows, dtype=complex).reshape(len(rows), ncols), compute_uv=False)
    scale = max(1.0, float(s.max(initial=0.0)))
    assume(all(x > 1e-6 * scale or x < 1e-12 * scale for x in s))
    return rows, ncols


def numpy_kernel(rows, ncols):
    """An orthonormal basis of the kernel by numpy's SVD, the rank counted at
    1e-8 times max(1, the largest singular value)."""
    if not rows:
        return np.eye(ncols, dtype=complex)
    _, s, vh = np.linalg.svd(np.array(rows, dtype=complex))
    r = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return vh[r:].conj()


@settings(max_examples=80)
@given(st.one_of(float_systems(float_values), float_systems(complex_values)))
def test_float_kernel_matches_numpy_svd(case):
    rows, ncols = case
    found = np.array(kernel_basis(rows, ncols), dtype=complex).reshape(-1, ncols)
    expected = numpy_kernel(rows, ncols)
    assert len(found) == len(expected)
    if not len(found):
        return
    # orthonormal, and each kernel lies in the span of the other
    assert np.abs(found.conj() @ found.T - np.eye(len(found))).max() < 1e-9
    for a, b in ((found, expected), (expected, found)):
        residual = a.T - b.T @ (b.conj() @ a.T)
        assert np.abs(residual).max() <= 1e-9


@st.composite
def hermitian_gates(draw):
    """A d x d matrix, as list rows of floats or complex: a Hermitian part
    with drawn eigenvalues, each 0, in [0.01, 3] or in [-3, -0.01], plus a
    drawn anti-Hermitian part, with drawn rows and columns set to zero."""
    d = draw(st.integers(1, 6))
    values = draw(st.sampled_from([float_values, complex_values]))
    eigenvalues = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 3), st.floats(-3, -0.01)),
                                min_size=d, max_size=d))
    q, _ = np.linalg.qr(np.array([[draw(values) for _ in range(d)] for _ in range(d)], dtype=complex))
    h = q @ np.diag(eigenvalues) @ q.conj().T
    a = np.array([[draw(st.one_of(st.just(0.0), values)) for _ in range(d)] for _ in range(d)], dtype=complex)
    g = h + (a - a.conj().T) / 2
    zero = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    g[np.array(zero), :] = 0
    g[:, np.array(zero)] = 0
    if values is float_values:
        g = g.real
    return g.tolist()


@settings(max_examples=100)
@given(hermitian_gates())
def test_float_gate_decides_as_eigvalsh(g):
    a = np.array(g, dtype=complex)
    min_eig = float(np.linalg.eigvalsh((a + a.conj().T) / 2).min())
    scale = max(1.0, float(np.abs(a).max()))
    eps = DEFAULT_RANK_TOL * scale
    # a zero eigenvalue, eps above the boundary, is kept
    assume(abs(min_eig + eps) > 1e-11 * scale)
    ok, estimate = hermitian_psd_check(g)
    assert ok == (min_eig >= -eps)
    assert estimate is None if ok else abs(estimate - min_eig) < 1e-12


@pytest.mark.parametrize("t, ok", [(1e-11, True), (1e-9, False)])
def test_float_gate_decides_within_eps_where_no_pivot_of_g_is_positive(t, ok):
    # zero diagonal and t elsewhere: eigenvalues 19 t and -t, against
    # eps = 1e-10.  The factor of g itself meets a zero pivot at once, so the
    # factor of g + eps I decides
    g = [[0.0 if i == j else t for j in range(20)] for i in range(20)]
    assert hermitian_psd_check(g)[0] is ok


# Sparse systems wider than they are tall, so every kernel has two or more
# vectors, and which columns are free depends on the pivot order.

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
# and 3: its kernel vectors are e1 - e0 + e2 and e3 + e2
MARKOWITZ_FREES_OTHERS = [[F(0), F(1), F(-1), F(1)], [F(1), F(1), F(0), F(0)]]


def test_markowitz_order_frees_other_columns():
    work = [_integral(row, False) for row in as_mapping(MARKOWITZ_FREES_OTHERS)]
    assert [c for _, c in _sparse_reduce(work, False)] == [0, 2]
    assert rref_free_columns(MARKOWITZ_FREES_OTHERS) == [2, 3]
    assert kernel_basis(MARKOWITZ_FREES_OTHERS, 4) == [[-1, 1, 1, 0], [0, 0, 1, 1]]
    assert_blocks_match_sympy(MARKOWITZ_FREES_OTHERS, 4)


def placed(draw, width, count):
    """``count`` drawn columns of ``width``, ascending, and the others."""
    places = sorted(draw(st.lists(st.integers(0, width - 1), min_size=count, max_size=count, unique=True)))
    return places, [c for c in range(width) if c not in places]


@st.composite
def beside_markowitz_frees_others(draw, elements, nonzero):
    """A drawn matrix beside MARKOWITZ_FREES_OTHERS with drawn nonzero
    entries: its columns, in their order, at drawn places, and the rows
    shuffled.  The two are blocks of their own, so the Markowitz order still
    frees 1 and 3 of that case's columns, and the reduced echelon form 2 and 3."""
    rest = draw(matrices(elements, largest=4))
    block = [[x and draw(nonzero) for x in row] for row in MARKOWITZ_FREES_OTHERS]
    width = len(rest[0]) + 4
    places, others = placed(draw, width, 4)
    rows = []
    for part, cols in ((rest, others), (block, places)):
        for row in part:
            dense = [row[0] * 0] * width
            for c, x in zip(cols, row):
                dense[c] = x
            rows.append(dense)
    return draw(st.permutations(rows))


@settings(max_examples=60)
@given(st.one_of(beside_markowitz_frees_others(entries, nonzero_entries),
                 beside_markowitz_frees_others(gaussian_entries, nonzero_gaussian_entries)))
def test_rank_matches_sympy_where_markowitz_frees_other_columns(rows):
    assert markowitz_free_columns(rows, len(rows[0])) != rref_free_columns(rows)
    assert_matches_sympy(rows)


@st.composite
def systems_whose_markowitz_order_pivots_on_b(draw, elements, nonzero):
    """(a, b): a drawn square part beside the regular block [[p, q], [r, s]],
    its columns in order at drawn places, b = t on the row (p, q) and 0
    elsewhere, the rows shuffled.  In [a | -b] the Markowitz order takes the
    row (r, s) first, on p's column; the row (p, q, -t) is then left with
    q's column, which both rows hold, and b's, which it alone holds: b's
    column is a pivot and q's is free, where the reduced echelon form frees b's."""
    k = draw(st.integers(0, 3))
    rest = draw(st.lists(st.lists(elements, min_size=k, max_size=k), min_size=k, max_size=k))
    p, q, r, s, t = (draw(nonzero) for _ in range(5))
    assume(p * s != q * r)
    places, others = placed(draw, k + 2, 2)
    zero = t * 0
    system = []
    for part, cols, rhs in ((rest, others, [zero] * k), ([[p, q], [r, s]], places, [t, zero])):
        for row, x in zip(part, rhs):
            dense = [zero] * (k + 2)
            for c, y in zip(cols, row):
                dense[c] = y
            system.append((dense, x))
    system = draw(st.permutations(system))
    return [row for row, _ in system], [x for _, x in system]


@settings(max_examples=60)
@given(st.one_of(systems_whose_markowitz_order_pivots_on_b(entries, nonzero_entries),
                 systems_whose_markowitz_order_pivots_on_b(gaussian_entries, nonzero_gaussian_entries)))
def test_solve_matches_sympy_where_markowitz_frees_other_columns(system):
    a, b = system
    d = len(a)
    augmented = [[*a[i], -b[i]] for i in range(d)]
    assert markowitz_free_columns(augmented, d + 1) != rref_free_columns(augmented)
    A = to_sympy(a)
    if A.rank() < d:
        with pytest.raises(Inconsistent):
            solve(a, b)
        return
    assert as_qqi(solve(a, b)) == [from_sympy(x) for x in A.LUsolve(to_sympy([[x] for x in b]))]


def reference_exact_kernel(blocks):
    """An exact block kernel by sympy: each block's reduced echelon form
    R / den, R over the integers from ``DomainMatrix.rref_den``, and one
    kernel vector e_f - sum_r (R[r][f] / den) e_(c_r) per free column f.
    A row of int and Fraction entries is first scaled by the lcm of their
    denominators, which leaves the kernel as it is."""
    found = []
    for cols, rows in blocks:
        local = {c: j for j, c in enumerate(cols)}
        scales = [lcm(*(Fraction(x).denominator for x in row.values())) for row in rows]
        entries = {i: {local[c]: ZZ(int(x * s)) for c, x in row.items()}
                   for i, (row, s) in enumerate(zip(rows, scales))}
        rref, den, pivots = DomainMatrix(entries, (len(rows), len(cols)), ZZ).rref_den()
        rref = rref.to_list()
        for free in range(len(cols)):
            if free not in pivots:
                found.append((cols[free], [(cols[free], 1), *(
                    (cols[c], -Fraction(int(rref[r][free]), int(den))) for r, c in enumerate(pivots))]))
    return found


SOLVED_FAMILIES = ("sub_cuntz", "prefix_code", "geometric_progression", "mixture")
GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


def test_every_solved_system_spans_the_reference_kernel(heavy_twins, monkeypatch):
    specs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN_SPECS.glob("*.json"))]
    specs = [spec for spec in specs if spec["family"] in SOLVED_FAMILIES] + list(heavy_twins.values())
    systems, solves = [], []
    solve_low_moments = moments._solve_low_moments

    def spy(rows, ncols):
        systems.append(([dict(row) for row in rows], ncols))
        return kernel_basis(rows, ncols)

    def counted(pc):
        solves.append(pc)
        return solve_low_moments(pc)

    monkeypatch.setattr(moments, "kernel_basis", spy)
    monkeypatch.setattr(moments, "_solve_low_moments", counted)
    for spec in specs:
        before = len(systems), len(solves)
        state_from_spec(spec)
        # exactly one system per fixed-point solve, and the golden mixture of Cuntz states solves none
        assert len(systems) - before[0] == len(solves) - before[1] == (spec["family"] != "mixture"), spec
    monkeypatch.undo()
    for rows, ncols in systems:
        assert all(type(x) in (int, Fraction) for row in rows for x in row.values())
        found = kernel_basis(rows, ncols)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_exact_kernel", reference_exact_kernel)
            reference = kernel_basis(rows, ncols)
        assert_kernel_contract(rows, ncols, found, reference)


# The deferred Jordan step.  A pivot column is taken out of the rows not yet
# taken as pivots only; a block that ends with free columns then takes each
# pivot column out of the earlier pivot rows, last pivot first, and a block
# of full column rank skips that step, having no kernel vector to read.

int_entries = st.integers(-5, 5).filter(bool)


@st.composite
def dense_block(draw, elements, full_rank):
    """A dense block of drawn nonzero entries: of full column rank (k x k,
    with up to one more row), or with free columns (k rows over k + 1 or
    k + 2 columns, with up to one more row repeating the first); k <= 3."""
    k = draw(st.integers(2, 3) if full_rank else st.integers(1, 3))
    width = k if full_rank else k + draw(st.integers(1, 2))
    block = draw(st.lists(st.lists(elements, min_size=width, max_size=width), min_size=k, max_size=k))
    assume(to_sympy(block).rank() == k)
    if draw(st.booleans()):
        block.append(draw(st.lists(elements, min_size=width, max_size=width)) if full_rank else list(block[0]))
    return block


@st.composite
def mixed_rank_blocks(draw, elements):
    """(rows, ncols): two to four dense blocks in one matrix, at least one
    of full column rank and one with free columns, with rows and columns
    shuffled."""
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=4).filter(lambda ks: len(set(ks)) == 2))
    blocks = [draw(dense_block(elements, full_rank)) for full_rank in kinds]
    ncols = sum(len(b[0]) for b in blocks)
    order = draw(st.permutations(range(ncols)))
    rows, start = [], 0
    for b in blocks:
        for row in b:
            dense = [0] * ncols
            for j, x in enumerate(row):
                dense[order[start + j]] = x
            rows.append(dense)
        start += len(b[0])
    return draw(st.permutations(rows)), ncols


@settings(max_examples=40)
@given(mixed_rank_blocks(int_entries))
def test_int_blocks_of_mixed_rank_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=40)
@given(mixed_rank_blocks(nonzero_entries))
def test_rational_blocks_of_mixed_rank_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=25)
@given(mixed_rank_blocks(nonzero_gaussian_entries))
def test_gaussian_blocks_of_mixed_rank_match_sympy(case):
    assert_blocks_match_sympy(*case)


@settings(max_examples=25)
@given(mixed_rank_blocks(nonzero_gaussian_entries))
def test_float_blocks_of_mixed_rank_match_dense_svd(case):
    assert_float_twin_matches_dense_svd(*case)


@settings(max_examples=40)
@given(st.booleans().flatmap(lambda full_rank: st.tuples(
    st.just(full_rank), dense_block(st.one_of(int_entries, nonzero_gaussian_entries), full_rank))))
def test_only_a_block_with_free_columns_takes_the_jordan_step(case):
    full_rank, block = case
    has_qqi, gaussian = linalg._ring([x for row in block for x in row])
    work = [_integral(row, gaussian) for row in as_mapping(block)]
    pivots = _sparse_reduce(work, gaussian)
    assert len(pivots) == len(block) - (len(block) > to_sympy(block).rank())
    pivot_cols = {c for _, c in pivots}
    # each pivot row holds no pivot column before its own
    for k, (r, c) in enumerate(pivots):
        assert c in work[r] and not {c2 for _, c2 in pivots[:k]} & set(work[r])
    held = [set(work[r]) & pivot_cols for r, _ in pivots]
    if full_rank:
        # upper triangular, unreduced: a dense block's first pivot row keeps every column
        assert held[0] == pivot_cols
    else:
        assert held == [{c} for _, c in pivots]


# a dense Gaussian block with one free column whose Jordan step rescales
# the row of the second pivot, taking out the third pivot's column, before
# it takes the second pivot's column out of the first pivot row: that step
# must read the rescaled pivot, not the one the row had when it was taken
RESCALED_PIVOT = [[QQi(2), QQi(1), QQi(-1), QQi(1)], [QQi(1), QQi(0, 1), QQi(1, 1), QQi(2)],
                  [QQi(-1), QQi(2), QQi(-1), QQi(0, 1)]]


def test_the_jordan_step_reads_each_pivot_after_its_row_is_rescaled():
    has_qqi, gaussian = linalg._ring([x for row in RESCALED_PIVOT for x in row])
    work = [_integral(row, gaussian) for row in as_mapping(RESCALED_PIVOT)]
    taken = []
    exact_pivot = linalg._exact_pivot

    def spy(gaussian, prow, holders):
        chosen = exact_pivot(gaussian, prow, holders)
        taken.append(chosen[2])
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_exact_pivot", spy)
        pivots = _sparse_reduce(work, gaussian)
    assert len(pivots) == 3
    assert [gaussian_parts(work[r][c])[0] for r, c in pivots] != taken
    assert_blocks_match_sympy(RESCALED_PIVOT, 4)
    assert kernel_basis(RESCALED_PIVOT, 4) == [[QQi(F(-13, 25), F(9, 25)), QQi(F(-14, 25), F(2, 25)),
                                                QQi(F(-3, 5), F(4, 5)), 1]]
