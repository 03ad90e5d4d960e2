"""Exact elimination against independent oracles.

Two oracles: sympy (``Matrix.rref``, ``nullspace``, ``rank``, ``LUsolve`` and
``gauss_jordan_solve``), and the rational Gauss-Jordan loop the package used
before its elimination went fraction-free, kept here as
``reference_eliminate``.  It is fed ints as Fractions, because its int / int
division is a float.  Outputs must agree entry by entry, not only as spans:
the reduced echelon form and the nullspace basis built from it are unique.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import Inconsistent, QQi
from cuntzlab.linalg import _eliminate, kernel_basis, min_norm_solution, rank, solve


def reference_eliminate(rows, ncols):
    """The exact branch of the former rational Gauss-Jordan loop, in place."""
    pivots = []
    r = 0
    for c in range(ncols):
        p = None
        for k in range(r, len(rows)):
            if rows[k][c] != 0:
                p = k
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                if f == 0:
                    continue
                rows[k] = [xk - f * xr for xk, xr in zip(rows[k], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


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


def matrices(elements):
    return st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=m, max_size=m)))


def assert_matches_reference(rows):
    ours = [list(r) for r in rows]
    ref = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    pivots = _eliminate(ours, len(rows[0]))
    assert pivots == reference_eliminate(ref, len(rows[0]))
    assert [ours[r] for r, _ in pivots] == [ref[r] for r, _ in pivots]
    return pivots, ours


def assert_matches_sympy(rows):
    ncols = len(rows[0])
    pivots, ours = assert_matches_reference(rows)
    rref, pivot_cols = to_sympy(rows).rref()
    assert [c for _, c in pivots] == list(pivot_cols)
    assert [as_qqi(ours[r]) for r, _ in pivots] == [[from_sympy(x) for x in rref.row(k)]
                                                    for k in range(len(pivots))]
    assert rank(rows) == to_sympy(rows).rank() == len(pivots)
    basis = kernel_basis(rows, ncols)
    assert [as_qqi(v) for v in basis] == [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_match_sympy_and_reference(name):
    assert_matches_sympy(CASES[name])


@given(matrices(entries))
def test_rational_matrices_match_sympy_and_reference(rows):
    assert_matches_sympy(rows)


@given(matrices(gaussian_entries))
def test_gaussian_matrices_match_sympy_and_reference(rows):
    assert_matches_sympy(rows)


def test_input_rows_are_left_in_reduced_form():
    rows = [list(r) for r in DUPLICATED]
    pivots = _eliminate(rows, 3)
    assert [c for _, c in pivots] == [0, 1]
    assert rows[0] == [1, 0, F(1, 3) / 2] and rows[1] == [0, 1, F(-3) - F(1, 12)]
    assert all(x == 0 for x in rows[2])


@pytest.mark.parametrize("name", ["rank_deficient_square", "duplicated_rows", "all_zero"])
def test_singular_square_systems_raise(name):
    rows = CASES[name][:3]
    with pytest.raises(Inconsistent):
        solve([r[:3] for r in rows], [1, 2, 3])


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


def test_min_norm_solution_of_the_solver_system():
    # the fixed-point table slice v_empty = 1 of a two-dimensional kernel,
    # as solve_low_moments poses it: constraints pick coordinates 0 and 1
    basis = [[F(1), F(0), F(1, 2), F(0)], [F(0), F(0), F(1), F(1)]]
    constraints = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert as_qqi(min_norm_solution(basis, constraints, [1, 0])) == min_norm_oracle(basis, constraints, [1, 0])
