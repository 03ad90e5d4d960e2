"""Small dense linear algebra over exact (Fraction/Gaussian-rational) or float scalars.

Matrices are lists of row lists.  When every entry is exact the routines run
rational Gaussian elimination and return exact answers; otherwise they fall
back to numpy with a rank tolerance.  Problem sizes in this package are tiny
(tens of rows), so clarity beats asymptotics.
"""

from __future__ import annotations

import numpy as np

from .errors import Inconsistent
from .scalars import DEFAULT_RANK_TOL, QQi, conj, is_exact_scalar

__all__ = [
    "matrix_is_exact",
    "mat_vec",
    "mat_mul",
    "hermitian_transpose",
    "solve",
    "kernel_basis",
    "rank",
    "hermitian_psd_check",
    "min_norm_solution",
]


def matrix_is_exact(rows) -> bool:
    return all(is_exact_scalar(x) for row in rows for x in row)


def mat_vec(rows, v):
    return [sum((row[j] * v[j] for j in range(len(v))), 0) for row in rows]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((ra[k] * col[k] for k in range(len(ra))), 0) for col in bt] for ra in a]


def hermitian_transpose(rows):
    return [[conj(rows[i][j]) for i in range(len(rows))] for j in range(len(rows[0]))]


def _pivot_row(rows, col, start, exact: bool, thresh: float):
    if exact:
        for r in range(start, len(rows)):
            if rows[r][col] != 0:
                return r
        return None
    best, best_val = None, thresh
    for r in range(start, len(rows)):
        v = abs(complex(rows[r][col]))
        if v > best_val:
            best, best_val = r, v
    return best


def _eliminate(rows, ncols, tol: float | None):
    """In-place forward elimination; returns list of (pivot_row, pivot_col)."""
    exact = matrix_is_exact(rows)
    thresh = 0.0
    if not exact:
        maxabs = max((abs(complex(x)) for row in rows for x in row), default=0.0)
        thresh = (DEFAULT_RANK_TOL if tol is None else tol) * max(1.0, maxabs)
    pivots = []
    r = 0
    for c in range(ncols):
        p = _pivot_row(rows, c, r, exact, thresh)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                if exact and f == 0:
                    continue
                rows[k] = [xk - f * xr for xk, xr in zip(rows[k], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, tol: float | None = None) -> int:
    if not rows or not rows[0]:
        return 0
    work = [list(r) for r in rows]
    return len(_eliminate(work, len(work[0]), tol))


def solve(a, b, tol: float | None = None):
    """Solve the square system a x = b (single right-hand side as a vector)."""
    d = len(a)
    work = [list(a[i]) + [b[i]] for i in range(d)]
    pivots = _eliminate(work, d, tol)
    if len(pivots) != d:
        raise Inconsistent("singular linear system")
    x = [0] * d
    for r, c in pivots:
        x[c] = work[r][d]
    return x


def kernel_basis(rows, ncols: int, tol: float | None = None):
    """Basis of the nullspace of the given (possibly rectangular) matrix."""
    if not rows:
        return [[1 if j == k else 0 for j in range(ncols)] for k in range(ncols)]
    if matrix_is_exact(rows):
        work = [list(r) for r in rows]
        pivots = _eliminate(work, ncols, tol)
        pivot_cols = {c for _, c in pivots}
        basis = []
        for free in range(ncols):
            if free in pivot_cols:
                continue
            v = [0] * ncols
            v[free] = 1
            for r, c in pivots:
                v[c] = -work[r][free]
            basis.append(v)
        return basis
    a = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
    if np.allclose(a.imag, 0):
        a = a.real
    _, s, vh = np.linalg.svd(a)
    eps = (DEFAULT_RANK_TOL if tol is None else tol) * max(1.0, s[0] if len(s) else 0.0)
    r = int(np.sum(s > eps))
    return [list(vh[k].conj()) for k in range(r, vh.shape[0])]


def hermitian_psd_check(g, tol: float | None = None):
    """Decide whether the Hermitian matrix g is positive semidefinite.

    Returns (ok, min_eig_estimate).  Exact matrices are decided by rational
    LDL* pivoting (a zero pivot must have a zero row); float matrices by the
    smallest eigenvalue against -tol.
    """
    d = len(g)
    if d == 0:
        return True, 0.0
    approx = np.array([[complex(x) for x in row] for row in g], dtype=complex)
    min_eig = float(np.linalg.eigvalsh((approx + approx.conj().T) / 2).min())
    if not matrix_is_exact(g):
        eps = DEFAULT_RANK_TOL if tol is None else tol
        return min_eig >= -eps * max(1.0, float(np.abs(approx).max())), min_eig
    work = [list(row) for row in g]
    for k in range(d):
        piv = work[k][k]
        if isinstance(piv, QQi):
            if piv.im != 0:
                return False, min_eig  # Hermitian diagonal must be real
            piv_real = piv.re
        else:
            piv_real = piv
        if piv_real < 0:
            return False, min_eig
        if piv_real == 0:
            # a PSD matrix with zero diagonal entry has a zero row
            if any(work[k][j] != 0 for j in range(k + 1, d)):
                return False, min_eig
            continue
        # Schur complement of the pivot; stays Hermitian since work[k][j] = conj(work[j][k])
        for i in range(k + 1, d):
            if work[i][k] == 0:
                continue
            f = work[i][k] / piv
            for j in range(k + 1, d):
                work[i][j] = work[i][j] - f * work[k][j]
    return True, min_eig


def min_norm_solution(basis, constraint_rows, constraint_rhs, tol: float | None = None):
    """Minimize ||sum_i c_i basis_i||^2 subject to constraints on the combination.

    basis: list of kernel vectors (length-m lists).  constraint_rows: rows of a
    matrix C acting on the *combination vector* x = sum c_i basis_i, with
    C x = constraint_rhs.  Returns the combination vector x.
    """
    r = len(basis)
    if r == 0:
        raise Inconsistent("empty solution space")
    m = len(basis[0])
    # gram[i][j] = <basis_i, basis_j>; entries are real for real bases
    gram = [[sum((conj(basis[i][k]) * basis[j][k] for k in range(m)), 0) for j in range(r)] for i in range(r)]
    cb = [[sum((row[k] * basis[j][k] for k in range(m)), 0) for j in range(r)] for row in constraint_rows]

    # constraints may be dependent as functionals on the span (a row reducing
    # to zero would make the KKT matrix singular); keep the reduced pivot rows,
    # and a pivot in the rhs column means no combination meets them
    work = [list(cb[a]) + [constraint_rhs[a]] for a in range(len(cb))]
    pivots = _eliminate(work, r + 1, tol)
    if any(c == r for _, c in pivots):
        raise Inconsistent("constraints are unreachable on the solution space")
    kept = [work[p] for p, _ in pivots]
    cb = [row[:r] for row in kept]
    q = len(cb)
    # KKT system: [2 gram, cb^H; cb, 0] [c; lam] = [0; rhs]
    kkt = []
    for i in range(r):
        kkt.append([2 * gram[i][j] for j in range(r)] + [conj(cb[a][i]) for a in range(q)])
    for a in range(q):
        kkt.append([cb[a][j] for j in range(r)] + [0] * q)
    rhs = [0] * r + [row[r] for row in kept]
    sol = solve(kkt, rhs, tol)
    coeffs = sol[:r]
    return [sum((coeffs[i] * basis[i][k] for i in range(r)), 0) for k in range(m)]
