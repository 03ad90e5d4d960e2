"""Small dense linear algebra over exact (Fraction/Gaussian-rational) or float scalars.

Matrices are lists of row lists.  When every entry is exact the routines run
fraction-free Gauss-Jordan elimination on integers (or Gaussian integers) and
return exact answers; otherwise they pivot on magnitudes above
DEFAULT_RANK_TOL times the largest entry, or fall back to numpy.  numpy is
imported only inside those float fallbacks (and for the eigenvalue estimate
of a failed exact PSD check), so exact work never loads it.  Problem sizes in
this package are small (up to a few hundred rows), so clarity beats
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _pivot_row(rows, col, start, thresh: float):
    best, best_val = None, thresh
    for r in range(start, len(rows)):
        v = abs(complex(rows[r][col]))
        if v > best_val:
            best, best_val = r, v
    return best


def _integral_rows(rows, gaussian: bool):
    """Each row times one common denominator, its content divided out: lists
    of ints, or of Gaussian-integer QQi when the matrix is not real."""
    out = []
    for row in rows:
        if gaussian:
            row = [x if isinstance(x, QQi) else QQi(x) for x in row]
            den = lcm(*(lcm(x.re.denominator, x.im.denominator) for x in row))
            out.append(_without_content([x * den for x in row], True))
        else:
            row = [x.re if isinstance(x, QQi) else x for x in row]
            den = lcm(*(x.denominator for x in row))
            out.append(_without_content([x.numerator * (den // x.denominator) for x in row], False))
    return out


def _without_content(row, gaussian: bool):
    """The integer row divided by the gcd of its (real and imaginary) parts."""
    if gaussian:
        g = gcd(*(p for x in row if x for p in (x.re.numerator, x.im.numerator)))
        return [x / g for x in row] if g > 1 else row
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate_exact(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of an exact matrix.

    As in Bareiss (1968, Math. Comp. 22) no fraction is formed on the way:
    each row is scaled to integers once, a row is updated by
    cross-multiplication with the pivot row over the pivot row's nonzero
    columns, and its content is then divided out by a gcd.  Each pivot row is
    divided by its pivot once at the end.  A matrix with a non-real entry
    runs on Gaussian integers, each pivot made an integer by its conjugate.
    """
    has_qqi = QQi in {type(x) for row in rows for x in row}
    gaussian = has_qqi and any(isinstance(x, QQi) and x.im for row in rows for x in row)
    work = _integral_rows(rows, gaussian)
    m = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, m) if work[k][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        pv = prow[c]
        if gaussian:
            prow = work[r] = _without_content([x * pv.conjugate() for x in prow], True)
            pv = prow[c].re.numerator
        nonzero = [j for j, x in enumerate(prow) if x]
        for k in range(m):
            row = work[k]
            f = row[c]
            if k == r or not f:
                continue
            # row <- a row - b prow with a / b = pv / f in lowest terms
            g = gcd(pv, f.re.numerator, f.im.numerator) if gaussian else gcd(pv, f)
            a, b = pv // g, (f / g if gaussian else f // g)
            if a != 1:
                row = [a * x for x in row]
            for j in nonzero:
                row[j] = row[j] - b * prow[j]
            work[k] = _without_content(row, gaussian)
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    # divide each pivot row by its pivot; the rows below are zero in the
    # first ncols columns
    zero = QQi(0) if has_qqi else Fraction(0)
    for k, row in enumerate(work):
        if k < r:
            pv = row[pivots[k][1]]
            if gaussian:
                row = [x / pv if x else zero for x in row]
            elif has_qqi:
                row = [QQi(Fraction(x, pv)) if x else zero for x in row]
            else:
                row = [Fraction(x, pv) if x else zero for x in row]
        rows[k] = row
    return pivots


def _eliminate(rows, ncols):
    """In-place elimination to the reduced echelon form; returns the list of
    (pivot_row, pivot_col), the pivot rows first, in column order."""
    if matrix_is_exact(rows):
        return _eliminate_exact(rows, ncols)
    maxabs = max((abs(complex(x)) for row in rows for x in row), default=0.0)
    thresh = DEFAULT_RANK_TOL * max(1.0, maxabs)
    pivots = []
    r = 0
    for c in range(ncols):
        p = _pivot_row(rows, c, r, thresh)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                rows[k] = [xk - f * xr for xk, xr in zip(rows[k], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    work = [list(r) for r in rows]
    return len(_eliminate(work, len(work[0])))


def solve(a, b):
    """Solve the square system a x = b (single right-hand side as a vector)."""
    d = len(a)
    work = [list(a[i]) + [b[i]] for i in range(d)]
    pivots = _eliminate(work, d)
    if len(pivots) != d:
        raise Inconsistent("singular linear system")
    x = [0] * d
    for r, c in pivots:
        x[c] = work[r][d]
    return x


def kernel_basis(rows, ncols: int):
    """Basis of the nullspace of the given (possibly rectangular) matrix."""
    if not rows:
        return [[1 if j == k else 0 for j in range(ncols)] for k in range(ncols)]
    if matrix_is_exact(rows):
        work = [list(r) for r in rows]
        pivots = _eliminate_exact(work, ncols)
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
    import numpy as np

    a = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
    if np.allclose(a.imag, 0):
        a = a.real
    _, s, vh = np.linalg.svd(a)
    eps = DEFAULT_RANK_TOL * max(1.0, s[0] if len(s) else 0.0)
    r = int(np.sum(s > eps))
    return [list(vh[k].conj()) for k in range(r, vh.shape[0])]


def _min_eig_estimate(g):
    """The smallest eigenvalue of the Hermitian part of g by numpy, and the
    largest entry magnitude (the float check's scale)."""
    import numpy as np

    approx = np.array([[complex(x) for x in row] for row in g], dtype=complex)
    min_eig = float(np.linalg.eigvalsh((approx + approx.conj().T) / 2).min())
    return min_eig, float(np.abs(approx).max())


def hermitian_psd_check(g):
    """Decide whether the Hermitian matrix g is positive semidefinite.

    Returns (ok, min_eig_estimate).  Float matrices are decided by the
    smallest eigenvalue (a float numpy estimate) against -DEFAULT_RANK_TOL
    times max(1, largest entry magnitude).  Exact
    matrices are decided by rational LDL* pivoting (a zero pivot must have a
    zero row); the numpy estimate is computed only when that check fails, for
    the failure message, so an exact matrix that passes comes back as
    (True, None) and never loads numpy.
    """
    d = len(g)
    if d == 0:
        return True, 0.0
    if not matrix_is_exact(g):
        min_eig, scale = _min_eig_estimate(g)
        return min_eig >= -DEFAULT_RANK_TOL * max(1.0, scale), min_eig
    if _exact_psd(g):
        return True, None
    return False, _min_eig_estimate(g)[0]


def _exact_psd(g) -> bool:
    """Rational LDL* pivoting on the exact Hermitian matrix g."""
    d = len(g)
    work = [list(row) for row in g]
    for k in range(d):
        piv = work[k][k]
        if isinstance(piv, QQi):
            if piv.im != 0:
                return False  # Hermitian diagonal must be real
            piv_real = piv.re
        else:
            piv_real = piv
        if piv_real < 0:
            return False
        if piv_real == 0:
            # a PSD matrix with zero diagonal entry has a zero row
            if any(work[k][j] != 0 for j in range(k + 1, d)):
                return False
            continue
        # Schur complement of the pivot; stays Hermitian since work[k][j] = conj(work[j][k])
        for i in range(k + 1, d):
            if work[i][k] == 0:
                continue
            f = work[i][k] / piv
            for j in range(k + 1, d):
                work[i][j] = work[i][j] - f * work[k][j]
    return True


def min_norm_solution(basis, constraint_rows, constraint_rhs):
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
    pivots = _eliminate(work, r + 1)
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
    sol = solve(kkt, rhs)
    coeffs = sol[:r]
    return [sum((coeffs[i] * basis[i][k] for i in range(r)), 0) for k in range(m)]
