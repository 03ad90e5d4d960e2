"""Small linear algebra over exact (Fraction/Gaussian-rational) or float scalars.

Matrices are lists of row lists.  Every linear system is read off one
primitive, :func:`kernel_basis`: :func:`rank` is the width less the
dimension of the kernel, and :func:`solve` reads x off the kernel of
[a | -b].  Both modes run one elimination, :func:`_sparse_reduce`: a sparse
Gauss-Jordan elimination in Markowitz order whose kernel is read off the
reduced rows.  Exact rows are made integers (or Gaussian integers) and
reduced fraction-free, and give exact answers; float rows are reduced as
floats, with threshold pivoting and a rank threshold, and their kernel is
orthonormalized.  numpy is imported only for the smallest-eigenvalue
estimate in the message of a matrix that fails :func:`hermitian_psd_check`,
so no work that passes its checks loads it.

:func:`kernel_basis` takes dense list rows or sparse rows ``{column:
entry}``.  It splits the columns into the connected components of the
rows' sparsity graph and reduces each block on its own.  Blocks pivot in
Markowitz order (shortest row, then the column the fewest rows hold), and
their kernel is read off the reduced rows, one vector per free column;
which columns are free depends on that order, and no caller depends on the
basis.  Float blocks share one rank threshold, taken from the largest
entry of the whole matrix.  The fixed-point systems of ``moments`` split
into a few such blocks, and arrive in exact mode as rows of ints and
Fractions and in float mode as rows of floats.

Every decision about a Gram matrix runs on a pivoted L D L* factor.  The
exact ones run on :class:`LDLFactor`, grown one pivot at a time: the Gram
growth of ``classify`` admits candidates greedily by residual, the exact
branch of :func:`hermitian_psd_check` streams a matrix's rows through it,
and the grading of ``shiftrep`` reads Gram-Schmidt vectors off its
unit-lower factor.  While its inner products are exact it too runs on
integers: coordinates and rows of L as Gaussian-integer triples (a, b, d) =
(a + bi) / d, D and the residuals as (num, den) pairs, one gcd per entry,
and the public values (Fractions and QQi, of the types the rational loop
gives) built once each.  The float branch of :func:`hermitian_psd_check`
runs :func:`_pivoted_ldl` instead: a diagonally pivoted L D L* of the
matrix's Hermitian part shifted by its rank threshold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm, sqrt
from operator import mul

from .errors import Inconsistent
from .scalars import DEFAULT_RANK_TOL, QQi, _raw, abs2, conj, gaussian_parts, is_exact_scalar

__all__ = [
    "matrix_is_exact",
    "mat_vec",
    "mat_mul",
    "hermitian_transpose",
    "solve",
    "kernel_basis",
    "rank",
    "hermitian_psd_check",
    "LDLFactor",
]


_EXACT_TYPES = frozenset((int, Fraction, QQi))


def matrix_is_exact(rows) -> bool:
    """Whether every entry is an exact scalar.  Row by row, the set of entry
    types is checked against the exact ones, and the isinstance scan runs only
    on a row where some other type appears, so a float matrix stops at its
    first row."""
    for row in rows:
        if not set(map(type, row)) <= _EXACT_TYPES and not all(is_exact_scalar(x) for x in row):
            return False
    return True


def mat_vec(rows, v):
    return [sum((row[j] * v[j] for j in range(len(v))), 0) for row in rows]


def mat_mul(a, b):
    """The product a b.  Each column of b lists its nonzero (index, entry)
    pairs once, and only products of two nonzero entries are summed, in
    index order; exact factors are often sparse."""
    cols = [[(j, y) for j, y in enumerate(col) if y] for col in zip(*b)]
    return [[sum([row[j] * y for j, y in nz if row[j]], 0) for nz in cols] for row in a]


def hermitian_transpose(rows):
    return [[conj(rows[i][j]) for i in range(len(rows))] for j in range(len(rows[0]))]


def _ring(values) -> tuple[bool, bool]:
    """(has_qqi, gaussian) of exact entries: whether some entry is a QQi,
    and whether some entry is not real."""
    has_qqi = QQi in set(map(type, values))
    return has_qqi, has_qqi and any(gaussian_parts(x)[1] for x in values)


def _integral(row: dict, gaussian: bool) -> dict:
    """The row {column: entry} times one common denominator, its content
    divided out: ints, or Gaussian-integer QQi when the matrix is not real."""
    parts = [gaussian_parts(x) for x in row.values()]
    den = lcm(*(d for _, _, d in parts))
    if gaussian:
        scaled = ((x if isinstance(x, QQi) else QQi(x)) * den for x in row.values())
    else:
        scaled = (a * (den // d) for a, _, d in parts)
    return _without_content(gaussian, dict(zip(row, scaled)))


def _without_content(gaussian: bool, row: dict) -> dict:
    """The integer row {column: entry} divided by the gcd of its (real and
    imaginary) parts."""
    if gaussian:
        g = gcd(*(p for x in row.values() for p in gaussian_parts(x)[:2]))
    else:
        g = gcd(*row.values())
    if g <= 1:
        return row
    return {j: x / g for j, x in row.items()} if gaussian else {j: x // g for j, x in row.items()}


def _fewest_holders(cols, holders):
    """The Markowitz column: the one of ``cols`` the fewest rows hold, ties
    to the lowest index."""
    return min(cols, key=lambda j: (len(holders[j]), j))


def _exact_pivot(gaussian: bool, prow: dict, holders):
    """(column, row, pivot) of an integer row: its Markowitz column, and a
    Gaussian row times the conjugate of its pivot, content divided out, so
    that the pivot is an integer."""
    c = _fewest_holders(prow, holders)
    if not gaussian:
        return c, prow, prow[c]
    pc = prow[c].conjugate()
    prow = _without_content(True, {j: x * pc for j, x in prow.items()})
    return c, prow, gaussian_parts(prow[c])[0]


def _cross_factors(gaussian: bool, pv: int, f):
    """(a, b) with a / b = pv / f in lowest terms: a row with entry f in the
    pivot column becomes a row - b prow, zero there."""
    g = gcd(pv, *gaussian_parts(f)[:2]) if gaussian else gcd(pv, f)
    return pv // g, (f / g if gaussian else f // g)


# a float pivot is at least this share of its row's largest |entry|
_PIVOT_THRESHOLD = 0.1


def _float_pivot(eps: float, prow: dict, holders):
    """(column, row, pivot) of a float row, or None when its largest |entry|
    is at most eps (the row is null).  The column is the Markowitz choice
    among the entries at least _PIVOT_THRESHOLD of the largest, so that an
    update adds to an entry at most 1 / _PIVOT_THRESHOLD times the updated
    row's entry in the pivot column."""
    big = max(map(abs, prow.values()))
    if big <= eps:
        return None
    big *= _PIVOT_THRESHOLD
    c = _fewest_holders([j for j, x in prow.items() if abs(x) >= big], holders)
    return c, prow, prow[c]


def _float_factors(pv, f):
    """(1, f / pv): a row with entry f in the pivot column becomes
    row - (f / pv) prow."""
    return 1, f / pv


def _divided(x, pv: int, has_qqi: bool):
    """An integer (or Gaussian-integer) entry divided by an integer pivot: a
    Fraction, or a QQi when the matrix had a QQi entry."""
    if type(x) is QQi:
        return x / pv
    return QQi(Fraction(x, pv)) if has_qqi else Fraction(x, pv)


def rank(rows) -> int:
    """The width of the matrix less the dimension of its kernel: the pivots
    of the elimination, where a float row counts only while its largest
    |entry| is above DEFAULT_RANK_TOL times max(1, the matrix's largest)."""
    if not rows or not rows[0]:
        return 0
    return len(rows[0]) - len(kernel_basis(rows, len(rows[0])))


def solve(a, b):
    """Solve the square system a x = b (single right-hand side as a vector).

    x is read off the kernel of [a | -b]: a is regular exactly when that
    kernel is one vector v whose last entry v[d] is nonzero, exactly for an
    exact vector and above DEFAULT_RANK_TOL for a float one, which has unit
    norm; x is v[:d] / v[d]."""
    d = len(a)
    kernel = kernel_basis([[*a[i], -b[i]] for i in range(d)], d + 1)
    last = kernel[0][d] if len(kernel) == 1 else 0
    if not last or isinstance(last, (float, complex)) and abs(last) <= DEFAULT_RANK_TOL:
        raise Inconsistent("singular linear system")
    # v[:d] as it is when it ends in 1, so an exact int stays an int
    return kernel[0][:d] if last == 1 else [x / last for x in kernel[0][:d]]


def kernel_basis(rows, ncols: int):
    """Basis of the nullspace of a (possibly rectangular) matrix.

    A row is a mapping {column: entry} or a dense list; list rows are made
    sparse once here, and zero entries are dropped.  The columns split into
    the connected components of the rows' sparsity graph (one union-find),
    and the matrix, with its columns permuted, is block diagonal over them:
    each block is reduced on its own by :func:`_sparse_reduce`, in Markowitz
    order: the shortest active row, and in it the column the fewest rows
    hold, ties to the lowest index.  Each column no pivot takes is free and
    gives one kernel vector, 1 there and 0 at the other free columns (see
    :func:`_kernel_of_reduced`), ordered by free column.  Only a block that
    ends with free columns takes the Jordan step that makes each pivot row
    hold its pivot and free columns only; a block of full column rank has no
    kernel vector and stops at the forward elimination.  The order frees
    other columns than the reduced echelon form does, so this is not the
    echelon basis: ``rank`` counts the vectors and ``solve`` scales the only
    one, neither of which depends on the basis.

    Exact rows are scaled to integers and reduced fraction-free.  A block of one column with a row is not reduced;
    it has no kernel vector.

    Float rows (real rows stay floats) are reduced with three differences.
    A row whose largest |entry| is at most DEFAULT_RANK_TOL times max(1, the
    largest |entry| of the whole matrix) when it comes up is null: it takes
    no pivot, and the threshold is shared by the blocks.  The pivot is the
    Markowitz choice among the row's entries of at least 0.1 of its largest.
    An update subtracts a multiple of the pivot row.  The kernel vectors of
    each block are then made orthonormal (see :func:`_orthonormal`), in the
    order of their free columns; callers read a float vector as a unit one.
    A column no row touches is a block of its own whose kernel vector is its
    unit vector.
    """
    exact = matrix_is_exact(row.values() if isinstance(row, dict) else row for row in rows)
    sparse = []
    for row in rows:
        entries = {j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        if entries:
            sparse.append(entries)
    blocks = _column_blocks(sparse, ncols)
    if exact:
        found = _exact_kernel(blocks)
    else:
        biggest = max((abs(x) for row in sparse for x in row.values()), default=0.0)
        found = _float_kernel(blocks, DEFAULT_RANK_TOL * max(1.0, biggest))
    found.sort(key=lambda item: item[0])
    zero = 0 if exact else 0.0
    basis = []
    for _, entries in found:
        v = [zero] * ncols
        for c, x in entries:
            v[c] = x
        basis.append(v)
    return basis


def _column_blocks(rows, ncols: int):
    """The connected components of the columns, two columns joined when a row
    has entries in both: a list of (columns ascending, rows), ordered by
    smallest column.  Every row is nonempty; an untouched column has none."""
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in rows:
        cols = iter(row)
        root = find(next(cols))
        for c in cols:
            other = find(c)
            if other != root:
                parent[other] = root
    blocks: dict[int, tuple[list, list]] = {}
    for c in range(ncols):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for row in rows:
        blocks[find(next(iter(row)))][1].append(row)
    return list(blocks.values())


def _kernel_of_reduced(cols, work, pivots, one, entry):
    """{free column g: its kernel vector's entries} of a reduced block.

    Each pivot row R_r holds its pivot p_r at column c_r and otherwise free
    columns only, so a free column g gives the kernel vector
    e_g - sum_r (R_r[g] / p_r) e_(c_r): ``one`` at g, 0 at the other free
    columns, and ``entry(R_r[g], p_r)`` at c_r."""
    pivot_cols = {c for _, c in pivots}
    vectors = {g: [(g, one)] for g in cols if g not in pivot_cols}
    if not vectors:
        return vectors  # a full-rank block skipped the Jordan step
    for r, c in pivots:
        row = work[r]
        p = row[c]
        for j, x in row.items():
            if j != c:
                vectors[j].append((c, entry(x, p)))
    return vectors


def _exact_kernel(blocks):
    """(free column, its kernel vector's entries) per free column of each
    block, its rows made integral and reduced fraction-free.  A block of one
    column with a row has no kernel vector and is not reduced."""
    found = []
    for cols, rows in blocks:
        if len(cols) == 1 and rows:
            continue
        has_qqi, gaussian = _ring([x for row in rows for x in row.values()])
        work = [_integral(row, gaussian) for row in rows]
        pivots = _sparse_reduce(work, gaussian)
        found += _kernel_of_reduced(cols, work, pivots, 1,
                                    lambda x, p: _divided(-x, gaussian_parts(p)[0], has_qqi)).items()
    return found


def _float_kernel(blocks, eps: float):
    """(free column, an orthonormal kernel vector's entries) per free column
    of each block, its float rows reduced with the rank threshold eps."""
    found = []
    for cols, rows in blocks:
        pivots = _sparse_reduce(rows, eps=eps)
        found += _orthonormal(_kernel_of_reduced(cols, rows, pivots, 1.0, lambda x, p: -x / p))
    return found


def _orthonormal(vectors):
    """[(g, entries)] of the vectors {g: entries}, made orthonormal in
    increasing g by Gram-Schmidt, each projection taken twice: the vectors
    have 1 at their own free column and 0 at the others', so they are
    independent, and a second pass restores the orthogonality the first
    loses to rounding."""
    done = []
    for g in sorted(vectors):
        v = dict(vectors[g])
        for _ in range(2):
            for _, u in done:
                d = sum(x.conjugate() * v[j] for j, x in u.items() if j in v)
                if d:
                    for j, x in u.items():
                        v[j] = v.get(j, 0.0) - d * x
        norm = sqrt(sum(abs(x) ** 2 for x in v.values()))
        done.append((g, {j: x / norm for j, x in v.items()}))
    return [(g, list(u.items())) for g, u in done]


def _sparse_reduce(work, gaussian: bool = False, eps: float | None = None):
    """Gauss-Jordan elimination of nonempty rows {column: entry} in place,
    in Markowitz order: integer rows fraction-free, and float rows, when the
    rank threshold ``eps`` is given, in floating point.

    The next pivot row is the shortest unreduced nonzero row, and its pivot
    column the one of its columns the fewest rows hold; ties go to the
    lowest index.  The pivot column is taken out of every row not yet taken
    as a pivot row, so the pivot rows end upper triangular: each holds its
    pivot, the columns of later pivots and free columns.  A block that ends
    with free columns then takes the Jordan step once, last pivot first:
    each pivot column is taken out of the earlier pivot rows that hold it,
    so each pivot row ends with its pivot and free columns only.  A block
    with no free column has no kernel vector to read, and skips it.

    As in Bareiss (1968, Math. Comp. 22) no fraction is formed on integer
    rows: a row is updated by cross-multiplication with the pivot row, and
    its content is then divided out by a gcd, so an update rescales the
    row, its own pivot included; the Jordan step re-reads each pivot.  Rows
    over the Gaussian integers pivot on an integer, the pivot row first
    multiplied by the conjugate of its pivot.  A float row subtracts a
    multiple of the pivot row, and picks its pivot and is found null by
    :func:`_float_pivot`; a null row is dropped, and no later update
    reaches it.

    Returns the (row, column) pivots in the order taken; every other integer
    row ends empty."""
    if eps is None:
        pivot = partial(_exact_pivot, gaussian)
        factors = partial(_cross_factors, gaussian)
        content = partial(_without_content, gaussian)
    else:
        pivot, factors, content = partial(_float_pivot, eps), _float_factors, None
    holders: dict[int, set] = {}
    for k, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(k)
    queue = [(len(row), k) for k, row in enumerate(work)]
    heapify(queue)
    pivots = []
    # the earlier pivot rows that hold each pivot's column
    above = []
    done = set()
    while queue:
        size, r = heappop(queue)
        prow = work[r]
        if r in done or size != len(prow):
            continue  # an entry left behind by a later update of the row
        done.add(r)
        chosen = pivot(prow, holders)
        if chosen is None:
            for j in prow:
                holders[j].discard(r)
            continue
        c, prow, pv = chosen
        work[r] = prow
        rest = [(j, x) for j, x in prow.items() if j != c]
        held = []
        for k in holders[c] - {r}:
            if k in done:
                held.append(k)
                continue
            work[k] = row = _eliminate(work[k], c, pv, rest, factors, content, holders, k)
            if row:
                heappush(queue, (len(row), k))
        pivots.append((r, c))
        above.append(held)
    if len(holders) > len(pivots):  # some column of the block is free
        for (r, c), held in zip(reversed(pivots), reversed(above)):
            prow = work[r]
            pv = prow[c]
            if gaussian:
                pv = gaussian_parts(pv)[0]
            rest = [(j, x) for j, x in prow.items() if j != c]
            for k in held:
                work[k] = _eliminate(work[k], c, pv, rest, factors, content, holders, k)
    return pivots


def _eliminate(row: dict, c: int, pv, rest: list, factors, content, holders, k: int) -> dict:
    """Row k, {column: entry}, with column c taken out by the pivot pv and
    the pivot row's other entries ``rest``, holders kept."""
    a, b = factors(pv, row.pop(c))
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, x in rest:
        y = row.get(j)
        if y is None:
            row[j] = -b * x
            holders[j].add(k)
        else:
            y -= b * x
            if y:
                row[j] = y
            else:
                del row[j]
                holders[j].discard(k)
    return row if content is None else content(row)


def _min_eig_estimate(g) -> float:
    """The smallest eigenvalue of the Hermitian part of g, by numpy."""
    import numpy as np

    approx = np.array([[complex(x) for x in row] for row in g], dtype=complex)
    return float(np.linalg.eigvalsh((approx + approx.conj().T) / 2).min())


def _real(x):
    """Real part: Fraction for exact scalars, float otherwise."""
    if type(x) is complex:
        return x.real
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x.re if isinstance(x, QQi) else complex(x).real


class Candidate:
    """An item scored by an LDLFactor: coordinates ``y`` along its pivots,
    squared residual ``res2`` (squared distance from their span), and the
    inner products its steps read, ``r`` along the pivots (r_k =
    inner(p_k, item)) and ``raw`` = inner(item, item), whose real part is
    ``diag``.  An exact candidate, one whose diag is a Fraction, also holds
    y as integer triples ``_ys``; that is None for a float candidate and
    once an exact one has met a non-exact value."""

    __slots__ = ("item", "r", "raw", "y", "diag", "res2", "_ys")

    def __init__(self, item, raw):
        self.item = item
        self.r: list = []
        self.raw = raw
        self.y: list = []
        self.diag = diag = _real(raw)
        self.res2 = diag
        self._ys: list | None = [] if isinstance(diag, Fraction) else None


class LDLFactor:
    """A pivoted L D L* factor of a Hermitian form, grown one pivot at a time.

    ``inner(a, b)`` is linear in b: moments omega(s_a s_b*), entries g[a][b]
    of a matrix, or inner products of vectors.  The Gram matrix of the pivots
    p_0, p_1, ... is kept as G = L D L*: ``lower[k]`` holds L_k,j for j < k
    (L is unit lower triangular) and ``dvals`` the positive D.

    * ``score(c)``: the forward solve L y = r, r_k = inner(p_k, c), O(d^2) for
      d pivots, and res2 = inner(c, c) - sum_k |y_k|^2 / D_k (for exact
      scalars exactly the residual of a full solve);
    * ``catch_up(c)``: y_k = inner(p_k, c) - sum_j L_k,j y_j along each pivot
      admitted since, taking |y_k|^2 / D_k off res2;
    * ``admit(c)``: the row L_c,j = conj(y_j) / D_j and D_c = res2.

    A candidate keeps the inner products its score and catch-ups read, r_k
    = inner(p_k, c) and inner(c, c) as read (``Candidate.r`` and ``raw``),
    so a caller can have the Gram matrix of the pivots without reading an
    entry again.

    In vector terms c = sum_j (y_j / D_j) b_j + b_c with b_c orthogonal to
    the pivots and |b_c|^2 = res2.  ``admissible`` is the rank rule: an exact
    res2 must be positive, a float one above ``rank_tol`` (DEFAULT_RANK_TOL)
    times max(1, inner(c, c)).

    The mode is read from the values.  While every inner product is exact,
    the steps run on integers: y_k and L_k,j as Gaussian-integer triples
    (a, b, d) = (a + bi) / d, read by :func:`~cuntzlab.scalars.gaussian_parts`,
    and D_k and res2 as (num, den) pairs.  A step sums L_k,j y_j over one
    running denominator and reduces the entry by one gcd, and res2 by one
    more.  The public ``y``, ``lower``, ``dvals``, ``res2`` and ``diag`` hold
    the values and types the rational loop gives, each entry built once: a
    y_k is an int, Fraction or QQi as inner(p_k, c) - sum_j L_k,j y_j would
    be, and res2 one Fraction per ``catch_up``.  A non-exact value (a float
    state whose omega(1) is the int 1 starts with an exact pivot) ends the
    integer steps of its candidate, and a pivot admitted from such a
    candidate those of the factor: from there the steps run the generic
    loop on the public values, as a float factor does throughout: y_k =
    r_k - sum(map(mul, L_k, y)), summed from 0 in index order on the
    builtin products.
    """

    rank_tol = DEFAULT_RANK_TOL

    def __init__(self, inner):
        self.inner = inner
        self.pivots: list = []
        self.lower: list[list] = []
        self.dvals: list = []
        # the exact leading pivots: L rows as triples, D as (num, den)
        self._lower: list[list] = []
        self._dvals: list = []

    def score(self, item) -> Candidate:
        c = Candidate(item, self.inner(item, item))
        self.catch_up(c)
        return c

    def catch_up(self, c: Candidate) -> None:
        k = len(c.y)
        if c._ys is not None and k < len(self._lower):
            k = self._exact_steps(c)
        if k < len(self.pivots):
            c._ys = None
            for k in range(k, len(self.pivots)):
                self._step(c, k, self.inner(self.pivots[k], c.item))

    def _step(self, c: Candidate, k: int, r) -> None:
        """The step along pivot k in the scalars' own arithmetic."""
        c.r.append(r)
        v = r - sum(map(mul, self.lower[k], c.y), 0)
        c.y.append(v)
        c.res2 = c.res2 - abs2(v) / self.dvals[k]

    def _exact_steps(self, c: Candidate) -> int:
        """The steps along the exact pivots c has not met, on integers;
        returns its count of coordinates after them."""
        inner, item, pivots = self.inner, c.item, self.pivots
        lower, dvals, public = self._lower, self._dvals, self.lower
        y, ys = c.y, c._ys
        n, m = c.res2.numerator, c.res2.denominator
        # the types along y and along a row of L only widen (int, Fraction,
        # QQi), so the last entry tells whether any is a QQi
        qqi = bool(y) and type(y[-1]) is QQi
        for k in range(len(ys), len(lower)):
            r = inner(pivots[k], item)
            t = type(r)
            if t not in _EXACT_TYPES:
                c.res2, c._ys = Fraction(n, m), None
                self._step(c, k, r)
                return k + 1
            c.r.append(r)
            ar, br, dr = gaussian_parts(r)
            # sum_j L_k,j y_j = (x + wi) / den
            x = w = 0
            den = 1
            for (p, s, e), (a, b, d) in zip(lower[k], ys):
                if (a or b) and (p or s):
                    e *= d
                    u = p * a - s * b
                    v = p * b + s * a
                    if e == den:
                        x += u
                        w += v
                    else:
                        x = x * e + u * den
                        w = w * e + v * den
                        den *= e
            a = ar * den - x * dr
            b = br * den - w * dr
            d = dr * den
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
            ys.append((a, b, d))
            if k:
                qqi = qqi or t is QQi or type(public[k][-1]) is QQi
                y.append(_raw(a, b, d) if qqi else Fraction(a, d))
            else:
                qqi = t is QQi
                y.append(r)
            if a or b:
                # res2 - |y_k|^2 / D_k
                dn, dm = dvals[k]
                e = d * d * dn
                n = n * e - m * (a * a + b * b) * dm
                m *= e
                g = gcd(n, m)
                if g != 1:
                    n //= g
                    m //= g
        c.res2 = Fraction(n, m)
        return len(y)

    def admissible(self, c: Candidate) -> bool:
        if isinstance(c.res2, Fraction):
            return c.res2 > 0
        return max(c.res2, 0.0) > self.rank_tol * max(1.0, c.diag)

    def admit(self, c: Candidate) -> None:
        """Make the fully caught-up candidate c the next pivot."""
        if c._ys is None:
            self.lower.append([conj(yj) / dj for yj, dj in zip(c.y, self.dvals)])
        else:
            row = []
            for (a, b, d), (dn, dm) in zip(c._ys, self._dvals):
                # conj(y_j) / D_j = (a - bi) dm / (d dn)
                a, b, d = a * dm, -b * dm, d * dn
                g = gcd(a, b, d)
                row.append((a // g, b // g, d // g))
            self._lower.append(row)
            self._dvals.append((c.res2.numerator, c.res2.denominator))
            self.lower.append([_raw(*t) if type(yj) is QQi else Fraction(t[0], t[2]) for t, yj in zip(row, c.y)])
        self.dvals.append(c.res2)
        self.pivots.append(c.item)


def hermitian_psd_check(g):
    """Decide whether the Hermitian matrix g is positive semidefinite.

    Returns (ok, min_eig_estimate).  A float matrix passes when its
    Hermitian part plus eps I, eps = DEFAULT_RANK_TOL times max(1, largest
    entry magnitude), has an L D L* factor with every pivot positive (see
    :func:`_shifted_ldl_passes`): its smallest eigenvalue is above -eps.
    Exact matrices stream their rows through an :class:`LDLFactor`: a row
    with a positive residual becomes a pivot, and g is PSD exactly when no
    diagonal entry is non-real, no residual is negative, and every
    zero-residual (null) row stays null: no coordinate along a later pivot,
    and a zero Schur coupling g_ab - sum_k conj(y_a,k) y_b,k / D_k to every
    other null row.  A pass returns (True, None); only a failure computes
    the smallest eigenvalue of the Hermitian part, by numpy, for its
    message, so a matrix that passes does not load numpy.
    """
    if len(g) == 0:
        return True, None
    passes = _exact_psd if matrix_is_exact(g) else _shifted_ldl_passes
    if passes(g):
        return True, None
    return False, _min_eig_estimate(g)


def _shifted_ldl_passes(g) -> bool:
    """Whether H + eps I is positive definite, H = (g + g*) / 2 and eps =
    DEFAULT_RANK_TOL times max(1, the largest |entry| of g): whether every
    pivot of its L D L* factor is positive.

    A row and column that are zero in g would be the pivot eps, coupled to
    nothing, so they are left out.  The factor of H itself is tried first
    (:func:`_pivoted_ldl` with no shift): once its pivots are positive and
    its Schur complement S left has S + eps I diagonally dominant, H + eps I
    is positive definite, since the Schur complement of H + eps I on the
    same pivots is at least S + eps I.  A Gram matrix of rank r gets there
    after about r pivots, so a large one of low rank costs a few passes over
    its entries.  Where that factor meets a pivot <= 0, the factor of
    H + eps I decides."""
    c = [[complex(x) for x in row] for row in g]
    eps = DEFAULT_RANK_TOL * max(1.0, max((max(map(abs, row)) for row in c if row), default=0.0))
    live = [i for i, (row, col) in enumerate(zip(c, zip(*c))) if any(row) or any(col)]
    h = [[(c[a][b] + c[b][a].conjugate()) / 2 for b in live] for a in live]
    return _pivoted_ldl([row[:] for row in h], eps, 0.0) or _pivoted_ldl(h, eps, eps)


def _pivoted_ldl(h, eps: float, shift: float) -> bool:
    """Whether every pivot of the L D L* factor of h + shift I is positive,
    the largest diagonal entry left taking the next pivot; h is overwritten
    by Schur complements.  It stops early, True, once each row left has a
    diagonal entry above -eps by more than the rest of the row (Gershgorin):
    the eigenvalues of the matrix the rows left hold are then above -eps."""
    rest = list(range(len(h)))
    while rest:
        if all(h[i][i].real + eps > sum(map(abs, h[i])) - abs(h[i][i]) for i in rest):
            return True
        k = max(rest, key=lambda i: h[i][i].real)
        p = h[k][k].real + shift
        if not p > 0:
            return False
        rest.remove(k)
        hk = h[k]
        for i in rest:
            f = hk[i].conjugate() / p
            if f:
                h[i] = [x - f * y for x, y in zip(h[i], hk)]
            # the column of a pivot is out of the Schur complement
            h[i][k] = 0j
    return True


def _exact_psd(g) -> bool:
    factor = LDLFactor(lambda a, b: g[a][b])
    null = []
    for k, row in enumerate(g):
        if gaussian_parts(row[k])[1]:
            return False
        if not any(row):
            continue  # a zero row of a Hermitian matrix is null and couples to nothing
        c = factor.score(k)
        if c.res2 < 0:
            return False
        if c.res2:
            factor.admit(c)
        else:
            null.append(c)
    for c in null:
        # a residual only shrinks, so a null row with a nonzero coordinate
        # along a later pivot ends negative
        factor.catch_up(c)
        if c.res2:
            return False
    for i, a in enumerate(null):
        row = g[a.item]
        coords = [(k, conj(yk) / dk) for k, (yk, dk) in enumerate(zip(a.y, factor.dvals)) if yk]
        for b in null[i + 1:]:
            schur = row[b.item]
            for k, w in coords:
                if b.y[k]:
                    schur = schur - w * b.y[k]
            if schur:
                return False
    return True
