"""Gaussian-rational scalars and the exact/float linear algebra kernel."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import QQi
from cuntzlab.linalg import (
    hermitian_psd_check,
    kernel_basis,
    mat_mul,
    rank,
)
from cuntzlab.scalars import (
    abs2,
    conj,
    format_float,
    gaussian_parts,
    is_exact_scalar,
    scalars_close,
)

from conftest import fr, q


class TestQQi:
    def test_arithmetic(self):
        z = QQi(1, 2)
        assert z * z == QQi(-3, 4)  # (1+2i)^2 = -3+4i
        assert z + QQi(2, -2) == QQi(3, 0)
        assert z - z == QQi(0, 0)
        assert -z == QQi(-1, -2)

    def test_division_stays_exact(self):
        assert QQi(1, 0) / QQi(1, 2) == QQi(fr(1, 5), fr(-2, 5))
        assert QQi(3, 4) / QQi(3, 4) == QQi(1, 0)

    def test_conjugate_and_abs2(self):
        z = QQi(fr(3, 5), fr(4, 5))
        assert z.conjugate() == QQi(fr(3, 5), fr(-4, 5))
        assert z.abs2() == 1
        assert abs2(z) == 1
        assert conj(z) == z.conjugate()

    def test_fraction_strings_accepted(self):
        assert QQi("3/5", "4/5") == QQi(fr(3, 5), fr(4, 5))

    def test_interops_with_ints_and_fractions(self):
        assert QQi(1, 1) * 2 == QQi(2, 2)
        assert QQi(1, 0) + fr(1, 2) == QQi(fr(3, 2), 0)

    def test_complex_conversion(self):
        assert complex(QQi(fr(1, 2), fr(-1, 4))) == 0.5 - 0.25j

    def test_exactness_predicate(self):
        assert is_exact_scalar(QQi(1, 2))
        assert is_exact_scalar(fr(1, 3))
        assert is_exact_scalar(7)
        assert not is_exact_scalar(0.5)
        assert not is_exact_scalar(1 + 2j)

    def test_gaussian_parts(self):
        # (a, b, d) with x = (a + bi)/d, d > 0 and gcd(a, b, d) = 1
        assert gaussian_parts(QQi(fr(1, 2), fr(-1, 3))) == (3, -2, 6)
        assert gaussian_parts(QQi(fr(2, 4), 0)) == (1, 0, 2)
        assert gaussian_parts(fr(-6, 4)) == (-3, 0, 2)
        assert gaussian_parts(7) == (7, 0, 1)

    def test_scalars_close(self):
        assert scalars_close(QQi(1, 0), 1.0 + 1e-12j)
        assert not scalars_close(QQi(1, 0), 1.1)


class TestFormatting:
    def test_format_float_trims_noise(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"
        assert "666666666" in format_float(2 / 3)


class TestRank:
    def test_exact_rank(self):
        m = [[q(1), q(2)], [q(2), q(4)]]
        assert rank(m) == 1
        assert rank([[q(1), q(0)], [q(0), q(1)]]) == 2
        assert rank([[q(0)]]) == 0

    def test_float_rank_uses_tolerance(self):
        m = [[1.0, 2.0], [2.0, 4.0 + 1e-13]]
        assert rank(m) == 1

    def test_complex_entries(self):
        m = [[q(0, 1), q(1)], [q(-1), q(0, 1)]]  # second row = i * first
        assert rank(m) == 1


class TestKernel:
    def test_kernel_of_rank_one_projector_like_matrix(self):
        m = [[q(1), q(1)], [q(1), q(1)]]
        basis = kernel_basis(m, 2)
        assert len(basis) == 1
        v = basis[0]
        # the kernel vector satisfies v1 + v2 = 0
        assert v[0] + v[1] == QQi(0, 0)


class TestPsdCheck:
    def test_positive_matrix_passes(self):
        ok, mineig = hermitian_psd_check([[q(2), q(1)], [q(1), q(2)]])
        assert ok

    def test_indefinite_matrix_fails_with_witness(self):
        ok, mineig = hermitian_psd_check([[q(0), q(1)], [q(1), q(0)]])
        assert not ok
        assert float(mineig) < 0

    def test_exact_pass_carries_no_estimate(self):
        assert hermitian_psd_check([[q(2), q(1)], [q(1), q(2)]]) == (True, None)

    def test_empty_matrix_passes_with_no_estimate(self):
        assert hermitian_psd_check([]) == (True, None)

    def test_float_matrix_carries_its_estimate(self):
        # a pass, as in exact mode, computes no estimate
        assert hermitian_psd_check([[2.0, 1.0], [1.0, 2.0]]) == (True, None)
        ok, mineig = hermitian_psd_check([[0.0, 1.0], [1.0, 0.0]])
        assert not ok and abs(mineig + 1.0) < 1e-12


class TestMatMul:
    def test_exact_product(self):
        a = [[q(0, 1), q(0)], [q(0), q(0, -1)]]
        assert mat_mul(a, a) == [[q(-1), q(0)], [q(0), q(-1)]]


def _naive_product(a, b):
    """The product by the textbook triple loop, every term summed."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), 0) for j in range(len(b[0]))]
            for i in range(len(a))]


def _generator_product(a, b):
    """The product summed by one generator per entry over the nonzero pairs,
    the form mat_mul once had: float sums must come out bit for bit alike."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), 0) for col in cols] for row in a]


def _bits(m):
    """The entries by repr, so that a float's every bit, the sign of zero
    included, takes part in ==."""
    return [[repr(x) for x in row] for row in m]


# mostly zeros, so the products are sparse
_EXACT = st.one_of(st.just(0), st.just(0), st.integers(-5, 5),
                   st.fractions(min_value=-3, max_value=3, max_denominator=7))
_GAUSSIAN = st.one_of(st.just(QQi(0)), st.builds(lambda re, im: QQi(re, im), _EXACT, _EXACT))
# ratios of integers to a prime are inexact in binary, so the sums round
# differently in another order
_FLOAT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False),
                   st.integers(-10**6, 10**6).map(lambda k: k / 7919))
_COMPLEX = st.one_of(st.just(0j), st.builds(complex, _FLOAT, _FLOAT))


@st.composite
def _factors(draw, entries):
    """Two matrices a (r x k) and b (k x c), rectangular as often as square."""
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return a, b


class TestMatMulOracle:
    @given(st.one_of(_factors(_EXACT), _factors(_GAUSSIAN)))
    def test_exact_product_equals_the_triple_loop(self, ab):
        a, b = ab
        got = mat_mul(a, b)
        assert got == _naive_product(a, b)
        assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)

    @given(st.one_of(_factors(_FLOAT), _factors(_COMPLEX)))
    def test_float_product_is_the_generator_form_bit_for_bit(self, ab):
        a, b = ab
        got = mat_mul(a, b)
        assert _bits(got) == _bits(_generator_product(a, b))
        assert all(scalars_close(x, y, 1e-9) for gr, nr in zip(got, _naive_product(a, b)) for x, y in zip(gr, nr))

    def test_dense_float_products_keep_the_generator_form_order(self):
        # dense rows of inexact entries: a sum in any other order rounds differently
        rng = random.Random(7919)
        for r, k, c in ((6, 6, 6), (5, 7, 3), (1, 9, 4)):
            for entry in (lambda: rng.uniform(-1, 1), lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))):
                a = [[entry() for _ in range(k)] for _ in range(r)]
                b = [[entry() for _ in range(c)] for _ in range(k)]
                assert _bits(mat_mul(a, b)) == _bits(_generator_product(a, b))

    def test_rectangular_shapes(self):
        a = [[1, 0, fr(1, 2)]]  # 1 x 3
        b = [[2, 0], [0, 5], [4, q(0, 1)]]  # 3 x 2
        assert mat_mul(a, b) == [[4, q(0, fr(1, 2))]]
        assert mat_mul(b, [[1], [q(0, 1)]]) == [[2], [q(0, 5)], [3]]  # 3 x 2 times 2 x 1
