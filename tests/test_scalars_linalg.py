"""Gaussian-rational scalars and the exact/float linear algebra kernel."""

from fractions import Fraction

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
