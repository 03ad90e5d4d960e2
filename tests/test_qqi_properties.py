"""Property tests of QQi against an independent oracle: a pair of Fractions.

Every operation is recomputed on (re, im) Fraction pairs with the textbook
formulas, and the QQi result must agree coordinate by coordinate.  The
exact branch of ``scalars_close`` must agree with the comparison of both
sides converted to QQi.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import QQi
from cuntzlab.scalars import _to_fraction, scalars_close

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))
rationals = st.one_of(st.integers(-50, 50), fractions)
gaussians = st.tuples(fractions, fractions)


def qqi(pair):
    return QQi(pair[0], pair[1])


def pair_of(z):
    return (z.re, z.im)


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def pair_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def pair_repr(re, im):
    def short(f):
        return str(f.numerator) if f.denominator == 1 else f"'{f}'"

    return f"QQi({short(re)}, {short(im)})"


def assert_canonical(z):
    a, b, d = z._abd
    assert d > 0 and gcd(a, b, d) == 1
    assert z._abd == QQi(z.re, z.im)._abd


def assert_matches(z, pair):
    assert isinstance(z, QQi)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert pair_of(z) == tuple(Fraction(p) for p in pair)
    assert_canonical(z)


class TestRingOperations:
    @given(gaussians, gaussians)
    def test_add_sub_mul(self, x, y):
        assert_matches(qqi(x) + qqi(y), (x[0] + y[0], x[1] + y[1]))
        assert_matches(qqi(x) - qqi(y), (x[0] - y[0], x[1] - y[1]))
        assert_matches(qqi(x) * qqi(y), pair_mul(x, y))
        assert_matches(-qqi(x), (-x[0], -x[1]))

    @given(gaussians, gaussians)
    def test_division(self, x, y):
        if y == (0, 0):
            with pytest.raises(ZeroDivisionError):
                qqi(x) / qqi(y)
        else:
            assert_matches(qqi(x) / qqi(y), pair_div(x, y))

    @given(gaussians, rationals)
    def test_mixed_with_int_and_fraction(self, x, r):
        z, y = qqi(x), (Fraction(r), Fraction(0))
        assert_matches(z + r, (x[0] + r, x[1]))
        assert_matches(r + z, (x[0] + r, x[1]))
        assert_matches(z - r, (x[0] - r, x[1]))
        assert_matches(r - z, (r - x[0], -x[1]))
        assert_matches(z * r, pair_mul(x, y))
        assert_matches(r * z, pair_mul(x, y))
        if r == 0:
            with pytest.raises(ZeroDivisionError):
                z / r
        else:
            assert_matches(z / r, pair_div(x, y))
        if x == (0, 0):
            with pytest.raises(ZeroDivisionError):
                r / z
        else:
            assert_matches(r / z, pair_div(y, x))

    @given(gaussians, st.integers(0, 7))
    def test_power(self, x, k):
        expected = (Fraction(1), Fraction(0))
        for _ in range(k):
            expected = pair_mul(expected, x)
        assert_matches(qqi(x) ** k, expected)

    @given(gaussians)
    def test_conjugate_and_abs2(self, x):
        z = qqi(x)
        assert_matches(z.conjugate(), (x[0], -x[1]))
        assert type(z.abs2()) is Fraction
        assert z.abs2() == x[0] * x[0] + x[1] * x[1]

    @given(gaussians, st.sampled_from([0.5, -2.0, 1.5 - 0.25j]))
    def test_float_operands_degrade_to_complex(self, x, f):
        c = complex(float(x[0]), float(x[1]))
        assert complex(qqi(x)) == c
        assert qqi(x) + f == c + f and f - qqi(x) == f - c and qqi(x) * f == c * f


class TestEqualityAndHash:
    @given(rationals)
    def test_real_values_agree_with_int_and_fraction(self, x):
        z = QQi(x)
        assert z == x and x == z
        assert hash(z) == hash(x)
        assert hash(z) == hash(Fraction(x))
        assert z != x + 1

    @given(gaussians, gaussians)
    def test_equality_is_coordinatewise(self, x, y):
        assert (qqi(x) == qqi(y)) == (x == y)
        if x == y:
            assert hash(qqi(x)) == hash(qqi(y))

    @given(gaussians)
    def test_nonreal_values_differ_from_reals(self, x):
        if x[1] != 0:
            assert qqi(x) != x[0]
            assert hash(qqi(x)) == hash((x[0], x[1]))


class TestRendering:
    @given(gaussians)
    def test_str_and_repr_are_the_pair_rendering(self, x):
        assert str(qqi(x)) == pair_str(*x)
        assert repr(qqi(x)) == pair_repr(*x)

    def test_examples(self):
        assert repr(QQi("3/5", "-4/5")) == "QQi('3/5', '-4/5')"
        assert str(QQi(0, Fraction(-1, 2))) == "-1/2i"
        assert str(QQi(2, -1)) == "2-1i"


class TestCanonicalRepresentation:
    @given(gaussians, st.tuples(st.builds(Fraction, st.integers(-50, 0), st.integers(1, 60)), fractions))
    def test_dividing_by_nonpositive_real_part_stays_canonical(self, x, y):
        if y == (0, 0):
            return
        z = qqi(x) / qqi(y)
        assert_canonical(z)
        assert_canonical(z / y[0] if y[0] else z / QQi(0, y[1]))
        assert_canonical(x[0] / qqi(y) if x[0] else qqi(y) / -1)

    @given(gaussians)
    def test_zero_has_one_form(self, x):
        assert (qqi(x) - qqi(x))._abd == (0, 0, 1)
        assert (qqi(x) * 0)._abd == (0, 0, 1)


def abd_via_fractions(re, im):
    """The triple of re + i im read through ``_to_fraction``: both parts as
    Fractions in lowest terms, over the lcm of their denominators."""
    re, im = _to_fraction(re), _to_fraction(im)
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


# every kind of part QQi takes: int, Fraction, bool, integer-valued float and rational string
parts = st.one_of(st.integers(-10**20, 10**20), fractions, st.booleans(),
                  st.integers(-2**53, 2**53).map(float), fractions.map(str), st.integers(-50, 50).map(str))


class TestConstruction:
    @given(parts, parts)
    def test_every_kind_of_part_gives_the_triple_of_its_fractions(self, re, im):
        abd = QQi(re, im)._abd
        assert abd == abd_via_fractions(re, im)
        assert all(type(x) is int for x in abd)
        assert_canonical(QQi(re, im))


class TestImmutability:
    @given(gaussians)
    def test_no_attribute_can_be_set_or_deleted(self, x):
        z = qqi(x)
        for name in ("re", "im", "_abd", "other"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
        for name in ("re", "im", "_abd"):
            with pytest.raises(AttributeError):
                delattr(z, name)
        assert pair_of(z) == x

    @given(gaussians, gaussians)
    def test_operations_leave_operands_alone(self, x, y):
        a, b = qqi(x), qqi(y)
        for result in (a + b, a - b, a * b, -a, a.conjugate(), a ** 2):
            assert result is not a and result is not b
        assert pair_of(a) == x and pair_of(b) == y


def _qqi_comparison(x, y):
    # the reference: both sides converted to QQi, then compared
    qx = x if isinstance(x, QQi) else QQi(x)
    return qx == (y if isinstance(y, QQi) else QQi(y))


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
small_gaussians = st.tuples(small_fractions, st.one_of(st.just(Fraction(0)), small_fractions))


def _typed(pair, kind):
    """The value re + i im as an int, a Fraction or a QQi: the first of
    those, from ``kind`` on, that holds it."""
    re, im = pair
    if im == 0 and kind == 0 and re.denominator == 1:
        return int(re)
    if im == 0 and kind <= 1:
        return Fraction(re)
    return QQi(re, im)


@st.composite
def exact_scalar_pairs(draw):
    x = draw(small_gaussians)
    y = x if draw(st.booleans()) else draw(small_gaussians)
    return _typed(x, draw(st.integers(0, 2))), _typed(y, draw(st.integers(0, 2)))


class TestScalarsClose:
    @given(exact_scalar_pairs())
    def test_exact_agreement_is_the_qqi_comparison(self, case):
        x, y = case
        assert scalars_close(x, y) == scalars_close(y, x) == _qqi_comparison(x, y)
