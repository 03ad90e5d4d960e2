"""Scalar arithmetic in two modes: exact Gaussian rationals and complex floats.

Every quantity in this package is either *exact* -- an integer, a
`fractions.Fraction`, or a :class:`QQi` Gaussian rational -- or a *float-mode*
value (`float` / `complex`).  Exact values propagate exactly through sums,
products and quotients; mixing an exact value with a float silently degrades
the result to a complex float, mirroring how the inputs decide the working
mode everywhere else.

>>> QQi("3/5", "4/5") * QQi("3/5", "-4/5")
QQi(1, 0)
>>> abs2(QQi("3/5", "4/5"))
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Complex

__all__ = [
    "QQi",
    "DEFAULT_EQ_TOL",
    "DEFAULT_RANK_TOL",
    "conj",
    "abs2",
    "is_exact_scalar",
    "gaussian_parts",
    "scalar_is_zero",
    "scalars_close",
    "format_float",
    "format_scalar",
]

DEFAULT_EQ_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-10

_RationalLike = (int, Fraction)
_SELF_CONJUGATE = (*_RationalLike, float)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    raise TypeError(f"not exactly representable: {x!r}")


class QQi:
    """A Gaussian rational (a + b*i)/d, kept as three integers.

    The denominator is shared by both coordinates, d > 0 and
    gcd(a, b, d) = 1, so every value has one representation and each ring
    operation costs integer arithmetic plus one gcd.  ``re`` and ``im`` read
    the coordinates as Fractions.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        # an int or Fraction already has its numerator and denominator
        if not isinstance(re, _RationalLike):
            re = _to_fraction(re)
        if not isinstance(im, _RationalLike):
            im = _to_fraction(im)
        p, q = re.denominator, im.denominator
        d = lcm(p, q)
        # both coordinates are in lowest terms, so (a, b, d) is already reduced
        _set_abd(self, (re.numerator * (d // p), im.numerator * (d // q), d))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __delattr__(self, name):
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- ring operations ---------------------------------------------------
    # int and Fraction operands are read as (p, q) = p/q; float and complex
    # operands degrade the result to a complex float

    def __add__(self, other):
        a, b, d = self._abd
        if type(other) is QQi:
            c, e, f = other._abd
            if d == f:
                return _make(a + c, b + e, d)
            return _make(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, int):
            return _raw(a + other * d, b, d)  # gcd(a + kd, b, d) = gcd(a, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(a * q + p * d, b * q, d * q)
        return complex(self) + other if isinstance(other, Complex) else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _raw(-a, -b, d)

    def __sub__(self, other):
        a, b, d = self._abd
        if type(other) is QQi:
            c, e, f = other._abd
            if d == f:
                return _make(a - c, b - e, d)
            return _make(a * f - c * d, b * f - e * d, d * f)
        if isinstance(other, int):
            return _raw(a - other * d, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(a * q - p * d, b * q, d * q)
        return complex(self) - other if isinstance(other, Complex) else NotImplemented

    def __rsub__(self, other):
        a, b, d = self._abd
        if isinstance(other, int):
            return _raw(other * d - a, -b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(p * d - a * q, -b * q, d * q)
        return other - complex(self) if isinstance(other, Complex) else NotImplemented

    def __mul__(self, other):
        a, b, d = self._abd
        if type(other) is QQi:
            c, e, f = other._abd
            return _make(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, int):
            return _make(a * other, b * other, d)
        if isinstance(other, Fraction):
            p = other.numerator
            return _make(a * p, b * p, d * other.denominator)
        return complex(self) * other if isinstance(other, Complex) else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._abd
        if type(other) is QQi:
            # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
            c, e, f = other._abd
            n2 = c * c + e * e
            if n2 == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n2)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if p < 0:
                p, q = -p, -q
            return _make(a * q, b * q, d * p)
        return complex(self) / other if isinstance(other, Complex) else NotImplemented

    def __rtruediv__(self, other):
        a, b, d = self._abd
        if isinstance(other, (int, Fraction)):
            # p/q / ((a + bi)/d) = p d (a - bi) / (q (a^2 + b^2))
            n2 = a * a + b * b
            if n2 == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            pd = other.numerator * d
            return _make(pd * a, -pd * b, other.denominator * n2)
        return other / complex(self) if isinstance(other, Complex) else NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = QQi(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "QQi":
        a, b, d = self._abd
        return _raw(a, -b, d)

    def abs2(self) -> Fraction:
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __bool__(self) -> bool:
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __eq__(self, other) -> bool:
        if type(other) is QQi:
            return self._abd == other._abd
        if isinstance(other, int):
            return self._abd == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._abd == (other.numerator, 0, other.denominator)
        if isinstance(other, Complex):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        a, b, d = self._abd
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash((Fraction(a, d), Fraction(b, d)))

    def __repr__(self):
        def short(f: Fraction):
            return str(f.numerator) if f.denominator == 1 else f"'{f}'"

        return f"QQi({short(self.re)}, {short(self.im)})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


# the slot's own setter writes past the __setattr__ that keeps QQi immutable
_set_abd = QQi._abd.__set__
_new = object.__new__


def _raw(a: int, b: int, d: int) -> QQi:
    """(a + bi)/d for d > 0 already coprime to gcd(a, b)."""
    q = _new(QQi)
    _set_abd(q, (a, b, d))
    return q


def _make(a: int, b: int, d: int) -> QQi:
    """(a + bi)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QQi)
    _set_abd(q, (a, b, d))
    return q


def conj(x):
    """Complex conjugate for any supported scalar."""
    return x.conjugate()


def _self_or_conj(x):
    """conj(x), but x itself when it is its own conjugate: an int, Fraction
    or float, or a QQi with no imaginary part.  ``conjugate()`` builds a new
    object for a Fraction or QQi, so a Hermitian matrix whose lower entries
    are read this way off its upper ones shares them instead."""
    t = type(x)
    if t is QQi:
        return x if not x._abd[1] else x.conjugate()
    return x if t in _SELF_CONJUGATE else x.conjugate()


def abs2(x):
    """|x|^2, exact (Fraction) for exact scalars, float otherwise."""
    if isinstance(x, QQi):
        return x.abs2()
    if isinstance(x, _RationalLike):
        return x * x
    c = complex(x)
    return c.real * c.real + c.imag * c.imag


def is_exact_scalar(x) -> bool:
    return isinstance(x, (QQi, int, Fraction))


def gaussian_parts(x) -> tuple[int, int, int]:
    """(a, b, d) with x = (a + bi)/d, d > 0 and gcd(a, b, d) = 1, for an
    exact scalar x; a QQi gives its own triple, so nothing is built."""
    if type(x) is QQi:
        return x._abd
    return x.numerator, 0, x.denominator


def scalar_is_zero(x, tol: float | None = None) -> bool:
    """Zero test: exact for exact scalars, |x| <= tol otherwise."""
    if is_exact_scalar(x):
        return x == 0
    return abs(complex(x)) <= (DEFAULT_EQ_TOL if tol is None else tol)


def scalars_close(x, y, tol: float | None = None) -> bool:
    if is_exact_scalar(x) and is_exact_scalar(y):
        return x == y
    return abs(complex(x) - complex(y)) <= (DEFAULT_EQ_TOL if tol is None else tol)


def format_float(x: float) -> str:
    """Deterministic 12-significant-digit rendering, -0 normalized."""
    if x == 0:
        x = 0.0
    return f"{x:.12g}"


def format_scalar(x) -> str:
    if isinstance(x, QQi):
        return str(x)
    if isinstance(x, _RationalLike):
        return str(x)
    c = complex(x)
    if c.imag == 0:
        return format_float(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{format_float(c.real)}{sign}{format_float(abs(c.imag))}i"
