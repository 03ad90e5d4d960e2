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
from numbers import Complex

__all__ = [
    "QQi",
    "Scalar",
    "DEFAULT_EQ_TOL",
    "DEFAULT_RANK_TOL",
    "conj",
    "abs2",
    "is_exact_scalar",
    "scalar_is_zero",
    "scalars_close",
    "format_float",
    "format_scalar",
]

DEFAULT_EQ_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-10

_RationalLike = (int, Fraction)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise TypeError(f"not exactly representable: {x!r}")


class QQi:
    """A Gaussian rational a + b*i with exact Fraction coordinates."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, _RationalLike):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other if isinstance(other, Complex) else NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other if isinstance(other, Complex) else NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - complex(self) if isinstance(other, Complex) else NotImplemented
        return QQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other if isinstance(other, Complex) else NotImplemented
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other if isinstance(other, Complex) else NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self) if isinstance(other, Complex) else NotImplemented
        return o / self

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
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return abs(complex(self))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RationalLike):
            return self.im == 0 and self.re == other
        if isinstance(other, Complex):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        def short(f: Fraction):
            return str(f.numerator) if f.denominator == 1 else f"'{f}'"

        return f"QQi({short(self.re)}, {short(self.im)})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


Scalar = QQi | int | Fraction | float | complex


def conj(x):
    """Complex conjugate for any supported scalar."""
    return x.conjugate()


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


def scalar_is_zero(x, tol: float | None = None) -> bool:
    """Zero test: exact for exact scalars, |x| <= tol otherwise."""
    if is_exact_scalar(x):
        return x == 0
    return abs(complex(x)) <= (DEFAULT_EQ_TOL if tol is None else tol)


def scalars_close(x, y, tol: float | None = None) -> bool:
    if is_exact_scalar(x) and is_exact_scalar(y):
        qx = x if isinstance(x, QQi) else QQi(x)
        return qx == (y if isinstance(y, QQi) else QQi(y))
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
