"""Scalar fields used throughout: exact rationals, Gaussian rationals, complex floats.

Exact mode computes over ``fractions.Fraction`` (or :class:`QI` when a rational
multiple of i is involved); numeric mode computes over Python ``complex``.
All polynomial and matrix code is generic over these scalars, so the mode is
decided once at the edge (by the input data) and simply flows through.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np


class QI:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # arithmetic results pass Fractions: wrap only what is not one
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"

    def __eq__(self, other):
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) + other
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) - other
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if isinstance(other, (float, complex)):
            return other - complex(self)
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            # a rational scales both parts: two products instead of four
            return QI(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) / other
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        if isinstance(other, (float, complex)):
            return other / complex(self)
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return QI(self.re, -self.im)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _as_qi(x):
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI(x)
    return None


def is_exact(x) -> bool:
    """True for scalars carrying exact arithmetic (int, Fraction, QI)."""
    # the common floating case, before the ABC checks of isinstance
    if type(x) is complex or type(x) is float:
        return False
    return isinstance(x, (int, Fraction, QI)) and not isinstance(x, bool)


def to_complex(x) -> complex:
    if isinstance(x, QI):
        return complex(x)
    if isinstance(x, Fraction):
        return complex(float(x))
    if isinstance(x, (np.complexfloating, np.floating, np.integer)):
        return complex(x)
    return complex(x)


def coerce(x):
    """Normalize a scalar into one of the supported field element types."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, QI)):
        return x
    if isinstance(x, (float, np.floating)):
        return complex(x)
    if isinstance(x, (complex, np.complexfloating)):
        return complex(x)
    if isinstance(x, numbers.Number):
        return complex(x)
    raise TypeError(f"unsupported scalar type {type(x)!r}")


def scalar_abs(x) -> float:
    if type(x) is complex or type(x) is float:
        return abs(x)
    if isinstance(x, Fraction):
        return abs(float(x))
    if isinstance(x, QI):
        return abs(complex(x))
    return abs(to_complex(x))


def format_scalar(x):
    """JSON-friendly rendering: exact rationals as 'p/q', complex as [re, im]."""
    x = coerce(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else f"{x.numerator}"
    if isinstance(x, QI):
        return [format_scalar(x.re), format_scalar(x.im)]
    return [x.real, x.imag]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
