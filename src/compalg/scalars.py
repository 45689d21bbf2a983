"""Exact scalar arithmetic: rationals and Gaussian rationals.

Real coefficients are plain ``int`` or ``fractions.Fraction``; complex ones
are ``GaussRational``, a pair of rationals.  Floats are rejected everywhere:
every scalar this package touches is exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

RATIONAL_TYPES = (int, Fraction)

_HASH_IMAG = sys.hash_info.imag


def _check_rational(x, what="value"):
    if not isinstance(x, RATIONAL_TYPES) or isinstance(x, bool):
        raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__}")
    return x


class GaussRational:
    """A Gaussian rational ``re + im*i`` with exact rational components.

    Interoperates with ``int`` and ``Fraction`` in arithmetic and equality,
    and exposes the ``real``/``imag``/``conjugate`` protocol of the numeric
    tower so generic scalar code never needs type switches.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _check_rational(re, "real part")
        self.im = _check_rational(im, "imaginary part")

    @classmethod
    def _make(cls, re, im):
        # internal fast path: components already known rational
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def conjugate(self):
        return GaussRational._make(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussRational):
            return GaussRational._make(self.re + other.re, self.im + other.im)
        if isinstance(other, RATIONAL_TYPES):
            return GaussRational._make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussRational):
            return GaussRational._make(self.re - other.re, self.im - other.im)
        if isinstance(other, RATIONAL_TYPES):
            return GaussRational._make(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRational._make(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussRational):
            return GaussRational._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, RATIONAL_TYPES):
            return GaussRational._make(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussRational):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussRational._make(
                _div(self.re * other.re + self.im * other.im, n),
                _div(self.im * other.re - self.re * other.im, n),
            )
        if isinstance(other, RATIONAL_TYPES):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return GaussRational._make(_div(self.re, other), _div(self.im, other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussRational(other) / self
        return NotImplemented

    def __neg__(self):
        return GaussRational._make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, RATIONAL_TYPES):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # same recipe as complex.__hash__, so GaussRational(q, 0) hashes
        # like the rational q itself
        return hash(self.re) + _HASH_IMAG * hash(self.im)

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            return f"{self.re}+{self.im}i" if self.re != 0 else f"{self.im}i"
        if self.re != 0:
            return f"{self.re}-{-self.im}i"
        return f"{self.im}i"


#: The imaginary unit of the coefficient field.
I = GaussRational(0, 1)


def _div(x, y):
    # x, y rational; keeps int/int away from float division and collapses
    # integral quotients back to int so later arithmetic stays on the fast path
    q = Fraction(x) / y
    return q.numerator if q.denominator == 1 else q


def exact_div(x, y):
    """Exact ``x / y`` for any mix of rational and Gaussian-rational scalars."""
    if isinstance(x, GaussRational):
        return x / y
    if isinstance(y, GaussRational):
        return GaussRational(x) / y
    if y == 0:
        raise ZeroDivisionError("division by zero")
    return _div(x, y)
