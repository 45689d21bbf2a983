"""Exact scalars at the library boundary: rationals and Gaussian rationals.

Real coefficients are ``int`` or ``fractions.Fraction``, complex ones
``GaussRational``; ``core.integer_form`` reads every scalar that enters the
library and rejects a bool, a float and any other type.  The library
computes on core's integer form; ``GaussRational``'s ``+ - * /`` and
``exact_div`` are a convenience for callers, each reading its operands
through one coercion, ``_parts``, which rejects non-exact types (a bool acts
as the int it is, as under ``/``).
"""

from __future__ import annotations

import sys
from fractions import Fraction

RATIONAL_TYPES = (int, Fraction)


def _parts(x):
    """An exact scalar as ``(re, im)``; None for anything else."""
    if isinstance(x, GaussRational):
        return x.re, x.im
    return (x, 0) if isinstance(x, RATIONAL_TYPES) else None


class GaussRational:
    """A Gaussian rational ``re + im*i`` with exact rational components.

    Interoperates with ``int`` and ``Fraction`` in arithmetic and equality,
    and exposes the ``real``/``imag``/``conjugate`` protocol of the numeric
    tower so generic scalar code never needs type switches.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for x, part in ((re, "real"), (im, "imaginary")):
            if not isinstance(x, RATIONAL_TYPES) or isinstance(x, bool):
                name = type(x).__name__
                raise TypeError(f"{part} part must be int or Fraction, got {name}")
        self.re, self.im = re, im

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
        q = _parts(other)
        if q is None:
            return NotImplemented
        return GaussRational._make(self.re + q[0], self.im + q[1])

    __radd__ = __add__

    def __sub__(self, other):
        q = _parts(other)
        if q is None:
            return NotImplemented
        return GaussRational._make(self.re - q[0], self.im - q[1])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        q = _parts(other)
        if q is None:
            return NotImplemented
        (a, b), (c, d) = (self.re, self.im), q
        if isinstance(other, GaussRational):
            return GaussRational._make(a * c - b * d, a * d + b * c)
        return GaussRational._make(a * c, b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _parts(other)
        if q is None:
            return NotImplemented
        (a, b), (c, d) = (self.re, self.im), q
        n = c * c + d * d
        if n == 0:
            gauss = " Gaussian rational" if isinstance(other, GaussRational) else ""
            raise ZeroDivisionError(f"division by zero{gauss}")
        return GaussRational._make(_div(a * c + b * d, n), _div(b * c - a * d, n))

    def __rtruediv__(self, other):
        q = _parts(other)
        if q is None:
            return NotImplemented
        return GaussRational._make(*q) / self

    def __neg__(self):
        return GaussRational._make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        q = _parts(other)
        if q is None:
            return NotImplemented
        return self.re == q[0] and self.im == q[1]

    def __hash__(self):
        # same recipe as complex.__hash__, so GaussRational(q, 0) hashes
        # like the rational q itself
        return hash(self.re) + sys.hash_info.imag * hash(self.im)

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
    """Exact ``x / y`` for any mix of rational and Gaussian-rational scalars:
    the ``/`` operator when either is Gaussian, else a rational.  Any other
    operand raises TypeError."""
    if isinstance(x, GaussRational) or isinstance(y, GaussRational):
        return x / y
    if _parts(x) is None or _parts(y) is None:
        names = f"{type(x).__name__} and {type(y).__name__}"
        raise TypeError(f"exact_div needs exact scalars, got {names}")
    if y == 0:
        raise ZeroDivisionError("division by zero")
    return _div(x, y)
