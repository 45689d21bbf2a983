"""Structure tables and exact element arithmetic for the six composition
algebras.

Naming and basis conventions
----------------------------
* ``H``  -- quaternions over the rationals
* ``Hs`` -- split quaternions (indices 1, 3 square to +1, displayed primed)
* ``Hc`` -- quaternions with Gaussian-rational coefficients
* ``O``  -- octonions
* ``Os`` -- split octonions (indices 1, 3, 5, 7 square to +1, primed)
* ``Oc`` -- octonions with Gaussian-rational coefficients

Coefficients are positional: index 0 is the unit, indices 1..dim-1 are the
imaginary units.  Primes are display-only.  The dim-8 tables are generated
from the dim-4 ones through the doubling product

    (m1 + n1*e4)(m2 + n2*e4) = (m1*m2 - conj(n2)*n1) + (n1*conj(m2) + n2*m1)*e4

with the index-6 unit fixed as -(e2*e4), so the derived units satisfy
e5 = e1*e4, e6 = -e2*e4, e7 = e3*e4; the generated tables are cross-checked
against those sign conventions at import time.

Storage and integer kernel
--------------------------
An ``Element`` stores one form only: integer numerators over one positive
common denominator ``den``, as ``num = (re, im)``, a real and an imaginary
numerator tuple, ``im`` None when every imaginary part is zero.  The form
is canonical, ``gcd(den, all numerators) == 1``, so equality and hashing
compare the tuples.  ``Element.__init__`` builds it from exact scalars
(``integer_form``); every operation builds it from integer results through
one normaliser, which divides out one gcd.  No operation does arithmetic on
``Fraction`` or ``GaussRational`` objects.  One integer bilinear product,
driven by the structure table, serves every product, the doubling above
included; over the Gaussian rationals it runs three real products, not
four.  Inner product and norm are the metric-weighted integer dot product.
Inverse and sandwich fold the norm into the common denominator.  Sums,
negation and conjugation are integer vector operations, and a scalar
operand is lifted once onto the unit.  The null space of
``commutant.nullspace`` uses the same integer form for fraction-free
elimination.

``coeffs`` is a read-only view of the stored form, always in normal form: a
coefficient is an ``int`` when integral, otherwise a reduced ``Fraction``,
and a ``GaussRational`` only when its imaginary part is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraMismatch, ConsistencyError, NotInvertible
from .scalars import RATIONAL_TYPES, GaussRational

# dim-4 tables: table[i][j] = (k, sign) meaning e_i * e_j = sign * e_k.
# Quaternions: e1^2 = e2^2 = e3^2 = -1, e1 e2 = e3 = -e2 e1 (cyclically).
QUATERNION_TABLE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)

# Split quaternions: e1^2 = e3^2 = +1, e2^2 = -1,
# e1 e2 = e3 = -e2 e1, e2 e3 = e1 = -e3 e2, e3 e1 = -e2 = -e1 e3.
SPLIT_QUATERNION_TABLE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 1), (3, 1), (2, 1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, -1), (1, -1), (0, 1)),
)


# -- integer kernel ------------------------------------------------------------
#
# A vector in integer form is a pair (re, im) of int sequences, im None
# when every imaginary part is zero; with a common denominator den it
# stands for the coefficients (re[k] + im[k] i) / den.


def integer_form(coeffs):
    """``(den, (re, im))``: the integer numerator tuples of exact scalars
    over their least common denominator, which leaves gcd(den, all
    numerators) == 1."""
    if all(type(c) is int for c in coeffs):
        return 1, (tuple(coeffs), None)
    re = [c.re if isinstance(c, GaussRational) else c for c in coeffs]
    im = [c.im if isinstance(c, GaussRational) else 0 for c in coeffs]
    den = lcm(*[x.denominator for x in re + im])
    return den, (_numerators(re, den), _numerators(im, den) if any(im) else None)


def _numerators(xs, den):
    return tuple([x.numerator * (den // x.denominator) for x in xs])


def rational(n, d):
    """The normal form of n/d for ints n, d != 0: an int when integral,
    else a reduced Fraction."""
    if d == 1:
        return n
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def scalar(re, im, d):
    """The normal form of (re + im i)/d: a rational when im is zero, else a
    GaussRational with normal-form parts."""
    if not im:
        return rational(re, d)
    return GaussRational._make(rational(re, d), rational(im, d))


def _bilinear(table, u, v):
    """The table product of two int vectors, skipping zero coefficients."""
    out = [0] * len(u)
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    for x, row in zip(u, table):
        if x:
            for j, y in nonzero:
                k, s = row[j]
                if s > 0:
                    out[k] += x * y
                else:
                    out[k] -= x * y
    return out


def _product(table, u, v):
    """The product of two integer-form vectors.  With imaginary parts on
    both sides it takes three real products, not four:
    re = ur vr - ui vi and im = (ur + ui)(vr + vi) - ur vr - ui vi."""
    ur, ui = u
    vr, vi = v
    re = _bilinear(table, ur, vr)
    if ui is None and vi is None:
        return re, None
    if ui is None:
        im = _bilinear(table, ur, vi)
    elif vi is None:
        im = _bilinear(table, ui, vr)
    else:
        t = _bilinear(table, ui, vi)
        s = _bilinear(table, _sum(ur, ui), _sum(vr, vi))
        im = [z - x - y for x, y, z in zip(re, t, s)]
        re = [x - y for x, y in zip(re, t)]
    return re, (im if any(im) else None)


def _sum(u, v):
    return [x + y for x, y in zip(u, v)]


def _lincomb(x, u, y, v):
    """x u + y v for ints x, y and integer-form vectors u, v; with y = 0
    this scales u."""
    (ur, ui), (vr, vi) = u, v
    re = [x * p + y * q for p, q in zip(ur, vr)]
    if ui is None and vi is None:
        return re, None
    zero = (0,) * len(ur)
    return re, [x * p + y * q for p, q in zip(ui or zero, vi or zero)]


def _dot(metric, u, v):
    """Metric-weighted dot product of two integer-form vectors, as a
    Gaussian integer (re, im)."""
    ur, ui = u
    vr, vi = v
    re = _metric_dot(metric, ur, vr)
    if ui is None and vi is None:
        return re, 0
    if ui is None:
        return re, _metric_dot(metric, ur, vi)
    if vi is None:
        return re, _metric_dot(metric, ui, vr)
    t = _metric_dot(metric, ui, vi)
    return re - t, _metric_dot(metric, _sum(ur, ui), _sum(vr, vi)) - re - t


def _metric_dot(metric, x, y):
    return sum(g * a * b for g, a, b in zip(metric, x, y))


def _conj(u):
    re, im = u
    re = [re[0]] + [-x for x in re[1:]]
    return re, None if im is None else [im[0]] + [-x for x in im[1:]]


def _normal(algebra, u, den):
    """The element u / den in canonical form, for an integer-form vector u
    and an int den != 0: one gcd is divided out and den turns positive."""
    re, im = u
    g = gcd(den, *re, *(im or ()))
    if den < 0:
        g = -g
    self = object.__new__(Element)
    self.algebra = algebra
    self.den = den // g
    self.num = (
        tuple([x // g for x in re]),
        tuple([x // g for x in im]) if im and any(im) else None,
    )
    self._coeffs = None
    return self


def _divided(algebra, u, m, den):
    """The element u / (m den) for a nonzero Gaussian integer m = (mr, mi)
    and an int den != 0."""
    mr, mi = m
    if mi:
        # multiply through by conj(m): the divisor becomes |m|^2 den
        re, im = u
        im = im or [0] * len(re)
        u = (
            [x * mr + y * mi for x, y in zip(re, im)],
            [y * mr - x * mi for x, y in zip(re, im)],
        )
        mr = mr * mr + mi * mi
    return _normal(algebra, u, mr * den)


def _conj4(u):
    return [u[0], -u[1], -u[2], -u[3]]


def _split_halves(vec8):
    # positional coefficients -> doubling pair; index 6 carries the sign flip
    return list(vec8[:4]), [vec8[4], vec8[5], -vec8[6], vec8[7]]


def _join_halves(m, n):
    return [m[0], m[1], m[2], m[3], n[0], n[1], -n[2], n[3]]


def build_doubled_table(qtable):
    """Generate a dim-8 structure table from a dim-4 one by doubling.

    Raises ConsistencyError if any derived unit product fails to be a signed
    basis unit or the doubled-basis sign conventions do not come out, which
    would signal a transcription bug in the dim-4 table or the packing.
    """
    def mul(u, v):
        return _bilinear(qtable, u, v)

    rows = []
    for i in range(8):
        u = [0] * 8
        u[i] = 1
        m1, n1 = _split_halves(u)
        row = []
        for j in range(8):
            v = [0] * 8
            v[j] = 1
            m2, n2 = _split_halves(v)
            m = [a - b for a, b in zip(mul(m1, m2), mul(_conj4(n2), n1))]
            n = [a + b for a, b in zip(mul(n1, _conj4(m2)), mul(n2, m1))]
            w = _join_halves(m, n)
            nonzero = [(k, c) for k, c in enumerate(w) if c != 0]
            if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
                raise ConsistencyError(
                    f"product of units {i} and {j} is not a signed basis unit: {w}"
                )
            row.append(nonzero[0])
        rows.append(tuple(row))
    table = tuple(rows)

    for j in range(8):
        if table[0][j] != (j, 1) or table[j][0] != (j, 1):
            raise ConsistencyError("unit row/column of the doubled table is broken")
    for i in range(4):
        for j in range(4):
            if table[i][j] != qtable[i][j]:
                raise ConsistencyError("doubled table does not extend the dim-4 table")
    for (i, j), want in {(1, 4): (5, 1), (2, 4): (6, -1), (3, 4): (7, 1)}.items():
        if table[i][j] != want:
            raise ConsistencyError(
                f"doubled-basis sign convention violated at e{i}*e{j}: {table[i][j]}"
            )
    return table


def _check_norm_form(table, dim):
    """Raise ConsistencyError unless a conj(b) + b conj(a) is a scalar for
    all a, b: the unit squares to itself and commutes with every e_j, each
    imaginary unit squares to a scalar, and distinct imaginary units
    anticommute.  By bilinearity this makes the inner product the
    metric-weighted dot product for every input."""
    for i in range(dim):
        for j in range(i, dim):
            k, s = table[i][j]
            if i == j:
                ok = k == 0 and (i > 0 or s == 1)
            else:
                ok = table[j][i] == (k, s if i == 0 else -s)
            if not ok:
                raise ConsistencyError(
                    f"units {i} and {j} break the norm form: "
                    f"{table[i][j]} and {table[j][i]}"
                )


class Algebra:
    """One of the six algebras: dimension, scalar field, display conventions
    and the structure table.  Instances are immutable singletons."""

    __slots__ = (
        "name",
        "dim",
        "complex_field",
        "primed",
        "table",
        "metric",
        "scalar_types",
    )

    def __init__(self, name, dim, complex_field, primed, table):
        self.name = name
        self.dim = dim
        self.complex_field = complex_field
        self.primed = frozenset(primed)
        self.table = table
        _check_norm_form(table, dim)
        # metric[k] = norm of the k-th basis unit: 1 for the unit,
        # -(sign of e_k^2) for the imaginary units
        self.metric = (1,) + tuple(-table[k][k][1] for k in range(1, dim))
        self.scalar_types = (
            (int, Fraction, GaussRational) if complex_field else RATIONAL_TYPES
        )

    @property
    def is_division(self):
        """True when the norm form is positive definite (H and O)."""
        return not self.complex_field and all(g == 1 for g in self.metric)

    def label(self, k):
        if k == 0:
            return "1"
        return f"e{k}'" if k in self.primed else f"e{k}"

    def labels(self):
        return tuple(self.label(k) for k in range(self.dim))

    def element(self, coeffs):
        return Element(self, coeffs)

    def basis(self, k):
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range for {self.name}")
        coeffs = [0] * self.dim
        coeffs[k] = 1
        return _normal(self, (coeffs, None), 1)

    def zero(self):
        return _normal(self, ((0,) * self.dim, None), 1)

    def one(self):
        return self.basis(0)

    def __repr__(self):
        return f"<algebra {self.name}>"


class Element:
    """An element of one of the six algebras: the algebra plus the canonical
    integer form ``num / den`` of its coefficients.  Immutable; all
    arithmetic returns new elements."""

    __slots__ = ("algebra", "den", "num", "_coeffs")

    def __init__(self, algebra, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dim:
            raise ValueError(
                f"{algebra.name} needs {algebra.dim} coefficients, got {len(coeffs)}"
            )
        ok = algebra.scalar_types
        for c in coeffs:
            if not isinstance(c, ok) or isinstance(c, bool):
                raise TypeError(
                    f"coefficient {c!r} is not a valid {algebra.name} scalar"
                )
        self.algebra = algebra
        self.den, self.num = integer_form(coeffs)
        self._coeffs = None

    @property
    def coeffs(self):
        """The exact coefficient vector in normal form, derived once."""
        if self._coeffs is None:
            (re, im), d = self.num, self.den
            if im is None:
                self._coeffs = re if d == 1 else tuple(rational(x, d) for x in re)
            else:
                self._coeffs = tuple(scalar(x, y, d) for x, y in zip(re, im))
        return self._coeffs

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return self.num[1] is None and not any(self.num[0])

    @property
    def is_pure(self):
        re, im = self.num
        return re[0] == 0 and (im is None or im[0] == 0)

    def scalar_part(self):
        return self.coeffs[0]

    def pure_part(self):
        re, im = self.num
        return _normal(self.algebra, ((0,) + re[1:], im and (0,) + im[1:]), self.den)

    # -- ring operations ----------------------------------------------------

    def _check_same(self, other):
        if not (isinstance(self, Element) and isinstance(other, Element)):
            raise AlgebraMismatch(
                f"expected two elements, got {type(self).__name__} "
                f"and {type(other).__name__}"
            )
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"mixed algebras: {self.algebra.name} and {other.algebra.name}"
            )

    def _operand(self, other):
        """other as an element of this algebra, a field scalar lifted onto
        the unit; None for anything else."""
        if isinstance(other, Element):
            self._check_same(other)
            return other
        if isinstance(other, self.algebra.scalar_types):
            return Element(self.algebra, (other,) + (0,) * (self.algebra.dim - 1))
        return None

    def _plus(self, other, sign):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        u = _lincomb(other.den, self.num, sign * self.den, other.num)
        return _normal(self.algebra, u, self.den * other.den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _normal(self.algebra, _lincomb(-1, self.num, 0, self.num), self.den)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        u = _product(self.algebra.table, self.num, other.num)
        return _normal(self.algebra, u, self.den * other.den)

    # field scalars are central
    __rmul__ = __mul__

    # -- involution, norm, inverse ------------------------------------------

    def conjugate(self):
        """Negate every imaginary coefficient, keep the scalar part."""
        return _normal(self.algebra, _conj(self.num), self.den)

    def inner(self, other):
        """Symmetric bilinear form: scalar part of (a conj(b) + b conj(a))/2,
        which is the metric-weighted dot product sum(metric[k] a_k b_k),
        taken over the integer numerators and divided once.

        ``Algebra`` checks once, at construction, that the nonscalar part of
        a conj(b) + b conj(a) vanishes for every pair of basis units.
        """
        self._check_same(other)
        m = _dot(self.algebra.metric, self.num, other.num)
        return scalar(*m, self.den * other.den)

    def norm(self):
        """The quadratic norm N(a) = inner(a, a) = a * conj(a)."""
        return self.inner(self)

    def inverse(self):
        """conj(a) / N(a); raises NotInvertible when the norm vanishes.

        With a = u / d and N(a) = m / d^2 this is conj(u) d / m."""
        d, u = self.den, self.num
        m = _dot(self.algebra.metric, u, u)
        if m == (0, 0):
            raise NotInvertible(f"{self!s} has zero norm")
        return _divided(self.algebra, _lincomb(d, _conj(u), 0, u), m, 1)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Element):
            same = self.algebra is other.algebra
            return same and self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra.name, self.den, self.num))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        from .parsing import format_element

        return format_element(self)

    def __repr__(self):
        return f"<{self.algebra.name} {self}>"


def sandwich(p, a):
    """Conjugation (p*a)*p^-1 = (p*a*conj(p)) / N(p); requires invertible p.

    With p = u / d, a = v / e and N(p) = m / d^2 the result is
    (u v conj(u)) / (e m): d cancels and each coefficient is divided once.
    Equality with p*(a*p^-1) holds by alternativity; it is re-checked on
    the integer numerators and a failure raises ConsistencyError.
    """
    Element._check_same(p, a)
    alg = p.algebra
    u, e, v = p.num, a.den, a.num
    m = _dot(alg.metric, u, u)
    if m == (0, 0):
        raise NotInvertible(f"sandwich by {p!s}, which has zero norm")
    uc = _conj(u)
    left = _product(alg.table, _product(alg.table, u, v), uc)
    if left != _product(alg.table, u, _product(alg.table, v, uc)):
        raise ConsistencyError("sandwich product is not well defined")
    return _divided(alg, left, m, e)


@dataclass(frozen=True)
class Classification:
    """Membership flags of an element: pure (zero scalar part), nonzero, and
    invertible (nonzero norm); the four classical subsets derive from them."""

    pure: bool
    nonzero: bool
    invertible: bool

    @property
    def in_pure(self):
        return self.pure

    @property
    def in_pure_nonzero(self):
        return self.pure and self.nonzero

    @property
    def in_invertible(self):
        return self.invertible

    @property
    def in_pure_invertible(self):
        return self.pure and self.invertible


def classify(a):
    return Classification(a.is_pure, not a.is_zero, a.norm() != 0)


H = Algebra("H", 4, False, (), QUATERNION_TABLE)
Hs = Algebra("Hs", 4, False, (1, 3), SPLIT_QUATERNION_TABLE)
Hc = Algebra("Hc", 4, True, (), QUATERNION_TABLE)
O = Algebra("O", 8, False, (), build_doubled_table(QUATERNION_TABLE))
Os = Algebra("Os", 8, False, (1, 3, 5, 7), build_doubled_table(SPLIT_QUATERNION_TABLE))
Oc = Algebra("Oc", 8, True, (), build_doubled_table(QUATERNION_TABLE))

ALGEBRAS = {alg.name: alg for alg in (H, Hs, Hc, O, Os, Oc)}

CAYLEY_EXTENSION = {H: O, Hs: Os, Hc: Oc}


def embed_in_cayley(a):
    """Embed a dim-4 element into its dim-8 extension (identity on dim 8)."""
    if a.algebra.dim == 8:
        return a
    (re, im), pad = a.num, (0,) * 4
    return _normal(CAYLEY_EXTENSION[a.algebra], (re + pad, im and im + pad), a.den)
