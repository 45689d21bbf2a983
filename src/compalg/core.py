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
imaginary units.  Primes are display-only.  ``Algebra(name, complex_field,
table)`` reads the dimension and the primed units off its table, and
``_check_table`` holds every table to one contract: 4x4 or 8x8, each entry a
signed unit (k, +-1) with 0 <= k < dim, the unit's row and column the
identity, each imaginary unit squaring to +-1, distinct imaginary units
anticommuting, and the linearized left alternative law on the units,
e_i (e_j x) + e_j (e_i x) = (e_i e_j + e_j e_i) x for imaginary i < j and
every unit x, which with the rest implies it for i = j and its mirror, the
right law; any other table raises ConsistencyError at construction.
The witness layer (negator candidates, Cayley extensions) serves only the
six named algebras and raises PreconditionViolation for any other.  The dim-8
tables are generated from the dim-4 ones through the doubling product

    (m1 + n1*e4)(m2 + n2*e4) = (m1*m2 - conj(n2)*n1) + (n1*conj(m2) + n2*m1)*e4

with the index-6 unit fixed as -(e2*e4), so the derived units satisfy
e5 = e1*e4, e6 = -e2*e4, e7 = e3*e4; the doubling checks the dim-4 table
against the contract above and the generated table against the dim-4 table
and those sign conventions, and ``Algebra`` checks the generated table
against the contract, at import time.

Storage and integer kernel
--------------------------
An ``Element`` stores one form only: integer numerators over one positive
common denominator ``den``, as ``num = (re, im)``, a real and an imaginary
numerator tuple, ``im`` None when every imaginary part is zero.  The form is
canonical, ``gcd(den, all numerators) == 1``, so equality and hashing compare
the tuples.  ``integer_form`` alone reads exact scalars and decides what a
scalar of a field is; operations, parser and commutant search build the form
with one normaliser, ``_normal``, which divides out one gcd, and the
formatter reads it directly.  No operation computes on ``Fraction`` or
``GaussRational``; ``_invertible`` decides N(x) != 0 on the integers, and
``_norms`` writes two norms over one denominator.  Each structure table is
read once into a term list (``Algebra.terms``): for each output index k, the
``(sign, i, j)`` with e_i e_j = sign e_k; the metric dot is the one-output
list of ``(g_k, k, k)``.  ``_kernel`` compiles a term list, once per distinct
list, into straight-line code: one signed sum of ``u_i * v_j`` per output, no
loop, no table lookup.  ``Algebra.mul`` runs every product, the doubling above
included, and ``Algebra.dot`` every inner product and norm; a real side costs
one more call, and two sides with imaginary parts one call of the Gaussian
twin (``Algebra.gauss_mul``, ``gauss_dot``, from ``_gaussian_kernel``), three
real products, not four, compiled on first use: importing compiles neither.
The commutant's matrix of p -> p a - b p reads the same terms.
Inverse and sandwich fold the norm into the common denominator.  Sums,
negation and conjugation are integer vector operations; a field scalar
operand is written in integer form once, so a scalar product scales the
numerators and a scalar sum changes index 0 only.
The one fraction-free elimination is here too: ``_echelon`` decides every
rank (``commutant``'s null spaces and span tests, ``witnesses``' theorem
cases) and ``_reduce_above`` completes a null space on the same rows.

``coeffs`` is derived from the stored form on each access and nothing is
cached.  It is in normal form: an ``int`` when integral, else a reduced
``Fraction``, and a ``GaussRational`` only with a nonzero imaginary part.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    AlgebraMismatch,
    ConsistencyError,
    NotInvertible,
    PreconditionViolation,
)
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


def integer_form(coeffs, algebra=None):
    """``(den, (re, im))``: the integer numerator tuples of exact scalars
    over their least common denominator, which leaves gcd(den, all
    numerators) == 1.  Each coefficient is an int, a Fraction, or a
    GaussRational unless ``algebra`` is real; anything else raises TypeError."""
    gaussian = algebra is None or algebra.complex_field
    re, im = [], []
    for c in coeffs:
        x, y = (c.re, c.im) if gaussian and isinstance(c, GaussRational) else (c, 0)
        if not isinstance(x, RATIONAL_TYPES) or isinstance(x, bool):
            field = f"a valid {algebra.name}" if algebra else "an exact"
            raise TypeError(f"coefficient {c!r} is not {field} scalar")
        re.append(x)
        im.append(y)
    den = lcm(*[x.denominator for x in re + im])
    return den, (_numerators(re, den), _numerators(im, den) if any(im) else None)


def _numerators(xs, den):
    return tuple([x.numerator * (den // x.denominator) for x in xs])


def rational(n, d):
    """The normal form of n/d for ints n, d != 0: an int when integral,
    else a reduced Fraction."""
    if d == 1 or not n:
        return n
    return Fraction(n, d) if n % d else n // d


def scalar(re, im, d):
    """The normal form of (re + im i)/d: a rational when im is zero, else a
    GaussRational with normal-form parts."""
    if not im:
        return rational(re, d)
    return GaussRational._make(rational(re, d), rational(im, d))


def _terms(table):
    """A structure table as a term list: for each output index k, the
    ``(sign, i, j)`` with e_i e_j = sign e_k, in row order."""
    n = range(len(table))
    return tuple(
        tuple((table[i][j][1], i, j) for i in n for j in n if table[i][j][0] == k)
        for k in n
    )


def _dot_terms(metric):
    """The metric-weighted dot product as a term list with one output."""
    return (tuple((g, k, k) for k, g in enumerate(metric)),)


@cache
def _kernel(terms, n):
    """The bilinear map of a term list as one compiled function of two int
    vectors of length n: output k is the signed sum of ``u_i * v_j`` over
    the terms of ``terms[k]``, one straight-line expression per k, no loop
    and no table lookup.  Equal term lists (equal tables) share the
    function."""
    return _compiled(n, "uv", [], _sums(terms, "u", "v"))


@cache
def _gaussian_kernel(terms, n):
    """``_kernel``'s twin for two Gaussian int vectors u = a + b i and v =
    c + d i, as one compiled function of ``(a, b, c, d)`` returning (re,
    im), in three real products, not four.  With x = a + b and y = c + d
    in locals, p = a c, q = b d and s = x y are the signed sums, and re =
    p - q and im = s - p - q."""
    lines = [f"x{i} = a{i} + b{i}" for i in range(n)]
    lines += [f"y{i} = c{i} + d{i}" for i in range(n)]
    for var, (u, v) in zip("pqs", ("ac", "bd", "xy")):
        lines += [f"{var}{k} = {t}" for k, t in enumerate(_sums(terms, u, v))]
    re = [f"p{k} - q{k}" for k in range(len(terms))]
    im = [f"s{k} - {x}" for k, x in enumerate(re)]
    return _compiled(n, "abcd", lines, re, im)


def _sums(terms, u, v):
    """Source text of the signed sum of ``u_i*v_j`` per output."""
    # lstrip drops a leading plus; a leading minus stays, as unary minus
    return [
        " ".join(f"{'+-'[s < 0]} {u}{i}*{v}{j}" for s, i, j in out).lstrip("+ ")
        for out in terms
    ]


def _compiled(n, params, lines, *results):
    """``def kernel(*params)``: unpack each length-n parameter p into p0,
    p1, ..., run the source ``lines`` and return ``results``, each a list
    of output expressions: a lone output (a dot) as its value, more as a
    list."""
    unpack = [f"{', '.join(f'{p}{i}' for i in range(n))}, = {p}" for p in params]
    values = ", ".join(r[0] if len(r) == 1 else f"[{', '.join(r)}]" for r in results)
    body = "".join(f"    {line}\n" for line in unpack + lines + [f"return {values}"])
    namespace = {}
    exec(f"def kernel({', '.join(params)}):\n{body}", namespace)
    return namespace["kernel"]


def _product(alg, u, v):
    """The product of two integer-form vectors of ``alg``: one call of the
    table kernel ``alg.mul`` when both are real, two when one side is (its
    real part times the other's two parts), and one call of the Gaussian
    kernel ``alg.gauss_mul`` when both have imaginary parts."""
    ur, ui = u
    vr, vi = v
    if vi is None:
        if ui is None:
            return alg.mul(ur, vr), None
        re, im = alg.mul(ur, vr), alg.mul(ui, vr)
    elif ui is None:
        re, im = alg.mul(ur, vr), alg.mul(ur, vi)
    else:
        re, im = (alg.gauss_mul or _gaussian_kernels(alg)[0])(ur, ui, vr, vi)
    return re, (im if any(im) else None)


def _gaussian_kernels(alg):
    """``(alg.gauss_mul, alg.gauss_dot)``, those still unset compiled on
    the first use of either: only Hc and Oc use them, and importing the
    package compiles neither."""
    if alg.gauss_mul is None:
        alg.gauss_mul = _gaussian_kernel(alg.terms, alg.dim)
    if alg.gauss_dot is None:
        alg.gauss_dot = _gaussian_kernel(_dot_terms(alg.metric), alg.dim)
    return alg.gauss_mul, alg.gauss_dot


def _lincomb(x, u, y, v):
    """x u + y v for ints x, y and integer-form vectors u, v."""
    (ur, ui), (vr, vi) = u, v
    re = [x * p + y * q for p, q in zip(ur, vr)]
    if ui is None and vi is None:
        return re, None
    zero = (0,) * len(ur)
    im = [x * p + y * q for p, q in zip(ui or zero, vi or zero)]
    return re, im if any(im) else None


def _dot(alg, u, v):
    """Metric-weighted dot product of two integer-form vectors of ``alg``
    as a Gaussian integer (re, im): one call of the metric kernel
    ``alg.dot`` when both are real, two when one side is, and one call of
    the Gaussian kernel ``alg.gauss_dot`` when both have imaginary parts."""
    (ur, ui), (vr, vi) = u, v
    if vi is None:
        if ui is None:
            return alg.dot(ur, vr), 0
        return alg.dot(ur, vr), alg.dot(ui, vr)
    if ui is None:
        return alg.dot(ur, vr), alg.dot(ur, vi)
    return (alg.gauss_dot or _gaussian_kernels(alg)[1])(ur, ui, vr, vi)


def _entry(u, k):
    """Entry k of an integer-form vector as a Gaussian integer (re, im)."""
    re, im = u
    return re[k], im[k] if im else 0


def _gmul(x, y):
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _invertible(x):
    """N(x) != 0, decided on the integer numerators."""
    return _dot(x.algebra, x.num, x.num) != (0, 0)


def _norms(a, b):
    """N(a) and N(b) over one denominator, as Gaussian integers: ``(n e^2,
    m d^2)`` for N(a) = n / d^2 and N(b) = m / e^2."""
    alg, d, e = a.algebra, a.den * a.den, b.den * b.den
    (nr, ni), (mr, mi) = _dot(alg, a.num, a.num), _dot(alg, b.num, b.num)
    return (nr * e, ni * e), (mr * d, mi * d)


def _same_norm(a, b):
    """N(a) == N(b), decided on the integer numerators."""
    na, nb = _norms(a, b)
    return na == nb


def _conj(u):
    re, im = u
    re = [re[0]] + [-x for x in re[1:]]
    return re, None if im is None else [im[0]] + [-x for x in im[1:]]


def _normal(algebra, u, den):
    """The element u / den in canonical form, for an integer-form vector u
    and an int den != 0: one gcd is divided out and den turns positive."""
    re, im = u
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re, *(im or ()))
    if g != 1 or den < 0:
        if den < 0:
            g = -g
        den //= g
        re = [x // g for x in re]
        im = im and [x // g for x in im]
    self = object.__new__(Element)
    self.algebra = algebra
    self.den = den
    self.num = (tuple(re), None if im is None else tuple(im))
    return self


def _coefficients(u, den):
    """The exact scalars (re[k] + im[k] i) / den of an integer-form vector,
    in normal form."""
    re, im = u
    if im is None:
        return tuple(re) if den == 1 else tuple(rational(x, den) for x in re)
    return tuple(scalar(x, y, den) for x, y in zip(re, im))


def _scaled(u, m):
    """The integer-form vector u times the Gaussian integer m = (mr, mi)."""
    (re, im), (mr, mi) = u, m
    if not mi:
        return [x * mr for x in re], im and [x * mr for x in im]
    im = im or [0] * len(re)
    return (
        [x * mr - y * mi for x, y in zip(re, im)],
        [x * mi + y * mr for x, y in zip(re, im)],
    )


def _shifted(u, z):
    """The integer-form vector u plus the Gaussian integer z at index 0."""
    re, im = list(u[0]), u[1] and list(u[1])
    re[0] += z[0]
    if z[1]:
        im = im or [0] * len(re)
        im[0] += z[1]
    return re, im


def _divided(algebra, u, m, den):
    """The element u / (m den) for a nonzero Gaussian integer m = (mr, mi)
    and an int den != 0."""
    mr, mi = m
    if mi:
        # multiply through by conj(m): the divisor becomes |m|^2 den
        u = _scaled(u, (mr, -mi))
        mr = mr * mr + mi * mi
    return _normal(algebra, u, mr * den)


def _echelon(rows, cols):
    """``(rows, pivots)``: integer-form rows ``(re, im)`` brought to row
    echelon form, pivoting on the first nonzero column in the order
    ``cols`` gives, row i carrying pivot column ``pivots[i]`` and the rows
    below it 0 there; the rows past the last pivot are 0.

    The elimination is fraction-free: each row is divided by its content,
    and a row is cleared against the pivot row as ``pivot * row - entry *
    pivot_row`` with Gaussian-integer multipliers (a real row has im None).
    A rank decision ends here; ``_reduce_above`` completes a null space.
    """
    rows = [_primitive(u) for u in rows]
    pivots = []
    for c in cols:
        r = len(pivots)
        if r == len(rows):
            break
        for pr in range(r, len(rows)):
            re, im = rows[pr]
            if re[c] or im and im[c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            re, im = rows[i]
            if re[c] or im and im[c]:
                rows[i] = _combine(rows[i], rows[r], c)
        pivots.append(c)
    return rows, pivots


def _reduce_above(rows, pivots):
    """``_echelon``'s rows brought to reduced row echelon form, in place:
    row i keeps pivot column ``pivots[i]`` and is 0 at the other pivot
    columns.

    It runs top-down: pivot row r, in pivot order, clears its column in
    the rows above it.  Row r is then still as ``_echelon`` left it, and
    each row above has met the pivot rows between them in order, so every
    ``_combine`` is the one a Gauss-Jordan elimination (clear above and
    below at each pivot) makes, on the same two rows: the result is the
    same, and a rank-deficient matrix costs what it costs in one pass.
    Clearing bottom-up instead meets rows that carry the later pivot
    rows' growth, and was slower on large Gaussian eliminations.
    """
    for r, c in enumerate(pivots):
        for i in range(r):
            re, im = rows[i]
            if re[c] or im and im[c]:
                rows[i] = _combine(rows[i], rows[r], c)


def _primitive(u):
    """An integer-form vector divided by the gcd of all its parts."""
    re, im = u
    g = gcd(*re, *(im or ()))
    if g > 1:
        return [x // g for x in re], im and [x // g for x in im]
    return u


def _combine(row, pivot_row, c):
    """``p * row - f * pivot_row`` with p, f the Gaussian-integer column-c
    entries of pivot_row and row over the gcd of their parts, so column c
    clears; the new row is divided by its content."""
    (xr, xi), (yr, yi) = row, pivot_row
    p, f = yr[c], xr[c]
    if xi is None and yi is None:
        g = gcd(p, f)
        p, f = p // g, f // g
        return _primitive(([p * x - f * y for x, y in zip(xr, yr)], None))
    zero = (0,) * len(xr)
    xi, yi = xi or zero, yi or zero
    q, h = yi[c], xi[c]
    g = gcd(p, q, f, h)
    p, q, f, h = p // g, q // g, f // g, h // g
    re = [p * a - q * b - f * s + h * t for a, b, s, t in zip(xr, xi, yr, yi)]
    im = [p * b + q * a - f * t - h * s for a, b, s, t in zip(xr, xi, yr, yi)]
    return _primitive((re, im if any(im) else None))


def _conj4(u):
    return [u[0], -u[1], -u[2], -u[3]]


def _split_halves(vec8):
    # positional coefficients -> doubling pair; index 6 carries the sign flip
    return list(vec8[:4]), [vec8[4], vec8[5], -vec8[6], vec8[7]]


def _join_halves(m, n):
    return [m[0], m[1], m[2], m[3], n[0], n[1], -n[2], n[3]]


def build_doubled_table(qtable):
    """Generate a dim-8 structure table from a dim-4 one by doubling.

    The input is held to ``_check_table``'s contract and to dimension 4
    before a kernel is compiled from it; ``Algebra`` checks the output.
    ConsistencyError is raised if a derived unit product is not a signed
    basis unit, the output does not extend the input or the doubled-basis
    sign conventions do not come out: a slip in the doubling or the packing.
    """
    _check_table(qtable)
    if len(qtable) != 4:
        raise ConsistencyError("the doubling takes a 4x4 table")
    mul = _kernel(_terms(qtable), 4)
    units = [_split_halves([int(k == i) for k in range(8)]) for i in range(8)]
    rows = []
    for i, (m1, n1) in enumerate(units):
        row = []
        for j, (m2, n2) in enumerate(units):
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


def _check_table(table):
    """Raise ConsistencyError unless ``table`` meets the contract in the
    module docstring.  Its norm-form conditions make a conj(b) + b conj(a)
    a scalar, so the inner product is the metric-weighted dot product; the
    left alternative law rules out the tables that meet the rest but break
    N(xy) = N(x) N(y), such as the quaternion table with e2 e3 and e3 e2
    swapped.  Every product is read off the table.

    The rest of the alternative laws is implied, so it is not checked.  With
    [a, b, d] = (ab)d - a(bd) and e_j e_i = -e_i e_j, the left law for i < j
    at x = e_i reads e_i (e_i e_j) = e_i^2 e_j (at x = e_j, e_j (e_j e_i) =
    e_j^2 e_i): the law for i = j at every unit but e0 and e_i, where it
    holds as e_i^2 is a scalar.  So e_i e_j = s e_k with k != 0, since s e0
    would make it read s e_i = +-e_j.  Then conjugation c (e0 -> e0, e_k ->
    -e_k) reverses every unit product, c(e_i e_j) = -s e_k = e_j e_i (at a
    unit or a square both sides are equal), hence every product, so c([a,
    b, d]) = -[c(d), c(b), c(a)], and c maps the left law at (i, j, x) onto
    the right law at (x, i, j): the check accepts exactly the tables that
    meet both laws for all i <= j.
    """
    try:
        n = len(table)
        square = n in (4, 8) and all(len(row) == n for row in table)
    except TypeError:  # a table or a row without a length
        square = False
    if not square:
        raise ConsistencyError("a structure table is square, 4x4 or 8x8")
    units = [(k, s) for k in range(n) for s in (1, -1)]
    for i, row in enumerate(table):
        for j in range(i, n):
            x, y = row[j], table[j][i]
            if i == 0:
                ok, what = x == y == (j, 1), "the unit row/column"
            else:
                ok = x in units and (x[0] == 0 if i == j else y == (x[0], -x[1]))
                what = "the norm form"
            if not ok:
                raise ConsistencyError(f"units {i} and {j} break {what}: {x} and {y}")

    # the left alternative law, linearized: [e_i, e_j, x] + [e_j, e_i, x] = 0
    for i in range(1, n):
        for j in range(i + 1, n):
            for x in range(n):
                w = [0] * n
                for p, q in ((i, j), (j, i)):  # w += (e_p e_q) x - e_p (e_q x)
                    k, s = table[p][q]
                    k, t = table[k][x]
                    w[k] += s * t
                    k, s = table[q][x]
                    k, t = table[p][k]
                    w[k] -= s * t
                if any(w):
                    raise ConsistencyError(
                        f"units {i}, {j} and {x} break the alternative laws"
                    )


class Algebra:
    """One of the six algebras: a name, a scalar field and a structure table,
    which fixes the dimension, the primed units (those squaring to +1), the
    metric and the term list.  Instances are immutable singletons."""

    __slots__ = (
        "name",
        "dim",
        "complex_field",
        "primed",
        "table",
        "metric",
        "terms",
        "mul",
        "dot",
        "gauss_mul",
        "gauss_dot",
    )

    def __init__(self, name, complex_field, table):
        _check_table(table)
        self.name = name
        self.dim = dim = len(table)
        self.complex_field = complex_field
        self.table = table
        # metric[k] = norm of the k-th basis unit: 1 for the unit,
        # -(sign of e_k^2) for the imaginary units
        self.metric = (1,) + tuple(-table[k][k][1] for k in range(1, dim))
        self.primed = frozenset(k for k in range(1, dim) if table[k][k] == (0, 1))
        self.terms = _terms(table)
        self.mul = _kernel(self.terms, dim)
        self.dot = _kernel(_dot_terms(self.metric), dim)
        self.gauss_mul = self.gauss_dot = None  # see _gaussian_kernels

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

    __slots__ = ("algebra", "den", "num")

    def __init__(self, algebra, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dim:
            raise ValueError(
                f"{algebra.name} needs {algebra.dim} coefficients, got {len(coeffs)}"
            )
        self.algebra = algebra
        self.den, self.num = integer_form(coeffs, algebra)

    @property
    def coeffs(self):
        """The exact coefficients in normal form, derived on each access."""
        return _coefficients(self.num, self.den)

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

    def _scalar_form(self, other):
        """A field scalar as ``(den, (re, im))``, ints over a positive
        denominator; None for what ``integer_form`` rejects, except a bool,
        which Python would take for an int."""
        try:
            den, ((re,), im) = integer_form((other,), self.algebra)
        except TypeError:
            if other is True or other is False:
                raise
            return None
        return den, (re, im[0] if im else 0)

    def _plus(self, other, sign):
        d, u = self.den, self.num
        if isinstance(other, Element):
            self._check_same(other)
            u = _lincomb(other.den, u, sign * d, other.num)
            return _normal(self.algebra, u, d * other.den)
        s = self._scalar_form(other)
        if s is None:
            return NotImplemented
        # a scalar moves index 0 only
        e, (sr, si) = s
        u = _shifted(_scaled(u, (e, 0)), (sign * sr * d, sign * si * d))
        return _normal(self.algebra, u, d * e)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _normal(self.algebra, _scaled(self.num, (-1, 0)), self.den)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            u = _product(self.algebra, self.num, other.num)
            return _normal(self.algebra, u, self.den * other.den)
        s = self._scalar_form(other)
        if s is None:
            return NotImplemented
        e, m = s
        return _normal(self.algebra, _scaled(self.num, m), self.den * e)

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
        m = _dot(self.algebra, self.num, other.num)
        return scalar(*m, self.den * other.den)

    def norm(self):
        """The quadratic norm N(a) = inner(a, a) = a * conj(a)."""
        return self.inner(self)

    def inverse(self):
        """conj(a) / N(a); raises NotInvertible when the norm vanishes.

        With a = u / d and N(a) = m / d^2 this is conj(u) d / m."""
        d, u = self.den, self.num
        m = _dot(self.algebra, u, u)
        if m == (0, 0):
            raise NotInvertible(f"{self!s} has zero norm")
        return _divided(self.algebra, _scaled(_conj(u), (d, 0)), m, 1)

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
    m = _dot(alg, u, u)
    if m == (0, 0):
        raise NotInvertible(f"sandwich by {p!s}, which has zero norm")
    uc = _conj(u)
    left = _product(alg, _product(alg, u, v), uc)
    if left != _product(alg, u, _product(alg, v, uc)):
        raise ConsistencyError("sandwich product is not well defined")
    return _divided(alg, left, m, e)


class Classification(namedtuple("Classification", "pure nonzero invertible")):
    """Membership flags of an element: pure (zero scalar part), nonzero, and
    invertible (nonzero norm); the four classical subsets derive from them."""

    __slots__ = ()

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
    Element._check_same(a, a)
    return Classification(a.is_pure, not a.is_zero, _invertible(a))


H = Algebra("H", False, QUATERNION_TABLE)
Hs = Algebra("Hs", False, SPLIT_QUATERNION_TABLE)
Hc = Algebra("Hc", True, QUATERNION_TABLE)
O = Algebra("O", False, build_doubled_table(QUATERNION_TABLE))
Os = Algebra("Os", False, build_doubled_table(SPLIT_QUATERNION_TABLE))
Oc = Algebra("Oc", True, O.table)

ALGEBRAS = {alg.name: alg for alg in (H, Hs, Hc, O, Os, Oc)}

CAYLEY_EXTENSION = {H: O, Hs: Os, Hc: Oc}


def _one_of_six(alg):
    """Raise PreconditionViolation unless ``alg`` is one of the six named
    algebras, the only ones with Cayley extensions and negator candidates."""
    if ALGEBRAS.get(alg.name) is not alg:
        raise PreconditionViolation(f"{alg.name} is not one of the six algebras")


def embed_in_cayley(a):
    """Embed a dim-4 element into its dim-8 extension (identity on dim 8)."""
    Element._check_same(a, a)
    _one_of_six(a.algebra)
    if a.algebra.dim == 8:
        return a
    (re, im), pad = a.num, (0,) * a.algebra.dim
    return _normal(CAYLEY_EXTENSION[a.algebra], (re + pad, im and im + pad), a.den)
