"""Exact solver for the twisted commutation equation p*a = b*p.

The equation is linear in p, so its solutions form the null space of a
dim x dim matrix over the coefficient field.  Restricting the norm form to
that null space decides, algebraically, whether an invertible solution (a
single conjugator) exists: the restricted form is given by the Gram matrix
of the inner product on a null-space basis, and it vanishes identically
exactly when no solution has nonzero norm.

The pipeline is integer-native.  The matrix of p -> p*a - b*p, the left
multiplication by a minus the right multiplication by b, is read off the
structure table and the stored integer forms of a and b, as integer (over
Q(i), Gaussian-integer) rows over one denominator.  Fraction-free
Gauss-Jordan elimination clears it; back-substitution writes each basis
entry as integers over the pivot (over Q(i), over its squared absolute
value), and each basis element is built from those quotients, reduced by
integer gcds and put over the lcm of their denominators, without a
``Fraction``.  ``twisted_commutant_matrix`` and ``nullspace`` are
exact-scalar views of the same code.

``verify_remark`` re-derives the two built-in counterexample instances:
equal-norm pairs of null pure elements, one in the split octonions and one
in the complex octonions, whose twisted commutant is two-dimensional with
an identically vanishing norm form, so no single conjugator exists even
though a double witness does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .core import (
    Element,
    Oc,
    Os,
    _coefficients,
    _normal,
    integer_form,
    sandwich,
    scalar,
)
from .errors import CompalgError, ConsistencyError
from .scalars import I
from .witnesses import CheckReport, conjugacy_witness, verify_witness


def twisted_commutant_matrix(a, b):
    """The matrix of p -> p*a - b*p in coordinates: column j holds the
    coefficient vector of e_j*a - b*e_j."""
    den, rows = _matrix_form(a, b)
    return tuple(_coefficients(row, den) for row in rows)


def _matrix_form(a, b):
    """``(den, rows)``: the matrix of p -> p*a - b*p as integer-form rows
    over one denominator, built from the structure table.

    With a = u / d and b = v / e, column j of row k holds s u_i e from
    e_j e_i = s e_k and -s v_i d from e_i e_j = s e_k, over d e.
    """
    Element._check_same(a, b)
    table = a.algebra.table
    (ur, ui), (vr, vi) = a.num, b.num
    d, e = a.den, b.den
    re = _twisted(table, ur, e, vr, d)
    if ui is None and vi is None:
        return d * e, [(row, None) for row in re]
    zero = (0,) * len(ur)
    im = _twisted(table, ui or zero, e, vi or zero, d)
    return d * e, [(x, y if any(y) else None) for x, y in zip(re, im)]


def _twisted(table, u, e, v, d):
    """Integer rows of L_u e - R_v d for int vectors u, v."""
    n = len(u)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        x, y = u[i] * e, v[i] * d
        if x:
            for j in range(n):
                k, s = table[j][i]
                rows[k][j] += x if s > 0 else -x
        if y:
            for j, (k, s) in enumerate(table[i]):
                rows[k][j] -= y if s > 0 else -y
    return rows


def nullspace(matrix):
    """Canonical null-space basis of an exact matrix.

    Reduced row echelon form with leftmost-nonzero pivoting; one basis
    vector per free column, in increasing column order, each carrying 1 at
    its own free column and 0 at the others.  Empty list for full rank.
    """
    forms = [integer_form(r)[1] for r in matrix]
    ncols = len(forms[0][0]) if forms else 0
    basis = []
    for f, quotients in _nullspace_form(forms, ncols):
        v = [0] * ncols
        v[f] = 1
        for c, x, y, d in quotients:
            v[c] = scalar(x, y, d)
        basis.append(tuple(v))
    return basis


def _nullspace_form(forms, ncols):
    """The canonical null-space basis of a matrix given as integer-form
    rows: one ``(f, quotients)`` per free column f.  The basis vector is 1
    at f, (x + y i) / d at c for each (c, x, y, d) in quotients, with ints
    x, y and d > 0, and 0 elsewhere.

    The elimination is fraction-free: a row is cleared against the pivot
    row as ``pivot * row - entry * pivot_row`` and divided by the gcd of
    its integer parts.  Back-substitution writes each entry -x / pivot as
    integers, over Q(i) as -x conj(pivot) / |pivot|^2.
    """
    gaussian = any(im is not None for _, im in forms)
    if gaussian:
        rows = [list(zip(re, im or [0] * ncols)) for re, im in forms]
        zero, combine = (0, 0), _combine_gaussian
    else:
        rows = [re for re, _ in forms]
        zero, combine = 0, _combine
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                rows[i] = combine(rows[i], rows[r], c)
        pivots.append(c)
        r += 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        quotients = []
        for row, c in zip(rows, pivots):
            x, p = row[f], row[c]
            if x == zero:
                continue
            if gaussian:
                (xr, xi), (pr, pi) = x, p
                x, y, d = -(xr * pr + xi * pi), xr * pi - xi * pr, pr * pr + pi * pi
            else:
                x, y, d = (-x, 0, p) if p > 0 else (x, 0, -p)
            quotients.append((c, x, y, d))
        basis.append((f, quotients))
    return basis


def _basis_element(algebra, f, quotients):
    """A basis vector of ``_nullspace_form`` as an element: each quotient in
    lowest terms, over the lcm of their denominators, which is then the
    canonical denominator."""
    reduced = []
    for c, x, y, d in quotients:
        g = gcd(x, y, d)
        reduced.append((c, x // g, y // g, d // g))
    den = lcm(*[d for *_, d in reduced])
    re = [0] * algebra.dim
    im = [0] * algebra.dim
    re[f] = den
    for c, x, y, d in reduced:
        re[c] = x * (den // d)
        im[c] = y * (den // d)
    return _normal(algebra, (re, im), den)


def _primitive(u):
    """An integer-form vector divided by the gcd of all its parts."""
    re, im = u
    g = gcd(*re, *(im or ()))
    if g > 1:
        return [x // g for x in re], im and [x // g for x in im]
    return u


def _combine(row, pivot_row, c):
    """``p * row - f * pivot_row`` with p, f the column-c entries of
    pivot_row and row over their gcd, so column c clears; the new row is
    divided by the gcd of its entries."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    new = [p * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _combine_gaussian(row, pivot_row, c):
    """``_combine`` over the Gaussian integers, entries as (re, im) pairs;
    the divisors are gcds of all real and imaginary parts."""
    (pr, pi), (fr, fi) = pivot_row[c], row[c]
    g = gcd(pr, pi, fr, fi)
    pr, pi, fr, fi = pr // g, pi // g, fr // g, fi // g
    new = [
        (pr * xr - pi * xi - fr * yr + fi * yi, pr * xi + pi * xr - fr * yi - fi * yr)
        for (xr, xi), (yr, yi) in zip(row, pivot_row)
    ]
    g = gcd(*[t for x in new for t in x])
    return [(xr // g, xi // g) for xr, xi in new] if g > 1 else new


def span_contains(vectors, target):
    """Exact membership of ``target`` in the span of ``vectors``."""
    if all(c == 0 for c in target):
        return True
    if not vectors:
        return False
    n = len(target)
    augmented = tuple(
        tuple(v[i] for v in vectors) + (target[i],) for i in range(n)
    )
    return any(v[-1] != 0 for v in nullspace(augmented))


@dataclass(frozen=True)
class CommutantReport:
    """Solution space of p*a = b*p plus the invertibility verdict."""

    a: Element
    b: Element
    nullspace_basis: tuple
    norm_gram: tuple
    single: Optional[Element]

    @property
    def matrix(self):
        """The matrix of p -> p*a - b*p, derived on access."""
        return twisted_commutant_matrix(self.a, self.b)

    @property
    def nullity(self):
        return len(self.nullspace_basis)

    @property
    def single_exists(self):
        return self.single is not None

    @property
    def verdict(self):
        return "SingleExists" if self.single_exists else "NoSingleConjugator"


def single_conjugator_search(a, b):
    """Parametrize all solutions of p*a = b*p and decide whether an
    invertible one exists.

    The norm form on the null space is nonzero iff its Gram matrix g has a
    nonzero entry.  Then, with r the largest min(i, j) over nonzero g_ij,
    p = v_r when g_rr != 0, and otherwise p = v_r + v_s with s the largest
    index above r where g_rs != 0, so N(p) = 2 g_rs.  This is the first
    point of {0, 1, 2}^d, in lexicographic order, at which the norm is
    nonzero.  The p found is verified to conjugate a onto b.
    """
    _, rows = _matrix_form(a, b)
    alg = a.algebra
    # rows divided by their content are no wider than the coefficient rows
    rows = [_primitive(u) for u in rows]
    basis = tuple(_basis_element(alg, *v) for v in _nullspace_form(rows, alg.dim))
    # the inner product is symmetric: fill the upper triangle and mirror it
    gram = [[None] * len(basis) for _ in basis]
    for i, vi in enumerate(basis):
        for j in range(i, len(basis)):
            gram[i][j] = gram[j][i] = vi.inner(basis[j])
    gram = tuple(map(tuple, gram))

    single = None
    nonzero = [(i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x]
    if nonzero:
        r = max(min(i, j) for i, j in nonzero)
        single = basis[r]
        if gram[r][r] == 0:
            s = max(j for i, j in nonzero if i == r)
            single = single + basis[s]
        if sandwich(single, a) != b:
            raise ConsistencyError(
                "invertible commutant solution fails to conjugate a onto b"
            )
    return CommutantReport(a, b, basis, gram, single)


# Golden counterexample instances: equal-norm null pure pairs that are
# conjugate only through a double sandwich.  Each entry carries the pair
# (a, b) and a spanning pair of the twisted commutant for cross-checking.
_COUNTEREXAMPLES = (
    (
        Os,
        (0, 4, 5, 3, -5, 4, 0, 3),
        (0, 0, 3, 0, 0, 0, 4, 5),
        (
            (0, 104, 40, 3, -165, 132, 0, 24),
            (0, -46, -8, 3, 75, -60, 6, 0),
        ),
    ),
    (
        Oc,
        (0, 4 * I, 5, 3 * I, -5, 4 * I, 0, 3 * I),
        (0, 0, 3, 0, 0, 0, 4, 5 * I),
        (
            (0, 104, -40 * I, 3, 165 * I, 132, 0, 24),
            (0, -46 * I, -8, 3 * I, 75, -60 * I, 6, 0),
        ),
    ),
)


def counterexample_instances():
    """The two golden instances as (algebra, a, b, spanning pair) tuples."""
    out = []
    for alg, ca, cb, span in _COUNTEREXAMPLES:
        out.append(
            (
                alg,
                Element(alg, ca),
                Element(alg, cb),
                tuple(Element(alg, v) for v in span),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class RemarkReport:
    instances: tuple

    @property
    def ok(self):
        return all(inst.ok for inst in self.instances)


def check_counterexample(alg, a, b, span_pair):
    """All checks for one instance; failures are report content."""
    checks = []
    checks.append(("norm(a) = norm(b) = 0", a.norm() == 0 and b.norm() == 0))

    report = single_conjugator_search(a, b)
    checks.append(("null space has dimension 2", report.nullity == 2))
    checks.append(
        (
            "listed vectors solve v a = b v",
            all(v * a == b * v for v in span_pair),
        )
    )
    computed = [v.coeffs for v in report.nullspace_basis]
    listed = [v.coeffs for v in span_pair]
    span_eq = all(span_contains(computed, v) for v in listed) and all(
        span_contains(listed, v) for v in computed
    )
    checks.append(("listed vectors span the computed null space", span_eq))
    checks.append(("no single conjugator", not report.single_exists))

    try:
        w = conjugacy_witness(a, b)
        double_ok = (not w.is_single) and verify_witness(a, b, w).ok
    except CompalgError:
        double_ok = False
    checks.append(("double witness exists and verifies", double_ok))
    return CheckReport(alg.name, tuple(checks))


def verify_remark():
    """Run every check on both golden counterexample instances."""
    return RemarkReport(
        tuple(
            check_counterexample(alg, a, b, span)
            for alg, a, b, span in counterexample_instances()
        )
    )
