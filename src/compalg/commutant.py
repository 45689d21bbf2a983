"""Exact solver for the twisted commutation equation p*a = b*p.

The equation is linear in p, so its solutions form the null space of a
dim x dim matrix over the coefficient field.  Restricting the norm form to
that null space decides, algebraically, whether an invertible solution (a
single conjugator) exists: the restricted form is given by the Gram matrix
of the inner product on a null-space basis, and it vanishes identically
exactly when no solution has nonzero norm.

``verify_remark`` re-derives the two built-in counterexample instances:
equal-norm pairs of null pure elements, one in the split octonions and one
in the complex octonions, whose twisted commutant is two-dimensional with
an identically vanishing norm form, so no single conjugator exists even
though a double witness does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .core import Element, Oc, Os, integer_form, rational, sandwich, scalar
from .errors import AlgebraMismatch, CompalgError, ConsistencyError
from .scalars import I
from .witnesses import CheckReport, conjugacy_witness, verify_witness


def twisted_commutant_matrix(a, b):
    """The matrix of p -> p*a - b*p in coordinates: column j holds the
    coefficient vector of e_j*a - b*e_j."""
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("twisted commutant needs elements of one algebra")
    alg = a.algebra
    cols = []
    for j in range(alg.dim):
        e = alg.basis(j)
        cols.append((e * a - b * e).coeffs)
    return tuple(tuple(cols[j][i] for j in range(alg.dim)) for i in range(alg.dim))


def nullspace(matrix):
    """Canonical null-space basis of an exact matrix.

    Reduced row echelon form with leftmost-nonzero pivoting; one basis
    vector per free column, in increasing column order, each carrying 1 at
    its own free column and 0 at the others.  Empty list for full rank.

    The elimination is fraction-free: each row is scaled to integer (over
    Q(i), Gaussian-integer) entries, a row is cleared against the pivot row
    as ``pivot * row - entry * pivot_row`` and divided by the gcd of its
    integer parts, and only the back-substitution divides by the pivots.
    """
    forms = [integer_form(r)[1] for r in matrix]
    ncols = len(forms[0][0]) if forms else 0
    if all(im is None for _, im in forms):
        rows = [re for re, _ in forms]
        zero, combine, quotient = 0, _combine, _quotient
    else:
        rows = [list(zip(re, im or [0] * ncols)) for re, im in forms]
        zero, combine, quotient = (0, 0), _combine_gaussian, _quotient_gaussian
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for rr, c in enumerate(pivots):
            v[c] = quotient(rows[rr][f], rows[rr][c])
        basis.append(tuple(v))
    return basis


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


def _quotient(x, p):
    """-x / p: the basis-vector entry at a pivot column with pivot p."""
    return rational(-x, p)


def _quotient_gaussian(x, p):
    """-x / p over the Gaussian integers, as -x conj(p) / |p|^2."""
    (xr, xi), (pr, pi) = x, p
    return scalar(-(xr * pr + xi * pi), xr * pi - xi * pr, pr * pr + pi * pi)


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
    matrix: tuple
    nullspace_basis: tuple
    norm_gram: tuple
    single: Optional[Element]

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
    alg = a.algebra
    matrix = twisted_commutant_matrix(a, b)
    vectors = nullspace(matrix)
    basis = tuple(Element(alg, v) for v in vectors)
    gram = tuple(tuple(vi.inner(vj) for vj in basis) for vi in basis)

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
    return CommutantReport(a, b, matrix, basis, gram, single)


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
