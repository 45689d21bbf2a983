"""Exact solver for the twisted commutation equation p*a = b*p.

The equation is linear in p, so its solutions form the null space of a
dim x dim matrix over the coefficient field.  Restricting the norm form to
that null space decides, algebraically, whether an invertible solution (a
single conjugator) exists: the restricted form is given by the Gram matrix
of the inner product on a null-space basis, and it vanishes identically
exactly when no solution has nonzero norm.

The pipeline is integer-native.  The matrix of p -> p*a - b*p, the left
multiplication by a minus the right multiplication by b, is read off the
structure table and the stored integer forms of a and b, as rows in
core's integer form ``(re, im)`` over one denominator.  One fraction-free
Gauss-Jordan elimination, ``_nullspace_form``, divides each row by its
content and clears it with Gaussian-integer multipliers (a real row is
the ``im is None`` case); one back-substitution writes each basis vector
in canonical integer form, without a ``Fraction``.  The search builds its
basis elements from those forms, and ``twisted_commutant_matrix`` and
``nullspace`` are exact-scalar views of the same code.

For pure a, b of equal norm the search first writes the solution space
down in closed form, from s = a + b and t = s*a, which always solve the
equation; it does so only under a certificate that they span it (a proof
in dim 4, a minor nonsingular modulo a prime in dim 8), and reduces them to
exactly the elimination's basis.  Every other case takes the elimination.

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
    _divided,
    _dot,
    _lincomb,
    _normal,
    _product,
    integer_form,
    sandwich,
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
    rows = [integer_form(r)[1] for r in matrix]
    ncols = len(rows[0][0]) if rows else 0
    return [_coefficients(u, den) for den, u in _nullspace_form(rows, ncols)]


def _nullspace_form(rows, ncols):
    """The canonical null-space basis of a matrix given as integer-form
    rows ``(re, im)``: one canonical ``(den, (re, im))`` per free column,
    the vector that is 1 at that column and 0 at the other free ones.

    The elimination is fraction-free: each row is divided by its content,
    and a row is cleared against the pivot row as ``pivot * row - entry *
    pivot_row`` with Gaussian-integer multipliers (a real row has im None).
    Back-substitution writes each entry -x / pivot in lowest terms, over
    Q(i) as -x conj(pivot) / |pivot|^2 when the pivot is not real, and puts
    the vector over the lcm of those denominators, which leaves it canonical.
    """
    rows = [_primitive(u) for u in rows]
    nrows = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for pr in range(r, nrows):
            re, im = rows[pr]
            if re[c] or im and im[c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i, (re, im) in enumerate(rows):
            if i != r and (re[c] or im and im[c]):
                rows[i] = _combine(rows[i], rows[r], c)
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        re, im, dens = [0] * ncols, [0] * ncols, [1] * ncols
        for (xr, xi), c in zip(rows, pivots):
            x, p = xr[f], xr[c]
            y, q = (xi[f], xi[c]) if xi else (0, 0)
            if not (x or y):
                continue
            if q:
                x, y, p = -(x * p + y * q), x * q - y * p, p * p + q * q
            else:
                x, y = -x, -y
            g = gcd(x, y, p)
            re[c], im[c], dens[c] = x // g, y // g, p // g
        den = lcm(*dens)
        scale = [den // d for d in dens]
        re = [x * m for x, m in zip(re, scale)]
        re[f] = den
        im = [y * m for y, m in zip(im, scale)] if any(im) else None
        basis.append((den, (re, im)))
    return basis


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
        new = [p * x - f * y for x, y in zip(xr, yr)]
        g = gcd(*new)
        return [x // g for x in new] if g > 1 else new, None
    zero = (0,) * len(xr)
    xi, yi = xi or zero, yi or zero
    q, h = yi[c], xi[c]
    g = gcd(p, q, f, h)
    p, q, f, h = p // g, q // g, f // g, h // g
    re = [p * a - q * b - f * s + h * t for a, b, s, t in zip(xr, xi, yr, yi)]
    im = [p * b + q * a - f * t - h * s for a, b, s, t in zip(xr, xi, yr, yi)]
    return _primitive((re, im if any(im) else None))


# The certificate works in F_Q: Q is prime, Q = 1 (mod 4), Q < 2^61, and
# _I_MOD_Q^2 = -1 (mod Q), so i -> _I_MOD_Q makes Z[i] -> F_Q a ring
# homomorphism.
_Q = 2305843009213693921
_I_MOD_Q = 583529827753931384


def _nonsingular_mod_q(rows, keep):
    """True when the submatrix of integer-form rows on the rows and columns
    in ``keep`` is nonsingular in F_Q.  Its determinant is then a nonzero
    minor over Z[i], so the whole matrix has at least that rank over Q(i)."""
    m = []
    for k in keep:
        re, im = rows[k]
        if im is None:
            m.append([re[j] % _Q for j in keep])
        else:
            m.append([(re[j] + _I_MOD_Q * im[j]) % _Q for j in keep])
    # clear column 0 against a pivot row, fraction-free, then drop the pivot
    # row and column 0
    while m:
        for i, row in enumerate(m):
            if row[0]:
                break
        else:
            return False
        pivot = m.pop(i)
        p, tail = pivot[0], pivot[1:]
        for i, row in enumerate(m):
            f, rest = row[0], row[1:]
            m[i] = [(p * x - f * y) % _Q for x, y in zip(rest, tail)] if f else rest
    return True


def _closed_form(a, b, rows):
    """The canonical null-space basis of p*a = b*p built from s = a + b and
    t = s*a, or None without a certificate that they span it (see
    ``single_conjugator_search``).  ``rows`` is None in dim 4, else the
    integer rows of ``_matrix_form``."""
    alg = a.algebra
    (d, u), (e, v) = (a.den, a.num), (b.den, b.num)
    if not (a.is_pure and b.is_pure):
        return None
    (nr, ni), (mr, mi) = _dot(alg.dot, u, u), _dot(alg.dot, v, v)
    if nr * e * e != mr * d * d or ni * e * e != mi * d * d:
        return None
    s = _lincomb(e, u, d, v)  # (a + b) d e
    s = _primitive((s[0], s[1] if s[1] and any(s[1]) else None))
    if _last(s) < 0:  # b = -a
        return None
    t = _primitive(_product(alg.mul, s, u))
    f2 = max(_last(s), _last(t))
    if _entry(s, f2) == (0, 0):
        s, t = t, s
    else:
        t = _combine(t, s, f2)
    f1 = _last(t)
    if f1 < 0:
        return None
    if rows is not None:
        keep = [k for k in range(alg.dim) if k != f1 and k != f2]
        if not _nonsingular_mod_q(rows, keep):
            return None
    s = _combine(s, t, f1)
    return _divided(alg, t, _entry(t, f1), 1), _divided(alg, s, _entry(s, f2), 1)


def _entry(u, k):
    """Entry k of an integer-form vector as a Gaussian integer (re, im)."""
    re, im = u
    return re[k], im[k] if im else 0


def _last(u):
    """The largest index of a nonzero entry of u; -1 for the zero vector."""
    re, im = u
    for k in reversed(range(len(re))):
        if re[k] or im and im[k]:
            return k
    return -1


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

    Closed form.  For pure a, b with N(a) = N(b), let s = a + b and t =
    s*a.  Then s*a = a^2 + b*a = b*a + b^2 = b*s, since x^2 = -N(x) for
    pure x, and (s*a)*a = -N(a) s = b*(s*a) by alternativity: both solve
    the equation, and they span the solutions exactly when the nullity is
    2.  That is never taken on trust:
    - dim 4: the independent s, t prove it.  p -> p*a - b*p is skew
      for the nondegenerate norm form (<x a, y> = -<x, y a> and <b x, y>
      = -<x, b y> for pure a, b), so its rank is even and the nullity is
      0, 2 or 4.  Nullity 4 makes the map zero: p = 1 gives a = b, and
      then a commutes with every p, so the pure a is 0, which s != 0
      excludes.  No matrix is built.
    - dim 8: no proof is known.  The certificate is that the matrix
      without the rows and columns f1, f2 below is nonsingular in F_Q,
      with i -> _I_MOD_Q.  Its determinant is then a nonzero minor of
      size dim - 2 over Z[i], which bounds the nullity by 2, and the
      independent s, t make it exactly 2.  N(s) may vanish.  Columns f1
      and f2 are combinations of the others by the two solutions, and so
      are rows f1 and f2, because p -> p*a - b*p is skew for the norm
      form (<x a, y> = <x, y conj(a)>): the submatrix has the rank of the
      matrix.
    The elimination's basis vector for a free column f is the solution
    that is 1 at f and 0 at the other free columns, and the free columns
    are the last-nonzero positions of the solution space.  So, with f2
    the largest index where s or t is nonzero, f2 is cleared from the
    other vector, whose last nonzero index is f1, then f1 from the first,
    and each is divided by its own entry: the same basis, from the right.
    Without a certificate, when s = 0 (b = -a), or when s and t are
    dependent, the fraction-free elimination runs (in dim 8 on the rows
    already built).
    """
    Element._check_same(a, b)
    alg = a.algebra
    rows = None if alg.dim == 4 else _matrix_form(a, b)[1]
    basis = _closed_form(a, b, rows)
    if basis is None:
        if rows is None:
            rows = _matrix_form(a, b)[1]
        basis = tuple(
            _normal(alg, u, den) for den, u in _nullspace_form(rows, alg.dim)
        )
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
