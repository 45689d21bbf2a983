"""Exact solver for the twisted commutation equation p*a = b*p.

The equation is linear in p, so its solutions form the null space of a
dim x dim matrix over the coefficient field.  Restricting the norm form to
that null space decides, algebraically, whether an invertible solution (a
single conjugator) exists: the restricted form is given by the Gram matrix
of the inner product on a null-space basis, and it vanishes identically
exactly when no solution has nonzero norm.

The search sends each pair down one path, integer-native throughout: a
pure pair of equal norm takes the closed form, or else the elimination,
and every other pair takes the rank test, or else the elimination.

1. Closed form.  The solutions are written down from s = a + b and t =
   s*a, which always solve the equation.  A theorem, proved in
   ``single_conjugator_search`` for dim 4 and dim 8 alike, says they span
   them in the cases SUM and NONE of the single-conjugator theorem (s !=
   0 and s, t independent); in the others the map is singular.
   ``witnesses._single_case`` decides the case from one echelon of t and
   s and hands out that echelon, reduced, as exactly the elimination's
   basis; the search only divides each row by its pivot entry.
2. Rank test.  Whether p -> p*a - b*p is invertible is read from its
   determinant, a polynomial in c = Re a - Re b, N(Im a), N(Im b) and
   N(Im a + Im b), proved in ``_nonsingular`` and evaluated there on the
   stored numerators.  A nonzero determinant, the common case, means the
   null space is {0}: no matrix is built.
3. Elimination.  A singular map the closed form does not answer is
   eliminated.  Its matrix, the right multiplication by a minus the left
   multiplication by b, is read off the table's term list and the stored
   integer forms of a and b, as rows in core's integer form ``(re, im)``
   over one denominator.  Core's fraction-free kernel eliminates it
   echelon first: ``_echelon`` clears the rows below each pivot and
   ``_reduce_above`` those above it, top-down, so the result and the cost
   are those of one Gauss-Jordan pass.  One back-substitution writes
   each basis vector over the lcm of its reduced pivot divisors, without
   a ``Fraction``.  Core's canonical forms reduce it: the search builds
   its basis elements with ``_normal``, and ``twisted_commutant_matrix``
   and ``nullspace`` are exact-scalar views of the same code.
   ``span_contains`` reads the pivots of ``_echelon`` alone.

The verdict walks the grid {0, 1, 2}^d of combinations of the basis and
keeps its first point of nonzero norm, decided on the integers by
``core._invertible``; the search builds no exact scalar.  The Gram matrix
of the norm form on the basis is derived on access.

For a pure nonzero pair of equal norm the single-conjugator theorem in
``witnesses`` says in closed form whether a single conjugator exists;
the search checks its verdict against the theorem's case on every such
pair.  Minimal witnesses come from the theorem, so ``witnesses``
imports nothing from this module.  The paper's counterexample suite,
which uses both, is in ``selftest``.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .core import (
    Element,
    _coefficients,
    _conjugates,
    _divided,
    _dot,
    _echelon,
    _entry,
    _gmul,
    _invertible,
    _lincomb,
    _normal,
    _reduce_above,
    _same_norm,
    integer_form,
)
from .errors import ConsistencyError
from .witnesses import SingleCase, _single_case


def twisted_commutant_matrix(a, b):
    """The matrix of p -> p*a - b*p in coordinates: column j holds the
    coefficient vector of e_j*a - b*e_j."""
    Element._check_same(a, b)
    den, rows = _matrix_form(a, b)
    return tuple(_coefficients(row, den) for row in rows)


def _matrix_form(a, b):
    """``(den, rows)``: the matrix of p -> p*a - b*p as integer-form rows
    over one denominator, built from the algebra's term list.

    With a = u / d and b = v / e, over d e, each term e_i e_j = s e_k of
    the table puts s u_j e in column i and -s v_i d in column j of row k.
    """
    terms = a.algebra.terms
    (ur, ui), (vr, vi) = a.num, b.num
    d, e = a.den, b.den
    re = _twisted(terms, ur, e, vr, d)
    if ui is None and vi is None:
        return d * e, [(row, None) for row in re]
    zero = (0,) * len(ur)
    im = _twisted(terms, ui or zero, e, vi or zero, d)
    return d * e, [(x, y if any(y) else None) for x, y in zip(re, im)]


def _twisted(terms, u, e, v, d):
    """Integer rows of p -> p u e - v d p for int vectors u, v and ints e,
    d, in one loop over the terms: (s, i, j) of row k puts s u_j e in
    column i and -s v_i d in column j."""
    ue, vd = [x * e for x in u], [-y * d for y in v]
    rows = []
    for out in terms:
        row = [0] * len(u)
        for s, i, j in out:
            if s < 0:
                row[i] -= ue[j]
                row[j] -= vd[i]
            else:
                row[i] += ue[j]
                row[j] += vd[i]
        rows.append(row)
    return rows


def nullspace(matrix):
    """Canonical null-space basis of an exact matrix.

    Reduced row echelon form with leftmost-nonzero pivoting; one basis
    vector per free column, in increasing column order, each carrying 1 at
    its own free column and 0 at the others.  Empty list for full rank.
    Raises ``ValueError`` when the rows differ in length.
    """
    rows = [integer_form(r)[1] for r in matrix]
    ncols = len(rows[0][0]) if rows else 0
    if any(len(re) != ncols for re, _ in rows):
        raise ValueError("nullspace needs rows of one length")
    return [_coefficients(u, den) for den, u in _nullspace_form(rows, ncols)]


def _nullspace_form(rows, ncols):
    """The canonical null-space basis of a matrix given as integer-form
    rows ``(re, im)``: one ``(den, (re, im))`` per free column, the vector
    that is 1 at that column and 0 at the other free ones.

    Back-substitution reduces each entry -x / pivot (over Q(i) -x
    conj(pivot) / |pivot|^2) by the gcd of its parts and writes the vector
    over the lcm of those reduced divisors: ``_normal`` and
    ``_coefficients`` take it to the canonical form.
    """
    rows, pivots = _echelon(rows, range(ncols))
    if len(pivots) == ncols:
        return []
    _reduce_above(rows, pivots)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries, den = [], 1
        for (xr, xi), c in zip(rows, pivots):
            x, p = xr[f], xr[c]
            y, q = (xi[f], xi[c]) if xi else (0, 0)
            if x or y:
                if q:
                    x, y, p = x * p + y * q, y * p - x * q, p * p + q * q
                g = gcd(x, y, p)
                x, y, p = x // g, y // g, p // g
                entries.append((c, x, y, p))
                den = lcm(den, p)
        re, im = [0] * ncols, [0] * ncols
        re[f] = den
        for c, x, y, p in entries:
            m = den // p
            re[c], im[c] = -x * m, -y * m
        basis.append((den, (re, im if any(im) else None)))
    return basis


def _nonsingular(a, b):
    """Whether p -> p*a - b*p is invertible, decided from its determinant
    in closed form; no matrix is built.

    With c = Re a - Re b, A = N(Im a), B = N(Im b) and S = N(Im a + Im b),
    the determinant is (c^2 + A + B)^2 - 4 A B in dim 4 and (c^2 + S)^2
    ((c^2 + A + B)^2 - 4 A B) in dim 8.  Proof, with X = R_(Im a) and Y =
    L_(Im b), so that the map is c + X - Y:
    * dim 4.  Over C the quaternions are M_2(C), where left and right
      multiplications act as M_2 (x) 1 and 1 (x) M_2: X and Y commute, and
      the eigenvalues of X - Y are the differences of theirs, all four
      pairs.  X^2 = -A and Y^2 = -B with trace 0, so those are +-i sqrt(A)
      and +-i sqrt(B), and c + X - Y has the eigenvalues c +- i(sqrt(A) -
      sqrt(B)) and c +- i(sqrt(A) + sqrt(B)), each once.  Their product is
      the formula; it is a polynomial, so it holds where A B = 0 as well.
    * dim 8.  An automorphism g takes the map of (a, b) to that of (g a, g
      b) by conjugation, so the determinant is a G2-invariant polynomial in
      c, Im a and Im b, hence (first fundamental theorem for G2, G. W.
      Schwarz 1988) a polynomial in c, A, B and <Im a, Im b>.  G2 moves
      every real pair to the frame Im a = x e1, Im b = y e1 + z e2, where
      sympy factors the determinant as (c^2 + x^2 + 2 x y + y^2 + z^2)^2
      ((c^2 + A + B)^2 - 4 A B) with S = (x + y)^2 + z^2
      (``tests/test_commutant.py`` repeats this computation).
    * Hs, Hc, Os, Oc.  The identity is polynomial in the coefficients, and
      each of these is a form of H_C or O_C: an isomorphism over C keeps
      the norm and conjugates the map.
    With a = u / d and b = v / e and u', v' the pure parts of u and v, the
    invariants times powers of d e are Gaussian integers: c d e = u_0 e -
    v_0 d, A (d e)^2 = N(u') e^2, B (d e)^2 = N(v') d^2 and S (d e)^2 =
    N(e u' + d v').  Each factor is homogeneous in c^2, A, B and S, so it
    vanishes exactly when the same expression in those integers does.
    """
    alg, d, e = a.algebra, a.den, b.den
    u, v = a.num, b.num
    (ur, ui), (vr, vi) = _entry(u, 0), _entry(v, 0)
    c = ur * e - vr * d, ui * e - vi * d
    cr, ci = _gmul(c, c)
    ar, ai = _pure_norm(alg, u, e)
    br, bi = _pure_norm(alg, v, d)
    h = cr + ar + br, ci + ai + bi
    mr, mi = _gmul((ar, ai), (br, bi))
    if _gmul(h, h) == (4 * mr, 4 * mi):  # (c^2 + A + B)^2 = 4 A B
        return False
    if alg.dim == 4:
        return True
    sr, si = _pure_norm(alg, _lincomb(e, u, d, v), 1)
    return (cr + sr, ci + si) != (0, 0)


def _pure_norm(alg, u, m):
    """N(u') m^2 as a Gaussian integer, for an integer-form vector u with
    pure part u' and an int m: N(u) less the square of entry 0."""
    (nr, ni), (x, y) = _dot(alg, u, u), _entry(u, 0)
    m *= m
    return (nr - x * x + y * y) * m, (ni - 2 * x * y) * m


def span_contains(vectors, target):
    """Exact membership of ``target`` in the span of ``vectors``: the
    target is in the span exactly when its column is not a pivot column of
    the echelon form of the vectors, then the target, as columns; only the
    pivots are read, so the rows above them are never cleared.  The empty
    vector lies in every span.  Raises ``ValueError``
    when a vector's length differs from the target's."""
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("span_contains needs vectors as long as the target")
    rows = [integer_form(r)[1] for r in zip(*vectors, target)]
    return len(vectors) not in _echelon(rows, range(len(vectors) + 1))[1]


class CommutantReport(namedtuple("CommutantReport", "a b nullspace_basis single")):
    """Solution space of p*a = b*p plus the invertibility verdict: single is
    an invertible solution, or None when there is none."""

    __slots__ = ()

    @property
    def norm_gram(self):
        """The Gram matrix of the inner product on the null-space basis,
        derived on access."""
        basis = self.nullspace_basis
        return tuple(tuple(v.inner(w) for w in basis) for v in basis)

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

    The single conjugator is the first point of {0, 1, 2}^d, in
    lexicographic order, at which the norm is nonzero.  The search walks
    v_r for r from the top down, each followed by v_r + v_j for j from the
    top down, and keeps the first invertible p.  With g the Gram matrix of
    the inner product on the basis: once the points before v_r have norm
    0, the norm vanishes on the span of v_(r+1), ..., so N(v_r) = g_rr and
    N(v_r + v_j) = 2 g_rj, and every other grid point led by v_r has norm
    0 or comes after one of these.  The p found is verified to conjugate a
    onto b, and for pure nonzero a, b of equal norm the verdict is checked
    against the case of the single-conjugator theorem, which
    ``witnesses._single_case`` returns; both checks are always on.

    Closed form.  For pure a, b with N(a) = N(b), let s = a + b and t =
    s*a.  Then s*a = a^2 + b*a = b*a + b^2 = b*s, since x^2 = -N(x) for
    pure x, and (s*a)*a = -N(a) s = b*(s*a) by alternativity: both solve
    the equation.  If s != 0 and s, t are independent, they span the
    solutions.  Proof, with <x, y> = inner(x, y), C the algebra over the
    field F, P its pure elements, d = a - b and L(p) = p*a - b*p:
    1. Write p = alpha + p0, alpha in F and p0 in P.  By xy + yx =
       -2<x, y> on P, b = s - a and 2a = s + d, L(p) = alpha d - <p0, s +
       d> - s*p0.  As Re(s*p0) = -<s, p0>, L(p) = 0 iff <p0, d> = 0 and
       Im(s*p0) = alpha d.
    2. <p0, s*p0> = N(p0) <1, s> = 0, so a solution with alpha != 0 has
       p0 orthogonal to d anyway.  Let K = {p0 in P : Im(s*p0) = 0}.  The
       solutions with alpha = 0 are K & d^perp, so the nullity is at most
       dim(K & d^perp) + 1, also for d = 0, where alpha is free.
    3. N(s) != 0: if s*p0 is a scalar, p0 lies in F conj(s) = F s.  So K =
       F s, with <s, d> = N(a) - N(b) = 0, and the nullity is at most 2.
    4. N(s) = 0, s != 0: s*p0 = lambda gives 0 = s*(s*p0) = lambda s, so K
       = ker L_s & P.  Linearising conj(x)(x y) = N(x) y gives conj(s)(z y)
       + conj(z)(s y) = 2<s, z> y; with <s, z> = 1/2 it puts ker L_s in
       s C, which s*(s*y) = 0 puts in ker L_s, so both have dimension
       dim C / 2.  Hence K = {s y : <y, s> = 0}, of dimension dim C / 2 -
       1.  Now <s y, d> = -<y, s d> and t = s d / 2, so K lies in d^perp
       iff t is in F s.  For independent s, t, dim(K & d^perp) = dim C / 2
       - 2 and the nullity is at most 3 (in dim 4 this case cannot occur).
    5. L is skew for the nondegenerate norm form (<x a, y> = -<x, y a>
       and <b x, y> = -<x, b y> for pure a, b), so its nullity is even.  s
       and t are independent solutions, so the nullity is exactly 2.
    For s != 0 and dependent s, t the same steps give the nullity too.
    t = lambda s forces N(s) = 0 (else a = s^-1 (s a) = lambda, so a = 0
    and N(s) = N(b) = 0).  Then K lies in d^perp, so the nullity is even
    and dim K or dim K + 1: 4 in dim 8 and 2 in dim 4.
    In those cases ``witnesses._single_case`` hands out the elimination's
    basis of span{s, t}.  The pure pairs of equal norm it leaves, s = 0
    (b = -a) or dependent s, t, have a singular map and take the
    elimination; every other pair takes the rank test (``_nonsingular``),
    and the elimination when it fails.
    """
    Element._check_same(a, b)
    alg = a.algebra
    pure_pair = a.is_pure and b.is_pure and _same_norm(a, b)
    case = basis = None
    if pure_pair:
        case, _, _, rows = _single_case(a, b)
        basis = rows and tuple(_divided(alg, u, m, 1) for u, m in rows)
    elif _nonsingular(a, b):
        basis = ()
    if basis is None:
        rows = _matrix_form(a, b)[1]
        basis = tuple(_normal(alg, u, den) for den, u in _nullspace_form(rows, alg.dim))
    single = next(filter(_invertible, _grid(basis)), None)
    if single is not None and not _conjugates(single, a, b):
        raise ConsistencyError(
            "invertible commutant solution fails to conjugate a onto b"
        )
    if pure_pair and a and b and (single is None) != (case is SingleCase.NONE):
        raise ConsistencyError(
            "commutant verdict contradicts the single-conjugator theorem"
        )
    return CommutantReport(a, b, basis, single)


def _grid(basis):
    """The points of {0, 1, 2}^d that can be the first of nonzero norm, in
    lexicographic order: v_r for r from the top down, each followed by
    v_r + v_j for j from the top down."""
    for r in reversed(range(len(basis))):
        yield basis[r]
        for v in reversed(basis[r + 1 :]):
            yield basis[r] + v
