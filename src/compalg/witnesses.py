"""Constructive conjugacy for pure elements of equal norm.

Three building blocks:

* ``negator(a)``     -- a pure invertible p with p a p^-1 = -a, found by
  scanning a fixed per-algebra list of candidates of the form
  a_j e_i - a_i e_j (each candidate is orthogonal to a, hence anticommutes
  with it; the scan takes the first one with nonzero norm).
* ``separator(a, b)`` -- for an orthogonal pair of null pure elements, a
  pure invertible p making N(p a p^-1 + b) nonzero.
* ``conjugacy_witness(a, b)`` -- a single sandwich p a p^-1 = b when one of
  the standard constructions yields it, otherwise a pair (p, q) with
  q (p a p^-1) q^-1 = b.  The decision ladder:

      1. N(a+b) != 0            -> single p = a + b
      2. positive-definite norm -> here b = -a; single p = negator(a)
      3. N(a-b) != 0            -> double p = a - b, q = negator(b)
      4. otherwise a, b are orthogonal null -> p = separator(a, b),
         q = p a p^-1 + b

A minimal witness (``minimal=True``) asks the single-conjugator theorem
(``_single_conjugator``) before rungs 3 and 4: it decides in closed form
whether p a = b p has an invertible solution and constructs one -- for
b = -a the negator of a, for dependent s = a + b and t = s a an explicit
p of norm 1 or 4c (b = c a).  Only where the theorem says none exists is
the double built; no twisted-commutant search runs, and this module
imports nothing from ``commutant``.

Every returned witness or negator is re-verified by exact evaluation
(``verify_witness``, ``verify_negator``, each returning a ``CheckReport``)
before being handed back; a failure raises ConsistencyError.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .core import (
    Element,
    Hs,
    _conjugates,
    _divided,
    _dot,
    _echelon,
    _entry,
    _gmul,
    _invertible,
    _lincomb,
    _norms,
    _normal,
    _one_of_six,
    _product,
    _reduce_above,
    _same_norm,
    _scaled,
    _shifted,
    sandwich,
)
from .errors import (
    AlgebraMismatch,
    ConsistencyError,
    NormMismatch,
    NotPure,
    PreconditionViolation,
    ZeroElement,
)
from .parsing import format_scalar


class Branch(Enum):
    SUM_INVERTIBLE = "SumInvertible"
    DIVISION_NEGATE = "DivisionNegate"
    DIFF_INVERTIBLE = "DiffInvertible"
    NULL_PAIR = "NullPair"
    ASSOCIATIVE_COLLAPSE = "AssociativeCollapse"
    COMMUTANT_SINGLE = "CommutantSingle"


class ConjugacyWitness(namedtuple("ConjugacyWitness", "p q branch")):
    """Either a single conjugator p or a pair (p, q), with the branch of the
    construction that produced it; q is None for a single."""

    __slots__ = ()

    @classmethod
    def single(cls, p, branch):
        return cls(p, None, branch)

    @classmethod
    def double(cls, p, q, branch):
        return cls(p, q, branch)

    @property
    def is_single(self):
        return self.q is None


# Candidate scan lists: (i, j) stands for the element a_j e_i - a_i e_j.
# If every candidate in a list has zero norm the coefficients it touches all
# vanish, so for nonzero pure input the scan always succeeds.
_CANDIDATE_PAIRS = {
    "O": ((1, 2), (2, 3), (4, 5), (6, 7)),
    "Os": ((2, 4), (4, 6), (1, 3), (5, 7)),
    "Oc": ((1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 7)),
    "H": ((1, 2), (2, 3), (3, 1)),
    "Hc": ((1, 2), (2, 3), (3, 1)),
    "Hs": ((1, 3),),
}


def negator_candidates(a):
    """The candidate list for ``negator``, in scan order."""
    Element._check_same(a, a)
    _one_of_six(a.algebra)
    alg, (re, im), out = a.algebra, a.num, []
    for i, j in _CANDIDATE_PAIRS[alg.name]:
        u = [[0] * alg.dim, [0] * alg.dim]
        for w, x in zip(u, (re, im or (0,) * alg.dim)):
            w[i], w[j] = x[j], -x[i]  # the numerators of a_j e_i - a_i e_j
        out.append(_normal(alg, u, a.den))
    if alg is Hs and re[1] == 0 and re[3] == 0:
        # split quaternions: when only e2 survives, e1' anticommutes with a
        out.append(alg.basis(1))
    return out


def _require_pure_nonzero(what, *elements):
    """Shared precondition guard: elements of one algebra, pure, nonzero."""
    for e in elements:  # the first against itself rejects a lone non-element
        Element._check_same(elements[0], e)
    if not all(e.is_pure for e in elements):
        raise NotPure(f"{what} needs pure elements")
    if any(e.is_zero for e in elements):
        raise ZeroElement(f"{what} needs nonzero elements")


def negator(a):
    """A pure invertible p with p*a = -a*p and p a p^-1 = -a."""
    _require_pure_nonzero("negator", a)
    for p in negator_candidates(a):
        if not _invertible(p):
            continue
        if not verify_negator(a, p).ok:
            raise ConsistencyError(f"negator candidate {p!s} fails for {a!s}")
        return p
    raise ConsistencyError(f"no negator candidate has nonzero norm for {a!s}")


def separator(a, b):
    """A pure invertible p with N(p a p^-1 + b) != 0.

    Hypotheses, checked exactly: a, b pure nonzero, inner(a, b) = 0 and
    N(a) + N(b) = 0; over the split algebras both norms must vanish (the
    disjoint-support case needs support on the positive-norm indices, which
    only null elements guarantee).
    """
    return _separated(a, b)[0]


def _separated(a, b):
    """``(p, q)``: p = separator(a, b) and q = p a p^-1 + b, both checked
    invertible."""
    _require_pure_nonzero("separator", a, b)
    alg = a.algebra
    if _dot(alg, a.num, b.num) != (0, 0):
        raise PreconditionViolation("separator needs inner(a, b) = 0")
    (nr, ni), (mr, mi) = _norms(a, b)
    if nr + mr or ni + mi:
        raise PreconditionViolation("separator needs norm(a) + norm(b) = 0")
    split = not alg.complex_field
    if split and nr:  # a real algebra's norm has no imaginary part
        raise PreconditionViolation(
            "separator over a split algebra needs norm(a) = norm(b) = 0"
        )

    # the supports; Q and Q(i) have no zero divisors, so a_k b_k != 0
    # exactly where both supports meet
    (ar, ai), (br, bi) = a.num, b.num
    sa = [k for k in range(1, alg.dim) if ar[k] or (ai and ai[k])]
    sb = [k for k in range(1, alg.dim) if br[k] or (bi and bi[k])]
    both = [k for k in sa if k in sb]
    if both:
        p = alg.basis(both[0])
    else:
        # supports are disjoint; pick one index from each
        indices = [k for k in range(1, alg.dim) if not split or alg.metric[k] == 1]
        k = next((k for k in indices if k in sa), None)
        l = next((k for k in indices if k in sb), None)
        if k is None or l is None or k == l:
            raise ConsistencyError("separator index search failed")
        p = alg.basis(k) + alg.basis(l)

    if _invertible(p):
        q = sandwich(p, a) + b
        if _invertible(q):
            return p, q
    raise ConsistencyError(f"separator {p!s} fails for {a!s}, {b!s}")


class SingleCase(Enum):
    """The case of the single-conjugator theorem (``_single_conjugator``)
    that decides a pure nonzero pair of equal norm."""

    SUM = "SumInvertible"  # N(s) != 0
    NEGATED = "Negated"  # s = 0
    DEPENDENT = "Dependent"  # s != 0 and t in F s
    NONE = "NoSingle"  # s, t independent and N(s) = 0


def _single_case(a, b):
    """``(case, s, t, basis)`` for pure a, b of equal norm: the case of the
    single-conjugator theorem, decided here only; the integer forms s = (a +
    b) d e (d = a.den, e = b.den) and t = s * a.num (None for NEGATED); and
    for SUM and NONE the canonical null-space basis of p*a = b*p as pairs
    (u, m), the element u / m for an integer-form u and a Gaussian integer
    m (else None).  It is total on these pairs, zeros included: with a = 0
    or b = 0 the case is NEGATED (both zero) or DEPENDENT (t = 0).

    One ``_echelon`` of t and s, pivoting from the last column, decides the
    case: N(s) != 0 gives SUM; else rank 1 gives DEPENDENT and rank 2 NONE,
    confirmed apart from the elimination by a nonzero 2 x 2 minor of s, t
    at the pivots.  In SUM and NONE, s and t span the solutions (proved in
    ``commutant.single_conjugator_search``).  The elimination's basis
    vector for a free column f is 1 at f and 0 at the other free columns,
    which are the last-nonzero positions of the solutions.  This echelon
    pivots there, so after ``_reduce_above`` each row over its pivot entry
    is that basis.  Its shape is checked, not its span: rank 2, and each
    row 0 at the other's pivot column."""
    alg, s = a.algebra, _lincomb(b.den, a.num, a.den, b.num)
    if not any(s[0]) and not any(s[1] or ()):
        return SingleCase.NEGATED, s, None, None
    t = _product(alg, s, a.num)
    rows, pivots = _echelon([t, s], range(alg.dim - 1, -1, -1))
    if _dot(alg, s, s) != (0, 0):
        case = SingleCase.SUM
    elif len(pivots) == 1:
        return SingleCase.DEPENDENT, s, t, None
    else:
        k, j = pivots
        if _gmul(_entry(s, k), _entry(t, j)) == _gmul(_entry(s, j), _entry(t, k)):
            raise ConsistencyError("s, t read as independent have a zero pivot minor")
        case = SingleCase.NONE
    _reduce_above(rows, pivots)
    # at rank 1, f = c is the pivot of u, so the check trips
    (u, v), c, f = rows, pivots[0], pivots[-1]
    if _entry(u, f) != (0, 0) or _entry(v, c) != (0, 0):
        raise ConsistencyError("closed-form basis is not a reduced echelon of rank 2")
    return case, s, t, ((v, _entry(v, f)), (u, _entry(u, c)))


def _single_conjugator(a, b):
    """``(case, p)``: the case of the single-conjugator theorem for pure
    nonzero a, b with N(a) = N(b), and its single conjugator p (p a p^-1 =
    b), or None when no invertible solution of p a = b p exists.

    Theorem.  Let s = a + b, t = s a and d = a - b, over the field F, with
    P the pure elements and <x, y> = inner(x, y).  A single conjugator
    exists exactly in these cases:
    * N(s) != 0: p = s (rung 1 of the ladder, so the one library caller,
      ``conjugacy_witness(minimal=True)``, reaches this only when N(s) = 0;
      the case keeps the theorem total: on such a pair the dependent
      construction gives a p that is in general no conjugator).
    * s = 0, so b = -a: p = negator(a).
    * s != 0 and t = lambda s: the dependent case below.
    * None exists when s, t are independent and N(s) = 0, which occurs
      only in dim 8: the solutions are span{s, t} (the nullity theorem in
      ``commutant.single_conjugator_search``), and their Gram matrix
      diag(N(s), N(s) N(a)) vanishes.
    Dependent case.  t = lambda s forces N(s) = 0 (else a = lambda), so
    <a, b> = -N(a), lambda^2 = -N(a), N(d) = 4 N(a) and s d = 2 lambda s.
    Put w = d - 2 lambda: then s w = 0 and N(w) = N(d) - 4 N(a) = 0.
    * s not in F d.  A pure x with <x, d> = 0 and <x, s> != 0 exists,
      since F d is all of P orthogonal to d^perp & P.  The scan tries the
      units e_k with d_k = 0 (this covers d = 0), then <e_j, d> e_k - <e_k,
      d> e_j for the first j with d_j != 0; together they span d^perp & P.
      Put p0 = -x w / (2 <s, x>) and p = 1 + p0.  Linearising conj(x)(x y)
      = N(x) y gives conj(s)(x w) + conj(x)(s w) = 2 <s, x> w, so s p0 = w.
      Re(x w) = -<x, d> = 0, so p0 is pure, and <x w, d> = N(d) <x, 1> - 2
      lambda <x, d> = 0, so p0 is orthogonal to d.  By step 1 of the
      nullity proof (alpha = 1) p solves p a = b p, and N(p) = 1 + N(x)
      N(w) / (4 <s, x>^2) = 1.  The pair b = a lands here, with p = 1.
    * s in F d, d != 0.  Then b = c a with c not in {0, 1, -1}, and N(a) =
      0.  Take the first k with a_k != 0; y = e_k - N(e_k) a / (2 <a,
      e_k>) is null, and h = (y a - a y) / (2 <a, y>) = (e_k a - a e_k) /
      (2 <a, e_k>) is pure.  From x y x = 2 <x, conj(y)> x - N(x) conj(y),
      h a = a and a h = -a, and N(h) = -1.  So p = (1 + c) + (c - 1) h
      gives p a = 2 c a = b p, with N(p) = 4 c.
    The associative subalgebra generated by a and b is span{1, a, s}, with
    s in the radical of its norm form; its only solutions are F s, all
    null, so a single conjugator of a dependent pair always lies outside
    it.

    Everything is computed on integer forms, from the case, S = (a + b) d'
    e' and T = S u of ``_single_case``, with a = u / d' and b = v / e':
    lambda d' = T_k / S_k for the last k with S_k != 0 (any such k gives
    the same p), W = S_k d d' e' - 2 e' T_k = S_k d' e' w and p = (m - d'
    e' x W) / m with m = 2 d' e' S_k <S, x>.  b = c a when the echelon of
    u, v has rank 1, its pivot the first k with u_k != 0: then p = ((1 +
    c) 2 <u, e_k> + (c - 1)(e_k u - u e_k)) / (2 <u, e_k>) with c = v_k d'
    / (u_k e').
    """
    case, s, t, _ = _single_case(a, b)
    alg, u, d, e = a.algebra, a.num, a.den, b.den
    if case is SingleCase.SUM:
        return case, _normal(alg, s, d * e)
    if case is SingleCase.NEGATED:
        return case, negator(a)
    if case is SingleCase.NONE:
        return case, None
    k, *more = _echelon([u, b.num], range(alg.dim))[1]  # rank 1 iff b = c a
    uk = _entry(u, k)
    # c = (vr + vi i) / (ur + ui i) whenever b = c a
    (vr, vi), (ur, ui) = _gmul(_entry(b.num, k), (d, 0)), _gmul(uk, (e, 0))
    if not more and (vr, vi) != (ur, ui):
        # p = ((1 + c) n + (c - 1)(e_k u - u e_k)) / n for n = 2 <u, e_k>,
        # numerator and denominator times uk e
        ek = alg.basis(k).num
        n = _gmul((2 * alg.metric[k], 0), uk)
        comm = _lincomb(1, _product(alg, ek, u), -1, _product(alg, u, ek))
        p = _shifted(_scaled(comm, (vr - ur, vi - ui)), _gmul((vr + ur, vi + ui), n))
        return case, _divided(alg, p, _gmul(n, uk), e)
    dv = _lincomb(e, u, -d, b.num)  # (a - b) d e
    k = max(i for i in range(alg.dim) if _entry(s, i) != (0, 0))  # the last s_k != 0
    sk, tk = _entry(s, k), _entry(t, k)
    w = _shifted(_scaled(dv, sk), (-2 * e * tk[0], -2 * e * tk[1]))
    x = next((x for x in _orthogonal(alg, dv) if _dot(alg, x, s) != (0, 0)), None)
    if x is None:
        raise ConsistencyError("no pure x with <x, a - b> = 0 and <x, a + b> != 0")
    m = _gmul((2 * d * e * sk[0], 2 * d * e * sk[1]), _dot(alg, s, x))
    p = _shifted(_scaled(_product(alg, x, w), (-d * e, 0)), m)
    return case, _divided(alg, p, m, 1)


def _orthogonal(alg, d):
    """Pure integer-form x with <x, d> = 0, spanning d^perp & P for pure d:
    the units e_k with d_k = 0, then <e_j, d> e_k - <e_k, d> e_j for the
    first j with d_j != 0 and every other k with d_k != 0."""
    ks = [k for k in range(1, alg.dim) if _entry(d, k) != (0, 0)]
    for k in range(1, alg.dim):
        if k not in ks:
            yield alg.basis(k).num
    j = ks[0] if ks else None
    for k in ks[1:]:
        (xr, xi), (yr, yi) = _entry(d, j), _entry(d, k)
        re, im = [0] * alg.dim, [0] * alg.dim
        re[k], im[k] = alg.metric[j] * xr, alg.metric[j] * xi
        re[j], im[j] = -alg.metric[k] * yr, -alg.metric[k] * yi
        yield re, im if any(im) else None


def conjugacy_witness(a, b, *, minimal=False):
    """A verified witness conjugating a onto b (equal-norm pure nonzero pair).

    Follows the decision ladder in the module docstring.  With
    ``minimal=True`` rungs 1 and 2 stay, and where the ladder would build a
    double the single-conjugator theorem decides first: its single, when
    one exists, is returned with branch CommutantSingle, and otherwise the
    double is built.  Every witness is checked by ``verify_witness``.
    """
    _require_pure_nonzero("conjugacy", a, b)
    if not _same_norm(a, b):
        na, nb = format_scalar(a.norm()), format_scalar(b.norm())
        raise NormMismatch(f"norm(a) = {na} differs from norm(b) = {nb}")

    alg, s = a.algebra, a + b
    if _invertible(s):
        w = ConjugacyWitness.single(s, Branch.SUM_INVERTIBLE)
    elif alg.is_division:
        if s:
            raise ConsistencyError(
                "zero norm(a+b) with a definite norm form must force b = -a"
            )
        w = ConjugacyWitness.single(negator(a), Branch.DIVISION_NEGATE)
    elif minimal and (p := _single_conjugator(a, b)[1]) is not None:
        w = ConjugacyWitness.single(p, Branch.COMMUTANT_SINGLE)
    elif _invertible(d := a - b):
        w = ConjugacyWitness.double(d, negator(b), Branch.DIFF_INVERTIBLE)
    else:
        # N(a+b) = N(a-b) = 0 forces inner(a, b) = 0 and N(a) = N(b) = 0
        w = ConjugacyWitness.double(*_separated(a, b), Branch.NULL_PAIR)

    report = verify_witness(a, b, w)
    if not report.ok:
        raise ConsistencyError(f"constructed witness failed checks: {report.failures}")
    return w


def collapse_quaternion(w):
    """Merge a double witness over an associative (dim-4) algebra into the
    single witness q*p; singles pass through unchanged."""
    _check_witness(w)
    if w.p.algebra.dim != 4:
        raise AlgebraMismatch("collapse applies to the dim-4 algebras only")
    if w.is_single:
        return w
    return ConjugacyWitness.single(w.q * w.p, Branch.ASSOCIATIVE_COLLAPSE)


def _check_witness(w):
    if not isinstance(w, ConjugacyWitness):
        raise AlgebraMismatch(f"expected a witness, got {type(w).__name__}")
    for x in (w.p, w.p if w.q is None else w.q):
        Element._check_same(x, x)  # each against itself: a lone non-element


class CheckReport(namedtuple("CheckReport", "algebra_name checks")):
    """Named exact checks on one algebra, a tuple of (name, ok) pairs;
    failures are report content."""

    __slots__ = ()

    @property
    def ok(self):
        return all(ok for _, ok in self.checks)

    @property
    def failures(self):
        return tuple(name for name, ok in self.checks if not ok)


def verify_witness(a, b, w):
    """Re-check a witness by exact evaluation; failures are report content,
    never exceptions; only a non-element or non-witness operand raises."""
    for e in (a, b):  # each against itself: mixed algebras are report content
        Element._check_same(e, e)
    _check_witness(w)
    name = a.algebra.name
    if w.p.algebra is not a.algebra or a.algebra is not b.algebra or (
        w.q is not None and w.q.algebra is not a.algebra
    ):
        return CheckReport(name, (("algebras match", False),))
    ok = _invertible(w.p)
    checks = [("norm(p) != 0", ok)]
    if w.is_single:
        label, p, x = "p a p^-1 == b", w.p, a
    else:
        ok_q = _invertible(w.q)
        checks.append(("norm(q) != 0", ok_q))
        checks.append(("p is pure", w.p.is_pure))
        checks.append(("q is pure", w.q.is_pure))
        ok, label, p = ok and ok_q, "q (p a p^-1) q^-1 == b", w.q
        x = ok and sandwich(w.p, a)
    checks.append((label, ok and _conjugates(p, x, b)))  # no sandwich by a zero norm
    return CheckReport(name, tuple(checks))


def verify_negator(a, p):
    """Re-check a negator p of a by exact evaluation: N(p) != 0,
    p a == -(a p) and p a p^-1 == -a."""
    Element._check_same(a, p)
    ok_p = _invertible(p)
    return CheckReport(
        a.algebra.name,
        (
            ("norm(p) != 0", ok_p),
            ("p a == -(a p)", p * a == -(a * p)),
            ("p a p^-1 == -a", ok_p and _conjugates(p, a, -a)),
        ),
    )
