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

Every returned witness or negator is re-verified by exact evaluation
(``verify_witness``, ``verify_negator``, each returning a ``CheckReport``)
before being handed back; a failure raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .commutant import single_conjugator_search
from .core import Element, Hs, _dot, _invertible, _norms, _normal, _same_norm, sandwich
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


@dataclass(frozen=True)
class ConjugacyWitness:
    """Either a single conjugator p or a pair (p, q), with the branch of the
    construction that produced it."""

    p: Element
    q: Optional[Element]
    branch: Branch

    @classmethod
    def single(cls, p, branch):
        return cls(p, None, branch)

    @classmethod
    def double(cls, p, q, branch):
        return cls(p, q, branch)

    @property
    def is_single(self):
        return self.q is None

    def apply(self, a):
        """Transport a through the witness: p a p^-1, then q ... q^-1."""
        out = sandwich(self.p, a)
        if self.q is not None:
            out = sandwich(self.q, out)
        return out


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
    _require_pure_nonzero("separator", a, b)
    alg = a.algebra
    if _dot(alg.dot, a.num, b.num) != (0, 0):
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

    if not (_invertible(p) and _invertible(sandwich(p, a) + b)):
        raise ConsistencyError(f"separator {p!s} fails for {a!s}, {b!s}")
    return p


def conjugacy_witness(a, b, *, minimal=False):
    """A verified witness conjugating a onto b (equal-norm pure nonzero pair).

    Follows the decision ladder in the module docstring.  With
    ``minimal=True`` a double witness is replaced by a single one whenever
    the twisted-commutant solver finds an invertible solution of p a = b p.
    """
    _require_pure_nonzero("conjugacy", a, b)
    if not _same_norm(a, b):
        na, nb = format_scalar(a.norm()), format_scalar(b.norm())
        raise NormMismatch(f"norm(a) = {na} differs from norm(b) = {nb}")

    alg, s = a.algebra, a + b
    if _invertible(s):
        w = ConjugacyWitness.single(s, Branch.SUM_INVERTIBLE)
    elif alg.is_division:
        if b != -a:
            raise ConsistencyError(
                "zero norm(a+b) with a definite norm form must force b = -a"
            )
        w = ConjugacyWitness.single(negator(a), Branch.DIVISION_NEGATE)
    elif _invertible(d := a - b):
        w = ConjugacyWitness.double(d, negator(b), Branch.DIFF_INVERTIBLE)
    else:
        # N(a+b) = N(a-b) = 0 forces inner(a, b) = 0 and N(a) = N(b) = 0
        p = separator(a, b)
        q = sandwich(p, a) + b
        w = ConjugacyWitness.double(p, q, Branch.NULL_PAIR)

    report = verify_witness(a, b, w)
    if not report.ok:
        raise ConsistencyError(f"constructed witness failed checks: {report.failures}")

    if minimal and not w.is_single:
        found = single_conjugator_search(a, b).single
        if found is not None:
            w = ConjugacyWitness.single(found, Branch.COMMUTANT_SINGLE)
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


@dataclass(frozen=True)
class CheckReport:
    """Named exact checks on one algebra; failures are report content."""

    algebra_name: str
    checks: tuple

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
        label = "p a p^-1 == b"
    else:
        ok_q = _invertible(w.q)
        checks.append(("norm(q) != 0", ok_q))
        checks.append(("p is pure", w.p.is_pure))
        checks.append(("q is pure", w.q.is_pure))
        ok, label = ok and ok_q, "q (p a p^-1) q^-1 == b"
    checks.append((label, ok and w.apply(a) == b))  # no sandwich by a zero norm
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
            ("p a p^-1 == -a", ok_p and sandwich(p, a) == -a),
        ),
    )
