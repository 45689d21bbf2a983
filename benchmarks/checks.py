"""Output checks that do not trust the library's own verification.

Each check uses only element ``*``, ``conjugate``, ``norm`` and the way the
input was built, so ``fail_ratio`` measures correctness rather than the
library agreeing with ``verify_witness``.  A check returns the name of the
first property that fails, or ``None``.
"""

from __future__ import annotations

from fractions import Fraction


def single(a, b, p):
    """p is invertible and p a = b p, i.e. p a p^-1 = b."""
    if p.algebra is not a.algebra:
        return "witness algebra"
    if p.norm() == 0:
        return "N(p) != 0"
    if p * a != b * p:
        return "p a == b p"
    return None


def double(a, b, p, q):
    """p carries a to a pure a' of the same norm, and q carries a' to b."""
    if p.algebra is not a.algebra or q.algebra is not a.algebra:
        return "witness algebra"
    n = p.norm()
    if n == 0 or q.norm() == 0:
        return "N(p), N(q) != 0"
    mid = ((p * a) * p.conjugate()) * (Fraction(1) / n)
    if mid.coeffs[0] != 0 or mid.norm() != a.norm():
        return "a' pure with N(a') == N(a)"
    if p * a != mid * p:
        return "p a == a' p"
    if q * mid != b * q:
        return "q a' == b q"
    return None


def witness(a, b, w):
    """Check a ConjugacyWitness-shaped object (``p``, ``q`` or None)."""
    if w.q is None:
        return single(a, b, w.p)
    return double(a, b, w.p, w.q)


def commutant(a, b, report, conjugate):
    """Check a single_conjugator_search report for the pair (a, b).

    Every basis vector must solve v a = b v; a found single conjugator must
    pass ``single``, which also refutes SingleExists for a pair whose norms
    or scalar parts differ.  ``conjugate`` is True when SingleExists is
    forced, e.g. for (a, r a r^-1), which r itself solves.
    """
    for v in report.nullspace_basis:
        if v * a != b * v:
            return "basis vector solves v a == b v"
    if report.single is not None:
        return single(a, b, report.single)
    if conjugate:
        return "conjugate pair has verdict SingleExists"
    return None
