"""The verification suites behind the ``selftest`` and ``verify-remark``
CLI commands.

Each randomized property is a one-sample check ``(rng, alg)`` that returns
a failure message, or None when the identity holds.  ``run_selftest`` owns
the sample loop and runs each property over the algebras its predicate
in ``PROPERTIES`` covers, each with its own deterministically derived
generator, so a fixed seed produces bit-identical output on every platform.

``verify_remark`` re-derives the paper's two counterexamples: equal-norm
null pure pairs in Os and Oc whose twisted commutant is two-dimensional
with a vanishing norm form, so only a double witness conjugates them.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .commutant import single_conjugator_search, span_contains
from .core import ALGEBRAS, Element, Oc, Os, sandwich
from .errors import CompalgError, PreconditionViolation
from .parsing import format_element, parse_element
from .sampling import (
    random_element,
    random_invertible,
    random_orthogonal_null_pair,
    random_pure_nonzero,
)
from .scalars import I
from .witnesses import (
    CheckReport,
    collapse_quaternion,
    conjugacy_witness,
    negator,
    verify_negator,
    verify_witness,
)


def _prop_composition(rng, alg):
    a = random_element(rng, alg)
    b = random_element(rng, alg)
    if (a * b).norm() != a.norm() * b.norm():
        return "norm(ab) != norm(a)norm(b)"


def _prop_conjugation(rng, alg):
    a = random_element(rng, alg)
    b = random_element(rng, alg)
    if (a * b).conjugate() != b.conjugate() * a.conjugate():
        return "conj(ab) != conj(b)conj(a)"
    if a * a.conjugate() != a.norm() * alg.one():
        return "a conj(a) != norm(a)"
    x = a.pure_part()
    if x * x != -x.norm() * alg.one():
        return "pure square identity fails"


def _prop_alternative(rng, alg):
    a = random_element(rng, alg)
    b = random_element(rng, alg)
    if (a * a) * b != a * (a * b) or (a * b) * b != a * (b * b):
        return "alternativity fails"


def _prop_associative(rng, alg):
    a = random_element(rng, alg)
    b = random_element(rng, alg)
    c = random_element(rng, alg)
    if (a * b) * c != a * (b * c):
        return "associativity fails"


def _prop_sandwich(rng, alg):
    p = random_invertible(rng, alg)
    a = random_element(rng, alg)
    if (p * a) * p.inverse() != p * (a * p.inverse()):
        return "sandwich not well defined"


def _prop_negator(rng, alg):
    a = random_pure_nonzero(rng, alg)
    if not verify_negator(a, negator(a)).ok:
        return "negator postcondition fails"


def _prop_witness(rng, alg):
    a = random_pure_nonzero(rng, alg)
    r = random_invertible(rng, alg)
    b = sandwich(r, a)
    w = conjugacy_witness(a, b)
    if not verify_witness(a, b, w).ok:
        return "witness fails verification"
    if alg.dim == 4:
        single = collapse_quaternion(w)
        if not single.is_single or not verify_witness(a, b, single).ok:
            return "collapse fails"


def _prop_null_witness(rng, alg):
    a, b = random_orthogonal_null_pair(rng, alg)
    w = conjugacy_witness(a, b)
    if not verify_witness(a, b, w).ok:
        return "null-pair witness fails"


def _prop_commutant(rng, alg):
    a = random_element(rng, alg, density=0.5, max_abs=3)
    b = random_element(rng, alg, density=0.5, max_abs=3)
    report = single_conjugator_search(a, b)
    for v in report.nullspace_basis:
        if v * a != b * v:
            return "null-space vector fails v a = b v"
    p = report.single
    if p is not None and (
        p.norm() == 0
        or not span_contains([v.coeffs for v in report.nullspace_basis], p.coeffs)
    ):
        return "found single is not a valid solution"


def _prop_parse_roundtrip(rng, alg):
    a = random_element(rng, alg, frac_prob=0.25)
    if parse_element(format_element(a), alg) != a:
        return "parse/format round trip fails"


def _every(alg):
    return True


PROPERTIES = (
    ("composition-law", _every, _prop_composition),
    ("conjugation-and-norms", _every, _prop_conjugation),
    ("alternativity", lambda alg: alg.dim == 8, _prop_alternative),
    ("associativity", lambda alg: alg.dim == 4, _prop_associative),
    ("sandwich-well-defined", _every, _prop_sandwich),
    ("negator", _every, _prop_negator),
    ("conjugacy-witness", _every, _prop_witness),
    ("null-pair-witness", lambda alg: not alg.is_division, _prop_null_witness),
    ("commutant-solver", _every, _prop_commutant),
    ("parse-roundtrip", _every, _prop_parse_roundtrip),
)


SelftestRecord = namedtuple("SelftestRecord", "name algebra samples failure")


class SelftestResult(namedtuple("SelftestResult", "records")):
    __slots__ = ()

    @property
    def ok(self):
        return all(r.failure == "" for r in self.records)


def run_selftest(samples=100, seed=0):
    """Run every property over the algebras it covers, in ``ALGEBRAS`` order,
    one sample at a time; the first failing sample, or a CompalgError raised
    inside the property, becomes that record's failure text."""
    if samples < 1:
        raise PreconditionViolation(f"selftest needs samples >= 1, got {samples}")
    records = []
    for name, covers, check in PROPERTIES:
        for alg in filter(covers, ALGEBRAS.values()):
            # string seeding is platform-stable and independent of hash
            # randomization
            rng = random.Random(f"{seed}:{name}:{alg.name}")
            failure = ""
            try:
                for i in range(samples):
                    message = check(rng, alg)
                    if message:
                        failure = f"sample {i}: {message}"
                        break
            except CompalgError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            records.append(SelftestRecord(name, alg.name, samples, failure))
    return SelftestResult(tuple(records))


# Golden counterexample instances: equal-norm null pure pairs that are
# conjugate only through a double sandwich.  Each entry carries the pair
# (a, b) and a spanning pair of the twisted commutant for cross-checking.
_COUNTEREXAMPLES = (
    (
        Os,
        (0, 4, 5, 3, -5, 4, 0, 3),
        (0, 0, 3, 0, 0, 0, 4, 5),
        ((0, 104, 40, 3, -165, 132, 0, 24), (0, -46, -8, 3, 75, -60, 6, 0)),
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
    return tuple(
        (alg, Element(alg, ca), Element(alg, cb), tuple(Element(alg, v) for v in span))
        for alg, ca, cb, span in _COUNTEREXAMPLES
    )


class RemarkReport(namedtuple("RemarkReport", "instances")):
    __slots__ = ()

    @property
    def ok(self):
        return all(inst.ok for inst in self.instances)


def check_counterexample(alg, a, b, span_pair):
    """All checks for one instance; failures are report content."""
    report = single_conjugator_search(a, b)
    computed = [v.coeffs for v in report.nullspace_basis]
    listed = [v.coeffs for v in span_pair]
    try:
        w = conjugacy_witness(a, b)
        double_ok = (not w.is_single) and verify_witness(a, b, w).ok
    except CompalgError:
        double_ok = False
    checks = (
        ("norm(a) = norm(b) = 0", a.norm() == 0 and b.norm() == 0),
        ("null space has dimension 2", report.nullity == 2),
        ("listed vectors solve v a = b v", all(v * a == b * v for v in span_pair)),
        (
            "listed vectors span the computed null space",
            all(span_contains(computed, v) for v in listed)
            and all(span_contains(listed, v) for v in computed),
        ),
        ("no single conjugator", not report.single_exists),
        ("double witness exists and verifies", double_ok),
    )
    return CheckReport(alg.name, checks)


def verify_remark():
    """Run every check on both golden counterexample instances."""
    return RemarkReport(
        tuple(
            check_counterexample(alg, a, b, span)
            for alg, a, b, span in counterexample_instances()
        )
    )
