"""Randomized property suite behind the ``selftest`` CLI command.

Each property runs over every applicable algebra with its own
deterministically derived generator, so a fixed seed produces bit-identical
output on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .commutant import single_conjugator_search, span_contains
from .core import ALGEBRAS, sandwich
from .errors import CompalgError
from .parsing import format_element, parse_element
from .sampling import (
    random_element,
    random_invertible,
    random_orthogonal_null_pair,
    random_pure_nonzero,
)
from .witnesses import (
    collapse_quaternion,
    conjugacy_witness,
    negator,
    verify_negator,
    verify_witness,
)


def _prop_composition(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        if (a * b).norm() != a.norm() * b.norm():
            return f"sample {i}: norm(ab) != norm(a)norm(b)"
    return None


def _prop_conjugation(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        if (a * b).conjugate() != b.conjugate() * a.conjugate():
            return f"sample {i}: conj(ab) != conj(b)conj(a)"
        if a * a.conjugate() != a.norm() * alg.one():
            return f"sample {i}: a conj(a) != norm(a)"
        x = a.pure_part()
        if x * x != -x.norm() * alg.one():
            return f"sample {i}: pure square identity fails"
    return None


def _prop_alternative(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        if (a * a) * b != a * (a * b) or (a * b) * b != a * (b * b):
            return f"sample {i}: alternativity fails"
    return None


def _prop_associative(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        c = random_element(rng, alg)
        if (a * b) * c != a * (b * c):
            return f"sample {i}: associativity fails"
    return None


def _prop_sandwich(rng, alg, n):
    for i in range(n):
        p = random_invertible(rng, alg)
        a = random_element(rng, alg)
        if (p * a) * p.inverse() != p * (a * p.inverse()):
            return f"sample {i}: sandwich not well defined"
    return None


def _prop_negator(rng, alg, n):
    for i in range(n):
        a = random_pure_nonzero(rng, alg)
        if not verify_negator(a, negator(a)).ok:
            return f"sample {i}: negator postcondition fails"
    return None


def _prop_witness(rng, alg, n):
    for i in range(n):
        a = random_pure_nonzero(rng, alg)
        r = random_invertible(rng, alg)
        b = sandwich(r, a)
        w = conjugacy_witness(a, b)
        if not verify_witness(a, b, w).ok:
            return f"sample {i}: witness fails verification"
        if alg.dim == 4:
            single = collapse_quaternion(w)
            if not single.is_single or not verify_witness(a, b, single).ok:
                return f"sample {i}: collapse fails"
    return None


def _prop_null_witness(rng, alg, n):
    for i in range(n):
        a, b = random_orthogonal_null_pair(rng, alg)
        w = conjugacy_witness(a, b)
        if not verify_witness(a, b, w).ok:
            return f"sample {i}: null-pair witness fails"
    return None


def _prop_commutant(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg, density=0.5, max_abs=3)
        b = random_element(rng, alg, density=0.5, max_abs=3)
        report = single_conjugator_search(a, b)
        for v in report.nullspace_basis:
            if v * a != b * v:
                return f"sample {i}: null-space vector fails v a = b v"
        if report.single is not None:
            p = report.single
            if p.norm() == 0 or not span_contains(
                [v.coeffs for v in report.nullspace_basis], p.coeffs
            ):
                return f"sample {i}: found single is not a valid solution"
    return None


def _prop_parse_roundtrip(rng, alg, n):
    for i in range(n):
        a = random_element(rng, alg, frac_prob=0.25)
        if parse_element(format_element(a), alg) != a:
            return f"sample {i}: parse/format round trip fails"
    return None


def _all(alg):
    return True


def _octonion(alg):
    return alg.dim == 8


def _quaternion(alg):
    return alg.dim == 4


def _indefinite(alg):
    return not alg.is_division


PROPERTIES = (
    ("composition-law", _all, _prop_composition),
    ("conjugation-and-norms", _all, _prop_conjugation),
    ("alternativity", _octonion, _prop_alternative),
    ("associativity", _quaternion, _prop_associative),
    ("sandwich-well-defined", _all, _prop_sandwich),
    ("negator", _all, _prop_negator),
    ("conjugacy-witness", _all, _prop_witness),
    ("null-pair-witness", _indefinite, _prop_null_witness),
    ("commutant-solver", _all, _prop_commutant),
    ("parse-roundtrip", _all, _prop_parse_roundtrip),
)


@dataclass(frozen=True)
class SelftestRecord:
    name: str
    algebra: str
    samples: int
    failure: str


@dataclass(frozen=True)
class SelftestResult:
    records: tuple

    @property
    def ok(self):
        return all(r.failure == "" for r in self.records)


def run_selftest(samples=100, seed=0):
    """Run every property over every applicable algebra; a CompalgError
    raised inside one property becomes that record's failure text."""
    records = []
    for name, applies, fn in PROPERTIES:
        for alg_name, alg in ALGEBRAS.items():
            if not applies(alg):
                continue
            # string seeding is platform-stable and independent of hash
            # randomization
            rng = random.Random(f"{seed}:{name}:{alg_name}")
            try:
                failure = fn(rng, alg, samples)
            except CompalgError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            records.append(SelftestRecord(name, alg_name, samples, failure or ""))
    return SelftestResult(tuple(records))
