"""The three workloads.

Each workload turns ``(seed, op index)`` into one operation's inputs with
its own ``random.Random``, so op i is the same whatever ran before it.  The
mix over algebras and kinds is a fixed cycle; the seed picks coefficients.
``run`` performs one operation, wrapping every call into compalg in a span
named ``<layer>.<function>``, checks the outputs and returns an Outcome.

Workloads also supply ``pool_item``: operands in the workload's own
coefficient shape, for the per-layer probe of every algebra.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import checks
from spans import NO_TRACE
from gen import (
    ALGEBRA_NAMES,
    DEEP,
    GOLDEN,
    INDEFINITE,
    SMALL,
    conjugate_by,
    element_text,
    invertible,
    orthogonal_null_pair,
    sparse_element,
)

from compalg import (
    ALGEBRAS,
    conjugacy_witness,
    counterexample_instances,
    format_element,
    parse_element,
    sandwich,
    single_conjugator_search,
    verify_remark,
)


@dataclass
class Outcome:
    """What one operation did, for the run's tally and mix report."""

    alg: Optional[str]
    error: Optional[str] = None
    branch: Optional[str] = None
    verdict: Optional[str] = None
    nullity: Optional[int] = None
    single: Optional[bool] = None
    # elements the op read or wrote, for scalars.coeff_bits
    elements: tuple = ()
    # the element a negator ran on, for witnesses.negator_scan_rejects
    negated: object = None


@dataclass
class PoolItem:
    """Probe operands for one algebra: a conjugate pair (a, b), two generic
    operands x (invertible) and y, and an orthogonal null pair or None."""

    a: object
    b: object
    x: object
    y: object
    null: Optional[tuple]


def _witness_outcome(alg, a, b, w):
    branch = w.branch.value
    negated = {"DivisionNegate": a, "DiffInvertible": b}.get(branch)
    elements = (a, b, w.p) if w.q is None else (a, b, w.p, w.q)
    return Outcome(
        alg.name,
        error=checks.witness(a, b, w),
        branch=branch,
        single=w.q is None,
        elements=elements,
        negated=negated,
    )


class Workload:
    name = ""
    # mix entries (branch or verdict names) every run must reach
    required = ()
    # timed passes over one op stream (see harness.op_loop); a fixed count,
    # so that every run of a workload filters noise the same way.  Where
    # ops are slow the first pass is held to MIN_OPS ops, and the run then
    # lasts longer than --seconds.
    passes = 24

    def __init__(self, seed):
        self.seed = seed

    def rng(self, i):
        return random.Random(f"{self.seed}:{self.name}:{i}")

    def warmup(self):
        for i in range(1, 4):
            self.run(self.make(-i), NO_TRACE)

    def pool_item(self, rng, alg):
        a = invertible(rng, alg, SMALL, pure=True)
        r = invertible(rng, alg, SMALL)
        b = conjugate_by(r, a)
        null = None
        if alg.name in INDEFINITE:
            null = orthogonal_null_pair(rng, alg, [invertible(rng, alg, SMALL)])
        return PoolItem(a, b, r, b, null)


class WitnessStream(Workload):
    name = "witness-stream"
    required = ("SumInvertible", "DivisionNegate", "DiffInvertible", "NullPair")
    # per algebra: 4 conjugate pairs, 1 negated pair, 1 null pair (H, O:
    # conjugate); this puts p90 inside the dense band of Oc SumInvertible ops
    kinds = ("conj", "neg", "conj", "null", "conj", "conj")
    # the benchmark's self-test swaps in a faulty witness function here
    witness = staticmethod(conjugacy_witness)

    def make(self, i):
        rng = self.rng(i)
        alg = ALGEBRAS[ALGEBRA_NAMES[i % 6]]
        kind = self.kinds[(i // 6) % 6]
        if kind == "null" and alg.name in INDEFINITE:
            # every other cycle moves the pair off the coordinate axes
            scramble = [invertible(rng, alg, SMALL)] if (i // 36) % 2 else []
            a, b = orthogonal_null_pair(rng, alg, scramble)
        else:
            a = invertible(rng, alg, SMALL, pure=True)
            b = -a if kind == "neg" else conjugate_by(invertible(rng, alg, SMALL), a)
        return alg, element_text(a), element_text(b), a, b

    def run(self, inp, tr):
        alg, text_a, text_b, a0, b0 = inp
        name = alg.name
        with tr.span("parsing.parse", name):
            a = parse_element(text_a, alg)
        with tr.span("parsing.parse", name):
            b = parse_element(text_b, alg)
        if a != a0 or b != b0:
            return Outcome(name, error="parse(text(x)) == x")
        with tr.span("witnesses.witness", name):
            w = self.witness(a, b)
        out = _witness_outcome(alg, a, b, w)
        for x in (w.p, w.q):
            if x is None:
                continue
            with tr.span("parsing.format", name):
                text = format_element(x)
            if out.error is None and parse_element(text, alg) != x:
                out.error = "parse(format(p)) == p"
        return out


class CommutantVerdicts(Workload):
    name = "commutant-verdicts"
    required = ("SingleExists", "NoSingleConjugator", "CommutantSingle")
    kinds = ("conj", "random", "conj", "random", "null", "conj", "random", "golden")

    def __init__(self, seed):
        super().__init__(seed)
        self.golden = counterexample_instances()

    def warmup(self):
        if not verify_remark().ok:
            raise RuntimeError("verify_remark() is not ok")
        super().warmup()

    def make(self, i):
        rng = self.rng(i)
        kind = self.kinds[i % 8]
        k = i // 8
        if kind == "golden":
            alg, a, b, _ = self.golden[k % 2]
            return kind, alg, a, b
        if kind == "null":
            # (a, mu a) pairs have a single conjugator; most pairs with
            # disjoint support, like the golden ones, have none
            alg = ALGEBRAS[("Os", "Oc")[k % 2]]
            return (kind, alg) + orthogonal_null_pair(rng, alg, multiple=(k // 2) % 2)
        alg = ALGEBRAS[ALGEBRA_NAMES[k % 6]]
        if kind == "random":
            a = sparse_element(rng, alg, 3, 0.5)
            b = sparse_element(rng, alg, 3, 0.5)
            return kind, alg, a, b
        a = invertible(rng, alg, SMALL, pure=True)
        return kind, alg, a, conjugate_by(invertible(rng, alg, SMALL), a)

    def run(self, inp, tr):
        kind, alg, a, b = inp
        if kind == "null":
            with tr.span("witnesses.witness", alg.name):
                w = conjugacy_witness(a, b, minimal=True)
            return _witness_outcome(alg, a, b, w)
        with tr.span("commutant.search", alg.name):
            report = single_conjugator_search(a, b)
        error = checks.commutant(a, b, report, conjugate=kind == "conj")
        if kind == "golden" and error is None and report.single is not None:
            error = "golden instance has verdict NoSingleConjugator"
        elements = (a, b) + report.nullspace_basis
        if report.single is not None:
            elements += (report.single,)
        return Outcome(
            alg.name,
            error=error,
            verdict=report.verdict,
            nullity=report.nullity,
            elements=elements,
        )


class DeepCoefficients(Workload):
    name = "deep-coefficients"
    required = ("SumInvertible", "SingleExists")
    passes = 3
    min_bits = 256
    algebras = ("O", "Os", "Oc")

    @staticmethod
    def steps(i):
        return 5 + int(26 * ((i * GOLDEN) % 1.0))

    def make(self, i):
        rng = self.rng(i)
        alg = ALGEBRAS[self.algebras[i % 3]]
        a = invertible(rng, alg, DEEP, pure=True)
        rs = [invertible(rng, alg, DEEP) for _ in range(self.steps(i // 3))]
        return alg, a, rs

    def run(self, inp, tr):
        alg, a, rs = inp
        name = alg.name
        prev = b = a
        for r in rs:
            prev = b
            with tr.span("core.sandwich", name):
                b = sandwich(r, b)
        with tr.span("witnesses.witness", name):
            w = conjugacy_witness(a, b)
        with tr.span("commutant.search", name):
            report = single_conjugator_search(a, b)
        out = _witness_outcome(alg, a, b, w)
        out.verdict, out.nullity = report.verdict, report.nullity
        if b.coeffs[0] != 0 or b.norm() != a.norm() or rs[-1] * prev != b * rs[-1]:
            out.error = "chain end is r b' r^-1 with N(b) == N(a)"
        else:
            # a checked single witness is an invertible solution of p a = b p
            out.error = out.error or checks.commutant(a, b, report, conjugate=w.q is None)
        return out

    def pool_item(self, rng, alg):
        a = invertible(rng, alg, DEEP, pure=True)
        rs = [invertible(rng, alg, DEEP) for _ in range(self.steps(rng.randrange(1000)))]
        mid = b = a
        for k, r in enumerate(rs):
            b = conjugate_by(r, b)
            if k == len(rs) // 2:
                mid = b
        null = None
        if alg.name in INDEFINITE:
            null = orthogonal_null_pair(rng, alg, rs[: len(rs) // 2])
        return PoolItem(a, b, b, mid, null)


# -- cli ----------------------------------------------------------------------

CLI_COMMANDS = ("verify-remark", "conjugate-witness", "commutant", "negate-witness", "norm")


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import compalg; "
    "print(time.perf_counter() - t)"
)


class Cli:
    """Fresh-interpreter invocations of ``python -m compalg.cli``."""

    def __init__(self, src):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )

    def argv(self, command, alg=None, texts=()):
        argv = [sys.executable, "-m", "compalg.cli", command, "--json"]
        if alg is not None:
            argv += ["--algebra", alg.name]
        if command == "conjugate-witness":
            argv.append("--minimal")
        return argv + ["--", *texts] if texts else argv

    def call(self, argv):
        """Run one command; its exit code."""
        return subprocess.run(argv, env=self.env, capture_output=True, timeout=120).returncode

    def import_seconds(self, n):
        """``import compalg`` wall time in n fresh interpreters."""
        out = []
        for _ in range(n):
            proc = subprocess.run(
                [sys.executable, "-c", _IMPORT_TIMER],
                env=self.env, capture_output=True, text=True, timeout=120, check=True,
            )
            out.append(float(proc.stdout))
        return out

    def interp_seconds(self, n):
        """Spawn-to-exit wall time of n bare interpreters."""
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], timeout=120, check=True)
            out.append(time.perf_counter() - t0)
        return out


def make(name, seed):
    """The workload called ``name``."""
    for cls in WORKLOADS:
        if cls.name == name:
            return cls(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (WitnessStream, CommutantVerdicts, DeepCoefficients)
