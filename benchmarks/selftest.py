"""The benchmark's own short self-test: ``python3 benchmarks/run.py --selftest``.

It tests the harness, not compalg:

* a short run of every workload, untraced and traced, reports exactly the
  metrics BENCHMARK.json lists, each printed by name with its unit;
* ill-formed witnesses fed through the op loop and the checker all count
  as failed operations, so ``fail_ratio`` cannot read 0 when witnesses
  are wrong.
"""

from __future__ import annotations

import json
import math

from harness import ROOT, measure, op_loop
from spans import NO_TRACE
from workloads import WORKLOADS, WitnessStream

from compalg import ConjugacyWitness, conjugacy_witness

SECONDS = 0.2
# one full cycle of witness-stream's (algebra, kind) mix
MIN_OPS = 24


class IllFormedWitnesses(WitnessStream):
    """witness-stream with a witness function that returns wrong answers."""

    @staticmethod
    def witness(a, b):
        w = conjugacy_witness(a, b)
        if w.q is not None:
            # drop the second sandwich: p alone does not reach b
            return ConjugacyWitness.single(w.p, w.branch)
        if a != b:
            # (p + 1) a = b (p + 1) forces a = b
            return ConjugacyWitness.single(w.p + 1, w.branch)
        return ConjugacyWitness.single(a.algebra.zero(), w.branch)


def metric_problems(name, trace, want):
    result, lines = measure(name, seed=0, seconds=SECONDS, trace=trace, min_ops=MIN_OPS)
    problems = []
    if result["failed"]:
        problems.append(f"{name}: {result['failed']} ops failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for k in sorted(set(got) ^ set(want)):
        problems.append(f"{name} trace {trace}: metric {k} is listed or printed, not both")
    for k, unit in want.items():
        if got.get(k) != unit:
            continue
        value = result["metrics"][k]["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: {k} = {value!r} is not a finite number")
        if not any(line.startswith(f"{k} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{name}: {k} is not printed with unit {unit}")
    return problems


def run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for cls in WORKLOADS:
            problems += metric_problems(cls.name, trace, want)

    tally = op_loop(IllFormedWitnesses(0), NO_TRACE, 0, MIN_OPS)
    if tally.failed != tally.attempted:
        problems.append(
            f"checker passed {tally.attempted - tally.failed} of "
            f"{tally.attempted} ill-formed witnesses"
        )
    for p in problems:
        print(f"FAIL {p}")
    print("benchmark self-test", "failed" if problems else "passed")
    return 1 if problems else 0
