"""Op loop, tally and metric assembly behind run.py."""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import layers
import workloads
from gen import coeff_bits
from spans import NO_TRACE, Tracer
from workloads import Outcome

from compalg import negator_candidates

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100
SETUP_REPEATS = 10


class Tally:
    """Latencies, failures and the op mix of one op loop."""

    def __init__(self):
        self.latencies = []
        self.failed_ops = set()
        self.errors = []
        self.algebras = Counter()
        self.branches = Counter()
        self.verdicts = Counter()
        self.nullities = []
        self.witnesses = 0
        self.single_witnesses = 0
        self.bits = []
        self.negator_rejects = 0
        # (cpu, summed op seconds) of each pass
        self.passes = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failed_ops)

    def check(self, i, out):
        if out.error is not None:
            self.failed_ops.add(i)
            if len(self.errors) < 3:
                self.errors.append(out.error)

    def add(self, out, tracer):
        """Count op ``out`` (the first run of a new op) into the mix."""
        self.algebras[out.alg or "-"] += 1
        if out.branch is not None:
            self.branches[out.branch] += 1
        if out.single is not None:
            self.witnesses += 1
            self.single_witnesses += out.single
        if out.verdict is not None:
            self.verdicts[out.verdict] += 1
            self.nullities.append(out.nullity)
        if out.elements:
            self.bits.append(max(coeff_bits(x) for x in out.elements))
        if tracer.active and out.negated is not None:
            for p in negator_candidates(out.negated):
                if p.norm() != 0:
                    break
                self.negator_rejects += 1

    def missing(self, wl):
        """Mix entries the workload must reach but this loop never did."""
        reached = set(self.branches) | set(self.verdicts)
        out = [name for name in wl.required if name not in reached]
        min_bits = getattr(wl, "min_bits", 0)
        if min_bits and max(self.bits, default=0) <= min_bits:
            out.append(f"coefficients over {min_bits} bits")
        return out


def timed_op(wl, tracer, i, inp):
    tracer.begin_op(i)
    t0 = perf_counter()
    try:
        with tracer.span("op"):
            out = wl.run(inp, tracer)
    except Exception:
        out = Outcome(None, error=traceback.format_exc(limit=4))
    seconds = perf_counter() - t0
    tracer.begin_op(-1)
    return seconds, out


def op_loop(wl, tracer, seconds, min_ops, passes=1):
    """Time an op stream in ``passes`` passes.

    The first pass runs ops 0, 1, ... for ``seconds / passes`` and at least
    ``min_ops`` ops; the other passes rerun the same ops.  An op's latency
    is its fastest run: other tenants of the machine slow a CPU for
    stretches of seconds, so each pass is pinned to the next CPU this
    process may use, and an op counts as slow only if every CPU was slow
    whenever it ran.  An op fails if any of its runs fails.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tally = Tally()
    try:
        for k in range(passes):
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            total = 0.0
            if k == 0:
                deadline = perf_counter() + seconds / passes
                while tally.attempted < min_ops or perf_counter() < deadline:
                    i = tally.attempted
                    t, out = timed_op(wl, tracer, i, wl.make(i))
                    total += t
                    tally.latencies.append(t)
                    tally.check(i, out)
                    tally.add(out, tracer)
            else:
                # inputs are made again rather than kept, so memory use
                # does not grow with the number of ops a pass fits in
                for i in range(tally.attempted):
                    t, out = timed_op(wl, tracer, i, wl.make(i))
                    total += t
                    tally.latencies[i] = min(tally.latencies[i], t)
                    tally.check(i, out)
            tally.passes.append((cpu, total))
    finally:
        os.sched_setaffinity(0, cpus)
    return tally


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mix_lines(tally):
    n = tally.attempted
    lines = ["mix algebras: " + ", ".join(
        f"{k} {v / n:.3f}" for k, v in sorted(tally.algebras.items()))]
    lines.append("mix branches: " + (", ".join(
        f"{k} {v}" for k, v in sorted(tally.branches.items())) or "none"))
    lines.append("mix verdicts: " + (", ".join(
        f"{k} {v}" for k, v in sorted(tally.verdicts.items())) or "none"))
    if tally.bits:
        lines.append(
            f"mix coeff bits: p50 {statistics.median(tally.bits)}, max {max(tally.bits)}"
        )
    return lines


def end_to_end(wl, cli, seconds, min_ops):
    """Untraced run: the end-to-end metrics."""
    # half the imports before the op loop and half after it, so one slow
    # stretch of the machine does not set the median
    imports = cli.import_seconds(SETUP_REPEATS // 2)
    wl.warmup()
    tally = op_loop(wl, NO_TRACE, seconds, min_ops, wl.passes)
    imports += cli.import_seconds(SETUP_REPEATS - SETUP_REPEATS // 2)
    setup = statistics.median(imports)
    lat = sorted(tally.latencies)
    verified = tally.attempted - tally.failed
    m = {
        "setup_s": (setup, "s"),
        "ops_per_s": (verified / sum(lat), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "ok_ratio": (verified / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        "pass seconds (cpu): "
        + ", ".join(f"{total:.3f} ({cpu})" for cpu, total in tally.passes),
        f"fail_ratio = {tally.failed / tally.attempted} ratio",
    ]
    return [tally], m, notes


def per_layer(wl, cli, seconds, min_ops, seed):
    """Traced run: untraced and traced halves, then the layer probe."""
    wl.warmup()
    plain = op_loop(wl, NO_TRACE, seconds / 2, min_ops // 2)
    tracer = Tracer()
    tally = op_loop(wl, tracer, seconds / 2, min_ops // 2)
    items = layers.probe(wl, tracer, seed)
    layers.probe_cli(tracer, cli, items)
    m = {}
    layers.scalar_metrics(items, m)
    layers.span_metrics(tracer, m)
    layers.tally_metrics(tally, m)
    layers.cli_floor_metrics(cli, m, layers.CLI_REPEATS + 2)
    plain_rate = plain.attempted / sum(plain.latencies)
    traced_rate = tally.attempted / sum(tally.latencies)
    m["bench.trace_overhead"] = (plain_rate / traced_rate, "ratio")
    return [plain, tally], m, [f"traced ops/s {traced_rate} vs untraced {plain_rate}"], tracer


def measure(name, seed, seconds, trace, min_ops=MIN_OPS):
    """One benchmark run; returns (result dict, report lines)."""
    wl = workloads.make(name, seed)
    cli = workloads.Cli(SRC)
    tracer = None
    if trace:
        tallies, m, notes, tracer = per_layer(wl, cli, seconds, min_ops, seed)
    else:
        tallies, m, notes = end_to_end(wl, cli, seconds, min_ops)
    # the last loop is the one whose mix the metrics describe
    missing = tallies[-1].missing(wl)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        f"python {sys.version.split()[0]}  git {git_sha()}",
        "closed loop: 1 caller, 1 process",
        f"ops attempted {attempted}, failed {failed}",
    ]
    lines += mix_lines(tallies[-1]) + notes
    lines += [f"error: {e}" for t in tallies for e in t.errors]
    lines += [f"missing from mix: {x}" for x in missing]
    lines += [f"{k} = {v} {unit}" for k, (v, unit) in m.items()]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in m.items()},
    }
    if tracer is not None:
        path = write_trace(name, seed, lines, tracer)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    return result, lines


def write_trace(name, seed, lines, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump(
            {
                "report": lines,
                "fields": ["op", "name", "algebra", "start", "end", "parent"],
                "spans": tracer.spans,
            },
            f,
        )
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description="compalg benchmark")
    parser.add_argument("--workload", choices=[cls.name for cls in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.run()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0

