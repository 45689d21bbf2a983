"""Per-layer metrics of a traced run.

Layers are the modules of ``src/compalg``: scalars, core, witnesses,
commutant, parsing and cli.  Spans come from the benchmark's own calls into
each module's public functions; nothing inside ``src/`` is instrumented.

``*_us.<algebra>`` is the median duration of every span of that function
on that algebra: the op loop's own calls plus a probe that calls each
function on operands from the workload's generator (``pool_item``) for all
six algebras, so every cell has samples on every workload.
"""

from __future__ import annotations

import operator
import random
import statistics
from collections import defaultdict
from time import perf_counter

from gen import ALGEBRA_NAMES, INDEFINITE, element_text
from workloads import CLI_COMMANDS

from compalg import (
    ALGEBRAS,
    GaussRational,
    conjugacy_witness,
    exact_div,
    format_element,
    negator,
    nullspace,
    parse_element,
    sandwich,
    separator,
    single_conjugator_search,
    twisted_commutant_matrix,
    verify_remark,
    verify_witness,
)

CORE_FUNCTIONS = ("mul", "norm", "inner", "inverse", "sandwich")
WITNESS_FUNCTIONS = ("witness", "verify", "negator")
COMMUTANT_FUNCTIONS = ("matrix", "nullspace", "search")
PARSING_FUNCTIONS = ("parse", "format")
BRANCHES = ("SumInvertible", "DivisionNegate", "DiffInvertible", "NullPair", "CommutantSingle")
SHARE_LAYERS = ("parsing", "core", "witnesses", "commutant", "bench")

PROBE_ITEMS = 5
CLI_REPEATS = 3
SCALAR_REPEATS = 7


def probe(wl, tr, seed):
    """Call every layer function on the workload's operands, in spans."""
    items = {}
    for name in ALGEBRA_NAMES:
        alg = ALGEBRAS[name]
        rng = random.Random(f"{seed}:{wl.name}:probe:{name}")
        items[name] = [wl.pool_item(rng, alg) for _ in range(PROBE_ITEMS)]
        for it in items[name]:
            x, y, a, b = it.x, it.y, it.a, it.b
            with tr.span("core.mul", name):
                x * y
            with tr.span("core.norm", name):
                x.norm()
            with tr.span("core.inner", name):
                x.inner(y)
            with tr.span("core.inverse", name):
                x.inverse()
            with tr.span("core.sandwich", name):
                sandwich(x, y)
            with tr.span("witnesses.witness", name):
                w = conjugacy_witness(a, b)
            with tr.span("witnesses.verify", name):
                verify_witness(a, b, w)
            with tr.span("witnesses.negator", name):
                negator(a)
            if it.null is not None:
                with tr.span("witnesses.separator", name):
                    separator(*it.null)
            with tr.span("commutant.matrix", name):
                m = twisted_commutant_matrix(a, b)
            with tr.span("commutant.nullspace", name):
                nullspace(m)
            with tr.span("commutant.search", name):
                single_conjugator_search(a, b)
            with tr.span("parsing.format", name):
                text = format_element(b)
            with tr.span("parsing.parse", name):
                parse_element(text, alg)
    for _ in range(CLI_REPEATS + 2):
        with tr.span("commutant.verify_remark"):
            verify_remark()
    return items


def probe_cli(tr, cli, items):
    """Each CLI command, cold, on the workload's operands."""
    for k in range(CLI_REPEATS):
        for command in CLI_COMMANDS:
            if command == "verify-remark":
                argv = cli.argv(command)
            else:
                it = items[ALGEBRA_NAMES[k % 6]][k % PROBE_ITEMS]
                elems = {"norm": (it.x,), "negate-witness": (it.a,)}.get(command, (it.a, it.b))
                argv = cli.argv(command, it.a.algebra, [element_text(e) for e in elems])
            with tr.span(f"cli.{command}"):
                code = cli.call(argv)
            if code != 0:
                raise RuntimeError(f"cli probe {command} exited {code}")


def _scalar_pairs(items):
    q, g = [], []
    for its in items.values():
        for it in its:
            for c in it.x.coeffs + it.y.coeffs + it.b.coeffs:
                if isinstance(c, GaussRational):
                    if c:
                        g.append(c)
                    q.extend(part for part in (c.re, c.im) if part)
                elif c:
                    q.append(c)
    return {"q": list(zip(q, q[1:])), "g": list(zip(g, g[1:]))}


def scalar_metrics(items, m):
    """scalars.{add,mul,div}_us.{q,g}: per-operation cost on the workload's
    own coefficients (median over repeated passes)."""
    ops = {"add": operator.add, "mul": operator.mul, "div": exact_div}
    for kind, pairs in _scalar_pairs(items).items():
        for op, fn in ops.items():
            passes = []
            for _ in range(SCALAR_REPEATS):
                t0 = perf_counter()
                for x, y in pairs:
                    fn(x, y)
                passes.append((perf_counter() - t0) / len(pairs))
            m[f"scalars.{op}_us.{kind}"] = (1e6 * statistics.median(passes), "us")


def span_metrics(tr, m):
    """Medians of probe and op spans, and each layer's share of op time."""
    by_key = defaultdict(list)
    for s in tr.spans:
        by_key[s[1], s[2]].append(s[4] - s[3])

    def median_us(name, alg=None):
        return 1e6 * statistics.median(by_key[name, alg])

    cells = [("core", f, ALGEBRA_NAMES) for f in CORE_FUNCTIONS]
    cells += [("witnesses", f, ALGEBRA_NAMES) for f in WITNESS_FUNCTIONS]
    cells += [("witnesses", "separator", INDEFINITE)]
    cells += [("commutant", f, ALGEBRA_NAMES) for f in COMMUTANT_FUNCTIONS]
    cells += [("parsing", f, ALGEBRA_NAMES) for f in PARSING_FUNCTIONS]
    for layer, fn, algs in cells:
        for alg in algs:
            m[f"{layer}.{fn}_us.{alg}"] = (median_us(f"{layer}.{fn}", alg), "us")
    m["commutant.verify_remark_ms"] = (median_us("commutant.verify_remark") / 1e3, "ms")
    for command in CLI_COMMANDS:
        durations = [d for (n, _), ds in by_key.items() if n == f"cli.{command}" for d in ds]
        m[f"cli.cold_ms.{command}"] = (1e3 * statistics.median(durations), "ms")

    op_total = 0.0
    layer_total = dict.fromkeys(SHARE_LAYERS, 0.0)
    op_index = {i for i, s in enumerate(tr.spans) if s[1] == "op"}
    for i in op_index:
        s = tr.spans[i]
        op_total += s[4] - s[3]
    for s in tr.spans:
        if s[5] in op_index:
            layer_total[s[1].split(".")[0]] += s[4] - s[3]
    layer_total["bench"] = op_total - sum(layer_total.values())
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = (layer_total[layer] / op_total, "ratio")


def tally_metrics(tally, m):
    """Mix counts and ratios of the traced op loop."""
    for branch in BRANCHES:
        m[f"witnesses.branch.{branch}"] = (tally.branches.get(branch, 0), "count")
    m["witnesses.negator_scan_rejects"] = (tally.negator_rejects, "count")
    m["witnesses.single_ratio"] = (_ratio(tally.single_witnesses, tally.witnesses), "ratio")
    searches = sum(tally.verdicts.values())
    m["commutant.nullity_mean"] = (_ratio(sum(tally.nullities), len(tally.nullities)), "count")
    m["commutant.single_ratio"] = (_ratio(tally.verdicts.get("SingleExists", 0), searches), "ratio")
    m["scalars.coeff_bits.p50"] = (statistics.median(tally.bits), "bits")
    m["scalars.coeff_bits.max"] = (max(tally.bits), "bits")


def cli_floor_metrics(cli, m, repeats):
    m["cli.import_ms"] = (1e3 * statistics.median(cli.import_seconds(repeats)), "ms")
    m["cli.interp_ms"] = (1e3 * statistics.median(cli.interp_seconds(repeats)), "ms")


def _ratio(num, den):
    return num / den if den else 0.0
