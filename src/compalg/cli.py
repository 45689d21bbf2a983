"""Command-line front end.

The element operations (mul, conj, inv, norm, inner) are one table of
``Element`` methods served by one handler; every other command has its own.
Handlers return ``(payload, lines)``; ``main`` prints the JSON or the lines.

Exit codes: 0 success; 1 a demanded verification came back negative (the
payload carries ``"ok": false``: verify-remark, selftest); 2 usage, parse or
precondition errors; 3 internal failure: a consistency check failed, or any
other exception was raised (one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .commutant import single_conjugator_search
from .core import ALGEBRAS, Element, integer_form
from .errors import CompalgError, ConsistencyError
from .parsing import _rational_text, format_element, format_scalar, parse_element
from .selftest import run_selftest, verify_remark
from .witnesses import (
    collapse_quaternion,
    conjugacy_witness,
    negator,
    verify_negator,
    verify_witness,
)


def _scalar_json(x, complex_field):
    den, ((re,), im) = integer_form((x,))
    text = _rational_text(re, den)
    return [text, _rational_text(im[0] if im else 0, den)] if complex_field else text


def _element_json(e):
    (re, im), den = e.num, e.den
    text = [_rational_text(x, den) for x in re]
    if e.algebra.complex_field:
        text = [[t, _rational_text(y, den)] for t, y in zip(text, im or [0] * len(re))]
    return {"algebra": e.algebra.name, "coeffs": text}


def _witness_json(w, verified):
    out = {
        "kind": "single" if w.is_single else "double",
        "p": _element_json(w.p),
        "branch": w.branch.value,
        "verified": verified,
    }
    if not w.is_single:
        out["q"] = _element_json(w.q)
    return out


def _checks_json(report):
    return [{"name": n, "ok": ok} for n, ok in report.checks]


def _check_lines(report, indent=""):
    return [f"{indent}{n}: {'ok' if ok else 'FAILED'}" for n, ok in report.checks]


def _parse(args, text):
    return parse_element(text, ALGEBRAS[args.algebra])


def _cmd_table(args):
    alg = ALGEBRAS[args.algebra]
    labels = alg.labels()
    payload = {
        "algebra": alg.name,
        "dim": alg.dim,
        "labels": list(labels),
        "table": [[list(entry) for entry in row] for row in alg.table],
    }
    cells = [
        [labels[k] if s == 1 else f"-{labels[k]}" for k, s in row] for row in alg.table
    ]
    width = max(len(c) for row in cells for c in row) + 2
    rows = [("", labels), *zip(labels, cells)]
    lines = [h.ljust(4) + "".join(c.rjust(width) for c in row) for h, row in rows]
    return payload, lines


_OPERATIONS = {
    "mul": (Element.__mul__, 2, "multiply two elements"),
    "conj": (Element.conjugate, 1, "conjugate an element"),
    "inv": (Element.inverse, 1, "invert an element"),
    "norm": (Element.norm, 1, "norm of an element"),
    "inner": (Element.inner, 2, "inner product of two elements"),
}


def _cmd_operation(args):
    method, count, _ = _OPERATIONS[args.command]
    operands = [_parse(args, getattr(args, k)) for k in "ab"[:count]]
    r = method(*operands)
    if isinstance(r, Element):
        return _element_json(r), [format_element(r)]
    alg = operands[0].algebra
    payload = {"algebra": alg.name, "value": _scalar_json(r, alg.complex_field)}
    return payload, [format_scalar(r)]


def _cmd_negate_witness(args):
    a = _parse(args, args.a)
    p = negator(a)
    report = verify_negator(a, p)
    payload = {
        "a": _element_json(a),
        "p": _element_json(p),
        "checks": _checks_json(report),
        "verified": report.ok,
    }
    lines = [
        f"a = {format_element(a)}",
        f"p = {format_element(p)}",
        f"norm(p) = {format_scalar(p.norm())}",
    ]
    return payload, lines + _check_lines(report)


def _cmd_conjugate_witness(args):
    a, b = _parse(args, args.a), _parse(args, args.b)
    w = conjugacy_witness(a, b, minimal=args.minimal)
    if a.algebra.dim == 4:
        w = collapse_quaternion(w)
    report = verify_witness(a, b, w)  # the collapse is checked here only
    if not report.ok:
        raise ConsistencyError(f"witness failed checks: {report.failures}")
    lines = [
        f"kind: {'single' if w.is_single else 'double'}",
        f"branch: {w.branch.value}",
        f"p = {format_element(w.p)}",
    ]
    if not w.is_single:
        lines.append(f"q = {format_element(w.q)}")
    return _witness_json(w, report.ok), lines + _check_lines(report)


def _cmd_commutant(args):
    a, b = _parse(args, args.a), _parse(args, args.b)
    report = single_conjugator_search(a, b)
    gram = report.norm_gram
    payload = {
        "algebra": a.algebra.name,
        "a": _element_json(a),
        "b": _element_json(b),
        "nullity": report.nullity,
        "basis": [_element_json(v) for v in report.nullspace_basis],
        "gram": [
            [_scalar_json(g, a.algebra.complex_field) for g in row]
            for row in gram
        ],
        "verdict": report.verdict,
        "single": _element_json(report.single) if report.single else None,
    }
    lines = [f"solution space of p a = b p has dimension {report.nullity}"]
    for i, v in enumerate(report.nullspace_basis):
        lines.append(f"v{i + 1} = {format_element(v)}")
    if report.nullity:
        lines.append("norm Gram matrix:")
        for row in gram:
            lines.append("  [" + ", ".join(format_scalar(g) for g in row) + "]")
    lines.append(
        f"verdict: single conjugator exists, p = {format_element(report.single)}"
        if report.single_exists
        else "verdict: no single conjugator (norm form vanishes on the solution space)"
    )
    return payload, lines


def _cmd_verify_remark(args):
    report = verify_remark()
    payload = {
        "instances": [
            {"algebra": inst.algebra_name, "checks": _checks_json(inst), "ok": inst.ok}
            for inst in report.instances
        ],
        "ok": report.ok,
    }
    lines = []
    for inst in report.instances:
        lines += [f"{inst.algebra_name}:"] + _check_lines(inst, "  ")
    lines.append("all checks passed" if report.ok else "SOME CHECKS FAILED")
    return payload, lines


def _cmd_selftest(args):
    result = run_selftest(samples=args.samples, seed=args.seed)
    payload = {
        "records": [
            {
                "property": r.name,
                "algebra": r.algebra,
                "samples": r.samples,
                "ok": r.failure == "",
                "failure": r.failure,
            }
            for r in result.records
        ],
        "ok": result.ok,
    }
    lines = []
    for r in result.records:
        status = "ok  " if r.failure == "" else "FAIL"
        line = f"{status} {r.name} [{r.algebra}] ({r.samples} samples)"
        lines.append(f"{line}: {r.failure}" if r.failure else line)
    lines.append("all properties hold" if result.ok else "PROPERTY FAILURES")
    return payload, lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compalg",
        description="Exact arithmetic and conjugacy witnesses for the six "
        "rational composition algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, elements=0, algebra=True):
        p = sub.add_parser(name, help=help)
        if algebra:
            p.add_argument(
                "--algebra", required=True, choices=sorted(ALGEBRAS), help="algebra name"
            )
        if elements >= 1:
            p.add_argument("a", help="element expression (put -- before a leading '-')")
        if elements >= 2:
            p.add_argument("b", help="element expression")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    command("table", _cmd_table, "print the full multiplication table")
    for name, (_, count, help) in _OPERATIONS.items():
        command(name, _cmd_operation, help, elements=count)
    command(
        "negate-witness",
        _cmd_negate_witness,
        "pure invertible p with p a p^-1 = -a, with verification transcript",
        elements=1,
    )
    cw = command(
        "conjugate-witness",
        _cmd_conjugate_witness,
        "witness conjugating a onto b (single, or double where required)",
        elements=2,
    )
    cw.add_argument(
        "--minimal",
        action="store_true",
        help="return a single witness whenever one exists",
    )
    command(
        "commutant",
        _cmd_commutant,
        "solution space of p a = b p, its norm form and the verdict",
        elements=2,
    )
    command(
        "verify-remark",
        _cmd_verify_remark,
        "verify both built-in no-single-conjugator instances",
        algebra=False,
    )
    st = command("selftest", _cmd_selftest, "randomized property suite", algebra=False)
    st.add_argument("--samples", type=int, default=100, help="samples per property")
    st.add_argument("--seed", type=int, default=0, help="generator seed")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.fn(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except CompalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault; KeyboardInterrupt and SystemExit pass
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(json.dumps(payload) if args.json else "\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader left: quiet the interpreter's final flush, keep the code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if payload.get("ok", True) else 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
