"""Command-line front end.

``_COMMANDS`` declares each subcommand once, in ``compalg -h`` order, and
``build_parser`` registers them in one loop; the element operations share
one handler over ``_OPERATIONS``.  ``main`` is the one dispatcher: it parses
the operands, ``a`` then ``b``, calls ``handler(args, *elements)`` for its
``(payload, lines)`` and prints the JSON or the lines.

Exit codes: 0 success; 1 a demanded verification came back negative (the
payload carries ``"ok": false``: verify-remark, selftest); 2 usage, parse or
precondition errors; 3 internal failure: a consistency check failed, or any
other exception was raised (one ``internal error:`` line).  ``main`` maps
every failure to them in one place: a result whose pipe's reader has gone
keeps its code, any other failed write of it exits 3, and an error line
that stderr cannot take is dropped, the code kept.
"""

from __future__ import annotations

import argparse
import contextlib
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
    "mul": Element.__mul__,
    "conj": Element.conjugate,
    "inv": Element.inverse,
    "norm": Element.norm,
    "inner": Element.inner,
}


def _cmd_operation(args, *operands):
    r = _OPERATIONS[args.command](*operands)
    if isinstance(r, Element):
        return _element_json(r), [format_element(r)]
    alg = operands[0].algebra
    payload = {"algebra": alg.name, "value": _scalar_json(r, alg.complex_field)}
    return payload, [format_scalar(r)]


def _cmd_negate_witness(args, a):
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


def _cmd_conjugate_witness(args, a, b):
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


def _cmd_commutant(args, a, b):
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


_OPERANDS = (
    ("a", "element expression (put -- before a leading '-')"),
    ("b", "element expression"),
)
_ALGEBRA = dict(required=True, choices=sorted(ALGEBRAS), help="algebra name")
_MINIMAL = dict(
    action="store_true", help="return a single witness whenever one exists"
)
_SAMPLES = dict(type=int, default=100, help="samples per property")
_SEED = dict(type=int, default=0, help="generator seed")
# name, element operands, takes --algebra, other flags, handler; then its help
_COMMANDS = (
    ("table", 0, True, {}, _cmd_table, "print the full multiplication table"),
    ("mul", 2, True, {}, _cmd_operation, "multiply two elements"),
    ("conj", 1, True, {}, _cmd_operation, "conjugate an element"),
    ("inv", 1, True, {}, _cmd_operation, "invert an element"),
    ("norm", 1, True, {}, _cmd_operation, "norm of an element"),
    ("inner", 2, True, {}, _cmd_operation, "inner product of two elements"),
    ("negate-witness", 1, True, {}, _cmd_negate_witness,
     "pure invertible p with p a p^-1 = -a, with verification transcript"),
    ("conjugate-witness", 2, True, {"--minimal": _MINIMAL}, _cmd_conjugate_witness,
     "witness conjugating a onto b (single, or double where required)"),
    ("commutant", 2, True, {}, _cmd_commutant,
     "solution space of p a = b p, its norm form and the verdict"),
    ("verify-remark", 0, False, {}, _cmd_verify_remark,
     "verify both built-in no-single-conjugator instances"),
    ("selftest", 0, False, {"--samples": _SAMPLES, "--seed": _SEED}, _cmd_selftest,
     "randomized property suite"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compalg",
        description="Exact arithmetic and conjugacy witnesses for the six "
        "rational composition algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, elements, algebra, flags, handler, help in _COMMANDS:
        p = sub.add_parser(name, help=help)
        if algebra:
            p.add_argument("--algebra", **_ALGEBRA)
        for dest, text in _OPERANDS[:elements]:
            p.add_argument(dest, help=text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, elements=elements)
    return parser


def _print(stream, text):
    """Print ``text``; a failed write raises unless the pipe's reader went."""
    if stream is None:  # its descriptor was closed at start
        return
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        pass


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        texts = [getattr(args, dest) for dest, _ in _OPERANDS[: args.elements]]
        elements = [parse_element(t, ALGEBRAS[args.algebra]) for t in texts]
        payload, lines = args.handler(args, *elements)
        _print(sys.stdout, json.dumps(payload) if args.json else "\n".join(lines))
        return 0 if payload.get("ok", True) else 1
    except ConsistencyError as exc:
        code, line = 3, f"internal consistency failure: {exc}"
    except CompalgError as exc:
        code, line = 2, f"error: {exc}"
    except Exception as exc:  # a fault; KeyboardInterrupt and SystemExit pass
        code, line = 3, f"internal error: {type(exc).__name__}: {exc}"
    with contextlib.suppress(OSError):  # a line stderr cannot take is dropped
        _print(sys.stderr, line)
    return code


def run():
    """The console script: a stream that cannot flush what a failed write
    left is pointed at the null device, so the final flush is quiet."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            with contextlib.suppress(OSError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())  # OSError: no descriptor
    raise SystemExit(code)


if __name__ == "__main__":
    run()
