"""Every CLI golden case, and a runner that needs only the standard library.

``CASES`` maps a case name to its argv and exit code.  The expected stdout is
stored verbatim in ``cli_golden/<case>.out``, and for the error cases the
expected stderr in ``<case>.err``.  A usage error is a case too: argparse
exits 2 with an empty stdout, and no ``.err`` is stored, because its wording
may change between Python releases.  ``run`` calls ``compalg.cli.main`` on a
case in this process, taking the code of a ``SystemExit`` as the exit code,
and returns what it printed; ``test_cli_golden`` checks each case through it
under pytest, and ``test_cli`` keeps only the checks a golden cannot express.
Run as a script,

    PYTHONPATH=src python tests/cli_cases.py

it checks every case on any supported interpreter, pytest or not, prints
each mismatch and exits 1 on any.  Tier-1 runs the script under three hash
seeds, so a fixed seed gives the same bytes on every run.
"""

import difflib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from compalg.cli import main

GOLDEN = Path(__file__).parent / "cli_golden"

OS_NULL_PAIR = ["4e1'+5e2+3e3'-5e4+4e5'+3e7'", "3e2+4e6+5e7'"]
OC_PAIR_RULE = ["e1+e2+ie6+ie7", "-e1-e2-ie6-ie7"]
# s = a + b not in F (a - b): the theorem's dependent case with p = 1 + p0
OS_SCAN_PAIR = ["e2-e7'", "1/2e1'+1/2e4"]
# b = i a: the theorem's dependent case with p = (1 + c) + (c - 1) h
OC_MULTIPLE_PAIR = ["e1+ie2", "ie1-e2"]

CASES = {
    "table-H": (["table", "--algebra", "H"], 0),
    "table-Hs": (["table", "--algebra", "Hs"], 0),
    "table-Os": (["table", "--algebra", "Os"], 0),
    "table-Os-json": (["table", "--algebra", "Os", "--json"], 0),
    "table-O-json": (["table", "--algebra", "O", "--json"], 0),
    "mul-H": (["mul", "--algebra", "H", "e1", "e2"], 0),
    "mul-Oc": (["mul", "--algebra", "Oc", "(1+2i)e1+1/2e2", "e3"], 0),
    "mul-Oc-json": (["mul", "--algebra", "Oc", "--json", "(1+2i)e1+1/2e2", "e3"], 0),
    "mul-Oc-unit-json": (["mul", "--algebra", "Oc", "--json", "ie1", "e2"], 0),
    "mul-Oc-pure-json": (
        ["mul", "--algebra", "Oc", "--json", "--", "(1+2i)e1", "ie2-e3"],
        0,
    ),
    "conj-H": (["conj", "--algebra", "H", "1+e1"], 0),
    "conj-Hc-json": (["conj", "--algebra", "Hc", "--json", "(1-1i)+2ie3"], 0),
    "conj-Hc-pure-json": (
        ["conj", "--algebra", "Hc", "--json", "--", "(1+2i)e1-ie3"],
        0,
    ),
    "inv-H": (["inv", "--algebra", "H", "e2"], 0),
    "inv-O": (["inv", "--algebra", "O", "1+e1-1/2e5"], 0),
    "inv-Hc-json": (["inv", "--algebra", "Hc", "--json", "2+ie1"], 0),
    "inv-Hc-pure-json": (["inv", "--algebra", "Hc", "--json", "--", "ie1+2e2"], 0),
    "norm-Os": (["norm", "--algebra", "Os", OS_NULL_PAIR[0]], 0),
    "norm-Os-json": (["norm", "--algebra", "Os", "--json", "--", OS_NULL_PAIR[0]], 0),
    "norm-Hc": (["norm", "--algebra", "Hc", "(1+1i)e1+1/2e2"], 0),
    "norm-O-json": (["norm", "--algebra", "O", "--json", "1/2-e3+2/3e7"], 0),
    "norm-Oc-json": (["norm", "--algebra", "Oc", "--json", "(1+1i)e1+1/2e2"], 0),
    "norm-Oc-null-json": (["norm", "--algebra", "Oc", "--json", "3e2+4e6+5ie7"], 0),
    "inner-Hs": (["inner", "--algebra", "Hs", "e1'", "e1'"], 0),
    "inner-Hs-json": (["inner", "--algebra", "Hs", "--json", "e1'", "e1'+e2"], 0),
    "inner-Oc": (["inner", "--algebra", "Oc", "(1+1i)e1+e2", "ie1-3e2"], 0),
    "inner-O-json": (["inner", "--algebra", "O", "--json", "1+2e1", "1/3e1-e4"], 0),
    "negate-witness-O": (["negate-witness", "--algebra", "O", "e1"], 0),
    "negate-witness-Hs": (["negate-witness", "--algebra", "Hs", "e2"], 0),
    "negate-witness-Oc": (["negate-witness", "--algebra", "Oc", "e1+ie2+e3"], 0),
    "negate-witness-O-json": (["negate-witness", "--algebra", "O", "--json", "e3"], 0),
    "negate-witness-Os-json": (
        ["negate-witness", "--algebra", "Os", "--json", "e1'+e2"],
        0,
    ),
    "negate-witness-Oc-json": (
        ["negate-witness", "--algebra", "Oc", "--json", "--", "e1+ie2"],
        0,
    ),
    "conjugate-witness-H": (["conjugate-witness", "--algebra", "H", "e1", "e2"], 0),
    "conjugate-witness-H-json": (
        ["conjugate-witness", "--algebra", "H", "--json", "e1", "e2"],
        0,
    ),
    "conjugate-witness-Hc-json": (
        ["conjugate-witness", "--algebra", "Hc", "--json", "--", "ie1+e2", "e1+ie2"],
        0,
    ),
    "conjugate-witness-O-negate": (
        ["conjugate-witness", "--algebra", "O", "--", "e1", "-e1"],
        0,
    ),
    "conjugate-witness-Hs-collapse": (
        ["conjugate-witness", "--algebra", "Hs", "--", "e2", "-e2"],
        0,
    ),
    "conjugate-witness-Os-diff": (
        ["conjugate-witness", "--algebra", "Os", "--", "e2", "-e2"],
        0,
    ),
    "conjugate-witness-Os-null": (
        ["conjugate-witness", "--algebra", "Os", *OS_NULL_PAIR],
        0,
    ),
    "conjugate-witness-Os-null-json": (
        ["conjugate-witness", "--algebra", "Os", "--json", *OS_NULL_PAIR],
        0,
    ),
    "conjugate-witness-Os-minimal": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", "--", "e2", "-e2"],
        0,
    ),
    "conjugate-witness-Os-minimal-json": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", "--json"]
        + ["--", "e2", "-e2"],
        0,
    ),
    "conjugate-witness-Os-minimal-dependent": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", "e1'+e2", "2e1'+2e2"],
        0,
    ),
    "conjugate-witness-Os-minimal-scan": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", "--", *OS_SCAN_PAIR],
        0,
    ),
    "conjugate-witness-Os-minimal-scan-json": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", "--json"]
        + ["--", *OS_SCAN_PAIR],
        0,
    ),
    "conjugate-witness-Oc-minimal": (
        ["conjugate-witness", "--algebra", "Oc", "--minimal", "--", *OC_PAIR_RULE],
        0,
    ),
    "conjugate-witness-Oc-minimal-json": (
        ["conjugate-witness", "--algebra", "Oc", "--minimal", "--json"]
        + ["--", *OC_PAIR_RULE],
        0,
    ),
    "conjugate-witness-Os-minimal-none": (
        ["conjugate-witness", "--algebra", "Os", "--minimal", *OS_NULL_PAIR],
        0,
    ),
    "conjugate-witness-Oc-minimal-multiple": (
        ["conjugate-witness", "--algebra", "Oc", "--minimal", "--", *OC_MULTIPLE_PAIR],
        0,
    ),
    "commutant-H": (["commutant", "--algebra", "H", "e1", "e2"], 0),
    "commutant-H-json": (["commutant", "--algebra", "H", "--json", "e1", "e2"], 0),
    "commutant-H-nullity0": (["commutant", "--algebra", "H", "e1", "2e2"], 0),
    "commutant-Hc-negated-json": (
        ["commutant", "--algebra", "Hc", "--json", "--", "ie1+e2", "-ie1-e2"],
        0,
    ),
    "commutant-O-nullity6": (["commutant", "--algebra", "O", "--", "3e4", "-3e4"], 0),
    "commutant-O-nullity6-json": (
        ["commutant", "--algebra", "O", "--json", "--", "3e4", "-3e4"],
        0,
    ),
    "commutant-Oc-pair": (["commutant", "--algebra", "Oc", "--", *OC_PAIR_RULE], 0),
    "commutant-Oc-pair-json": (
        ["commutant", "--algebra", "Oc", "--json", "--", *OC_PAIR_RULE],
        0,
    ),
    "commutant-Os-none": (["commutant", "--algebra", "Os", *OS_NULL_PAIR], 0),
    "commutant-Os-none-json": (
        ["commutant", "--algebra", "Os", "--json", *OS_NULL_PAIR],
        0,
    ),
    "commutant-Os-dependent": (
        ["commutant", "--algebra", "Os", "--", *OS_SCAN_PAIR],
        0,
    ),
    "commutant-Os-nonpure": (
        ["commutant", "--algebra", "Os", "--", "1+2e1'", "-2e1'-e3'+2e4+e5'+e6+2e7'"],
        0,
    ),
    "commutant-Oc-nonsingular": (
        ["commutant", "--algebra", "Oc", "--", "1+e1", "2ie2"],
        0,
    ),
    "commutant-Oc-nonsingular-json": (
        ["commutant", "--algebra", "Oc", "--json", "--", "1+e1", "2ie2"],
        0,
    ),
    "commutant-Hc-odd-nullity": (
        ["commutant", "--algebra", "Hc", "--", "i+e1", "e1+ie2"],
        0,
    ),
    "verify-remark": (["verify-remark"], 0),
    "verify-remark-json": (["verify-remark", "--json"], 0),
    "selftest": (["selftest", "--samples", "3"], 0),
    "selftest-json": (["selftest", "--samples", "3", "--json"], 0),
    "selftest-seed7": (["selftest", "--samples", "5", "--seed", "7"], 0),
    "selftest-seed3-json": (
        ["selftest", "--samples", "30", "--seed", "3", "--json"],
        0,
    ),
    "error-norm-mismatch": (["conjugate-witness", "--algebra", "H", "e1", "2e2"], 2),
    "error-norm-mismatch-Hc": (
        ["conjugate-witness", "--algebra", "Hc", "e1", "(1+2i)e2"],
        2,
    ),
    "error-prime": (["norm", "--algebra", "Os", "e1"], 2),
    "error-not-invertible": (["inv", "--algebra", "Os", "e4+e5'"], 2),
    "error-parse-character": (["norm", "--algebra", "H", "e1 ? e2"], 2),
    "error-parse-e-digit": (["norm", "--algebra", "H", "1+e"], 2),
    "error-parse-term": (["mul", "--algebra", "H", "e1", "e1++e2"], 2),
    "error-parse-continue": (["norm", "--algebra", "H", "e1 e2"], 2),
    "error-parse-integer": (["norm", "--algebra", "Hc", "(1+i)e1"], 2),
    "error-parse-denominator": (["norm", "--algebra", "H", "1/-2e1"], 2),
    "error-parse-zero-denominator": (["norm", "--algebra", "H", "1/0"], 2),
    "error-parse-paren-sign": (["norm", "--algebra", "Hc", "(1 2i)"], 2),
    "error-parse-imaginary-unit": (["norm", "--algebra", "Hc", "(1+2)"], 2),
    "error-parse-rparen": (["inner", "--algebra", "Hc", "e1", "(1+2i"], 2),
    "error-index": (["norm", "--algebra", "H", "e5"], 2),
    # only b has a lexical error: a is parsed, and refused, first
    "error-first-operand": (["commutant", "--algebra", "H", "e9", "e1 ? e2"], 2),
    "error-imaginary": (["norm", "--algebra", "O", "4i"], 2),
    "error-usage-algebra": (["mul", "--algebra", "Q", "e1", "e2"], 2),
}


def run(case):
    """``(exit code, stdout, stderr)`` of ``compalg.cli.main`` on the case's
    argv, run in this process."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(CASES[case][0])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def expected(case):
    """The case's golden ``(exit code, stdout, stderr)``; stderr is None for
    a case that stores none."""
    err = GOLDEN / f"{case}.err"
    return (
        CASES[case][1],
        (GOLDEN / f"{case}.out").read_text(),
        err.read_text() if err.exists() else None,
    )


def mismatches(case):
    """One message per stream of ``case`` that differs from its golden."""
    got, want = run(case), expected(case)
    if got[0] != want[0]:
        yield f"{case}: exit code {got[0]}, expected {want[0]}"
    for name, text, golden in zip(("stdout", "stderr"), got[1:], want[1:]):
        if golden is not None and text != golden:
            diff = difflib.unified_diff(
                golden.splitlines(), text.splitlines(), "golden", name, lineterm=""
            )
            yield f"{case}: {name} differs\n" + "\n".join(diff)


if __name__ == "__main__":
    failed = 0
    for case in sorted(CASES):
        for message in mismatches(case):
            print(message)
            failed = 1
    sys.exit(failed)
