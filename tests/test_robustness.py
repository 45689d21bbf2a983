"""Typed errors on every path: no ``assert`` in the library, the CLI's
exit-code contract on hostile input, and errors contained where a report
is the promised output."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import compalg
import compalg.commutant
import compalg.selftest
from compalg import (
    ALGEBRAS,
    AlgebraMismatch,
    ConsistencyError,
    Element,
    H,
    ParseError,
    parse_element,
    sandwich,
    verify_remark,
)
from compalg.cli import main

PACKAGE = Path(compalg.__file__).parent


def run_cli(*argv, optimize=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "compalg.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


@pytest.mark.parametrize(
    "argv", [("verify-remark",), ("selftest", "--samples", "5")], ids=" ".join
)
def test_checks_survive_optimized_mode(argv):
    proc = run_cli(*argv, optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


HOSTILE_LITERALS = {
    "superscript-digit": "2²e1",
    "superscript-index": "e²",
    "arabic-indic-digit": "٣e1",
    "arabic-indic-scalar": "e1+١",
    "long-numerator": "1" * 5000 + "e1",
    "long-denominator": "1/" + "7" * 5000,
}


@pytest.mark.parametrize("text", HOSTILE_LITERALS.values(), ids=HOSTILE_LITERALS.keys())
def test_hostile_literals_exit_2_without_traceback(text):
    proc = run_cli("norm", "--algebra", "H", "--", text)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_selftest_without_samples_exits_2(samples):
    proc = run_cli("selftest", "--samples", samples)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


GRAMMAR = "0123456789ei'+-/() " + "²٣١"


@settings(max_examples=400, deadline=None)
@given(
    text=st.text(alphabet=GRAMMAR, max_size=24),
    name=st.sampled_from(sorted(ALGEBRAS)),
)
def test_parse_returns_element_or_parse_error(text, name):
    try:
        result = parse_element(text, ALGEBRAS[name])
    except ParseError:
        return
    assert isinstance(result, Element)


@pytest.mark.parametrize("text", ["٣e1", "2²e1", "e²"])
def test_non_ascii_digits_are_rejected(text):
    with pytest.raises(ParseError):
        parse_element(text, H)


@pytest.mark.parametrize("p,a", [(H.basis(1), 1), (1, H.basis(1))])
def test_sandwich_rejects_non_elements(p, a):
    with pytest.raises(AlgebraMismatch):
        sandwich(p, a)


def test_selftest_records_a_raising_property(monkeypatch, capsys):
    baseline = compalg.selftest.run_selftest(samples=2)

    def broken(a):
        raise ConsistencyError("injected")

    monkeypatch.setattr(compalg.selftest, "negator", broken)
    result = compalg.selftest.run_selftest(samples=2)
    assert [(r.name, r.algebra) for r in result.records] == [
        (r.name, r.algebra) for r in baseline.records
    ]
    failed = [r for r in result.records if r.failure]
    assert {r.name for r in failed} == {"negator"}
    assert len(failed) == len(ALGEBRAS)
    assert all(r.failure == "ConsistencyError: injected" for r in failed)

    assert main(["selftest", "--samples", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == len(baseline.records) + 1
    assert "PROPERTY FAILURES" in out


def test_counterexample_check_lets_bugs_propagate(monkeypatch):
    def buggy(a, b):
        raise RuntimeError("bug")

    monkeypatch.setattr(compalg.commutant, "conjugacy_witness", buggy)
    with pytest.raises(RuntimeError):
        verify_remark()


def test_counterexample_check_reports_library_errors(monkeypatch):
    def refuses(a, b):
        raise ConsistencyError("no witness")

    monkeypatch.setattr(compalg.commutant, "conjugacy_witness", refuses)
    report = verify_remark()
    assert not report.ok
    assert all(
        inst.failures == ("double witness exists and verifies",)
        for inst in report.instances
    )
