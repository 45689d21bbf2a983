"""Typed errors on every path: no ``assert`` in the library, the CLI's
exit-code contract on hostile input, and errors contained where a report
is the promised output."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import compalg
import compalg.commutant
import compalg.selftest
import compalg.witnesses
from compalg import (
    ALGEBRAS,
    Algebra,
    AlgebraMismatch,
    CheckReport,
    ConsistencyError,
    Element,
    H,
    O,
    Os,
    ParseError,
    collapse_quaternion,
    conjugacy_witness,
    counterexample_instances,
    negator,
    parse_element,
    sandwich,
    separator,
    single_conjugator_search,
    twisted_commutant_matrix,
    verify_negator,
    verify_remark,
    verify_witness,
)
from compalg.cli import main
from compalg.core import _table_product
from compalg.sampling import random_orthogonal_null_pair

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


@pytest.mark.parametrize("solve", [single_conjugator_search, twisted_commutant_matrix])
@pytest.mark.parametrize("a,b", [(H.basis(1), 3), (3, H.basis(1))])
def test_commutant_rejects_non_elements(solve, a, b):
    with pytest.raises(AlgebraMismatch):
        solve(a, b)


WITNESS = conjugacy_witness(H.basis(1), H.basis(2))


@pytest.mark.parametrize(
    "fn,args",
    [
        (negator, (3,)),
        (separator, (H.basis(1), 3)),
        (conjugacy_witness, (3, H.basis(1))),
        (verify_negator, (H.basis(1), 3)),
        (verify_witness, (3, H.basis(2), WITNESS)),
        (verify_witness, (H.basis(1), 3, WITNESS)),
    ],
)
def test_witnesses_reject_non_elements(fn, args):
    with pytest.raises(AlgebraMismatch, match="expected two elements"):
        fn(*args)


@pytest.mark.parametrize(
    "fn,args", [(verify_witness, (H.basis(1), H.basis(2), 3)), (collapse_quaternion, (3,))]
)
def test_witness_checks_reject_non_witnesses(fn, args):
    with pytest.raises(AlgebraMismatch, match="expected a witness, got int"):
        fn(*args)


@pytest.mark.parametrize("fn", [separator, conjugacy_witness, verify_negator])
def test_witnesses_reject_mixed_algebras(fn):
    with pytest.raises(AlgebraMismatch, match="mixed algebras: H and O"):
        fn(H.basis(1), O.basis(1))


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


@pytest.mark.parametrize("k", [1, 3])
def test_selftest_records_a_failing_sample(monkeypatch, capsys, k):
    # a check that comes back negative on the k-th sample, without raising
    real, calls = compalg.selftest.verify_negator, []

    def verify(a, p):
        calls.append(None)
        if len(calls) == k:
            return CheckReport(a.algebra.name, (("p a = -a p", False),))
        return real(a, p)

    monkeypatch.setattr(compalg.selftest, "verify_negator", verify)
    failure = f"sample {k - 1}: negator postcondition fails"
    result = compalg.selftest.run_selftest(samples=4)
    failed = [r for r in result.records if r.failure]
    assert [(r.name, r.algebra, r.failure) for r in failed] == [
        ("negator", "H", failure)
    ]
    # H stops at its failing sample; the other five algebras run all four
    assert len(calls) == k + 5 * 4

    calls.clear()
    assert main(["selftest", "--samples", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL negator [H] (4 samples): {failure}"
    ]
    assert lines[-1] == "PROPERTY FAILURES"


def test_commutant_check_catches_a_wrong_conjugator(monkeypatch, capsys):
    # the search's always-on check: a single that fails to conjugate a onto b
    a, b = H.basis(1), H.basis(2)
    assert single_conjugator_search(a, b).single_exists
    # the basis comes from the closed form, not the elimination
    closed_form = compalg.commutant._closed_form
    answered = []

    def spy(*args):
        basis = closed_form(*args)
        answered.append(basis is not None)
        return basis

    monkeypatch.setattr(compalg.commutant, "_closed_form", spy)
    monkeypatch.setattr(compalg.commutant, "sandwich", lambda p, x: x)
    with pytest.raises(ConsistencyError, match="fails to conjugate a onto b"):
        single_conjugator_search(a, b)

    assert main(["commutant", "--algebra", "H", "e1", "e2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure:")
    assert "Traceback" not in err
    assert answered == [True, True]


@pytest.mark.parametrize("alg", [H, O], ids=lambda alg: alg.name)
def test_sandwich_recheck_catches_a_corrupted_table(monkeypatch, capsys, alg):
    # sandwich's always-on check: the two association orders of p a conj(p)
    # disagree under a table with one sign flipped
    good = alg.mul
    table = [list(row) for row in alg.table]
    k, s = table[1][2]
    table[1][2] = (k, -s)
    bad = _table_product(tuple(map(tuple, table)))
    assert bad is not good
    p, a = alg.element([1, 2, 3] + [0] * (alg.dim - 3)), alg.basis(1)
    with monkeypatch.context() as m:
        m.setattr(alg, "mul", bad)
        with pytest.raises(ConsistencyError, match="not well defined"):
            sandwich(p, a)
        assert main(["conjugate-witness", "--algebra", alg.name, "e1", "e2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal consistency failure: sandwich product is not well defined\n"
    # the corrupted table is its own cache entry: the good kernel is intact
    assert alg.mul is good is _table_product(alg.table)
    assert alg.basis(1) * alg.basis(2) == alg.basis(3)
    assert sandwich(p, a) == p * a * p.inverse()


def _failing_report(*args):
    return CheckReport("injected", (("injected", False),))


def _os_null_pair():
    return random_orthogonal_null_pair(random.Random("live-checks"), Os)


def _negator_check_fails(m):
    m.setattr(compalg.witnesses, "verify_negator", _failing_report)
    return negator, (H.basis(1),), "negator candidate -e2 fails for e1"


def _no_negator_candidate(m):
    m.setattr(compalg.witnesses, "negator_candidates", lambda a: [a.algebra.zero()])
    return negator, (H.basis(1),), "no negator candidate has nonzero norm"


def _no_positive_index(m):
    m.setattr(Os, "metric", (1,) + (-1,) * 7)
    return separator, _os_null_pair(), "separator index search failed"


def _separator_sandwich_fails(m):
    a, b = _os_null_pair()
    m.setattr(compalg.witnesses, "sandwich", lambda p, x: -b)
    return separator, (a, b), "separator .* fails for"


def _definite_norm_claimed(m):
    m.setattr(Algebra, "is_division", property(lambda self: True))
    _, a, b, _ = counterexample_instances()[0]
    return conjugacy_witness, (a, b), "definite norm form must force b = -a"


def _witness_check_fails(m):
    m.setattr(compalg.witnesses, "verify_witness", _failing_report)
    return conjugacy_witness, (H.basis(1), H.basis(2)), "witness failed checks"


@pytest.mark.parametrize(
    "fault",
    [
        _negator_check_fails,
        _no_negator_candidate,
        _no_positive_index,
        _separator_sandwich_fails,
        _definite_norm_claimed,
        _witness_check_fails,
    ],
    ids=lambda fault: fault.__name__.strip("_"),
)
def test_witness_checks_catch_an_injected_fault(monkeypatch, capsys, fault):
    # each always-on check of the witness constructions, reached by one
    # fault, in the library and through the CLI
    with monkeypatch.context() as m:
        fn, args, message = fault(m)
        with pytest.raises(ConsistencyError, match=message):
            fn(*args)
        command = "negate-witness" if fn is negator else "conjugate-witness"
        argv = [command, "--algebra", args[0].algebra.name, *map(str, args)]
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: ")
    assert "Traceback" not in err
    fn(*args)


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
