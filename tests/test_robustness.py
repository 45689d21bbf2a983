"""Typed errors on every path: no ``assert`` in the library, the CLI's
exit-code contract on hostile input, and errors contained where a report
is the promised output."""

import ast
import errno
import importlib
import io
import os
from fractions import Fraction
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_cases
import compalg
import compalg.cli
import compalg.commutant
import compalg.selftest
import compalg.witnesses
from compalg.witnesses import SingleCase
from compalg import (
    ALGEBRAS,
    Algebra,
    AlgebraMismatch,
    Branch,
    CheckReport,
    CommutantReport,
    ConjugacyWitness,
    ConsistencyError,
    Element,
    GaussRational,
    H,
    Hc,
    Hs,
    O,
    Oc,
    Os,
    ParseError,
    PreconditionViolation,
    collapse_quaternion,
    conjugacy_witness,
    counterexample_instances,
    exact_div,
    format_element,
    format_scalar,
    negator,
    negator_candidates,
    nullspace,
    parse_element,
    sandwich,
    separator,
    single_conjugator_search,
    span_contains,
    twisted_commutant_matrix,
    verify_negator,
    verify_remark,
    verify_witness,
)
from compalg.cli import main
from compalg.core import (
    _dot_terms,
    _gaussian_kernel,
    _gaussian_kernels,
    _kernel,
    _terms,
)
from compalg.sampling import random_orthogonal_null_pair
from compalg.selftest import RemarkReport, SelftestRecord, SelftestResult

PACKAGE = Path(compalg.__file__).parent


def run_cli(
    *argv, optimize=False, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen
):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as a console script runs
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "compalg.cli", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=env,
        timeout=120,
        **popen,
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


def _top_level_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded_names(node):
    """Every name a statement reads: by name, by attribute or by import."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_library_has_no_dead_helpers():
    """Every module-level function, class and constant of the package is
    public (in ``compalg.__all__``) or read somewhere in the package
    outside its own definition; dunders are exempt."""
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    loads = [(node, _loaded_names(node)) for _, node in statements]
    dead = [
        f"{module}:{name}"
        for module, node in statements
        for name in _top_level_names(node)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in compalg.__all__
        and not any(name in used for other, used in loads if other is not node)
    ]
    assert dead == []


# The public functions no CLI command reaches, each with the caller outside
# the package that keeps it public.
KEPT = {
    "exact_div": "README and the oracles of tests/helpers.py",
    "nullspace": "benchmarks/layers.py",
    "separator": "README and benchmarks/layers.py",
    "twisted_commutant_matrix": "benchmarks/layers.py",
}


def test_public_functions_are_reached_or_kept():
    """Every public function is entered by some CLI golden case, run in
    this process under a call profile, or is named in ``KEPT``."""
    public = {
        obj.__code__: name
        for name in compalg.__all__
        if isinstance(obj := getattr(compalg, name), types.FunctionType)
    }
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in cli_cases.CASES:
            cli_cases.run(case)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for code, name in public.items() if code not in entered)
    assert unreached == sorted(KEPT)


def test_benchmark_imports_resolve():
    """Every name the benchmark scripts import from the package exists on
    it, read from their source without running them."""
    found = [
        (path.name, node.module, alias.name)
        for path in sorted((PACKAGE.parents[1] / "benchmarks").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "compalg"
        for alias in node.names
    ]
    assert found
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in found
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_library_imports_at_module_level():
    """Imports sit at the top of each module; the one exception is
    ``Element.__str__``'s import of the formatter, which would otherwise
    make ``core`` and ``parsing`` import each other."""
    found = [
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == [("core.py", "__str__")]


def test_import_loads_no_dataclass_machinery():
    """A fresh ``import compalg`` and ``compalg.cli`` leaves ``dataclasses``
    and ``inspect`` unloaded: the records are named tuples, so the cold
    start does not pay for either module."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = (
        "import sys, compalg, compalg.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout == "[]\n"


# Each record with its field names, in order, and one value per field.
RECORDS = {
    "ConjugacyWitness": (
        ConjugacyWitness, "p q branch", (H.basis(1), None, Branch.SUM_INVERTIBLE)
    ),
    "CheckReport": (CheckReport, "algebra_name checks", ("H", (("norm(p) != 0", True),))),
    "CommutantReport": (
        CommutantReport,
        "a b nullspace_basis single",
        (H.basis(1), H.basis(2), (H.one(), H.basis(3)), H.one()),
    ),
    "SelftestRecord": (SelftestRecord, "name algebra samples failure", ("p", "O", 5, "")),
    "SelftestResult": (SelftestResult, "records", ((SelftestRecord("p", "O", 5, ""),),)),
    "RemarkReport": (RemarkReport, "instances", ((CheckReport("Os", ()),),)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    """Positional construction, field reads, equality and hashing by
    fields, a ``Name(field=value, ...)`` repr, and no assignment."""
    cls, fields, values = RECORDS[name]
    fields = fields.split()
    record = cls(*values)
    assert [getattr(record, f) for f in fields] == list(values)
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(*values[:-1], "other")
    pairs = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{name}({pairs})"
    for attribute in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, values[0])


# Each exact-scalar entry point with one bad scalar x: every one must raise
# TypeError, never AttributeError and never accept it silently.
SCALAR_ENTRY_POINTS = {
    "Algebra.element": lambda x: H.element([x, 0, 0, 0]),
    "element * x": lambda x: H.basis(1) * x,
    "x * element": lambda x: x * H.basis(1),
    "element + x": lambda x: H.basis(1) + x,
    "x + element": lambda x: x + H.basis(1),
    "nullspace": lambda x: nullspace(((x, 0), (0, 1))),
    "span_contains target": lambda x: span_contains([(1, 0)], (x, 0)),
    "span_contains vector": lambda x: span_contains([(x, 0)], (1, 0)),
    "format_scalar": lambda x: format_scalar(x),
    "exact_div x / 2": lambda x: exact_div(x, 2),
    "exact_div 2 / x": lambda x: exact_div(2, x),
    "exact_div x / Fraction": lambda x: exact_div(x, Fraction(1, 3)),
}


@pytest.mark.parametrize("x", [1.5, "1", True], ids=repr)
@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
def test_scalar_entry_points_reject_inexact_scalars(name, x):
    entry = SCALAR_ENTRY_POINTS[name]
    if x is True and name.startswith("exact_div"):
        # a bool keeps the numeric tower's behaviour of ``/``
        assert entry(x) == entry(1)
        return
    with pytest.raises(TypeError):
        entry(x)


def test_scalar_entry_point_messages():
    for fn, message in (
        (lambda: H.element([True, 0, 0, 0]), "coefficient True is not a valid H scalar"),
        (lambda: H.basis(1) + True, "coefficient True is not a valid H scalar"),
        (lambda: Hc.element([0, 0.5, 0, 0]), "coefficient 0.5 is not a valid Hc scalar"),
        (lambda: nullspace(((1.5, 0),)), "coefficient 1.5 is not an exact scalar"),
        (lambda: format_scalar("1"), "coefficient '1' is not an exact scalar"),
        (lambda: exact_div(1.5, 2), "exact_div needs exact scalars, got float and int"),
        (lambda: exact_div(2, "1"), "exact_div needs exact scalars, got int and str"),
    ):
        with pytest.raises(TypeError) as info:
            fn()
        assert str(info.value) == message


@pytest.mark.parametrize("alg", [H, Hs, O, Os], ids=lambda alg: alg.name)
def test_gaussian_coefficients_need_a_complex_algebra(alg):
    g = GaussRational(1, 0)
    with pytest.raises(TypeError, match=f"is not a valid {alg.name} scalar"):
        alg.element([0] * (alg.dim - 1) + [g])
    for op in (lambda: alg.one() * g, lambda: g + alg.one()):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


@pytest.mark.parametrize(
    "argv", [("verify-remark",), ("selftest", "--samples", "5")], ids=" ".join
)
def test_checks_survive_optimized_mode(argv):
    proc = run_cli(*argv, optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# seven 4000-digit terms: conj prints about 28 KB, more than a pipe holds
BIG_O = "+".join(f"{'7' * 4000}e{k}" for k in range(1, 8))
CLOSED_STDOUT = {
    "selftest": ("selftest", "--samples", "2"),
    "conj-28KB": ("conj", "--algebra", "O", BIG_O),
}


@pytest.mark.parametrize("argv", CLOSED_STDOUT.values(), ids=CLOSED_STDOUT.keys())
def test_closed_stdout_keeps_the_exit_code(argv):
    # stdout's reader is gone before the command prints: the exit code is
    # the one an open pipe gets, and stderr carries no traceback or note
    assert run_cli(*argv).returncode == 0
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def _closed_pipe(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return run_cli(*argv, stderr=write)
    finally:
        os.close(write)


def _closed_fd2(argv):
    return run_cli(*argv, stderr=None, preexec_fn=lambda: os.close(2))


ERRORS_ON_STDERR = {
    "parse": ("norm", "--algebra", "H", "e9"),
    "precondition": ("conjugate-witness", "--algebra", "H", "e1", "2e2"),
}


@pytest.mark.parametrize("argv", ERRORS_ON_STDERR.values(), ids=ERRORS_ON_STDERR.keys())
@pytest.mark.parametrize("stderr", [_closed_pipe, _closed_fd2], ids=["pipe", "fd2"])
def test_unwritable_stderr_keeps_the_exit_code(argv, stderr):
    # stderr's reader is gone, or fd 2 was closed before start: the error
    # line is dropped, the code is kept and stdout stays empty
    proc = stderr(argv)
    assert (proc.returncode, proc.stdout) == (2, "")


class _Unwritable(io.StringIO):
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


# a consistency failure (the compiled product fault below) and a stray error
EXIT_3 = {"consistency": ("mul", "e1", "e2"), "stray": ("negate-witness", "e1")}


@pytest.mark.parametrize("case", EXIT_3)
@pytest.mark.parametrize(
    "exc",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "full")],
    ids=["broken-pipe", "full"],
)
def test_unwritable_stderr_keeps_exit_3(monkeypatch, capsys, case, exc):
    # the exit-3 path with a stderr whose every write raises
    command, *operands = EXIT_3[case]
    with monkeypatch.context() as m:
        if case == "consistency":
            _product_fault(m, H)
        else:
            m.setattr(compalg.cli, "negator", lambda a: 1 / 0)
        m.setattr(sys, "stderr", _Unwritable(exc))
        assert main([command, "--algebra", "H", *operands]) == 3
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [("norm", "--algebra", "H", "e1"), *CLOSED_STDOUT.values()],
    ids=["norm", *CLOSED_STDOUT.keys()],
)
def test_full_stdout_exits_3_with_one_line(argv):
    # any failed write of the result but a broken pipe is a fault: one
    # line, exit 3, and no note from the interpreter's final flush
    full = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = run_cli(*argv, stdout=full)
    finally:
        os.close(full)
    error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert (proc.returncode, proc.stderr) == (3, f"internal error: OSError: {error}\n")


class _FullOnce:
    """A file whose first write fails as on a full disk."""

    def __init__(self, file):
        self.file, self.full = file, True

    def write(self, text):
        if self.full:
            self.full = False
            raise OSError(errno.ENOSPC, "full")
        return self.file.write(text)

    def __getattr__(self, name):
        return getattr(self.file, name)


def test_failed_write_leaves_stdout_to_the_next_call(monkeypatch, capsys, tmp_path):
    # in-process: a result that cannot be written exits 3 and leaves the
    # descriptor alone, so the next result on the same stdout is written
    norm = ["norm", "--algebra", "H", "e1"]
    with open(tmp_path / "out", "w") as file:
        monkeypatch.setattr(sys, "stdout", _FullOnce(file))
        assert [main(norm), main(norm)] == [3, 0]
    assert (tmp_path / "out").read_text() == "1\n"
    assert capsys.readouterr().err == "internal error: OSError: [Errno 28] full\n"


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


# the default int-string limit of Python 3.11+ (0, no limit, on older ones)
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "7" * 3000  # parses, but a product of two has about 6000 digits
LONG_RESULTS = {
    "norm": ("H", f"{LONG}e1"),
    "mul": ("H", f"{LONG}e1", f"{LONG}e2"),
    "inner": ("Hc", f"{LONG}ie1", f"{LONG}e1"),
}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", LONG_RESULTS)
def test_result_past_the_int_string_limit_exits_2(capsys, command, flags):
    name, *operands = LONG_RESULTS[command]
    code = main([command, "--algebra", name, *flags, "--", *operands])
    out, err = capsys.readouterr()
    if not 0 < _INT_LIMIT < 5990:
        assert code == 0 and len(out) > 5990
        return
    assert (code, out) == (2, "")
    assert err == "error: result has an integer too long to print\n"


def test_formatters_past_the_int_string_limit():
    big = 7 * 10**6000
    cases = [
        (format_scalar, big),
        (format_scalar, Fraction(1, big)),
        (format_scalar, GaussRational(1, -big)),
        (format_element, H.element([0, big, 0, 0])),
        (format_element, Hc.element([0, 0, GaussRational(0, Fraction(1, big)), 0])),
    ]
    for fn, x in cases:
        if 0 < _INT_LIMIT < 6000:
            with pytest.raises(PreconditionViolation, match="too long to print"):
                fn(x)
        else:
            assert "7" + "0" * 6000 in fn(x)


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
SCALAR_P = ConjugacyWitness(3, None, Branch.SUM_INVERTIBLE)
STRING_Q = ConjugacyWitness(H.basis(3), "x", Branch.NULL_PAIR)


@pytest.mark.parametrize(
    "fn,args",
    [
        (negator, (3,)),
        (separator, (H.basis(1), 3)),
        (conjugacy_witness, (3, H.basis(1))),
        (verify_negator, (H.basis(1), 3)),
        (verify_witness, (3, H.basis(2), WITNESS)),
        (verify_witness, (H.basis(1), 3, WITNESS)),
        (verify_witness, (H.basis(1), H.basis(2), SCALAR_P)),
        (collapse_quaternion, (SCALAR_P,)),
        (verify_witness, (H.basis(1), H.basis(2), STRING_Q)),
        (collapse_quaternion, (STRING_Q,)),
    ],
)
def test_witnesses_reject_non_elements(fn, args):
    with pytest.raises(AlgebraMismatch, match="expected two elements"):
        fn(*args)


@pytest.mark.parametrize("fn", [negator_candidates, format_element])
def test_element_views_reject_non_elements(fn):
    with pytest.raises(AlgebraMismatch, match="expected two elements, got int"):
        fn(5)


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
    single_case = compalg.commutant._single_case
    answered = []

    def spy(*args):
        out = single_case(*args)
        answered.append(out[3] is not None)
        return out

    monkeypatch.setattr(compalg.commutant, "_single_case", spy)
    monkeypatch.setattr(compalg.commutant, "_conjugates", lambda p, x, b: False)
    with pytest.raises(ConsistencyError, match="fails to conjugate a onto b"):
        single_conjugator_search(a, b)

    assert main(["commutant", "--algebra", "H", "e1", "e2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure:")
    assert "Traceback" not in err
    assert answered == [True, True]


def _flipped_terms(alg):
    """The term list of ``alg``'s table with the sign of e1 e2 flipped."""
    table = [list(row) for row in alg.table]
    k, s = table[1][2]
    table[1][2] = (k, -s)
    return _terms(table)


def _compiled_with(m, alg, **patches):
    """``alg`` built again with the given functions of ``core`` patched and
    registered under its name, as an import under the fault would leave it."""
    for name, fn in patches.items():
        m.setattr(compalg.core, name, fn)
    bad = Algebra(alg.name, alg.complex_field, alg.table)
    m.setitem(ALGEBRAS, alg.name, bad)
    return bad


@pytest.mark.parametrize("alg", [H, O], ids=lambda alg: alg.name)
def test_certificate_catches_a_corrupted_table(monkeypatch, capsys, alg):
    # the kernel certificate: a term list with one sign flipped compiles to
    # a kernel that Algebra refuses where it compiles it
    good, bad_terms = alg.mul, _flipped_terms(alg)
    message = f"{alg.name} table product is wrong on real x real operands"
    p, a = alg.element([1, 2, 3] + [0] * (alg.dim - 3)), alg.basis(1)
    with monkeypatch.context() as m:
        bad = _compiled_with(m, alg, _terms=lambda table: bad_terms)
        assert bad.terms == bad_terms and bad.dot is alg.dot
        with pytest.raises(ConsistencyError, match=message):
            sandwich(bad.element(p.coeffs), bad.element(a.coeffs))
        assert main(["conjugate-witness", "--algebra", alg.name, "e1", "e2"]) == 3
    err = capsys.readouterr().err
    assert err == f"internal consistency failure: {message}\n"
    # the corrupted terms are their own cache entry: the good kernel is intact
    assert ALGEBRAS[alg.name] is alg
    assert alg.mul is good is _kernel(alg.terms, alg.dim)
    assert alg.basis(1) * alg.basis(2) == alg.basis(3)
    assert sandwich(p, a) == p * a * p.inverse()


@pytest.mark.parametrize("alg", [Hc, Oc], ids=lambda alg: alg.name)
def test_certificate_catches_a_corrupted_gaussian_kernel(monkeypatch, capsys, alg):
    # the same fault in the Gaussian twin, which only a product of two
    # operands with imaginary parts calls, refused where it is compiled on
    # first use
    good, bad_terms = _gaussian_kernels(alg)[0], _flipped_terms(alg)
    message = f"{alg.name} table product is wrong on complex x complex operands"
    i, pad = GaussRational(0, 1), [0] * (alg.dim - 3)
    with monkeypatch.context() as m:
        bad = _compiled_with(m, alg, _terms=lambda table: bad_terms)
        assert bad.gauss_mul is None
        p, a = bad.element([1, 2 * i, 3] + pad), bad.element([0, i, 1] + pad)
        with pytest.raises(ConsistencyError, match=message):
            p * a
        assert bad.gauss_mul is not _gaussian_kernel(bad_terms, alg.dim)
        argv = ["conjugate-witness", "--algebra", alg.name, "--", "ie1+e2", "e1+ie2"]
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # the corrupted terms are their own cache entry: the good kernel is intact
    assert alg.gauss_mul is good is _gaussian_kernel(alg.terms, alg.dim)
    p, a = alg.element([1, 2 * i, 3] + pad), alg.element([0, i, 1] + pad)
    ie1, ie2 = alg.element([0, i, 0] + pad), alg.element([0, 0, i] + pad)
    assert ie1 * ie2 == -alg.basis(3)
    assert sandwich(p, a) == p * a * p.inverse()
    assert main(argv) == 0


def _identity(u):
    # a conjugation that forgets to negate the imaginary parts
    return list(u[0]), u[1] and list(u[1])


def _conj_fault(m, alg):
    m.setattr(compalg.core, "_conj", _identity)
    wrong = compalg.core._conjugation_wrong()
    m.setattr(compalg.core, "_conj", compalg.core._certified(_identity, wrong))
    return "conjugation is not u -> 2 u0 - u on real 4-vectors"


def _product_fault(m, alg):
    bad_terms = _flipped_terms(alg)
    _compiled_with(m, alg, _terms=lambda table: bad_terms)
    return "H table product is wrong on real x real operands"


def _dot_fault(m, alg):
    bad_terms = ((-1, 0, 0),) + _dot_terms(alg.metric)[0][1:]
    _compiled_with(m, alg, _dot_terms=lambda metric: (bad_terms,))
    return "H metric dot is wrong on real x real operands"


# the commands with no check of their own, each with the fault it meets
UNCHECKED = [
    (["mul", "e1", "e2"], _product_fault),
    (["norm", "e1"], _dot_fault),
    (["inner", "e1", "e1"], _dot_fault),
    (["inv", "e2"], _dot_fault),
    (["conj", "1+e1"], _conj_fault),
]


@pytest.mark.parametrize("argv, fault", UNCHECKED, ids=[a[0] for a, _ in UNCHECKED])
@pytest.mark.parametrize("json", [[], ["--json"]], ids=["text", "json"])
def test_unchecked_commands_exit_3_under_a_compiled_fault(
    monkeypatch, capsys, argv, fault, json
):
    # mul, norm, inner, inv and conj check nothing themselves: the fault is
    # refused where it is compiled, and the command that meets it exits 3
    command, *operands = argv
    with monkeypatch.context() as m:
        message = fault(m, H)
        assert main([command, "--algebra", "H", *json, *operands]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"internal consistency failure: {message}\n")
    assert main([command, "--algebra", "H", *json, *operands]) == 0


SLOT_NAMES = ("mul", "dot", "gauss_mul", "gauss_dot")


def _slot_assignments(tree):
    """``(function, slot, value)`` for each assignment to a kernel slot in
    a module ``tree``, the function a method's qualified name or None at
    module level; a ``setattr`` call counts as one, whatever it sets."""
    owner = {}
    for stmt in tree.body:
        methods = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for fn in methods:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{stmt.name}.{fn.name}" if fn is not stmt else fn.name
                owner.update((node, name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
            yield owner.get(node), "setattr", node
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr in SLOT_NAMES:
                        yield owner.get(node), leaf.attr, node.value


def test_kernel_slots_are_set_only_where_certified():
    """``mul``, ``dot``, ``gauss_mul`` and ``gauss_dot`` are assigned only in
    ``Algebra.__init__`` and ``_gaussian_kernels``, and there each slot's
    last value is its certificate's: no route installs a kernel unchecked."""
    last = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, slot, value in _slot_assignments(ast.parse(path.read_text())):
            last[path.name, fn, slot] = value
    owners = {(module, fn) for module, fn, _ in last}
    assert owners == {("core.py", "Algebra.__init__"), ("core.py", "_gaussian_kernels")}
    assert {slot for _, fn, slot in last if fn == "Algebra.__init__"} == set(SLOT_NAMES)
    for (_, fn, slot), value in last.items():
        if fn == "Algebra.__init__" and slot.startswith("gauss"):
            # compiled on first use, in _gaussian_kernels
            assert isinstance(value, ast.Constant) and value.value is None
        else:
            assert getattr(value.func, "id", None) == "_certified", (fn, slot)


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


def _witness_image_check_fails(m):
    # verify_witness's last check, p a p^-1 == b, says no
    m.setattr(compalg.witnesses, "_conjugates", lambda p, x, b: False)
    return conjugacy_witness, (H.basis(1), H.basis(2)), "witness failed checks"


def _negator_image_check_fails(m):
    # verify_negator's last check, p a p^-1 == -a, says no
    m.setattr(compalg.witnesses, "_conjugates", lambda p, x, b: False)
    return negator, (H.basis(1),), "negator candidate -e2 fails for e1"


@pytest.mark.parametrize(
    "fault",
    [
        _negator_check_fails,
        _no_negator_candidate,
        _no_positive_index,
        _separator_sandwich_fails,
        _definite_norm_claimed,
        _witness_check_fails,
        _witness_image_check_fails,
        _negator_image_check_fails,
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
    assert err.count("\n") == 1 and "Traceback" not in err
    fn(*args)


@pytest.mark.parametrize("argv", [[], ["--json"]])
@pytest.mark.parametrize("name, x, y", [("H", "e1", "e2"), ("Hs", "e2", "-e2")])
def test_cli_check_catches_a_wrong_collapsed_witness(
    monkeypatch, capsys, argv, name, x, y
):
    # over H, Hs and Hc the CLI checks the witness after collapsing it, which
    # no library call has checked against a and b
    def wrong(w):
        return ConjugacyWitness.single(collapse_quaternion(w).p + 1, w.branch)

    monkeypatch.setattr(compalg.cli, "collapse_quaternion", wrong)
    assert main(["conjugate-witness", "--algebra", name, *argv, "--", x, y]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal consistency failure: witness failed checks")
    assert "Traceback" not in err


def _second_pivot_dropped(m):
    echelon = compalg.witnesses._echelon

    def rank_one(rows, ncols):
        rows, pivots = echelon(rows, ncols)
        return rows, pivots[:1]

    m.setattr(compalg.witnesses, "_echelon", rank_one)


def _rows_never_cleared(m):
    m.setattr(compalg.core, "_combine", lambda row, pivot_row, c: row)


# (fault, algebra, a, b): the NONE golden, whose wrong basis under the
# kernel fault used to print with exit 0, and SUM pairs; a SUM pair read as
# rank 1 trips the check too
CLOSED_FORM_FAULTS = [
    (_rows_never_cleared, "Os", "4e1'+5e2+3e3'-5e4+4e5'+3e7'", "3e2+4e6+5e7'"),
    (_rows_never_cleared, "O", "e1+2e5", "2e3-e6"),
    (_rows_never_cleared, "Hs", "e1'+e2", "e2+e3'"),
    (_second_pivot_dropped, "H", "e1", "e2"),
    (_second_pivot_dropped, "Oc", "e1+ie2+2e3", "2e5+ie6+e7"),
]


@pytest.mark.parametrize("fault, name, x, y", CLOSED_FORM_FAULTS)
def test_closed_form_shape_check_catches_a_kernel_fault(
    monkeypatch, capsys, fault, name, x, y
):
    # the closed-form basis must be a reduced echelon of rank 2: each row 0
    # at the other row's pivot column
    alg = ALGEBRAS[name]
    a, b = parse_element(x, alg), parse_element(y, alg)
    report = single_conjugator_search(a, b)
    assert report.nullity == 2
    with monkeypatch.context() as m:
        fault(m)
        with pytest.raises(ConsistencyError, match="not a reduced echelon of rank 2"):
            single_conjugator_search(a, b)
        for argv in ([], ["--json"]):
            assert main(["commutant", "--algebra", name, *argv, "--", x, y]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("internal consistency failure: closed-form basis")
            assert "Traceback" not in err
    assert single_conjugator_search(a, b) == report


def test_search_check_catches_a_verdict_against_the_theorem(monkeypatch, capsys):
    # the search's always-on check: its verdict on a pure nonzero pair of
    # equal norm must be the theorem's, in both directions
    _, a, b, _ = counterexample_instances()[0]
    pairs = [(H.basis(1), H.basis(2), SingleCase.NONE), (a, b, SingleCase.DEPENDENT)]
    single_case = compalg.commutant._single_case
    for a, b, case in pairs:

        def wrong(a, b, case=case):
            return (case, *single_case(a, b)[1:])

        with monkeypatch.context() as m:
            m.setattr(compalg.commutant, "_single_case", wrong)
            with pytest.raises(ConsistencyError, match="contradicts the single"):
                single_conjugator_search(a, b)
            argv = ["commutant", "--algebra", a.algebra.name, "--", str(a), str(b)]
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: commutant verdict")
        assert "Traceback" not in err
        single_conjugator_search(a, b)


def test_dependent_case_check_catches_a_failed_scan(monkeypatch, capsys):
    # the theorem's scan for a pure x with <x, a - b> = 0 and <x, a + b> != 0;
    # b = a takes it (p = 1), b = 2 a does not
    a = Os.element([0, 1, 1, 0, 0, 0, 0, 0])
    assert a.norm() == 0
    assert conjugacy_witness(a, a, minimal=True).p == Os.one()
    with monkeypatch.context() as m:
        m.setattr(compalg.witnesses, "_orthogonal", lambda alg, d: iter(()))
        with pytest.raises(ConsistencyError, match="no pure x with"):
            conjugacy_witness(a, a, minimal=True)
        assert conjugacy_witness(a, 2 * a, minimal=True).is_single
        argv = ["conjugate-witness", "--algebra", "Os", "--minimal", str(a), str(a)]
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: no pure x with")
    assert "Traceback" not in err



# (algebra, a, b, message, minimal): dependent pairs.  Under the fault the
# first three keep rank 1 in the theorem's echelon (t = 0) and the
# elimination's basis contradicts the case; the last two (t != 0) read as
# rank 2, which the pivot minor refutes.  Minimal witnesses of b = c a read
# a, b as independent and find no x for the scan.
KERNEL_FAULT_PAIRS = [
    ("Os", "e2-e7'", "1/2e1'+1/2e4", "contradicts the single", False),
    ("Os", "e1'+e2", "2e1'+2e2", "contradicts the single", True),
    ("Oc", "e1+ie2", "ie1-e2", "contradicts the single", True),
    ("Os", "e1'+e3'-e6", "-e3'-e4+e7'", "zero pivot minor", False),
    ("Hs", "e1'+e2-e3'", "e3'", "zero pivot minor", False),
]


@pytest.mark.parametrize("name, x, y, message, minimal", KERNEL_FAULT_PAIRS)
def test_shared_kernel_fault_trips_the_theorem_check(
    monkeypatch, capsys, name, x, y, message, minimal
):
    # one echelon decides the theorem's case and feeds the closed form, so a
    # fault in the shared elimination kernel, a row combination that never
    # clears its column, must not turn into a wrong verdict
    alg = ALGEBRAS[name]
    a, b = parse_element(x, alg), parse_element(y, alg)
    assert single_conjugator_search(a, b).single_exists
    with monkeypatch.context() as m:
        m.setattr(compalg.core, "_combine", lambda row, pivot_row, c: row)
        with pytest.raises(ConsistencyError, match=message):
            single_conjugator_search(a, b)
        assert main(["commutant", "--algebra", name, "--", x, y]) == 3
        if minimal:
            with pytest.raises(ConsistencyError, match="no pure x with"):
                conjugacy_witness(a, b, minimal=True)
            argv = ["conjugate-witness", "--algebra", name, "--minimal", "--", x, y]
            assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: ")
    assert "Traceback" not in err
    assert conjugacy_witness(a, b, minimal=True).is_single

def test_counterexample_check_lets_bugs_propagate(monkeypatch):
    def buggy(a, b):
        raise RuntimeError("bug")

    monkeypatch.setattr(compalg.selftest, "conjugacy_witness", buggy)
    with pytest.raises(RuntimeError):
        verify_remark()


def test_counterexample_check_reports_library_errors(monkeypatch):
    def refuses(a, b):
        raise ConsistencyError("no witness")

    monkeypatch.setattr(compalg.selftest, "conjugacy_witness", refuses)
    report = verify_remark()
    assert not report.ok
    assert all(
        inst.failures == ("double witness exists and verifies",)
        for inst in report.instances
    )
