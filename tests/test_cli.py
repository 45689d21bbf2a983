import argparse
import json
import sys

import pytest

import compalg.cli
from compalg import H, Hc
from compalg.cli import _element_json, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "--algebra", "H", "e1", "e2")
    assert code == 0 and out.strip() == "e3"


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "--algebra", "Oc", "--json", "ie1", "e2")
    payload = json.loads(out)
    assert code == 0
    assert payload == {
        "algebra": "Oc",
        "coeffs": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "1"]] + [["0", "0"]] * 4,
    }


def test_conj_inv_norm_inner(capsys):
    code, out, _ = run(capsys, "conj", "--algebra", "H", "1+e1")
    assert code == 0 and out.strip() == "1-e1"
    code, out, _ = run(capsys, "inv", "--algebra", "H", "e2")
    assert code == 0 and out.strip() == "-e2"
    code, out, _ = run(capsys, "norm", "--algebra", "Os", "4e1'+5e2+3e3'-5e4+4e5'+3e7'")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "inner", "--algebra", "Hs", "e1'", "e1'")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(capsys, "norm", "--algebra", "Oc", "--json", "3e2+4e6+5ie7")
    assert json.loads(out) == {"algebra": "Oc", "value": ["0", "0"]}


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--algebra", "H")
    assert code == 0
    assert "-e2" in out and "e3" in out
    code, out, _ = run(capsys, "table", "--algebra", "Os", "--json")
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert payload["labels"][1] == "e1'"
    assert payload["table"][2][4] == [6, -1]


def test_negate_witness(capsys):
    code, out, _ = run(capsys, "negate-witness", "--algebra", "O", "e1")
    assert code == 0
    assert "p = -e2" in out
    assert out.count(": ok") == 3


def test_conjugate_witness_single(capsys):
    code, out, _ = run(capsys, "conjugate-witness", "--algebra", "H", "e1", "e2")
    assert code == 0
    assert "kind: single" in out
    assert "branch: SumInvertible" in out
    assert "p = e1+e2" in out


def test_conjugate_witness_json(capsys):
    code, out, _ = run(
        capsys,
        "conjugate-witness",
        "--algebra",
        "Os",
        "--json",
        "4e1'+5e2+3e3'-5e4+4e5'+3e7'",
        "3e2+4e6+5e7'",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "double"
    assert payload["branch"] == "NullPair"
    assert payload["verified"] is True
    assert payload["p"]["algebra"] == "Os"
    assert "q" in payload


def test_conjugate_witness_quaternions_collapse(capsys):
    # "--" keeps argparse from reading the leading minus as an option
    code, out, _ = run(
        capsys, "conjugate-witness", "--algebra", "Hs", "--", "e2", "-e2"
    )
    assert code == 0
    assert "kind: single" in out
    assert "branch: AssociativeCollapse" in out


def test_conjugate_witness_minimal(capsys):
    code, out, _ = run(
        capsys, "conjugate-witness", "--algebra", "Os", "--minimal", "--", "e2", "-e2"
    )
    assert code == 0
    assert "kind: single" in out
    assert "branch: CommutantSingle" in out


def test_commutant(capsys):
    code, out, _ = run(
        capsys,
        "commutant",
        "--algebra",
        "Os",
        "4e1'+5e2+3e3'-5e4+4e5'+3e7'",
        "3e2+4e6+5e7'",
    )
    assert code == 0
    assert "dimension 2" in out
    assert "no single conjugator" in out
    code, out, _ = run(capsys, "commutant", "--algebra", "H", "--json", "e1", "e2")
    payload = json.loads(out)
    assert payload["verdict"] == "SingleExists"
    assert payload["single"] is not None
    assert payload["nullity"] == 2


def test_verify_remark(capsys):
    code, out, _ = run(capsys, "verify-remark")
    assert code == 0
    assert out.count("no single conjugator: ok") == 2
    assert "all checks passed" in out


def test_verify_remark_json(capsys):
    code, out, _ = run(capsys, "verify-remark", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert len(payload["instances"]) == 2


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--samples", "5", "--seed", "7")
    code2, out2, _ = run(capsys, "selftest", "--samples", "5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all properties hold" in out1


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "norm", "--algebra", "Os", "e1")
    assert code == 2
    assert "e1'" in err


def test_precondition_error_exit_code(capsys):
    code, _, err = run(capsys, "conjugate-witness", "--algebra", "H", "e1", "2e2")
    assert code == 2
    assert "norm" in err
    code, _, err = run(capsys, "inv", "--algebra", "Os", "e4+e5'")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--algebra", "Q", "e1", "e2"])
    assert exc.value.code == 2


def test_run_exits_with_the_code_of_main(monkeypatch, capsys):
    cases = ((["norm", "--algebra", "H", "e1"], 0), (["inv", "--algebra", "H", "0"], 2))
    for argv, code in cases:
        monkeypatch.setattr(sys, "argv", ["compalg", *argv])
        with pytest.raises(SystemExit) as exc:
            compalg.cli.run()
        assert exc.value.code == code
    assert capsys.readouterr().out == "1\n"


def test_element_json_roundtrip(capsys):
    _, out, _ = run(
        capsys, "mul", "--algebra", "Oc", "--json", "(1+2i)e1+1/2e2", "e3"
    )
    payload = json.loads(out)
    from compalg import ALGEBRAS, GaussRational, parse_element
    from fractions import Fraction

    alg = ALGEBRAS[payload["algebra"]]
    coeffs = [
        GaussRational(Fraction(re), Fraction(im)) for re, im in payload["coeffs"]
    ]
    rebuilt = alg.element(coeffs)
    direct = parse_element("(1+2i)e1+1/2e2", alg) * parse_element("e3", alg)
    assert rebuilt == direct


def test_element_json_renders_numbers_never_bools():
    # H.element([True, 0, 0, 0]) used to reach the JSON as "True"
    for alg in (H, Hc):
        with pytest.raises(TypeError):
            _element_json(alg.element([True, 0, 0, 0]))
    assert _element_json(H.element([1, 0, 0, 0]))["coeffs"] == ["1", "0", "0", "0"]
    assert _element_json(Hc.element([1, 0, 0, 0]))["coeffs"][0] == ["1", "0"]


_HELP = ("help", ("-h", "--help"), False, "show this help message and exit")
_ALGEBRA = ("algebra", ("--algebra",), True, "algebra name")
_A = ("a", (), True, "element expression (put -- before a leading '-')")
_B = ("b", (), True, "element expression")
_JSON = ("json", ("--json",), False, "machine-readable output")
_ONE, _TWO = (_HELP, _ALGEBRA, _A, _JSON), (_HELP, _ALGEBRA, _A, _B, _JSON)

PARSER_TABLE = {
    "table": ("print the full multiplication table", (_HELP, _ALGEBRA, _JSON)),
    "mul": ("multiply two elements", _TWO),
    "conj": ("conjugate an element", _ONE),
    "inv": ("invert an element", _ONE),
    "norm": ("norm of an element", _ONE),
    "inner": ("inner product of two elements", _TWO),
    "negate-witness": (
        "pure invertible p with p a p^-1 = -a, with verification transcript",
        _ONE,
    ),
    "conjugate-witness": (
        "witness conjugating a onto b (single, or double where required)",
        _TWO
        + (
            (
                "minimal",
                ("--minimal",),
                False,
                "return a single witness whenever one exists",
            ),
        ),
    ),
    "commutant": ("solution space of p a = b p, its norm form and the verdict", _TWO),
    "verify-remark": (
        "verify both built-in no-single-conjugator instances",
        (_HELP, _JSON),
    ),
    "selftest": (
        "randomized property suite",
        (
            _HELP,
            _JSON,
            ("samples", ("--samples",), False, "samples per property"),
            ("seed", ("--seed",), False, "generator seed"),
        ),
    ),
}


def test_parser_table():
    # every subcommand's help and arguments, in registration order
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    table = {}
    for name, sp in sub.choices.items():
        args = tuple(
            (x.dest, tuple(x.option_strings), x.required, x.help) for x in sp._actions
        )
        table[name] = (helps[name], args)
    assert list(table) == list(PARSER_TABLE)
    assert table == PARSER_TABLE
