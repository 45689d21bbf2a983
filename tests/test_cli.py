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


def _raising(exc):
    def fault(a):
        raise exc

    return fault


def test_any_other_exception_exits_3_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(compalg.cli, "negator", _raising(ZeroDivisionError("no")))
    code, out, err = run(capsys, "negate-witness", "--algebra", "O", "e1")
    assert (code, out, err) == (3, "", "internal error: ZeroDivisionError: no\n")


def test_keyboard_interrupt_passes_through(monkeypatch):
    monkeypatch.setattr(compalg.cli, "negator", _raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["negate-witness", "--algebra", "O", "e1"])


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
