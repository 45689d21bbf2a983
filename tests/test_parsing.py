import itertools
import random
import sys
from fractions import Fraction

import pytest

import compalg.parsing
from compalg import (
    ALGEBRAS,
    GaussRational,
    H,
    Hc,
    Hs,
    I,
    ImaginaryScalarInRealAlgebra,
    IndexOutOfRange,
    Oc,
    Os,
    ParseError,
    PrimeMismatch,
    format_element,
    format_scalar,
    parse_element,
)
from compalg.sampling import random_element, random_rational
from cli_cases import CASES
from helpers import reference_format, reference_format_scalar, reference_parse

GOLDEN_STRINGS = [
    ("Os", "4e1'+5e2+3e3'-5e4+4e5'+3e7'", (0, 4, 5, 3, -5, 4, 0, 3)),
    ("Os", "3e2+4e6+5e7'", (0, 0, 3, 0, 0, 0, 4, 5)),
    (
        "Oc",
        "4ie1+5e2+3ie3-5e4+4ie5+3ie7",
        (0, 4 * I, 5, 3 * I, -5, 4 * I, 0, 3 * I),
    ),
    ("Oc", "3e2+4e6+5ie7", (0, 0, 3, 0, 0, 0, 4, 5 * I)),
]


@pytest.mark.parametrize("name,text,coeffs", GOLDEN_STRINGS)
def test_golden_strings_parse_exactly(name, text, coeffs):
    alg = ALGEBRAS[name]
    assert parse_element(text, alg) == alg.element(coeffs)
    assert format_element(alg.element(coeffs)) == text


def test_zero_and_units():
    assert parse_element("0", H) == H.zero()
    assert format_element(H.zero()) == "0"
    assert parse_element("1", H) == H.one()
    assert parse_element("-e2", H) == -H.basis(2)
    assert format_element(-H.basis(2)) == "-e2"
    assert format_element(H.one() - H.basis(1)) == "1-e1"


def test_whitespace_insignificant():
    assert parse_element(" 4 e1' + 5 e2 ", Hs) == Hs.element([0, 4, 5, 0])


def test_fractions_and_accumulation():
    assert parse_element("1/2e1", H) == H.element([0, Fraction(1, 2), 0, 0])
    assert parse_element("e1+e1", H) == H.element([0, 2, 0, 0])
    assert parse_element("e1-e1", H) == H.zero()
    assert parse_element("2/4", H) == H.element([Fraction(1, 2), 0, 0, 0])


def test_complex_scalars():
    assert parse_element("i", Oc) == Oc.element([I, 0, 0, 0, 0, 0, 0, 0])
    assert parse_element("-ie1", Oc) == Oc.element([0, -I, 0, 0, 0, 0, 0, 0])
    assert parse_element("(1+2i)e3", Oc) == Oc.element(
        [0, 0, 0, GaussRational(1, 2), 0, 0, 0, 0]
    )
    assert parse_element("(-1-2/3i)", Oc) == Oc.element(
        [GaussRational(-1, Fraction(-2, 3)), 0, 0, 0, 0, 0, 0, 0]
    )
    assert parse_element("3/2i e2", Oc) == Oc.element(
        [0, 0, GaussRational(0, Fraction(3, 2)), 0, 0, 0, 0, 0]
    )


def test_format_complex_forms():
    assert format_element(Oc.element([0, I, 0, 0, 0, 0, 0, 0])) == "ie1"
    assert format_element(Oc.element([0, -I, 0, 0, 0, 0, 0, 0])) == "-ie1"
    assert (
        format_element(Oc.element([0, GaussRational(1, 1), 0, 0, 0, 0, 0, 0]))
        == "(1+1i)e1"
    )
    assert (
        format_element(Oc.element([GaussRational(-1, 2), 0, 0, 0, 0, 0, 0, 0]))
        == "(-1+2i)"
    )
    assert format_scalar(GaussRational(0, 4)) == "4i"
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(0) == "0"
    assert format_scalar(GaussRational(Fraction(1, 2), -1)) == "(1/2-1i)"


def test_prime_errors():
    with pytest.raises(PrimeMismatch):
        parse_element("e1", Os)
    with pytest.raises(PrimeMismatch):
        parse_element("e1'", H)
    with pytest.raises(PrimeMismatch):
        parse_element("e2'", Os)


def test_imaginary_rejected_in_real_algebras():
    with pytest.raises(ImaginaryScalarInRealAlgebra):
        parse_element("4i", H)
    with pytest.raises(ImaginaryScalarInRealAlgebra):
        parse_element("ie1", Os)
    with pytest.raises(ImaginaryScalarInRealAlgebra):
        parse_element("(1+2i)e1", H)


def test_index_errors():
    with pytest.raises(IndexOutOfRange):
        parse_element("e5", H)
    with pytest.raises(IndexOutOfRange):
        parse_element("e0", H)
    with pytest.raises(IndexOutOfRange):
        parse_element("e8", Os)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_element("e1+", H)
    assert exc.value.position == 3
    with pytest.raises(ParseError) as exc:
        parse_element("e1 ? e2", H)
    assert exc.value.position == 3
    cases = (("", H), ("1/0", H), ("e", H), ("(1+2i", Oc), ("(1+2i)1", Hc), ("i1", Hc))
    for text, alg in cases:
        with pytest.raises(ParseError) as exc:
            parse_element(text, alg)
        got = type(exc.value), str(exc.value), exc.value.position
        assert got == _outcome(reference_parse, text, alg), text
    # '1' is a scalar, never a basis label, so it cannot follow a scalar
    for text, at in (("(1+2i)1", 6), ("i1", 1)):
        want = f"expected '+', '-' or end of expression (at position {at})"
        assert _outcome(parse_element, text, Hc) == (ParseError, want, at), text
    # a zero denominator in the real part of a parenthesized scalar, in a
    # whole term or, with the ')' missing, in one cut short
    for text in ("(1/0+2i)", "(1/00-2i)e1", "(1/0+2i"):
        got = _outcome(parse_element, text, Hc)
        assert got == _outcome(reference_parse, text, Hc), text
        assert got == (ParseError, "zero denominator (at position 3)", 3), text


# the default int-string limit of Python 3.11+ (0, no limit, on older ones)
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("name", ["O", "Hc"])
def test_long_literal_in_every_term_shape(name):
    # a lexical error: over O it outranks the 'i' of the last shape
    alg, lit = ALGEBRAS[name], "7" * 4301
    for text in (f"{lit}e1", f"1/{lit}", f"({lit}+1i)", f"(1+1/{lit}i)", f"-{lit}i"):
        got = _outcome(parse_element, text, alg)
        assert got == _outcome(reference_parse, text, alg)
        if 0 < _INT_LIMIT < len(lit):
            at = text.index(lit)
            message = f"integer literal too long (at position {at})"
            assert got == (ParseError, message, at)
    # the lexical scan names the first lexical error, before or after the
    # literal, whichever the parse stopped at
    dollar = (ParseError, "unexpected character '$' (at position 0)", 0)
    too_long = (ParseError, "integer literal too long (at position 0)", 0)
    for text, first in ((f"$+{lit}", dollar), (f"{lit}$", too_long)):
        got = _outcome(parse_element, text, alg)
        assert got == _outcome(reference_parse, text, alg)
        if 0 < _INT_LIMIT < len(lit):
            assert got == first


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_roundtrip_random_elements(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"roundtrip:{name}")
    for _ in range(100):
        a = random_element(rng, alg, frac_prob=0.3)
        text = format_element(a)
        assert parse_element(text, alg) == a
        assert format_element(parse_element(text, alg)) == text


# Fragments for the differential test: the grammar alphabet, whole basis
# labels, whitespace that str.isspace accepts (the \x1c-\x1f separators
# and \x85 included), and characters the grammar rejects although
# str.isdigit calls some of them digits (superscripts, Arabic-Indic and
# fullwidth digits).
_FRAGMENTS = (
    *"0123456789ei'+-/() ",
    *("e1", "e2", "e3'", "e5'", "e7", "e0", "e9", "1/2", "(1+2i)", "(-3-1/2i)"),
    *("2/4", "0/7", "(0+0i)", "(0-0/3i)"),
    *"\t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000",
    *"²٣１$Eé",
)
# a 4301-digit literal is past the default int-string limit of Python 3.11+
_LONG_LITERALS = ("1" * 5000, "7" * 4301, "9" * 4300, "0" * 5000)


def _differential_text(rng):
    kind = rng.random()
    if kind < 0.45:
        return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 10)))
    source = ALGEBRAS[rng.choice(sorted(ALGEBRAS))]
    text = format_element(random_element(rng, source, frac_prob=0.3))
    if kind < 0.6:
        return text
    if kind < 0.98:
        k = rng.randint(0, len(text))
        cut = k + rng.randint(0, 1)
        return text[:k] + rng.choice(("", *_FRAGMENTS)) + text[cut:]
    literal = rng.choice(_LONG_LITERALS)
    return rng.choice((f"{literal}e1", f"1/{literal}", f"({literal}+1i)", literal))


def _outcome(parse, text, alg):
    try:
        return parse(text, alg)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_parse_matches_reference_parser(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"differential:{name}")
    for _ in range(4000):
        text = _differential_text(rng)
        assert _outcome(parse_element, text, alg) == _outcome(
            reference_parse, text, alg
        ), text


# two digits, '7' (a basis index over O but not over H), the operators,
# parentheses, 'i', 'e', the prime and a space
_SHORT_ALPHABET = "01/()+-ie' 7"


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_every_short_text_matches_reference_parser(name):
    # every text of up to four symbols: a parenthesized scalar cut short
    # before each of its parts up to the 'i', and each kind of error
    # ahead of another kind
    alg = ALGEBRAS[name]
    for n in range(5):
        for chars in itertools.product(_SHORT_ALPHABET, repeat=n):
            text = "".join(chars)
            assert _outcome(parse_element, text, alg) == _outcome(
                reference_parse, text, alg
            ), text


_WHITESPACE = [f for f in _FRAGMENTS if f.isspace()]


def _canonical_texts(alg, rng):
    """Canonical texts of one algebra: golden strings and random elements
    with fractional (and over Q(i) Gaussian) coefficients."""
    texts = [text for name, text, _ in GOLDEN_STRINGS if name == alg.name]
    for _ in range(3):
        texts.append(format_element(random_element(rng, alg, frac_prob=0.5)))
    return texts


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_whitespace_insertion_matches_reference_parser(name):
    # whitespace may stand between tokens ("1 / 2", "( 1 + 2 i )", "2 i",
    # "i e1") but not inside "e1'", inside a digit run, or after an 'e'
    alg = ALGEBRAS[name]
    for text in _canonical_texts(alg, random.Random(f"whitespace:{name}")):
        for k in range(len(text) + 1):
            for ws in _WHITESPACE:
                spaced = text[:k] + ws + text[k:]
                assert _outcome(parse_element, spaced, alg) == _outcome(
                    reference_parse, spaced, alg
                ), spaced


def _error_path(*args):
    raise AssertionError("accepted text took the error path")


def _golden_element_texts():
    """(text, algebra) for every element argument of the CLI golden cases
    that exit 0."""
    for argv, code in CASES.values():
        if code == 0 and "--algebra" in argv:
            k = argv.index("--algebra")
            for arg in argv[1:k] + argv[k + 2 :]:
                if not arg.startswith("--"):
                    yield arg, ALGEBRAS[argv[k + 1]]


def test_accepted_text_never_takes_the_error_path(monkeypatch):
    cases = []
    for name in sorted(ALGEBRAS):
        alg = ALGEBRAS[name]
        rng = random.Random(f"accepted:{name}")
        for _ in range(200):
            a = random_element(rng, alg, frac_prob=0.4)
            cases.append((format_element(a), alg, a))
    cases += [(t, alg, reference_parse(t, alg)) for t, alg in _golden_element_texts()]
    monkeypatch.setattr(compalg.parsing, "_syntax_error", _error_path)
    monkeypatch.setattr(compalg.parsing, "_lexical_error", _error_path)
    for text, alg, expected in cases:
        assert parse_element(text, alg) == expected, text
    assert any("(" in t for t, _, _ in cases) and any("/" in t for t, _, _ in cases)


def _big_rational(rng):
    """A rational with a numerator of about 300 bits, often a fraction."""
    n = rng.getrandbits(300) - (1 << 299)
    return Fraction(n, rng.getrandbits(260) | 1) if rng.random() < 0.7 else n


def _edge_gaussian(rng):
    """A Gaussian rational with a zero real part, a zero imaginary part or
    an imaginary part of +-1, around a small rational."""
    q = random_rational(rng, frac_prob=0.5) or 1
    real, imag = rng.choice(((0, q), (q, 0), (q, 1), (q, -1), (0, 1), (0, -1)))
    return GaussRational(real, imag)


def _format_cases(rng, alg):
    """Seeded elements for the formatter's differential test."""
    cases = [random_element(rng, alg, frac_prob=0.3) for _ in range(150)]
    for _ in range(40):
        big = [_big_rational(rng) for _ in range(alg.dim)]
        if alg.complex_field:
            big = [GaussRational(x, _big_rational(rng)) for x in big]
        cases.append(alg.element([c if rng.random() < 0.7 else 0 for c in big]))
    if alg.complex_field:
        for _ in range(60):
            coeffs = [_edge_gaussian(rng) for _ in range(alg.dim)]
            cases.append(alg.element([c if rng.random() < 0.7 else 0 for c in coeffs]))
    return cases


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_format_matches_reference_formatter(name):
    alg = ALGEBRAS[name]
    cases = _format_cases(random.Random(f"format:{name}"), alg)
    for a, b in zip(cases, cases[1:] + cases[:1]):
        assert format_element(a) == reference_format(a), a.coeffs
        assert parse_element(format_element(a), alg) == a
        for x in (a.norm(), a.inner(b)):
            assert format_scalar(x) == reference_format_scalar(x), x


_EDGE_SCALARS = (
    *(0, 1, -1, 12, Fraction(-3, 2)),
    *(GaussRational(0, 1), GaussRational(0, -1), GaussRational(2, 0)),
    *(GaussRational(0, Fraction(-1, 3)), GaussRational(Fraction(1, 2), 1)),
    GaussRational(-5, Fraction(7, 9)),
)


@pytest.mark.parametrize("x", _EDGE_SCALARS, ids=str)
def test_format_scalar_edge_values(x):
    assert format_scalar(x) == reference_format_scalar(x)


def _forbidden(*args, **kwargs):
    raise AssertionError("exact-scalar object built at the text boundary")


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_text_boundary_builds_no_exact_scalars(name, monkeypatch):
    alg = ALGEBRAS[name]
    cases = _format_cases(random.Random(f"boundary:{name}"), alg)
    texts = [format_element(a) for a in cases]
    fresh = [parse_element(t, alg) for t in texts]  # no coeffs view cached yet
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", _forbidden)
        m.setattr(GaussRational, "__init__", _forbidden)
        m.setattr(GaussRational, "_make", _forbidden)
        parsed = [parse_element(t, alg) for t in texts]
        formatted = [format_element(a) for a in fresh]
    assert parsed == cases
    assert formatted == texts
