"""Element expression parser and canonical formatter.

Grammar (whitespace insignificant)::

    element  := ['-'] term (('+'|'-') term)*
    term     := scalar | scalar basis | basis
    scalar   := rational | rational 'i' | 'i'
              | '(' rational (('+'|'-') rational 'i') ')'
    rational := integer ['/' positive-integer]
    basis    := 'e' digit ['\'']

Primes (ASCII apostrophe) are required on exactly the indices the algebra
displays primed ({1, 3} for Hs; {1, 3, 5, 7} for Os) and are rejected
elsewhere.  'i' is only accepted over the complex algebras.  Repeated basis
labels accumulate by addition.  ``format_element`` emits the canonical
form: terms in index order, zero terms omitted, unit coefficients elided,
complex coefficients with two nonzero parts parenthesized; parsing a
canonical form and formatting it again is the identity.

Both directions use core's integer form: a term reads as integers
``(re, im, den)``, the numerators are summed per index over a running lcm
of the denominators into one ``core._normal`` call, and the formatter
prints from ``num``/``den``; no ``Fraction`` or ``GaussRational`` is built.

The grammar never nests parentheses, so its language is regular: one
anchored term regex, ``_TERM``, reads the text a term and its sign at a
time with ``match(text, pos)`` until the end of the text.  Every part of a
term is optional in the regex, so it reads every term, whole or cut short:
``_parse`` takes a term with every part in place, and ``_syntax_error``
reads any other term's error off the same match, at the first part missing
or at a zero denominator read before it.  Rejected text keeps one rule: a
lexical error (an unexpected character, 'e' without a digit, an over-long
integer) anywhere in the text comes before any syntax or semantic error.
One scan of the whole text with the lexical regex ``_TOKEN`` alone names
lexical errors, over-long literals included: the term regex reads each
digit run whole, as ``_TOKEN`` does, so an ``int()`` past the int-string
limit stops the parse at a literal the scan names, or the scan finds an
earlier error.  The parse's own error (the grammar's error at the term it
stopped at, or a wrong index or prime, an 'i' over a real field or a zero
denominator in an earlier term) is reported only when the scan finds none:
``e1 e2 $`` reports the '$' at 6 rather than the missing '+' at 3, and
``e1' + $`` over H the '$' rather than the prime.
"""

from __future__ import annotations

import re
from math import gcd

from .core import Element, _normal, integer_form
from .errors import CompalgError, PreconditionViolation


class ParseError(CompalgError):
    """Malformed element expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PrimeMismatch(ParseError):
    """A basis label primed where the algebra forbids it, or vice versa."""


class ImaginaryScalarInRealAlgebra(ParseError):
    """An 'i' literal used over a real coefficient field."""


class IndexOutOfRange(ParseError):
    """A basis index the algebra does not have."""


# One term with its sign, whole or cut short.  ASCII digits only: \d would
# also accept other scripts' digits.  Every part is optional, so the match
# never fails and never shortens a digit run: it reads each run whole, as
# _TOKEN does.  A missing part of a parenthesized scalar matches "" where
# it was expected; a denominator group is None without its '/' and "" when
# the '/' has no digits after it.
_TERM = re.compile(
    r"""
    \s* (?P<sign>[-+]?) \s*
    (?: \( \s* (?P<neg>-?) \s* (?P<a>[0-9]*) \s* (?: / \s* (?P<b>[0-9]*) \s* )?
        (?P<op>[-+]?) \s* (?P<c>[0-9]*) \s* (?: / \s* (?P<d>[0-9]*) \s* )?
        (?P<i>i?) \s* (?P<close>\)?)
      | (?P<n>[0-9]+) (?: \s* / \s* (?P<nd>[0-9]*) )? \s* (?P<ni>i?)
      | (?P<bare_i>i)
    )?
    \s* (?: e (?P<k>[0-9]) (?P<prime>'?) )? \s*
    """,
    re.X,
)
# The tokens of rejected text.  Bare 'e' and any character outside the
# grammar's alphabet are lexical errors.
_TOKEN = re.compile(r"\s+|([0-9]+)|e[0-9]'?|[-+/()i]|(e)|(.)", re.S)
# What the grammar expects at each part that _TERM reads as "" when it is
# missing, in order: a rational's denominator, then a parenthesized
# scalar's parts after its '(' and optional '-'.
_PARTS = (
    ("nd", "a positive denominator"),
    ("a", "an integer"),
    ("b", "a positive denominator"),
    ("op", "'+' or '-' inside parentheses"),
    ("c", "an integer"),
    ("d", "a positive denominator"),
    ("i", "'i'"),
    ("close", "')'"),
)


def parse_element(text, algebra):
    """Parse an element expression over the given algebra."""
    try:
        return _parse(text, algebra)
    except (ParseError, ValueError) as error:  # ValueError: an over-long literal
        raise _lexical_error(text) or error from None


def _parse(text, algebra):
    """The element ``text`` denotes, read one ``_TERM`` match at a time;
    the first term the grammar rejects raises its error, as it would on
    lexically clean text."""
    dim, name = algebra.dim, algebra.name
    re, im, den = [0] * dim, [0] * dim, 1
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, neg, a, b, op, c, d, i, close, n, nd, ni, bare_i, k, prime = m.groups()
        if (not sign) if pos else sign == "+":
            raise _syntax_error(m)
        at = None  # the position of the term's 'i'
        if n:  # n/nd, or (n/nd) i
            if nd == "":
                raise _syntax_error(m)
            x, q = int(n), int(nd) if nd else 1
            if not q:
                raise ParseError("zero denominator", m.start("nd"))
            y = 0
            if ni:
                x, y, at = 0, x, m.start("ni")
        elif neg is not None:  # (a/b + c/d i) = (a d/g + c b/g i) / lcm(b, d)
            if not (a and op and c and i and close) or b == "" or d == "":
                raise _syntax_error(m)
            x, p = int(a), int(b) if b else 1
            if not p:
                raise ParseError("zero denominator", m.start("b"))
            y, q = int(c), int(d) if d else 1
            if not q:
                raise ParseError("zero denominator", m.start("d"))
            g = gcd(p, q)
            p, q = p // g, q // g
            x, y, q = (-x if neg else x) * q, (-y if op == "-" else y) * p, p * q * g
            at = m.start("i")
        elif bare_i:
            x, y, q, at = 0, 1, 1, m.start("bare_i")
        elif k:
            x, y, q = 1, 0, 1
        else:
            raise _syntax_error(m)
        if at is not None and not algebra.complex_field:
            raise ImaginaryScalarInRealAlgebra(f"'i' is not allowed in {name}", at)
        index = 0
        if k:
            index = int(k)
            if not 0 < index < dim:
                raise IndexOutOfRange(
                    f"basis index {index} not available in {name}", m.start("k") - 1
                )
            if bool(prime) != (index in algebra.primed):
                label = algebra.label(index)
                raise PrimeMismatch(
                    f"index {index} must be written {label} in {name}",
                    m.start("k") - 1,
                )
        if den % q:  # widen the common denominator to lcm(den, q)
            f = q // gcd(den, q)
            re, im, den = [v * f for v in re], [v * f for v in im], den * f
        scale = -(den // q) if sign == "-" else den // q
        re[index] += x * scale
        im[index] += y * scale
        pos = m.end()
        if pos == len(text):
            return _normal(algebra, (re, im), den)


def _syntax_error(m):
    """The error the grammar gives for the term ``m`` that ``_parse``
    rejects: at its sign, at the first part missing from it, at a zero
    denominator read before that part, or where a term was expected.
    Exact for lexically clean text, the only text whose parse error is
    reported."""
    sign = m["sign"]
    if (not sign) if m.pos else sign == "+":
        what = "'+', '-' or end of expression" if m.pos else "a term"
        return ParseError(f"expected {what}", m.start("sign"))
    for name, what in _PARTS:
        part = m[name]
        if part == "":
            return ParseError(f"expected {what}", m.start(name))
        if part and name in ("b", "d") and not part.strip("0"):
            return ParseError("zero denominator", m.start(name))
    return ParseError("expected a term", m.end())  # nothing read after the sign


def _lexical_error(text):
    """The first lexical error in ``text`` as a ``ParseError``, or None."""
    for m in _TOKEN.finditer(text):
        digits, bare_e, other = m.groups()
        if digits:
            try:
                int(digits)
            except ValueError:  # longer than the interpreter's int-string limit
                return ParseError("integer literal too long", m.start())
        elif bare_e:
            return ParseError("expected a digit after 'e'", m.start())
        elif other:
            return ParseError(f"unexpected character {other!r}", m.start())
    return None


def _rational_text(n, d):
    """The reduced text of n/d for ints n and d > 0: ``n`` or ``n/d``.  It
    is the one place an int becomes text, so a part past the int-string
    limit raises PreconditionViolation here."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # longer than the interpreter's int-string limit
        raise PreconditionViolation("result has an integer too long to print") from None


def _term_text(label, re, im, den):
    """'+' or '-', then the term (re + im i)/den times the basis label
    (empty for the unit); a magnitude 1 is elided before 'i' or a label."""
    if re and im:  # parenthesized, the imaginary magnitude always explicit
        inner = f"{_rational_text(re, den)}{'+' if im > 0 else '-'}"
        return f"+({inner}{_rational_text(abs(im), den)}i){label}"
    x, unit = (im, "i") if im else (re, "")
    mag = abs(x)
    body = unit if mag == den and (unit or label) else _rational_text(mag, den) + unit
    return f"{'-' if x < 0 else '+'}{body}{label}"


def format_element(a):
    """Canonical text form of an element; inverse of ``parse_element``."""
    Element._check_same(a, a)
    (re, im), den, out = a.num, a.den, []
    for k, x in enumerate(re):
        y = im[k] if im else 0
        if x or y:
            out.append(_term_text(a.algebra.label(k) if k else "", x, y, den))
    return "".join(out).lstrip("+") or "0"


def format_scalar(x):
    """Canonical text form of a bare scalar (norms, inner products)."""
    den, ((re,), im) = integer_form((x,))
    return _term_text("", re, im[0] if im else 0, den).lstrip("+")
