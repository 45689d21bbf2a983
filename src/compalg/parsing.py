"""Element expression parser and canonical formatter.

Grammar (whitespace insignificant)::

    element  := ['-'] term (('+'|'-') term)*
    term     := scalar | scalar basis | basis
    scalar   := rational | rational 'i' | 'i'
              | '(' rational (('+'|'-') rational 'i') ')'
    rational := integer ['/' positive-integer]
    basis    := 'e' digit ['\''] | '1'

Primes (ASCII apostrophe) are required on exactly the indices the algebra
displays primed ({1, 3} for Hs; {1, 3, 5, 7} for Os) and are rejected
elsewhere.  'i' is only accepted over the complex algebras.  Repeated basis
labels accumulate by addition.  ``format_element`` emits the canonical
form: terms in index order, zero terms omitted, unit coefficients elided,
complex coefficients with two nonzero parts parenthesized; parsing a
canonical form and formatting it again is the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Element
from .errors import CompalgError
from .scalars import GaussRational


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


_INT = "int"
_SLASH = "slash"
_PLUS = "plus"
_MINUS = "minus"
_IMAG = "imag"
_BASIS = "basis"
_LPAREN = "lparen"
_RPAREN = "rparen"
_END = "end"
# ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError("integer literal too long", start) from None
            tokens.append((_INT, value, start))
            continue
        if ch == "e":
            if i + 1 >= n or text[i + 1] not in _DIGITS:
                raise ParseError("expected a digit after 'e'", i)
            idx = int(text[i + 1])
            primed = i + 2 < n and text[i + 2] == "'"
            tokens.append((_BASIS, (idx, primed), i))
            i += 3 if primed else 2
            continue
        if ch == "i":
            tokens.append((_IMAG, None, i))
            i += 1
            continue
        simple = {"/": _SLASH, "+": _PLUS, "-": _MINUS, "(": _LPAREN, ")": _RPAREN}
        if ch in simple:
            tokens.append((simple[ch], None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_END, None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse(self):
        coeffs = [0] * self.algebra.dim
        sign = 1
        if self.peek()[0] == _MINUS:
            self.take()
            sign = -1
        while True:
            index, value = self.term()
            coeffs[index] = coeffs[index] + (value if sign == 1 else -value)
            kind, _, pos = self.take()
            if kind == _END:
                break
            if kind == _PLUS:
                sign = 1
            elif kind == _MINUS:
                sign = -1
            else:
                raise ParseError("expected '+', '-' or end of expression", pos)
        return Element(self.algebra, coeffs)

    def term(self):
        kind, _, pos = self.peek()
        if kind == _BASIS:
            return self.basis(), 1
        if kind in (_INT, _IMAG, _LPAREN):
            value = self.scalar()
            if self.peek()[0] == _BASIS:
                return self.basis(), value
            return 0, value
        raise ParseError("expected a term", pos)

    def basis(self):
        _, (idx, primed), pos = self.take()
        if not 1 <= idx < self.algebra.dim:
            raise IndexOutOfRange(
                f"basis index {idx} not available in {self.algebra.name}", pos
            )
        if primed != (idx in self.algebra.primed):
            label = self.algebra.label(idx)
            raise PrimeMismatch(
                f"index {idx} must be written {label} in {self.algebra.name}", pos
            )
        return idx

    def scalar(self):
        kind, _, pos = self.peek()
        if kind == _IMAG:
            self.take()
            return self.imaginary(1, pos)
        if kind == _INT:
            value = self.rational()
            if self.peek()[0] == _IMAG:
                _, _, ipos = self.take()
                return self.imaginary(value, ipos)
            return value
        if kind == _LPAREN:
            self.take()
            negative = False
            if self.peek()[0] == _MINUS:
                self.take()
                negative = True
            re = self.rational()
            if negative:
                re = -re
            op, _, oppos = self.take()
            if op not in (_PLUS, _MINUS):
                raise ParseError("expected '+' or '-' inside parentheses", oppos)
            im = self.rational()
            _, _, ipos = self.expect(_IMAG, "'i'")
            self.expect(_RPAREN, "')'")
            if not self.algebra.complex_field:
                raise ImaginaryScalarInRealAlgebra(
                    f"'i' is not allowed in {self.algebra.name}", ipos
                )
            return GaussRational(re, im if op == _PLUS else -im)
        raise ParseError("expected a scalar", pos)

    def imaginary(self, magnitude, pos):
        if not self.algebra.complex_field:
            raise ImaginaryScalarInRealAlgebra(
                f"'i' is not allowed in {self.algebra.name}", pos
            )
        return GaussRational(0, magnitude)

    def rational(self):
        _, num, _ = self.expect(_INT, "an integer")
        if self.peek()[0] == _SLASH:
            self.take()
            _, den, dpos = self.expect(_INT, "a positive denominator")
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Fraction(num, den)
        return num


def parse_element(text, algebra):
    """Parse an element expression over the given algebra."""
    return _Parser(_tokenize(text), algebra).parse()


def _rat(x):
    return str(x)


def _term_text(k, c, algebra):
    # returns (sign char, body without sign)
    label = algebra.label(k) if k else ""
    re, im = c.real, c.imag
    if im == 0:
        sign = "-" if re < 0 else "+"
        mag = -re if re < 0 else re
        if k == 0:
            return sign, _rat(mag)
        return sign, label if mag == 1 else f"{_rat(mag)}{label}"
    if re == 0:
        sign = "-" if im < 0 else "+"
        mag = -im if im < 0 else im
        body = "i" if mag == 1 else f"{_rat(mag)}i"
        return sign, body if k == 0 else f"{body}{label}"
    # two nonzero parts: parenthesize, imaginary magnitude always explicit
    inner = f"{_rat(re)}{'+' if im > 0 else '-'}{_rat(-im if im < 0 else im)}i"
    return "+", f"({inner}){label}"


def format_element(a):
    """Canonical text form of an element; inverse of ``parse_element``."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        parts.append(_term_text(k, c, a.algebra))
    if not parts:
        return "0"
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign}{body}")
    return "".join(out)


def format_scalar(x):
    """Canonical text form of a bare scalar (norms, inner products)."""
    if x == 0:
        return "0"
    sign, body = _term_text(0, x, None)
    return body if sign == "+" else f"-{body}"
