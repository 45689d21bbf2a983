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

Parsing runs in two phases: one regular expression splits the whole text
into tokens, then a recursive-descent parser reads the token list.  The
split fixes which error is reported: a lexical error (an unexpected
character, 'e' without a digit, an over-long integer) anywhere in the text
comes before any syntax error, so ``e1 e2 $`` reports the '$' at 6 rather
than the missing '+' at 3.
"""

from __future__ import annotations

import re
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


# ASCII digits only: \d would also accept other scripts' digits.  Bare 'e'
# and any other character are lexical errors.
_TOKEN = re.compile(r"\s+|([0-9]+)|e([0-9])('?)|([-+/()i])|(e)|(.)", re.S)


def _tokenize(text):
    """Token list of ``(kind, value, position)`` ending in an ``end`` token;
    a kind is the symbol character itself, ``int`` or ``basis``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, index, prime, symbol, bare_e, other = m.groups()
        pos = m.start()
        if digits:
            try:
                tokens.append(("int", int(digits), pos))
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError("integer literal too long", pos) from None
        elif index:
            tokens.append(("basis", (int(index), bool(prime)), pos))
        elif symbol:
            tokens.append((symbol, None, pos))
        elif bare_e:
            raise ParseError("expected a digit after 'e'", pos)
        elif other:
            raise ParseError(f"unexpected character {other!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra

    def accept(self, kind):
        """Consume and return the next token if it is of ``kind``."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, what, kind):
        tok = self.accept(kind)
        if tok is None:
            raise ParseError(f"expected {what}", self.tokens[self.pos][2])
        return tok

    def plus_or_minus(self, what):
        """Consume the next token, which must be '+' or '-', and return it."""
        return "-" if self.accept("-") else self.expect(what, "+")[0]

    def parse(self):
        coeffs = [0] * self.algebra.dim
        sign = "-" if self.accept("-") else "+"
        while True:
            index, value = self.term()
            coeffs[index] = coeffs[index] + (value if sign == "+" else -value)
            if self.accept("end"):
                return Element(self.algebra, coeffs)
            sign = self.plus_or_minus("'+', '-' or end of expression")

    def term(self):
        tok = self.accept("basis")
        if tok:
            return self.basis(tok), 1
        value = self.scalar()
        tok = self.accept("basis")
        return (self.basis(tok) if tok else 0), value

    def basis(self, tok):
        _, (idx, primed), pos = tok
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
        if self.accept("("):
            negative = self.accept("-")
            real = self.rational()
            op = self.plus_or_minus("'+' or '-' inside parentheses")
            imag = self.rational()
            pos = self.expect("'i'", "i")[2]
            self.expect("')'", ")")
            real = -real if negative else real
            return self.gaussian(real, imag if op == "+" else -imag, pos)
        value = 1 if self.tokens[self.pos][0] == "i" else self.rational("a term")
        tok = self.accept("i")
        return self.gaussian(0, value, tok[2]) if tok else value

    def gaussian(self, real, imag, pos):
        """The scalar real + imag*i; the 'i' at ``pos`` needs a complex algebra."""
        if not self.algebra.complex_field:
            raise ImaginaryScalarInRealAlgebra(
                f"'i' is not allowed in {self.algebra.name}", pos
            )
        return GaussRational(real, imag)

    def rational(self, what="an integer"):
        num = self.expect(what, "int")[1]
        if not self.accept("/"):
            return num
        _, den, pos = self.expect("a positive denominator", "int")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(num, den)


def parse_element(text, algebra):
    """Parse an element expression over the given algebra."""
    return _Parser(_tokenize(text), algebra).parse()


def _term_text(k, c, algebra):
    # returns (sign char, body without sign)
    label = algebra.label(k) if k else ""
    re, im = c.real, c.imag
    if im == 0:
        sign = "-" if re < 0 else "+"
        mag = -re if re < 0 else re
        if k == 0:
            return sign, str(mag)
        return sign, label if mag == 1 else f"{mag}{label}"
    if re == 0:
        sign = "-" if im < 0 else "+"
        mag = -im if im < 0 else im
        body = "i" if mag == 1 else f"{mag}i"
        return sign, body if k == 0 else f"{body}{label}"
    # two nonzero parts: parenthesize, imaginary magnitude always explicit
    inner = f"{re}{'+' if im > 0 else '-'}{-im if im < 0 else im}i"
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
