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

Both directions use core's integer form: a term reads as integers
``(re, im, den)``, the numerators are summed per index over a running lcm
of the denominators into one ``core._normal`` call, and the formatter
prints from ``num``/``den``; no ``Fraction`` or ``GaussRational`` is built.

Parsing runs in two phases: one regular expression splits the whole text
into tokens, then a recursive-descent parser reads the token list.  The
split fixes which error is reported: a lexical error (an unexpected
character, 'e' without a digit, an over-long integer) anywhere in the text
comes before any syntax error, so ``e1 e2 $`` reports the '$' at 6 rather
than the missing '+' at 3.
"""

from __future__ import annotations

import re
from math import gcd

from .core import _normal, integer_form
from .errors import CompalgError


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
        re, im, den = [0] * self.algebra.dim, [0] * self.algebra.dim, 1
        sign = "-" if self.accept("-") else "+"
        while True:
            index, (x, y, d) = self.term()
            if den % d:  # widen the common denominator to lcm(den, d)
                f = d // gcd(den, d)
                re, im, den = [v * f for v in re], [v * f for v in im], den * f
            scale = den // d if sign == "+" else -(den // d)
            re[index] += x * scale
            im[index] += y * scale
            if self.accept("end"):
                return _normal(self.algebra, (re, im), den)
            sign = self.plus_or_minus("'+', '-' or end of expression")

    def term(self):
        """The term's basis index and its scalar as ``(re, im, den)``."""
        tok = self.accept("basis")
        if tok:
            return self.basis(tok), (1, 0, 1)
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
        """The scalar (re + im i)/den as ``(re, im, den)``."""
        if self.accept("("):
            sign = -1 if self.accept("-") else 1
            a, b = self.rational()
            op = self.plus_or_minus("'+' or '-' inside parentheses")
            c, d = self.rational()
            pos = self.expect("'i'", "i")[2]
            self.expect("')'", ")")
            return self.gaussian(sign * a, b, c if op == "+" else -c, d, pos)
        value = (1, 1) if self.tokens[self.pos][0] == "i" else self.rational("a term")
        tok = self.accept("i")
        return self.gaussian(0, 1, *value, tok[2]) if tok else (value[0], 0, value[1])

    def gaussian(self, a, b, c, d, pos):
        """a/b + (c/d) i as ``(re, im, den)``; the 'i' at ``pos`` needs a
        complex algebra."""
        if not self.algebra.complex_field:
            raise ImaginaryScalarInRealAlgebra(
                f"'i' is not allowed in {self.algebra.name}", pos
            )
        return a * d, c * b, b * d

    def rational(self, what="an integer"):
        """``(numerator, denominator)``, the denominator positive."""
        num = self.expect(what, "int")[1]
        if not self.accept("/"):
            return num, 1
        _, den, pos = self.expect("a positive denominator", "int")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return num, den


def parse_element(text, algebra):
    """Parse an element expression over the given algebra."""
    return _Parser(_tokenize(text), algebra).parse()


def _rational_text(n, d):
    """The reduced text of n/d for ints n and d > 0: ``n`` or ``n/d``."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
