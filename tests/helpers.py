"""Independent oracles for the test suite.

Everything here recomputes algebra operations through a different route
than the library: quaternion products are explicit component formulas (not
table lookups), dim-8 products go through literal pair arithmetic, norms
are hard-coded signature sums, and null spaces come from sympy.  Agreement
between these and the library is what the structural tests assert.

``scalar_mul``, ``scalar_inverse``, ``scalar_sandwich`` and
``rref_nullspace`` are the per-scalar ``Fraction``/``GaussRational``
routes the library took before its fraction-free integer kernel; the
kernel must agree with them exactly.  ``product_commutant_matrix`` builds
the twisted-commutant matrix from element products, column by column, as
the library did before it read the matrix off the structure table.
``table_bilinear`` is the interpreted table loop the library ran before it
compiled one straight-line product per structure table; each algebra's
``mul`` must give the same list on every pair of int vectors.
``reference_parse`` is the character-loop lexer and recursive-descent
parser the library used before its one-regex lexer; ``parse_element`` must
give the same element, or raise the same error class with the same message
and position, on every input.  ``reference_format`` and
``reference_format_scalar`` are the formatter the library used before it
printed straight from the integer form: they read the exact-scalar
``coeffs`` view; ``format_element`` and ``format_scalar`` must give the
same text.  ``gauss_oracle`` and ``gauss_hash`` compute the scalar
operations of ``GaussRational`` from the textbook ``(re, im)`` formulas;
every operator, ``exact_div`` and ``hash`` must give the same value, the
same type and the same part types.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import sympy

from compalg import (
    Element,
    GaussRational,
    ImaginaryScalarInRealAlgebra,
    IndexOutOfRange,
    ParseError,
    PrimeMismatch,
    exact_div,
)

# signature of the norm form per algebra, unit first
SIGNATURE = {
    "H": (1, 1, 1, 1),
    "Hs": (1, -1, 1, -1),
    "Hc": (1, 1, 1, 1),
    "O": (1,) * 8,
    "Os": (1, -1, 1, -1, 1, -1, 1, -1),
    "Oc": (1,) * 8,
}


def quat_mul(u, v):
    # e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, squares -1
    return (
        u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3],
        u[0] * v[1] + u[1] * v[0] + u[2] * v[3] - u[3] * v[2],
        u[0] * v[2] + u[2] * v[0] + u[3] * v[1] - u[1] * v[3],
        u[0] * v[3] + u[3] * v[0] + u[1] * v[2] - u[2] * v[1],
    )


def split_quat_mul(u, v):
    # e1 e2 = e3 = -e2 e1, e2 e3 = e1 = -e3 e2, e3 e1 = -e2 = -e1 e3,
    # e1^2 = e3^2 = +1, e2^2 = -1
    return (
        u[0] * v[0] + u[1] * v[1] - u[2] * v[2] + u[3] * v[3],
        u[0] * v[1] + u[1] * v[0] + u[2] * v[3] - u[3] * v[2],
        u[0] * v[2] + u[2] * v[0] + u[1] * v[3] - u[3] * v[1],
        u[0] * v[3] + u[3] * v[0] + u[1] * v[2] - u[2] * v[1],
    )


def conj4(u):
    return (u[0], -u[1], -u[2], -u[3])


def _pair_mul(qmul, c1, c2):
    m1, n1 = c1[:4], (c1[4], c1[5], -c1[6], c1[7])
    m2, n2 = c2[:4], (c2[4], c2[5], -c2[6], c2[7])
    t1, t2 = qmul(m1, m2), qmul(conj4(n2), n1)
    m = tuple(a - b for a, b in zip(t1, t2))
    t3, t4 = qmul(n1, conj4(m2)), qmul(n2, m1)
    n = tuple(a + b for a, b in zip(t3, t4))
    return (m[0], m[1], m[2], m[3], n[0], n[1], -n[2], n[3])


def oracle_mul(algebra_name, c1, c2):
    """Coefficient vectors in, coefficient vector out; no structure tables."""
    if algebra_name in ("H", "Hc"):
        return quat_mul(c1, c2)
    if algebra_name == "Hs":
        return split_quat_mul(c1, c2)
    if algebra_name in ("O", "Oc"):
        return _pair_mul(quat_mul, c1, c2)
    if algebra_name == "Os":
        return _pair_mul(split_quat_mul, c1, c2)
    raise ValueError(algebra_name)


def oracle_norm(algebra_name, coeffs):
    return sum(g * c * c for g, c in zip(SIGNATURE[algebra_name], coeffs))


def oracle_inner(algebra_name, c1, c2):
    return sum(g * x * y for g, x, y in zip(SIGNATURE[algebra_name], c1, c2))


def scalar_mul(algebra, c1, c2):
    """Table product with one scalar multiply-add per pair of nonzero
    coefficients."""
    out = [0] * algebra.dim
    for i, x in enumerate(c1):
        if x == 0:
            continue
        row = algebra.table[i]
        for j, y in enumerate(c2):
            if y == 0:
                continue
            k, s = row[j]
            out[k] = out[k] + x * y if s == 1 else out[k] - x * y
    return tuple(out)


def table_bilinear(table, u, v):
    """The table product of two int vectors, skipping zero coefficients."""
    out = [0] * len(u)
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    for x, row in zip(u, table):
        if x:
            for j, y in nonzero:
                k, s = row[j]
                if s > 0:
                    out[k] += x * y
                else:
                    out[k] -= x * y
    return out


def _conj(coeffs):
    return (coeffs[0],) + tuple(-c for c in coeffs[1:])


def scalar_inverse(algebra, coeffs):
    """conj(a) / N(a), divided coefficient by coefficient."""
    n = oracle_norm(algebra.name, coeffs)
    return tuple(exact_div(c, n) for c in _conj(coeffs))


def scalar_sandwich(algebra, p, a):
    """(p a) conj(p) / N(p) through ``scalar_mul``."""
    n = oracle_norm(algebra.name, p)
    left = scalar_mul(algebra, scalar_mul(algebra, p, a), _conj(p))
    return tuple(exact_div(c, n) for c in left)


def rref_nullspace(matrix):
    """Canonical null-space basis by Gauss-Jordan elimination on exact
    scalars: every pivot row is divided through by its pivot."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        rows[r] = [exact_div(x, pivot) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for rr, c in enumerate(pivots):
            v[c] = -rows[rr][f]
        basis.append(tuple(v))
    return basis


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


def reference_parse(text, algebra):
    """``parse_element`` through the reference lexer and parser."""
    return _Parser(_tokenize(text), algebra).parse()


def _reference_term_text(k, c, algebra):
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


def reference_format(a):
    """``format_element`` from the exact-scalar ``coeffs`` view."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        parts.append(_reference_term_text(k, c, a.algebra))
    if not parts:
        return "0"
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign}{body}")
    return "".join(out)


def reference_format_scalar(x):
    """``format_scalar`` from the exact scalar itself."""
    if x == 0:
        return "0"
    sign, body = _reference_term_text(0, x, None)
    return body if sign == "+" else f"-{body}"


def _gauss_parts(x):
    if isinstance(x, GaussRational):
        return x.re, x.im, True
    return x, 0, False


def _normal_rational(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def gauss_oracle(op, x, y=None):
    """The result of ``op`` ("neg", "==", "+", "-", "*", "/" or
    "exact_div") on the exact scalars x and y, from the (re, im) formulas:
    a GaussRational unless "exact_div" divides two rationals, a bool for
    "==", and the ``ZeroDivisionError`` itself for a zero divisor.
    Quotient parts are in normal form (int when integral)."""
    a, b, x_gauss = _gauss_parts(x)
    if op == "neg":
        return GaussRational(-a, -b)
    c, d, y_gauss = _gauss_parts(y)
    if op == "==":
        return a == c and b == d
    if op == "+":
        return GaussRational(a + c, b + d)
    if op == "-":
        return GaussRational(a - c, b - d)
    if op == "*":
        # a real factor r scales both parts: (a + b i) r = a r + b r i
        if not y_gauss:
            return GaussRational(a * c, b * c)
        if not x_gauss:
            return GaussRational(a * c, a * d)
        return GaussRational(a * c - b * d, a * d + b * c)
    # (a + b i) / (c + d i) = ((a c + b d) + (b c - a d) i) / (c^2 + d^2)
    n = c * c + d * d
    if n == 0:
        gauss = " Gaussian rational" if y_gauss else ""
        return ZeroDivisionError(f"division by zero{gauss}")
    re = _normal_rational(Fraction(a * c + b * d) / n)
    im = _normal_rational(Fraction(b * c - a * d) / n)
    if op == "exact_div" and not (x_gauss or y_gauss):
        return re
    return GaussRational(re, im)


class _HashValue:
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def gauss_hash(x):
    """complex's recipe, hash(re) + sys.hash_info.imag * hash(im), folded
    the way Python folds any ``__hash__`` result."""
    return hash(_HashValue(hash(x.re) + sys.hash_info.imag * hash(x.im)))


def product_commutant_matrix(a, b):
    """The matrix of p -> p*a - b*p: column j holds the coefficients of
    e_j*a - b*e_j, from two element products."""
    alg = a.algebra
    cols = [(alg.basis(j) * a - b * alg.basis(j)).coeffs for j in range(alg.dim)]
    return tuple(tuple(col[i] for col in cols) for i in range(alg.dim))


def is_normal(x):
    """True for a scalar in normal form: an int when integral, a reduced
    Fraction otherwise, and a GaussRational only with a nonzero imaginary
    part and normal-form parts."""
    if type(x) is GaussRational:
        return x.im != 0 and is_normal(x.re) and is_normal(x.im)
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def grid_single_conjugator(algebra_name, basis):
    """Coefficients t of the first point of the grid {0, 1, 2}^d, in
    lexicographic order, where the norm of sum(t_r v_r) is nonzero; None
    when the norm form vanishes on the whole grid.

    The norm form restricted to span(basis) has degree two in each
    parameter, so by the Combinatorial Nullstellensatz it vanishes on this
    grid only if it vanishes identically.
    """
    d = len(basis)
    gram = [[oracle_inner(algebra_name, u, v) for v in basis] for u in basis]
    for t in itertools.product((0, 1, 2), repeat=d):
        if sum(t[r] * t[s] * gram[r][s] for r in range(d) for s in range(d)) != 0:
            return t
    return None


def to_sympy(x):
    if isinstance(x, GaussRational):
        return sympy.Rational(x.re) + sympy.Rational(x.im) * sympy.I
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.Integer(x)


def sympy_matrix(grid):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in grid])


def sympy_nullity(grid):
    m = sympy_matrix(grid)
    return m.cols - m.rank()


def same_span(vectors_a, vectors_b):
    """Exact span equality of two vector lists, via sympy ranks."""
    ma = sympy.Matrix([[to_sympy(x) for x in v] for v in vectors_a])
    mb = sympy.Matrix([[to_sympy(x) for x in v] for v in vectors_b])
    stacked = ma.col_join(mb)
    return ma.rank() == mb.rank() == stacked.rank()


from compalg import H, Hc, Hs, O, Oc, Os  # noqa: E402

# Adversarial negator inputs: each chosen so every earlier candidate in the
# scan list has zero norm, forcing the stated position to fire.  Over the
# reals a zero-norm candidate has zero coefficients; over the Gaussian
# rationals a nonzero candidate can still be null (1 + i^2 = 0).
NEGATOR_POSITION_CASES = [
    (O, (0, 1, 0, 0, 0, 0, 0, 0), 0),
    (O, (0, 0, 0, 1, 0, 0, 0, 0), 1),
    (O, (0, 0, 0, 0, 1, 1, 0, 0), 2),
    (O, (0, 0, 0, 0, 0, 0, 1, 0), 3),
    (Os, (0, 0, 1, 0, 0, 0, 0, 0), 0),
    (Os, (0, 0, 0, 0, 0, 0, 1, 0), 1),
    (Os, (0, 1, 0, 0, 0, 0, 0, 0), 2),
    (Os, (0, 0, 0, 0, 0, 1, 0, 0), 3),
    (Oc, (0, 1, 0, 0, 0, 0, 0, 0), 0),
    (Oc, (0, 0, 0, 1, 0, 0, 0, 0), 1),
    (Oc, (0, 1, GaussRational(0, 1), 1, 0, 0, 0, 0), 2),
    (Oc, (0, 0, 0, 0, 1, 0, 0, 0), 3),
    (Oc, (0, 0, 0, 0, 0, 1, 0, 0), 4),
    (Oc, (0, 0, 0, 0, 0, 0, 1, 0), 5),
    (Oc, (0, 0, 0, 0, 0, 0, 0, 1), 6),
    (H, (0, 1, 0, 0), 0),
    (H, (0, 0, 0, 1), 1),
    (Hc, (0, 1, 0, 0), 0),
    (Hc, (0, 0, 0, 1), 1),
    (Hc, (0, 1, GaussRational(0, 1), 1), 2),
    (Hs, (0, 1, 0, 0), 0),
    (Hs, (0, 0, 1, 0), 1),
]
