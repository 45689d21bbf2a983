"""Seeded input generation for the benchmark.

Deliberately independent of ``compalg.sampling``: a change to the library's
own samplers must not change the load the benchmark applies.  Conjugate
pairs are built with ``*``, ``conjugate`` and ``norm`` only, never with the
library's ``sandwich``, so a fault there cannot shape the inputs.  Element
text is written by this module's own writer, not ``format_element``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from compalg import Element, GaussRational

ALGEBRA_NAMES = ("H", "Hs", "Hc", "O", "Os", "Oc")
INDEFINITE = ("Hs", "Hc", "Os", "Oc")

# frac(i * GOLDEN) is a low-discrepancy sequence: values drawn from it spread
# evenly over their range in every prefix of an op stream.
GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Profile:
    """Coefficient shape of generated elements."""

    max_abs: int
    frac_prob: float
    max_den: int


SMALL = Profile(max_abs=4, frac_prob=0.15, max_den=4)
DEEP = Profile(max_abs=5, frac_prob=0.3, max_den=4)


def rational(rng, prof, fraction):
    n = rng.choice((1, -1)) * rng.randint(1, prof.max_abs)
    return Fraction(n, rng.randint(2, prof.max_den)) if fraction else n


def element(rng, alg, prof, pure=False):
    """A dense element: every coefficient nonzero.

    The shape is fixed and only the positions and values are random:
    ``frac_prob`` of the coefficients (at least one) are fractions, and
    over a complex field half of them are non-real.  Op costs then vary
    little from seed to seed.
    """
    positions = list(range(1 if pure else 0, alg.dim))
    n = len(positions)
    fractions = set(rng.sample(positions, max(1, round(prof.frac_prob * n))))
    gaussian = set(rng.sample(positions, n // 2)) if alg.complex_field else set()
    coeffs = [0] * alg.dim
    for k in positions:
        c = rational(rng, prof, k in fractions)
        if k in gaussian:
            c = GaussRational(c, rational(rng, prof, False))
        coeffs[k] = c
    return Element(alg, coeffs)


def sparse_element(rng, alg, max_abs, density):
    """Small integer coefficients, each zero with probability 1 - density;
    over a complex field each is non-real with probability 1/2."""
    coeffs = [0] * alg.dim
    for k in range(alg.dim):
        if rng.random() < density:
            c = rng.randint(-max_abs, max_abs)
            if alg.complex_field and rng.random() < 0.5:
                c = GaussRational(c, rng.randint(-max_abs, max_abs))
            coeffs[k] = c
    return Element(alg, coeffs)


def invertible(rng, alg, prof, pure=False):
    while True:
        x = element(rng, alg, prof, pure=pure)
        if x.norm() != 0:
            return x


def conjugate_by(r, a):
    """r a r^-1 computed as (r a) conj(r) / N(r)."""
    return ((r * a) * r.conjugate()) * (Fraction(1) / r.norm())


def _null_triple(rng, alg, neg1, pos, neg2):
    # (u^2 - w^2)^2 + (2uw)^2 = (u^2 + w^2)^2: zero norm on a (-,+,-) triple
    u, w = rng.randint(1, 5), rng.randint(0, 5)
    coeffs = [0] * alg.dim
    coeffs[neg1] = rng.choice((1, -1)) * (u * u - w * w)
    coeffs[pos] = rng.choice((1, -1)) * (u * u + w * w)
    coeffs[neg2] = rng.choice((1, -1)) * 2 * u * w
    return Element(alg, coeffs)


def _null_leg(rng, alg, j, k):
    # w (e_j + s i e_k) has norm w^2 - w^2 = 0
    w = rng.randint(1, 4)
    coeffs = [0] * alg.dim
    coeffs[j] = w
    coeffs[k] = GaussRational(0, rng.choice((1, -1)) * w)
    return Element(alg, coeffs)


def orthogonal_null_pair(rng, alg, scramble=(), multiple=False):
    """Nonzero pure a, b with N(a) = N(b) = inner(a, b) = 0.

    Over Hs and Hc, and over Os and Oc with ``multiple``, b is a multiple
    of a.  Otherwise (Os, Oc) a and b have disjoint support.  Conjugating
    both through the invertible elements in ``scramble`` keeps all three
    conditions while moving the pair off the coordinate axes.
    """
    split = not alg.complex_field
    if split:
        a = _null_triple(rng, alg, 1, 2, 3)
    else:
        a = _null_leg(rng, alg, *rng.sample((1, 2, 3), 2))
    if multiple or alg.dim == 4:
        if split:
            mu = rng.choice((1, -1)) * rng.choice((1, 2, 3, Fraction(1, 2)))
        else:
            mu = GaussRational(rng.randint(1, 3), rng.randint(-3, 3))
        b = a * mu
    elif split:
        b = _null_triple(rng, alg, 5, 6, 7)
    else:
        j, k, l, m = rng.sample((4, 5, 6, 7), 4)
        b = _null_leg(rng, alg, j, k)
        if rng.random() < 0.5:
            # a second leg on the other two indices keeps b null
            b = b + _null_leg(rng, alg, l, m)
    for r in scramble:
        a, b = conjugate_by(r, a), conjugate_by(r, b)
    return a, b


# -- text -------------------------------------------------------------------


def _term(k, c, alg):
    label = "" if k == 0 else f"e{k}'" if k in alg.primed else f"e{k}"
    re, im = (c.re, c.im) if isinstance(c, GaussRational) else (c, 0)
    if im == 0:
        return ("-" if re < 0 else "+"), f"{abs(re)}{label}"
    if re == 0:
        return ("-" if im < 0 else "+"), f"{abs(im)}i{label}"
    return "+", f"({re}{'+' if im > 0 else '-'}{abs(im)}i){label}"


def element_text(x):
    """A parseable (not necessarily canonical) text form of a nonzero x."""
    out = []
    for k, c in enumerate(x.coeffs):
        if c != 0:
            sign, body = _term(k, c, x.algebra)
            out.append(body if sign == "+" and not out else sign + body)
    return "".join(out)


def coeff_bits(x):
    """Largest numerator or denominator bit length among x's coefficients."""
    best = 0
    for c in x.coeffs:
        for part in (c.re, c.im) if isinstance(c, GaussRational) else (c,):
            q = Fraction(part)
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best
