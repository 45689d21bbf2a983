"""Deterministic random element generators for the property suites.

All functions draw from a caller-supplied ``random.Random`` so that one
seed reproduces one sample stream on every platform.  Coefficients are
small integers with occasional fractions; everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Element, Hc, Hs, Oc, Os, _invertible
from .scalars import GaussRational


def random_rational(rng, max_abs=6, frac_prob=0.0):
    n = rng.randint(-max_abs, max_abs)
    if frac_prob and rng.random() < frac_prob:
        return Fraction(n, rng.randint(2, 4))
    return n


def random_scalar(rng, complex_field, max_abs=6, frac_prob=0.1):
    if complex_field and rng.random() < 0.5:
        return GaussRational(
            random_rational(rng, max_abs, frac_prob),
            random_rational(rng, max_abs, frac_prob),
        )
    return random_rational(rng, max_abs, frac_prob)


def random_element(rng, algebra, density=0.75, max_abs=6, frac_prob=0.1):
    coeffs = [
        random_scalar(rng, algebra.complex_field, max_abs, frac_prob)
        if rng.random() < density
        else 0
        for _ in range(algebra.dim)
    ]
    return Element(algebra, coeffs)


def random_pure_nonzero(rng, algebra, **kw):
    while True:
        a = random_element(rng, algebra, **kw)
        a = a.pure_part()
        if not a.is_zero:
            return a


def random_invertible(rng, algebra, pure=False, **kw):
    # a zero draw has norm 0, so it is drawn again
    draw = random_pure_nonzero if pure else random_element
    while True:
        a = draw(rng, algebra, **kw)
        if _invertible(a):
            return a


def _null_split_triple(rng, algebra, neg1, pos, neg2):
    # (u^2 - w^2)^2 + (2uw)^2 = (u^2 + w^2)^2 keeps the norm at zero for any
    # sign choices on a (-,+,-) index triple
    u = rng.randint(1, 5)
    w = rng.randint(0, 5)
    scale = rng.choice([1, 1, 1, 2, 3])
    coeffs = [0] * algebra.dim
    coeffs[neg1] = rng.choice([1, -1]) * (u * u - w * w) * scale
    coeffs[pos] = rng.choice([1, -1]) * (u * u + w * w) * scale
    coeffs[neg2] = rng.choice([1, -1]) * 2 * u * w * scale
    return Element(algebra, coeffs)


def _null_complex_leg(rng, algebra, j, k):
    # w*(e_j + s*i*e_k) has norm w^2 - w^2 = 0
    w = rng.choice([1, 1, 2, 3, 4])
    s = rng.choice([1, -1])
    coeffs = [0] * algebra.dim
    coeffs[j] = w
    coeffs[k] = GaussRational(0, s * w)
    return Element(algebra, coeffs)


def random_null_pure(rng, algebra, indices=None):
    """A nonzero pure element of zero norm (split and complex algebras only)."""
    if algebra is Hs:
        return _null_split_triple(rng, algebra, 1, 2, 3)
    if algebra is Os:
        pool = list(indices) if indices else [1, 2, 3, 4, 5, 6, 7]
        negs = [k for k in pool if algebra.metric[k] == -1]
        poss = [k for k in pool if algebra.metric[k] == 1]
        n1, n2 = rng.sample(negs, 2)
        return _null_split_triple(rng, algebra, n1, rng.choice(poss), n2)
    if algebra in (Hc, Oc):
        pool = list(indices) if indices else list(range(1, algebra.dim))
        j, k = rng.sample(pool, 2)
        a = _null_complex_leg(rng, algebra, j, k)
        rest = [i for i in pool if i not in (j, k)]
        if algebra is Oc and len(rest) >= 2 and rng.random() < 0.5:
            j2, k2 = rng.sample(rest, 2)
            a = a + _null_complex_leg(rng, algebra, j2, k2)
        return a
    raise ValueError(f"{algebra.name} has no nonzero null elements")


def random_orthogonal_null_pair(rng, algebra):
    """A pair of nonzero null pure elements with inner(a, b) = 0 and, of
    course, equal (zero) norms; drives the double-witness construction."""
    if algebra is Hs:
        a = random_null_pure(rng, algebra)
        lam = rng.choice([1, -1]) * rng.choice([1, 2, 3, Fraction(1, 2)])
        return a, lam * a
    if algebra is Hc:
        a = random_null_pure(rng, algebra)
        while True:
            mu = GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if mu != 0:
                break
        return a, mu * a
    if algebra is Os:
        a = _null_split_triple(rng, algebra, 1, 2, 3)
        b = _null_split_triple(rng, algebra, 5, 6, 7)
        return a, b
    if algebra is Oc:
        a = random_null_pure(rng, algebra, indices=[1, 2, 3])
        b = random_null_pure(rng, algebra, indices=[4, 5, 6, 7])
        return a, b
    raise ValueError(f"{algebra.name} has no orthogonal null pairs")
