"""The integer kernel against the per-scalar oracles.

Products, inner products, norms, inverses and sandwiches on all six
algebras must equal the component-formula oracles and the per-scalar
table loop exactly, and come back in normal form; so must the linear
operations against coefficient-wise scalar arithmetic.  ``nullspace`` must
return the very vectors of the Gauss-Jordan oracle, in the same order.
"""

import random
from fractions import Fraction

import pytest

from compalg import (
    ALGEBRAS,
    GaussRational,
    embed_in_cayley,
    nullspace,
    sandwich,
    twisted_commutant_matrix,
)

from helpers import (
    is_normal,
    oracle_inner,
    oracle_mul,
    oracle_norm,
    rref_nullspace,
    scalar_inverse,
    scalar_mul,
    scalar_sandwich,
)

ALL = sorted(ALGEBRAS)


def _rational(rng, bits):
    n = rng.randint(-(2**bits), 2**bits)
    return rng.choice([n, Fraction(n, rng.randint(1, 2**bits))])


def _mixed(rng, complex_field, bits=3):
    """int, Fraction or zero; over Q(i) also GaussRational, with a zero
    imaginary part now and then."""
    kind = rng.randrange(5 if complex_field else 3)
    if kind == 0:
        return 0
    if kind <= 2:
        return _rational(rng, bits)
    im = 0 if kind == 3 else _rational(rng, bits)
    return GaussRational(_rational(rng, bits), im)


def _element(rng, alg, bits=3):
    return alg.element([_mixed(rng, alg.complex_field, bits) for _ in range(alg.dim)])


def _operands(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"kernel:{name}")
    pairs = [(alg.basis(i), alg.basis(j)) for i in range(alg.dim) for j in range(alg.dim)]
    pairs += [(_element(rng, alg), _element(rng, alg)) for _ in range(40)]
    pairs += [(_element(rng, alg, 256), _element(rng, alg, 300)) for _ in range(6)]
    if alg.complex_field:
        # real parts written as GaussRational(q, 0)
        q = Fraction(-7, 3)
        pairs.append((alg.element([GaussRational(q, 0)] * alg.dim), alg.basis(1)))
    return alg, pairs


def _bits(x):
    parts = (x.re, x.im) if isinstance(x, GaussRational) else (x,)
    return max(Fraction(p).numerator.bit_length() for p in parts)


def test_operands_reach_256_bits():
    for name in ALL:
        _, pairs = _operands(name)
        assert max(_bits(c) for a, b in pairs for c in a.coeffs + b.coeffs) >= 256


@pytest.mark.parametrize("name", ALL)
def test_products_match_oracles(name):
    alg, pairs = _operands(name)
    for a, b in pairs:
        got = (a * b).coeffs
        assert got == oracle_mul(name, a.coeffs, b.coeffs)
        assert got == scalar_mul(alg, a.coeffs, b.coeffs)
        assert all(is_normal(c) for c in got)


@pytest.mark.parametrize("name", ALL)
def test_inner_and_norm_match_oracles(name):
    _, pairs = _operands(name)
    for a, b in pairs:
        for got, want in (
            (a.inner(b), oracle_inner(name, a.coeffs, b.coeffs)),
            (a.norm(), oracle_norm(name, a.coeffs)),
        ):
            assert got == want and is_normal(got)


@pytest.mark.parametrize("name", ALL)
def test_inverse_and_sandwich_match_oracles(name):
    alg, pairs = _operands(name)
    checked = 0
    for p, a in pairs:
        if oracle_norm(name, p.coeffs) == 0:
            continue
        inv = p.inverse().coeffs
        assert inv == scalar_inverse(alg, p.coeffs)
        got = sandwich(p, a).coeffs
        assert got == scalar_sandwich(alg, p.coeffs, a.coeffs)
        assert all(is_normal(c) for c in inv + got)
        checked += 1
    assert checked > len(pairs) // 2


def _scalars(alg, b):
    """Field scalars for the scalar operands: two of b's coefficients, and
    values written outside normal form."""
    out = list(b.coeffs[:2]) + [Fraction(4, 2), -3, Fraction(-5, 6)]
    if alg.complex_field:
        out += [GaussRational(Fraction(-7, 3), 0), GaussRational(1, -2)]
    return out


@pytest.mark.parametrize("name", ALL)
def test_linear_operations_match_scalar_arithmetic(name):
    alg, pairs = _operands(name)
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        cases = [
            (a + b, [p + q for p, q in zip(x, y)]),
            (a - b, [p - q for p, q in zip(x, y)]),
            (-a, [-p for p in x]),
            (a.conjugate(), [x[0]] + [-p for p in x[1:]]),
            (a.pure_part(), [0] + list(x[1:])),
            (embed_in_cayley(a), list(x) + [0] * (8 - alg.dim)),
        ]
        for s in _scalars(alg, b):
            cases += [
                (a + s, [x[0] + s] + list(x[1:])),
                (s + a, [s + x[0]] + list(x[1:])),
                (a - s, [x[0] - s] + list(x[1:])),
                (s - a, [s - x[0]] + [-p for p in x[1:]]),
                (a * s, [p * s for p in x]),
                (s * a, [s * p for p in x]),
            ]
        for got, want in cases:
            assert got.coeffs == tuple(want)
            assert all(is_normal(c) for c in got.coeffs)


@pytest.mark.parametrize("name", ALL)
def test_non_normal_input_has_normal_twin(name):
    alg = ALGEBRAS[name]
    q, i, pad = Fraction(-7, 3), GaussRational(0, 1), [0] * (alg.dim - 2)
    twins = [
        ([Fraction(2, 1), 0] + pad, [2, 0] + pad),
        ([Fraction(6, 3), Fraction(1, 2)] + pad, [2, Fraction(1, 2)] + pad),
    ]
    if alg.complex_field:
        twins += [
            ([GaussRational(q, 0)] * alg.dim, [q] * alg.dim),
            ([GaussRational(3, 0), i] + pad, [3, i] + pad),
        ]
    for raw, normal in twins:
        a, b = alg.element(raw), alg.element(normal)
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == tuple(normal)
        assert all(is_normal(c) for c in a.coeffs)


def _matrix(rng, nrows, ncols, rank, complex_field, bits):
    """A nrows x ncols matrix of rank at most ``rank``: a product of random
    nrows x rank and rank x ncols factors."""
    left = [[_mixed(rng, complex_field, bits) for _ in range(rank)] for _ in range(nrows)]
    right = [[_mixed(rng, complex_field, bits) for _ in range(ncols)] for _ in range(rank)]
    return tuple(
        tuple(sum((left[i][t] * right[t][j] for t in range(rank)), 0) for j in range(ncols))
        for i in range(nrows)
    )


def _matrices(complex_field):
    rng = random.Random(f"nullspace:{complex_field}")
    out = [
        ((0, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 3), (Fraction(1, 2), 5)),
        ((1, 2, 3), (1, 2, 3), (0, 0, 0), (4, 5, 6)),
        ((0, 0, 0, 0), (2**300, -(2**299), 3, Fraction(1, 2**257)), (0, 0, 0, 0)),
    ]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rank = rng.randint(1, min(nrows, ncols))
        m = _matrix(rng, nrows, ncols, rank, complex_field, rng.choice([3, 3, 64, 260]))
        if rng.random() < 0.3:
            # duplicate a row and insert a zero row
            m = m + (m[0], (0,) * ncols)
        out.append(m)
    return out


@pytest.mark.parametrize("complex_field", [False, True], ids=["rational", "gaussian"])
def test_nullspace_equals_gauss_jordan(complex_field):
    nullities = set()
    for m in _matrices(complex_field):
        got = nullspace(m)
        assert got == rref_nullspace(m)
        assert all(is_normal(x) for v in got for x in v)
        nullities.add(len(got))
    assert {0, 1, 2} <= nullities


@pytest.mark.parametrize("name", ALL)
def test_commutant_nullspace_equals_gauss_jordan(name):
    alg, pairs = _operands(name)
    for a, b in pairs[-12:]:
        for x, y in ((a.pure_part(), b.pure_part()), (a, a)):
            m = twisted_commutant_matrix(x, y)
            assert nullspace(m) == rref_nullspace(m)
