"""The integer kernel against the per-scalar oracles.

One generator compiles each algebra's ``mul`` and ``dot`` from its term
list, and they must equal the interpreted table loop and the signature
sum on raw int vectors.  The Gaussian twins ``gauss_mul`` and
``gauss_dot`` of Hc and Oc, which the twin generator compiles from the
same terms, must equal the three-real-product formula written with
``mul`` and ``dot``, and a fresh ``import compalg`` must have compiled
neither.  The certificate must refuse, where each slot is compiled, every
one-term sign flip of the four kernels and every real/imaginary slip in
the dispatch of ``_product`` and ``_dot``, and a sandwich and its
cross-multiplied check ``_conjugates`` must take one product each and no
conjugation, and ``_conjugates(p, a, b)`` must be ``sandwich(p, a) ==
b`` on the image and on four near misses.  Products, inner products, norms, inverses and sandwiches on
all six algebras must equal the component-formula oracles and the
per-scalar table loop exactly, and come back in normal form; so must the
linear operations against coefficient-wise scalar arithmetic.
``nullspace`` must return the very vectors of the Gauss-Jordan oracle,
in the same order, and the twisted-commutant matrix, which reads the
same term list, and the basis and Gram matrix of
``single_conjugator_search`` must equal those built from element
products.
"""

import ast
import inspect
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import compalg
import compalg.core as core
from compalg import (
    ALGEBRAS,
    Algebra,
    ConsistencyError,
    GaussRational,
    H,
    Hc,
    I,
    O,
    NotInvertible,
    Oc,
    nullspace,
    sandwich,
    single_conjugator_search,
    twisted_commutant_matrix,
)
from compalg.core import (
    _conjugates,
    _dot_terms,
    _echelon,
    _entry,
    _gaussian_kernel,
    _gaussian_kernels,
    _reduce_above,
    rational,
)

from helpers import (
    is_normal,
    oracle_inner,
    oracle_mul,
    oracle_norm,
    product_commutant_matrix,
    rref_nullspace,
    scalar_inverse,
    scalar_mul,
    scalar_sandwich,
    table_bilinear,
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


def _scalar(rng, alg):
    """A nonzero field scalar: Gaussian over Q(i), else rational."""
    re = Fraction(rng.randint(1, 99), rng.randint(1, 9))
    return GaussRational(re, rng.randint(-9, 9)) if alg.complex_field else re


@pytest.mark.parametrize("name", ALL)
def test_conjugates_is_the_image_check(name):
    # the cross-multiplied check against sandwich(p, a) == b on the true
    # image and four near misses: +1 at one index, twice the denominator,
    # the negated image and another pair's image
    alg, pairs = _operands(name)
    images = [(p, a, sandwich(p, a)) for p, a in pairs if oracle_norm(name, p.coeffs)]
    verdicts = set()
    for n, (p, a, image) in enumerate(images):
        other = images[n - 1][2]
        plus_one = image + alg.basis(n % alg.dim)
        for b in (image, plus_one, image * Fraction(1, 2), -image, other):
            verdict = _conjugates(p, a, b)
            assert verdict == (sandwich(p, a) == b), (p, a, b)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    with pytest.raises(NotInvertible):
        sandwich(alg.zero(), alg.one())
    with pytest.raises(NotInvertible):
        _conjugates(alg.zero(), alg.one(), alg.one())


@pytest.mark.parametrize("name", ALL)
def test_sandwich_terms_match_oracles(name):
    # the terms 2 u0 w, 2 w0 u and N(u) conj(v) each carry weight: a with a
    # field scalar part, p pure and p a field scalar
    alg, pairs = _operands(name)
    rng = random.Random(f"sandwich-terms:{name}")
    checked = 0
    for p, a in pairs:
        s = _scalar(rng, alg)
        for p, a in ((p, a + s), (p.pure_part(), a + s), (alg.one() * s, a)):
            if oracle_norm(name, p.coeffs) == 0:
                continue
            assert sandwich(p, a).coeffs == scalar_sandwich(alg, p.coeffs, a.coeffs)
            checked += 1
    assert checked > len(pairs)


def _int_vectors(rng, dim):
    """Raw int vectors for the compiled kernels: zero, a unit, sparse,
    negative, 1-bit and at least 1024-bit entries."""
    def vec(bits, density):
        return [
            rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < density else 0
            for _ in range(dim)
        ]

    vectors = [[0] * dim, [0] * (dim - 1) + [-1], [-1] * dim, [-(2**1100)] * dim]
    vectors += [vec(1, 1.0) for _ in range(6)] + [vec(4, 0.25) for _ in range(6)]
    return vectors + [vec(1024, 0.9) for _ in range(4)]


@pytest.mark.parametrize("name", ALL)
def test_compiled_kernels_match_table_loop(name):
    alg = ALGEBRAS[name]
    vectors = _int_vectors(random.Random(f"compiled:{name}"), alg.dim)
    for u in vectors:
        for v in vectors:
            want = table_bilinear(alg.table, u, v)
            # tuples, as elements store them, and lists, as kernels return them
            for x, y in ((tuple(u), v), (u, tuple(v))):
                got = alg.mul(x, y)
                assert got == want and type(got) is list
                assert alg.dot(x, y) == oracle_inner(name, u, v)


def test_equal_tables_share_one_compiled_kernel():
    assert H.mul is Hc.mul and H.dot is Hc.dot
    assert O.mul is Oc.mul and O.dot is Oc.dot
    assert len({alg.mul for alg in ALGEBRAS.values()}) == 4


def _gaussian_vectors(rng, dim):
    """Pairs (real, imaginary) of int vectors for the Gaussian kernels:
    3-bit and 300-bit entries, and zero imaginary parts."""
    def vec(bits):
        return [rng.randint(-(2**bits), 2**bits) for _ in range(dim)]

    zero = [0] * dim
    pairs = [(vec(bits), vec(bits)) for bits in (3, 3, 3, 300, 300) for _ in range(2)]
    return pairs + [(vec(3), zero), (vec(300), zero), (zero, vec(3)), (zero, zero)]


@pytest.mark.parametrize("name", ["Hc", "Oc"])
def test_gaussian_kernels_match_three_real_products(name):
    # (a + b i)(c + d i) = (p - q) + (s - p - q) i with p = a c, q = b d and
    # s = (a + b)(c + d), for the table product and the metric dot alike
    alg = ALGEBRAS[name]
    mul, dot = alg.mul, alg.dot
    gauss_mul, gauss_dot = _gaussian_kernels(alg)
    pairs = _gaussian_vectors(random.Random(f"gaussian:{name}"), alg.dim)
    for a, b in pairs:
        for c, d in pairs:
            x, y = [i + j for i, j in zip(a, b)], [i + j for i, j in zip(c, d)]
            p, q, s = mul(a, c), mul(b, d), mul(x, y)
            want = [i - j for i, j in zip(p, q)], [k - i - j for i, j, k in zip(p, q, s)]
            got = gauss_mul(tuple(a), tuple(b), c, d)
            assert got == want and type(got) is tuple
            p, q, s = dot(a, c), dot(b, d), dot(x, y)
            assert gauss_dot(a, b, tuple(c), tuple(d)) == (p - q, s - p - q)
    # one compiled pair per distinct table, kept on the algebra
    assert alg.gauss_mul is gauss_mul is _gaussian_kernel(alg.terms, alg.dim)
    dot = _dot_terms(alg.metric)
    assert alg.gauss_dot is gauss_dot is _gaussian_kernel(dot, alg.dim)


def test_import_compiles_no_gaussian_kernel():
    # compiled on first use: a fresh import compiles neither, the first
    # product of two non-real elements compiles its algebra's pair
    code = (
        "from compalg import Hc, I\n"
        "from compalg.core import _dot_terms, _gaussian_kernel as g\n"
        "print(g.cache_info().currsize, Hc.gauss_mul, Hc.gauss_dot)\n"
        "a = Hc.element([I, 1, 0, 0])\n"
        "a * a\n"
        "dot = _dot_terms(Hc.metric)\n"
        "print(g.cache_info().currsize, Hc.gauss_mul is g(Hc.terms, 4), "
        "Hc.gauss_dot is g(dot, 4))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(compalg.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 None None\n2 True True\n"


def _sign_flips(terms):
    """Every term list that differs from ``terms`` in the sign of one term."""
    for k, out in enumerate(terms):
        for t, (s, i, j) in enumerate(out):
            yield terms[:k] + (out[:t] + ((-s, i, j),) + out[t + 1 :],) + terms[k + 1 :]


def _compiling(generator, target, bad):
    """``generator``, ``_kernel`` or ``_gaussian_kernel``, except that it
    compiles ``bad``, past its cache, when it is asked for ``target``."""

    def patched(terms, n):
        return generator.__wrapped__(bad, n) if terms == target else generator(terms, n)

    return patched


# each kernel slot with the number of int vectors it takes
SLOTS = {"mul": 2, "dot": 2, "gauss_mul": 4, "gauss_dot": 4}


def _refused(alg):
    """The slots of ``alg`` that hold the certificate's stub, which raises
    ConsistencyError on any call; a compiled kernel runs on zeros."""
    out = []
    for slot, parts in SLOTS.items():
        kernel = getattr(alg, slot)
        try:
            if kernel is not None:
                kernel(*[(0,) * alg.dim] * parts)
        except ConsistencyError:
            out.append(slot)
    return out


def test_certificate_rejects_every_sign_flip(monkeypatch):
    # each one-term sign flip of a compiled kernel: mul and dot of the six
    # algebras, gauss_mul and gauss_dot of Hc and Oc, compiled on the path
    # that installs the slot, Algebra or _gaussian_kernels, and refused there
    faults = 0
    for alg in ALGEBRAS.values():
        dot = _dot_terms(alg.metric)
        slots = [("mul", alg.terms), ("dot", dot)]
        if alg.complex_field:
            slots += [("gauss_mul", alg.terms), ("gauss_dot", dot)]
        for slot, target in slots:
            generator = "_gaussian_kernel" if slot.startswith("gauss") else "_kernel"
            for bad in _sign_flips(target):
                with monkeypatch.context() as m:
                    patched = _compiling(getattr(core, generator), target, bad)
                    m.setattr(core, generator, patched)
                    fresh = Algebra(alg.name, alg.complex_field, alg.table)
                    if alg.complex_field:
                        _gaussian_kernels(fresh)
                assert _refused(fresh) == [slot], (alg.name, slot, bad)
                faults += 1
    assert faults == 368


# an operand part and the other part of the same operand
OTHER_PART = {"ur": "ui", "ui": "ur", "vr": "vi", "vi": "vr"}


def _kernel_calls(tree):
    """The calls in ``tree`` whose arguments are all operand parts."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and node.args
        and all(getattr(a, "id", None) in OTHER_PART for a in node.args)
    ]


def _dispatch_faults():
    """``(name, fault)`` for each kernel call in ``_product`` and ``_dot``:
    the call with one operand's real part read for its imaginary part or
    back, and in ``_product`` with the u and v operands exchanged (the dot
    is symmetric, so there the exchange is no fault)."""
    for name in ("_product", "_dot"):
        source = textwrap.dedent(inspect.getsource(getattr(core, name)))
        for c, call in enumerate(_kernel_calls(ast.parse(source))):
            edits = list(range(len(call.args)))
            if name == "_product":
                edits.append("swap")
            for edit in edits:
                tree = ast.parse(source)
                args = _kernel_calls(tree)[c].args
                if edit == "swap":
                    half = len(args) // 2
                    args[:] = args[half:] + args[:half]
                else:
                    args[edit].id = OTHER_PART[args[edit].id]
                namespace = dict(vars(core))
                exec(compile(tree, name, "exec"), namespace)
                yield f"{name} call {c} {edit}", namespace[name]


def test_certificate_rejects_every_dispatch_fault(monkeypatch):
    # the certificate runs through _product and _dot, so a slip in their
    # real/imaginary dispatch is refused with the kernel it feeds
    faults = list(_dispatch_faults())
    assert len(faults) == 34
    for fault, fn in faults:
        name = fault.split()[0]
        with monkeypatch.context() as m:
            m.setattr(core, name, fn)
            fresh = Algebra("Hc", True, Hc.table)
            _gaussian_kernels(fresh)
        slots = ("mul", "gauss_mul") if name == "_product" else ("dot", "gauss_dot")
        assert _refused(fresh) in ([slots[0]], [slots[1]]), fault


def test_sandwich_and_conjugates_take_one_product(monkeypatch):
    # no per-call re-check and no conjugation: u v conj(u) is read off the
    # one product w = u v as 2 u0 w - 2 w0 u + N(u) conj(v)
    calls, conjs = [], []
    product = core._product
    monkeypatch.setattr(core, "_product", lambda *a: calls.append(a) or product(*a))
    monkeypatch.setattr(core, "_conj", lambda u: conjs.append(u))
    checked = 0
    for name in ALL:
        alg, pairs = _operands(name)
        for p, a in pairs[-6:]:
            if oracle_norm(name, p.coeffs) == 0:
                continue
            want = scalar_sandwich(alg, p.coeffs, a.coeffs)
            calls.clear()
            got = sandwich(p, a)
            assert got.coeffs == want and len(calls) == 1
            calls.clear()
            assert _conjugates(p, a, got) and len(calls) == 1
            checked += 1
    assert checked >= 30 and conjs == []


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


@pytest.mark.parametrize(
    "n,d,value",
    [(12, 12, 1), (-6, 3, -2), (6, -4, Fraction(-3, 2)), (0, 12, 0), (5, 1, 5)],
)
def test_rational_is_in_normal_form(n, d, value):
    x = rational(n, d)
    assert x == value
    assert type(x) is type(value)


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
    if complex_field:
        out += [
            ((-2, 1, 0), (I, 3, 1 + I)),  # a negative real pivot above a non-real row
            ((1 + I, 2 + 2 * I, 3), (1, 2, 3 - 3 * I)),
            ((1, 2, 3, 4), (2, 4, 6, 8), (I, 0, 0, 1)),  # a real block
            ((2 * I, 4 * I, -I),),
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


def _integer_rows(rng, n, gaussian):
    """Integer-form rows of n columns and rank at most a random r, 0 and n
    included: a product of sparse nrows x r and r x n Gaussian integer
    factors (real ones unless ``gaussian``), an all-zero imaginary part
    written as None or as zeros."""
    nrows = rng.randint(1, 8)
    rank = rng.randint(0, min(nrows, n))

    def z():
        if rng.random() < 0.4:
            return 0, 0
        return rng.randint(-9, 9), rng.randint(-9, 9) if gaussian else 0

    left = [[z() for _ in range(rank)] for _ in range(nrows)]
    right = [[z() for _ in range(n)] for _ in range(rank)]
    rows = []
    for x in left:
        terms = [[(p, s, *right[r][k]) for r, (p, s) in enumerate(x)] for k in range(n)]
        re = [sum(p * q - s * t for p, s, q, t in col) for col in terms]
        im = [sum(p * t + s * q for p, s, q, t in col) for col in terms]
        rows.append((re, im if any(im) else rng.choice([None, im])))
    return rows


def _flipped(u):
    re, im = u
    return re[::-1], im and im[::-1]


def _entries(rows, n):
    return [[_entry(u, k) for k in range(n)] for u in rows]


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_echelon_pivots_in_the_given_column_order(gaussian):
    # right-to-left pivoting is the left-to-right elimination of the
    # reversed rows, reversed back: the same rows, entry by entry, and
    # pivot n - 1 - c for its pivot c, also once reduced above the pivots
    rng = random.Random(f"echelon-order:{gaussian}")
    ranks = set()
    for n in range(1, 9):
        for _ in range(40):
            rows = _integer_rows(rng, n, gaussian)
            want, ref_pivots = _echelon([_flipped(u) for u in rows], range(n))
            got, pivots = _echelon(rows, range(n - 1, -1, -1))
            assert pivots == [n - 1 - c for c in ref_pivots]
            assert _entries(got, n) == _entries(map(_flipped, want), n)
            _reduce_above(want, ref_pivots)
            _reduce_above(got, pivots)
            assert _entries(got, n) == _entries(map(_flipped, want), n)
            full = len(pivots) == min(n, len(rows))
            ranks.add("full" if full else "deficient" if pivots else "zero")
    assert ranks == {"zero", "deficient", "full"}


@pytest.mark.parametrize("name", ALL)
def test_commutant_nullspace_equals_gauss_jordan(name):
    alg, pairs = _operands(name)
    for a, b in pairs[-12:]:
        for x, y in ((a.pure_part(), b.pure_part()), (a, a)):
            m = twisted_commutant_matrix(x, y)
            assert nullspace(m) == rref_nullspace(m)


def _commutant_pairs(name):
    """Operands of p a = b p: int, Fraction and 256-bit entries, each as
    (a, a), (a, b), (b, a), (a, r a r^-1) and against zero; over Q(i) also
    a real operand against a non-real one, both ways round."""
    alg = ALGEBRAS[name]
    rng = random.Random(f"commutant-kernel:{name}")

    def draw(bits, fraction):
        coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(alg.dim)]
        if fraction:
            coeffs = [Fraction(c, rng.randint(1, 2**bits)) for c in coeffs]
        return alg.element(coeffs)

    zero = alg.zero()
    pairs = [(zero, zero)]
    for bits, fraction in ((3, False), (3, True), (256, False), (256, True)):
        a, b, r = draw(bits, fraction).pure_part(), draw(bits, fraction), draw(3, False)
        pairs += [(a, a), (a, b), (b, a), (a, zero), (zero, b)]
        if r.norm() != 0:
            pairs.append((a, sandwich(r, a)))
    if alg.complex_field:
        i = GaussRational(0, 1)
        real = draw(3, True).pure_part()
        r = draw(3, False) + i * draw(3, False)
        for nonreal in (sandwich(r, real), real * i + draw(3, False)):
            pairs += [(real, nonreal), (nonreal, real)]
    return pairs


@pytest.mark.parametrize("name", ALL)
def test_commutant_matches_product_oracle(name):
    alg = ALGEBRAS[name]
    nullities = set()
    for a, b in _commutant_pairs(name):
        m = product_commutant_matrix(a, b)
        got = twisted_commutant_matrix(a, b)
        assert got == m
        assert all(is_normal(x) for row in got for x in row)
        report = single_conjugator_search(a, b)
        assert report.nullspace_basis == tuple(alg.element(v) for v in rref_nullspace(m))
        basis = report.nullspace_basis
        assert report.norm_gram == tuple(tuple(u.inner(v) for v in basis) for u in basis)
        nullities.add(report.nullity)
    assert {0, 2, alg.dim} <= nullities
