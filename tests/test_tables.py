"""Structure-table fidelity: the defining relations hold and every unit
product agrees with the independent pair-arithmetic oracle."""

import itertools
import random

import pytest

from compalg import ALGEBRAS, Algebra, H, Hc, Hs, O, Oc, Os, core
from compalg.core import QUATERNION_TABLE, SPLIT_QUATERNION_TABLE, build_doubled_table
from compalg.errors import ConsistencyError

from helpers import oracle_mul

ALL = sorted(ALGEBRAS)


def b(alg, k):
    return alg.basis(k)


@pytest.mark.parametrize("alg", [H, Hc, O, Oc])
def test_quaternion_relations(alg):
    e1, e2, e3 = b(alg, 1), b(alg, 2), b(alg, 3)
    one = alg.one()
    assert e1 * e1 == -one and e2 * e2 == -one and e3 * e3 == -one
    assert e1 * e2 == e3 == -(e2 * e1)
    assert e2 * e3 == e1 == -(e3 * e2)
    assert e3 * e1 == e2 == -(e1 * e3)


@pytest.mark.parametrize("alg", [Hs, Os])
def test_split_relations(alg):
    e1, e2, e3 = b(alg, 1), b(alg, 2), b(alg, 3)
    one = alg.one()
    assert e1 * e1 == one and e3 * e3 == one and e2 * e2 == -one
    assert e1 * e2 == e3 == -(e2 * e1)
    assert e2 * e3 == e1 == -(e3 * e2)
    assert e3 * e1 == -e2 == -(e1 * e3)


@pytest.mark.parametrize("alg", [O, Os, Oc])
def test_doubled_basis_signs(alg):
    e = lambda k: b(alg, k)
    assert e(1) * e(4) == e(5)
    assert e(2) * e(4) == -e(6)
    assert e(3) * e(4) == e(7)


def test_real_and_complex_forms_share_one_table():
    # the doubled quaternion table is built once, for O and Oc alike
    assert H.table is Hc.table is QUATERNION_TABLE
    assert O.table is Oc.table
    assert O.table == build_doubled_table(QUATERNION_TABLE)


@pytest.mark.parametrize("name", ALL)
def test_every_unit_product_matches_oracle(name):
    alg = ALGEBRAS[name]
    for i in range(alg.dim):
        for j in range(alg.dim):
            u = [0] * alg.dim
            v = [0] * alg.dim
            u[i] = 1
            v[j] = 1
            got = (alg.element(u) * alg.element(v)).coeffs
            want = oracle_mul(name, tuple(u), tuple(v))
            assert tuple(got) == tuple(want), (name, i, j)


@pytest.mark.parametrize("name", ALL)
def test_identity_row_and_column(name):
    alg = ALGEBRAS[name]
    for j in range(alg.dim):
        assert alg.table[0][j] == (j, 1)
        assert alg.table[j][0] == (j, 1)


@pytest.mark.parametrize("name", ALL)
def test_products_are_signed_units(name):
    alg = ALGEBRAS[name]
    for row in alg.table:
        for k, s in row:
            assert 0 <= k < alg.dim and s in (1, -1)


def test_specific_products():
    assert O.basis(3) * O.basis(4) == O.basis(7)
    assert Os.basis(5) * Os.basis(5) == Os.one()
    assert Hs.basis(3) * Hs.basis(1) == -Hs.basis(2)


def test_nonassociativity_witness():
    e1, e2, e4, e7 = O.basis(1), O.basis(2), O.basis(4), O.basis(7)
    assert (e1 * e2) * e4 == e7
    assert e1 * (e2 * e4) == -e7


def test_doubling_rejects_malformed_table():
    bad = tuple(
        tuple((k, 2) if (i, j) == (1, 2) else (k, s) for j, (k, s) in enumerate(row))
        for i, row in enumerate(QUATERNION_TABLE)
    )
    with pytest.raises(ConsistencyError):
        build_doubled_table(bad)


def _doubled_products(m):
    kernel = core._kernel
    m.setattr(
        core, "_kernel", lambda t, n: lambda u, v: [2 * x for x in kernel(t, n)(u, v)]
    )
    return QUATERNION_TABLE


def _unsigned_halves(m):
    m.setattr(core, "_split_halves", lambda v: (list(v[:4]), list(v[4:])))
    m.setattr(core, "_join_halves", lambda x, y: [*x, *y])
    return QUATERNION_TABLE


def _transposed_kernel(m):
    # a kernel for e_j e_i in place of e_i e_j builds the opposite algebra
    kernel = core._kernel
    m.setattr(
        core,
        "_kernel",
        lambda t, n: kernel(tuple(tuple((s, j, i) for s, i, j in k) for k in t), n),
    )
    return QUATERNION_TABLE


@pytest.mark.parametrize(
    "fault,message",
    [
        (_doubled_products, "is not a signed basis unit"),
        (lambda m: _flip(QUATERNION_TABLE, (0, 1)), "unit row/column"),
        (_unsigned_halves, "sign convention violated at e2\\*e4"),
        (_transposed_kernel, "does not extend"),
        # an 8x8 table meets the contract, but the kernel reads 4-vectors
        (lambda m: O.table, "takes a 4x4 table"),
    ],
    ids=["unit-products", "unit-row", "sign-convention", "extension", "dimension"],
)
def test_doubling_checks_catch_an_injected_fault(monkeypatch, fault, message):
    with monkeypatch.context() as m:
        table = fault(m)
        with pytest.raises(ConsistencyError, match=message):
            build_doubled_table(table)
    assert build_doubled_table(QUATERNION_TABLE) == O.table


def _put(table, entries):
    """``table`` with the entries at the given (i, j) replaced."""
    return tuple(
        tuple(entries.get((i, j), e) for j, e in enumerate(row))
        for i, row in enumerate(table)
    )


def _flip(table, at):
    k, s = table[at[0]][at[1]]
    return _put(table, {at: (k, -s)})


def _swap(table, i, j):
    """``table`` with the products e_i e_j and e_j e_i exchanged."""
    return _put(table, {(i, j): table[j][i], (j, i): table[i][j]})


_Q = QUATERNION_TABLE
# one flipped sign anywhere, then tables whose unit pairs keep consistent
# signs but which break the signed units, the unit row or the square shape
_FLIPPED = [(i, j) for i in range(4) for j in range(4) if i != j or i == 0]
_MALFORMED = [
    pytest.param(_flip(_Q, at), id=f"at{n}") for n, at in enumerate(_FLIPPED)
] + [
    pytest.param(table, id=name)
    for name, table in {
        "square-is-2": _put(_Q, {(1, 1): (0, 2)}),
        "square-is-0": _put(_Q, {(1, 1): (0, 0)}),
        "product-is-2e3": _put(_Q, {(1, 2): (3, 2), (2, 1): (3, -2)}),
        "product-index-7": _put(_Q, {(1, 2): (7, 1), (2, 1): (7, -1)}),
        "unit-times-e1-is-e2": _put(_Q, {(0, 1): (2, 1), (1, 0): (2, 1)}),
        "product-is-e0": _put(_Q, {(1, 2): (0, 1), (2, 1): (0, -1)}),
        "quaternion-3x3-corner": tuple(row[:3] for row in _Q[:3]),
        "complex-numbers-2x2": (((0, 1), (1, 1)), ((1, 1), (0, -1))),
        "row-too-long": _Q[:1] + (_Q[1] + ((0, 1),),) + _Q[2:],
        "row-too-short": _Q[:1] + (_Q[1][:3],) + _Q[2:],
        "not-a-table": None,
        "rows-are-ints": [1, 2, 3, 4],
        # these meet every other condition but are not alternative
        "quaternion-e2e3-swapped": _swap(_Q, 2, 3),
        "octonion-e2e3-swapped": _swap(O.table, 2, 3),
        "octonion-e5e6-swapped": _swap(O.table, 5, 6),
    }.items()
]


@pytest.mark.parametrize("table", _MALFORMED)
def test_algebra_rejects_a_table_whose_norm_form_breaks(table):
    # the term list, the kernels and inner() as the metric dot product
    # read only a square 4x4 or 8x8 table of signed units, with the
    # identity unit row and column, imaginary units squaring to +-1,
    # distinct ones anticommuting and the alternative laws
    with pytest.raises(ConsistencyError):
        Algebra("bad", False, table)


def _contract_tables():
    """The 4,096 4x4 tables that meet the contract but for the alternative
    laws: each imaginary unit squares to +-1 and each pair of distinct ones
    anticommutes with any signed unit as product."""
    units = [(k, s) for k in range(4) for s in (1, -1)]
    for squares in itertools.product((1, -1), repeat=3):
        for products in itertools.product(units, repeat=3):
            entries = {(i, i): (0, s) for i, s in enumerate(squares, 1)}
            for (i, j), (k, s) in zip(((1, 2), (1, 3), (2, 3)), products):
                entries[i, j], entries[j, i] = (k, s), (k, -s)
            yield _put(_Q, entries)


def _multiplicative(table, rng):
    """Whether N(xy) = N(x) N(y) on 30 random integer pairs, with the
    product read off the table."""
    n = len(table)
    metric = [1] + [-table[k][k][1] for k in range(1, n)]

    def norm(v):
        return sum(g * c * c for g, c in zip(metric, v))

    for _ in range(30):
        x = [rng.randint(-9, 9) for _ in range(n)]
        y = [rng.randint(-9, 9) for _ in range(n)]
        xy = [0] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                k, s = table[i][j]
                xy[k] += s * a * b
        if norm(xy) != norm(x) * norm(y):
            return False
    return True


def _perturbed(table, rng):
    """``table`` after one to three random changes that keep the norm-form
    part of the contract: a flipped square, the product of two distinct
    imaginary units and its reverse flipped or relabelled, a unit negated,
    or two imaginary units exchanged; the last two give an isomorphic
    table."""
    n = len(table)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(1, n), 2)
        move = rng.randrange(5)
        if move == 0:
            table = _flip(table, (i, i))
        elif move == 1:
            table = _swap(table, i, j)
        elif move == 2:
            k, s = rng.randrange(n), rng.choice((1, -1))
            table = _put(table, {(i, j): (k, s), (j, i): (k, -s)})
        elif move == 3:
            sign = [-1 if k == i else 1 for k in range(n)]
            table = tuple(
                tuple((k, sign[p] * sign[q] * sign[k] * s) for q, (k, s) in enumerate(row))
                for p, row in enumerate(table)
            )
        else:
            swap = list(range(n))
            swap[i], swap[j] = j, i
            table = tuple(
                tuple((swap[k], s) for k, s in (table[swap[p]][swap[q]] for q in range(n)))
                for p in range(n)
            )
    return table


def test_table_check_accepts_exactly_the_composition_tables():
    rng = random.Random("composition")
    tables = list(_contract_tables())
    assert len(set(tables)) == 4096
    accepted, composition = set(), set()
    for table in tables:
        try:
            core._check_table(table)
            accepted.add(table)
        except ConsistencyError:
            pass
        if _multiplicative(table, rng):
            composition.add(table)
    assert accepted == composition
    assert len(accepted) == 8
    assert {QUATERNION_TABLE, SPLIT_QUATERNION_TABLE} <= accepted


def test_table_check_accepts_exactly_the_perturbed_composition_tables():
    # the 4x4 and 8x8 equivalence on tables near the four base tables
    rng = random.Random("perturbed")
    bases = [QUATERNION_TABLE, SPLIT_QUATERNION_TABLE, O.table, Os.table]
    accepted = {4: 0, 8: 0}
    for _ in range(2000):
        table = _perturbed(rng.choice(bases), rng)
        try:
            core._check_table(table)
            ok = True
        except ConsistencyError:
            ok = False
        assert ok == _multiplicative(table, rng), table
        accepted[len(table)] += ok
    assert accepted[8] >= 10, accepted


@pytest.mark.parametrize("name", ALL)
def test_dimension_and_primes_are_read_off_the_table(name):
    alg = ALGEBRAS[name]
    assert alg.dim == len(alg.table) == (4 if name[0] == "H" else 8)
    units = [alg.basis(k) for k in range(alg.dim)]
    assert alg.primed == {k for k, e in enumerate(units) if k and e * e == alg.one()}
    assert alg.primed == {"Hs": {1, 3}, "Os": {1, 3, 5, 7}}.get(name, set())


@pytest.mark.parametrize("name", ALL)
def test_metric_matches_unit_squares(name):
    alg = ALGEBRAS[name]
    for k in range(1, alg.dim):
        e = alg.basis(k)
        assert e * e == -alg.metric[k] * alg.one()
        assert e.norm() == alg.metric[k]
    assert alg.one().norm() == 1
