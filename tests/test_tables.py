"""Structure-table fidelity: the defining relations hold and every unit
product agrees with the independent pair-arithmetic oracle."""

import pytest

from compalg import ALGEBRAS, Algebra, H, Hc, Hs, O, Oc, Os, core
from compalg.core import QUATERNION_TABLE, build_doubled_table
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
    product = core._table_product
    m.setattr(
        core, "_table_product", lambda t: lambda u, v: [2 * x for x in product(t)(u, v)]
    )
    return QUATERNION_TABLE


def _unsigned_halves(m):
    m.setattr(core, "_split_halves", lambda v: (list(v[:4]), list(v[4:])))
    m.setattr(core, "_join_halves", lambda x, y: [*x, *y])
    return QUATERNION_TABLE


@pytest.mark.parametrize(
    "fault,message",
    [
        (_doubled_products, "is not a signed basis unit"),
        (lambda m: _flip(QUATERNION_TABLE, (0, 1)), "unit row/column"),
        (_unsigned_halves, "sign convention violated at e2\\*e4"),
    ],
    ids=["unit-products", "unit-row", "sign-convention"],
)
def test_doubling_checks_catch_an_injected_fault(monkeypatch, fault, message):
    with monkeypatch.context() as m:
        table = fault(m)
        with pytest.raises(ConsistencyError, match=message):
            build_doubled_table(table)
    assert build_doubled_table(QUATERNION_TABLE) == O.table


def _flip(table, at):
    return tuple(
        tuple((k, -s) if (i, j) == at else (k, s) for j, (k, s) in enumerate(row))
        for i, row in enumerate(table)
    )


@pytest.mark.parametrize(
    "at", [(i, j) for i in range(4) for j in range(4) if i != j or i == 0]
)
def test_algebra_rejects_a_table_whose_norm_form_breaks(at):
    # inner() is the metric dot product only if a conj(b) + b conj(a) is
    # always scalar; one flipped sign breaks that for some pair of units
    with pytest.raises(ConsistencyError):
        Algebra("bad", 4, False, (), _flip(QUATERNION_TABLE, at))


@pytest.mark.parametrize("name", ALL)
def test_metric_matches_unit_squares(name):
    alg = ALGEBRAS[name]
    for k in range(1, alg.dim):
        e = alg.basis(k)
        assert e * e == -alg.metric[k] * alg.one()
        assert e.norm() == alg.metric[k]
    assert alg.one().norm() == 1
