"""Algebraic laws as hypothesis properties over all six algebras."""

import pytest
from hypothesis import given, settings, strategies as st

from compalg import ALGEBRAS, GaussRational, NotInvertible, sandwich

ALL = sorted(ALGEBRAS)
QUATERNION = ["H", "Hc", "Hs"]
OCTONION = ["O", "Oc", "Os"]


def scalars(complex_field):
    ints = st.integers(-5, 5)
    if not complex_field:
        return ints
    return st.one_of(ints, st.builds(GaussRational, ints, ints))


def elements(name):
    alg = ALGEBRAS[name]
    return st.builds(
        alg.element, st.tuples(*[scalars(alg.complex_field)] * alg.dim)
    )


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_composition_law(name, data):
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    assert (a * b).norm() == a.norm() * b.norm()


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conjugation_antiautomorphism(name, data):
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_norm_realization(name, data):
    a = data.draw(elements(name))
    alg = ALGEBRAS[name]
    n = a.norm() * alg.one()
    assert a * a.conjugate() == n
    assert a.conjugate() * a == n


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pure_square_identity(name, data):
    a = data.draw(elements(name)).pure_part()
    assert a * a == -a.norm() * ALGEBRAS[name].one()


@pytest.mark.parametrize("name", OCTONION)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_alternativity(name, data):
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    assert (a * a) * b == a * (a * b)
    assert (a * b) * b == a * (b * b)


@pytest.mark.parametrize("name", QUATERNION)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_associativity(name, data):
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    c = data.draw(elements(name))
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sandwich_well_defined(name, data):
    p = data.draw(elements(name))
    a = data.draw(elements(name))
    try:
        pi = p.inverse()
    except NotInvertible:
        return
    assert (p * a) * pi == p * (a * pi)
    assert sandwich(p, a) == (p * a) * pi


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bilinearity_and_symmetry(name, data):
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    c = data.draw(elements(name))
    lam = data.draw(scalars(ALGEBRAS[name].complex_field))
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (lam * a) * b == lam * (a * b) == a * (lam * b)
    assert a.inner(b) == b.inner(a)
    assert (a + b).inner(c) == a.inner(c) + b.inner(c)


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inner_is_the_polarized_norm(name, data):
    # the nonscalar part of a conj(b) + b conj(a) vanishes identically
    a = data.draw(elements(name))
    b = data.draw(elements(name))
    one = ALGEBRAS[name].one()
    assert a * b.conjugate() + b * a.conjugate() == 2 * a.inner(b) * one


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_roundtrip(name, data):
    a = data.draw(elements(name))
    try:
        inv = a.inverse()
    except NotInvertible:
        assert a.norm() == 0
        return
    one = ALGEBRAS[name].one()
    assert a * inv == one
    assert inv * a == one
