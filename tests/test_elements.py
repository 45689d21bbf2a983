from fractions import Fraction

import pytest

from compalg import (
    AlgebraMismatch,
    GaussRational,
    H,
    Hs,
    I,
    NotInvertible,
    O,
    Oc,
    Os,
    classify,
    embed_in_cayley,
    sandwich,
)


def test_construction_validates():
    with pytest.raises(ValueError):
        H.element([1, 2, 3])
    with pytest.raises(TypeError):
        H.element([0.5, 0, 0, 0])
    with pytest.raises(TypeError):
        H.element([GaussRational(1, 1), 0, 0, 0])
    Oc.element([GaussRational(1, 1), 0, Fraction(1, 2), 0, 0, 0, 0, 1])
    for alg, k in ((H, 4), (H, -1), (O, 8)):
        with pytest.raises(ValueError):
            alg.basis(k)


def test_construction_rejects_bool():
    # bool is an int subclass; True must not pass for the scalar 1
    with pytest.raises(TypeError):
        H.element([True, 0, 0, 0])
    with pytest.raises(TypeError):
        Oc.element([0] * 7 + [False])
    with pytest.raises(TypeError):
        GaussRational(True, 0)
    with pytest.raises(TypeError):
        GaussRational(0, False)
    # nor as a scalar operand
    a = H.element([1, 0, 0, 0])
    with pytest.raises(TypeError):
        a + True
    with pytest.raises(TypeError):
        True * a
    with pytest.raises(TypeError):
        a * False


def test_add_sub_neg_scalar():
    a = H.element([1, 2, 0, 0])
    b = H.element([0, 1, 1, 0])
    assert (a + b).coeffs == (1, 3, 1, 0)
    assert (a - b).coeffs == (1, 1, -1, 0)
    assert (-a).coeffs == (-1, -2, 0, 0)
    assert (a + 1).coeffs == (2, 2, 0, 0)
    assert (1 + a).coeffs == (2, 2, 0, 0)
    assert (Fraction(1, 2) * a).coeffs == (Fraction(1, 2), 1, 0, 0)
    assert (a * 2).coeffs == (2, 4, 0, 0)


@pytest.mark.parametrize("x", [1.5, "1", None], ids=repr)
def test_non_scalar_operands_are_rejected(x):
    a = H.element([1, 2, 0, 0])
    for op in (
        lambda: a + x,
        lambda: x + a,
        lambda: a - x,
        lambda: x - a,
        lambda: a * x,
        lambda: x * a,
    ):
        with pytest.raises(TypeError):
            op()


def test_imaginary_scalar_is_not_a_split_quaternion_scalar():
    a = Hs.element([1, 2, 0, 0])
    for op in (lambda: a * I, lambda: I * a, lambda: a + I, lambda: I - a):
        with pytest.raises(TypeError):
            op()


def test_elements_never_equal_scalars():
    assert not H.one() == 1
    assert H.one() != 1
    assert H.one() == H.element([1, 0, 0, 0])


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        H.basis(1) * Hs.basis(1)
    with pytest.raises(AlgebraMismatch):
        H.basis(1) + O.basis(1)
    with pytest.raises(AlgebraMismatch):
        H.basis(1).inner(Hs.basis(1))


def test_conjugate():
    a = H.element([1, 1, 0, 0])
    assert a.conjugate().coeffs == (1, -1, 0, 0)
    b = O.basis(4) + O.basis(7)
    assert b.conjugate() == -b


def test_inner_values():
    assert H.basis(1).inner(H.basis(1)) == 1
    assert Hs.basis(1).inner(Hs.basis(1)) == -1
    assert H.basis(1).inner(H.basis(2)) == 0
    a = Oc.element([0, 1, I, 0, 0, 0, 0, 0])
    assert a.inner(a) == 0


def test_norm_golden_zeros():
    a = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    assert a.norm() == 0
    b = Oc.element([0, 0, 3, 0, 0, 0, 4, 5 * I])
    assert b.norm() == 0
    c = H.element([0, 1, 1, 1])
    assert c.norm() == 3


def test_inverse():
    assert H.basis(2).inverse() == -H.basis(2)
    assert Hs.basis(1).inverse() == Hs.basis(1)
    a = H.element([1, 2, 3, 4])
    assert a * a.inverse() == H.one()
    assert a.inverse() * a == H.one()


def test_inverse_of_null_element():
    # e4 + e5' is null in the split octonions: norms +1 and -1 cancel
    a = Os.basis(4) + Os.basis(5)
    assert a.norm() == 0
    with pytest.raises(NotInvertible):
        a.inverse()


def test_sandwich_values():
    assert sandwich(H.basis(2), H.basis(1)) == -H.basis(1)
    a = H.element([0, 3, 1, -2])
    assert sandwich(2 * a, a) == a
    assert sandwich(H.basis(1) + H.basis(2), H.basis(1)) == H.basis(2)


def test_sandwich_requires_invertible():
    a = Os.basis(4) + Os.basis(5)
    with pytest.raises(NotInvertible):
        sandwich(a, Os.basis(2))


def test_classify():
    a = Os.basis(4) + Os.basis(5)
    c = classify(a)
    assert c.pure and c.nonzero and not c.invertible
    assert c.in_pure and c.in_pure_nonzero
    z = classify(H.zero())
    assert z.pure and not z.nonzero and not z.invertible
    assert z.in_pure and not z.in_pure_nonzero
    u = classify(H.one() + H.basis(1))
    assert not u.pure and u.nonzero and u.invertible
    assert u.in_invertible and not u.in_pure_invertible
    assert classify(Os.basis(1)).in_pure_invertible


def test_embed_in_cayley():
    a = Hs.element([1, 2, 3, 4])
    b = embed_in_cayley(a)
    assert b.algebra is Os
    assert b.coeffs == (1, 2, 3, 4, 0, 0, 0, 0)
    # embedding is multiplicative
    c = Hs.element([0, 1, -1, 2])
    assert embed_in_cayley(a * c) == embed_in_cayley(a) * embed_in_cayley(c)
    assert embed_in_cayley(b) is b


def test_pure_part_and_flags():
    a = H.element([2, 1, 0, 0])
    assert not a.is_pure
    assert a.pure_part().coeffs == (0, 1, 0, 0)
    assert a.scalar_part() == 2
    assert H.zero().is_zero and H.zero().is_pure
    assert bool(a) and not bool(H.zero())


def test_str_and_repr():
    a = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    assert str(a) == "4e1'+5e2+3e3'-5e4+4e5'+3e7'"
    assert "Os" in repr(a)
    assert repr(H) == "<algebra H>"
