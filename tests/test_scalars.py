import operator
import random
from fractions import Fraction

import pytest

from compalg import GaussRational, I, exact_div

from helpers import gauss_hash, gauss_oracle


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_gauss_product():
    assert GaussRational(1, 2) * GaussRational(3, -1) == GaussRational(5, 5)


def test_gauss_conjugate():
    assert GaussRational(0, 4).conjugate() == GaussRational(0, -4)
    assert Fraction(3, 2).conjugate() == Fraction(3, 2)


def test_mixed_arithmetic():
    x = GaussRational(1, 1)
    assert x + 1 == GaussRational(2, 1)
    assert 2 - x == GaussRational(1, -1)
    assert 3 * x == GaussRational(3, 3)
    assert x * Fraction(1, 2) == GaussRational(Fraction(1, 2), Fraction(1, 2))


def test_division():
    x = GaussRational(5, 5)
    assert x / GaussRational(3, -1) == GaussRational(1, 2)
    assert x / 5 == GaussRational(1, 1)
    assert 1 / GaussRational(0, 1) == GaussRational(0, -1)
    assert exact_div(1, 2) == Fraction(1, 2)
    assert exact_div(GaussRational(2, 4), 2) == GaussRational(1, 2)
    assert exact_div(1, GaussRational(0, 1)) == GaussRational(0, -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        GaussRational(1, 1) / GaussRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_equality_with_rationals():
    assert GaussRational(3, 0) == 3
    assert GaussRational(Fraction(1, 2), 0) == Fraction(1, 2)
    assert GaussRational(3, 1) != 3
    assert hash(GaussRational(3, 0)) == hash(3)
    assert hash(GaussRational(Fraction(1, 2), 0)) == hash(Fraction(1, 2))


def test_imaginary_unit():
    assert I * I == -1
    assert 4 * I == GaussRational(0, 4)


def test_no_floats():
    with pytest.raises(TypeError):
        GaussRational(0.5, 0)


def test_zero_and_sign():
    assert not GaussRational(0, 0)
    assert GaussRational(0, 1)
    assert -GaussRational(1, -2) == GaussRational(-1, 2)
    assert +GaussRational(1, 2) == GaussRational(1, 2)


def test_str_forms():
    assert str(GaussRational(1, 2)) == "1+2i"
    assert str(GaussRational(1, -2)) == "1-2i"
    assert str(GaussRational(0, -2)) == "-2i"
    assert str(GaussRational(Fraction(1, 2), 0)) == "1/2"


# -- differential test against the (re, im) oracle -----------------------------

_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
    "exact_div": exact_div,
}


def _rationals(rng):
    big = 2 ** rng.randint(256, 320) + rng.randint(0, 2**40)
    return [
        0,
        rng.randint(1, 9),
        -rng.randint(1, 9),
        big,
        -big,
        Fraction(rng.randint(-50, 50), rng.randint(2, 30)),
        Fraction(6, 3),  # an integral Fraction
        Fraction(0),
        Fraction(big + 1, 3 * big),
    ]


def _scalar_operands(seed=13, count=48):
    rng = random.Random(seed)
    pool = _rationals(rng)
    out = pool + [GaussRational(0, 0), GaussRational(0, 1), GaussRational(5, 0)]
    while len(out) < count:
        if rng.randrange(3) == 2:
            out.append(rng.choice(pool))
        else:
            out.append(GaussRational(rng.choice(pool), rng.choice(pool)))
    return out


def _same(result, expected):
    """Equal value and equal type, part by part for a GaussRational."""
    if isinstance(expected, ZeroDivisionError):
        return isinstance(result, ZeroDivisionError) and str(result) == str(expected)
    if type(result) is not type(expected):
        return False
    if type(expected) is GaussRational:
        return all(
            type(r) is type(e) and r == e
            for r, e in ((result.re, expected.re), (result.im, expected.im))
        )
    return result == expected


def _evaluate(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return exc


def test_gauss_operations_match_the_oracle():
    operands = _scalar_operands()
    mismatches, count = [], 0
    for x in operands:
        if isinstance(x, GaussRational):
            count += 1
            if not _same(-x, gauss_oracle("neg", x)) or hash(x) != gauss_hash(x):
                mismatches.append(("neg/hash", x))
        for y in operands:
            gaussian = isinstance(x, GaussRational) or isinstance(y, GaussRational)
            for name, fn in _OPS.items():
                if not gaussian and name != "exact_div":
                    continue  # rational pairs are Python's own arithmetic
                count += 1
                if not _same(_evaluate(fn, x, y), gauss_oracle(name, x, y)):
                    mismatches.append((name, x, y))
            if gaussian and x == y:
                count += 1
                if hash(x) != hash(y):
                    mismatches.append(("hash", x, y))
    assert count > 10000
    assert mismatches == []


def test_gauss_bool_operands_act_as_ints():
    # a bool acts as the int it is on either side of every operator
    assert True / I == 1 / I == GaussRational(0, -1)
    assert False / I == 0
    assert True + I == 1 + I and True * I == I and I / True == I
    q = True / I
    assert type(q.re) is int and type(q.im) is int


def test_gauss_zero_division_messages():
    gaussian = "division by zero Gaussian rational"
    cases = [
        (lambda: GaussRational(1, 1) / 0, "division by zero"),
        (lambda: GaussRational(1, 1) / Fraction(0), "division by zero"),
        (lambda: GaussRational(1, 1) / GaussRational(0, 0), gaussian),
        (lambda: 1 / GaussRational(0, 0), gaussian),
        (lambda: Fraction(1, 2) / GaussRational(0, 0), gaussian),
        (lambda: exact_div(1, 0), "division by zero"),
        (lambda: exact_div(GaussRational(1, 1), 0), "division by zero"),
        (lambda: exact_div(1, GaussRational(0, 0)), gaussian),
        (lambda: exact_div(GaussRational(0, 0), GaussRational(0, 0)), gaussian),
    ]
    for fn, message in cases:
        with pytest.raises(ZeroDivisionError) as info:
            fn()
        assert str(info.value) == message


_SYMBOLS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("other", [1.5, "a"], ids=["float", "str"])
@pytest.mark.parametrize("symbol", list(_SYMBOLS))
def test_gauss_rejects_non_exact_operands(symbol, other):
    g, fn = GaussRational(1, 2), _SYMBOLS[symbol]
    name = type(other).__name__
    right = f"unsupported operand type(s) for {symbol}: 'GaussRational' and '{name}'"
    left = f"unsupported operand type(s) for {symbol}: '{name}' and 'GaussRational'"
    if isinstance(other, str) and symbol == "*":
        right = left = "can't multiply sequence by non-int of type 'GaussRational'"
    if isinstance(other, str) and symbol == "+":
        left = 'can only concatenate str (not "GaussRational") to str'
    for args, message in (((g, other), right), ((other, g), left)):
        with pytest.raises(TypeError) as info:
            fn(*args)
        assert str(info.value) == message
    if symbol == "/":
        with pytest.raises(TypeError) as info:
            exact_div(g, other)
        assert str(info.value) == right
    assert g != other and other != g


@pytest.mark.parametrize("other", [1.5, "a", None, 1j])
def test_gauss_dunders_return_not_implemented(other):
    g = GaussRational(Fraction(1, 3), -2)
    for name in (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__eq__",
    ):
        assert getattr(g, name)(other) is NotImplemented, name


def test_gauss_constructor_messages():
    for args, message in (
        ((0.5, 0), "real part must be int or Fraction, got float"),
        ((0, "1"), "imaginary part must be int or Fraction, got str"),
        ((True, 0), "real part must be int or Fraction, got bool"),
    ):
        with pytest.raises(TypeError) as info:
            GaussRational(*args)
        assert str(info.value) == message
