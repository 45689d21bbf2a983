import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import compalg
import compalg.commutant
import compalg.witnesses
from compalg import (
    ALGEBRAS,
    AlgebraMismatch,
    Branch,
    GaussRational,
    H,
    Hc,
    I,
    O,
    Oc,
    Os,
    check_counterexample,
    conjugacy_witness,
    counterexample_instances,
    exact_div,
    negator,
    nullspace,
    parse_element,
    sandwich,
    single_conjugator_search,
    span_contains,
    twisted_commutant_matrix,
    verify_remark,
    verify_witness,
)
from compalg.sampling import (
    random_element,
    random_invertible,
    random_null_pure,
    random_orthogonal_null_pair,
    random_pure_nonzero,
)
from compalg.cli import main
from compalg.core import _divided
from compalg.witnesses import SingleCase, _single_case, _single_conjugator

from helpers import (
    grid_single_conjugator,
    rref_nullspace,
    same_span,
    sympy_matrix,
    sympy_nullity,
)


def test_matrix_of_zero_pair_is_zero():
    z = H.zero()
    m = twisted_commutant_matrix(z, z)
    assert all(all(x == 0 for x in row) for row in m)
    assert len(nullspace(m)) == 4


def test_matrix_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch):
        twisted_commutant_matrix(H.basis(1), Os.basis(1))


def test_centralizer_of_e1_in_h():
    e1 = H.basis(1)
    report = single_conjugator_search(e1, e1)
    assert report.nullity == 2
    basis = [v.coeffs for v in report.nullspace_basis]
    assert span_contains(basis, H.one().coeffs)
    assert span_contains(basis, e1.coeffs)
    assert not span_contains(basis, H.basis(2).coeffs)


def test_span_of_no_vectors_holds_only_zero():
    assert span_contains([], (0, 0, 0, 0))
    assert not span_contains([], H.basis(1).coeffs)
    assert span_contains([], ())  # the empty vector lies in every span
    assert span_contains([(), ()], ())


@pytest.mark.parametrize(
    "call",
    [
        lambda: nullspace([[1], [2, 3]]),
        lambda: nullspace([[1, 2], [3]]),
        lambda: span_contains([[1, 2]], [1]),
        lambda: span_contains([[1]], [1, 2]),
    ],
    ids=["long row", "short row", "long vector", "short vector"],
)
def test_shape_mismatch_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_nullspace_identity_and_zero():
    assert nullspace(((1, 0), (0, 1))) == []
    assert nullspace(((0, 0), (0, 0))) == [(1, 0), (0, 1)]


def test_nullspace_known_system():
    # x + 2y + 3z = 0, 2x + 4y + 6z = 0: rank 1, canonical free columns 1, 2
    basis = nullspace(((1, 2, 3), (2, 4, 6)))
    assert basis == [(-2, 1, 0), (-3, 0, 1)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_nullspace_matches_sympy_oracle(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"commutant-oracle:{name}")
    for _ in range(10):
        a = random_element(rng, alg, density=0.5, max_abs=3)
        b = random_element(rng, alg, density=0.5, max_abs=3)
        m = twisted_commutant_matrix(a, b)
        basis = nullspace(m)
        assert len(basis) == sympy_nullity(m)
        for v in basis:
            el = alg.element(v)
            assert el * a == b * el


def test_remark_nullspace_spans_match_published_vectors():
    for alg, a, b, span_pair in counterexample_instances():
        m = twisted_commutant_matrix(a, b)
        basis = nullspace(m)
        assert len(basis) == 2
        assert same_span(basis, [v.coeffs for v in span_pair])


@pytest.mark.parametrize("index", [0, 1])
def test_remark_instances_have_no_single_conjugator(index):
    alg, a, b, _ = counterexample_instances()[index]
    report = single_conjugator_search(a, b)
    assert report.nullity == 2
    assert report.verdict == "NoSingleConjugator"
    assert all(g == 0 for row in report.norm_gram for g in row)


def test_search_finds_single_in_quaternions():
    report = single_conjugator_search(H.basis(1), H.basis(2))
    assert report.verdict == "SingleExists"
    p = report.single
    assert p.norm() != 0
    assert sandwich(p, H.basis(1)) == H.basis(2)


@pytest.mark.parametrize("name", ["H", "Hs", "Hc"])
def test_quaternion_conjugate_pairs_always_admit_single(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"quat-single:{name}")
    for _ in range(20):
        a = random_pure_nonzero(rng, alg)
        r = random_invertible(rng, alg)
        b = sandwich(r, a)
        report = single_conjugator_search(a, b)
        assert report.single_exists
        assert sandwich(report.single, a) == b


def test_sandwich_equivalence_on_null_space():
    rng = random.Random("sandwich-equivalence")
    for name in ("O", "Os", "Oc"):
        alg = ALGEBRAS[name]
        for _ in range(10):
            a = random_pure_nonzero(rng, alg)
            r = random_invertible(rng, alg)
            b = sandwich(r, a)
            assert r * a == b * r
            report = single_conjugator_search(a, b)
            for v in report.nullspace_basis:
                if v.norm() != 0:
                    assert sandwich(v, a) == b


def test_single_witnesses_lie_in_the_null_space():
    from compalg import conjugacy_witness

    rng = random.Random("witness-containment")
    for name in ("O", "Os", "Oc"):
        alg = ALGEBRAS[name]
        for _ in range(10):
            a = random_pure_nonzero(rng, alg, max_abs=3, frac_prob=0)
            r = random_invertible(rng, alg, max_abs=2, frac_prob=0)
            b = sandwich(r, a)
            w = conjugacy_witness(a, b)
            if not w.is_single:
                continue
            report = single_conjugator_search(a, b)
            basis = [v.coeffs for v in report.nullspace_basis]
            assert span_contains(basis, w.p.coeffs)


def test_verify_remark_all_checks_pass():
    report = verify_remark()
    assert report.ok
    for inst in report.instances:
        assert len(inst.checks) == 6
        assert inst.failures == ()
    assert {inst.algebra_name for inst in report.instances} == {"Os", "Oc"}


def test_perturbed_instance_fails_span_check():
    alg, a, b, span_pair = counterexample_instances()[0]
    report = check_counterexample(alg, a, 2 * b, span_pair)
    assert not report.ok
    assert "listed vectors solve v a = b v" in report.failures
    assert "listed vectors span the computed null space" in report.failures
    # norms survive scaling: N(2b) = 4 N(b) = 0
    names = dict(report.checks)
    assert names["norm(a) = norm(b) = 0"]


def _grid_pick(a, b):
    report = single_conjugator_search(a, b)
    basis = [v.coeffs for v in report.nullspace_basis]
    t = grid_single_conjugator(a.algebra.name, basis)
    if t is None:
        return report.single, None
    coeffs = [sum(tr * v[k] for tr, v in zip(t, basis)) for k in range(a.algebra.dim)]
    return report.single, a.algebra.element(coeffs)


def _commutant_pairs(alg, rng, count):
    for i in range(count):
        a = random_pure_nonzero(rng, alg, density=0.5, max_abs=3)
        kind = i % 4
        if kind == 0:
            yield a, a
        elif kind == 1:
            yield a, sandwich(random_invertible(rng, alg, density=0.5, max_abs=2), a)
        elif kind == 2 and not alg.is_division:
            n = random_null_pure(rng, alg)
            yield n, -n
        else:
            yield (
                random_element(rng, alg, density=0.5, max_abs=2),
                random_element(rng, alg, density=0.5, max_abs=2),
            )


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_single_matches_grid_oracle_on_random_pairs(name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"grid:{name}")
    for a, b in _commutant_pairs(alg, rng, 24):
        found, oracle = _grid_pick(a, b)
        assert found == oracle, (str(a), str(b))
    # a == b == 1: the whole algebra solves p a = b p
    found, oracle = _grid_pick(alg.one(), alg.one())
    assert found == oracle == alg.basis(alg.dim - 1)


@pytest.mark.parametrize(
    "text_a,text_b",
    [
        ("e1+e2+ie6+ie7", "-e1-e2-ie6-ie7"),
        ("e3+e5+ie6+ie7", "-e3-e5-ie6-ie7"),
        ("ie2+ie4+e6+e7", "-ie2-ie4-e6-e7"),
    ],
)
def test_single_matches_grid_oracle_when_last_diagonal_vanishes(text_a, text_b):
    # nullity-6 Oc instances whose witness needs two basis vectors
    a, b = parse_element(text_a, Oc), parse_element(text_b, Oc)
    found, oracle = _grid_pick(a, b)
    assert found == oracle
    assert len([c for c in oracle.coeffs if c != 0]) > 1


# -- closed form against forced elimination ------------------------------------


def _fingerprint(report):
    """Everything a report shows, down to each basis vector's integer form."""
    basis = [(v.den, v.num) for v in report.nullspace_basis]
    return repr((report, report.norm_gram, basis))


def _both_paths(monkeypatch, a, b):
    """Whether the closed form answered the search of (a, b), after checking
    that its report equals the one from forced elimination."""
    single_case = compalg.commutant._single_case
    answered = []

    def spy(*args):
        out = single_case(*args)
        answered.append(out[3] is not None)
        return out

    monkeypatch.setattr(compalg.commutant, "_single_case", spy)
    fast = single_conjugator_search(a, b)
    monkeypatch.setattr(compalg.commutant, "_single_case", _case_only(single_case))
    slow = single_conjugator_search(a, b)
    monkeypatch.setattr(compalg.commutant, "_single_case", single_case)
    assert _fingerprint(fast) == _fingerprint(slow), (str(a), str(b))
    return answered == [True], slow.nullity


def _case_only(single_case):
    """A ``_single_case`` that keeps the theorem's case, s and t but gives
    no basis, which forces the search's elimination."""
    return lambda a, b: (*single_case(a, b)[:3], None)


def _independent(a, b):
    """Whether s = a + b and t = s a are linearly independent."""
    s = a + b
    return not span_contains([s.coeffs], (s * a).coeffs)


def _parallel(a, b):
    """Whether b is a multiple of a."""
    return span_contains([a.coeffs], b.coeffs)


def _big(rng, alg):
    """A pure element with coefficients of about 256 bits, non-real over Q(i)."""

    def c():
        x = rng.randint(-(2**260), 2**260)
        if alg.complex_field:
            return GaussRational(x, rng.randint(-(2**256), 2**256))
        return x

    return alg.element([0] + [c() for _ in range(alg.dim - 1)])


def _differential_pairs(alg, rng):
    """(kind, a, b): conjugate pairs with int, Fraction, Gaussian and 256-bit
    coefficients, a chain of fractional conjugations, b = -a, null a against
    its multiples and conjugates, and pairs whose nullity is dim."""

    def conj(x, **kw):
        return sandwich(random_invertible(rng, alg, max_abs=2, **kw), x)

    pairs = []
    for frac_prob in (0, 0.5):
        for _ in range(6):
            a = random_pure_nonzero(rng, alg, max_abs=3, frac_prob=frac_prob)
            pairs.append(("conj", a, conj(a, frac_prob=frac_prob)))
    for _ in range(2):
        a = _big(rng, alg)
        pairs.append(("big", a, conj(a)))
    a = b = random_pure_nonzero(rng, alg, max_abs=5, frac_prob=0.5)
    for _ in range(6):
        b = conj(b, frac_prob=0.5)
    pairs += [("deep", a, b), ("neg", a, -a), ("neg", b, -b)]
    if not alg.is_division:
        for _ in range(3):
            n = random_null_pure(rng, alg)
            pairs += [
                ("null", n, 2 * n),
                ("null", n, Fraction(-1, 3) * n),
                ("null", n, n),
                ("null", n, conj(n)),
            ]
    pairs += [("whole", alg.zero(), alg.zero()), ("whole", alg.one(), alg.one())]
    return pairs


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_closed_form_matches_forced_elimination(monkeypatch, name):
    alg = ALGEBRAS[name]
    rng = random.Random(f"closed-form:{name}")
    nullities = set()
    for kind, a, b in _differential_pairs(alg, rng):
        closed, nullity = _both_paths(monkeypatch, a, b)
        nullities.add(nullity)
        if closed:
            assert nullity == 2
        if kind in ("neg", "whole") or nullity != 2:
            assert not closed, (kind, str(a), str(b))
        if kind != "whole":
            # the theorem: pure, equal norms, s != 0 and s, t independent
            assert closed == (b != -a and _independent(a, b)), (kind, str(a), str(b))
        if alg.is_division and kind in ("conj", "big", "deep") and b != -a:
            assert closed, (kind, str(a), str(b))
    assert alg.dim in nullities
    if alg.dim == 8:
        assert 6 in nullities
    if name in ("Os", "Oc"):
        assert 4 in nullities


def test_closed_form_answers_deep_oc_pairs_and_golden_instances(monkeypatch):
    rng = random.Random("closed-form:deep-Oc")
    for _ in range(3):
        a = b = random_invertible(rng, Oc, pure=True, max_abs=5, frac_prob=0.5)
        for _ in range(20):
            b = sandwich(random_invertible(rng, Oc, max_abs=5, frac_prob=0.5), b)
        assert b.den.bit_length() > 256
        assert _both_paths(monkeypatch, a, b) == (True, 2)
    for _, a, b, _ in counterexample_instances():
        # N(a + b) = 0 here: the theorem's null case covers them
        assert (a + b).norm() == 0
        assert _both_paths(monkeypatch, a, b) == (True, 2)


def _second_elimination(*args):
    raise AssertionError("the closed form ran an elimination of its own")


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_closed_form_reuses_the_theorems_echelon(monkeypatch, name):
    # on SUM and NONE pairs the echelon that decides the theorem's case is
    # the one the closed form reduces: a search runs exactly one elimination
    alg = ALGEBRAS[name]
    rng = random.Random(f"one-echelon:{name}")
    pairs = [(a, b) for kind, a, b in _differential_pairs(alg, rng) if kind != "whole"]
    pairs += [(a, b) for g, a, b, _ in counterexample_instances() if g is alg]
    if alg is Os:
        texts = ("4e1'+5e2+3e3'-5e4+4e5'+3e7'", "3e2+4e6+5e7'")
        pairs.append(tuple(parse_element(x, Os) for x in texts))
    cases = {_single_case(a, b)[0] for a, b in pairs}
    pairs = [
        (a, b)
        for a, b in pairs
        if _single_case(a, b)[0] in (SingleCase.SUM, SingleCase.NONE)
    ]
    calls = []
    echelon = compalg.core._echelon

    def counted(*args):
        calls.append(None)
        return echelon(*args)

    with monkeypatch.context() as m:
        m.setattr(compalg.commutant, "_echelon", _second_elimination)
        m.setattr(compalg.witnesses, "_echelon", counted)
        for a, b in pairs:
            calls.clear()
            assert single_conjugator_search(a, b).nullity == 2, (str(a), str(b))
            assert len(calls) == 1, (str(a), str(b))
    assert SingleCase.SUM in cases
    assert (SingleCase.NONE in cases) == (name in ("Os", "Oc"))


def test_forced_elimination_keeps_reports_and_cli_output(monkeypatch, capsys):
    cm = compalg.commutant
    rng = random.Random("unlucky-prime")
    pairs = [(a, b) for _, a, b, _ in counterexample_instances()]
    for name in ("O", "Os", "Oc"):
        alg = ALGEBRAS[name]
        a = random_pure_nonzero(rng, alg, max_abs=3, frac_prob=0.5)
        pairs.append((a, sandwich(random_invertible(rng, alg, max_abs=2), a)))
    cli_cases = [
        ("Os", ["4e1'+5e2+3e3'-5e4+4e5'+3e7'", "3e2+4e6+5e7'"]),
        ("Oc", ["--json", "e1+ie2", "e3+ie4"]),
        ("O", ["e1+2e5", "2e3-e6"]),
    ]
    for name, args in cli_cases:
        alg = ALGEBRAS[name]
        pairs.append(tuple(parse_element(x, alg) for x in args[-2:]))

    def outcomes():
        reports = [_fingerprint(single_conjugator_search(a, b)) for a, b in pairs]
        runs = []
        for name, args in cli_cases:
            code = main(["commutant", "--algebra", name, *args])
            runs.append((code, capsys.readouterr()))
        return reports, runs

    assert all(cm._single_case(a, b)[3] is not None for a, b in pairs)
    closed = outcomes()
    monkeypatch.setattr(cm, "_single_case", _case_only(cm._single_case))
    assert outcomes() == closed


def _forbidden(*args, **kwargs):
    raise AssertionError("exact-scalar object built by the search")


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_search_builds_no_exact_scalars(monkeypatch, name):
    # closed form, elimination, b = -a, null, random and golden pairs, with
    # fractional and (over Q(i)) Gaussian coefficients, on both paths
    alg = ALGEBRAS[name]
    rng = random.Random(f"no-exact-scalars:{name}")
    pairs = [(a, b) for _, a, b in _differential_pairs(alg, rng)]
    pairs += list(_commutant_pairs(alg, rng, 8))
    pairs += [(a, b) for g, a, b, _ in counterexample_instances() if g is alg]
    single_case = compalg.commutant._single_case
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", _forbidden)
        m.setattr(GaussRational, "__init__", _forbidden)
        m.setattr(GaussRational, "_make", _forbidden)
        fast = [single_conjugator_search(a, b) for a, b in pairs]
        m.setattr(compalg.commutant, "_single_case", _case_only(single_case))
        slow = [single_conjugator_search(a, b) for a, b in pairs]
    assert list(map(_fingerprint, fast)) == list(map(_fingerprint, slow))
    assert any(single_case(a, b)[3] is not None for a, b in pairs)
    assert {r.verdict for r in fast} == {"SingleExists", "NoSingleConjugator"}


def test_span_membership_builds_no_exact_scalars(monkeypatch):
    # integer, fractional and Gaussian vectors; the target's coefficients
    # over the vectors (1/2, 1/3 in the first case) are never built
    third = Fraction(1, 3)
    cases = [
        ([(2, 0), (0, 3)], (1, 1), True),
        ([(third, I), (1, -I)], (4 * third, 0), True),
        ([(third, I), (1, 3 * I)], (0, 2 * I), False),
        ([(Fraction(1, 2), 0, 0)], (0, Fraction(1, 4), 0), False),
    ]
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", _forbidden)
        m.setattr(GaussRational, "__init__", _forbidden)
        m.setattr(GaussRational, "_make", _forbidden)
        got = [span_contains(vectors, target) for vectors, target, _ in cases]
    assert got == [want for _, _, want in cases]


# -- the nullity-2 theorem -------------------------------------------------------


def _box(rng, alg):
    """A pure element with coefficients from {-1, 0, 1}; over Q(i) from
    {0, 1, -1, i, -i}."""
    values = (0, 1, -1, I, -I) if alg.complex_field else (-1, 0, 1)
    return alg.element([0] + [rng.choice(values) for _ in range(alg.dim - 1)])


@pytest.mark.parametrize("name", ["O", "Hs", "Hc", "Os", "Oc"])
def test_nullity_is_two_exactly_when_s_and_t_are_independent(monkeypatch, name):
    # for pure a, b with N(a) = N(b) and s = a + b != 0, t = s a: the
    # solutions of p a = b p are span{s, t} when s, t are independent,
    # and form a 4-dimensional space otherwise (2-dimensional in dim 4);
    # a single conjugator exists unless s, t are independent and N(s) = 0,
    # and the theorem's case and p say the same
    alg = ALGEBRAS[name]
    rng = random.Random(f"nullity-theorem:{name}")
    count = {"O": 500, "Hs": 600, "Hc": 600, "Os": 1200, "Oc": 800}[name]
    pairs = []
    while len(pairs) < count:
        a, b = _box(rng, alg), _box(rng, alg)
        if a.norm() == b.norm() and a and b:
            pairs.append((a, b))
    if not alg.is_division:
        pairs += [random_orthogonal_null_pair(rng, alg) for _ in range(count // 10)]
    single_case = compalg.commutant._single_case
    monkeypatch.setattr(compalg.commutant, "_single_case", _case_only(single_case))
    classes, nullities, cases = set(), set(), set()
    for a, b in pairs:
        s = a + b
        independent = bool(s) and _independent(a, b)
        report = single_conjugator_search(a, b)
        case, p = _single_conjugator(a, b)
        cases.add(case)
        assert single_case(a, b)[0] is case, (str(a), str(b))
        if s.norm() != 0:
            assert case is SingleCase.SUM and p == s
        elif not s:
            assert case is SingleCase.NEGATED and p == negator(a)
        else:
            assert case is (SingleCase.NONE if independent else SingleCase.DEPENDENT)
        assert (p is None) == (report.single is None), (str(a), str(b))
        assert p is None or (p.norm() != 0 and sandwich(p, a) == b)
        if case is SingleCase.DEPENDENT and not (a != b and _parallel(a, b)):
            assert p.norm() == 1  # s not in F (a - b): p = 1 + p0
        if not s:
            continue
        assert report.nullity == (2 if independent else alg.dim // 2), (str(a), str(b))
        rows = single_case(a, b)[3]
        assert (rows is not None) == independent, (str(a), str(b))
        basis = rows and tuple(_divided(alg, u, m, 1) for u, m in rows)
        assert basis is None or basis == report.nullspace_basis
        classes.add(((a + b).norm() == 0, (a - b).norm() == 0))
        nullities.add(report.nullity)
    if alg.is_division:
        assert nullities == {2}
        assert cases == {SingleCase.SUM, SingleCase.NEGATED}
    else:
        assert nullities == {2, alg.dim // 2}
        assert classes == {(False, False), (False, True), (True, False), (True, True)}
        assert SingleCase.DEPENDENT in cases
        assert (SingleCase.NONE in cases) == (alg.dim == 8)


def test_null_samplers_refuse_a_division_algebra():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_null_pure(rng, H)
    with pytest.raises(ValueError):
        random_orthogonal_null_pair(rng, O)


def _null_multiples(rng, alg, count):
    """(a, c a) for null pure a and c outside {0, 1, -1}, rational or
    (over Q(i)) Gaussian."""
    scalars = [2, -3, Fraction(1, 2), Fraction(-5, 3)]
    if alg.complex_field:
        scalars += [I, -I, GaussRational(1, 2), GaussRational(Fraction(-1, 3), 4)]
    for _ in range(count):
        a = random_null_pure(rng, alg)
        yield a, rng.choice(scalars) * a


@pytest.mark.parametrize("name", ["Hs", "Hc", "Os", "Oc"])
def test_null_multiples_take_the_theorems_single(name):
    # b = c a with a null and c not in {0, 1, -1}: p = (1 + c) + (c - 1) h
    # with h a = a, a h = -a, so N(p) = 4 c
    alg = ALGEBRAS[name]
    rng = random.Random(f"null-multiples:{name}")
    for a, b in _null_multiples(rng, alg, 60):
        c = next(exact_div(y, x) for x, y in zip(a.coeffs, b.coeffs) if x != 0)
        case, p = _single_conjugator(a, b)
        assert case is SingleCase.DEPENDENT
        assert p.norm() == 4 * c and sandwich(p, a) == b, (str(a), str(b))
        h = (p - (1 + c)) * exact_div(1, c - 1)
        assert h.is_pure and h * a == a and a * h == -a and h.norm() == -1
        assert single_conjugator_search(a, b).single_exists
        w = conjugacy_witness(a, b, minimal=True)
        assert (w.p, w.q, w.branch) == (p, None, Branch.COMMUTANT_SINGLE)


def test_sum_single_of_fractional_operands_is_a_plus_b():
    # d = 5 and e = 3: the integer form s = (a + b) d e comes back over d e
    a = parse_element("3/5e1+4/5e2", H)
    b = parse_element("2/3e1+2/3e2+1/3e3", H)
    assert (a.den, b.den) == (5, 3)
    assert _single_conjugator(a, b) == (SingleCase.SUM, a + b)


def test_dependent_scan_on_fractional_gaussian_operands():
    # s not in F (a - b) with d = 3, e = 111, and at k = 3, the last k with
    # s_k != 0, Gaussian s_k and t_k whose four parts are all nonzero
    a = parse_element("(-2/3+1/3i)e1", Hc)
    b = parse_element("(2/3-1/3i)e1+(-59/111-58/111i)e2+(58/111-59/111i)e3", Hc)
    case, (sr, si), (tr, ti), _ = _single_case(a, b)
    assert case is SingleCase.DEPENDENT and (a.den, b.den) == (3, 111)
    assert sr[3] * si[3] * tr[3] * ti[3] != 0
    p = _single_conjugator(a, b)[1]
    assert p.norm() == 1 and sandwich(p, a) == b
    assert p == parse_element("1+ie1+(175/148+9/37i)e2+(15/37-105/148i)e3", Hc)


def test_minimal_witnesses_never_search(monkeypatch):
    # the theorem decides every minimal witness: the search is never run,
    # and witnesses imports nothing from commutant
    def search(a, b):
        raise AssertionError("commutant search run for a minimal witness")

    monkeypatch.setattr(compalg.commutant, "single_conjugator_search", search)
    monkeypatch.setattr(compalg, "single_conjugator_search", search)
    rng = random.Random("minimal-no-search")
    branches = set()
    for alg in ALGEBRAS.values():
        for a, b in _commutant_pairs(alg, rng, 40):
            if a.is_pure and b.is_pure and a and b and a.norm() == b.norm():
                w = conjugacy_witness(a, b, minimal=True)
                assert verify_witness(a, b, w).ok
                branches.add(w.branch)
        if not alg.is_division:
            for a, b in [random_orthogonal_null_pair(rng, alg) for _ in range(10)]:
                branches.add(conjugacy_witness(a, b, minimal=True).branch)
    for _, a, b, _ in counterexample_instances():
        assert not conjugacy_witness(a, b, minimal=True).is_single
    assert branches >= {
        Branch.SUM_INVERTIBLE,
        Branch.COMMUTANT_SINGLE,
        Branch.NULL_PAIR,
    }
    tree = ast.parse(Path(compalg.witnesses.__file__).read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "commutant" not in imported


@pytest.mark.parametrize("name", ["Hs", "Hc", "Os", "Oc"])
def test_single_case_is_total_on_zero_operands(name):
    # pure pairs of equal norm with a zero side: (0, n) and (n, 0) for a
    # null n are DEPENDENT (t = 0), (0, 0) is NEGATED, and the search's
    # elimination gives the oracle's nullity
    alg = ALGEBRAS[name]
    rng = random.Random(f"zero-operands:{name}")
    zero = alg.zero()
    for _ in range(3):
        n = random_null_pure(rng, alg)
        expected = [
            (zero, n, SingleCase.DEPENDENT),
            (n, zero, SingleCase.DEPENDENT),
            (zero, zero, SingleCase.NEGATED),
        ]
        for a, b, case in expected:
            assert _single_case(a, b)[0] is case, (str(a), str(b))
            report = single_conjugator_search(a, b)
            assert report.nullity == sympy_nullity(twisted_commutant_matrix(a, b))


# -- the elimination's work ----------------------------------------------------


def _count_combines(monkeypatch):
    calls = []
    combine = compalg.core._combine

    def counted(*args):
        calls.append(None)
        return combine(*args)

    monkeypatch.setattr(compalg.core, "_combine", counted)
    return calls


def _dense(rng, n, bits, gaussian=False):
    def entry():
        x = rng.choice((1, -1)) * rng.randint(2 ** (bits - 1), 2**bits)
        return GaussRational(x, rng.randint(1, 2**bits)) if gaussian else x

    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
def test_full_rank_elimination_clears_below_pivots_only(monkeypatch, gaussian):
    # a dense full-rank n x n matrix takes at most n (n - 1) / 2 row
    # combinations, and its rows above the pivots are never cleared
    rng = random.Random(f"full-rank:{gaussian}")
    calls = _count_combines(monkeypatch)
    monkeypatch.setattr(compalg.commutant, "_reduce_above", _forbidden)
    for n in (2, 4, 8):
        for bits in (3, 40):
            calls.clear()
            assert nullspace(_dense(rng, n, bits, gaussian)) == []
            assert 0 < len(calls) <= n * (n - 1) // 2
    # a full-rank search of each algebra takes no reduce-above step either
    for alg in ALGEBRAS.values():
        a, b = alg.basis(1), 2 * alg.basis(2)
        assert single_conjugator_search(a, b).nullity == 0


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_rank_deficient_big_matrices_match_the_oracle(gaussian):
    # 8 x 8 products of an 8 x r and an r x 8 factor, entries over 100 bits
    rng = random.Random(f"rank-deficient:{gaussian}")
    for r in (1, 3, 5, 7):
        for _ in range(2):
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(8)]
            right = _dense(rng, 8, 120, gaussian)[:r]
            if not gaussian:
                right = [[Fraction(x, rng.randint(1, 9)) for x in row] for row in right]
            m = [
                [sum((x * row[j] for x, row in zip(lrow, right)), 0) for j in range(8)]
                for lrow in left
            ]
            parts = [Fraction(getattr(x, "re", x)) for row in m for x in row]
            assert max(abs(x.numerator) for x in parts) > 2**100
            assert [tuple(v) for v in nullspace(m)] == rref_nullspace(m)
            assert len(nullspace(m)) >= 8 - r


def test_span_membership_runs_no_reduce_above(monkeypatch):
    # span_contains reads only the pivots of the echelon form
    def rank(rows, n):
        return n - len(rref_nullspace(rows)) if rows else 0

    monkeypatch.setattr(compalg.commutant, "_reduce_above", _forbidden)
    rng = random.Random("span-echelon")
    for n in range(1, 9):
        for k in range(n + 1):
            vectors = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            target = [rng.randint(-1, 1) for _ in range(n)]
            combo = [sum(v[i] for v in vectors) for i in range(n)]
            assert span_contains(vectors, combo)
            expected = rank(vectors, n) == rank(vectors + [target], n)
            assert span_contains(vectors, target) == expected


# -- the rank test ---------------------------------------------------------------


def _singular_by_design(rng, alg):
    """Pairs outside the closed form, chosen so that many have a singular
    map p -> p a - b p: conjugates with equal and with unequal scalar
    parts, pure pairs of unequal norm (singular in dim 8 when N(a + b) =
    0), scalars, and pairs of odd nullity over Q(i)."""
    pairs = []
    for _ in range(3):
        a = random_element(rng, alg, density=0.75, max_abs=3, frac_prob=0.3)
        b = sandwich(random_invertible(rng, alg, max_abs=2, frac_prob=0.3), a)
        pairs += [(a, b), (a, b + 1)]
        p, q = random_pure_nonzero(rng, alg, max_abs=3), random_pure_nonzero(rng, alg)
        pairs += [(p, q), (p, 2 * p), (p, -q + p)]
    pairs += [(alg.one(), alg.one()), (alg.one(), 2 * alg.one())]
    pairs += [(Fraction(1, 3) * alg.one(), alg.zero()), (alg.zero(), alg.zero())]
    texts = {
        "Hc": [("i+e1", "e1+ie2"), ("1+i+e1", "1+e1+ie2"), ("i+e1", "e2+ie3")],
        "Oc": [
            ("e1", "ie2"),
            ("1+e1", "2ie2"),
            ("i+e1", "e1+ie2"),
            ("e1", "ie4-e1"),
            # c^2 = 2i and S = -2i cancel in both parts; the other factor is 8i
            ("1+i+e2", "(1-1i)e1-e2"),
        ],
        "Os": [("e1'", "e2+e3'"), ("e2", "e1'"), ("1+e2", "1+2e1'")],
        "Hs": [("e1'", "e2"), ("e1'+e2", "e3'"), ("1+e2", "1+e1'")],
    }.get(alg.name, [])
    pairs += [(parse_element(x, alg), parse_element(y, alg)) for x, y in texts]
    return pairs


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_rank_test_matches_the_elimination_and_sympy(name):
    # the closed-form determinant is zero exactly when the map has a null
    # space, for random, conjugate, shifted, pure, scalar and odd pairs
    alg = ALGEBRAS[name]
    rng = random.Random(f"rank-test:{name}")
    pairs = _singular_by_design(rng, alg) + list(_commutant_pairs(alg, rng, 8))
    nullities = set()
    for a, b in pairs:
        rows = compalg.commutant._matrix_form(a, b)[1]
        nullity = len(compalg.commutant._nullspace_form(rows, alg.dim))
        assert nullity == sympy_nullity(twisted_commutant_matrix(a, b))
        assert compalg.commutant._nonsingular(a, b) == (nullity == 0), (str(a), str(b))
        assert single_conjugator_search(a, b).nullity == nullity
        nullities.add(nullity)
    assert {0, alg.dim} <= nullities and len(nullities) >= 3
    if alg.complex_field:
        assert nullities & {1, 3, 5, 7}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_pure_pairs_of_equal_norm_never_take_the_rank_test(monkeypatch, name):
    # their map is always singular: the pairs the closed form leaves, b = -a
    # and dependent s, t (null multiples, and s not in F (a - b)), go
    # straight to the elimination
    alg = ALGEBRAS[name]
    rng = random.Random(f"no-rank-test:{name}")
    pairs = []
    for _ in range(4):
        a = random_pure_nonzero(rng, alg, max_abs=3, frac_prob=0.5)
        pairs.append((a, -a))
    if not alg.is_division:
        pairs += list(_null_multiples(rng, alg, 6))
    if alg is Os:
        pairs.append(tuple(parse_element(x, Os) for x in ("e2-e7'", "1/2e1'+1/2e4")))
    with monkeypatch.context() as m:
        m.setattr(compalg.commutant, "_nonsingular", _forbidden)
        reports = [single_conjugator_search(a, b) for a, b in pairs]
    for (a, b), report in zip(pairs, reports):
        case = _single_conjugator(a, b)[0]
        assert case in (SingleCase.NEGATED, SingleCase.DEPENDENT), (str(a), str(b))
        assert report.nullity == sympy_nullity(twisted_commutant_matrix(a, b))
        assert report.single_exists


def _symbolic_map(alg, a, b):
    """The sympy matrix of p -> p a - b p for coefficient lists a, b."""
    m = sympy.zeros(alg.dim, alg.dim)
    for j in range(alg.dim):
        for i in range(alg.dim):
            k, s = alg.table[j][i]
            m[k, j] += s * a[i]
            k, s = alg.table[i][j]
            m[k, j] -= s * b[i]
    return m


def test_determinant_is_the_closed_form():
    # the rank test's proof: a general pair of H, and the frame Im a = x e1,
    # Im b = y e1 + z e2 of O, which every real pair reaches by an
    # automorphism; c = Re a - Re b
    c, x, y, z = sympy.symbols("c x y z")
    xs, ys = sympy.symbols("x1:4"), sympy.symbols("y1:4")
    A, B = sum(t**2 for t in xs), sum(t**2 for t in ys)
    det = _symbolic_map(H, [c, *xs], [0, *ys]).det(method="berkowitz")
    assert sympy.expand(det - ((c**2 + A + B) ** 2 - 4 * A * B)) == 0
    A, B, S = x**2, y**2 + z**2, (x + y) ** 2 + z**2
    frame = _symbolic_map(O, [c, x] + [0] * 6, [0, y, z] + [0] * 5)
    det = frame.det(method="berkowitz")
    assert sympy.expand(det - (c**2 + S) ** 2 * ((c**2 + A + B) ** 2 - 4 * A * B)) == 0
    # the symbolic map is the library's
    values = {c: 2, x: 3, y: -1, z: 5}
    a, b = O.element([2, 3] + [0] * 6), O.element([0, -1, 5] + [0] * 5)
    assert frame.subs(values) == sympy_matrix(twisted_commutant_matrix(a, b))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_full_rank_search_builds_no_matrix(monkeypatch, name):
    # a non-pure pair of full rank is decided by the rank test alone
    alg = ALGEBRAS[name]
    rng = random.Random(f"no-matrix:{name}")
    pairs = [(alg.one() + alg.basis(1), 2 * alg.basis(2))]
    while len(pairs) < 5:
        a = random_element(rng, alg, max_abs=3, frac_prob=0.3)
        b = random_element(rng, alg, max_abs=3, frac_prob=0.3)
        if not a.is_pure and sympy_nullity(twisted_commutant_matrix(a, b)) == 0:
            pairs.append((a, b))
    with monkeypatch.context() as m:
        m.setattr(compalg.commutant, "_matrix_form", _forbidden)
        m.setattr(compalg.commutant, "_echelon", _forbidden)
        reports = [single_conjugator_search(a, b) for a, b in pairs]
    assert all(r.nullity == 0 and r.single is None for r in reports)
