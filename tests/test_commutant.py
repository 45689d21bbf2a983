import random
from fractions import Fraction

import pytest

import compalg.commutant
from compalg import (
    ALGEBRAS,
    AlgebraMismatch,
    GaussRational,
    H,
    I,
    Oc,
    Os,
    check_counterexample,
    counterexample_instances,
    nullspace,
    parse_element,
    sandwich,
    single_conjugator_search,
    span_contains,
    twisted_commutant_matrix,
    verify_remark,
)
from compalg.sampling import (
    random_element,
    random_invertible,
    random_null_pure,
    random_orthogonal_null_pair,
    random_pure_nonzero,
)
from compalg.cli import main

from helpers import grid_single_conjugator, same_span, sympy_nullity


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
    return repr((report, [(v.den, v.num) for v in report.nullspace_basis]))


def _both_paths(monkeypatch, a, b):
    """Whether the closed form answered the search of (a, b), after checking
    that its report equals the one from forced elimination."""
    closed_form = compalg.commutant._closed_form
    answered = []

    def spy(*args):
        basis = closed_form(*args)
        answered.append(basis is not None)
        return basis

    monkeypatch.setattr(compalg.commutant, "_closed_form", spy)
    fast = single_conjugator_search(a, b)
    monkeypatch.setattr(compalg.commutant, "_closed_form", lambda *args: None)
    slow = single_conjugator_search(a, b)
    monkeypatch.setattr(compalg.commutant, "_closed_form", closed_form)
    assert _fingerprint(fast) == _fingerprint(slow), (str(a), str(b))
    return answered == [True], slow.nullity


def _independent(a, b):
    """Whether s = a + b and t = s a are linearly independent."""
    s = a + b
    return not span_contains([s.coeffs], (s * a).coeffs)


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

    assert all(cm._closed_form(a, b) is not None for a, b in pairs)
    closed = outcomes()
    monkeypatch.setattr(cm, "_closed_form", lambda a, b: None)
    assert outcomes() == closed


# -- the nullity-2 theorem -------------------------------------------------------


def _box(rng, alg):
    """A pure element with coefficients from {-1, 0, 1}; over Q(i) from
    {0, 1, -1, i, -i}."""
    values = (0, 1, -1, I, -I) if alg.complex_field else (-1, 0, 1)
    return alg.element([0] + [rng.choice(values) for _ in range(alg.dim - 1)])


@pytest.mark.parametrize("name", ["O", "Os", "Oc"])
def test_nullity_is_two_exactly_when_s_and_t_are_independent(monkeypatch, name):
    # for pure a, b with N(a) = N(b) and s = a + b != 0, t = s a: the
    # solutions of p a = b p are span{s, t} when s, t are independent,
    # and form a 4-dimensional space otherwise
    alg = ALGEBRAS[name]
    rng = random.Random(f"nullity-theorem:{name}")
    count = {"O": 500, "Os": 1200, "Oc": 800}[name]
    pairs = []
    while len(pairs) < count:
        a, b = _box(rng, alg), _box(rng, alg)
        if a.norm() == b.norm() and b != -a:
            pairs.append((a, b))
    if not alg.is_division:
        pairs += [random_orthogonal_null_pair(rng, alg) for _ in range(count // 10)]
    closed_form = compalg.commutant._closed_form
    monkeypatch.setattr(compalg.commutant, "_closed_form", lambda a, b: None)
    classes, nullities = set(), set()
    for a, b in pairs:
        independent = _independent(a, b)
        report = single_conjugator_search(a, b)
        assert report.nullity == (2 if independent else 4), (str(a), str(b))
        basis = closed_form(a, b)
        assert (basis is not None) == independent, (str(a), str(b))
        assert basis is None or basis == report.nullspace_basis
        classes.add(((a + b).norm() == 0, (a - b).norm() == 0))
        nullities.add(report.nullity)
    if alg.is_division:
        assert nullities == {2}
    else:
        assert nullities == {2, 4}
        assert classes == {(False, False), (False, True), (True, False), (True, True)}
