import random
from fractions import Fraction

import pytest

from compalg import (
    Algebra,
    AlgebraMismatch,
    Branch,
    ConjugacyWitness,
    GaussRational,
    H,
    Hc,
    Hs,
    I,
    NormMismatch,
    NotPure,
    O,
    Oc,
    Os,
    PreconditionViolation,
    ZeroElement,
    collapse_quaternion,
    conjugacy_witness,
    negator,
    negator_candidates,
    sandwich,
    separator,
    verify_witness,
)
from compalg.core import QUATERNION_TABLE
from compalg.sampling import random_invertible, random_orthogonal_null_pair

from helpers import transport


def _check_negator(a):
    p = negator(a)
    assert p.is_pure
    assert p.norm() != 0
    assert p * a == -(a * p)
    assert sandwich(p, a) == -a
    return p


# ---------------------------------------------------------------- negator

def test_negator_first_candidates():
    assert negator(O.basis(1)) == -O.basis(2)
    assert negator(Os.basis(2)) == -Os.basis(4)
    p = negator(Os.basis(1))
    assert p == -Os.basis(3)
    assert p.norm() == -1


def test_negator_rejects_bad_input():
    with pytest.raises(NotPure):
        negator(H.one() + H.basis(1))
    with pytest.raises(ZeroElement):
        negator(O.zero())


from helpers import NEGATOR_POSITION_CASES


@pytest.mark.parametrize("alg,coeffs,position", NEGATOR_POSITION_CASES)
def test_negator_candidate_positions(alg, coeffs, position):
    a = alg.element(coeffs)
    candidates = negator_candidates(a)
    for earlier in candidates[:position]:
        assert earlier.norm() == 0
    p = _check_negator(a)
    assert p == candidates[position]


def test_negator_skips_nonzero_null_candidate():
    # first candidate ie1 - e2 is nonzero but null; the scan must skip it
    a = Oc.element([0, 1, I, 2, 0, 0, 0, 0])
    candidates = negator_candidates(a)
    assert not candidates[0].is_zero and candidates[0].norm() == 0
    p = _check_negator(a)
    assert p == candidates[1]


def test_split_quaternion_candidates_add_e1_only_when_e2_alone_survives():
    # a1 != 0, a3 = 0: the one pair candidate a3 e1' - a1 e3' is the list
    assert negator_candidates(Hs.element([0, 1, 2, 0])) == [-Hs.basis(3)]
    assert negator_candidates(Hs.basis(2)) == [Hs.zero(), Hs.basis(1)]


# ---------------------------------------------------------------- separator

def test_separator_disjoint_support_complex():
    a = Oc.element([0, 1, I, 0, 0, 0, 0, 0])
    b = Oc.element([0, 0, 0, 1, I, 0, 0, 0])
    p = separator(a, b)
    assert p == Oc.basis(1) + Oc.basis(3)
    assert (sandwich(p, a) + b).norm() == 2


def test_separator_common_support_complex():
    a = Oc.element([0, 1, I, 0, 0, 0, 0, 0])
    b = Oc.element([0, I, -1, 0, 0, 0, 0, 0])
    p = separator(a, b)
    assert p == Oc.basis(1)
    assert (sandwich(p, a) + b).norm() == GaussRational(0, 4)


def test_separator_complex_pair_of_opposite_non_real_norms():
    # N(a) = 2i and N(b) = -2i: the norms cancel in both parts
    a = Hc.element([0, 1 + I, 0, 0])
    b = Hc.element([0, 0, 1 - I, 0])
    p = separator(a, b)
    assert p == Hc.basis(1) + Hc.basis(2)
    assert (sandwich(p, a) + b).norm() == 4


def test_separator_split_common_support():
    a = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    b = Os.element([0, 0, 3, 0, 0, 0, 4, 5])
    p = separator(a, b)
    assert p == Os.basis(2)
    assert p.norm() == 1
    assert (sandwich(p, a) + b).norm() == 60


def test_separator_split_primed_index():
    # the smallest shared-support index is primed, so p gets norm -1
    a = Os.element([0, 1, 1, 0, 0, 0, 0, 0])
    b = Os.element([0, 2, 2, 0, 0, 0, 0, 0])
    assert a.inner(b) == 0 and a.norm() == 0 and b.norm() == 0
    p = separator(a, b)
    assert p == Os.basis(1)
    assert p.norm() == -1
    assert (sandwich(p, a) + b).norm() != 0


def test_separator_split_disjoint_support():
    a = Os.element([0, 3, 5, 4, 0, 0, 0, 0])
    b = Os.element([0, 0, 0, 0, 0, 3, 5, 4])
    assert a.norm() == 0 and b.norm() == 0 and a.inner(b) == 0
    p = separator(a, b)
    assert p == Os.basis(2) + Os.basis(6)
    assert (sandwich(p, a) + b).norm() != 0


def test_separator_checks_hypotheses_exactly():
    # nonzero pairing: rejected even though the norms cancel
    a = Oc.element([0, 1, I, 0, 0, 0, 0, 0])
    b = Oc.element([0, I, 1, 0, 0, 0, 0, 0])
    assert a.inner(b) == GaussRational(0, 2)
    with pytest.raises(PreconditionViolation):
        separator(a, b)
    # split algebras additionally need both norms zero
    with pytest.raises(PreconditionViolation):
        separator(Os.basis(1), Os.basis(2))
    with pytest.raises(PreconditionViolation):
        separator(Hs.basis(1), Hs.basis(2))
    # division algebras can never satisfy the cancelling-norm hypothesis
    with pytest.raises(PreconditionViolation):
        separator(O.basis(1), O.basis(2))
    with pytest.raises(NotPure):
        separator(Os.one(), Os.basis(2))


def _forbidden(*args, **kwargs):
    raise AssertionError("exact-scalar object built by the witness ladder")


def test_null_pair_ladder_builds_no_exact_scalars(monkeypatch):
    # NullPair operands with fractional coefficients, moved off the axes by
    # a fractional sandwich, and a direct separator call on an Oc pair with
    # N(a) = -N(b) != 0, which the ladder never reaches (its null pairs
    # have zero norm)
    rng = random.Random("null-pair-no-exact-scalars")
    pairs = []
    for alg in (Hs, Hc, Os, Oc):
        for _ in range(6):
            a, b = random_orthogonal_null_pair(rng, alg)
            r = random_invertible(rng, alg, frac_prob=0.5)
            a, b = a * Fraction(1, 3), b * Fraction(-2, 5)
            pairs.append((sandwich(r, a), sandwich(r, b)))
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    a = Oc.element([0, half, 0, two_thirds, 0, 0, 0, 0])
    b = Oc.element([0, 0, half * I, 0, two_thirds * I, 0, 0, 0])
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", _forbidden)
        m.setattr(GaussRational, "__init__", _forbidden)
        m.setattr(GaussRational, "_make", _forbidden)
        witnesses = [conjugacy_witness(x, y) for x, y in pairs]
        p = separator(a, b)
    assert {w.branch for w in witnesses} == {Branch.NULL_PAIR}
    assert all(verify_witness(x, y, w).ok for (x, y), w in zip(pairs, witnesses))
    assert all(x.den > 1 and y.den > 1 for x, y in pairs)
    assert a.norm() == -b.norm() != 0
    assert p == Oc.basis(1) + Oc.basis(2)


def test_verify_witness_builds_no_exact_scalars(monkeypatch):
    # single and double witnesses on fractional and (over Q(i)) Gaussian
    # operands, each also checked against a wrong target
    rng = random.Random("verify-witness-no-exact-scalars")
    cases = []
    for alg in (H, Hs, Hc, O, Os, Oc):
        for _ in range(4):
            a = random_invertible(rng, alg, pure=True, frac_prob=0.5)
            r = random_invertible(rng, alg, frac_prob=0.5)
            for b in (sandwich(r, a), -a):
                cases.append((a, b, conjugacy_witness(a, b)))
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", _forbidden)
        m.setattr(GaussRational, "__init__", _forbidden)
        m.setattr(GaussRational, "_make", _forbidden)
        right = [verify_witness(a, b, w) for a, b, w in cases]
        wrong = [verify_witness(a, a, w) for a, b, w in cases if a != b]
    assert all(report.ok for report in right)
    assert not any(report.ok for report in wrong)
    assert {w.is_single for _, _, w in cases} == {True, False}
    assert any(a.den > 1 for a, _, _ in cases)
    assert any(a.num[1] is not None for a, _, _ in cases)


# ------------------------------------------------------- conjugacy witness

def test_witness_sum_branch():
    w = conjugacy_witness(H.basis(1), H.basis(2))
    assert w.is_single and w.branch is Branch.SUM_INVERTIBLE
    assert w.p == H.basis(1) + H.basis(2)
    assert sandwich(w.p, H.basis(1)) == H.basis(2)


def test_witness_division_negate_branch():
    a = O.basis(1)
    w = conjugacy_witness(a, -a)
    assert w.is_single and w.branch is Branch.DIVISION_NEGATE
    assert w.p == -O.basis(2)


def test_witness_diff_branch():
    a = Os.basis(2)
    w = conjugacy_witness(a, -a)
    assert not w.is_single and w.branch is Branch.DIFF_INVERTIBLE
    assert w.p == 2 * a
    assert w.q == Os.basis(4)
    assert transport(w, a) == (-a).coeffs


def test_witness_null_pair_branch():
    a = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    b = Os.element([0, 0, 3, 0, 0, 0, 4, 5])
    w = conjugacy_witness(a, b)
    assert not w.is_single and w.branch is Branch.NULL_PAIR
    assert w.q == sandwich(w.p, a) + b
    assert verify_witness(a, b, w).ok


def test_witness_null_pair_branch_complex():
    a = Oc.element([0, 4 * I, 5, 3 * I, -5, 4 * I, 0, 3 * I])
    b = Oc.element([0, 0, 3, 0, 0, 0, 4, 5 * I])
    w = conjugacy_witness(a, b)
    assert w.branch is Branch.NULL_PAIR
    assert verify_witness(a, b, w).ok


def test_witness_null_pair_with_negated_null():
    # b = -a for null a cannot use the sum or difference branches
    a = Os.element([0, 3, 5, 4, 0, 0, 0, 0])
    assert a.norm() == 0
    w = conjugacy_witness(a, -a)
    assert w.branch is Branch.NULL_PAIR
    assert verify_witness(a, -a, w).ok


def test_witness_validates_inputs():
    with pytest.raises(NormMismatch):
        conjugacy_witness(Hs.basis(1), Hs.basis(2))
    with pytest.raises(NotPure):
        conjugacy_witness(H.one(), H.basis(1))
    with pytest.raises(ZeroElement):
        conjugacy_witness(H.zero(), H.basis(1))
    with pytest.raises(AlgebraMismatch):
        conjugacy_witness(H.basis(1), Hs.basis(2))


def test_witness_minimal_mode():
    a = Os.basis(2)
    w = conjugacy_witness(a, -a, minimal=True)
    assert w.is_single and w.branch is Branch.COMMUTANT_SINGLE
    assert sandwich(w.p, a) == -a
    # b = -a takes the negator
    assert w.p == negator(a)
    # where no single exists the double is kept
    a2 = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    b2 = Os.element([0, 0, 3, 0, 0, 0, 4, 5])
    w2 = conjugacy_witness(a2, b2, minimal=True)
    assert not w2.is_single


@pytest.mark.parametrize(
    "call",
    [negator, lambda a: conjugacy_witness(a, -a)],
    ids=["negator", "conjugacy_witness"],
)
def test_witness_layer_names_an_algebra_outside_the_six(call):
    # a valid table, but no negator candidates are tabulated for it, so
    # each call raises a typed error naming it
    q2 = Algebra("Q2", False, QUATERNION_TABLE)
    with pytest.raises(PreconditionViolation, match="Q2 is not one of the six"):
        call(q2.basis(1))


# ----------------------------------------------------------- collapse

def test_collapse_double_to_single():
    a = Hc.element([0, 1, I, 0])
    b = -a
    w = conjugacy_witness(a, b)
    if w.is_single:
        # force a double through the ladder with a different pair
        a = Hs.basis(2)
        b = -a
        w = conjugacy_witness(a, b)
    assert not w.is_single
    single = collapse_quaternion(w)
    assert single.is_single and single.branch is Branch.ASSOCIATIVE_COLLAPSE
    assert single.p == w.q * w.p
    assert verify_witness(a, b, single).ok


def test_collapse_passes_singles_through():
    w = conjugacy_witness(H.basis(1), H.basis(2))
    assert collapse_quaternion(w) is w


def test_collapse_rejects_octonions():
    a = Os.basis(2)
    w = conjugacy_witness(a, -a)
    with pytest.raises(AlgebraMismatch):
        collapse_quaternion(w)


# ------------------------------------------------------- verify_witness

def test_verify_passes_valid_single():
    a, b = H.basis(1), H.basis(2)
    w = conjugacy_witness(a, b)
    report = verify_witness(a, b, w)
    assert report.ok and report.failures == ()


def test_verify_flags_tampered_witness():
    a, b = H.basis(1), H.basis(2)
    w = conjugacy_witness(a, b)
    tampered = ConjugacyWitness.single(w.p + 1, w.branch)
    report = verify_witness(a, b, tampered)
    assert not report.ok
    assert "p a p^-1 == b" in report.failures


def test_verify_flags_noninvertible_q():
    a = Os.element([0, 4, 5, 3, -5, 4, 0, 3])
    b = Os.element([0, 0, 3, 0, 0, 0, 4, 5])
    w = conjugacy_witness(a, b)
    null = Os.basis(4) + Os.basis(5)
    bad = ConjugacyWitness.double(w.p, null, w.branch)
    report = verify_witness(a, b, bad)
    assert not report.ok
    assert "norm(q) != 0" in report.failures


def test_verify_flags_algebra_mismatch():
    w = ConjugacyWitness.single(Hs.basis(1), Branch.SUM_INVERTIBLE)
    report = verify_witness(H.basis(1), H.basis(2), w)
    assert not report.ok and "algebras match" in report.failures


def test_sum_and_difference_conjugation_identities():
    # equal-square pure pairs: conjugation by a+b maps a to b, by a-b to -b
    pairs = [
        (H.element([0, 3, 4, 0]), H.element([0, 0, 4, 3])),
        (Os.element([0, 1, 2, 0, 0, 0, 0, 0]), Os.element([0, 0, 2, 1, 0, 0, 0, 0])),
    ]
    for a, b in pairs:
        assert a * a == b * b
        if (a + b).norm() != 0:
            assert sandwich(a + b, a) == b
        if (a - b).norm() != 0:
            assert sandwich(a - b, a) == -b
