import math
import random
from fractions import Fraction

import pytest

from ewlext import (
    ExactnessError,
    IDENTITY,
    IX,
    ToleranceError,
    are_equivalent,
    canonicalize,
    criterion_holds,
    partition,
    payoff_closed_form,
)
from ewlext.exactnum import EXACT, FLOAT_TOL, Field, Q2
from conftest import random_exact_pair, random_float_game, random_lattice_params

U1_EX3 = canonicalize("1/2 pi", "1/2 pi", "1/2 pi")
U2_EX3 = canonicalize("1/2 pi", "3/2 pi", "1/2 pi")


def test_example_pair_is_equivalent():
    opponents = [IDENTITY, IX, U1_EX3, U2_EX3]
    assert are_equivalent(U1_EX3, U2_EX3, opponents)


def test_global_phase_shift_is_equivalent(rng):
    pi = canonicalize(0, 1, 0).alpha
    for _ in range(40):
        p = random_lattice_params(rng)
        q = canonicalize(p.theta, p.alpha + pi, p.beta + pi)
        assert are_equivalent(p, q, [IDENTITY, IX, p, q])


def test_identity_not_equivalent_to_ix():
    assert not are_equivalent(IDENTITY, IX, [IDENTITY])


def test_relation_properties(rng):
    for _ in range(20):
        p, q = random_exact_pair(rng)
        opponents = [IDENTITY, IX, p, q]
        assert are_equivalent(p, p, opponents)
        assert are_equivalent(q, q, opponents)
        assert are_equivalent(p, q, opponents) == are_equivalent(q, p, opponents)


def test_partition_diagonal_strategy_is_own_class():
    # diag(i, -i) acts like the identity only against diagonal opponents
    sz = canonicalize(0, "1/2 pi", 0)
    assert partition([IDENTITY, IX, sz]) == ((0,), (1,), (2,))


def test_partition_global_phase_one_class():
    minus_i = canonicalize(0, 1, 0)  # U(0, pi, .) = -I
    assert partition([IDENTITY, minus_i]) == ((0, 1),)


def test_partition_classical_pair():
    assert partition([IDENTITY, IX]) == ((0,), (1,))


def test_partition_example3_merges_u1_u2():
    assert partition([IDENTITY, IX, U1_EX3, U2_EX3]) == ((0,), (1,), (2, 3))


def test_equivalence_is_game_independent(rng):
    # equivalence w.r.t. an opponent set implies equal payoff pairs against
    # those opponents in every game, both player sides
    pi = canonicalize(0, 1, 0).alpha
    cases = [(U1_EX3, U2_EX3, [IDENTITY, IX, U1_EX3, U2_EX3])]
    for _ in range(5):
        p = random_lattice_params(rng)
        q = canonicalize(p.theta, p.alpha + pi, p.beta + pi)
        cases.append((p, q, [IDENTITY, IX, p, q]))
    for p, q, opponents in cases:
        assert are_equivalent(p, q, opponents)
    for _ in range(100):
        game = random_float_game(rng)
        for p, q, opponents in cases:
            for o in opponents:
                for order in ((p, o), (q, o)), ((o, p), (o, q)):
                    a = payoff_closed_form(game, *order[0], mode="float")
                    b = payoff_closed_form(game, *order[1], mode="float")
                    assert abs(a.u1 - b.u1) <= 1e-10
                    assert abs(a.u2 - b.u2) <= 1e-10


def test_float_comparisons_refuse_values_near_tol():
    # U(0, 3e-5 rad, 0) is 9e-10 from I in some coefficients: neither equal
    # at tol = 1e-10 nor clearly apart, so every float comparison raises
    # rather than give a verdict that hangs on rounding
    strategies = [IDENTITY, IX, canonicalize(0, 3e-5, 0)]
    with pytest.raises(ToleranceError):
        partition(strategies, mode="float")
    with pytest.raises(ToleranceError):
        criterion_holds(strategies, mode="float")
    with pytest.raises(ToleranceError):
        are_equivalent(IDENTITY, strategies[2], strategies, mode="float")


def test_empty_opponents_rejected():
    with pytest.raises(ValueError):
        are_equivalent(IDENTITY, IX, [])


def random_su2_opponents(count: int, seed: int = 0):
    """Haar-ish random sampled opponents for a stricter equivalence check."""
    rng = random.Random(seed)
    return [canonicalize(math.acos(rng.uniform(-1.0, 1.0)),
                         rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(count)]


def test_sampled_opponents_distinguish_finite_set_equivalence():
    from ewlext import phi

    sampled = random_su2_opponents(24, seed=5)
    # a global-sign pair stays equivalent against sampled opponents
    p = canonicalize("1/3 pi", 0, "1/4 pi")
    q = canonicalize("1/3 pi", 1, "5/4 pi")
    assert are_equivalent(p, q, sampled, mode="float")
    # a pair equivalent only relative to its own strategy set does not
    u1 = canonicalize("1/3 pi", "1/4 pi", "1/4 pi")
    u2 = canonicalize("2/3 pi", "3/4 pi", "3/4 pi")
    own_set = [IDENTITY, IX, u1, u2]
    assert are_equivalent(phi(u1), u2, own_set)
    assert not are_equivalent(phi(u1), u2, sampled, mode="float")


def test_field_comparison_rules():
    exact, approx = EXACT, Field(1e-9)
    assert Field.of([Fraction(1, 2), Q2(0, 1), 3]) is EXACT
    assert Field.of_values([Fraction(1, 2), 0.5]) == Field(FLOAT_TOL)
    with pytest.raises(ExactnessError):
        Field.of([Fraction(1, 2), 0.5])
    assert Field.of([Fraction(1, 2)], mode="float") == Field(FLOAT_TOL)
    assert exact.dot(exact.vector([1, Fraction(1, 2)]), exact.vector([Q2(0, 1), 4])) == Q2(2, 1)
    assert approx.dot(approx.vector([1, Fraction(1, 2)]), approx.vector([2, 4])) == 4.0
    assert list(exact.intern([Fraction(1, 2), 0.5, Q2(0, 1), Q2(1, 0)])) == [0, 0, 1, 2]
