import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ewlext import (
    Angle,
    Bimatrix2,
    ClassId,
    ClassParams,
    InvalidClassParams,
    NotDiscreteError,
    PRISONERS_DILEMMA,
    Q2,
    build_extended_game,
    criterion_holds,
    enumerate_discrete_solutions,
    extension_matrix,
    limit_check,
    strategy_set,
    verify_invariance_end_to_end,
)
from ewlext.extensions import limit_target
from conftest import build_unitary, random_rational_game

PD = PRISONERS_DILEMMA
HALF = Fraction(1, 2)

ALL_CLASS_PARAMS = [
    ClassParams.create("A1", alpha1="1/4 pi"),
    ClassParams.create("A2", alpha2="1/4 pi"),
    ClassParams.create("B"),
    ClassParams.create("C", theta1="1/3 pi"),
    ClassParams.create("D1", theta1="1/3 pi"),
    ClassParams.create("D2", theta1="1/3 pi"),
    ClassParams.create("E1", theta1="1/3 pi"),
    ClassParams.create("E2", theta1="1/3 pi"),
]


# The paper's explicit solution lists, in units of pi: the independent
# reference that enumerate_discrete_solutions, derived from FAMILY_RULES,
# must reproduce.
_P14 = (Fraction(1, 4), Fraction(5, 4))
_P34 = (Fraction(3, 4), Fraction(7, 4))
_P0 = (Fraction(0), Fraction(1))
_P12 = (Fraction(1, 2), Fraction(3, 2))

PAPER_SOLUTIONS = {
    "B": {*product(_P14, _P14, _P14, _P14), *product(_P14, _P34, _P34, _P14),
          *product(_P34, _P14, _P14, _P34), *product(_P34, _P34, _P34, _P34)},
    "C": {*product(_P14, _P14, _P34, _P34), *product(_P34, _P34, _P14, _P14),
          *product(_P14, _P34, _P14, _P34), *product(_P34, _P14, _P34, _P14)},
    "D1": set(product(_P0, _P0, _P0, _P0)),
    "D2": set(product(_P12, _P12, _P12, _P12)),
    "E1": set(product(_P0, _P12, _P12, _P0)),
    "E2": set(product(_P12, _P0, _P0, _P12)),
}
PAPER_SOLUTIONS["D"] = PAPER_SOLUTIONS["D1"] | PAPER_SOLUTIONS["D2"]
PAPER_SOLUTIONS["E"] = PAPER_SOLUTIONS["E1"] | PAPER_SOLUTIONS["E2"]


def test_enumerate_counts():
    assert len(enumerate_discrete_solutions("B")) == 64
    assert len(enumerate_discrete_solutions("C")) == 64
    assert len(enumerate_discrete_solutions("D")) == 32
    assert len(enumerate_discrete_solutions("E")) == 32
    assert len(enumerate_discrete_solutions(ClassId.D1)) == 16
    assert len(enumerate_discrete_solutions(ClassId.E2)) == 16


def test_enumerate_equals_the_paper_lists():
    for name, want in PAPER_SOLUTIONS.items():
        got = enumerate_discrete_solutions(name)
        assert set(got) == want, name
        assert got == sorted(got)  # lexicographic, without repeats
        assert len(got) == len(want)


def test_enumerate_membership():
    q = Fraction(1, 4)
    assert (q, q, q, q) in enumerate_discrete_solutions("B")
    assert (q, q, 3 * q, 3 * q) in enumerate_discrete_solutions("C")
    for tup in enumerate_discrete_solutions("D"):
        denoms = {v.denominator for v in tup}
        assert denoms <= {1} or all(v in (HALF, 3 * HALF) for v in tup)


def test_enumerate_sets_are_disjoint():
    b = set(enumerate_discrete_solutions("B"))
    c = set(enumerate_discrete_solutions("C"))
    d = set(enumerate_discrete_solutions("D"))
    e = set(enumerate_discrete_solutions("E"))
    assert not (b & c) and not (d & e) and not (b & d) and not (c & e)


def test_enumerate_not_discrete_for_a():
    with pytest.raises(NotDiscreteError) as exc:
        enumerate_discrete_solutions("A")
    assert "alpha1 + beta2" in exc.value.congruence
    assert "alpha2 + beta1" in exc.value.congruence
    for name, congruence in (("A1", "alpha1 + beta2"), (ClassId.A2, "alpha2 + beta1")):
        with pytest.raises(NotDiscreteError) as exc:
            enumerate_discrete_solutions(name)
        assert exc.value.congruence.startswith(congruence)
    with pytest.raises(ValueError):
        enumerate_discrete_solutions("F")


def test_every_enumerated_tuple_validates(rng):
    for family, theta in (("B", HALF), ("C", Fraction(1, 3)),
                          ("D", Fraction(1, 3)), ("E", Fraction(1, 3))):
        for a1, b1, a2, b2 in PAPER_SOLUTIONS[family]:
            cid = family
            if family in ("D", "E"):
                cid = family + ("1" if a1.denominator == 1 else "2")
            params = ClassParams.create(cid, theta1=theta, alpha1=a1, beta1=b1,
                                        alpha2=a2, beta2=b2)
            assert params.class_id.value.startswith(family)


def test_strategy_set_pauli_case():
    params = ClassParams.create("A1", alpha1="1/2 pi", beta2="1/2 pi",
                                alpha2=0, beta1=0)
    s = strategy_set(params)
    mats = [build_unitary(p) for p in s]
    assert np.allclose(mats[0], np.eye(2), atol=1e-15)
    assert np.allclose(mats[1], [[0, 1j], [1j, 0]], atol=1e-15)      # i sigma_x
    assert np.allclose(mats[2], [[1j, 0], [0, -1j]], atol=1e-15)     # i sigma_z
    assert np.allclose(mats[3], [[0, -1], [1, 0]], atol=1e-15)       # i sigma_y


def test_strategy_set_b_member_matrix():
    params = ClassParams.create("B", alpha1="1/4 pi", beta1="3/4 pi",
                                alpha2="3/4 pi", beta2="1/4 pi")
    s = strategy_set(params)
    u2 = build_unitary(s[3])
    want = np.array([[-1 + 1j, -1 + 1j], [1 + 1j, -1 - 1j]]) / 2.0
    assert np.allclose(u2, want, atol=1e-15)


def test_c_at_half_pi_coincides_with_b():
    c = extension_matrix(ClassParams.create("C", theta1="1/2 pi"), PD)
    b = extension_matrix(ClassParams.create("B"), PD)
    assert c.payoffs == b.payoffs


def test_extension_matrix_pd_golden():
    ext = extension_matrix(ClassParams.create("C", theta1="1/3 pi"), PD)
    F = Fraction
    want = [
        [(3, 3), (0, 5), (F(17, 8), F(17, 8)), (F(19, 8), F(19, 8))],
        [(5, 0), (1, 1), (F(19, 8), F(19, 8)), (F(17, 8), F(17, 8))],
        [(F(17, 8), F(17, 8)), (F(19, 8), F(19, 8)),
         (F(27, 16), F(27, 16)), (F(57, 16), F(17, 16))],
        [(F(19, 8), F(19, 8)), (F(17, 8), F(17, 8)),
         (F(17, 16), F(57, 16)), (F(43, 16), F(43, 16))],
    ]
    for i in range(4):
        for j in range(4):
            assert ext.payoffs[i][j] == want[i][j]


def test_extension_matrix_b_uniform(rng):
    game = random_rational_game(rng)
    ext = extension_matrix(ClassParams.create("B"), game)
    cells = [game.delta[i][j] for i in range(2) for j in range(2)]
    avg1 = sum(c.u1 for c in cells) / 4
    avg2 = sum(c.u2 for c in cells) / 4
    for i in range(4):
        for j in range(4):
            if i >= 2 or j >= 2:
                assert ext.payoffs[i][j] == (avg1, avg2)


def test_extension_matrix_a2_block_pattern():
    ext = extension_matrix(ClassParams.create("A2", alpha2=0), PD)
    d = PD.delta
    want = [
        [d[0][0], d[0][1], d[0][1], d[0][0]],
        [d[1][0], d[1][1], d[1][1], d[1][0]],
        [d[1][0], d[1][1], d[1][1], d[1][0]],
        [d[0][0], d[0][1], d[0][1], d[0][0]],
    ]
    for i in range(4):
        for j in range(4):
            assert ext.payoffs[i][j] == want[i][j]


def test_structural_identity_all_classes(rng):
    # block formulas agree entrywise with the amplitude construction
    for params in ALL_CLASS_PARAMS:
        strategies = strategy_set(params)
        for _ in range(3):
            game = random_rational_game(rng)
            a = extension_matrix(params, game)
            b = build_extended_game(game, strategies)
            assert a.payoffs == b.payoffs


def test_all_classes_pass_criterion_and_invariance(rng):
    for params in ALL_CLASS_PARAMS:
        strategies = strategy_set(params)
        assert criterion_holds(strategies).holds
        for _ in range(3):
            game = random_rational_game(rng)
            assert verify_invariance_end_to_end(game, strategies).all_isomorphic


def test_a_class_free_phases_do_not_change_payoffs():
    # at theta = 0 the strategy matrix drops beta, at theta = pi it drops
    # alpha, so the family's free phases cannot move any payoff entry
    base = ClassParams.create("A1", alpha1="1/4 pi", alpha2=0, beta1=0)
    other = ClassParams.create("A1", alpha1="1/4 pi", alpha2="5/4 pi",
                               beta1="1/2 pi")
    g1 = build_extended_game(PD, strategy_set(base))
    g2 = build_extended_game(PD, strategy_set(other))
    assert g1.payoffs == g2.payoffs
    assert extension_matrix(base, PD).payoffs == g1.payoffs


def test_a_class_weights_are_complementary():
    # a + a' = b + b' = 1 shows up as row sums of the off-diagonal blocks
    for alpha in ("0", "1/4 pi", "1/2 pi", "7/4 pi"):
        params = ClassParams.create("A1", alpha1=alpha)
        ext = extension_matrix(params, PD)
        base = build_extended_game(PD, strategy_set(params))
        assert ext.payoffs == base.payoffs


def test_invalid_params_name_the_congruence():
    with pytest.raises(InvalidClassParams, match="alpha2 = beta1"):
        ClassParams.create("B", alpha1="1/4 pi", beta1="1/4 pi",
                           alpha2="3/4 pi", beta2="1/4 pi")
    with pytest.raises(InvalidClassParams, match="theta1 = pi/2"):
        ClassParams.create("B", theta1="1/3 pi")
    with pytest.raises(InvalidClassParams, match="odd multiple"):
        ClassParams.create("C", theta1="1/3 pi", alpha1="1/2 pi")
    with pytest.raises(InvalidClassParams, match="alpha1 \\+ beta2"):
        ClassParams.create("A1", alpha1="1/4 pi", beta2="1/4 pi")
    with pytest.raises(InvalidClassParams, match="beta1 = alpha1"):
        ClassParams.create("E1", theta1="1/3 pi", alpha1=0, beta1=0,
                           alpha2=0, beta2=0)
    with pytest.raises(InvalidClassParams, match="0, pi"):
        ClassParams.create("D1", theta1="1/3 pi", alpha1="1/2 pi",
                           beta1="1/2 pi", alpha2="1/2 pi", beta2="1/2 pi")


# (class, create arguments, the InvalidClassParams message); one case per
# kind of condition in extensions.FAMILY_RULES
MESSAGE_CASES = [
    ("A1", dict(theta1="1/4 pi"), "A1: requires theta1 = 0 (theta2 = pi)"),
    ("A2", dict(theta1=0), "A2: requires theta1 = pi (theta2 = 0)"),
    ("B", dict(theta1="1/3 pi"), "B: requires theta1 = pi/2"),
    ("C", dict(theta1="pi"), "C: requires theta1 strictly inside (0, pi)"),
    ("E2", dict(theta1=3.5), "E2: requires theta1 strictly inside (0, pi)"),
    ("A1", dict(alpha1="1/4 pi", beta2="1/4 pi"), "A1: violated alpha1 + beta2 = n pi"),
    ("A2", dict(alpha2=0.3, beta1=0.2), "A2: violated alpha2 + beta1 = n pi"),
    ("C", dict(alpha1=0.7),
     "C: phases must be exact multiples of pi/4 on the discrete solution lattice"),
    ("B", dict(beta2="1/2 pi"), "B: beta2 must be an odd multiple of pi/4"),
    ("B", dict(alpha2="3/4 pi"), "B: violated alpha2 = beta1 + n pi"),
    ("B", dict(beta2="3/4 pi"), "B: violated beta2 = alpha1 + l pi"),
    ("C", dict(alpha2="1/4 pi"), "C: violated alpha2 = beta1 + (n+1/2) pi"),
    ("C", dict(beta2="1/4 pi"), "C: violated beta2 = alpha1 + (l+1/2) pi"),
    ("D1", dict(alpha2="1/4 pi"), "D1: alpha2 must be a multiple of pi/2"),
    ("D2", dict(beta1=0), "D2: violated beta1 = alpha1 + n pi"),
    ("E1", dict(beta1=0), "E1: violated beta1 = alpha1 + (n+1/2) pi"),
    ("E2", dict(alpha2="1/2 pi"), "E2: violated alpha2 = beta1 + l pi"),
    ("D1", dict(beta2="1/2 pi"), "D1: violated beta2 = alpha1 + m pi"),
    ("D1", dict(alpha1="1/2 pi", beta1="1/2 pi", alpha2="1/2 pi", beta2="1/2 pi"),
     "D1: alpha1 must lie in {0, pi}"),
    ("E2", dict(alpha1=0, beta1="1/2 pi", alpha2="1/2 pi", beta2=0),
     "E2: alpha1 must lie in {pi/2, 3pi/2}"),
]


@pytest.mark.parametrize("cid,kwargs,message", MESSAGE_CASES)
def test_validate_reports_the_first_violated_condition(cid, kwargs, message):
    with pytest.raises(InvalidClassParams) as exc:
        ClassParams.create(cid, **kwargs)
    assert str(exc.value) == message


def test_create_defaults_theta2_and_a_class_phases():
    thetas = {"A1": "0", "A2": "pi", "B": "1/2 pi"}
    for cid in ClassId:
        params = ClassParams.create(cid)
        assert params.theta1.format() == thetas.get(cid.value, "1/3 pi")
        assert (params.theta1 + params.theta2).value == 1
    assert ClassParams.create("C").phases == tuple(
        Angle.pi_frac(k) for k in (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 4)))
    # the A-class tied phase is -alpha mod 2 pi, exact or float, and theta2
    # is pi - theta1 in the same arithmetic
    assert ClassParams.create("A2", alpha2="3/4 pi").beta1 == Angle.pi_frac(Fraction(5, 4))
    a1 = ClassParams.create("A1", alpha1=0.7)
    assert a1.beta2.value == (2 * math.pi - 0.7) % (2 * math.pi)
    assert ClassParams.create("C", theta1=1.0).theta2.value == math.pi - 1.0
    # a float A congruence holds within 1e-9 on both sides of a multiple of pi
    for offset in (-1e-12, 1e-12):
        ClassParams.create("A1", alpha1=0.3, beta2=math.pi - 0.3 + offset)


def test_limit_targets_match_block_limits():
    want = {
        ("D1", "zero"): ("A1", Fraction(0)),
        ("D2", "zero"): ("A1", HALF),
        ("E1", "zero"): ("A1", Fraction(0)),
        ("E2", "zero"): ("A1", HALF),
        ("D1", "pi"): ("A2", Fraction(0)),
        ("D2", "pi"): ("A2", HALF),
        ("E1", "pi"): ("A2", HALF),
        ("E2", "pi"): ("A2", Fraction(0)),
    }
    for (name, direction), (target_name, phase) in want.items():
        target = limit_target(ClassId(name), direction)
        assert target.class_id.value == target_name
        pinned = target.alpha1 if target_name == "A1" else target.alpha2
        assert pinned.frac == phase


def test_limit_convergence_within_bounds():
    for name in ("D1", "D2", "E1", "E2"):
        for direction in ("zero", "pi"):
            chk = limit_check(ClassId(name), direction, PD, thetas=(1e-3, 1e-6))
            assert chk.converged
            assert chk.max_abs_diff[1] < chk.max_abs_diff[0]


def test_limit_bound_scales_with_the_game_span():
    # entry and target are convex combinations of the game's entries: a
    # shift leaves the differences alone, a factor scales them
    rows = [[(3, 3), (0, 5)], [(5, 0), (1, 1)]]  # PD, span 5
    scaled = Bimatrix2.from_rows([[(100 * a, 100 * b) for a, b in r] for r in rows])
    shifted = Bimatrix2.from_rows([[(a + 7, b + 7) for a, b in r] for r in rows])
    thetas = (1e-1, 1e-2, 1e-3)
    for name in ("D1", "D2", "E1", "E2"):
        for direction in ("zero", "pi"):
            base = limit_check(ClassId(name), direction, PD, thetas=thetas)
            big = limit_check(ClassId(name), direction, scaled, thetas=thetas)
            moved = limit_check(ClassId(name), direction, shifted, thetas=thetas)
            assert big.converged and moved.converged
            assert big.bounds == pytest.approx([100 * b for b in base.bounds], rel=1e-12)
            assert moved.bounds == base.bounds
            assert big.max_abs_diff == pytest.approx(
                [100 * d for d in base.max_abs_diff], rel=1e-6)
            assert moved.max_abs_diff == pytest.approx(base.max_abs_diff, rel=1e-6)


def test_float_theta_accepted_for_t_classes():
    params = ClassParams.create("C", theta1=1.0471975511965976)  # ~pi/3
    ext = extension_matrix(params, PD)
    assert float(ext.payoffs[2][3].u1) == pytest.approx(57 / 16, abs=1e-9)


@pytest.mark.parametrize("cid", list(ClassId))
def test_both_constructions_give_equal_scalar_types(cid):
    # rational entries are Fractions in both, never Q2 with a zero sqrt(2) part
    params = ClassParams.create(cid)
    ext = extension_matrix(params, PD)
    built = build_extended_game(PD, strategy_set(params))
    assert ext == built
    for row_e, row_b in zip(ext.payoffs, built.payoffs):
        for cell_e, cell_b in zip(row_e, row_b):
            assert [type(v) for v in cell_e] == [type(v) for v in cell_b]


def test_float_a_congruence_is_symmetric_about_multiples_of_pi():
    # alpha1 + beta2 within 1e-12 of -pi or of pi, from either side.  Built
    # directly: create reduces phases to [0, 2 pi), so it never sums to -pi.
    zero = Angle.pi_frac(0)

    def a1(alpha1, beta2):
        return ClassParams(ClassId.A1, zero, Angle.radians(alpha1), zero, zero,
                           Angle.radians(beta2))

    for sign in (-1, 1):
        for offset in (-1e-12, 1e-12):
            a1(sign * 0.3, sign * (math.pi - 0.3) + offset).validate()
        with pytest.raises(InvalidClassParams, match=r"violated alpha1 \+ beta2 = n pi"):
            a1(sign * 0.3, sign * (math.pi - 0.3) + 1e-6).validate()


@pytest.mark.parametrize("cls,theta1", [("C", "1/4 pi"), ("E1", "1/3 pi"), ("D2", "3/4 pi")])
def test_extension_matrix_of_a_float_game_is_exact(cls, theta1):
    # a float entry is taken at its binary value, so the extension of a float
    # game is the extension of its Fraction entries, some in Q(sqrt(2))
    rows = [[(3.0, 3.0), (0.1, 5.0)], [(5.0, 0.0), (1.0, 1.0 / 3)]]
    params = ClassParams.create(cls, theta1=theta1)
    got = extension_matrix(params, Bimatrix2.from_rows(rows))
    want = extension_matrix(params, Bimatrix2.from_rows(
        [[tuple(map(Fraction, p)) for p in row] for row in rows]))
    assert got == want
    assert all(isinstance(v, (Fraction, Q2)) for row in got.payoffs for p in row for v in p)
