"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see the lines for passing tests).

Criterion 3 reproduces the named families' lattice counts (B=64, C=64, D=32,
E=32) and accounts for every other hit of the exhaustive criterion search.
The paper reports five *main* classes, and the search finds two further
groups of invariant pairs on the pi/4 lattice, labelled UNCLASSIFIED: the
mixed-grid group (64 tuples at every interior theta1, with U2 = +-phi(U1))
and the split-grid group (32 tuples at theta1 = pi/2 only).  The test
asserts that the unclassified hits are exactly these closed-form sets and
proves each hit invariant for every game by a fixed coefficient witness.
"""

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from ewlext import (
    Bimatrix2,
    ClassParams,
    ExtendedGame,
    IDENTITY,
    IX,
    IsoVariant,
    LatticeSpec,
    PRISONERS_DILEMMA,
    build_extended_game,
    canonicalize,
    check_relations,
    coefficients,
    enumerate_discrete_solutions,
    extension_matrix,
    iso_variant,
    limit_check,
    mixed_equilibria,
    payoff_closed_form,
    payoff_oracle,
    search_solutions,
    strategy_set,
    verify_invariance_end_to_end,
)
from ewlext.cli import main
from ewlext.extensions import ClassId
from ewlext.payoff import coefficient_grid
from ewlext.solver import UNCLASSIFIED
from conftest import random_exact_pair, random_float_game, random_float_params

F = Fraction
PD = PRISONERS_DILEMMA
PD_JSON = '{"payoffs": [[["3","3"],["0","5"]],[["5","0"],["1","1"]]]}'

ALL_CLASS_PARAMS = [
    ClassParams.create("A1", alpha1="1/2 pi"),
    ClassParams.create("A2", alpha2="1/2 pi"),
    ClassParams.create("B"),
    ClassParams.create("C", theta1="1/3 pi"),
    ClassParams.create("D1", theta1="1/3 pi"),
    ClassParams.create("D2", theta1="1/3 pi"),
    ClassParams.create("E1", theta1="1/3 pi"),
    ClassParams.create("E2", theta1="1/3 pi"),
]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} [PASS] {description}", file=sys.stderr)


# Fixed relabelings (a permutation of [I, iX, U1, U2]) applied on the side(s)
# an isomorphic variant swaps.  The named families and the mixed-grid group
# exchange I <-> iX and U1 <-> U2; the split-grid group exchanges I <-> iX
# and maps each U_k to itself.
FAMILY_WITNESS = (1, 0, 3, 2)
SPLIT_GRID_WITNESS = (1, 0, 2, 3)
NO_SWAP = (0, 1, 2, 3)


def outcome_permutation(v):
    """For each outcome in (Delta_00, Delta_01, Delta_10, Delta_11), the
    outcome of the input game whose payoffs variant v puts there."""
    labels = Bimatrix2.from_rows([[(0, 0), (1, 1)], [(2, 2), (3, 3)]])
    return tuple(int(p.u1) for row in iso_variant(labels, v).delta for p in row)


def coefficient_witness_holds(strategies, swap):
    """Exact proof that the extension over the strategy set is invariant for
    every game: for each variant v, relabeling the swapped side(s) by `swap`
    and permuting outcomes as v does maps every coefficient vector
    c(s_i, s_j) onto itself, so the payoffs of both players agree in any
    game."""
    grid = coefficient_grid(strategies, mode="exact")
    for v in (IsoVariant.GAMMA1, IsoVariant.GAMMA2, IsoVariant.GAMMA3):
        perm = outcome_permutation(v)
        rp = swap if v in (IsoVariant.GAMMA1, IsoVariant.GAMMA3) else NO_SWAP
        cp = swap if v in (IsoVariant.GAMMA2, IsoVariant.GAMMA3) else NO_SWAP
        for i, row in enumerate(grid):
            for j, c in enumerate(row):
                swapped = grid[rp[i]][cp[j]]
                if tuple(swapped[k] for k in perm) != c:
                    return False
    return True


HALF_GRID = [F(k, 2) for k in range(4)]
ODD_QUARTERS = [F(k, 4) for k in (1, 3, 5, 7)]


def mixed_grid_tuples():
    """(alpha1, beta1, alpha2, beta2): one of (alpha1, beta1) on the half-pi
    grid, the other on the odd-quarter grid, and U2 = +-phi(U1), i.e.
    (alpha2, beta2) = (-beta1, pi - alpha1) up to a joint pi-shift."""
    pairs = ([(a, b) for a in HALF_GRID for b in ODD_QUARTERS]
             + [(a, b) for a in ODD_QUARTERS for b in HALF_GRID])
    return {(a1, b1, (shift - b1) % 2, (1 + shift - a1) % 2)
            for a1, b1 in pairs for shift in (0, 1)}


def split_grid_tuples():
    """{0, pi}^2 x {pi/2, 3pi/2}^2 and its mirror image."""
    whole, half = HALF_GRID[0::2], HALF_GRID[1::2]
    return {(a1, b1, a2, b2)
            for g1, g2 in ((whole, half), (half, whole))
            for a1 in g1 for b1 in g1 for a2 in g2 for b2 in g2}


def rational_game(rng, lo=0, hi=5, den=4):
    return Bimatrix2.from_rows([
        [(F(rng.randint(lo * den, hi * den), den),
          F(rng.randint(lo * den, hi * den), den)) for _ in range(2)]
        for _ in range(2)
    ])


def test_criterion_1_pd_golden_matrix(capsys):
    with criterion(1, "PD C-class golden matrix, exact entries, < 1 s"):
        start = time.perf_counter()
        code = main(["extend", "--class", "C", "--theta1", "1/3 pi",
                     "--game", PD_JSON])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        want = [
            [["3", "3"], ["0", "5"], ["17/8", "17/8"], ["19/8", "19/8"]],
            [["5", "0"], ["1", "1"], ["19/8", "19/8"], ["17/8", "17/8"]],
            [["17/8", "17/8"], ["19/8", "19/8"],
             ["27/16", "27/16"], ["57/16", "17/16"]],
            [["19/8", "19/8"], ["17/8", "17/8"],
             ["17/16", "57/16"], ["43/16", "43/16"]],
        ]
        assert data["labels"] == ["I", "iX", "U1", "U2"]
        assert data["payoffs"] == want
        assert elapsed < 1.0


def test_criterion_2_pd_equilibria():
    with criterion(2, "PD equilibria: 19/8 pure pair, 23/12 mixed, exact, < 5 s"):
        start = time.perf_counter()
        ext = extension_matrix(ClassParams.create("C", theta1="1/3 pi"), PD)
        report = mixed_equilibria(ext)
        pures = [e for e in report.equilibria if e.kind == "pure"]
        assert {e.supports for e in pures} == {((1,), (2,)), ((2,), (1,))}
        assert all(e.payoff == (F(19, 8), F(19, 8)) for e in pures)
        mixed = [e for e in report.equilibria if e.kind == "mixed"]
        target = (F(0), F(1, 3), F(2, 3), F(0))
        match = [e for e in mixed
                 if e.profile.p1 == target and e.profile.p2 == target]
        assert match and match[0].payoff == (F(23, 12), F(23, 12))
        classical = mixed_equilibria(ExtendedGame(("s1", "s2"), PD.delta))
        assert len(classical.equilibria) == 1
        assert classical.equilibria[0].payoff == (F(1), F(1))
        assert time.perf_counter() - start < 5.0


def test_criterion_3_solution_counts():
    with criterion(3, "lattice counts: B=64, C=64, D=32, E=32, each matching "
                      "its enumerated set; unclassified hits are exactly the "
                      "mixed- and split-grid groups; every hit proved by a "
                      "coefficient witness; exact, < 60 s"):
        start = time.perf_counter()
        at_half = search_solutions(LatticeSpec.create(["1/2 pi"]), mode="exact")
        at_third = search_solutions(LatticeSpec.create(["1/3 pi"]), mode="exact")
        elapsed = time.perf_counter() - start

        def tuples(result, prefix):
            return {(s.alpha1, s.beta1, s.alpha2, s.beta2)
                    for s in result.solutions if s.label.startswith(prefix)}

        b = tuples(at_half, "B")
        c = tuples(at_half, "C")
        assert len(b) == 64 and b == set(enumerate_discrete_solutions("B"))
        assert len(c) == 64 and c == set(enumerate_discrete_solutions("C"))
        d = tuples(at_third, "D")
        e = tuples(at_third, "E")
        assert len(d) == 32 and d == set(enumerate_discrete_solutions("D"))
        assert len(e) == 32 and e == set(enumerate_discrete_solutions("E"))
        assert elapsed < 60.0

        # No hit outside A-E goes unexplained: the extras are exactly the
        # closed-form mixed-grid group (every interior theta1) plus the
        # split-grid group (theta1 = pi/2 only).
        mixed, split = mixed_grid_tuples(), split_grid_tuples()
        assert len(mixed) == 64 and len(split) == 32
        assert tuples(at_half, UNCLASSIFIED) == mixed | split
        assert tuples(at_third, UNCLASSIFIED) == mixed

        # Each hit is invariant for every game, shown exactly in Q(sqrt(2))
        # by its group's fixed witness.  The named relations single out the
        # families: every named hit satisfies all of them, every extra
        # violates at least one.
        for s in at_half.solutions + at_third.solutions:
            phases = (s.alpha1, s.beta1, s.alpha2, s.beta2)
            strategies = [IDENTITY, IX,
                          canonicalize(s.theta1, s.alpha1, s.beta1),
                          canonicalize(1 - s.theta1.frac, s.alpha2, s.beta2)]
            swap = SPLIT_GRID_WITNESS if phases in split else FAMILY_WITNESS
            assert coefficient_witness_holds(strategies, swap), (s.label, phases)
            related = all(r.satisfied for r in check_relations(s.theta1, *phases))
            assert related == (s.label != UNCLASSIFIED), (s.label, phases)


def test_criterion_4_invariance_end_to_end():
    with criterion(4, "all classes invariant on 20 random games; known-bad set "
                      "fails, < 60 s"):
        start = time.perf_counter()
        rng = random.Random(4)
        for params in ALL_CLASS_PARAMS:
            strategies = strategy_set(params)
            for _ in range(20):
                game = rational_game(rng)
                assert verify_invariance_end_to_end(game, strategies).all_isomorphic
        bad = [IDENTITY, IX, canonicalize("1/2 pi", "1/2 pi", 0),
               canonicalize("1/2 pi", 0, 0)]
        report = verify_invariance_end_to_end(PD, bad)
        assert not report.all_isomorphic
        assert time.perf_counter() - start < 60.0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "1000 random triples: |closed form - statevector| <= 1e-10; "
                      "coefficients sum to 1 within 1e-12"):
        rng = random.Random(5)
        for _ in range(1000):
            game = random_float_game(rng)
            p1, p2 = random_float_params(rng), random_float_params(rng)
            a = payoff_closed_form(game, p1, p2, mode="float")
            b = payoff_oracle(game, p1, p2)
            assert abs(a.u1 - b.u1) <= 1e-10
            assert abs(a.u2 - b.u2) <= 1e-10
            c = coefficients(p1, p2, mode="float")
            assert abs(sum(c) - 1.0) <= 1e-12


def test_criterion_6_symmetry_suite():
    with criterion(6, "phase-shift symmetries: exact on lattice, 1e-12 on 500 "
                      "float points"):
        rng = random.Random(6)
        pi_shift = canonicalize(0, 1, 0).alpha
        half_shift = canonicalize(0, F(1, 2), 0).alpha
        zero = canonicalize(0, 0, 0).alpha

        def shifted(p, da, db):
            return canonicalize(p.theta, p.alpha + da, p.beta + db)

        for _ in range(50):
            p1, p2 = random_exact_pair(rng)
            base = coefficients(p1, p2)
            for pair in combinations(range(4), 2):
                sh = [pi_shift if k in pair else zero for k in range(4)]
                assert coefficients(shifted(p1, sh[0], sh[2]),
                                    shifted(p2, sh[1], sh[3])) == base
            assert coefficients(shifted(p1, half_shift, half_shift),
                                shifted(p2, half_shift, half_shift)) == base

        half_f = canonicalize(0, math.pi / 2, 0).alpha
        pi_f = canonicalize(0, math.pi, 0).alpha
        zero_f = canonicalize(0, 0.0, 0).alpha
        for _ in range(500):
            p1, p2 = random_float_params(rng), random_float_params(rng)
            base = coefficients(p1, p2, mode="float")
            for pair in combinations(range(4), 2):
                sh = [pi_f if k in pair else zero_f for k in range(4)]
                got = coefficients(shifted(p1, sh[0], sh[2]),
                                   shifted(p2, sh[1], sh[3]), mode="float")
                assert all(abs(x - y) <= 1e-12 for x, y in zip(got, base))
            got = coefficients(shifted(p1, half_f, half_f),
                               shifted(p2, half_f, half_f), mode="float")
            assert all(abs(x - y) <= 1e-12 for x, y in zip(got, base))


def test_criterion_7_structural_identity():
    with criterion(7, "block formulas equal the amplitude construction exactly, "
                      "each class x 10 random rational games"):
        rng = random.Random(7)
        for params in ALL_CLASS_PARAMS:
            strategies = strategy_set(params)
            for _ in range(10):
                game = rational_game(rng, den=8)
                a = extension_matrix(params, game)
                b = build_extended_game(game, strategies)
                assert a.payoffs == b.payoffs


def test_criterion_8_limit_convergence():
    with criterion(8, "D/E matrices at theta1 = 1e-6 (resp. pi - 1e-6) within "
                      "1e-5 of their A-class targets"):
        rng = random.Random(8)
        games = [PD] + [rational_game(rng) for _ in range(5)]
        for game in games:
            for name in ("D1", "D2", "E1", "E2"):
                for direction in ("zero", "pi"):
                    chk = limit_check(ClassId(name), direction, game,
                                      thetas=(1e-6,))
                    assert chk.max_abs_diff[0] <= 1e-5


def test_criterion_9_example3_regression():
    with criterion(9, "three-strategy example: row payoffs of U1 and U2 agree "
                      "with the stated averages"):
        u1 = canonicalize("1/2 pi", "1/2 pi", "1/2 pi")
        u2 = canonicalize("1/2 pi", "3/2 pi", "1/2 pi")
        strategies = [IDENTITY, IX, u1, u2]
        rng = random.Random(9)
        for game in [PD] + [rational_game(rng) for _ in range(5)]:
            a = game.values_u1()
            half = F(1, 2)
            quarter_avg = (a[0][0] + a[0][1] + a[1][0] + a[1][1]) * F(1, 4)
            want = {
                0: (a[0][1] + a[1][1]) * half,   # vs I
                1: (a[0][0] + a[1][0]) * half,   # vs iX
                2: quarter_avg,                  # vs U1
                3: quarter_avg,                  # vs U2
            }
            for j, s in enumerate(strategies):
                pay_u1 = payoff_closed_form(game, u1, s)
                pay_u2 = payoff_closed_form(game, u2, s)
                assert pay_u1.u1 == pay_u2.u1 == want[j]


def test_families_c_d_e_hold_for_every_theta1():
    """Families C, D and E are invariant for every theta1, not only on the
    lattice.  Fix a tuple's phases.  theta1 enters the closed form only
    through payoff._theta_weights: products (1 +- cos t1)(1 +- cos t2)/4 and
    sin t1 sin t2 / 2, each t being theta1, pi - theta1 or a constant.  So
    every coefficient of every pair of {I, iX, U1(theta1), U2(pi - theta1)}
    is a real trigonometric polynomial of degree at most 2 in theta1, and so
    is the difference of the two sides of the family witness (I <-> iX,
    U1 <-> U2).  A nonzero one has at most 4 zeros in a period: vanishing at
    5 distinct theta1, it vanishes for all.  The five are the theta1 in
    (0, pi) whose cosine lies in Q(sqrt(2)), pi/4, pi/3, pi/2, 2pi/3 and
    3pi/4, where the witness is checked exactly for all 128 tuples."""
    tuples = [t for name in "CDE" for t in enumerate_discrete_solutions(name)]
    assert len(tuples) == 128
    for theta1 in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)):
        for a1, b1, a2, b2 in tuples:
            strategies = [IDENTITY, IX, canonicalize(theta1, a1, b1),
                          canonicalize(1 - theta1, a2, b2)]
            assert coefficient_witness_holds(strategies, FAMILY_WITNESS), (theta1, a1, b1)
        # control: shifting alpha2 by pi/4 breaks the witness
        a1, b1, a2, b2 = tuples[0]
        assert not coefficient_witness_holds(
            [IDENTITY, IX, canonicalize(theta1, a1, b1),
             canonicalize(1 - theta1, a2 + F(1, 4), b2)], FAMILY_WITNESS)
