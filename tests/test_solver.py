"""Lattice search tests.

The exhaustive criterion search is the ground truth here.  On the pi/4
lattice it recovers every discrete tuple of the named families B-E with the
documented cardinalities, and additionally finds mixed-grid tuples (one
player phase pair on the quarter grid, the other on the half grid) that are
strictly closed under the parameter bijection modulo a global sign.  Those
hits are genuine solutions of the invariance criterion; they fall outside
the named families and are reported as UNCLASSIFIED.  Every hit is
independently validated end to end in test_unclassified_hits_are_genuine,
and the table kernel is checked against criterion_holds tuple by tuple in
test_table_kernel_agrees_with_criterion_holds (exact, pi/4) and
test_float_kernel_agrees_with_criterion_holds (float, pi/8).  Its head
filter is checked against the same rule on every tuple of nine slices in
test_head_filter_loses_no_tuple.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

import pytest

from ewlext import (
    Angle,
    DomainError,
    ExactnessError,
    IDENTITY,
    IX,
    LatticeSpec,
    canonicalize,
    check_relations,
    criterion_holds,
    enumerate_discrete_solutions,
    phi,
    coefficients,
    search_solutions,
    ToleranceError,
    verify_invariance_end_to_end,
)
from ewlext import solver
from ewlext.equivalence import FLOAT_TOL, Field
from ewlext.solver import (
    UNCLASSIFIED,
    _coefficient_tables,
    _entry_id,
    _slice_hits,
    classify_tuple,
    lattice_phi,
)
from conftest import random_rational_game

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def result_half_pi():
    return search_solutions(LatticeSpec.create(["1/2 pi"]))


@pytest.fixture(scope="module")
def result_third_pi():
    return search_solutions(LatticeSpec.create(["1/3 pi"]))


@pytest.fixture(scope="module")
def result_quarter_pi():
    return search_solutions(LatticeSpec.create(["1/4 pi"]))


@pytest.fixture(scope="module")
def eighth_half_pi():
    return search_solutions(LatticeSpec.create(["1/2 pi"], "1/8"), mode="float")


@pytest.fixture(scope="module")
def eighth_third_pi():
    return search_solutions(LatticeSpec.create(["1/3 pi"], "1/8"), mode="float")


def _phase_tuples(result, label_prefix):
    return {
        (s.alpha1, s.beta1, s.alpha2, s.beta2)
        for s in result.solutions
        if s.label.startswith(label_prefix)
    }


def test_half_pi_recovers_named_families(result_half_pi):
    counts = result_half_pi.family_counts()
    assert counts["B"] == 64
    assert counts["C"] == 64
    assert counts["D"] == 32
    assert counts["E"] == 32
    assert _phase_tuples(result_half_pi, "B") == set(enumerate_discrete_solutions("B"))
    assert _phase_tuples(result_half_pi, "C") == set(enumerate_discrete_solutions("C"))
    assert _phase_tuples(result_half_pi, "D") == set(enumerate_discrete_solutions("D"))
    assert _phase_tuples(result_half_pi, "E") == set(enumerate_discrete_solutions("E"))


def test_third_pi_recovers_named_families(result_third_pi):
    counts = result_third_pi.family_counts()
    assert counts.get("B", 0) == 0  # B needs theta1 = pi/2
    assert counts["C"] == 64
    assert counts["D"] == 32
    assert counts["E"] == 32
    assert _phase_tuples(result_third_pi, "C") == set(enumerate_discrete_solutions("C"))


def test_unclassified_hits_are_genuine(result_third_pi, rng):
    # every extra hit must itself pass the end-to-end invariance check;
    # at interior generic theta they are exactly the mixed-grid tuples
    # strictly closed under the bijection modulo a global sign: one of
    # (alpha1, beta1) on the half-pi grid, the other on the odd-quarter
    # grid, and (alpha2, beta2) = (-beta1, pi - alpha1) up to a joint
    # pi-shift of both phases
    unc = [s for s in result_third_pi.solutions if s.label == UNCLASSIFIED]
    assert len(unc) == 64
    game = random_rational_game(rng)
    for s in unc:
        grids = sorted(v.denominator for v in (s.alpha1, s.beta1))
        assert grids == [1, 4] or grids == [2, 4]
        want = ((2 - s.beta1) % 2, (1 - s.alpha1) % 2)
        got = (s.alpha2, s.beta2)
        shifted = ((got[0] + 1) % 2, (got[1] + 1) % 2)
        assert want in (got, shifted)
    for s in rng.sample(unc, 8):
        u1 = canonicalize(s.theta1, s.alpha1, s.beta1)
        u2 = canonicalize(Fraction(2, 3), s.alpha2, s.beta2)
        rep = verify_invariance_end_to_end(game, [IDENTITY, IX, u1, u2])
        assert rep.all_isomorphic


def test_half_pi_extra_hits_are_genuine(result_half_pi, rng):
    # at theta = pi/2 there are 64 mixed-grid tuples as at generic theta,
    # plus 32 split-grid tuples whose images close on themselves: the full
    # products {0,pi}^2 x {pi/2,3pi/2}^2 and its mirror, with no cross
    # congruence between the players' phases
    unc = [s for s in result_half_pi.solutions if s.label == UNCLASSIFIED]
    assert len(unc) == 96
    split = {(s.alpha1, s.beta1, s.alpha2, s.beta2) for s in unc
             if all(v.denominator <= 2 for v in
                    (s.alpha1, s.beta1, s.alpha2, s.beta2))}
    p0 = (Fraction(0), Fraction(1))
    p12 = (HALF, 3 * HALF)
    want = {(a1, b1, a2, b2) for a1 in p0 for b1 in p0 for a2 in p12 for b2 in p12}
    want |= {(a1, b1, a2, b2) for a1 in p12 for b1 in p12 for a2 in p0 for b2 in p0}
    assert split == want
    game = random_rational_game(rng)
    for s in rng.sample(unc, 8):
        u1 = canonicalize(s.theta1, s.alpha1, s.beta1)
        u2 = canonicalize(HALF, s.alpha2, s.beta2)
        rep = verify_invariance_end_to_end(game, [IDENTITY, IX, u1, u2])
        assert rep.all_isomorphic


def test_quarter_grid_difference_cases_2_and_3_empty(result_half_pi):
    # within the all-quarter-grid category, the two mixed difference
    # scenarios (one difference = 0 mod pi, the other = pi/2 mod pi)
    # contribute no solutions
    for s in result_half_pi.solutions:
        phases = (s.alpha1, s.beta1, s.alpha2, s.beta2)
        if all(v.denominator == 4 for v in phases):
            d1 = (s.alpha2 - s.beta1) % 1    # 0 for case n*pi, 1/2 otherwise
            d2 = (s.alpha1 - s.beta2) % 1
            assert d1 == d2


def test_table_kernel_agrees_with_criterion_holds(result_half_pi, result_third_pi,
                                                  result_quarter_pi):
    # the exact search checks whole slices on interned coefficient tables;
    # criterion_holds is its reference, tuple by tuple: every reported hit
    # passes it and a seeded sample of the other tuples fails it
    rng = random.Random(20240603)
    quarters = [Fraction(k, 4) for k in range(8)]
    for result in (result_half_pi, result_third_pi, result_quarter_pi):
        th1 = result.solutions[0].theta1.frac
        th2 = 1 - th1

        def tuple_set(a1, b1, a2, b2):
            return [IDENTITY, IX, canonicalize(th1, a1, b1), canonicalize(th2, a2, b2)]

        hits = {(s.alpha1, s.beta1, s.alpha2, s.beta2) for s in result.solutions}
        assert len(hits) == len(result.solutions)
        for t in sorted(hits):
            assert criterion_holds(tuple_set(*t), mode="exact").holds, t
        others = [t for t in product(quarters, repeat=4) if t not in hits]
        for t in rng.sample(others, 256):
            assert not criterion_holds(tuple_set(*t), mode="exact").holds, t
        # the kernel's index form of phi is su2.phi on the lattice
        for theta in {Fraction(0), Fraction(1), th1, th2}:
            for a in range(8):
                for b in range(8):
                    t, pa, pb = lattice_phi(theta, a, b, 8)
                    assert phi(canonicalize(theta, quarters[a], quarters[b])) == \
                        canonicalize(t, quarters[pa], quarters[pb])


def test_coefficient_tables_intern_exact_vectors():
    # on random lattice cells, the table ids partition the cells exactly as
    # their exact coefficient vectors do
    rng = random.Random(7)
    thetas = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 4)]
    xy, uv = _coefficient_tables(thetas, 8, "exact")
    seen = set()
    for _ in range(400):
        p, o = rng.randrange(4), rng.randrange(4)
        ap, bp, ao, bo = (rng.randrange(8) for _ in range(4))
        ids = (xy[p, o, (ap + ao) % 8, (bp + bo) % 8], uv[p, o, (ap - bo) % 8, (ao - bp) % 8])
        vector = coefficients(canonicalize(thetas[p], Fraction(ap, 4), Fraction(bp, 4)),
                              canonicalize(thetas[o], Fraction(ao, 4), Fraction(bo, 4)),
                              mode="exact")
        seen.add((ids, vector))
    assert len({ids for ids, _ in seen}) == len({v for _, v in seen}) == len(seen)


def test_entry_id_interns_exact_vectors():
    # on random pairs of lattice strategies, the entry ids partition the
    # pairs exactly as their exact coefficient vectors do
    rng = random.Random(8)
    thetas = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 4)]
    entry = _entry_id(*_coefficient_tables(thetas, 8, "exact"), 8)

    def state(i):  # (theta position, alpha index, beta index)
        return i // 64, i // 8 % 8, i % 8

    def strategy(s):
        return canonicalize(thetas[s[0]], Fraction(s[1], 4), Fraction(s[2], 4))

    seen = set()
    for _ in range(400):
        s, t = state(rng.randrange(256)), state(rng.randrange(256))
        vector = coefficients(strategy(s), strategy(t), mode="exact")
        seen.add((entry(s, t), vector))
    assert len({e for e, _ in seen}) == len({v for _, v in seen}) == len(seen)


def _all_tuples_hits(th1, n, mode):
    """The row-multiset rule on every tuple of the slice, over the kernel's
    tables and with no head filter: S = {I, iX, U1, U2} passes when the rows
    of phi(S) against S equal the rows of S against S as multisets."""
    thetas = list(dict.fromkeys((Fraction(0), Fraction(1), th1, 1 - th1)))
    pos = {t: i for i, t in enumerate(thetas)}
    entry = _entry_id(*_coefficient_tables(thetas, n, mode), n)
    grids = [[(pos[t], a, b) for a in range(n) for b in range(n)] for t in (th1, 1 - th1)]
    images = [[(pos[t], a, b) for t, a, b in (lattice_phi(thetas[p], a, b, n) for p, a, b in g)]
              for g in grids]
    eye, ix = (pos[Fraction(0)], 0, 0), (pos[Fraction(1)], 0, 0)
    fixed = [eye, ix] + [(pos[t], a, b) for t, a, b in
                         (lattice_phi(Fraction(k), 0, 0, n) for k in (0, 1))]
    columns = [eye, ix] + grids[0] + grids[1]
    col = {s: k for k, s in enumerate(columns)}
    table = {r: [entry(r, c) for c in columns]
             for r in fixed + grids[0] + grids[1] + images[0] + images[1]}
    hits = []
    for i, (u, pu) in enumerate(zip(grids[0], images[0])):
        for j, (v, pv) in enumerate(zip(grids[1], images[1])):
            row = itemgetter(0, 1, col[u], col[v])  # a strategy's entries against S
            if sorted(map(row, [table[r] for r in (eye, ix, u, v)])) == \
                    sorted(map(row, [table[r] for r in (*fixed[2:], pu, pv)])):
                hits.append((*divmod(i, n), *divmod(j, n)))
    return hits


@pytest.mark.parametrize("th1, n, mode", [
    *((t, 8, "exact") for t in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")),
    *((t, 16, "float") for t in ("1/3", "1/2")),
])
def test_head_filter_loses_no_tuple(th1, n, mode):
    # the kernel checks only the tuples whose row heads agree; every tuple
    # checked without that filter gives the same hits, in the same order
    th1 = Fraction(th1)
    assert list(_slice_hits(th1, n, mode)) == _all_tuples_hits(th1, n, mode)


def test_exact_search_rejects_theta_outside_q_sqrt2():
    with pytest.raises(ExactnessError, match=r"cos\(1/6\*pi\)"):
        search_solutions(LatticeSpec.create(["1/6 pi"]), mode="exact")


def test_no_solutions_off_the_complementary_theta_surface():
    # theta2 = pi - theta1 is necessary: an equal-theta sweep finds nothing
    th = Fraction(1, 3)
    for a1 in range(8):
        for b1 in range(8):
            u1 = canonicalize(th, Fraction(a1, 4), Fraction(b1, 4))
            for a2 in range(8):
                for b2 in range(8):
                    u2 = canonicalize(th, Fraction(a2, 4), Fraction(b2, 4))
                    assert not criterion_holds([IDENTITY, IX, u1, u2]).holds


def test_theta_zero_slice_matches_congruence():
    result = search_solutions(LatticeSpec.create([0]))
    assert result.family_counts() == {"A": 1024}
    for s in result.solutions:
        assert s.label == "A1"
        assert (s.alpha1 + s.beta2) % 1 == 0
    # alpha2 and beta1 are unconstrained: all 64 combinations appear
    free = {(s.alpha2, s.beta1) for s in result.solutions}
    assert len(free) == 64


def test_theta_pi_slice_mirrors_theta_zero():
    result = search_solutions(LatticeSpec.create(["pi"]))
    assert result.family_counts() == {"A": 1024}
    for s in result.solutions:
        assert s.label == "A2"
        assert (s.alpha2 + s.beta1) % 1 == 0


def test_classify_tuple_examples():
    q = Fraction(1, 4)
    half_pi = canonicalize(HALF, 0, 0).theta
    third_pi = canonicalize(Fraction(1, 3), 0, 0).theta
    zero = canonicalize(0, 0, 0).theta
    assert classify_tuple(half_pi, q, q, q, q) == "B"
    assert classify_tuple(half_pi, q, q, 3 * q, 3 * q) == "C"
    assert classify_tuple(third_pi, q, q, q, q) == UNCLASSIFIED  # B needs pi/2
    assert classify_tuple(third_pi, Fraction(0), Fraction(0), Fraction(0),
                          Fraction(0)) == "D1"
    assert classify_tuple(third_pi, HALF, HALF, HALF, HALF) == "D2"
    assert classify_tuple(third_pi, Fraction(0), HALF, HALF, Fraction(0)) == "E1"
    assert classify_tuple(zero, q, 3 * q, HALF, 7 * q) == "A1"
    assert classify_tuple(zero, q, 3 * q, HALF, HALF) == UNCLASSIFIED


def _reference_classify(theta1, a1, b1, a2, b2):
    """The hand-written congruences classify_tuple used before the family
    table (extensions.FAMILY_RULES), kept as an independent reference."""
    if theta1.is_exact and theta1.frac == 0:
        return "A1" if (a1 + b2) % 1 == 0 else UNCLASSIFIED
    if theta1.is_exact and theta1.frac == 1:
        return "A2" if (a2 + b1) % 1 == 0 else UNCLASSIFIED
    quarters = all(v.denominator == 4 for v in (a1, b1, a2, b2))
    halves = all(v.denominator in (1, 2) for v in (a1, b1, a2, b2))
    if quarters:
        if (a2 - b1) % 1 == 0 and (b2 - a1) % 1 == 0:
            if theta1.is_exact and theta1.frac == HALF:
                return "B"
            return UNCLASSIFIED
        if (a2 - b1 - HALF) % 1 == 0 and (b2 - a1 - HALF) % 1 == 0:
            return "C"
        return UNCLASSIFIED
    if halves:
        if (a2 - b1) % 1 != 0 or (b2 - a1) % 1 != 0:
            return UNCLASSIFIED
        if (b1 - a1) % 1 == 0:
            return "D1" if a1.denominator == 1 else "D2"
        if (b1 - a1 - HALF) % 1 == 0:
            return "E1" if a1.denominator == 1 else "E2"
    return UNCLASSIFIED


def test_classify_tuple_equals_the_reference_congruences():
    # every tuple of the pi/4 lattice, hit or not, at seven theta1 values
    points = [Fraction(k, 4) for k in range(8)]
    for k in (0, Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4), 1):
        theta = Angle.pi_frac(k)
        for phases in product(points, repeat=4):
            assert classify_tuple(theta, *phases) == _reference_classify(theta, *phases)


def test_exact_mode_rejects_eighth_step():
    spec = LatticeSpec.create(["1/2 pi"], "1/8")
    with pytest.raises(ExactnessError):
        search_solutions(spec, mode="exact")


def test_eighth_step_float_probe(eighth_half_pi, result_half_pi):
    # the stress lattice contains the pi/4 lattice, and its hits there are
    # exactly the exact search's hits, labels included
    def tuples(solutions):
        return {(s.alpha1, s.beta1, s.alpha2, s.beta2, s.label) for s in solutions}

    sub = [s for s in eighth_half_pi.solutions
           if all(v.denominator <= 4 for v in (s.alpha1, s.beta1, s.alpha2, s.beta2))]
    assert tuples(sub) == tuples(result_half_pi.solutions)
    assert len(sub) == len(result_half_pi.solutions)


def test_float_kernel_agrees_with_criterion_holds(eighth_half_pi, eighth_third_pi):
    # the pi/8 search runs the table kernel on doubles interned at
    # FLOAT_TOL; criterion_holds(mode="float") is its reference, tuple by
    # tuple: every reported hit passes it and a seeded sample of the other
    # tuples fails it
    rng = random.Random(20241018)
    eighths = [Fraction(k, 8) for k in range(16)]
    for result in (eighth_half_pi, eighth_third_pi):
        th1 = result.solutions[0].theta1.frac
        th2 = 1 - th1

        def tuple_set(a1, b1, a2, b2):
            return [IDENTITY, IX, canonicalize(th1, a1, b1), canonicalize(th2, a2, b2)]

        hits = {(s.alpha1, s.beta1, s.alpha2, s.beta2) for s in result.solutions}
        assert len(hits) == len(result.solutions)
        for t in sorted(hits):
            assert criterion_holds(tuple_set(*t), mode="float").holds, t
        others = [t for t in product(eighths, repeat=4) if t not in hits]
        for t in rng.sample(others, 256):
            assert not criterion_holds(tuple_set(*t), mode="float").holds, t
        # the kernel's index form of phi is su2.phi on the pi/8 lattice
        for theta in {Fraction(0), Fraction(1), th1, th2}:
            for a in range(16):
                for b in range(16):
                    t, pa, pb = lattice_phi(theta, a, b, 16)
                    assert phi(canonicalize(theta, eighths[a], eighths[b])) == \
                        canonicalize(t, eighths[pa], eighths[pb])


@pytest.mark.parametrize("th1", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 3),
                                 Fraction(3, 4)])
def test_float_interning_guard_holds_at_bench_thetas(th1):
    # the pi/8 tables build without ToleranceError, and for every two of
    # 200 random cells the ids are equal exactly when the float vectors
    # agree within FLOAT_TOL
    rng = random.Random(11)
    thetas = [Fraction(0), Fraction(1), th1, 1 - th1]
    xy, uv = _coefficient_tables(thetas, 16, "float")

    def cell(p, o, ap, bp, ao, bo):
        ids = (xy[p, o, (ap + ao) % 16, (bp + bo) % 16],
               uv[p, o, (ap - bo) % 16, (ao - bp) % 16])
        vector = coefficients(canonicalize(thetas[p], Fraction(ap, 8), Fraction(bp, 8)),
                              canonicalize(thetas[o], Fraction(ao, 8), Fraction(bo, 8)),
                              mode="float")
        return ids, vector

    cells = [cell(*(rng.randrange(4) for _ in range(2)), *(rng.randrange(16) for _ in range(4)))
             for _ in range(200)]
    equal = 0
    for (ids1, v1), (ids2, v2) in combinations(cells, 2):
        close = all(abs(x - y) <= FLOAT_TOL for x, y in zip(v1, v2))
        assert (ids1 == ids2) == close
        equal += close
    assert 0 < equal < len(cells) * (len(cells) - 1) // 2


def test_float_interning_refuses_values_near_tol():
    assert list(Field(FLOAT_TOL).intern([0.5, 0.25, 0.5 + 1e-16])) == [1, 0, 1]
    for values in ([0.25, 0.5, 0.5 + 2 * FLOAT_TOL],   # a gap just above tol
                   [0.25, 0.5, 0.5 + FLOAT_TOL / 2],   # a cluster wider than tol/100
                   [0.25, float("nan")]):
        with pytest.raises(ToleranceError):
            Field(FLOAT_TOL).intern(values)


def test_float_search_refuses_a_table_with_a_gap_near_tol(monkeypatch):
    # nudging the alpha = pi/8 vectors by 3 tol puts them 3 tol from the
    # equal vectors at alpha = 15 pi/8: the kernel raises rather than guess
    real = solver.coefficients

    def nudged(p1, p2, mode="exact"):
        c = real(p1, p2, mode=mode)
        if p1.alpha.frac == Fraction(1, 8):
            return c._replace(c00=c.c00 + 3 * FLOAT_TOL)
        return c

    monkeypatch.setattr(solver, "coefficients", nudged)
    with pytest.raises(ToleranceError):
        search_solutions(LatticeSpec.create(["1/3 pi"], "1/8"), mode="float")


@pytest.mark.parametrize("theta", ["0", "1/4 pi", "1/3 pi", "1/2 pi", "2/3 pi",
                                   "3/4 pi", "pi"])
def test_float_search_equals_exact_search_on_quarter_lattice(theta):
    spec = LatticeSpec.create([theta])
    assert search_solutions(spec, mode="float") == search_solutions(spec, mode="exact")


def test_search_rejects_auto_and_raises_outside_q_sqrt2_in_exact_mode():
    for mode in ("auto", "fast"):
        with pytest.raises(ValueError, match="unknown mode"):
            search_solutions(LatticeSpec.create(["1/2 pi"]), mode=mode)
    with pytest.raises(ExactnessError):  # cos(pi/6) leaves Q(sqrt(2))
        search_solutions(LatticeSpec.create(["1/6 pi"]))
    with pytest.raises(ExactnessError):  # so does pi/8 trigonometry
        search_solutions(LatticeSpec.create(["1/2 pi"], "1/8"))


@pytest.mark.parametrize("step", ["1/0", "abc", "1/0 pi", "1/3"])
def test_lattice_spec_rejects_bad_step(step):
    with pytest.raises(DomainError):
        LatticeSpec.create(["0"], step)


def test_check_relations_b_tuple():
    rels = check_relations("1/2 pi", "1/4 pi", "1/4 pi", "1/4 pi", "1/4 pi")
    assert all(r.satisfied for r in rels)
    assert len(rels) == 5


def test_check_relations_violation():
    rels = check_relations("1/2 pi", "1/4 pi", "0", "0", "1/4 pi")
    by_name = {r.name: r for r in rels}
    assert not by_name["sin(2*(alpha1 - beta1)) = 0"].satisfied
    assert by_name["sin(2*(alpha1 - beta1)) = 0"].lhs == pytest.approx(1.0)


def test_check_relations_boundary_degenerates():
    rels = check_relations("0", "1/4 pi", "0", "0", "3/4 pi")
    assert len(rels) == 2  # only the residual sin(2x) chain remains
    assert all(r.satisfied for r in rels)
    rels = check_relations("0", "1/4 pi", "0", "0", "1/4 pi")
    assert not all(r.satisfied for r in rels)


def test_boundary_relations_hold_exactly_on_the_criterion_hits():
    # theta1 = 0 chains alpha1 and beta2, theta1 = pi alpha2 and beta1
    points = [Fraction(k, 4) for k in range(8)]
    for theta in ("0", "pi"):
        hits = {(s.alpha1, s.beta1, s.alpha2, s.beta2)
                for s in search_solutions(LatticeSpec.create([theta])).solutions}
        holds = {t for t in product(points, repeat=4)
                 if all(r.satisfied for r in check_relations(theta, *t))}
        assert len(hits) == 1024
        assert holds == hits


def test_csv_output_shape(result_third_pi):
    csv = result_third_pi.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "theta1,alpha1,beta1,alpha2,beta2,class"
    assert len(lines) == 1 + len(result_third_pi.solutions)
    assert lines[1].startswith("1/3 pi,")
