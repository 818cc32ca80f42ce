from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ewlext import (
    Bimatrix2,
    ClassParams,
    Equilibrium,
    EquilibriumReport,
    ExtendedGame,
    IsoVariant,
    MixedProfile,
    PRISONERS_DILEMMA,
    PayoffPair,
    Q2,
    best_response_values,
    extension_matrix,
    iso_variant,
    mixed_equilibria,
    pure_equilibria,
    verify_equilibrium,
)
from ewlext import DomainError, nash
from ewlext.exactnum import normalize
from ewlext.nash import solve_linear
from conftest import floated_report, gauss_jordan_reference, random_rational_game

PD = PRISONERS_DILEMMA
F = Fraction


def classical(game):
    return ExtendedGame(("s1", "s2"), game.delta)


@pytest.fixture(scope="module")
def c_ext():
    return extension_matrix(ClassParams.create("C", theta1="1/3 pi"), PD)


R2 = Q2(0, 1)  # sqrt(2)


def ring_solve(a_rows, rhs):
    """solve_linear on integer entries (ints and Z[sqrt(2)] integers):
    checks that each numerator is an int or, with a sqrt(2) part, a Q2 with
    d = 1, that d is a positive int and that x = nums / d solves the system;
    returns (status, x)."""
    status, x = solve_linear(a_rows, rhs)
    if x is None:
        return status, None
    nums, d = x
    for v in nums:
        assert type(v) is int or type(v) is Q2 and v.d == 1 and v.q != 0, repr(v)
    assert type(d) is int and d > 0
    x = [Q2.coerce(v) / d for v in nums]
    assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(a_rows, rhs))
    return status, x


def test_solve_linear_unique():
    status, x = ring_solve([[2, 1], [1, -1]], [3, 0])
    assert status == "unique"
    assert x == [F(1), F(1)]


def test_solve_linear_inconsistent():
    status, x = solve_linear([[1, 1], [2, 2]], [1, 3])
    assert status == "none" and x is None


def test_solve_linear_underdetermined():
    status, x = ring_solve([[1, 1, 0]], [1])
    assert status == "many"
    assert x[0] == 1 and x[1] == 0  # free variables pinned to zero


def test_solve_linear_z_sqrt2_unique_through_a_non_unit_pivot():
    # the first pivot 2 + sqrt(2) has norm 2, so the second step divides by
    # it through its conjugate and norm; the last pivot is det A = 1 + 2
    # sqrt(2), and d is its norm 1 - 8 with the sign made positive
    a_rows, rhs = [[2 + R2, 1], [1, R2]], [3, 1 + R2]
    status, x = ring_solve(a_rows, rhs)
    assert status == "unique"
    assert solve_linear(a_rows, rhs)[1][1] == 7
    assert x == [Q2(F(9, 7), F(-4, 7)), Q2(F(11, 7), F(-1, 7))]


def test_solve_linear_z_sqrt2_last_pivot_gives_an_int_d():
    # a last pivot with a sqrt(2) part: d is its norm made positive, and the
    # numerators carry its conjugate, for a negative and a positive norm
    assert solve_linear([[1 + R2]], [1]) == ("unique", ([R2 - 1], 1))
    assert solve_linear([[3 + R2]], [1]) == ("unique", ([3 - R2], 7))
    a_rows, rhs = [[1, 1], [1, R2]], [1, 0]  # last pivot det A = sqrt(2) - 1
    assert ring_solve(a_rows, rhs) == ("unique", [2 + R2, -1 - R2])
    assert solve_linear(a_rows, rhs)[1][1] == 1


def test_solve_linear_z_sqrt2_many_and_none():
    status, x = ring_solve([[2 + R2, 1, R2], [1, R2, 1]], [1, 0])
    assert status == "many" and x[2] == 0  # the free variable pinned to zero
    # the second row is sqrt(2) times the first on A but not on b
    assert ring_solve([[2 + R2, 1], [2 + 2 * R2, R2]], [1, 1]) == ("none", None)
    assert ring_solve([[2 + R2, 1], [2 + 2 * R2, R2]], [1, R2])[0] == "many"


def test_pure_equilibria_classical_pd():
    assert pure_equilibria(classical(PD)) == [(1, 1)]


def test_pure_equilibria_c_extension(c_ext):
    eqs = pure_equilibria(c_ext)
    assert eqs == [(1, 2), (2, 1)]  # (iX, U1) and (U1, iX)
    for i, j in eqs:
        assert c_ext.payoffs[i][j] == (F(19, 8), F(19, 8))


def test_pure_equilibria_constant_game():
    g = ExtendedGame(
        ("a", "b", "c", "d"),
        tuple(tuple((F(2), F(2)) for _ in range(4)) for _ in range(4)),
    )
    assert len(pure_equilibria(g)) == 16
    small = classical(Bimatrix2.from_rows([[(2, 2), (2, 2)], [(2, 2), (2, 2)]]))
    assert len(pure_equilibria(small)) == 4
    assert mixed_equilibria(small).degenerate


def test_best_response_dimension_mismatch(c_ext):
    from ewlext import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        best_response_values(c_ext, (F(1, 2), F(1, 2)), side="row")


def test_float_mode_agrees_with_exact(rng):
    for _ in range(30):
        rows = [[(F(rng.randint(0, 24), 4), F(rng.randint(0, 24), 4))
                 for _ in range(2)] for _ in range(2)]
        g_exact = classical(Bimatrix2.from_rows(rows))
        g_float = classical(Bimatrix2.from_rows(
            [[(float(a), float(b)) for a, b in r] for r in rows]))
        key = lambda rep: sorted(
            tuple(round(float(v), 6) for v in e.profile.p1 + e.profile.p2)
            for e in rep.equilibria
        )
        assert key(mixed_equilibria(g_exact)) == key(
            mixed_equilibria(g_float, mode="float"))


def test_support_enumeration_size_limit():
    from ewlext import DimensionMismatchError

    n = 7
    grid = tuple(tuple((F(1), F(1)) for _ in range(n)) for _ in range(n))
    big = ExtendedGame(tuple(f"s{i}" for i in range(n)), grid)
    with pytest.raises(DimensionMismatchError):
        mixed_equilibria(big)


def test_mixed_equilibria_classical_pd():
    rep = mixed_equilibria(classical(PD))
    assert len(rep.equilibria) == 1
    eq = rep.equilibria[0]
    assert eq.kind == "pure"
    assert eq.payoff == (F(1), F(1))
    assert not rep.degenerate


def test_mixed_equilibria_c_extension(c_ext):
    rep = mixed_equilibria(c_ext)
    kinds = sorted(e.kind for e in rep.equilibria)
    assert kinds == ["mixed", "pure", "pure"]
    mixed = [e for e in rep.equilibria if e.kind == "mixed"][0]
    third, two_thirds = F(1, 3), F(2, 3)
    assert mixed.profile.p1 == (0, third, two_thirds, 0)
    assert mixed.profile.p2 == (0, third, two_thirds, 0)
    assert mixed.payoff == (F(23, 12), F(23, 12))
    pures = [e for e in rep.equilibria if e.kind == "pure"]
    assert {e.supports for e in pures} == {((1,), (2,)), ((2,), (1,))}
    assert all(e.payoff == (F(19, 8), F(19, 8)) for e in pures)
    assert not rep.degenerate


def test_matching_pennies():
    mp = classical(Bimatrix2.from_rows([[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]]))
    rep = mixed_equilibria(mp)
    assert len(rep.equilibria) == 1
    eq = rep.equilibria[0]
    assert eq.profile.p1 == (F(1, 2), F(1, 2))
    assert eq.profile.p2 == (F(1, 2), F(1, 2))
    assert eq.payoff == (0, 0)


def test_best_response_values(c_ext):
    mix = (0, F(1, 3), F(2, 3), 0)
    vals = best_response_values(c_ext, mix, side="row")
    assert vals[1] == vals[2] == F(23, 12)  # indifference on the support
    assert vals[0] == F(17, 12) and vals[3] == F(17, 12)
    col = best_response_values(c_ext, (0, 0, 1, 0), side="row")
    assert col == [c_ext.payoffs[i][2].u1 for i in range(4)]
    uniform = best_response_values(
        classical(Bimatrix2.from_rows([[(2, 2), (2, 2)], [(2, 2), (2, 2)]])),
        (F(1, 2), F(1, 2)), side="row")
    assert uniform == [2, 2]


def test_best_response_values_are_fractions_when_rational():
    r = Q2(0, 1)
    g = ExtendedGame(("s1", "s2"), (((1 + r, r), (1 - r, 1)), ((r, 1 - r), (2 - r, 2))))
    half = (F(1, 2), F(1, 2))
    for side, want in (("row", [1, 1]), ("col", [F(1, 2), F(3, 2)])):
        vals = best_response_values(g, half, side=side)
        assert vals == want and [type(v) for v in vals] == [Fraction, Fraction]
    assert best_response_values(g, (1, 0), side="row") == [1 + r, r]


def test_all_reported_equilibria_pass_deviation_check(rng, c_ext):
    for rep, game in [(mixed_equilibria(c_ext), c_ext)]:
        for eq in rep.equilibria:
            assert verify_equilibrium(game, eq)
    for _ in range(25):
        g = classical(random_rational_game(rng))
        rep = mixed_equilibria(g)
        assert rep.equilibria, "a bimatrix game always has an equilibrium"
        for eq in rep.equilibria:
            assert verify_equilibrium(g, eq)


def test_equilibria_map_across_isomorphic_variants(c_ext):
    # the equilibrium set of a swapped variant is the permuted original set
    from ewlext import build_extended_game, strategy_set, strongly_isomorphic

    params = ClassParams.create("C", theta1="1/3 pi")
    strategies = strategy_set(params)
    base_eqs = mixed_equilibria(c_ext).equilibria
    for v in (IsoVariant.GAMMA1, IsoVariant.GAMMA2, IsoVariant.GAMMA3):
        other = build_extended_game(iso_variant(PD, v), strategies)
        witness = strongly_isomorphic(c_ext, other)
        assert witness is not None
        rp, cp = witness
        other_eqs = mixed_equilibria(other).equilibria
        mapped = set()
        for eq in base_eqs:
            p1 = tuple(eq.profile.p1[rp.index(i)] for i in range(4))
            p2 = tuple(eq.profile.p2[cp.index(j)] for j in range(4))
            mapped.add((p1, p2))
        got = {(e.profile.p1, e.profile.p2) for e in other_eqs}
        assert mapped == got


def test_json_report_exact_strings(c_ext):
    rep = mixed_equilibria(c_ext)
    payload = rep.to_json(labels=c_ext.labels)
    mixed = [e for e in payload if e["kind"] == "mixed"][0]
    assert mixed["p1"] == ["0", "1/3", "2/3", "0"]
    assert mixed["payoff"] == ["23/12", "23/12"]
    assert mixed["support_labels"] == [["iX", "U1"], ["iX", "U1"]]


@pytest.mark.parametrize("cls,theta1", [("C", "1/3 pi"), ("B", "1/2 pi"), ("C", "1/4 pi")])
def test_exact_report_values_are_fractions_when_rational(cls, theta1):
    ext = extension_matrix(ClassParams.create(cls, theta1=theta1), PD)
    rep = mixed_equilibria(ext, mode="exact")
    values = [v for e in rep.equilibria
              for v in e.profile.p1 + e.profile.p2 + tuple(e.payoff)]
    assert values
    for v in values:  # a Q2 only where the sqrt(2) part is nonzero
        assert type(v) is Fraction or (type(v) is Q2 and v.b != 0), repr(v)


@pytest.mark.parametrize("theta1", ["1/3 pi", "1/4 pi"])  # rational, Q(sqrt(2)) entries
def test_float_mode_converts_exact_entries(theta1):
    ext = extension_matrix(ClassParams.create("C", theta1=theta1), PD)
    exact = mixed_equilibria(ext, mode="exact")
    approx = mixed_equilibria(ext, mode="float")
    assert len(approx.equilibria) == len(exact.equilibria) > 0
    for e, f in zip(exact.equilibria, approx.equilibria):
        assert e.supports == f.supports
        for x, y in zip(e.profile.p1 + e.profile.p2 + tuple(e.payoff),
                        f.profile.p1 + f.profile.p2 + tuple(f.payoff)):
            assert isinstance(y, float) and abs(float(x) - y) <= 1e-9
        assert verify_equilibrium(ext, f)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_float_mode_refuses_a_non_finite_entry(bad):
    # parse_scalar refuses these too; a game built in code reaches the solver
    g = ExtendedGame(("s1", "s2"), (((1.0, bad), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0))))
    with pytest.raises(DomainError):
        mixed_equilibria(g, mode="float")


def test_float_report_is_unchanged_by_scaling_by_a_power_of_two(c_ext):
    # 2**-600 scales every binary value exactly, so only the payoffs change,
    # and exactly; an absolute tolerance would tie every cell of the game
    tiny = 2.0 ** -600
    game = ExtendedGame(c_ext.labels, tuple(
        tuple((float(p.u1), float(p.u2)) for p in row) for row in c_ext.payoffs))
    scaled = ExtendedGame(game.labels, tuple(
        tuple((p.u1 * tiny, p.u2 * tiny) for p in row) for row in game.payoffs))
    want, got = mixed_equilibria(game, mode="float"), mixed_equilibria(scaled, mode="float")
    assert len(want.equilibria) == 3 and got.degenerate == want.degenerate
    for e, f in zip(want.equilibria, got.equilibria):
        assert (f.kind, f.supports, f.profile) == (e.kind, e.supports, e.profile)
        assert f.payoff == (e.payoff.u1 * tiny, e.payoff.u2 * tiny)


def unpruned(game, mode="exact"):
    """mixed_equilibria with no strategy ever counted as dominated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash, "_dominated", lambda *args: frozenset())
        return mixed_equilibria(game, mode=mode)


@st.composite
def small_games(draw):
    """2x2 to 4x4 games: small integers (many ties, so many degenerate games),
    Q(sqrt(2)) entries, or floats built from small integers."""
    n = draw(st.integers(2, 4))
    small = st.integers(-2, 2)
    entry = draw(st.sampled_from([
        small.map(F),
        st.builds(lambda a, b: normalize(Q2(a, F(b, 2))), small, small),
        st.builds(lambda a, b: a / 4 + b, small, small),
    ]))
    cells = draw(st.lists(st.tuples(entry, entry), min_size=n * n, max_size=n * n))
    return ExtendedGame(tuple(f"s{i}" for i in range(n)),
                        tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_games())
def test_dominance_pruning_keeps_the_report(game):
    # profiles, payoffs, supports, order and the degenerate flag
    floats = any(isinstance(v, float) for row in game.payoffs for p in row for v in p)
    mode = "float" if floats else "exact"
    assert mixed_equilibria(game, mode=mode) == unpruned(game, mode)


def test_dominance_pruning_solves_fewer_systems(monkeypatch):
    ext = extension_matrix(ClassParams.create("C", theta1="1/4 pi"), PD)
    calls = []
    monkeypatch.setattr(nash, "solve_linear",
                        lambda *args, real=solve_linear: calls.append(1) or real(*args))
    report = mixed_equilibria(ext)
    pruned = len(calls)
    assert unpruned(ext) == report
    assert 0 < 3 * pruned < len(calls) - pruned


def reference_equilibria(game):
    """mixed_equilibria written plainly, as its reference: every support
    pair of an exact game solved by gauss_jordan_reference in Q(sqrt(2)),
    with no memo, no dominance pruning and no integer rows, and judged by
    the same feasibility, deviation and degeneracy rules, dedupe and order."""
    n = game.n
    u1 = [[F(c.u1) if isinstance(c.u1, int) else c.u1 for c in row] for row in game.payoffs]
    u2_t = [[F(row[j].u2) if isinstance(row[j].u2, int) else row[j].u2 for row in game.payoffs]
            for j in range(n)]

    def indifferent(values, support, other):
        """(opponent mix over all n, value, singular) making every strategy
        in `other` indifferent, or None when infeasible."""
        a_rows = [[values[r][c] for c in support] + [F(-1)] for r in other]
        a_rows.append([F(1)] * len(support) + [F(0)])
        status, x = gauss_jordan_reference(a_rows, [F(0)] * len(other) + [F(1)])
        if status == "none" or any(p < 0 for p in x[:-1]):
            return None
        mix = [F(0)] * n
        for i, p in zip(support, x[:-1]):
            mix[i] = normalize(p)
        return mix, normalize(x[-1]), status == "many"

    def pays(values, mix):
        return [sum(a * b for a, b in zip(row, mix)) for row in values]

    found = {}
    degenerate = False
    supports = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    for rows_supp in supports:
        for cols_supp in supports:
            q = indifferent(u1, cols_supp, rows_supp)
            p = indifferent(u2_t, rows_supp, cols_supp)
            if q is None or p is None:
                continue
            (q_mix, v1, q_many), (p_mix, v2, p_many) = q, p
            pays1, pays2 = pays(u1, q_mix), pays(u2_t, p_mix)
            if (any(pays1[r] > v1 for r in range(n) if r not in rows_supp)
                    or any(pays2[c] > v2 for c in range(n) if c not in cols_supp)):
                continue
            if (q_many or p_many) and all(q_mix[c] != 0 for c in cols_supp) and all(
                    p_mix[r] != 0 for r in rows_supp):
                degenerate = True
            key = tuple(p_mix + q_mix)
            if key not in found:
                supp = tuple(tuple(i for i, x in enumerate(mix) if x != 0)
                             for mix in (p_mix, q_mix))
                kind = "pure" if len(supp[0]) == len(supp[1]) == 1 else "mixed"
                eq = Equilibrium(MixedProfile(tuple(p_mix), tuple(q_mix)),
                                 PayoffPair(v1, v2), kind, supp)
                found[key] = eq, pays1, pays2
    ordered = sorted(found.values(), key=lambda e: (
        e[0].supports, [float(v) for v in e[0].profile.p1], [float(v) for v in e[0].profile.p2]))
    for eq, pays1, pays2 in ordered:
        degenerate |= (pays1.count(max(pays1)) > len(eq.supports[1])
                       or pays2.count(max(pays2)) > len(eq.supports[0]))
    return EquilibriumReport(tuple(eq for eq, *_ in ordered), degenerate)


def assert_matches_reference(game):
    """An exact game's report equals the reference's.  A float game's float
    report equals the reference's report of the entries' binary values,
    each probability and payoff then converted by float()."""
    floats = any(isinstance(v, float) for row in game.payoffs for p in row for v in p)
    if not floats:
        assert mixed_equilibria(game) == reference_equilibria(game)
        return
    exact = ExtendedGame(game.labels, tuple(
        tuple(tuple(F(v) if isinstance(v, float) else v for v in p) for p in row)
        for row in game.payoffs))
    assert mixed_equilibria(game, mode="float") == floated_report(reference_equilibria(exact))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_games())
def test_mixed_equilibria_match_the_reference_enumeration(game):
    assert_matches_reference(game)


MATCHING_PENNIES = Bimatrix2.from_rows([[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])


@pytest.mark.parametrize("theta1", ["1/4 pi", "3/4 pi"])
@pytest.mark.parametrize("cls", ["D1", "D2", "E1", "E2"])
@pytest.mark.parametrize("game", [PD, MATCHING_PENNIES], ids=["PD", "pennies"])
def test_q_sqrt2_extensions_match_the_reference_enumeration(game, cls, theta1):
    ext = extension_matrix(ClassParams.create(cls, theta1=theta1), game)
    assert any(isinstance(v, Q2) for row in ext.payoffs for p in row for v in p)
    assert_matches_reference(ext)
    if game is MATCHING_PENNIES:
        assert mixed_equilibria(ext).degenerate
