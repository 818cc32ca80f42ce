"""Property tests: exact and float arithmetic reach the same verdicts.

Every algorithm that compares scalars is written once over a Field; these
properties check that the exact and the float field agree on random inputs
where both apply.  Example counts stay small to keep the suite quick, and the
examples are derandomized so that every run checks the same inputs.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ewlext import (
    ExtendedGame,
    IDENTITY,
    IX,
    canonicalize,
    criterion_holds,
    mixed_equilibria,
    partition,
    strongly_isomorphic,
    verify_equilibrium,
)

QUARTER_THETAS = [Fraction(k, 4) for k in range(5)]


@st.composite
def lattice_sets(draw):
    """{I, iX, U1, U2} with U1 and U2 on the pi/4 lattice."""
    def unitary():
        theta = draw(st.sampled_from(QUARTER_THETAS))
        alpha, beta = (Fraction(draw(st.integers(0, 7)), 4) for _ in range(2))
        return canonicalize(theta, alpha, beta)

    return [IDENTITY, IX, unitary(), unitary()]


@st.composite
def rational_games(draw, n=None):
    """An n x n game with small rational payoffs (n in 2..3 by default)."""
    n = n or draw(st.integers(2, 3))
    entry = st.integers(-8, 8).map(lambda k: Fraction(k, 2))
    grid = tuple(tuple((draw(entry), draw(entry)) for _ in range(n)) for _ in range(n))
    return ExtendedGame(tuple(f"s{i}" for i in range(n)), grid)


def floated(g: ExtendedGame) -> ExtendedGame:
    return ExtendedGame(g.labels, tuple(
        tuple((float(p.u1), float(p.u2)) for p in row) for row in g.payoffs))


def permuted(g: ExtendedGame, rp, cp) -> ExtendedGame:
    """The game h with h[rp[i]][cp[j]] = g[i][j]."""
    n = g.n
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            grid[rp[i]][cp[j]] = g.payoffs[i][j]
    return ExtendedGame(g.labels, tuple(map(tuple, grid)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattice_sets())
def test_partition_and_criterion_agree_exact_and_float(strategies):
    assert partition(strategies, mode="exact") == partition(strategies, mode="float")
    assert criterion_holds(strategies, mode="exact") == criterion_holds(strategies,
                                                                        mode="float")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rational_games())
def test_mixed_equilibria_agree_exact_and_float(game):
    exact = mixed_equilibria(game, mode="exact")
    approx = mixed_equilibria(game, mode="float")
    assert len(exact.equilibria) == len(approx.equilibria)
    assert exact.degenerate == approx.degenerate
    for e, f in zip(exact.equilibria, approx.equilibria):
        assert e.supports == f.supports and e.kind == f.kind
        values_e = e.profile.p1 + e.profile.p2 + tuple(e.payoff)
        values_f = f.profile.p1 + f.profile.p2 + tuple(f.payoff)
        assert all(abs(float(x) - y) <= 1e-9 for x, y in zip(values_e, values_f))
        assert all(isinstance(y, float) for y in values_f)
        assert verify_equilibrium(game, e) and verify_equilibrium(game, f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(rational_games(n), st.permutations(range(n)),
                        st.permutations(range(n)),
                        st.sampled_from(["none", "shift", "swap"]))))
def test_strongly_isomorphic_agrees_exact_and_float(args):
    g1, rp, cp, perturb = args
    g2 = permuted(g1, rp, cp)
    if perturb != "none":  # one changed cell: isomorphic or not, both fields agree
        rows = [list(row) for row in g2.payoffs]
        u1, u2 = rows[0][0]
        rows[0][0] = (u1 + 1, u2) if perturb == "shift" else (u2, u1)
        g2 = ExtendedGame(g2.labels, tuple(map(tuple, rows)))
    found = strongly_isomorphic(g1, g2)
    found_float = strongly_isomorphic(floated(g1), floated(g2), tol=1e-9)
    assert (found is None) == (found_float is None)
    assert perturb != "none" or found is not None
    n = g1.n
    for witness in filter(None, (found, found_float)):
        wr, wc = witness
        assert all(g2.payoffs[wr[i]][wc[j]] == g1.payoffs[i][j]
                   for i in range(n) for j in range(n))
