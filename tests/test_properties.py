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
    Q2,
    canonicalize,
    criterion_holds,
    mixed_equilibria,
    partition,
    strongly_isomorphic,
    verify_equilibrium,
)
from ewlext.exactnum import denominators_lcm, integral, normalize
from ewlext.nash import solve_linear
from conftest import floated_report, gauss_jordan_reference

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
    # the float report is the exact one after float(): order, kinds,
    # supports, values and the degenerate flag
    exact = mixed_equilibria(game, mode="exact")
    approx = mixed_equilibria(game, mode="float")
    assert approx == floated_report(exact)
    for e, f in zip(exact.equilibria, approx.equilibria):
        assert all(isinstance(y, float) for y in f.profile.p1 + f.profile.p2 + tuple(f.payoff))
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


@st.composite
def linear_systems(draw):
    """(kind, A, b): up to 5 x 6 with rational, Q(sqrt(2)) or ring integer
    (int and Q2 with d = 1) entries; some with a dependent last row,
    consistent or not."""
    kind = draw(st.sampled_from(["rational", "q2", "integer"]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    small = st.integers(-3, 3)

    def entry():
        if kind == "integer":
            a, b = draw(small), draw(st.sampled_from([0, 0, 1, -2]))
            return Q2(a, b) if b else a
        a = Fraction(draw(small), draw(st.integers(1, 4)))
        if kind == "q2":
            return Q2(a, Fraction(draw(small), draw(st.integers(1, 3))))
        return a

    rows = [[entry() for _ in range(n + 1)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows[-1] = [x + k * y for x, y in zip(rows[0], rows[1])]
        if draw(st.booleans()):
            rows[-1][-1] = rows[-1][-1] + 1
    return kind, [r[:-1] for r in rows], [r[-1] for r in rows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(linear_systems())
def test_solve_linear_matches_field_gauss_jordan(system):
    kind, a_rows, rhs = system
    # solve_linear takes integer rows: scale each row of [A | b] by the lcm
    # of its denominators, which leaves the solutions as they are
    rows = [[*row, b] for row, b in zip(a_rows, rhs)]
    rows = [integral(row, denominators_lcm(row)) for row in rows]
    status, x = solve_linear([row[:-1] for row in rows], [row[-1] for row in rows])
    if x is not None:
        nums, d = x
        assert type(d) is int and d > 0
        x = [normalize(Q2.coerce(v) / d) for v in nums]
    a_rows = [[Q2.coerce(v) for v in row] for row in a_rows]
    rhs = [Q2.coerce(v) for v in rhs]
    want_status, want = gauss_jordan_reference(a_rows, rhs)
    assert status == want_status
    if status == "none":
        assert x is None
    else:
        assert x == want
        assert all(sum(a * v for a, v in zip(row, x)) == b
                   for row, b in zip(a_rows, rhs))
