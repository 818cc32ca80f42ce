import random
from fractions import Fraction

import numpy as np
import pytest

from ewlext import (Bimatrix2, Equilibrium, EquilibriumReport, MixedProfile, PayoffPair,
                    canonicalize)
from ewlext.payoff import statevector
from ewlext.su2 import unitary_entries


def build_unitary(p):
    """The strategy's 2x2 matrix as a numpy array, from su2.unitary_entries."""
    return np.array(unitary_entries(p), dtype=complex)


def final_state(p1, p2):
    """J^dag (U1 x U2) J |00> as a numpy 4-vector, from payoff.statevector."""
    return np.array(statevector(p1, p2))


def random_rational_game(rng, lo=0, hi=5, den=8):
    rows = [
        [
            (Fraction(rng.randint(lo * den, hi * den), den),
             Fraction(rng.randint(lo * den, hi * den), den))
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    return Bimatrix2.from_rows(rows)


def random_float_game(rng, lo=-5.0, hi=5.0):
    rows = [
        [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(2)]
        for _ in range(2)
    ]
    return Bimatrix2.from_rows(rows)


def random_float_params(rng):
    import math

    return canonicalize(
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def random_lattice_params(rng):
    """Strategy params drawn from the exact pi/4 grids."""
    theta = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                        Fraction(2, 3), Fraction(3, 4), Fraction(1)])
    alpha = Fraction(rng.randrange(8), 4)
    beta = Fraction(rng.randrange(8), 4)
    return canonicalize(theta, alpha, beta)


def random_exact_pair(rng):
    """A pair of lattice params whose joint trigonometry stays in Q(sqrt(2)):
    either both thetas on the pi/4 grid, or the complementary pi/3 pair."""
    if rng.random() < 0.3:
        thetas = (Fraction(1, 3), Fraction(2, 3))
    else:
        grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        thetas = (rng.choice(grid), rng.choice(grid))
    out = []
    for th in thetas:
        alpha = Fraction(rng.randrange(8), 4)
        beta = Fraction(rng.randrange(8), 4)
        out.append(canonicalize(th, alpha, beta))
    return tuple(out)


def gauss_jordan_reference(a_rows, rhs):
    """Gauss-Jordan on exact entries (int, Fraction or Q2), pivot rows scaled
    to 1 and each column's pivot its first nonzero entry: the elimination
    solve_linear replaced, kept as its reference."""
    m, n = len(a_rows), len(a_rows[0])
    rows = [list(r) + [v] for r, v in zip(a_rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [x / scale for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        return "none", None
    x = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        x[c] = rows[k][n]
    return ("unique" if len(pivots) == n else "many"), x


def floated_report(report):
    """An EquilibriumReport with every probability and payoff as a float."""
    def floated(e):
        return Equilibrium(MixedProfile(tuple(map(float, e.profile.p1)),
                                        tuple(map(float, e.profile.p2))),
                           PayoffPair(*map(float, e.payoff)), e.kind, e.supports)

    return EquilibriumReport(tuple(map(floated, report.equilibria)), report.degenerate)


@pytest.fixture
def rng():
    return random.Random(20240817)
