import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from ewlext import (
    Bimatrix2,
    DomainError,
    ExactnessError,
    IDENTITY,
    IX,
    PRISONERS_DILEMMA,
    Q2,
    canonicalize,
    coefficients,
    payoff_closed_form,
    payoff_oracle,
)
from ewlext.payoff import format_scalar, parse_scalar
from conftest import (
    build_unitary,
    final_state,
    random_exact_pair,
    random_float_game,
    random_float_params,
    random_lattice_params,
)

Q = Fraction(1, 4)


def test_coefficients_classical_profiles():
    assert tuple(coefficients(IDENTITY, IDENTITY)) == (1, 0, 0, 0)
    assert tuple(coefficients(IDENTITY, IX)) == (0, 1, 0, 0)
    assert tuple(coefficients(IX, IDENTITY)) == (0, 0, 1, 0)
    assert tuple(coefficients(IX, IX)) == (0, 0, 0, 1)


def test_coefficients_uniform_entry():
    # the quarter-average entry of the B-class corner
    u1 = canonicalize("1/2 pi", "1/4 pi", "3/4 pi")
    u2 = canonicalize("1/2 pi", "3/4 pi", "1/4 pi")
    c = coefficients(u1, u2)
    assert tuple(c) == (Q, Q, Q, Q)
    # independent statevector confirmation
    probs = abs(final_state(u1, u2)) ** 2
    assert probs == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-12)


def test_classical_embedding_reproduces_bimatrix(rng):
    game = random_float_game(rng)
    table = [[IDENTITY, IX][i] for i in range(2)]
    for i, p in enumerate(table):
        for j, q in enumerate(table):
            pay = payoff_closed_form(game, p, q, mode="float")
            cell = game.delta[i][j]
            assert float(pay.u1) == pytest.approx(float(cell.u1), abs=1e-12)
            assert float(pay.u2) == pytest.approx(float(cell.u2), abs=1e-12)


def test_payoff_pd_examples():
    u = canonicalize("1/2 pi", "1/2 pi", "1/2 pi")
    pay = payoff_closed_form(PRISONERS_DILEMMA, u, IDENTITY)
    assert pay.u1 == Fraction(1, 2)  # (a01 + a11) / 2
    pay = payoff_closed_form(PRISONERS_DILEMMA, IX, IX)
    assert (pay.u1, pay.u2) == (1, 1)
    assert payoff_oracle(PRISONERS_DILEMMA, IX, IX).u1 == pytest.approx(1.0, abs=1e-12)


def test_payoff_pd_c_class_corner():
    # the (U1, U2) cell of the C extension at theta1 = pi/3
    u1 = canonicalize("1/3 pi", "1/4 pi", "1/4 pi")
    u2 = canonicalize("2/3 pi", "3/4 pi", "3/4 pi")
    pay = payoff_closed_form(PRISONERS_DILEMMA, u1, u2)
    assert (pay.u1, pay.u2) == (Fraction(57, 16), Fraction(17, 16))


def test_oracle_matches_closed_form(rng):
    for _ in range(1000):
        game = random_float_game(rng)
        p1, p2 = random_float_params(rng), random_float_params(rng)
        a = payoff_closed_form(game, p1, p2, mode="float")
        b = payoff_oracle(game, p1, p2)
        assert abs(a.u1 - b.u1) <= 1e-10
        assert abs(a.u2 - b.u2) <= 1e-10


def test_oracle_matches_exact_path(rng):
    game = PRISONERS_DILEMMA
    modes = set()
    for _ in range(200):
        p1, p2 = random_lattice_params(rng), random_lattice_params(rng)
        # cos(theta1 +- theta2) decides whether the pair stays in Q(sqrt(2))
        t1, t2 = p1.theta.frac, p2.theta.frac
        exact = max((t1 + t2).denominator, (t1 - t2).denominator) <= 4
        mode = "exact" if exact else "float"
        if mode == "float":
            with pytest.raises(ExactnessError):
                payoff_closed_form(game, p1, p2)
        modes.add(mode)
        a = payoff_closed_form(game, p1, p2, mode=mode)
        b = payoff_oracle(game, p1, p2)
        assert abs(float(a.u1) - b.u1) <= 1e-10
        assert abs(float(a.u2) - b.u2) <= 1e-10
    assert modes == {"exact", "float"}


# theta sets whose pairs keep the trigonometry in Q(sqrt(2)), and the pi/8 grid
EXACT_THETAS = ((0, Q, Fraction(1, 2), Fraction(3, 4), 1),
                (0, Fraction(1, 3), Fraction(2, 3), 1))
EIGHTH_THETAS = (tuple(Fraction(k, 8) for k in range(9)),)


def _lattice_pairs(step, theta_sets, joint):
    """(p1, p2) with both thetas from one of theta_sets and every phase of p1
    on the multiples of step * pi.

    The coefficients depend on the phases only through x = a1+a2, y = b1+b2
    (c00, c11) and u = a1-b2, v = a2-b1 (c01, c10).  So p2 = (theta2, 0, 0)
    already gives each component every value it takes on the lattice, and
    joint=True, with beta2 free as well, reaches every (x, y, u, v), since
    x - u = y + v.
    """
    n = int(2 / step)
    for thetas in theta_sets:
        for t1 in thetas:
            firsts = [canonicalize(t1, a * step, b * step) for a in range(n) for b in range(n)]
            for t2 in thetas:
                for b in range(n if joint else 1):
                    p2 = canonicalize(t2, 0, b * step)
                    yield from ((p1, p2) for p1 in firsts)


def _swapped(c):
    return (c.c00, c.c10, c.c01, c.c11)


def test_coefficients_normalized(rng):
    for _ in range(300):
        p1, p2 = random_float_params(rng), random_float_params(rng)
        c = coefficients(p1, p2, mode="float")
        assert all(x >= 0.0 for x in c)
        assert sum(c) == pytest.approx(1.0, abs=1e-12)
    for _ in range(100):
        p1, p2 = random_exact_pair(rng)
        c = coefficients(p1, p2)
        assert all(not isinstance(x, float) for x in c)
        assert all(Q2.coerce(x) >= 0 for x in c)
        assert sum((Q2.coerce(x) for x in c), Q2(0)) == 1
    # the float expansion on the pi/4 and pi/8 lattices, where terms cancel
    # to zero: rounding must not take a component below 0
    for p1, p2 in chain(_lattice_pairs(Q, EXACT_THETAS, joint=True),
                        _lattice_pairs(Fraction(1, 8), EIGHTH_THETAS, joint=False)):
        c = coefficients(p1, p2, mode="float")
        assert all(x >= 0.0 for x in c)
        assert abs(sum(c) - 1.0) <= 1e-12
    # float against exact, and the player swap c(q, p) = (c00, c10, c01, c11)
    # of c(p, q), exactly and in float
    for p1, p2 in _lattice_pairs(Q, EXACT_THETAS, joint=False):
        exact, flt = coefficients(p1, p2, mode="exact"), coefficients(p1, p2, mode="float")
        assert all(abs(x - float(e)) <= 1e-12 for x, e in zip(flt, exact))
        assert tuple(coefficients(p2, p1, mode="exact")) == _swapped(exact)
        swapped = coefficients(p2, p1, mode="float")
        assert all(abs(x - y) <= 1e-12 for x, y in zip(swapped, _swapped(flt)))


def _shifted(p, d_alpha, d_beta):
    return canonicalize(p.theta, p.alpha + d_alpha, p.beta + d_beta)


def test_phase_shift_symmetries_exact(rng):
    # adding pi to any two of the four phases, or pi/2 to all four,
    # leaves the coefficient vector unchanged
    pi = canonicalize(0, 1, 0).alpha  # Angle(pi)
    half = canonicalize(0, Fraction(1, 2), 0).alpha
    zero = canonicalize(0, 0, 0).alpha
    for _ in range(60):
        p1, p2 = random_exact_pair(rng)
        base = coefficients(p1, p2)
        for pair in combinations(range(4), 2):
            shifts = [pi if k in pair else zero for k in range(4)]
            q1 = _shifted(p1, shifts[0], shifts[2])
            q2 = _shifted(p2, shifts[1], shifts[3])
            assert coefficients(q1, q2) == base
        q1 = _shifted(p1, half, half)
        q2 = _shifted(p2, half, half)
        assert coefficients(q1, q2) == base


def test_phase_shift_symmetries_float(rng):
    for _ in range(500):
        p1, p2 = random_float_params(rng), random_float_params(rng)
        base = coefficients(p1, p2, mode="float")
        pair = (rng.randrange(4), (rng.randrange(3) + 1 + rng.randrange(1)) % 4)
        pair = tuple(sorted({pair[0], (pair[0] + 1 + rng.randrange(3)) % 4}))
        shifts = [math.pi if k in pair else 0.0 for k in range(4)]
        q1 = _shifted(p1, canonicalize(0, shifts[0], 0).alpha,
                      canonicalize(0, shifts[2], 0).alpha)
        q2 = _shifted(p2, canonicalize(0, shifts[1], 0).alpha,
                      canonicalize(0, shifts[3], 0).alpha)
        got = coefficients(q1, q2, mode="float")
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, base))
        h = canonicalize(0, math.pi / 2, 0).alpha
        got = coefficients(_shifted(p1, h, h), _shifted(p2, h, h), mode="float")
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, base))


def test_exact_mode_demands_lattice_angles():
    p = canonicalize(0.3, 0.1, 0.2)
    with pytest.raises(ExactnessError):
        coefficients(p, IDENTITY, mode="exact")
    # exact angles off the supported grids also refuse, rather than degrade
    p = canonicalize(Fraction(1, 5), 0, 0)
    with pytest.raises(ExactnessError):
        coefficients(p, IDENTITY, mode="exact")


def test_scalar_parse_format_round_trip():
    for text in ["3", "17/8", "-5/3", "0"]:
        v = parse_scalar(text)
        assert isinstance(v, Fraction)
        assert format_scalar(v) == text
    v = parse_scalar("1/2+3/4*sqrt(2)")
    assert v == Q2(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar(format_scalar(v)) == v
    v = parse_scalar("-1/4*sqrt(2)")
    assert v == Q2(0, Fraction(-1, 4))
    assert parse_scalar("1.5") == Fraction(3, 2)  # decimal strings stay exact
    assert isinstance(parse_scalar(1.5), float)   # JSON numbers stay floats


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   "nan", "inf", "-inf"])
def test_parse_scalar_rejects_non_finite(value):
    with pytest.raises(DomainError, match="not finite"):
        parse_scalar(value)


@pytest.mark.parametrize("value", ["1/0", "-3/0", "0/0", "1+1/0*sqrt(2)", "1/0+1*sqrt(2)",
                                   "1/0*sqrt(2)"])
def test_parse_scalar_rejects_zero_denominator(value):
    with pytest.raises(DomainError, match="zero denominator"):
        parse_scalar(value)


def test_parse_scalar_reads_exponents_inside_sqrt2_text():
    # the split between the two parts is a sign that no exponent marker precedes
    assert parse_scalar("3+1e-3*sqrt(2)") == Q2(3, Fraction(1, 1000))
    assert parse_scalar("1e-2-2E+1*sqrt(2)") == Q2(Fraction(1, 100), -20)
    assert parse_scalar("-1e-3*sqrt(2)") == Q2(0, Fraction(-1, 1000))
    with pytest.raises(DomainError, match="exceeds 4000 digits"):
        parse_scalar("3+1e-4001*sqrt(2)")


@pytest.mark.parametrize("value", ["1+2*sqrt(2)x", "1+*sqrt(2)"])
def test_parse_scalar_rejects_text_around_sqrt2(value):
    with pytest.raises(ExactnessError, match="cannot parse"):
        parse_scalar(value)


def test_game_json_round_trip():
    game = PRISONERS_DILEMMA
    again = Bimatrix2.from_json(game.to_json())
    assert again == game
    assert again.to_json() == game.to_json()


def _kron_states(first, second):
    """J^dag (U1 x U2) J |00> for every U1 in first and U2 in second, from 4x4
    matrices: np.kron of build_unitary, with U1 x U2 = (U1 x 1)(1 x U2)."""
    sx, one = np.array([[0, 1], [1, 0]]), np.eye(2)
    j = (np.eye(4) + 1j * np.kron(sx, sx)) / math.sqrt(2.0)
    left = np.array([np.kron(build_unitary(p), one) for p in first])
    right = np.array([np.kron(one, build_unitary(p)) for p in second])
    return np.einsum("ab,ibc,jcd,d->ija", j.conj().T, left, right, j[:, 0], optimize=True)


def test_final_state_matches_the_kronecker_product(rng):
    for _ in range(200):
        p1, p2 = random_float_params(rng), random_float_params(rng)
        state = final_state(p1, p2)
        assert isinstance(state, np.ndarray) and state.shape == (4,)
        assert np.abs(state - _kron_states([p1], [p2])[0, 0]).max() <= 1e-14
    lattice = [canonicalize(theta, Fraction(a, 4), Fraction(b, 4))
               for theta in (0, Fraction(1, 2), 1) for a in range(8) for b in range(8)]
    states = np.array([[final_state(p1, p2) for p2 in lattice] for p1 in lattice])
    assert np.abs(states - _kron_states(lattice, lattice)).max() <= 1e-14
