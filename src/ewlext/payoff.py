"""Payoffs of the quantized 2x2 game, computed two independent ways.

The closed form expands the final-state amplitudes into four squared
coefficients weighting the classical payoff entries; the oracle builds the
two-qubit statevector J^dag (U1 x U2) J |00> directly and measures.  Both
paths are kept and cross-checked, because the closed form is long and easy
to mistranscribe while the statevector route is short.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Tuple, Union

from .errors import DimensionMismatchError, DomainError, ExactnessError
from .exactnum import Q2, Field, _parts, check_mode, exact_cos, normalize, scalar_is_exact
from .su2 import StrategyParams, unitary_entries

Scalar = Union[Fraction, Q2, float, int]

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_MAX_DIGITS = 4000  # exact numerators and denominators; str(int) stops at 4300
_EXACT_LIMIT = 10 ** _MAX_DIGITS


class PayoffPair(NamedTuple):
    u1: Scalar
    u2: Scalar


class CoefficientVector(NamedTuple):
    """Weights on Delta_00, Delta_01, Delta_10, Delta_11; nonnegative, sum 1."""

    c00: Scalar
    c01: Scalar
    c10: Scalar
    c11: Scalar


# -- classical game ---------------------------------------------------------


def parse_scalar(x) -> Scalar:
    """Parse a payoff entry: exact if written as an int or 'p/q' string.

    A float entry must be finite; NaN and inf raise DomainError, and so does
    a zero denominator or an exact part of more than _MAX_DIGITS digits.
    """
    if isinstance(x, (int, Fraction)):
        return _bounded(Fraction(x), x)
    if not isinstance(x, float):
        s = str(x).strip()
        if re.search(r"[eE][-+]?\d{5}", s):  # Fraction would build 10**exponent first
            raise DomainError(f"exact payoff entry {x!r} exceeds {_MAX_DIGITS} digits")
        try:
            exact = _parse_exact(s)
        except ZeroDivisionError:
            raise DomainError(f"payoff entry {x!r} has a zero denominator") from None
        if exact is not None:
            return _bounded(exact, x)
        x = float(s)
    if not math.isfinite(x):
        raise DomainError(f"payoff entry {x!r} is not finite")
    return x


def _bounded(v, x):
    """v, unless a numerator or the denominator of v exceeds _MAX_DIGITS digits."""
    if max(map(abs, _parts(v))) >= _EXACT_LIMIT:
        raise DomainError(f"exact payoff entry {x!r} exceeds {_MAX_DIGITS} digits")
    return v


def _parse_exact(s: str):
    """'p/q' as a Fraction, 'a+b*sqrt(2)' as a Q2, None for other text."""
    try:
        return Fraction(s)
    except ValueError:
        pass
    if "sqrt(2)" not in s:
        return None
    head, _, tail = s.replace(" ", "").partition("*sqrt(2)")
    if tail or head.endswith(("+", "-")):
        raise ExactnessError(f"cannot parse scalar {s!r}")
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "eE":  # not an exponent's sign
            return Q2(Fraction(head[:i]), Fraction(head[i:]))
    return Q2(0, Fraction(head))


def format_scalar(x: Scalar) -> Union[str, float]:
    """JSON form of a payoff entry: exact string or float."""
    x = normalize(x)
    if isinstance(x, Q2):
        return f"{x.a}+{x.b}*sqrt(2)" if x.b > 0 else f"{x.a}{x.b}*sqrt(2)"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return float(x)


def parse_grid(rows) -> Tuple[Tuple[PayoffPair, ...], ...]:
    """A grid of payoff pairs from JSON rows of [u1, u2] entries."""
    return tuple(
        tuple(PayoffPair(parse_scalar(a), parse_scalar(b)) for a, b in row)
        for row in rows
    )


def format_grid(grid) -> list:
    """JSON rows of a grid of payoff pairs; inverse of parse_grid."""
    return [[[format_scalar(p.u1), format_scalar(p.u2)] for p in row] for row in grid]


@dataclass(frozen=True)
class Bimatrix2:
    """A 2x2 strategic-form game: four payoff pairs, exact or float entries."""

    delta: Tuple[Tuple[PayoffPair, PayoffPair], Tuple[PayoffPair, PayoffPair]]

    @staticmethod
    def from_rows(rows) -> "Bimatrix2":
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DimensionMismatchError("a Bimatrix2 needs a 2x2 grid of pairs")
        return Bimatrix2(parse_grid(rows))

    @staticmethod
    def from_json(obj) -> "Bimatrix2":
        return Bimatrix2.from_rows(obj["payoffs"])

    def to_json(self) -> dict:
        return {"payoffs": format_grid(self.delta)}

    @property
    def is_exact(self) -> bool:
        return all(
            scalar_is_exact(p.u1) and scalar_is_exact(p.u2)
            for row in self.delta
            for p in row
        )

    def values_u1(self):
        return [[p.u1 for p in row] for row in self.delta]


PRISONERS_DILEMMA = Bimatrix2.from_rows([[(3, 3), (0, 5)], [(5, 0), (1, 1)]])


# -- coefficient vector: one closed form, exact or float ---------------------
#
# Writing x = a1+a2, y = b1+b2, u = a1-b2, v = a2-b1 the four squared
# amplitudes expand into products of full-angle cosines/sines only:
#
#   c00 = cos^2 x * CC + 2 cos x sin y * W + sin^2 y * SS
#   c11 = sin^2 x * CC - 2 sin x cos y * W + cos^2 y * SS
#   c01 = cos^2 u * CS + 2 cos u sin v * W + sin^2 v * SC
#   c10 = sin^2 u * CS + 2 sin u cos v * W + cos^2 v * SC
#
# with CC = cos^2(t1/2)cos^2(t2/2), SS, CS, SC analogous and
# W = sin t1 sin t2 / 4 (theta/2 in [0, pi/2], so the products carry no sign).
# Angles are in units of pi, and the expansion is written once over a cosine
# k -> cos(k*pi): exact_cos, in Q(sqrt(2)), or _float_cos, in doubles.


def _float_cos(k: float) -> float:
    return math.cos(k * math.pi)


@lru_cache(maxsize=1024)
def _theta_weights(cos, t1, t2) -> tuple:
    """CC, SS, CS, SC and 2W of the expansion above: the factors that depend
    on the thetas only."""
    c1, c2 = cos(t1), cos(t2)
    s1s2 = (cos(t1 - t2) - cos(t1 + t2)) * _HALF
    cc = (1 + c1) * (1 + c2) * _QUARTER
    ss = (1 - c1) * (1 - c2) * _QUARTER
    cs = (1 + c1) * (1 - c2) * _QUARTER
    sc = (1 - c1) * (1 + c2) * _QUARTER
    return cc, ss, cs, sc, s1s2 * _HALF


@lru_cache(maxsize=4096)
def _phase_terms(cos, x, y) -> tuple:
    """The phase factors of one pair of components, for (x, y) or (u, v):
    cos^2 x, cos x sin y, sin^2 y (c00 or c01), then sin^2 x, sin x cos y,
    cos^2 y (c11 or c10)."""
    c2x, c2y = cos(2 * x), cos(2 * y)
    sin_sum, sin_diff = cos(_HALF - x - y), cos(_HALF - x + y)  # sin(x +- y)
    return ((1 + c2x) * _HALF, (sin_sum - sin_diff) * _HALF, (1 - c2y) * _HALF,
            (1 - c2x) * _HALF, (sin_sum + sin_diff) * _HALF, (1 + c2y) * _HALF)


def _closed_form(cos, t1, a1, b1, t2, a2, b2) -> tuple:
    """c00, c01, c10, c11 of the expansion above."""
    cc, ss, cs, sc, w2 = _theta_weights(cos, t1, t2)
    p00, w00, q00, p11, w11, q11 = _phase_terms(cos, a1 + a2, b1 + b2)
    p01, w01, q01, p10, w10, q10 = _phase_terms(cos, a1 - b2, a2 - b1)
    return (p00 * cc + w00 * w2 + q00 * ss, p01 * cs + w01 * w2 + q01 * sc,
            p10 * cs + w10 * w2 + q10 * sc, p11 * cc - w11 * w2 + q11 * ss)


@lru_cache(maxsize=1 << 18)
def _coefficients_exact(t1: Fraction, a1: Fraction, b1: Fraction,
                        t2: Fraction, a2: Fraction, b2: Fraction) -> CoefficientVector:
    return CoefficientVector(*_closed_form(exact_cos, t1, a1, b1, t2, a2, b2))


def coefficients(p1: StrategyParams, p2: StrategyParams,
                 mode: str = "exact") -> CoefficientVector:
    """The four squared final-state amplitudes, in Delta_00..Delta_11 order.

    Mode 'exact' gives Q(sqrt(2)) values and raises ExactnessError for an
    angle that is not a rational multiple of pi or whose trigonometry leaves
    Q(sqrt(2)), as pi/6 does; mode 'float' evaluates the same closed form in
    doubles, with components clamped at 0, which rounding in the expansion
    can undercut by ~1e-16.
    """
    if check_mode(mode) == "exact":
        return _coefficients_exact(
            p1.theta.frac, p1.alpha.frac, p1.beta.frac,
            p2.theta.frac, p2.alpha.frac, p2.beta.frac,
        )
    c00, c01, c10, c11 = _closed_form(
        _float_cos, p1.theta.pi_units, p1.alpha.pi_units, p1.beta.pi_units,
        p2.theta.pi_units, p2.alpha.pi_units, p2.beta.pi_units)
    return CoefficientVector(max(c00, 0.0), max(c01, 0.0), max(c10, 0.0), max(c11, 0.0))


# -- payoffs -----------------------------------------------------------------


def coefficient_grid(strategies, mode: str = "exact") -> tuple:
    """coefficients(p, q) for every pair of strategies: row p, column q.

    The grid depends on the strategies only, so the extensions of a game and
    of its swapped variants over the same set share one.
    """
    check_mode(mode)
    return tuple(tuple(coefficients(p, q, mode=mode) for q in strategies) for p in strategies)


def payoff_grid(game: Bimatrix2, grid) -> Tuple[Tuple[PayoffPair, ...], ...]:
    """Both players' payoffs for every coefficient vector of a nonempty
    grid: the vector's weighted sum of the game's entries.

    coefficient_grid computes a grid in one mode, so the grid is all exact
    or all float, and the sums are taken in that mode: exact sums raise
    ExactnessError for a float game entry.
    """
    cells = (game.delta[0][0], game.delta[0][1], game.delta[1][0], game.delta[1][1])
    mode = "exact" if scalar_is_exact(grid[0][0].c00) else "float"
    field = Field.of((v for p in cells for v in p), mode)
    u1, u2 = field.vector(p.u1 for p in cells), field.vector(p.u2 for p in cells)

    def pair(c):
        c = field.vector(c)
        return PayoffPair(field.dot(c, u1), field.dot(c, u2))

    return tuple(tuple(map(pair, row)) for row in grid)


def payoff_closed_form(game: Bimatrix2, p1: StrategyParams, p2: StrategyParams,
                       mode: str = "exact") -> PayoffPair:
    """Both players' payoffs as the coefficient-weighted sum of game entries."""
    return payoff_grid(game, ((coefficients(p1, p2, mode=mode),),))[0][0]


# -- statevector oracle -------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def statevector(p1: StrategyParams, p2: StrategyParams) -> List[complex]:
    """|Psi> = J^dag (U1 x U2) J |00> over |00>,|01>,|10>,|11>, in plain
    complex arithmetic.  J = (1 + i X x X)/sqrt 2, so J|00> = (|00> +
    i|11>)/sqrt 2, and J^dag mixes |k> with |3 - k> = X x X |k>."""
    a, b = unitary_entries(p1), unitary_entries(p2)
    v = [(a[r][0] * b[c][0] + 1j * a[r][1] * b[c][1]) / _SQRT2
         for r in (0, 1) for c in (0, 1)]
    return [(v[k] - 1j * v[3 - k]) / _SQRT2 for k in range(4)]


def payoff_oracle(game: Bimatrix2, p1: StrategyParams, p2: StrategyParams) -> PayoffPair:
    """Independent payoff computation via the two-qubit statevector.

    The measurement operators are diagonal in the computational basis with
    the classical payoffs as weights, so expectation values reduce to
    probability-weighted sums.
    """
    probs = [abs(z) ** 2 for z in statevector(p1, p2)]
    cells = (game.delta[0][0], game.delta[0][1], game.delta[1][0], game.delta[1][1])
    u1 = float(sum(w * float(p.u1) for w, p in zip(probs, cells)))
    u2 = float(sum(w * float(p.u2) for w, p in zip(probs, cells)))
    return PayoffPair(u1, u2)
