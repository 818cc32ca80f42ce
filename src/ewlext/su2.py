"""Parametrized SU(2) strategies: canonical parameter triples, matrices,
and the row/column-swap bijection that relates extensions of isomorphic games.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

from .errors import DomainError
from .exactnum import ANGLE_PI, Angle

_TWO_PI = Angle.pi_frac(2)


@dataclass(frozen=True)
class StrategyParams:
    """Canonical triple (theta, alpha, beta) naming the unitary

        [[ e^{i alpha} cos(theta/2),   i e^{i beta}  sin(theta/2) ],
         [ i e^{-i beta} sin(theta/2), e^{-i alpha}  cos(theta/2) ]]

    with theta in [0, pi] and alpha, beta in [0, 2 pi).
    Instances are built through :func:`canonicalize`.
    """

    theta: Angle
    alpha: Angle
    beta: Angle

    def to_json(self) -> dict:
        return {
            "theta": self.theta.format(),
            "alpha": self.alpha.format(),
            "beta": self.beta.format(),
        }

    @staticmethod
    def from_json(obj) -> "StrategyParams":
        if isinstance(obj, (list, tuple)):
            theta, alpha, beta = obj
        else:
            theta, alpha, beta = obj["theta"], obj["alpha"], obj["beta"]
        return canonicalize(theta, alpha, beta)

    def __str__(self):
        return f"U({self.theta}, {self.alpha}, {self.beta})"


def canonicalize(theta, alpha, beta) -> StrategyParams:
    """Reduce a raw angle triple to the canonical domain.

    alpha and beta are reduced mod 2 pi into [0, 2 pi).  theta is reduced
    mod 2 pi and must land in [0, pi]; anything else raises DomainError.
    """
    t = Angle.parse(theta).mod_2pi()
    if t.is_exact:
        if t.value > 1:
            raise DomainError(f"theta = {t} is outside [0, pi]")
    elif t.value > math.pi:
        if t.value - math.pi < 1e-12:  # float round-off at the endpoint
            t = Angle.radians(math.pi)
        else:
            raise DomainError(f"theta = {t} is outside [0, pi]")
    return StrategyParams(
        theta=t,
        alpha=Angle.parse(alpha).mod_2pi(),
        beta=Angle.parse(beta).mod_2pi(),
    )


IDENTITY = canonicalize(0, 0, 0)
IX = canonicalize(1, 0, 0)  # i * sigma_x


def unitary_entries(p: StrategyParams) -> Tuple[Tuple[complex, complex], ...]:
    """Rows of the strategy's 2x2 matrix as plain complex numbers; special
    unitary by construction."""
    th, al, be = p.theta.to_radians(), p.alpha.to_radians(), p.beta.to_radians()
    c, s = math.cos(th / 2.0), math.sin(th / 2.0)
    ea, eb = cmath.exp(1j * al), cmath.exp(1j * be)
    return ((ea * c, 1j * eb * s), (1j * s / eb, c / ea))


def phi(p: StrategyParams) -> StrategyParams:
    """The bijection (theta, alpha, beta) -> (pi - theta, 2 pi - beta, pi - alpha).

    Extensions of a game and of its row-swapped variant assign equal payoffs
    to (U1, U2) and (phi(U1), U2); analogously for column and double swaps.
    """
    return canonicalize(ANGLE_PI - p.theta, _TWO_PI - p.beta, ANGLE_PI - p.alpha)
