"""Exhaustive search for strategy pairs passing the invariance criterion.

The search sweeps a phase lattice at fixed theta1 (theta2 = pi - theta1),
decides the executable criterion on {I, iX, U1, U2} for every tuple, and
attributes each hit to one of the families A-E by its defining congruences.
On the exact pi/4 lattice a table kernel decides a whole slice at once: the
coefficient vectors depend only on the two thetas and on sums and
differences of phases, so at most 1024 exact coefficient calls per slice
fill tables of interned ids, and the criterion becomes integer comparisons
over all 4096 tuples.  invariance.criterion_holds is the kernel's reference;
the float and pi/8 searches call it tuple by tuple.
The criterion itself is the ground truth.  The named trigonometric relations
in check_relations are not implied by it: they single out the named families
A-E, and every criterion hit outside those families violates at least one.

Hits outside the named families are reported as UNCLASSIFIED, not dropped.
On the default pi/4 lattice two such groups exist and are genuine:

- mixed-grid tuples, with one of (alpha1, beta1) on the half-pi grid and the
  other on the odd-quarter grid and (alpha2, beta2) = (-beta1, pi - alpha1)
  up to a joint pi-shift, so U2 = +-phi(U1), at every interior theta1
  (64 per slice).  S is then closed under phi up to a global sign, which
  makes the extension invariant for any U1; the witness relabeling is the
  one the named families use, I <-> iX and U1 <-> U2.
- at theta1 = pi/2 only, the split-grid products {0,pi}^2 x {pi/2,3pi/2}^2
  and its mirror image (32 tuples).  Their witness relabeling is I <-> iX
  with each U_k mapped to its own class.

Both witnesses hold on exact coefficient vectors, so they prove invariance
for every game; tests/test_acceptance.py checks them on every hit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import ExactnessError
from .exactnum import Angle
from .invariance import criterion_holds
from .payoff import coefficients
from .su2 import IDENTITY, IX, canonicalize

_HALF = Fraction(1, 2)

UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class LatticeSpec:
    """Sweep definition: exact theta values and a phase step of pi/4 or pi/8."""

    theta_values: Tuple[Angle, ...]
    phase_step: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.phase_step not in (Fraction(1, 4), Fraction(1, 8)):
            raise ValueError("phase_step must be pi/4 or pi/8 (as 1/4 or 1/8)")

    @staticmethod
    def create(thetas, phase_step="1/4") -> "LatticeSpec":
        step = Fraction(str(phase_step).replace("pi", "").strip())
        return LatticeSpec(
            tuple(Angle.parse(t) for t in thetas),
            step,
        )

    def phase_points(self) -> List[Fraction]:
        n = int(2 / self.phase_step)
        return [k * self.phase_step for k in range(n)]


@dataclass(frozen=True)
class Solution:
    theta1: Angle
    alpha1: Fraction
    beta1: Fraction
    alpha2: Fraction
    beta2: Fraction
    label: str  # A1, A2, B, C, D1, D2, E1, E2 or UNCLASSIFIED

    def csv_row(self) -> str:
        return ",".join(
            [
                self.theta1.format(),
                *(Angle.pi_frac(v).format() for v in
                  (self.alpha1, self.beta1, self.alpha2, self.beta2)),
                self.label,
            ]
        )


def classify_tuple(theta1: Angle, a1: Fraction, b1: Fraction,
                   a2: Fraction, b2: Fraction) -> str:
    """Attribute a criterion-satisfying tuple to its family by congruences."""
    if theta1.is_exact and theta1.frac == 0:
        return "A1" if (a1 + b2) % 1 == 0 else UNCLASSIFIED
    if theta1.is_exact and theta1.frac == 1:
        return "A2" if (a2 + b1) % 1 == 0 else UNCLASSIFIED
    quarters = all(v.denominator == 4 for v in (a1, b1, a2, b2))
    halves = all(v.denominator in (1, 2) for v in (a1, b1, a2, b2))
    if quarters:
        if (a2 - b1) % 1 == 0 and (b2 - a1) % 1 == 0:
            if theta1.is_exact and theta1.frac == _HALF:
                return "B"
            return UNCLASSIFIED
        if (a2 - b1 - _HALF) % 1 == 0 and (b2 - a1 - _HALF) % 1 == 0:
            return "C"
        return UNCLASSIFIED
    if halves:
        if (a2 - b1) % 1 != 0 or (b2 - a1) % 1 != 0:
            return UNCLASSIFIED
        if (b1 - a1) % 1 == 0:
            return "D1" if a1.denominator == 1 else "D2"
        if (b1 - a1 - _HALF) % 1 == 0:
            return "E1" if a1.denominator == 1 else "E2"
    return UNCLASSIFIED


@dataclass(frozen=True)
class SearchResult:
    solutions: Tuple[Solution, ...]
    tested: int

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.solutions:
            out[s.label] = out.get(s.label, 0) + 1
        return dict(sorted(out.items()))

    def family_counts(self) -> Dict[str, int]:
        """Counts folded to family letters (D1 + D2 -> D, etc.)."""
        out: Dict[str, int] = {}
        for s in self.solutions:
            key = s.label if s.label == UNCLASSIFIED else s.label[0]
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("theta1,alpha1,beta1,alpha2,beta2,class\n")
        for s in self.solutions:
            buf.write(s.csv_row() + "\n")
        return buf.getvalue()


def lattice_phi(theta: Fraction, a: int, b: int) -> Tuple[Fraction, int, int]:
    """su2.phi on a pi/4 lattice point: (theta, a, b) -> (1 - theta, -b, 4 - a).

    theta is in units of pi; a and b are phase indices in units of pi/4,
    reduced mod 8.  Works elementwise on numpy index arrays as well.
    """
    return 1 - theta, -b % 8, (4 - a) % 8


def _coefficient_tables(thetas: List[Fraction]):
    """Interned exact coefficient ids for every theta pair on the pi/4 lattice.

    c00 and c11 depend only on the two thetas and on x = a_p + a_o,
    y = b_p + b_o; c01 and c10 only on u = a_p - b_o, v = a_o - b_p (see
    payoff.py).  A player at (t_p, x, y) against an opponent at (t_o, 0, 0)
    therefore yields xy[p, o, x, y], the id of (c00, c11), and
    uv[p, o, x, -y], the id of (c01, c10).  Equal ids mean exactly equal
    Q(sqrt(2)) pairs.
    """
    n = len(thetas)
    xy = np.empty((n, n, 8, 8), dtype=np.intp)
    uv = np.empty_like(xy)
    ids: Dict[tuple, int] = {}
    opponents = [canonicalize(t, 0, 0) for t in thetas]
    for p, tp in enumerate(thetas):
        for m in range(8):
            for k in range(8):
                player = canonicalize(tp, Fraction(m, 4), Fraction(k, 4))
                for o, opponent in enumerate(opponents):
                    c = coefficients(player, opponent, mode="exact")
                    xy[p, o, m, k] = ids.setdefault((c.c00, c.c11), len(ids))
                    uv[p, o, m, -k % 8] = ids.setdefault((c.c01, c.c10), len(ids))
    return xy, uv


def _exact_slice_hits(th1: Fraction) -> Iterator[Tuple[int, int, int, int]]:
    """Phase indices (a1, b1, a2, b2) of every pi/4 lattice tuple at theta1 =
    th1 * pi whose set S = {I, iX, U1, U2} passes criterion_holds.

    All 4096 tuples are checked at once.  A strategy's row is its coefficient
    ids against S; the criterion holds iff every phi image's row equals some
    row of S and every row of S equals some image's row.  Ids compare
    exactly, so equality is transitive and this is criterion_holds' rule:
    each image lands in a class, and the images cover every class.
    """
    thetas = list(dict.fromkeys((Fraction(0), Fraction(1), th1, 1 - th1)))
    xy, uv = _coefficient_tables(thetas)
    pos = {t: i for i, t in enumerate(thetas)}
    a1, b1, a2, b2 = np.indices((8, 8, 8, 8)).reshape(4, -1)
    zero = np.zeros_like(a1)
    s = [(Fraction(0), zero, zero), (Fraction(1), zero, zero),
         (th1, a1, b1), (1 - th1, a2, b2)]

    def columns(strategies):
        # theta positions (strategy,), phase indices (tuple, strategy)
        return (np.array([pos[t] for t, _, _ in strategies]),
                np.stack([a for _, a, _ in strategies], 1),
                np.stack([b for _, _, b in strategies], 1))

    t_o, a_o, b_o = columns(s)
    a_o, b_o = a_o[:, None, :], b_o[:, None, :]

    def rows(strategies):
        # (tuple, player, opponent, 2) ids of each player against S
        t_p, a_p, b_p = columns(strategies)
        t_p, a_p, b_p = t_p[:, None], a_p[:, :, None], b_p[:, :, None]
        return np.stack((xy[t_p, t_o, (a_p + a_o) % 8, (b_p + b_o) % 8],
                         uv[t_p, t_o, (a_p - b_o) % 8, (a_o - b_p) % 8]), axis=-1)

    image_rows = rows([lattice_phi(*strategy) for strategy in s])
    match = (image_rows[:, :, None] == rows(s)[:, None, :]).all(axis=(3, 4))
    holds = match.any(axis=2).all(axis=1) & match.any(axis=1).all(axis=1)
    for n in np.flatnonzero(holds):
        yield int(a1[n]), int(b1[n]), int(a2[n]), int(b2[n])


def _criterion_slice_hits(th1: Angle, points: List[Fraction],
                          mode: str) -> Iterator[Tuple[Fraction, ...]]:
    """Phases of every lattice tuple at theta1 passing criterion_holds,
    tested one tuple at a time."""
    th2 = Angle.pi_frac(1 - th1.frac)
    for a1 in points:
        for b1 in points:
            u1 = canonicalize(th1, Angle.pi_frac(a1), Angle.pi_frac(b1))
            for a2 in points:
                for b2 in points:
                    u2 = canonicalize(th2, Angle.pi_frac(a2), Angle.pi_frac(b2))
                    if criterion_holds([IDENTITY, IX, u1, u2], mode=mode).holds:
                        yield a1, b1, a2, b2


def search_solutions(spec: LatticeSpec, mode: str = "exact") -> SearchResult:
    """Test every lattice tuple with theta2 = pi - theta1 against the criterion.

    mode 'exact' requires a pi/4 step (pi/8 trigonometry leaves Q(sqrt(2)))
    and checks each slice with the table kernel _exact_slice_hits: at most
    1024 exact coefficient vectors per slice, interned to integer ids, and
    the criterion evaluated on all 4096 tuples at once.  criterion_holds is
    its reference, and every other mode calls it tuple by tuple; the pi/8
    stress lattice runs in float mode with tolerance 1e-10.
    """
    if mode == "exact" and spec.phase_step != Fraction(1, 4):
        raise ExactnessError(
            "exact search supports the pi/4 lattice only; "
            "run the pi/8 stress lattice in float mode"
        )
    points = spec.phase_points()
    hits: List[Solution] = []
    tested = 0
    for theta in spec.theta_values:
        if not theta.is_exact:
            raise ExactnessError("lattice theta values must be exact multiples of pi")
        th1 = theta.mod_2pi()
        if th1.frac > 1:
            raise ExactnessError(f"theta1 = {th1} is outside [0, pi]")
        if mode == "exact":
            found = (tuple(points[i] for i in idx) for idx in _exact_slice_hits(th1.frac))
        else:
            found = _criterion_slice_hits(th1, points, mode)
        for a1, b1, a2, b2 in found:
            hits.append(Solution(th1, a1, b1, a2, b2,
                                 classify_tuple(th1, a1, b1, a2, b2)))
        tested += len(points) ** 4
    hits.sort(key=lambda s: (float(s.theta1.value), s.alpha1, s.beta1,
                             s.alpha2, s.beta2))
    return SearchResult(tuple(hits), tested)


# -- named relations of the families A-E --------------------------------------


@dataclass(frozen=True)
class RelationReport:
    name: str
    satisfied: bool
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied,
                "lhs": self.lhs, "rhs": self.rhs}


def check_relations(theta1, alpha1, beta1, alpha2, beta2,
                    tol: float = 1e-12) -> List[RelationReport]:
    """Evaluate the named parameter relations on one tuple.

    The relations characterise the named families A-E: every family tuple
    satisfies them all, while the mixed- and split-grid criterion hits each
    violate at least one, so they are a filter on top of the criterion and
    not a consequence of it.

    For interior theta1 these are the three cross-parameter conditions plus
    the two product equations pinning (alpha1, beta1) to a quarter- or
    half-pi grid.  At the boundary theta1 in {0, pi} the system degenerates
    and only the residual sin(2x) chain is meaningful.
    """
    th1 = Angle.parse(theta1).to_radians()
    a1, b1 = Angle.parse(alpha1).to_radians(), Angle.parse(beta1).to_radians()
    a2, b2 = Angle.parse(alpha2).to_radians(), Angle.parse(beta2).to_radians()
    th2 = math.pi - th1
    out: List[RelationReport] = []

    def rel(name, lhs, rhs):
        out.append(RelationReport(name, abs(lhs - rhs) <= tol, lhs, rhs))

    boundary = min(abs(th1), abs(th1 - math.pi)) <= tol
    if boundary:
        if abs(th1) <= tol:  # theta1 = 0: residual chain in alpha1, beta2
            x, y = a1, b2
        else:  # theta1 = pi: mirrored roles
            x, y = a2, b1
        rel("sin^2(2*beta) = sin^2(2*alpha)", math.sin(2 * y) ** 2, math.sin(2 * x) ** 2)
        rel("sin^2(2*alpha) = sin^2(alpha - beta)",
            math.sin(2 * x) ** 2, math.sin(x - y) ** 2)
        return out

    rel("sin^2(theta2/2) = cos^2(theta1/2)",
        math.sin(th2 / 2) ** 2, math.cos(th1 / 2) ** 2)
    rel("sin^2(alpha2) = sin^2(beta1)", math.sin(a2) ** 2, math.sin(b1) ** 2)
    rel("sin^2(beta2) = sin^2(alpha1)", math.sin(b2) ** 2, math.sin(a1) ** 2)
    rel("sin(2*beta1) * cos(2*alpha1) = 0",
        math.sin(2 * b1) * math.cos(2 * a1), 0.0)
    rel("sin(2*(alpha1 - beta1)) = 0", math.sin(2 * (a1 - b1)), 0.0)
    return out
