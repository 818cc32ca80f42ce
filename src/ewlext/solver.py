"""Exhaustive search for strategy pairs passing the invariance criterion.

The search sweeps a phase lattice at fixed theta1 (theta2 = pi - theta1),
decides the executable criterion on {I, iX, U1, U2} for every tuple, and
attributes each hit to one of the families A-E by the conditions of
extensions.FAMILY_RULES.
One table kernel decides every slice, exact or float, on the pi/4 and the
pi/8 lattice: the coefficient vectors depend only on the two thetas and on
sums and differences of phases, so one coefficient call per theta pair and
phase pair (at most 1024 per pi/4 slice, 4096 per pi/8 slice) fills tables
of interned ids, and the criterion becomes integer comparisons over the
tuples.  Only the interning differs by mode: exact values by equality,
floats by clusters at FLOAT_TOL.  invariance.criterion_holds is the kernel's
reference.
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
from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterator, List, Tuple

from .errors import DomainError, ExactnessError
from .exactnum import EXACT, FLOAT_TOL, Angle, Field
from .extensions import FAMILY_RULES
from .payoff import coefficients
from .su2 import canonicalize


UNCLASSIFIED = "UNCLASSIFIED"
RELATION_TOL = 1e-12  # check_relations: |lhs - rhs| at most this holds


@dataclass(frozen=True)
class LatticeSpec:
    """Sweep definition: exact theta values and a phase step of pi/4 or pi/8."""

    theta_values: Tuple[Angle, ...]
    phase_step: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.phase_step not in (Fraction(1, 4), Fraction(1, 8)):
            raise DomainError("phase_step must be pi/4 or pi/8 (as 1/4 or 1/8)")

    @staticmethod
    def create(thetas, phase_step="1/4") -> "LatticeSpec":
        try:
            step = Fraction(str(phase_step).replace("pi", "").strip())
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse phase step {phase_step!r}") from None
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


@lru_cache(maxsize=64)
def _families_at(theta1: Angle):
    """(label, rule) of every family whose theta1 condition theta1 meets."""
    return tuple((cid.value, rule) for cid, rule in FAMILY_RULES.items()
                 if rule.meets_theta(theta1))


def classify_tuple(theta1: Angle, a1: Fraction, b1: Fraction,
                   a2: Fraction, b2: Fraction) -> str:
    """The family whose defining conditions (extensions.FAMILY_RULES) a
    criterion-satisfying tuple meets, or UNCLASSIFIED.  The families'
    conditions exclude each other, so at most one matches."""
    phases = (a1, b1, a2, b2)
    for label, rule in _families_at(theta1):
        if rule.phase_violation(phases) is None:
            return label
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


def lattice_phi(theta: Fraction, a, b, n: int):
    """su2.phi on a lattice of n phase points per 2 pi:
    (theta, a, b) -> (1 - theta, -b, n/2 - a) mod n.

    theta is in units of pi; a and b are phase indices in units of 2 pi / n
    (n = 8 on the pi/4 lattice, 16 on pi/8).  Works elementwise on numpy
    index arrays as well.
    """
    return 1 - theta, -b % n, (n // 2 - a) % n


def _coefficient_tables(thetas: List[Fraction], n: int, mode: str):
    """Interned coefficient ids for every theta pair on the n-point phase lattice.

    c00 and c11 depend only on the two thetas and on x = a_p + a_o,
    y = b_p + b_o; c01 and c10 only on u = a_p - b_o, v = a_o - b_p (see
    payoff.py).  A player at (t_p, x, y) against an opponent at (t_o, 0, 0)
    therefore yields xy[p, o, x, y], the id of (c00, c11), and
    uv[p, o, x, -y], the id of (c01, c10).  The vectors come from
    payoff.coefficients in the given mode.  'exact' interns Q(sqrt(2))
    values, so equal ids mean equal pairs; 'float' clusters doubles with
    Field.intern, so equal ids mean pairs within FLOAT_TOL componentwise.
    """
    import numpy as np
    field = EXACT if mode == "exact" else Field(FLOAT_TOL)
    step = Fraction(2, n)
    opponents = [canonicalize(t, 0, 0) for t in thetas]
    values = np.empty((len(thetas), len(thetas), n, n, 4),
                      dtype=object if field.exact else np.float64)
    for p, tp in enumerate(thetas):
        for m in range(n):
            for k in range(n):
                player = canonicalize(tp, m * step, k * step)
                for o, opponent in enumerate(opponents):
                    values[p, o, m, k] = coefficients(player, opponent, mode=mode)
    ids = np.asarray(field.intern(values.ravel().tolist()),
                     dtype=np.int64).reshape(values.shape)
    size = ids.max() + 1

    def pair_ids(i, j):  # one compact id per pair of component ids
        keys = ids[..., i] * size + ids[..., j]
        return np.unique(keys, return_inverse=True)[1].reshape(keys.shape)

    xy = pair_ids(0, 3)
    uv = np.empty_like(xy)
    uv[:, :, :, -np.arange(n) % n] = pair_ids(1, 2)
    return xy, uv


def _entry_table(xy, uv, states, n: int):
    """E[i, j]: the id of the coefficient vector of lattice strategy
    states[i] against states[j], where a state is (theta position * n +
    alpha index) * n + beta index.  Equal entries mean equal xy and uv ids.
    """
    import numpy as np
    t, a, b = states // (n * n), states // n % n, states % n
    scale = int(uv.max()) + 1
    size = (int(xy.max()) + 1) * scale
    table = np.empty((len(states), len(states)), dtype=np.min_scalar_type(size))
    for lo in range(0, len(states), n):  # player blocks keep temporaries small
        p = slice(lo, lo + n)
        tp, ap, bp = t[p, None], a[p, None], b[p, None]
        table[p] = (xy[tp, t, (ap + a) % n, (bp + b) % n] * scale
                    + uv[tp, t, (ap - b) % n, (a - bp) % n])
    return table


def _slice_hits(th1: Fraction, n: int, mode: str) -> Iterator[Tuple[int, int, int, int]]:
    """Phase indices (a1, b1, a2, b2) of every tuple of the n-point lattice
    at theta1 = th1 * pi whose set S = {I, iX, U1, U2} passes criterion_holds.

    Every strategy of some S or phi(S) gets a row of the entry table, and
    the tuples are checked n * n at a time, one chunk per (a1, b1).  A
    strategy's row is its entries against S; the criterion holds iff some
    permutation sigma of S gives phi(s_i) the row of s_sigma(i) for every
    i, which is one of 24 patterns of the 4 x 4 match matrix.  Entry
    equality is transitive, and it is exact equality in mode 'exact' and
    closeness at FLOAT_TOL in mode 'float', so this is criterion_holds'
    rule: each class K of S receives |K| images.
    """
    import numpy as np
    perms = np.array(list(permutations(range(4))))
    thetas = list(dict.fromkeys((Fraction(0), Fraction(1), th1, 1 - th1)))
    pos = {t: i for i, t in enumerate(thetas)}
    grid_a, grid_b = np.indices((n, n)).reshape(2, -1)
    zero = np.zeros(1, dtype=grid_a.dtype)
    s = [(Fraction(0), zero, zero), (Fraction(1), zero, zero),
         (th1, grid_a, grid_b), (1 - th1, grid_a, grid_b)]
    # states of I, iX, U1, U2, phi(I), phi(iX), phi(U1), phi(U2); the U1 and
    # U2 columns run over their whole grids
    keys = [(pos[t] * n + a) * n + b
            for t, a, b in s + [lattice_phi(*strategy, n) for strategy in s]]
    used = np.zeros(len(thetas) * n * n, dtype=bool)
    for key in keys:
        used[key] = True
    states = np.flatnonzero(used)
    position = np.cumsum(used) - 1  # of each used key in states
    columns = [position[key] for key in keys]
    table = _entry_table(*_coefficient_tables(thetas, n, mode), states, n)
    # tuple u2 of a chunk has U2 at grid point u2; U1 columns are set per chunk
    members = np.stack([np.broadcast_to(c, n * n) for c in columns], axis=1)
    for u1 in range(n * n):
        members[:, 2], members[:, 6] = columns[2][u1], columns[6][u1]
        rows = table[members[:, :, None], members[:, None, :4]]
        match = (rows[:, 4:, None] == rows[:, None, :4]).all(axis=3)
        holds = match[:, np.arange(4), perms].all(axis=2).any(axis=1)
        for u2 in np.flatnonzero(holds):
            yield (*divmod(u1, n), *divmod(int(u2), n))


def search_solutions(spec: LatticeSpec, mode: str = "exact") -> SearchResult:
    """Test every lattice tuple with theta2 = pi - theta1 against the criterion.

    Every mode runs the table kernel _slice_hits: per slice one coefficient
    vector per theta pair and phase sum or difference (at most 1024 on the
    pi/4 lattice, 4096 on pi/8), interned to integer ids, and the criterion
    decided on integer comparisons, (a1, b1) chunk by chunk.
    criterion_holds is its reference.  Mode 'exact' interns exact
    Q(sqrt(2)) vectors and needs the pi/4 step (pi/8 trigonometry leaves
    Q(sqrt(2))); mode 'float' interns doubles at tolerance FLOAT_TOL = 1e-10
    and raises ToleranceError if they do not separate cleanly at it.  Mode
    'auto' is 'exact' on the pi/4 lattice and falls back to 'float' on the
    pi/8 lattice.
    """
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    eighth = spec.phase_step == Fraction(1, 8)
    if mode == "auto":
        mode = "float" if eighth else "exact"
    if mode == "exact" and eighth:
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
        for idx in _slice_hits(th1.frac, len(points), mode):
            a1, b1, a2, b2 = (points[i] for i in idx)
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


def check_relations(theta1, alpha1, beta1, alpha2, beta2) -> List[RelationReport]:
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
        out.append(RelationReport(name, abs(lhs - rhs) <= RELATION_TOL, lhs, rhs))

    boundary = min(abs(th1), abs(th1 - math.pi)) <= RELATION_TOL
    if boundary:
        if abs(th1) <= RELATION_TOL:  # theta1 = 0: residual chain in alpha1, beta2
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
