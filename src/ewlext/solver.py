"""Exhaustive search for strategy pairs passing the invariance criterion.

The search sweeps a phase lattice at fixed theta1 (theta2 = pi - theta1),
decides the executable criterion on {I, iX, U1, U2} for every tuple, and
attributes each hit to one of the families A-E by the conditions of
extensions.FAMILY_RULES.
One table kernel decides every slice, exact or float, on the pi/4 and the
pi/8 lattice: the coefficient vectors depend only on the two thetas and on
sums and differences of phases, so one coefficient call per theta pair and
phase pair (at most 1024 per pi/4 slice, 4096 per pi/8 slice) fills tables
of interned ids, and the criterion becomes integer comparisons, made only
for the tuples whose rows against I and iX can match (_slice_hits).  Only
the interning differs by mode: exact values by equality, floats by clusters
at FLOAT_TOL.  invariance.criterion_holds is the kernel's reference.
The criterion itself is the ground truth.  The named trigonometric relations
in check_relations are not implied by it: they single out the named families
A-E, and every criterion hit outside those families violates at least one.

Hits outside the named families are reported as UNCLASSIFIED, not dropped.
On the default pi/4 lattice two such groups exist and are genuine:

- mixed-grid tuples, at every interior theta1: the tuples with U2 =
  +-phi(U1), that is (alpha2, beta2) = (-beta1, pi - alpha1) up to a joint
  pi-shift, that no family rule labels.  An n-point phase lattice has 2 n^2
  such tuples per slice, 64 of them in the families C, D and E, so 64 are
  mixed-grid on the pi/4 lattice and 448 on pi/8.  (On pi/4 one of alpha1,
  beta1 lies on the half-pi grid and the other on the odd-quarter grid.)
  S is then closed under phi up to a global sign, which makes the
  extension invariant for any U1; the witness relabeling is the one the
  named families use, I <-> iX and U1 <-> U2.
- at theta1 = pi/2 only, the split-grid products {0,pi}^2 x {pi/2,3pi/2}^2
  and its mirror image (32 tuples).  Their witness relabeling is I <-> iX
  with each U_k mapped to its own class.

Both witnesses hold on exact coefficient vectors, so they prove invariance
for every game; tests/test_acceptance.py checks them on every hit.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, Iterator, List, Tuple

from .errors import DomainError, ExactnessError
from .exactnum import EXACT, FLOAT_TOL, Angle, Field, check_mode
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


def lattice_phi(theta: Fraction, a: int, b: int, n: int):
    """su2.phi on a lattice of n phase points per 2 pi:
    (theta, a, b) -> (1 - theta, -b, n/2 - a) mod n.

    theta is in units of pi; a and b are phase indices in units of 2 pi / n
    (n = 8 on the pi/4 lattice, 16 on pi/8).
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
    field = EXACT if mode == "exact" else Field(FLOAT_TOL)
    phases = [Fraction(2 * k, n) for k in range(n)]
    opponents = [canonicalize(t, 0, 0) for t in thetas]
    players = {(p, m, k): canonicalize(t, phases[m], phases[k])
               for p, t in enumerate(thetas) for m in range(n) for k in range(n)}
    cells = list(product(range(len(thetas)), range(len(thetas)), range(n), range(n)))
    ids = field.intern([c for p, o, m, k in cells
                        for c in coefficients(players[p, m, k], opponents[o], mode=mode)])
    xy, uv, pairs = {}, {}, {}  # pairs: one compact id per pair of component ids
    for (p, o, m, k), (c00, c01, c10, c11) in zip(cells, zip(*[iter(ids)] * 4)):
        xy[p, o, m, k] = pairs.setdefault((c00, c11), len(pairs))
        uv[p, o, m, -k % n] = pairs.setdefault((c01, c10), len(pairs))
    return xy, uv


def _entry_id(xy, uv, n: int):
    """E(s, t): the id of the coefficient vector of lattice strategy s
    against t, where a strategy is (theta position, alpha index, beta index).
    Equal entries mean equal xy and uv ids."""
    scale = max(uv.values()) + 1

    def entry(s, t):
        (p, ap, bp), (o, ao, bo) = s, t
        return (xy[p, o, (ap + ao) % n, (bp + bo) % n] * scale
                + uv[p, o, (ap - bo) % n, (ao - bp) % n])
    return entry


def _slice_hits(th1: Fraction, n: int, mode: str) -> Iterator[Tuple[int, int, int, int]]:
    """Phase indices (a1, b1, a2, b2) of every tuple of the n-point lattice
    at theta1 = th1 * pi whose set S = {I, iX, U1, U2} passes criterion_holds.

    A strategy's row is its entries against S.  The criterion holds iff the
    rows of phi(S) equal the rows of S as multisets (some permutation of S
    matches them).  Entry equality is transitive, exact in mode 'exact' and
    closeness at FLOAT_TOL in mode 'float', so this is criterion_holds'
    rule: each class K of S receives |K| images.  The heads A (entries
    against I and iX) then agree too: X + {A(U2)} = Y + {A(phi U2)}, X and
    Y the heads of I, iX, U1 and of their images.  So each U2 is indexed by
    (A(U2), A(phi U2)), or by () where they are equal, each U1 looks up
    (Y - X, X - Y), and only those candidates' full rows are compared.
    """
    thetas = list(dict.fromkeys((Fraction(0), Fraction(1), th1, 1 - th1)))
    pos = {t: i for i, t in enumerate(thetas)}
    entry = _entry_id(*_coefficient_tables(thetas, n, mode), n)

    def state(theta, a, b):
        return pos[theta], a, b

    # I, iX, phi(I), phi(iX): the first two are in S, the last two in phi(S)
    eye, ix = (Fraction(0), 0, 0), (Fraction(1), 0, 0)
    fixed = [state(*s) for s in (eye, ix, lattice_phi(*eye, n), lattice_phi(*ix, n))]

    def head(s):  # the entries against I and iX
        return entry(s, fixed[0]), entry(s, fixed[1])

    def grid(theta):
        """Per grid point: U, phi(U), their heads, E(U, U), E(phi U, U) and
        the column of the fixed strategies against U."""
        for a, b in product(range(n), repeat=2):
            u, pu = state(theta, a, b), state(*lattice_phi(theta, a, b, n))
            yield u, pu, head(u), head(pu), entry(u, u), entry(pu, u), [
                entry(f, u) for f in fixed]

    heads = [head(f) for f in fixed]
    grid2 = list(grid(1 - th1))
    by_heads: Dict[tuple, List[int]] = {}
    for j, (_, _, h, phi_h, *_) in enumerate(grid2):
        by_heads.setdefault(() if h == phi_h else (h, phi_h), []).append(j)
    for i, (u, pu, head1, phi_head1, uu, puu, col1) in enumerate(grid(th1)):
        x, y = Counter(heads[:2] + [head1]), Counter(heads[2:] + [phi_head1])
        # rows lacking their entry against U2: I, iX, phi(I), phi(iX), then U1, phi(U1)
        r0, r1, r2, r3 = [(*h, c) for h, c in zip(heads, col1)]
        r4, r5 = (*head1, uu), (*phi_head1, puu)
        for j in by_heads.get((*(y - x).elements(), *(x - y).elements()), ()):
            v, pv, head2, phi_head2, vv, pvv, col2 = grid2[j]
            if sorted([r0 + (col2[0],), r1 + (col2[1],), r4 + (entry(u, v),),
                       (*head2, entry(v, u), vv)]) \
                    == sorted([r2 + (col2[2],), r3 + (col2[3],), r5 + (entry(pu, v),),
                               (*phi_head2, entry(pv, u), pvv)]):
                yield (*divmod(i, n), *divmod(j, n))


def search_solutions(spec: LatticeSpec, mode: str = "exact") -> SearchResult:
    """Test every lattice tuple with theta2 = pi - theta1 against the criterion.

    Every mode runs the table kernel _slice_hits: per slice one coefficient
    vector per theta pair and phase sum or difference (at most 1024 on the
    pi/4 lattice, 4096 on pi/8), interned to integer ids, and the criterion
    decided on integer comparisons for the tuples its head filter admits.
    criterion_holds is its reference.  Mode 'exact' interns exact
    Q(sqrt(2)) vectors and raises ExactnessError on the pi/8 step and at a
    theta1 such as pi/6, whose trigonometry leaves Q(sqrt(2)); mode 'float'
    interns doubles at tolerance FLOAT_TOL = 1e-10 and raises ToleranceError
    if they do not separate cleanly at it.
    """
    if check_mode(mode) == "exact" and spec.phase_step == Fraction(1, 8):
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
            phases = [points[i] for i in idx]
            hits.append(Solution(th1, *phases, classify_tuple(th1, *phases)))
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
