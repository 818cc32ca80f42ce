"""The five permissible extension families A-E.

Each family fixes a pattern for the pair of extra unitary strategies
(U1, U2) added to {I, iX}; the resulting 4x4 bimatrix has a block form in
the four swapped variants of the base game.  The block formulas here are
deliberately independent of the coefficient-based construction in
:mod:`invariance`, so their entrywise equality is a meaningful test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidClassParams, NotDiscreteError
from .exactnum import ANGLE_PI, Angle, angle_cos, normalize
from .invariance import ExtendedGame, _block_matrix, default_labels
from .payoff import Bimatrix2
from .su2 import IDENTITY, IX, StrategyParams, canonicalize

_HALF = Fraction(1, 2)


class ClassId(Enum):
    A1 = "A1"
    A2 = "A2"
    B = "B"
    C = "C"
    D1 = "D1"
    D2 = "D2"
    E1 = "E1"
    E2 = "E2"

    @property
    def family(self) -> str:
        return self.value[0]


_PHASE_NAMES = ("alpha1", "beta1", "alpha2", "beta2")


@dataclass(frozen=True)
class FamilyRule:
    """The defining conditions of one family, in the order they are checked.

    Angles are in units of pi, and phases are indexed as in _PHASE_NAMES.
    theta pins theta1, or is None for theta1 strictly inside (0, pi), where
    the default is pi/3.  A congruence (i, sign, j, shift, text) demands
    phase_i + sign * phase_j = shift (mod pi), with shift 0 or 1/2.  grid,
    if set, is (denominators, text): each phase must be exact, with one of
    those denominators.  axis demands alpha1 in {0, pi} (True) or in
    {pi/2, 3pi/2} (False).  tie (i, j) makes create derive phase_j =
    -phase_i when the caller gives phase_i only.
    """

    name: str
    theta: Optional[Fraction]
    theta_text: str
    default_phases: Tuple[Fraction, Fraction, Fraction, Fraction]
    congruences: Tuple[Tuple[int, int, int, Fraction, str], ...]
    grid: Optional[Tuple[Tuple[int, ...], str]] = None
    axis: Optional[bool] = None
    tie: Optional[Tuple[int, int]] = None

    @property
    def default_theta(self) -> Fraction:
        return Fraction(1, 3) if self.theta is None else self.theta

    def meets_theta(self, theta1: Angle) -> bool:
        if self.theta is not None:
            return theta1.is_exact and theta1.frac == self.theta
        if theta1.is_exact:
            return 0 < theta1.frac < 1
        return 0.0 < theta1.to_radians() < math.pi

    def violation(self, theta1: Angle, phases) -> Optional[str]:
        """The InvalidClassParams message of the first violated condition,
        or None.  phases are (alpha1, beta1, alpha2, beta2), each a Fraction
        (units of pi) or a float (radians), as Angle.value holds them.
        """
        if not self.meets_theta(theta1):
            return f"{self.name}: requires theta1 {self.theta_text}"
        return self.phase_violation(phases)

    def phase_violation(self, phases) -> Optional[str]:
        """violation without the theta1 condition."""
        if self.grid is not None:
            denominators, text = self.grid
            if not all(isinstance(v, Fraction) for v in phases):
                return (f"{self.name}: phases must be exact multiples of pi/4 "
                        f"on the discrete solution lattice")
            for name, v in zip(_PHASE_NAMES, phases):
                if v.denominator not in denominators:
                    return f"{self.name}: {name} must be {text}"
        for i, sign, j, shift, text in self.congruences:
            x, y = phases[i], phases[j]
            if isinstance(x, Fraction) and isinstance(y, Fraction):
                # z = shift (mod 1) for shift 0 or 1/2: z has shift's denominator
                ok = (x + y if sign > 0 else x - y).denominator == shift.denominator
            else:
                z = (Angle(x).to_radians() + sign * Angle(y).to_radians()
                     - shift * math.pi)
                ok = abs(math.remainder(z, math.pi)) < 1e-9
            if not ok:
                return f"{self.name}: violated {text}"
        if self.axis is not None and (phases[0].denominator == 1) != self.axis:
            lie = "{0, pi}" if self.axis else "{pi/2, 3pi/2}"
            return f"{self.name}: alpha1 must lie in {lie}"
        return None


def _pi(text: str) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in text.split())


_INSIDE = "strictly inside (0, pi)"
_ODD_QUARTERS = ((4,), "an odd multiple of pi/4")
_HALVES = ((1, 2), "a multiple of pi/2")
_D = ((1, -1, 0, 0, "beta1 = alpha1 + n pi"),
      (2, -1, 1, 0, "alpha2 = beta1 + l pi"),
      (3, -1, 0, 0, "beta2 = alpha1 + m pi"))
_E = ((1, -1, 0, _HALF, "beta1 = alpha1 + (n+1/2) pi"),) + _D[1:]

# One row per class: the conditions validate checks, which are also the
# ones solver.classify_tuple attributes lattice hits by.
FAMILY_RULES = {ClassId(rule.name): rule for rule in (
    FamilyRule("A1", Fraction(0), "= 0 (theta2 = pi)", _pi("1/2 0 0 3/2"),
               ((0, 1, 3, 0, "alpha1 + beta2 = n pi"),), tie=(0, 3)),
    FamilyRule("A2", Fraction(1), "= pi (theta2 = 0)", _pi("0 3/2 1/2 0"),
               ((2, 1, 1, 0, "alpha2 + beta1 = n pi"),), tie=(2, 1)),
    FamilyRule("B", _HALF, "= pi/2", _pi("1/4 1/4 1/4 1/4"),
               ((2, -1, 1, 0, "alpha2 = beta1 + n pi"),
                (3, -1, 0, 0, "beta2 = alpha1 + l pi")), _ODD_QUARTERS),
    FamilyRule("C", None, _INSIDE, _pi("1/4 1/4 3/4 3/4"),
               ((2, -1, 1, _HALF, "alpha2 = beta1 + (n+1/2) pi"),
                (3, -1, 0, _HALF, "beta2 = alpha1 + (l+1/2) pi")), _ODD_QUARTERS),
    FamilyRule("D1", None, _INSIDE, _pi("0 0 0 0"), _D, _HALVES, axis=True),
    FamilyRule("D2", None, _INSIDE, _pi("1/2 1/2 1/2 1/2"), _D, _HALVES, axis=False),
    FamilyRule("E1", None, _INSIDE, _pi("0 1/2 1/2 0"), _E, _HALVES, axis=True),
    FamilyRule("E2", None, _INSIDE, _pi("1/2 0 0 1/2"), _E, _HALVES, axis=False),
)}


@dataclass(frozen=True)
class ClassParams:
    """A point of one extension family: theta1 plus the four phases.

    theta2 is always pi - theta1.  Validation checks the family's row of
    FAMILY_RULES and reports the first violated condition by name.
    """

    class_id: ClassId
    theta1: Angle
    alpha1: Angle
    beta1: Angle
    alpha2: Angle
    beta2: Angle

    @staticmethod
    def create(class_id, theta1=None, alpha1=None, beta1=None,
               alpha2=None, beta2=None) -> "ClassParams":
        cid = class_id if isinstance(class_id, ClassId) else ClassId(str(class_id))
        rule = FAMILY_RULES[cid]
        given = (alpha1, beta1, alpha2, beta2)
        phases = [Angle.parse(v).mod_2pi() if v is not None else Angle.pi_frac(d)
                  for v, d in zip(given, rule.default_phases)]
        # A-class matrices are pinned by one phase; derive the tied one when
        # the caller supplied only that.
        if rule.tie is not None:
            i, j = rule.tie
            if given[i] is not None and given[j] is None:
                phases[j] = (Angle.pi_frac(2) - phases[i]).mod_2pi()
        th = Angle.parse(theta1) if theta1 is not None else Angle.pi_frac(rule.default_theta)
        params = ClassParams(cid, th, *phases)
        params.validate()
        return params

    @property
    def theta2(self) -> Angle:
        return ANGLE_PI - self.theta1

    @property
    def phases(self) -> Tuple[Angle, Angle, Angle, Angle]:
        return (self.alpha1, self.beta1, self.alpha2, self.beta2)

    def validate(self) -> None:
        message = FAMILY_RULES[self.class_id].violation(
            self.theta1, tuple(a.value for a in self.phases))
        if message is not None:
            raise InvalidClassParams(message)


# -- discrete solution sets ---------------------------------------------------

_QUARTERS = tuple(Fraction(k, 4) for k in range(8))


def enumerate_discrete_solutions(class_id) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """All phase 4-tuples (alpha1, beta1, alpha2, beta2), in units of pi,
    admitted by the family, derived from FAMILY_RULES: the points of the
    pi/4 phase grid (k/4, k = 0..7) that pass phase_violation of a matching
    row ("D" and "E" match both splits), in lexicographic order.  64 for B
    and C, 32 for D and E (16 per split).

    The A family is continuous: NotDiscreteError carries its congruence.
    An unknown name raises ValueError.
    """
    name = class_id.value if isinstance(class_id, ClassId) else str(class_id)
    rules = [rule for cid, rule in FAMILY_RULES.items() if name in (cid.value, cid.family)]
    if not rules:
        raise ValueError(f"unknown class {name!r}")
    if rules[0].grid is None:
        cong = " or ".join(f"{rule.congruences[0][4]} at theta1 {rule.theta_text}"
                           for rule in rules)
        raise NotDiscreteError(f"class {name} is a continuous family: {cong}", cong)
    return [t for t in product(_QUARTERS, repeat=4)
            if any(rule.phase_violation(t) is None for rule in rules)]


# -- strategy sets and matrices ------------------------------------------------


def strategy_set(p: ClassParams) -> List[StrategyParams]:
    """[I, iX, U1(theta1, alpha1, beta1), U2(pi - theta1, alpha2, beta2)]."""
    p.validate()
    u1 = canonicalize(p.theta1, p.alpha1, p.beta1)
    u2 = canonicalize(p.theta2, p.alpha2, p.beta2)
    return [IDENTITY, IX, u1, u2]


def _blocks(p: ClassParams, cos=angle_cos):
    """Coefficient 4-vectors (over Gamma^0..Gamma^3) for the four 2x2 blocks,
    from the cosines `cos` gives of the class's angles."""
    cid = p.class_id
    one, zero = Fraction(1), Fraction(0)
    e = (one, zero, zero, zero)
    if cid in (ClassId.A1, ClassId.A2):
        phase = p.alpha1 if cid is ClassId.A1 else p.alpha2
        a = normalize((1 + cos(2 * phase)) * _HALF)  # cos^2
        b = normalize((1 + cos(4 * phase)) * _HALF)  # doubled angle
        ap, bp = 1 - a, 1 - b
        if cid is ClassId.A1:
            f = (a, zero, zero, ap)
            return e, f, f, (b, zero, zero, bp)
        return e, (zero, ap, a, zero), (zero, a, ap, zero), (bp, zero, zero, b)
    t = (1 + cos(p.theta1)) * _HALF  # cos^2(theta1 / 2)
    tp = 1 - t
    if cid is ClassId.B:
        q = Fraction(1, 4)
        f = (q, q, q, q)
        return e, f, f, f
    if cid is ClassId.C:
        half = _HALF
        f = (t * half, tp * half, tp * half, t * half)
        return e, f, f, (tp * tp, t * tp, t * tp, t * t)
    h = (t * t, t * tp, t * tp, tp * tp)
    if cid is ClassId.D1:
        return e, (t, zero, tp, zero), (t, tp, zero, zero), h
    if cid is ClassId.D2:
        return e, (zero, tp, zero, t), (zero, zero, tp, t), h
    if cid is ClassId.E1:
        return e, (t, tp, zero, zero), (t, zero, tp, zero), h
    return e, (zero, zero, tp, t), (zero, tp, zero, t), h


def extension_matrix(p: ClassParams, game: Bimatrix2) -> ExtendedGame:
    """The family's block formula evaluated on the game, exactly: a float
    game entry, a float angle's cosine and a cosine outside Q(sqrt(2)) are
    taken at their binary values (angle_cos), so every entry is a Fraction
    or a Q2, and the ties that identities in cos(theta1) make survive.

    Must equal build_extended_game(game, strategy_set(p)) entrywise; the two
    constructions share no code.
    """
    p.validate()
    grid = _block_matrix(game, _blocks(p))
    grid = tuple(tuple(row) for row in grid)
    return ExtendedGame(default_labels(4), grid)


# -- limit relations between D/E and A ------------------------------------------

_LIMIT_TARGETS = {
    # (class, direction) -> (target class, pinned phase of the target, in pi units)
    (ClassId.D1, "zero"): (ClassId.A1, Fraction(0)),
    (ClassId.D2, "zero"): (ClassId.A1, _HALF),
    (ClassId.E1, "zero"): (ClassId.A1, Fraction(0)),
    (ClassId.E2, "zero"): (ClassId.A1, _HALF),
    (ClassId.D1, "pi"): (ClassId.A2, Fraction(0)),
    (ClassId.D2, "pi"): (ClassId.A2, _HALF),
    (ClassId.E1, "pi"): (ClassId.A2, _HALF),
    (ClassId.E2, "pi"): (ClassId.A2, Fraction(0)),
}


@dataclass(frozen=True)
class LimitCheck:
    source: ClassId
    direction: str  # 'zero' for theta1 -> 0, 'pi' for theta1 -> pi
    target: ClassParams
    thetas: Tuple[float, ...]
    max_abs_diff: Tuple[float, ...]
    bounds: Tuple[float, ...]

    @property
    def converged(self) -> bool:
        return all(d <= b for d, b in zip(self.max_abs_diff, self.bounds))


def _max_entry_diff(g1: ExtendedGame, g2: ExtendedGame) -> float:
    return max(
        max(abs(float(p.u1) - float(q.u1)), abs(float(p.u2) - float(q.u2)))
        for r1, r2 in zip(g1.payoffs, g2.payoffs)
        for p, q in zip(r1, r2)
    )


def limit_target(class_id: ClassId, direction: str) -> ClassParams:
    if class_id.family not in ("D", "E"):
        raise InvalidClassParams("limit relations are defined for D and E only")
    if direction not in ("zero", "pi"):
        raise ValueError("direction must be 'zero' or 'pi'")
    target_cid, phase = _LIMIT_TARGETS[(class_id, direction)]
    if target_cid is ClassId.A1:
        return ClassParams.create(target_cid, alpha1=Angle.pi_frac(phase))
    return ClassParams.create(target_cid, alpha2=Angle.pi_frac(phase))


def limit_check(class_id: ClassId, direction: str, game: Bimatrix2,
                thetas: Sequence[float] = (1e-3, 1e-6)) -> LimitCheck:
    """Verify entrywise convergence of the family matrix to its A-class target.

    For each probe theta1 the difference is bounded by 10 * s * max(1, span/5),
    s = t' (theta1 -> 0) or t (theta1 -> pi) and span the largest minus the
    smallest of the game's eight entries.  Every block row sums to 1, so each
    entry and its target are convex combinations of the game's entries: the
    difference is unchanged by adding a constant to the game and scales with it.
    """
    target = limit_target(class_id, direction)
    target_matrix = extension_matrix(target, game)
    entries = [float(v) for row in game.delta for p in row for v in p]
    scale = max(1.0, (max(entries) - min(entries)) / 5.0)
    probe_thetas, diffs, bounds = [], [], []
    for eps in thetas:
        theta = eps if direction == "zero" else math.pi - eps
        probe = ClassParams(
            class_id,
            Angle.radians(theta),
            *(Angle.pi_frac(k) for k in FAMILY_RULES[class_id].default_phases),
        )
        mat = extension_matrix(probe, game)
        t = math.cos(theta / 2.0) ** 2
        bound = (10.0 * (1.0 - t) if direction == "zero" else 10.0 * t) * scale
        probe_thetas.append(theta)
        diffs.append(_max_entry_diff(mat, target_matrix))
        bounds.append(bound)
    return LimitCheck(class_id, direction, target, tuple(probe_thetas),
                      tuple(diffs), tuple(bounds))
