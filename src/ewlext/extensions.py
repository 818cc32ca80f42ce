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
from typing import List, Sequence, Tuple

from .errors import ExactnessError, InvalidClassParams, NotDiscreteError
from .exactnum import Angle, exact_cos, normalize
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


_DEFAULT_PHASES = {
    # (alpha1, beta1, alpha2, beta2) in units of pi
    ClassId.A1: (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(3, 2)),
    ClassId.A2: (Fraction(0), Fraction(3, 2), Fraction(1, 2), Fraction(0)),
    ClassId.B: (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    ClassId.C: (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 4)),
    ClassId.D1: (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    ClassId.D2: (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    ClassId.E1: (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    ClassId.E2: (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)),
}


@dataclass(frozen=True)
class ClassParams:
    """A point of one extension family: theta1 plus the four phases.

    theta2 is always pi - theta1.  Validation checks the defining
    congruences of the family and reports the violated one by name.
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
        d_a1, d_b1, d_a2, d_b2 = _DEFAULT_PHASES[cid]
        if cid is ClassId.A1:
            theta_default: object = Fraction(0)
        elif cid is ClassId.A2:
            theta_default = Fraction(1)
        elif cid is ClassId.B:
            theta_default = Fraction(1, 2)
        else:
            theta_default = Fraction(1, 3)
        a1 = Angle.parse(alpha1).mod_2pi() if alpha1 is not None else Angle.pi_frac(d_a1)
        b1 = Angle.parse(beta1).mod_2pi() if beta1 is not None else Angle.pi_frac(d_b1)
        a2 = Angle.parse(alpha2).mod_2pi() if alpha2 is not None else Angle.pi_frac(d_a2)
        b2 = Angle.parse(beta2).mod_2pi() if beta2 is not None else Angle.pi_frac(d_b2)
        # A-class matrices are pinned by one phase; derive the tied one when
        # the caller supplied only that.
        if cid is ClassId.A1 and alpha1 is not None and beta2 is None:
            b2 = Angle.pi_frac((-a1.frac) % 2) if a1.is_exact else Angle.radians(
                (2 * math.pi - a1.to_radians()) % (2 * math.pi))
        if cid is ClassId.A2 and alpha2 is not None and beta1 is None:
            b1 = Angle.pi_frac((-a2.frac) % 2) if a2.is_exact else Angle.radians(
                (2 * math.pi - a2.to_radians()) % (2 * math.pi))
        th = Angle.parse(theta1) if theta1 is not None else Angle.pi_frac(theta_default)
        params = ClassParams(cid, th, a1, b1, a2, b2)
        params.validate()
        return params

    @property
    def theta2(self) -> Angle:
        if self.theta1.is_exact:
            return Angle.pi_frac(1 - self.theta1.frac)
        return Angle.radians(math.pi - self.theta1.to_radians())

    @property
    def phases(self) -> Tuple[Angle, Angle, Angle, Angle]:
        return (self.alpha1, self.beta1, self.alpha2, self.beta2)

    def validate(self) -> None:
        cid = self.class_id
        _check_theta(cid, self.theta1)
        exact = all(a.is_exact for a in self.phases)
        if cid in (ClassId.A1, ClassId.A2):
            _check_a_congruence(cid, self)
            return
        if not exact:
            raise InvalidClassParams(
                f"{cid.value}: phases must be exact multiples of pi/4 on the "
                f"discrete solution lattice"
            )
        a1, b1, a2, b2 = (a.frac for a in self.phases)
        if cid in (ClassId.B, ClassId.C):
            for name, v in (("alpha1", a1), ("beta1", b1), ("alpha2", a2), ("beta2", b2)):
                if v.denominator != 4:
                    raise InvalidClassParams(
                        f"{cid.value}: {name} must be an odd multiple of pi/4"
                    )
            shift = Fraction(0) if cid is ClassId.B else _HALF
            if (a2 - b1 - shift) % 1 != 0:
                raise InvalidClassParams(
                    f"{cid.value}: violated alpha2 = beta1 + "
                    f"{'n pi' if cid is ClassId.B else '(n+1/2) pi'}"
                )
            if (b2 - a1 - shift) % 1 != 0:
                raise InvalidClassParams(
                    f"{cid.value}: violated beta2 = alpha1 + "
                    f"{'l pi' if cid is ClassId.B else '(l+1/2) pi'}"
                )
            return
        # D and E families
        lattice = {Fraction(0), _HALF, Fraction(1), Fraction(3, 2)}
        for name, v in (("alpha1", a1), ("beta1", b1), ("alpha2", a2), ("beta2", b2)):
            if v not in lattice:
                raise InvalidClassParams(
                    f"{cid.value}: {name} must be a multiple of pi/2"
                )
        shift = Fraction(0) if cid.family == "D" else _HALF
        if (b1 - a1 - shift) % 1 != 0:
            raise InvalidClassParams(
                f"{cid.value}: violated beta1 = alpha1 + "
                f"{'n pi' if cid.family == 'D' else '(n+1/2) pi'}"
            )
        if (a2 - b1) % 1 != 0:
            raise InvalidClassParams(f"{cid.value}: violated alpha2 = beta1 + l pi")
        if (b2 - a1) % 1 != 0:
            raise InvalidClassParams(f"{cid.value}: violated beta2 = alpha1 + m pi")
        in_axis = a1.denominator == 1  # alpha1 in {0, pi}
        if cid in (ClassId.D1, ClassId.E1) and not in_axis:
            raise InvalidClassParams(f"{cid.value}: alpha1 must lie in {{0, pi}}")
        if cid in (ClassId.D2, ClassId.E2) and in_axis:
            raise InvalidClassParams(f"{cid.value}: alpha1 must lie in {{pi/2, 3pi/2}}")

    def to_json(self) -> dict:
        return {
            "class": self.class_id.value,
            "theta1": self.theta1.format(),
            "alpha1": self.alpha1.format(),
            "beta1": self.beta1.format(),
            "alpha2": self.alpha2.format(),
            "beta2": self.beta2.format(),
        }


def _check_theta(cid: ClassId, theta1: Angle) -> None:
    if cid is ClassId.A1:
        if not (theta1.is_exact and theta1.frac == 0):
            raise InvalidClassParams("A1: requires theta1 = 0 (theta2 = pi)")
    elif cid is ClassId.A2:
        if not (theta1.is_exact and theta1.frac == 1):
            raise InvalidClassParams("A2: requires theta1 = pi (theta2 = 0)")
    elif cid is ClassId.B:
        if not (theta1.is_exact and theta1.frac == _HALF):
            raise InvalidClassParams("B: requires theta1 = pi/2")
    else:
        if theta1.is_exact:
            inside = 0 < theta1.frac < 1
        else:
            inside = 0.0 < theta1.to_radians() < math.pi
        if not inside:
            raise InvalidClassParams(
                f"{cid.value}: requires theta1 strictly inside (0, pi)"
            )


def _check_a_congruence(cid: ClassId, p: ClassParams) -> None:
    if cid is ClassId.A1:
        x, y, text = p.alpha1, p.beta2, "alpha1 + beta2 = n pi"
    else:
        x, y, text = p.alpha2, p.beta1, "alpha2 + beta1 = n pi"
    if x.is_exact and y.is_exact:
        ok = (x.frac + y.frac) % 1 == 0
    else:
        r = math.fmod(x.to_radians() + y.to_radians(), math.pi)
        ok = min(abs(r), abs(math.pi - r)) < 1e-9
    if not ok:
        raise InvalidClassParams(f"{cid.value}: violated {text}")


# -- discrete solution sets ---------------------------------------------------

_P14 = (Fraction(1, 4), Fraction(5, 4))
_P34 = (Fraction(3, 4), Fraction(7, 4))
_P0 = (Fraction(0), Fraction(1))
_P12 = (Fraction(1, 2), Fraction(3, 2))


def _products(*factor_lists):
    out = []
    for factors in factor_lists:
        tuples = [()]
        for fs in factors:
            tuples = [t + (f,) for t in tuples for f in fs]
        out.extend(tuples)
    return out


_SOLUTIONS = {
    ClassId.B: _products(
        (_P14, _P14, _P14, _P14),
        (_P14, _P34, _P34, _P14),
        (_P34, _P14, _P14, _P34),
        (_P34, _P34, _P34, _P34),
    ),
    ClassId.C: _products(
        (_P14, _P14, _P34, _P34),
        (_P34, _P34, _P14, _P14),
        (_P14, _P34, _P14, _P34),
        (_P34, _P14, _P34, _P14),
    ),
    ClassId.D1: _products((_P0, _P0, _P0, _P0)),
    ClassId.D2: _products((_P12, _P12, _P12, _P12)),
    ClassId.E1: _products((_P0, _P12, _P12, _P0)),
    ClassId.E2: _products((_P12, _P0, _P0, _P12)),
}


def enumerate_discrete_solutions(class_id) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """All phase 4-tuples (alpha1, beta1, alpha2, beta2), in units of pi,
    admitted by the family: 64 for B and C, 32 for D and E (16 per split).

    The A family is continuous; NotDiscreteError carries its congruence.
    """
    name = class_id.value if isinstance(class_id, ClassId) else str(class_id)
    if name in ("A", "A1", "A2"):
        cong = {
            "A": "alpha1 + beta2 = n pi (theta1 = 0) or alpha2 + beta1 = n pi (theta1 = pi)",
            "A1": "alpha1 + beta2 = n pi, with alpha2 and beta1 free",
            "A2": "alpha2 + beta1 = n pi, with alpha1 and beta2 free",
        }[name]
        raise NotDiscreteError(f"class {name} is a continuous family: {cong}", cong)
    if name == "D":
        return _SOLUTIONS[ClassId.D1] + _SOLUTIONS[ClassId.D2]
    if name == "E":
        return _SOLUTIONS[ClassId.E1] + _SOLUTIONS[ClassId.E2]
    return list(_SOLUTIONS[ClassId(name)])


# -- strategy sets and matrices ------------------------------------------------


def strategy_set(p: ClassParams) -> List[StrategyParams]:
    """[I, iX, U1(theta1, alpha1, beta1), U2(pi - theta1, alpha2, beta2)]."""
    p.validate()
    u1 = canonicalize(p.theta1, p.alpha1, p.beta1)
    u2 = canonicalize(p.theta2, p.alpha2, p.beta2)
    return [IDENTITY, IX, u1, u2]


def _t_value(p: ClassParams):
    """t = cos^2(theta1 / 2), exact when the angle permits."""
    if p.theta1.is_exact:
        try:
            return (1 + exact_cos(p.theta1.frac)) * _HALF
        except ExactnessError:
            pass
    return (1.0 + math.cos(p.theta1.to_radians())) / 2.0


def _blocks(p: ClassParams):
    """Coefficient 4-vectors (over Gamma^0..Gamma^3) for the four 2x2 blocks."""
    cid = p.class_id
    one, zero = Fraction(1), Fraction(0)
    e = (one, zero, zero, zero)
    if cid in (ClassId.A1, ClassId.A2):
        phase = p.alpha1 if cid is ClassId.A1 else p.alpha2
        a = b = None
        if phase.is_exact:
            try:
                a = normalize((1 + exact_cos(2 * phase.frac)) * _HALF)  # cos^2
                b = normalize((1 + exact_cos(4 * phase.frac)) * _HALF)  # doubled angle
            except ExactnessError:
                a = b = None
        if a is None:
            a = math.cos(phase.to_radians()) ** 2
            b = math.cos(2 * phase.to_radians()) ** 2
        ap, bp = 1 - a, 1 - b
        if cid is ClassId.A1:
            f = (a, zero, zero, ap)
            return e, f, f, (b, zero, zero, bp)
        return e, (zero, ap, a, zero), (zero, a, ap, zero), (bp, zero, zero, b)
    t = _t_value(p)
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
    """The family's block formula evaluated on the game.

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

    def to_json(self) -> dict:
        return {
            "class": self.source.value,
            "direction": "theta1->0" if self.direction == "zero" else "theta1->pi",
            "target": self.target.to_json(),
            "theta1": list(self.thetas),
            "max_abs_diff": list(self.max_abs_diff),
            "bound": list(self.bounds),
            "converged": self.converged,
        }


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

    For each probe theta1 the difference is bounded by 10 * t' (theta1 -> 0)
    or 10 * t (theta1 -> pi), valid for payoff entries spanning at most 5.
    """
    target = limit_target(class_id, direction)
    target_matrix = extension_matrix(target, game)
    probe_thetas, diffs, bounds = [], [], []
    for eps in thetas:
        theta = eps if direction == "zero" else math.pi - eps
        probe = ClassParams(
            class_id,
            Angle.radians(theta),
            *(Angle.pi_frac(k) for k in _DEFAULT_PHASES[class_id]),
        )
        mat = extension_matrix(probe, game)
        t = math.cos(theta / 2.0) ** 2
        bound = 10.0 * (1.0 - t) if direction == "zero" else 10.0 * t
        probe_thetas.append(theta)
        diffs.append(_max_entry_diff(mat, target_matrix))
        bounds.append(bound)
    return LimitCheck(class_id, direction, target, tuple(probe_thetas),
                      tuple(diffs), tuple(bounds))
