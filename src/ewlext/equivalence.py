"""Payoff equivalence of unitary strategies over a finite opponent set.

Equivalence is decided on coefficient vectors, not on one game's payoffs:
equal coefficients against every opponent force equal payoffs for *both*
players in *every* game, which is the notion the invariance criterion needs.
A game-specific comparison would accept spurious equivalences on degenerate
games.

The opponent set is a parameter.  The quotient criterion uses the game's own
finite strategy set; callers wanting the stricter notion can pass
random_su2_opponents(...) instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ToleranceError
from .payoff import CoefficientVector, coefficients, scalar_is_exact
from .su2 import StrategyParams, canonicalize

FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class Field:
    """How two scalars compare: exactly when tol is None, else within tol.

    Every algorithm that compares scalars asks its Field instead of testing
    types or a mode: partition and criterion_holds, strongly_isomorphic, the
    lattice kernel's interning and the equilibrium solver.
    """

    tol: Optional[float] = None

    @staticmethod
    def of(values, mode: str = "auto", tol: float = FLOAT_TOL) -> "Field":
        """Exact unless mode is 'float' or some value is a float."""
        if mode != "float" and all(scalar_is_exact(v) for v in values):
            return EXACT
        return Field(tol)

    @property
    def exact(self) -> bool:
        return self.tol is None

    @property
    def zero(self):
        return Fraction(0) if self.exact else 0.0

    @property
    def one(self):
        return Fraction(1) if self.exact else 1.0

    def convert(self, x):
        """x in this field: a float in a float field; in the exact field
        ints become Fractions, so elimination never divides int by int."""
        if not self.exact:
            return float(x)
        return Fraction(x) if isinstance(x, int) else x

    def is_zero(self, x) -> bool:
        return x == 0 if self.exact else abs(x) <= self.tol

    def exceeds(self, x, y) -> bool:
        """x > y, by more than tol in a float field."""
        return x > y if self.exact else x > y + self.tol

    def pivot(self, values) -> Optional[int]:
        """Index of the pivot among values, None if all are zero: the first
        nonzero one when exact, the largest in magnitude otherwise."""
        if self.exact:
            return next((i for i, v in enumerate(values) if v != 0), None)
        best = max(range(len(values)), key=lambda i: abs(values[i]))
        return None if self.is_zero(values[best]) else best

    def key(self, x):
        """Dedupe key: the value itself, or its index on a grid of step tol."""
        return x if self.exact else round(float(x) / self.tol)

    def rows_equal(self, r1, r2) -> bool:
        """Rows of coefficient vectors equal entry by entry."""
        if self.exact:
            return r1 == r2
        for v1, v2 in zip(r1, r2):
            for x, y in zip(v1, v2):
                if abs(float(x) - float(y)) > self.tol:
                    return False
        return True

    def intern(self, values) -> np.ndarray:
        """Integer ids of values: equal ids mean equal values (exact) or
        values within tol (float).

        Floats are sorted and start a new id at every gap wider than tol.
        That is closeness at tol only if every cluster is much narrower than
        tol and every gap much wider, so ToleranceError is raised unless
        each cluster spans at most tol/100 and each gap is at least 100 tol.
        """
        if self.exact:
            ids: Dict[object, int] = {}
            return np.array([ids.setdefault(v, len(ids)) for v in values],
                            dtype=np.int32)
        tol = self.tol
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ToleranceError("values to intern must be finite")
        order = np.argsort(values)
        ordered = values[order]
        steps = np.diff(ordered)
        breaks = steps > tol
        starts = np.flatnonzero(np.r_[True, breaks])
        ends = np.r_[starts[1:], len(ordered)] - 1
        width = (ordered[ends] - ordered[starts]).max()
        gap = steps[breaks].min(initial=np.inf)
        if width > tol / 100 or gap < 100 * tol:
            raise ToleranceError(
                f"float values do not separate at tol = {tol:g}: "
                f"widest cluster {width:.3g}, narrowest gap {gap:.3g}"
            )
        ids = np.empty(len(values), dtype=np.int32)
        ids[order] = np.r_[0, np.cumsum(breaks)]
        return ids


EXACT = Field()


def random_su2_opponents(count: int, seed: int = 0) -> List[StrategyParams]:
    """Haar-ish random sampled opponents for a stricter equivalence check."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(canonicalize(
            math.acos(rng.uniform(-1.0, 1.0)),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        ))
    return out


def coefficient_row(p: StrategyParams, opponents: Sequence[StrategyParams],
                    side: str = "row", mode: str = "auto") -> Tuple[CoefficientVector, ...]:
    """Coefficient vectors of p against each opponent.

    side 'row' treats p as a player-1 strategy (vectors c(p, o)); side 'col'
    treats it as a player-2 strategy (vectors c(o, p)).
    """
    if side == "row":
        return tuple(coefficients(p, o, mode=mode) for o in opponents)
    if side == "col":
        return tuple(coefficients(o, p, mode=mode) for o in opponents)
    raise ValueError(f"side must be 'row' or 'col', got {side!r}")


def are_equivalent(p: StrategyParams, q: StrategyParams,
                   opponents: Sequence[StrategyParams], side: str = "row",
                   mode: str = "auto", tol: float = FLOAT_TOL) -> bool:
    """True iff p and q yield identical coefficient vectors against every opponent.

    Opponents may be any finite sample; callers wanting a stricter check can
    pass randomly drawn SU(2) elements instead of the game's own strategy set.
    """
    if not opponents:
        raise ValueError("opponents must be nonempty")
    r1 = coefficient_row(p, opponents, side=side, mode=mode)
    r2 = coefficient_row(q, opponents, side=side, mode=mode)
    return Field.of((x for v in r1 + r2 for x in v), mode, tol).rows_equal(r1, r2)


@dataclass(frozen=True)
class EquivClassPartition:
    """Disjoint classes of indices into a strategy list; pairwise equivalent
    within a class, inequivalent across classes."""

    classes: Tuple[Tuple[int, ...], ...]

    def class_of(self, index: int) -> int:
        for k, cls in enumerate(self.classes):
            if index in cls:
                return k
        raise IndexError(index)

    def __len__(self):
        return len(self.classes)


def _group_rows(rows, field: Field) -> Tuple[Tuple[int, ...], ...]:
    """Classes of row indices under field.rows_equal, closed transitively by
    union-find, so near-threshold float rows cannot give an intransitive
    partition."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if field.rows_equal(rows[i], rows[j]):
                parent[find(i)] = find(j)
    groups: Dict[int, List[int]] = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def partition(strategies: Sequence[StrategyParams], side: str = "row",
              mode: str = "auto", tol: float = FLOAT_TOL) -> EquivClassPartition:
    """Partition a finite strategy set into payoff-equivalence classes,
    with the set itself as the opponent universe."""
    if not strategies:
        raise ValueError("strategies must be nonempty")
    rows = [coefficient_row(p, strategies, side=side, mode=mode) for p in strategies]
    field = Field.of((x for row in rows for v in row for x in v), mode, tol)
    return EquivClassPartition(_group_rows(rows, field))
