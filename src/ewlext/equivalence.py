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
from typing import Dict, List, Sequence, Tuple

from .exactnum import EXACT, FLOAT_TOL, Field  # noqa: F401  (EXACT re-exported)
from .payoff import CoefficientVector, coefficients
from .su2 import StrategyParams, canonicalize


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
              mode: str = "auto") -> EquivClassPartition:
    """Partition a finite strategy set into payoff-equivalence classes,
    with the set itself as the opponent universe."""
    if not strategies:
        raise ValueError("strategies must be nonempty")
    rows = [coefficient_row(p, strategies, side=side, mode=mode) for p in strategies]
    field = Field.of((x for row in rows for v in row for x in v), mode)
    return EquivClassPartition(_group_rows(rows, field))
