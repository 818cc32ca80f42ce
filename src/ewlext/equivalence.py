"""Payoff equivalence of unitary strategies over a finite opponent set.

Equivalence is decided on coefficient vectors, not on one game's payoffs:
equal coefficients against every opponent force equal payoffs for *both*
players in *every* game, which is the notion the invariance criterion needs.
A game-specific comparison would accept spurious equivalences on degenerate
games.

Player 1's vectors c(p, o) suffice: c(o, p) is c(p, o) with c01 and c10
swapped, so player 2's side yields the same classes.

Two rows of vectors are equal iff their row_keys are: every slot (opponent x
component) is interned across the rows by Field.intern, the rule that
criterion_holds, strongly_isomorphic and the lattice search also use.  A
float comparison whose values fall between FLOAT_TOL/100 and 100 FLOAT_TOL
raises ToleranceError instead of a verdict that hangs on rounding.

The opponent set is a parameter.  The quotient criterion uses the game's own
finite strategy set; callers wanting a stricter notion can pass a sample of
SU(2) instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .exactnum import Field, check_mode
from .payoff import CoefficientVector, coefficients
from .su2 import StrategyParams


def coefficient_row(p: StrategyParams, opponents: Sequence[StrategyParams],
                    mode: str = "exact") -> Tuple[CoefficientVector, ...]:
    """Coefficient vectors c(p, o) of p against each opponent o."""
    check_mode(mode)
    return tuple(coefficients(p, o, mode=mode) for o in opponents)


def row_keys(rows, mode: str = "exact") -> List[Tuple[int, ...]]:
    """One tuple of ids per row of coefficient vectors: two rows are equal
    iff their keys are.

    Each slot (opponent x component) is interned across the rows by
    Field.of(entries, mode): mode 'exact' raises ExactnessError for a
    float entry, and mode 'float' raises ToleranceError unless the values
    of every slot fall into clusters at most FLOAT_TOL/100 wide and at
    least 100 FLOAT_TOL apart.
    """
    flat = [[x for v in row for x in v] for row in rows]
    field = Field.of((x for row in flat for x in row), mode)
    return list(zip(*(field.intern(slot) for slot in zip(*flat))))


def are_equivalent(p: StrategyParams, q: StrategyParams,
                   opponents: Sequence[StrategyParams],
                   mode: str = "exact") -> bool:
    """True iff p and q yield identical coefficient vectors against every opponent.

    Opponents may be any finite sample; callers wanting a stricter check can
    pass randomly drawn SU(2) elements instead of the game's own strategy set.
    """
    if not opponents:
        raise ValueError("opponents must be nonempty")
    k1, k2 = row_keys([coefficient_row(p, opponents, mode=mode),
                       coefficient_row(q, opponents, mode=mode)], mode)
    return k1 == k2


def _classes(keys) -> Tuple[Tuple[int, ...], ...]:
    """Indices grouped by equal key, each class and the classes in
    ascending order."""
    groups: Dict[object, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return tuple(tuple(g) for g in groups.values())


def partition(strategies: Sequence[StrategyParams],
              mode: str = "exact") -> Tuple[Tuple[int, ...], ...]:
    """Partition a finite strategy set into payoff-equivalence classes,
    with the set itself as the opponent universe: tuples of indices into
    it, each class and the classes in ascending order."""
    if not strategies:
        raise ValueError("strategies must be nonempty")
    rows = [coefficient_row(p, strategies, mode=mode) for p in strategies]
    return _classes(row_keys(rows, mode))
