"""Pure and mixed Nash equilibria of finite bimatrix games.

Support enumeration: for every pair of candidate supports, solve the
indifference equations by fraction-free elimination (`solve_linear`), then
keep solutions that are feasible and undominated off support.  An exact
game is scaled once to integers (`int`, or a `Q2` with d = 1 for sqrt(2)
parts); both tests are decided on integer numerators, and only the pairs
that pass are divided out.  A pair with a strategy conditionally dominated on
the opponent's support is skipped unsolved (Porter, Nudelman and Shoham,
GEB 63, 2008): on 4x4 extensions a quarter of the systems remain to solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError
from .exactnum import (EXACT, Q2, Field, _parts, denominators_lcm, from_parts, integral,
                       normalize)
from .invariance import ExtendedGame
from .payoff import PayoffPair, format_scalar

DEVIATION_TOL = 1e-9
PIVOT_TOL = 1e-12  # float elimination: pivots and zeros at most this vanish
SUM_TOL = 1e-9  # float probabilities must sum to 1 within this


# -- linear systems over an exact field or floats ------------------------------


def solve_linear(a_rows: List[List], rhs: List, field: Field):
    """Solve A x = b by fraction-free Gauss-Jordan elimination (Bareiss 1968).

    After k pivots every entry is a (k+1)-minor of [A | b], so each division
    by the previous pivot is exact, and every pivot row ends with the last
    pivot d on its diagonal: x = numerator / d.  The field's pivot rule and
    zero test apply to entry / d.  Exact rows are scaled to integers (int or
    Q2 with d = 1) first; float rows run the same steps in floats.

    Returns (status, x): status 'unique', 'many' (x is the particular
    solution with free variables zero) or 'none' (x is None).  Fraction, Q2
    or float entries give x in that field; integer entries (int, Q2 with
    d = 1) give x = (numerators, d) with d > 0, so a caller can decide signs
    on integers and divide only the solutions it keeps.
    """
    rows = [list(r) + [v] for r, v in zip(a_rows, rhs)]
    in_ring = field.exact and all(isinstance(v, int) or isinstance(v, Q2) and v.d == 1
                                  for row in rows for v in row)
    if field.exact and not in_ring:
        rows = [integral(row, denominators_lcm(row)) for row in rows]
    divide = operator.floordiv if field.exact else operator.truediv
    m, n = len(rows), len(rows[0]) - 1
    d = 1
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = field.pivot([rows[i][c] for i in range(r, m)], d)
        if piv is None:
            continue
        rows[r], rows[r + piv] = rows[r + piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(m):
            if i != r:
                row, f = rows[i], rows[i][c]
                if field.is_zero(f, d):
                    rows[i] = [divide(p * x, d) for x in row]
                else:
                    rows[i] = [divide(p * x - f * y, d) for x, y in zip(row, top)]
        d = p
        pivots.append(c)
        r += 1
    if any(not field.is_zero(rows[i][n], d) for i in range(r, m)):
        return "none", None
    nums = [0] * n
    for k, c in enumerate(pivots):
        nums[c] = rows[k][n]
    if d < 0:
        nums, d = [-v for v in nums], -d
    status = "unique" if len(pivots) == n else "many"
    if in_ring:
        return status, (nums, d)
    return status, [_value(v, d, field) for v in nums]


# -- report types ----------------------------------------------------------------


@dataclass(frozen=True)
class MixedProfile:
    p1: Tuple
    p2: Tuple


@dataclass(frozen=True)
class Equilibrium:
    profile: MixedProfile
    payoff: PayoffPair
    kind: str  # 'pure' or 'mixed'
    supports: Tuple[Tuple[int, ...], Tuple[int, ...]]

    def to_json(self, labels: Optional[Sequence[str]] = None) -> dict:
        out = {
            "p1": [format_scalar(v) for v in self.profile.p1],
            "p2": [format_scalar(v) for v in self.profile.p2],
            "payoff": [format_scalar(self.payoff.u1), format_scalar(self.payoff.u2)],
            "kind": self.kind,
            "supports": [list(self.supports[0]), list(self.supports[1])],
        }
        if labels is not None:
            out["support_labels"] = [
                [labels[i] for i in self.supports[0]],
                [labels[j] for j in self.supports[1]],
            ]
        return out


@dataclass(frozen=True)
class EquilibriumReport:
    equilibria: Tuple[Equilibrium, ...]
    degenerate: bool = False

    def to_json(self, labels: Optional[Sequence[str]] = None) -> list:
        return [e.to_json(labels) for e in self.equilibria]


# -- equilibrium computations ------------------------------------------------------


def _payoff_grids(g: ExtendedGame, field: Field):
    u1 = [[field.convert(cell.u1) for cell in row] for row in g.payoffs]
    u2 = [[field.convert(cell.u2) for cell in row] for row in g.payoffs]
    return u1, u2


def pure_equilibria(g: ExtendedGame) -> List[Tuple[int, int]]:
    """All cells that are simultaneously a best response for both players.

    Ties are included.  Entries compare exactly, floats without a tolerance.
    """
    u1, u2 = _payoff_grids(g, EXACT)
    n = g.n
    out = []
    for i in range(n):
        for j in range(n):
            col_max = max(u1[k][j] for k in range(n))
            row_max = max(u2[i][k] for k in range(n))
            if not (col_max > u1[i][j] or row_max > u2[i][j]):
                out.append((i, j))
    return out


def best_response_values(g: ExtendedGame, opponent_mix: Sequence, side: str = "row"):
    """Expected payoff of each own pure strategy against the opponent's mix,
    in floats when the game or the mix has a float entry."""
    n = g.n
    if len(opponent_mix) != n:
        raise DimensionMismatchError(
            f"opponent mix has {len(opponent_mix)} entries for a {n}x{n} game"
        )
    field = Field.of_values([*opponent_mix, *(v for row in g.payoffs for p in row for v in p)])
    mix = field.vector(opponent_mix)
    if side == "row":
        return [field.dot(field.vector(c.u1 for c in row), mix) for row in g.payoffs]
    if side == "col":
        return [field.dot(field.vector(c.u2 for c in col), mix) for col in zip(*g.payoffs)]
    raise ValueError(f"side must be 'row' or 'col', got {side!r}")


def _indifference_solution(values, support, other_support, linear, field):
    """Opponent mix over `support` making every strategy in `other_support`
    indifferent, plus that common value; None when infeasible.

    `values[r][c]` is the optimizing player's payoff, rows = their own
    strategies, columns = the mixing opponent's strategies.  The system is
    solved in `linear`; feasibility is judged in `field`.  Returns
    (probabilities, value, d): exact ones are integer numerators over the
    common denominator d > 0, float ones are values and d is 1.
    """
    a_rows = [[values[r][c] for c in support] + [-1] for r in other_support]
    a_rows.append([1] * len(support) + [0])
    rhs = [0] * len(other_support) + [1]
    status, x = solve_linear(a_rows, rhs, linear)
    if status == "none":
        return None, False
    nums, d = x if linear.exact else (x, 1)
    probs, v = nums[:-1], nums[-1]
    degenerate = status == "many"
    if any(field.exceeds(0, p) for p in probs):
        return None, degenerate
    if not field.exact:  # clip rounding noise below zero, then renormalise
        probs = [max(p, 0.0) for p in probs]
        total = sum(probs)
        if abs(total - 1.0) > SUM_TOL:
            return None, degenerate
        probs = [p / total for p in probs]
    return (probs, v, d), degenerate


def mixed_equilibria(g: ExtendedGame, mode: str = "exact") -> EquilibriumReport:
    """All Nash equilibria found by support enumeration.

    Pure equilibria appear as singleton supports.  Support pairs whose
    indifference system is singular but solvable are flagged degenerate;
    one member of the family is sampled, the family is not enumerated.
    Mode 'exact' computes in Q(sqrt(2)) and raises ExactnessError for a
    float entry; mode 'float' eliminates at PIVOT_TOL and judges deviations
    at DEVIATION_TOL.

    A pair (R, C) is skipped unsolved when some r in R is beaten by another
    pure r' on every column of C (or likewise some c in C on R).  Every mix q
    over C gives u1[r'].q > u1[r].q, so if r' is in R the indifference system
    has no feasible solution, and if not, the best-response test rejects the
    pair.  The report is the same (in floats, up to rounding at DEVIATION_TOL).
    """
    n = g.n
    if n > 6:
        raise DimensionMismatchError(
            f"support enumeration is limited to 6 strategies per side, got {n}"
        )
    linear = Field.of((v for row in g.payoffs for cell in row for v in cell),
                      mode, PIVOT_TOL)
    field = linear if linear.exact else Field(DEVIATION_TOL)
    u1, u2 = _payoff_grids(g, linear)
    # exact games run on integers: scale every entry by the lcm of the
    # denominators; the indifference values come out scaled by it as well
    scale, s1, s2 = 1, u1, u2
    if linear.exact:
        scale = denominators_lcm(v for grid in (u1, u2) for row in grid for v in row)
        s1, s2 = ([integral(row, scale) for row in grid] for grid in (u1, u2))

    found = {}
    degenerate = False
    s2_t = [[s2[i][j] for i in range(n)] for j in range(n)]
    all_supports = [
        s for size in range(1, n + 1) for s in combinations(range(n), size)
    ]
    beaten1, beaten2 = ({s: _dominated(grid, s, field) for s in all_supports}
                        for grid in (s1, s2_t))
    for rows_supp in all_supports:
        for cols_supp in all_supports:
            if (beaten1[cols_supp].intersection(rows_supp)
                    or beaten2[rows_supp].intersection(cols_supp)):
                continue
            # player 2's mix over cols_supp makes rows_supp indifferent
            q_sol, q_deg = _indifference_solution(s1, cols_supp, rows_supp, linear, field)
            if q_sol is None:
                continue
            # player 1's mix over rows_supp makes cols_supp indifferent
            p_sol, p_deg = _indifference_solution(s2_t, rows_supp, cols_supp, linear, field)
            if p_sol is None:
                continue
            q_nums, v1, d1 = q_sol
            p_nums, v2, d2 = p_sol
            q_nums, p_nums = _spread(q_nums, cols_supp, n), _spread(p_nums, rows_supp, n)
            # decided on the numerators over d1, d2 > 0, before any division
            if not _best_response_ok(s1, s2, p_nums, q_nums, v1, v2,
                                     rows_supp, cols_supp, field):
                continue
            q_full = [_value(x, d1, field) for x in q_nums]
            p_full = [_value(x, d2, field) for x in p_nums]
            v1, v2 = _value(v1, d1 * scale, field), _value(v2, d2 * scale, field)
            # An underdetermined system that nevertheless produced an
            # equilibrium with full support on the candidate sets evidences
            # a solution family: keep the sample, do not enumerate.
            if (q_deg or p_deg) and all(
                not linear.is_zero(q_full[c]) for c in cols_supp
            ) and all(not linear.is_zero(p_full[r]) for r in rows_supp):
                degenerate = True
            key = tuple(map(field.key, p_full + q_full))
            if key not in found:
                supports = (
                    tuple(i for i in range(n) if not linear.is_zero(p_full[i])),
                    tuple(j for j in range(n) if not linear.is_zero(q_full[j])),
                )
                kind = "pure" if len(supports[0]) == 1 and len(supports[1]) == 1 else "mixed"
                found[key] = Equilibrium(
                    MixedProfile(tuple(p_full), tuple(q_full)),
                    PayoffPair(v1, v2),
                    kind,
                    supports,
                )
    ordered = sorted(
        found.values(),
        key=lambda e: (e.supports, tuple(float(v) for v in e.profile.p1),
                       tuple(float(v) for v in e.profile.p2)),
    )
    degenerate = degenerate or any(
        _excess_best_responses(g, e, field) for e in ordered
    )
    return EquilibriumReport(tuple(ordered), degenerate)


def _dominated(values, support, field) -> frozenset:
    """Rows of values that another row beats on every column in support."""
    return frozenset(r for r, row in enumerate(values) if any(
        all(field.exceeds(other[c], row[c]) for c in support) for other in values))


def _spread(values, support, n):
    """Length-n vector with values on support and zeros elsewhere."""
    out = [0] * n
    for i, x in zip(support, values):
        out[i] = x
    return out


def _value(num, d, field):
    """num / d: a Fraction, or a Q2 when irrational, in the exact field; a
    float otherwise."""
    if not field.exact:
        return num / d
    if isinstance(d, int):
        p, q, e = _parts(num)
        return from_parts(p, q, e * d)
    return normalize(Q2.coerce(num) / d)


def _excess_best_responses(g: ExtendedGame, eq: "Equilibrium", field) -> bool:
    """Degeneracy test: a mix with more pure best responses than its
    opponent's support size signals an equilibrium family."""
    vals1 = best_response_values(g, eq.profile.p2, side="row")
    vals2 = best_response_values(g, eq.profile.p1, side="col")
    m1, m2 = max(vals1), max(vals2)
    br1 = sum(1 for v in vals1 if not field.exceeds(m1, v))
    br2 = sum(1 for v in vals2 if not field.exceeds(m2, v))
    return br1 > len(eq.supports[1]) or br2 > len(eq.supports[0])


def _best_response_ok(u1, u2, p_full, q_full, v1, v2, rows_supp, cols_supp, field):
    n = len(p_full)
    for r in range(n):
        if r not in rows_supp and field.exceeds(
                sum(u1[r][j] * q_full[j] for j in range(n)), v1):
            return False
    for c in range(n):
        if c not in cols_supp and field.exceeds(
                sum(u2[i][c] * p_full[i] for i in range(n)), v2):
            return False
    return True


def verify_equilibrium(g: ExtendedGame, eq: Equilibrium) -> bool:
    """Independent no-profitable-deviation check against all pure strategies."""
    vals1 = best_response_values(g, eq.profile.p2, side="row")
    vals2 = best_response_values(g, eq.profile.p1, side="col")
    u1 = sum(v * p for v, p in zip(vals1, eq.profile.p1))
    u2 = sum(v * p for v, p in zip(vals2, eq.profile.p2))
    return (
        all(float(u1) >= float(v) - DEVIATION_TOL for v in vals1)
        and all(float(u2) >= float(v) - DEVIATION_TOL for v in vals2)
    )
