"""Pure and mixed Nash equilibria of finite bimatrix games.

Support enumeration: for every pair of candidate supports, solve the
indifference equations by fraction-free elimination (`solve_linear`), then
keep solutions that are feasible and undominated off support.  The game is
taken exactly, a float entry at its binary value, and scaled once to
integers (`int`, or a `Q2` with d = 1 for sqrt(2) parts); both tests are
decided on integer numerators, and only the pairs that pass are divided out.
Elimination runs on ints, or for a system with a sqrt(2) part on pairs of
int lists, so no `Q2` is built inside the loop.
Each distinct indifference system is solved once per call (memoised on its
rows' payoff ids), and its off-support test, divided profile and dedupe key
are worked out once.  A pair with a strategy conditionally dominated on the
opponent's support is skipped unsolved (Porter, Nudelman and Shoham, GEB 63,
2008): on 4x4 extensions a quarter of the systems remain to solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError
from .exactnum import (EXACT, Q2, Field, _make, _parts, _sign, denominators_lcm, exact_value,
                       from_parts, integral, normalize)
from .invariance import ExtendedGame
from .payoff import PayoffPair, format_scalar

DEVIATION_TOL = 1e-9


# -- exact linear systems --------------------------------------------------------


def solve_linear(a_rows: List[List], rhs: List):
    """Solve A x = b by fraction-free Gauss-Jordan elimination (Bareiss 1968).

    After k pivots every entry is a (k+1)-minor of [A | b], so each division
    by the previous pivot is exact, and every pivot row ends with the last
    pivot d on its diagonal: x = numerator / d.  Entries are exact scalars;
    rows are scaled to integers first: rational ones run on ints, ones with
    a sqrt(2) part on int pairs (see _eliminate_pairs).  Each column's pivot
    is its first nonzero entry.

    Returns (status, x): status 'unique', 'many' (x is the particular
    solution with free variables zero) or 'none' (x is None).  Fraction or
    Q2 entries give x in normalize's types; integer entries (int, Q2 with
    d = 1) give x = (numerators, d) with d > 0, each an int or, when it has
    a sqrt(2) part, a Q2 with d = 1, so a caller can decide signs on
    integers and divide only the solutions it keeps.
    """
    rows = [list(r) + [v] for r, v in zip(a_rows, rhs)]
    n = len(rows[0]) - 1
    in_ring = all(isinstance(v, int) or isinstance(v, Q2) and v.d == 1
                  for row in rows for v in row)
    if not in_ring:
        rows = [integral(row, denominators_lcm(row)) for row in rows]
    if any(isinstance(v, Q2) and v.q for row in rows for v in row):
        parts = [[_parts(v) for v in row] for row in rows]
        status, nums, d = _eliminate_pairs([[p for p, _, _ in row] for row in parts],
                                           [[q for _, q, _ in row] for row in parts], n)
    else:
        status, nums, d = _eliminate(rows, n)
    if status == "none":
        return "none", None
    if in_ring:
        return status, (nums, d)
    return status, [_value(v, d) for v in nums]


def _eliminate(rows, n):
    """Bareiss steps on integer rows of [A | b] (ints, or Q2s with d = 1):
    (status, numerators, d) with d > 0, numerators None for 'none'."""
    m = len(rows)
    d = 1
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(m):
            if i != r:
                row, f = rows[i], rows[i][c]
                if f == 0:
                    rows[i] = [p * x // d for x in row]
                else:
                    rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(c)
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        return "none", None, d
    nums = [0] * n
    for k, c in enumerate(pivots):
        nums[c] = rows[k][n]
    if d < 0:
        nums, d = [-v for v in nums], -d
    return ("unique" if len(pivots) == n else "many"), nums, d


def _eliminate_pairs(ps, qs, n):
    """_eliminate in Z[sqrt(2)], row i held as its rational parts ps[i] and
    sqrt(2) parts qs[i] (int lists).

    A step maps x to (p x - f y) / d for pivot p, factor f and previous
    pivot d.  For d = a + b sqrt(2) with b != 0 that is (P x - F y) / N with
    P = p conj(d), F = f conj(d) and N = a^2 - 2 b^2; for rational d, P = p,
    F = f and N = d.  Both parts must divide by N, else ArithmeticError.
    Q2 objects are built only for the returned numerators and d.
    """
    m = len(ps)
    da, db = 1, 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if ps[i][c] or qs[i][c]), None)
        if piv is None:
            continue
        ps[r], ps[piv], qs[r], qs[piv] = ps[piv], ps[r], qs[piv], qs[r]
        tp, tq = ps[r], qs[r]
        pa, pb = tp[c], tq[c]
        aa, ab = _times_conjugate(pa, pb, da, db)
        ab2 = 2 * ab
        norm = da * da - 2 * db * db if db else da
        for i in range(m):
            if i == r:
                continue
            xp, xq = ps[i], qs[i]
            fa, fb = _times_conjugate(xp[c], xq[c], da, db)
            fb2 = 2 * fb
            new_p = [aa * x + ab2 * y - fa * u - fb2 * w
                     for x, y, u, w in zip(xp, xq, tp, tq)]
            new_q = [aa * y + ab * x - fa * w - fb * u
                     for x, y, u, w in zip(xp, xq, tp, tq)]
            if norm != 1:
                new_p, new_q = _exact_quotients(new_p, norm), _exact_quotients(new_q, norm)
            ps[i], qs[i] = new_p, new_q
        da, db = pa, pb
        pivots.append(c)
        r += 1
    if any(ps[i][n] or qs[i][n] for i in range(r, m)):
        return "none", None, None
    sign = _sign(da, db)
    nums = [0] * n
    for k, c in enumerate(pivots):
        nums[c] = _ring(sign * ps[k][n], sign * qs[k][n])
    return ("unique" if len(pivots) == n else "many"), nums, _ring(sign * da, sign * db)


def _times_conjugate(a, b, da, db):
    """(a + b sqrt(2)) times the conjugate da - db sqrt(2)."""
    return (a * da - 2 * b * db, b * da - a * db) if db else (a, b)


def _exact_quotients(values, k):
    """values // k, ArithmeticError unless k divides each one."""
    out = []
    for v in values:
        x, rest = divmod(v, k)
        if rest:
            raise ArithmeticError(f"{v} is not divisible by {k}")
        out.append(x)
    return out


def _ring(p, q):
    """p + q sqrt(2): an int when q = 0, else a Q2 with d = 1."""
    return _make(p, q, 1) if q else p


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


def _payoff_grids(g: ExtendedGame):
    """Both players' payoffs, each entry at its exact value (exact_value)."""
    return tuple([[exact_value(cell[k]) for cell in row] for row in g.payoffs] for k in (0, 1))


def pure_equilibria(g: ExtendedGame) -> List[Tuple[int, int]]:
    """All cells that are simultaneously a best response for both players.

    Ties are included.  Entries compare exactly, a float at its binary value.
    """
    u1, u2 = _payoff_grids(g)
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


def _indifference_solution(values, support, other_support):
    """Opponent mix over `support` making every strategy in `other_support`
    indifferent, plus that common value; None when infeasible.

    `values[r][c]` is the optimizing player's payoff, an integer, rows =
    their own strategies, columns = the mixing opponent's strategies.
    Returns (probabilities, value, d): integer numerators over the common
    denominator d > 0.
    """
    a_rows = [[values[r][c] for c in support] + [-1] for r in other_support]
    a_rows.append([1] * len(support) + [0])
    rhs = [0] * len(other_support) + [1]
    status, x = solve_linear(a_rows, rhs)
    if status == "none":
        return None, False
    nums, d = x
    probs, v = nums[:-1], nums[-1]
    degenerate = status == "many"
    if any(p < 0 for p in probs):
        return None, degenerate
    return (probs, v, d), degenerate


def mixed_equilibria(g: ExtendedGame, mode: str = "exact") -> EquilibriumReport:
    """All Nash equilibria found by support enumeration.

    Pure equilibria appear as singleton supports.  Support pairs whose
    indifference system is singular but solvable are flagged degenerate;
    one member of the family is sampled, the family is not enumerated.
    The enumeration is exact, in Q(sqrt(2)).  Mode 'exact' raises
    ExactnessError for a float entry.  Mode 'float' takes each float entry
    at its binary value (DomainError for NaN or inf) and converts the
    report's profiles and payoffs by float() once, at the output: it is the
    exact report of the game as the floats give it, in the same order, so a
    tie the input's rounding broke (0.1 + 0.2 against 0.3) stays broken.

    A pair (R, C) is skipped unsolved when some r in R is beaten by another
    pure r' on every column of C (or likewise some c in C on R).  Every mix q
    over C gives u1[r'].q > u1[r].q, so if r' is in R the indifference system
    has no feasible solution, and if not, the best-response test rejects the
    pair.  The report is the same.

    Each distinct indifference system is solved once per call: systems are
    keyed by side, support and the set of their equation rows, each row the
    ids of its payoffs.  The solution depends on that set only (pivot
    columns are where the rank rises, free variables are 0, and two row
    orders' numerators and d differ by a positive factor, which moves no
    sign test and no divided value).  A solution's off-support best replies,
    its divided profile and its dedupe key are also worked out once.
    """
    n = g.n
    if n > 6:
        raise DimensionMismatchError(
            f"support enumeration is limited to 6 strategies per side, got {n}"
        )
    Field.of((v for row in g.payoffs for cell in row for v in cell), mode)
    u1, u2 = _payoff_grids(g)
    # run on integers: scale every entry by the lcm of the denominators; the
    # indifference values come out scaled by it as well
    scale = denominators_lcm(v for grid in (u1, u2) for row in grid for v in row)
    s1, s2 = ([integral(row, scale) for row in grid] for grid in (u1, u2))
    s2_t = [list(col) for col in zip(*s2)]
    grids = (s1, s2_t)  # rows: the optimizing player's strategies
    all_supports = [
        s for size in range(1, n + 1) for s in combinations(range(n), size)
    ]
    # per grid and support, each row's payoff ids on the support's columns
    cut = []
    for grid in grids:
        ids = EXACT.intern(v for row in grid for v in row)
        cut.append({s: [tuple(ids[r * n + c] for c in s) for r in range(n)]
                    for s in all_supports})
    vectors = [[EXACT.vector(row) for row in grid] for grid in grids]
    memo, keys = {}, {}

    def solved(side, support, other):
        key = (side, support, frozenset(cut[side][support][r] for r in other))
        if key not in memo:
            sol, deg = _indifference_solution(grids[side], support, other)
            memo[key] = None if sol is None else _Mix(sol, deg, support, vectors[side])
        return memo[key]

    found = {}
    degenerate = False
    beaten1, beaten2 = (
        {s: _dominated(masks, s) for s in all_supports}
        for masks in map(_beat_masks, grids))
    for rows_supp in all_supports:
        for cols_supp in all_supports:
            if (beaten1[cols_supp].intersection(rows_supp)
                    or beaten2[rows_supp].intersection(cols_supp)):
                continue
            # player 2's mix over cols_supp makes rows_supp indifferent, and
            # no row off rows_supp does better against it
            q = solved(0, cols_supp, rows_supp)
            if q is None or not q.better.issubset(rows_supp):
                continue
            # player 1's mix over rows_supp, likewise for the columns
            p = solved(1, rows_supp, cols_supp)
            if p is None or not p.better.issubset(cols_supp):
                continue
            q_full, v1, q_key, q_nonzero, q_spans = q.divided(scale, keys)
            p_full, v2, p_key, p_nonzero, p_spans = p.divided(scale, keys)
            # An underdetermined system that nevertheless produced an
            # equilibrium with full support on the candidate sets evidences
            # a solution family: keep the sample, do not enumerate.
            if (q.degenerate or p.degenerate) and q_spans and p_spans:
                degenerate = True
            if (p_key, q_key) not in found:
                supports = (p_nonzero, q_nonzero)
                kind = "pure" if len(supports[0]) == 1 and len(supports[1]) == 1 else "mixed"
                eq = Equilibrium(MixedProfile(p_full, q_full), PayoffPair(v1, v2),
                                 kind, supports)
                found[p_key, q_key] = eq
                degenerate = degenerate or _excess_best_responses(eq, p, q)
    ordered = sorted(
        found.values(),
        key=lambda e: (e.supports, tuple(float(v) for v in e.profile.p1),
                       tuple(float(v) for v in e.profile.p2)),
    )
    if mode == "float":
        ordered = map(_floated, ordered)
    return EquilibriumReport(tuple(ordered), degenerate)


def _floated(eq: Equilibrium) -> Equilibrium:
    """eq with every probability and payoff converted by float()."""
    p1, p2 = (tuple(map(float, p)) for p in (eq.profile.p1, eq.profile.p2))
    return Equilibrium(MixedProfile(p1, p2), PayoffPair(*map(float, eq.payoff)),
                       eq.kind, eq.supports)


class _Mix:
    """A feasible solution of one indifference system: the mixing player's
    numerators over n strategies, the value v over d > 0, and the facts
    every support pair posing that system reads.

    `better` holds the optimizing player's strategies that beat v against
    the mix; `best` counts their pure best responses to it.  Both come from
    the scaled grid's rows (`vectors`, as EXACT.vector gives them).
    """

    def __init__(self, sol, degenerate, support, vectors):
        nums, self.v, self.d = sol
        self.nums = _spread(nums, support, len(vectors))
        self.support, self.degenerate = support, degenerate
        pays = _payoffs(vectors, self.nums)
        self.better = frozenset(i for i, x in enumerate(pays) if x > self.v)
        self.best = pays.count(max(pays))
        self._divided = None

    def divided(self, scale, keys):
        """(profile, value, dedupe id, nonzero strategies, whether the
        support is all nonzero), divided out on first use; `keys` interns
        the profiles."""
        if self._divided is None:
            full = tuple(_value(x, self.d) for x in self.nums)
            nonzero = tuple(i for i, x in enumerate(full) if x != 0)
            self._divided = (full, _value(self.v, self.d * scale),
                             keys.setdefault(full, len(keys)),
                             nonzero, set(self.support).issubset(nonzero))
        return self._divided


def _payoffs(vectors, mix):
    """Each grid row (as EXACT.vector gives it) times the mix of int
    numerators, as an int or a Q2 with d = 1."""
    (mp, mq, _), mul = EXACT.vector(mix), operator.mul
    return [_ring(sum(map(mul, rp, mp)) + 2 * sum(map(mul, rq, mq)),
                  sum(map(mul, rp, mq)) + sum(map(mul, rq, mp))) for rp, rq, _ in vectors]


def _beat_masks(values):
    """masks[r][o]: bitmask of the columns on which row o beats row r."""
    return [[sum(1 << c for c, (x, y) in enumerate(zip(other, row)) if x > y)
             for other in values] for row in values]


def _dominated(masks, support) -> frozenset:
    """Rows that another row beats on every column in support."""
    want = sum(1 << c for c in support)
    return frozenset(r for r, row in enumerate(masks) if any(m & want == want for m in row))


def _spread(values, support, n):
    """Length-n vector with values on support and zeros elsewhere."""
    out = [0] * n
    for i, x in zip(support, values):
        out[i] = x
    return out


def _value(num, d):
    """num / d in normalize's types: a Fraction, or a Q2 when irrational."""
    if isinstance(d, int):
        p, q, e = _parts(num)
        return from_parts(p, q, e * d)
    return normalize(Q2.coerce(num) / d)


def _excess_best_responses(eq: Equilibrium, p: _Mix, q: _Mix) -> bool:
    """Degeneracy test: a mix with more pure best responses than its
    opponent's support size signals an equilibrium family."""
    return q.best > len(eq.supports[1]) or p.best > len(eq.supports[0])


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
