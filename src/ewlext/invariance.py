"""Isomorphic variants of a 2x2 game, strong isomorphism of finite games,
and the executable form of the invariance criterion for a strategy set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .equivalence import _classes, coefficient_row, row_keys
from .errors import DimensionMismatchError
from .exactnum import EXACT, Field, exact_value
from .payoff import (Bimatrix2, PayoffPair, coefficient_grid, format_grid, format_scalar,
                     parse_grid, payoff_grid)
from .su2 import StrategyParams, phi


class IsoVariant(Enum):
    """The four isomorphic variants of a 2x2 bimatrix (a Klein four-group)."""

    GAMMA0 = 0  # identity
    GAMMA1 = 1  # rows swapped
    GAMMA2 = 2  # columns swapped
    GAMMA3 = 3  # rows and columns swapped

    def compose(self, other: "IsoVariant") -> "IsoVariant":
        return IsoVariant(self.value ^ other.value)


def iso_variant(game: Bimatrix2, v: IsoVariant) -> Bimatrix2:
    d = game.delta
    if v is IsoVariant.GAMMA0:
        return game
    if v is IsoVariant.GAMMA1:
        return Bimatrix2((d[1], d[0]))
    if v is IsoVariant.GAMMA2:
        return Bimatrix2(((d[0][1], d[0][0]), (d[1][1], d[1][0])))
    return Bimatrix2(((d[1][1], d[1][0]), (d[0][1], d[0][0])))


@dataclass(frozen=True)
class ExtendedGame:
    """An n x n bimatrix with strategy labels shared by both players."""

    labels: Tuple[str, ...]
    payoffs: Tuple[Tuple[PayoffPair, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise ValueError("a game needs at least one strategy")
        if not all(isinstance(label, str) for label in self.labels):
            raise TypeError("strategy labels must be strings")
        if len(set(self.labels)) != n:
            raise ValueError("strategy labels must be distinct")
        if len(self.payoffs) != n or any(len(r) != n for r in self.payoffs):
            raise DimensionMismatchError("payoff grid must be square and match labels")
        if any(not isinstance(p, PayoffPair) for row in self.payoffs for p in row):
            coerced = tuple(
                tuple(PayoffPair(*p) for p in row) for row in self.payoffs
            )
            object.__setattr__(self, "payoffs", coerced)

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "payoffs": format_grid(self.payoffs),
        }

    @staticmethod
    def from_json(obj) -> "ExtendedGame":
        if not isinstance(obj["labels"], list):
            raise TypeError("'labels' must be a list of strings")
        return ExtendedGame(tuple(obj["labels"]), parse_grid(obj["payoffs"]))

    def pretty(self) -> str:
        cells = [[f"({format_scalar(p.u1)}, {format_scalar(p.u2)})" for p in row]
                 for row in self.payoffs]
        width = max(len(c) for row in cells for c in row)
        lwidth = max(len(l) for l in self.labels)
        head = " " * (lwidth + 2) + "  ".join(l.rjust(width) for l in self.labels)
        lines = [head]
        for label, row in zip(self.labels, cells):
            lines.append(label.ljust(lwidth + 2) + "  ".join(c.rjust(width) for c in row))
        return "\n".join(lines)


def build_extended_game(game: Bimatrix2, strategies: Sequence[StrategyParams],
                        mode: str = "exact") -> ExtendedGame:
    """Payoff bimatrix of the quantized game over a finite strategy set, all
    exact or all float by mode (see coefficients and payoff_grid)."""
    return _extension(game, coefficient_grid(strategies, mode=mode))


def _extension(game: Bimatrix2, grid) -> ExtendedGame:
    """The extended game of a coefficient grid (see coefficient_grid)."""
    if not grid:
        raise ValueError("strategies must be nonempty")
    return ExtendedGame(default_labels(len(grid)), payoff_grid(game, grid))


def default_labels(n: int) -> Tuple[str, ...]:
    if n == 4:
        return ("I", "iX", "U1", "U2")
    if n == 2:
        return ("I", "iX")
    return tuple(f"s{i}" for i in range(n))


# -- strong isomorphism -------------------------------------------------------


def strongly_isomorphic(g1: ExtendedGame, g2: ExtendedGame,
                        tol: float = 0.0) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Search for per-player bijections making all payoffs agree.

    Returns (row_perm, col_perm) with
    g2.payoffs[row_perm[i]][col_perm[j]] == g1.payoffs[i][j] for all cells,
    or None.  Player exchange is not searched: the row/column/double swap
    variants never exchange players.  Exhaustive over n! x n! permutation
    pairs with multiset pruning; exactness matters more than speed at n <= 6.

    With tol > 0 payoffs agree within tol: the payoffs of both games are
    interned by Field(tol).intern, which raises ToleranceError when some
    two payoffs differ by more than tol/100 and less than 100 tol, rather
    than give a verdict that hangs on rounding.
    """
    n = g1.n
    if g2.n != n:
        raise DimensionMismatchError(f"cannot compare {n}x{n} with {g2.n}x{g2.n}")
    field = Field(tol) if tol > 0.0 else EXACT
    ids = field.intern([v for g in (g1, g2) for row in g.payoffs for p in row for v in p])
    size = max(ids) + 1
    cells = [x * size + y for x, y in zip(ids[::2], ids[1::2])]  # one id per cell
    rows = [cells[k:k + n] for k in range(0, 2 * n * n, n)]
    a, b = rows[:n], rows[n:]

    # Rows can only map to rows with the same payoff multiset (and likewise
    # for columns); this prunes most of the n! candidates.
    def signatures(grid):
        return ([tuple(sorted(row)) for row in grid],
                [tuple(sorted(col)) for col in zip(*grid)])

    (sig1r, sig1c), (sig2r, sig2c) = signatures(a), signatures(b)
    if sorted(sig1r) != sorted(sig2r) or sorted(sig1c) != sorted(sig2c):
        return None
    row_candidates = [[k for k in range(n) if sig2r[k] == s] for s in sig1r]
    col_candidates = [[k for k in range(n) if sig2c[k] == s] for s in sig1c]
    for rp in permutations(range(n)):
        if any(rp[i] not in row_candidates[i] for i in range(n)):
            continue
        for cp in permutations(range(n)):
            if any(cp[j] not in col_candidates[j] for j in range(n)):
                continue
            if all(b[rp[i]][cp[j]] == a[i][j] for i in range(n) for j in range(n)):
                return rp, cp
    return None


# -- the invariance criterion -------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    holds: bool
    classes: Tuple[Tuple[int, ...], ...]
    image_class: Tuple[int, ...]  # class index hit by phi of each strategy, -1 if none


def criterion_holds(strategies: Sequence[StrategyParams],
                    mode: str = "exact") -> CriterionReport:
    """Executable form of the quotient criterion: the family of equivalence
    classes of S must coincide with the family of classes of phi(S).

    Every class K of S must receive exactly |K| phi images, equivalence
    taken with opponents = S.  Then every image lands in some class, and
    some permutation sigma of S has phi(s_i) equivalent to s_sigma(i) for
    every i: a bijection of strategies, not only of classes.  Each
    coefficient row is computed exactly once and compared by its row_keys.
    """
    n = len(strategies)
    keys = row_keys([coefficient_row(s, strategies, mode=mode)
                     for s in [*strategies, *map(phi, strategies)]], mode)
    classes = _classes(keys[:n])
    class_of = {keys[cls[0]]: k for k, cls in enumerate(classes)}
    image = tuple(class_of.get(key, -1) for key in keys[n:])
    holds = all(image.count(k) == len(cls) for k, cls in enumerate(classes))
    return CriterionReport(holds, classes, image)


@dataclass(frozen=True)
class VariantWitness:
    variant: str
    isomorphic: bool
    row_perm: Optional[Tuple[int, ...]]
    col_perm: Optional[Tuple[int, ...]]

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "isomorphic": self.isomorphic,
            "row_perm": None if self.row_perm is None else list(self.row_perm),
            "col_perm": None if self.col_perm is None else list(self.col_perm),
        }


@dataclass(frozen=True)
class InvarianceReport:
    all_isomorphic: bool
    witnesses: Tuple[VariantWitness, ...]

    def to_json(self) -> list:
        return [w.to_json() for w in self.witnesses]


def verify_invariance_end_to_end(game: Bimatrix2,
                                 strategies: Sequence[StrategyParams],
                                 mode: str = "exact",
                                 tol: float = 0.0) -> InvarianceReport:
    """Build the extension of the game and of each swapped variant over the
    same strategy set, and search for strong-isomorphism witnesses.

    A variant only permutes the game's four cells, so all four extensions
    are weighted sums over one coefficient grid, computed once.
    """
    grid = coefficient_grid(strategies, mode=mode)
    base = _extension(game, grid)
    witnesses = []
    ok = True
    for v in (IsoVariant.GAMMA1, IsoVariant.GAMMA2, IsoVariant.GAMMA3):
        other = _extension(iso_variant(game, v), grid)
        found = strongly_isomorphic(base, other, tol=tol)
        if found is None:
            ok = False
            witnesses.append(VariantWitness(v.name, False, None, None))
        else:
            witnesses.append(VariantWitness(v.name, True, found[0], found[1]))
    return InvarianceReport(ok, tuple(witnesses))


# -- block-combination invariance ----------------------------------------------

# Witness relabeling per transformation: swap the two classical strategies
# and the two added strategies, on the side(s) the transformation touches.
_SWAP = (1, 0, 3, 2)
_IDENT = (0, 1, 2, 3)
_VARIANT_WITNESS = {
    IsoVariant.GAMMA1: (_SWAP, _IDENT),
    IsoVariant.GAMMA2: (_IDENT, _SWAP),
    IsoVariant.GAMMA3: (_SWAP, _SWAP),
}


def _block_matrix(game: Bimatrix2, blocks) -> List[List[PayoffPair]]:
    """4x4 grid whose 2x2 blocks are linear combinations of the variants.

    blocks = (e, f, g, h): coefficient 4-vectors for the top-left, top-right,
    bottom-left and bottom-right blocks, weighting Gamma^0..Gamma^3.  The
    sums are exact, a float coefficient or entry taken at its binary value.
    """
    variants = [iso_variant(game, v) for v in IsoVariant]
    # cells[i][j][u]: player u's entry in cell (i, j) of Gamma^0..Gamma^3
    cells = [[[EXACT.vector(exact_value(g.delta[i][j][u]) for g in variants) for u in (0, 1)]
              for j in range(2)] for i in range(2)]
    grid = [[None] * 4 for _ in range(4)]
    for b, coeffs in enumerate(blocks):
        r0, c0 = 2 * (b // 2), 2 * (b % 2)
        coeffs = EXACT.vector(map(exact_value, coeffs))
        for i in range(2):
            for j in range(2):
                u1, u2 = cells[i][j]
                grid[r0 + i][c0 + j] = PayoffPair(EXACT.dot(coeffs, u1), EXACT.dot(coeffs, u2))
    return grid


GENERIC_GAME = Bimatrix2.from_rows(
    [[(1, 2), (3, 4)], [(5, 6), (7, 8)]]  # eight distinct values, no coincidences
)


def block_combination_invariant(blocks, game: Bimatrix2 = GENERIC_GAME) -> bool:
    """Check that a block-combination matrix is invariant under all three
    game transformations via the fixed witness relabelings above.

    For each transformation the matrix is rebuilt from the transformed game
    and compared, after applying the witness permutation, with the original.
    Holds for every coefficient layout; the check guards the construction
    used by all extension classes.
    """
    blocks = tuple(
        tuple(c if isinstance(c, float) else Fraction(c) for c in vec)
        for vec in blocks
    )
    base = _block_matrix(game, blocks)
    for v in (IsoVariant.GAMMA1, IsoVariant.GAMMA2, IsoVariant.GAMMA3):
        transformed = _block_matrix(iso_variant(game, v), blocks)
        rp, cp = _VARIANT_WITNESS[v]
        for i in range(4):
            for j in range(4):
                if transformed[rp[i]][cp[j]] != base[i][j]:
                    return False
    return True
