from fractions import Fraction

import pytest

from ewlext import (
    Bimatrix2,
    ClassId,
    ClassParams,
    DimensionMismatchError,
    ExactnessError,
    ExtendedGame,
    IDENTITY,
    IX,
    IsoVariant,
    PRISONERS_DILEMMA,
    PayoffPair,
    ToleranceError,
    build_extended_game,
    canonicalize,
    criterion_holds,
    iso_variant,
    block_combination_invariant,
    coefficients,
    extension_matrix,
    strategy_set,
    strongly_isomorphic,
    verify_invariance_end_to_end,
)
from ewlext import payoff
from ewlext.exactnum import normalize
from ewlext.extensions import _blocks
from ewlext.invariance import InvarianceReport, VariantWitness
from conftest import random_rational_game

PD = PRISONERS_DILEMMA
B_SET = [
    IDENTITY,
    IX,
    canonicalize("1/2 pi", "1/4 pi", "3/4 pi"),
    canonicalize("1/2 pi", "3/4 pi", "1/4 pi"),
]
BAD_SET = [
    IDENTITY,
    IX,
    canonicalize("1/2 pi", "1/2 pi", 0),
    canonicalize("1/2 pi", 0, 0),
]


def test_iso_variant_examples():
    g1 = iso_variant(PD, IsoVariant.GAMMA1)
    assert g1 == Bimatrix2.from_rows([[(5, 0), (1, 1)], [(3, 3), (0, 5)]])
    assert iso_variant(PD, IsoVariant.GAMMA0) == PD
    g3 = iso_variant(PD, IsoVariant.GAMMA3)
    assert g3 == Bimatrix2.from_rows([[(1, 1), (5, 0)], [(0, 5), (3, 3)]])


def test_iso_variants_form_klein_group():
    for a in IsoVariant:
        for b in IsoVariant:
            c = a.compose(b)
            for game in (PD, iso_variant(PD, IsoVariant.GAMMA2)):
                assert iso_variant(iso_variant(game, a), b) == iso_variant(game, c)
        assert a.compose(a) is IsoVariant.GAMMA0


def test_extended_game_pauli_permutation():
    # A1 at alpha1 = beta2 = pi/2: strategies are I, i sigma_x, i sigma_z, i sigma_y
    strategies = [
        IDENTITY,
        IX,
        canonicalize(0, "1/2 pi", 0),
        canonicalize(1, 0, "1/2 pi"),
    ]
    ext = build_extended_game(PD, strategies)
    d = PD.delta
    want_rows = [
        [d[0][0], d[0][1], d[1][1], d[1][0]],
        [d[1][0], d[1][1], d[0][1], d[0][0]],
        [d[1][1], d[1][0], d[0][0], d[0][1]],
        [d[0][1], d[0][0], d[1][0], d[1][1]],
    ]
    for i in range(4):
        for j in range(4):
            assert ext.payoffs[i][j] == want_rows[i][j]


def test_extended_game_b_class_corner():
    ext = build_extended_game(PD, B_SET)
    avg = Fraction(9, 4)
    for i in (2, 3):
        for j in (2, 3):
            assert ext.payoffs[i][j] == (avg, avg)
    # quantum rows/columns against classical ones are also averaged
    assert ext.payoffs[0][2] == (avg, avg)
    assert ext.payoffs[2][1] == (avg, avg)


def test_strongly_isomorphic_identity_witness():
    ext = build_extended_game(PD, B_SET)
    found = strongly_isomorphic(ext, ext)
    assert found is not None
    rp, cp = found
    assert ext.payoffs[0][0] == ext.payoffs[rp[0]][cp[0]]


def test_strongly_isomorphic_variant_extensions():
    base = build_extended_game(PD, B_SET)
    other = build_extended_game(iso_variant(PD, IsoVariant.GAMMA1), B_SET)
    assert strongly_isomorphic(base, other) is not None


def test_strongly_isomorphic_detects_difference():
    g1 = build_extended_game(PD, [IDENTITY, IX])
    perturbed = Bimatrix2.from_rows([[(3, 3), (0, 5)], [(5, 0), (1, 2)]])
    g2 = build_extended_game(perturbed, [IDENTITY, IX])
    assert strongly_isomorphic(g1, g2) is None


def test_strongly_isomorphic_searches_past_equal_row_and_column_multisets():
    # Cayley tables of Z4 and Z2 x Z2: every row and column holds {0, 1, 2, 3},
    # so the multiset pruning passes, but the groups are not isotopic
    labels = ("a", "b", "c", "d")
    z4 = ExtendedGame(labels, tuple(tuple(((i + j) % 4, 0) for j in range(4))
                                    for i in range(4)))
    klein = ExtendedGame(labels, tuple(tuple((i ^ j, 0) for j in range(4))
                                       for i in range(4)))
    assert strongly_isomorphic(z4, klein) is None
    assert strongly_isomorphic(z4, klein, tol=1e-9) is None
    rp, cp = strongly_isomorphic(z4, z4)
    assert all(z4.payoffs[rp[i]][cp[j]] == z4.payoffs[i][j]
               for i in range(4) for j in range(4))


def test_strongly_isomorphic_dimension_mismatch():
    g1 = build_extended_game(PD, [IDENTITY, IX])
    g2 = build_extended_game(PD, B_SET)
    with pytest.raises(DimensionMismatchError):
        strongly_isomorphic(g1, g2)


def test_strongly_isomorphic_is_equivalence(rng):
    # symmetric witness: inverse permutations; transitive: composition
    g0 = build_extended_game(PD, B_SET)
    g1 = build_extended_game(iso_variant(PD, IsoVariant.GAMMA1), B_SET)
    g2 = build_extended_game(iso_variant(PD, IsoVariant.GAMMA3), B_SET)
    w01 = strongly_isomorphic(g0, g1)
    w12 = strongly_isomorphic(g1, g2)
    assert w01 and w12
    rp = tuple(w12[0][w01[0][i]] for i in range(4))
    cp = tuple(w12[1][w01[1][j]] for j in range(4))
    for i in range(4):
        for j in range(4):
            assert g2.payoffs[rp[i]][cp[j]] == g0.payoffs[i][j]
    inv_rp = tuple(w01[0].index(i) for i in range(4))
    inv_cp = tuple(w01[1].index(j) for j in range(4))
    for i in range(4):
        for j in range(4):
            assert g0.payoffs[inv_rp[i]][inv_cp[j]] == g1.payoffs[i][j]


def test_float_strongly_isomorphic_prunes_and_finds_witnesses():
    import random

    r = random.Random(5)
    n = 6
    grid = tuple(tuple((r.uniform(-5, 5), r.uniform(-5, 5)) for _ in range(n))
                 for _ in range(n))
    g1 = ExtendedGame(tuple(f"s{i}" for i in range(n)), grid)
    rp, cp = (3, 0, 5, 1, 4, 2), (1, 2, 0, 5, 3, 4)
    moved = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u1, u2 = grid[i][j]
            moved[rp[i]][cp[j]] = (u1 + 1e-13, u2)  # rounding noise, far inside tol
    g2 = ExtendedGame(g1.labels, tuple(map(tuple, moved)))
    assert strongly_isomorphic(g1, g2, tol=1e-9) == (rp, cp)
    assert strongly_isomorphic(g1, g2) is None  # exact: the noise counts
    # a non-isomorphic pair of random 6x6 games: the signatures reject it
    # without walking the 6! x 6! permutation pairs
    other = ExtendedGame(g1.labels, tuple(
        tuple((r.uniform(-5, 5), r.uniform(-5, 5)) for _ in range(n)) for _ in range(n)))
    assert strongly_isomorphic(g1, other, tol=1e-9) is None


def test_float_strongly_isomorphic_refuses_payoffs_near_tol():
    # 3 tol apart: neither clearly equal nor clearly distinct at tol
    g1 = ExtendedGame(("a", "b"), (((1.0, 0.0), (2.0, 0.0)), ((3.0, 0.0), (4.0, 0.0))))
    g2 = ExtendedGame(("a", "b"), (((1.0, 0.0), (2.0, 0.0)), ((3.0, 0.0), (4.0 + 3e-9, 0.0))))
    with pytest.raises(ToleranceError):
        strongly_isomorphic(g1, g2, tol=1e-9)
    assert strongly_isomorphic(g1, g2, tol=1e-6) == ((0, 1), (0, 1))
    with pytest.raises(ToleranceError):
        verify_invariance_end_to_end(
            Bimatrix2.from_rows([[(3.0, 3.0), (0.0, 5.0)], [(5.0, 0.0), (1.0, 1.0 + 3e-9)]]),
            B_SET, mode="float", tol=1e-9)


def test_criterion_examples():
    assert criterion_holds(B_SET).holds
    assert not criterion_holds(BAD_SET[:3]).holds  # {I, iX, U(pi/2,pi/2,0)}
    assert criterion_holds([IDENTITY, IX]).holds


def test_criterion_counts_class_sizes():
    # phi sends both copies of I into the class {iX} and iX into {I, I}:
    # every class is hit, but {iX} gets two images and {I, I} one, so no
    # bijection of strategies exists and the PD extension is not invariant
    s = [IDENTITY, IX, IDENTITY, canonicalize("1/2 pi", 0, 0)]
    rep = criterion_holds(s)
    assert rep.classes == ((0, 2), (1,), (3,))
    assert not rep.holds
    assert not verify_invariance_end_to_end(PD, s).all_isomorphic


def test_criterion_report_mapping():
    rep = criterion_holds([IDENTITY, IX])
    assert rep.classes == ((0,), (1,))
    assert rep.image_class == (1, 0)  # phi(I) lands in [iX] and vice versa


def test_end_to_end_examples(rng):
    c_set = [
        IDENTITY,
        IX,
        canonicalize("1/3 pi", "1/4 pi", "1/4 pi"),
        canonicalize("2/3 pi", "3/4 pi", "3/4 pi"),
    ]
    rep = verify_invariance_end_to_end(PD, c_set)
    assert rep.all_isomorphic
    assert all(w.isomorphic for w in rep.witnesses)
    rep = verify_invariance_end_to_end(PD, BAD_SET)
    assert not rep.all_isomorphic
    rep = verify_invariance_end_to_end(random_rational_game(rng), [IDENTITY, IX])
    assert rep.all_isomorphic


def test_criterion_implies_isomorphic_extensions(rng):
    # the quotient criterion, run as an executable theorem on random games
    sets = [
        B_SET,
        [IDENTITY, IX, canonicalize("1/3 pi", 0, 0), canonicalize("2/3 pi", 0, 0)],
        [IDENTITY, IX, canonicalize("1/2 pi", "1/4 pi", "3/4 pi"),
         canonicalize("1/2 pi", "7/4 pi", "5/4 pi")],
    ]
    for strategies in sets:
        assert criterion_holds(strategies).holds
        for _ in range(50):
            game = random_rational_game(rng)
            assert verify_invariance_end_to_end(game, strategies).all_isomorphic


def test_block_combination_invariant_class_layouts():
    one = Fraction(1)
    quarter = Fraction(1, 4)
    e = (one, 0, 0, 0)
    uniform = (quarter, quarter, quarter, quarter)
    assert block_combination_invariant((e, uniform, uniform, uniform))  # B layout
    a, ap = Fraction(1, 3), Fraction(2, 3)
    b, bp = Fraction(1, 9), Fraction(8, 9)
    a2 = (e, (0, ap, a, 0), (0, a, ap, 0), (bp, 0, 0, b))  # A2 layout
    assert block_combination_invariant(a2)


def test_block_combination_invariant_any_layout(rng):
    # the block-combination form is invariant for every coefficient choice
    for _ in range(50):
        blocks = tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(4))
            for _ in range(4)
        )
        assert block_combination_invariant(blocks)


def test_extended_game_json_round_trip():
    ext = build_extended_game(PD, B_SET)
    again = ExtendedGame.from_json(ext.to_json())
    assert again == ext
    assert again.to_json() == ext.to_json()


def test_converse_direction_fuzz(rng):
    # Only the forward direction (criterion implies isomorphic extensions) is
    # established; scan random sets for converse counterexample candidates
    # and record them instead of asserting either way.
    candidates = []
    for _ in range(30):
        strategies = [
            IDENTITY,
            IX,
            canonicalize(Fraction(rng.randrange(5), 4), Fraction(rng.randrange(8), 4),
                         Fraction(rng.randrange(8), 4)),
            canonicalize(Fraction(rng.randrange(5), 4), Fraction(rng.randrange(8), 4),
                         Fraction(rng.randrange(8), 4)),
        ]
        if criterion_holds(strategies, mode="float").holds:
            continue
        invariant_anyway = all(
            verify_invariance_end_to_end(random_rational_game(rng), strategies,
                                         mode="float", tol=1e-9).all_isomorphic
            for _ in range(5)
        )
        if invariant_anyway:
            candidates.append([p.to_json() for p in strategies])
    if candidates:
        print(f"converse counterexample candidates: {candidates}")


# -- the payoff sums against a per-cell reference ------------------------------------

SQRT2_GAME = Bimatrix2.from_rows([[("1+1*sqrt(2)", 2), ("1/3", "-1/2*sqrt(2)")],
                                  [(5, "2-3/4*sqrt(2)"), ("7/2", 0)]])
REFERENCE_GAMES = [
    PD,
    Bimatrix2.from_rows([[(300, 300), (0, 500)], [(500, 0), (100, 100)]]),
    SQRT2_GAME,
]


def reference_sum(coeffs, entries):
    """Python's sum of the products, all in floats if a value is a float
    and else exact, then normalize: the plain route the payoff sums must
    match."""
    values = [*coeffs, *entries]
    convert = float if any(isinstance(v, float) for v in values) else (
        lambda x: Fraction(x) if isinstance(x, int) else x)
    return normalize(sum((convert(k) * convert(v) for k, v in zip(coeffs, entries)),
                         convert(0)))


def reference_extension(game, strategies, mode):
    cells = [p for row in game.delta for p in row]
    grid = []
    for p in strategies:
        row = []
        for q in strategies:
            c = coefficients(p, q, mode=mode)
            row.append(PayoffPair(reference_sum(c, [x.u1 for x in cells]),
                                  reference_sum(c, [x.u2 for x in cells])))
        grid.append(tuple(row))
    return tuple(grid)


def reference_block_matrix(game, blocks):
    """The block formula's grid, a float entry taken at its binary value."""
    game = Bimatrix2(tuple(tuple(PayoffPair(*(Fraction(v) if isinstance(v, float) else v
                                              for v in p)) for p in row)
                           for row in game.delta))
    variants = [iso_variant(game, v) for v in IsoVariant]
    grid = [[None] * 4 for _ in range(4)]
    for b, coeffs in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                grid[2 * (b // 2) + i][2 * (b % 2) + j] = PayoffPair(
                    *(reference_sum(coeffs, [g.delta[i][j][u] for g in variants])
                      for u in (0, 1)))
    return tuple(map(tuple, grid))


def floated(game):
    return Bimatrix2(tuple(tuple(PayoffPair(float(p.u1), float(p.u2)) for p in row)
                           for row in game.delta))


def identical(got, want):
    """Equal grids, cell by cell, with equal types and floats equal bit for bit."""
    def form(v):
        return v.hex() if isinstance(v, float) else (type(v), v)
    return [[[form(v) for v in p] for p in row] for row in got] == \
        [[[form(v) for v in p] for p in row] for row in want]


@pytest.mark.parametrize("cid,theta1", [(cid, None) for cid in ClassId] + [
    (cid, "1/4 pi") for cid in ("C", "D1", "D2", "E1", "E2")])  # sqrt(2) coefficients
def test_payoff_sums_match_the_per_cell_reference(cid, theta1):
    params = ClassParams.create(cid, **({"theta1": theta1} if theta1 else {}))
    strategies = strategy_set(params)
    for game in REFERENCE_GAMES:
        for g in (game, floated(game)):
            want = reference_block_matrix(g, _blocks(params))
            assert identical(extension_matrix(params, g).payoffs, want)
            for mode in ("exact", "float"):
                if mode == "exact" and g is not game:
                    with pytest.raises(ExactnessError):
                        build_extended_game(g, strategies, mode=mode)
                    with pytest.raises(ExactnessError):
                        verify_invariance_end_to_end(g, strategies, mode=mode)
                    continue
                want = reference_extension(g, strategies, mode)
                assert identical(build_extended_game(g, strategies, mode=mode).payoffs, want)
                base = ExtendedGame(("I", "iX", "U1", "U2"), want)
                witnesses = []
                for v in (IsoVariant.GAMMA1, IsoVariant.GAMMA2, IsoVariant.GAMMA3):
                    other = ExtendedGame(base.labels,
                                         reference_extension(iso_variant(g, v), strategies, mode))
                    found = strongly_isomorphic(base, other, tol=1e-9 if mode == "float" else 0.0)
                    witnesses.append(VariantWitness(v.name, found is not None,
                                                    *(found or (None, None))))
                tol = 1e-9 if mode == "float" else 0.0
                assert verify_invariance_end_to_end(g, strategies, mode=mode, tol=tol) == \
                    InvarianceReport(all(w.isomorphic for w in witnesses), tuple(witnesses))


def test_extension_rejects_auto_and_leaves_q_sqrt2_only_in_float_mode():
    # cos(pi/6) is not in Q(sqrt(2)): exact mode raises rather than mix in
    # float pairs, and float mode gives floats in every cell
    strategies = [IDENTITY, IX, canonicalize("1/6 pi", "1/4 pi", 0)]
    for game in REFERENCE_GAMES:
        for mode in ("auto", "flaot"):
            with pytest.raises(ValueError, match="unknown mode"):
                build_extended_game(game, strategies, mode=mode)
        with pytest.raises(ExactnessError):
            build_extended_game(game, strategies)
        got = build_extended_game(game, strategies, mode="float").payoffs
        assert identical(got, reference_extension(game, strategies, "float"))
        assert all(isinstance(v, float) for row in got for p in row for v in p)


def test_an_exact_entry_beyond_float_range_stays_exact():
    game = Bimatrix2.from_rows([[("1e400", 2), (3, 4)], [(5, 6), (7, 8)]])
    assert build_extended_game(game, B_SET).payoffs[0][0].u1 == 10 ** 400


def test_end_to_end_check_computes_one_coefficient_grid(monkeypatch):
    calls = []

    def counted(p, q, mode="exact"):
        calls.append((p, q))
        return coefficients(p, q, mode=mode)

    monkeypatch.setattr(payoff, "coefficients", counted)
    strategies = strategy_set(ClassParams.create("C"))
    assert verify_invariance_end_to_end(PD, strategies).all_isomorphic
    assert len(calls) == 16  # one 4 x 4 grid shared by the game and its three variants
    calls.clear()
    build_extended_game(PD, strategies)
    assert len(calls) == 16
