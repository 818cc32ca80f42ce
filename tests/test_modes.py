"""The two arithmetic modes of every moded function.

Mode 'exact' returns Fraction and Q2 values only, and raises ExactnessError
where a value would leave Q(sqrt(2)); mode 'float' is the only way to get
floats from exact inputs; any other mode raises ValueError.
"""

import contextlib
import dataclasses
import io
from fractions import Fraction

import pytest

from ewlext import (
    Bimatrix2,
    ClassParams,
    ExactnessError,
    LatticeSpec,
    PRISONERS_DILEMMA,
    Q2,
    build_extended_game,
    canonicalize,
    criterion_holds,
    invariance,
    mixed_equilibria,
    partition,
    search_solutions,
    strategy_set,
    verify_invariance_end_to_end,
)
from ewlext.cli import main
from ewlext.equivalence import are_equivalent, coefficient_row, row_keys
from ewlext.exactnum import Field
from ewlext.payoff import coefficient_grid, coefficients, payoff_closed_form

PD = PRISONERS_DILEMMA
LATTICE = strategy_set(ClassParams.create("C", theta1="1/4 pi"))  # sqrt(2) entries
SIXTH = [*LATTICE[:3], canonicalize("1/6 pi", "1/4 pi", 0)]  # cos(pi/6) leaves Q(sqrt(2))
FLOAT_PD = Bimatrix2.from_rows([[(3, 3), (0, 5)], [(5, 0), (1, 1.5)]])


def moded_calls(game, strategies):
    """Each of the 13 moded functions as a call taking the mode, on inputs
    built in exact mode, so that only the function itself sees the mode."""
    p, q = strategies[2], strategies[3]
    entries = [v for row in game.delta for cell in row for v in cell]
    return {
        "coefficients": lambda mode: coefficients(p, q, mode=mode),
        "coefficient_grid": lambda mode: coefficient_grid(strategies, mode=mode),
        "payoff_closed_form": lambda mode: payoff_closed_form(game, p, q, mode=mode),
        "Field.of": lambda mode: Field.of(entries, mode),
        "coefficient_row": lambda mode: coefficient_row(p, strategies, mode=mode),
        "row_keys": lambda mode: row_keys([coefficient_row(s, strategies)
                                           for s in strategies], mode),
        "are_equivalent": lambda mode: are_equivalent(p, q, strategies, mode=mode),
        "partition": lambda mode: partition(strategies, mode=mode),
        "build_extended_game": lambda mode: build_extended_game(game, strategies, mode=mode),
        "criterion_holds": lambda mode: criterion_holds(strategies, mode=mode),
        "verify_invariance_end_to_end":
            lambda mode: verify_invariance_end_to_end(game, strategies, mode=mode),
        "mixed_equilibria":
            lambda mode: mixed_equilibria(build_extended_game(game, strategies), mode=mode),
        "search_solutions": lambda mode: search_solutions(LatticeSpec.create([q.theta]),
                                                          mode=mode),
    }


def leaves(x):
    """Every scalar inside a result: dataclass fields and tuple items, recursively."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from leaves(item)
    else:
        yield x


def test_exact_mode_returns_no_float_and_raises_outside_q_sqrt2(monkeypatch):
    games = []  # every game the end-to-end check compares

    def spy(g1, g2, tol=0.0, real=invariance.strongly_isomorphic):
        games.extend((g1, g2))
        return real(g1, g2, tol)

    monkeypatch.setattr(invariance, "strongly_isomorphic", spy)
    for name, call in moded_calls(PD, LATTICE).items():
        for mode in ("auto", "flaot", None):
            with pytest.raises(ValueError, match="unknown mode"):
                call(mode)
        values = list(leaves(call("exact")))
        assert not any(isinstance(v, float) for v in values), name
        if name in ("coefficients", "coefficient_grid", "payoff_closed_form",
                    "build_extended_game", "mixed_equilibria"):
            assert any(isinstance(v, Q2) for v in values), name  # the sqrt(2) parts
    assert len(games) == 6
    assert all(isinstance(v, (Fraction, Q2)) for v in leaves([g.payoffs for g in games]))
    got = build_extended_game(PD, LATTICE, mode="float").payoffs
    assert all(isinstance(v, float) for v in leaves(got))

    # a pi/6 strategy: cos(pi/4 - pi/6) leaves Q(sqrt(2))
    for name, call in moded_calls(PD, SIXTH).items():
        if name not in ("Field.of", "row_keys", "mixed_equilibria"):  # take no strategies
            with pytest.raises(ExactnessError):
                call("exact")
    float_rows = [coefficient_row(s, SIXTH, mode="float") for s in SIXTH]
    with pytest.raises(ExactnessError):
        row_keys(float_rows)
    # a float game entry
    for name in ("payoff_closed_form", "Field.of", "build_extended_game",
                 "verify_invariance_end_to_end"):
        with pytest.raises(ExactnessError):
            moded_calls(FLOAT_PD, LATTICE)[name]("exact")
    with pytest.raises(ExactnessError):
        mixed_equilibria(build_extended_game(FLOAT_PD, LATTICE, mode="float"))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["enumerate", "--theta", "1/3 pi", "--step", "1/8"])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
