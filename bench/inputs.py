"""Seeded inputs for every workload, as plain data (no ewlext import).

The seed picks from fixed pools stored under ``data/``; the pools carry the
reference outputs recorded by ``make_reference.py``, so any seed's inputs
can be checked.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

DATA = Path(__file__).resolve().parent / "data"

# theta1 slices (units of pi) whose pi/4 lattice search is exact.  Every
# slice except 1/2 costs the same coefficient-cache misses (16384 or 17160),
# while 1/2 needs only 4488; so each sweep pairs the 1/2 slice, the only
# one holding family B, with one seeded slice from the rest.
EXACT_HALF = "1/2 pi"
EXACT_OTHERS = ("0", "1/4 pi", "1/3 pi", "2/3 pi", "3/4 pi", "pi")
# Interior theta1 for the pi/8 float search: exact-feasible, so its hits on
# the pi/4 sublattice can be compared with the exact search at the same theta1.
FLOAT_THETAS = ("1/4 pi", "1/3 pi", "2/3 pi", "3/4 pi")

CLI_COMMANDS = ("extend_json", "extend_csv", "extend_pretty", "verify_invariant",
                "verify_set", "equilibria_extend_first", "equilibria_pre_extended",
                "payoff", "limits")


def load(name: str) -> Dict:
    with open(DATA / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def lattice_sweeps(workload: str, seed: int) -> Iterator[List[Tuple[str, str, str]]]:
    """Endless seeded sequence of sweeps; a sweep is a list of
    (theta1, step, mode) slices run in one fresh worker."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "lattice_exact":
            sweep = [(EXACT_HALF, "1/4", "exact"),
                     (rng.choice(EXACT_OTHERS), "1/4", "exact")]
            rng.shuffle(sweep)
        else:
            sweep = [(rng.choice(FLOAT_THETAS), "1/8", "float")]
        yield sweep


def analyze_order(seed: int, pool: Dict) -> List[List[int]]:
    """Rounds of case ids in seeded order; every round holds the same mix of
    classes, so throughput does not depend on which rounds a seed draws."""
    rng = random.Random(f"analyze:{seed}")
    rounds = [list(r) for r in pool["rounds"]]
    rng.shuffle(rounds)
    for r in rounds:
        rng.shuffle(r)
    return rounds


def cli_order(seed: int, pool: Dict) -> List[int]:
    rng = random.Random(f"cli:{seed}")
    order = list(range(len(pool["sessions"])))
    rng.shuffle(order)
    return order


def cli_commands(session: Dict, game_file: str, ext_file: str) -> List[Tuple[str, List[str]]]:
    """The fixed command session, as (name, ewlext argv) pairs."""
    cls = ["--class", session["cls"], "--theta1", session["theta1"]]
    game = ["--game", game_file]
    return [
        ("extend_json", ["extend", *cls, *game, "--format", "json", "--oracle-check"]),
        ("extend_csv", ["extend", *cls, *game, "--format", "csv", "--oracle-check"]),
        ("extend_pretty", ["extend", *cls, *game, "--format", "pretty", "--oracle-check"]),
        ("verify_invariant", ["verify", "--class", session["invariant_cls"],
                              "--theta1", session["theta1"], *game]),
        ("verify_set", ["verify", "--set", json.dumps(session["set"]), *game]),
        ("equilibria_extend_first", ["equilibria", "--extend-first", *cls, *game]),
        ("equilibria_pre_extended", ["equilibria", "--game", ext_file]),
        ("payoff", ["payoff", *game, "--p1", session["p1"], "--p2", session["p2"],
                    "--oracle-check"]),
        ("limits", ["limits", *game]),
    ]


def write_session_files(session: Dict, workdir: Path) -> Tuple[str, str]:
    """Write the session's game and pre-extended game; return their paths."""
    game_file = workdir / f"game-{session['id']}.json"
    ext_file = workdir / f"extended-{session['id']}.json"
    game_file.write_text(json.dumps({"payoffs": session["game"]}), encoding="utf-8")
    ext_file.write_text(json.dumps(session["extended"]), encoding="utf-8")
    return str(game_file), str(ext_file)
