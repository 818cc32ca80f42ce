"""Build the input pools and record the reference outputs under ``data/``.

Run from the repository root, at the commit the references should come
from (each part takes a few minutes):

    python3 bench/make_reference.py lattice   # data/lattice_reference.json
    python3 bench/make_reference.py analyze   # data/analyze_pool.json
    python3 bench/make_reference.py cli       # data/cli_sessions.json

The benchmark never regenerates these files; a later commit is checked
against what this script recorded.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
from checks import hits_digest  # noqa: E402
from ewlext import (  # noqa: E402
    ClassParams,
    extension_matrix,
    enumerate_discrete_solutions,
    canonicalize,
    verify_invariance_end_to_end,
    Bimatrix2,
)
from worker import child_env  # noqa: E402

POOL_SEED = 20240517
ANALYZE_ROUNDS = 64
CLI_SESSIONS = 8
EXACT_THETAS = ("1/4 pi", "1/3 pi", "1/2 pi", "2/3 pi", "3/4 pi")
CDE = ("C", "D1", "D2", "E1", "E2")
# One round: A1, A2 and B once, each of C, D1, D2, E1, E2 twice (exact), and
# two float cases.  Exact C/D/E are the majority, so the median latency sits
# inside one group and does not flip between groups from seed to seed.
ROUND = (("A1", "exact"), ("A2", "exact"), ("B", "exact"),
         *((c, "exact") for c in CDE for _ in range(2)),
         ("float", "float"), ("float", "float"))


def _write(name, obj):
    path = inputs.DATA / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _family_counts(hits):
    out = {}
    for *_, label in hits:
        key = label if label == "UNCLASSIFIED" else label[0]
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def lattice():
    ref = {"exact": {}, "float": {}}
    slices = [(t, "1/4", "exact") for t in (inputs.EXACT_HALF, *inputs.EXACT_OTHERS)]
    slices += [(t, "1/8", "float") for t in inputs.FLOAT_THETAS]
    for theta, step, mode in slices:
        res = ops.lattice_slice(theta, step, mode)
        hits = sorted(res["hits"])
        ref[mode][theta] = {"tested": res["tested"], "counts": _family_counts(hits),
                            "digest": hits_digest(hits), "hits": hits}
        print(theta, step, mode, f"{res['seconds']:.1f}s", _family_counts(hits),
              file=sys.stderr)
    _write("lattice_reference.json", ref)


def _exact_game(rng, hi=9):
    return [[[rng.randint(0, hi), rng.randint(0, hi)] for _ in range(2)] for _ in range(2)]


def _float_game(rng):
    return [[[rng.uniform(-5, 5), rng.uniform(-5, 5)] for _ in range(2)] for _ in range(2)]


def _phases(rng, cls):
    if cls == "A1":
        return {"alpha1": str(Fraction(rng.randrange(8), 4))}
    if cls == "A2":
        return {"alpha2": str(Fraction(rng.randrange(8), 4))}
    a1, b1, a2, b2 = rng.choice(enumerate_discrete_solutions(cls))
    return {"alpha1": str(a1), "beta1": str(b1), "alpha2": str(a2), "beta2": str(b2)}


def _case(rng, cls, mode):
    if mode == "float":
        cls = rng.choice(CDE)
        return {"cls": cls, "mode": mode, "theta1": rng.uniform(0.3, 2.8),
                "phases": _phases(rng, cls), "game": _float_game(rng)}
    theta1 = rng.choice(EXACT_THETAS) if cls in CDE else None
    return {"cls": cls, "mode": mode, "theta1": theta1, "phases": _phases(rng, cls),
            "game": _exact_game(rng)}


def analyze():
    rng = random.Random(POOL_SEED)
    cases, rounds = [], []
    for _ in range(ANALYZE_ROUNDS):
        ids = []
        for cls, mode in ROUND:
            case = _case(rng, cls, mode)
            case["id"] = len(cases)
            out = ops.analyze_case(*ops.build_case(case))
            bad = [k for k in ("entries_agree", "oracle_ok", "criterion", "invariant",
                               "verified") if not out[k]]
            if bad:
                raise SystemExit(f"case {case} fails {bad} at the reference commit")
            case["expect"] = out["equilibria"]
            cases.append(case)
            ids.append(case["id"])
        rounds.append(ids)
        print(f"round {len(rounds)}/{ANALYZE_ROUNDS}", file=sys.stderr)
    _write("analyze_pool.json", {"pool_seed": POOL_SEED, "rounds": rounds, "cases": cases})


def _pi(k: Fraction) -> str:
    return "0" if k == 0 else f"{k} pi"


def _lattice_triple(rng):
    """An exact (theta, alpha, beta) on the pi/4 grid, as CLI angle strings."""
    theta = _pi(Fraction(rng.randrange(5), 4))
    return theta, _pi(Fraction(rng.randrange(8), 4)), _pi(Fraction(rng.randrange(8), 4))


def _non_invariant_set(rng, game):
    while True:
        extra = [_lattice_triple(rng) for _ in range(2)]
        triples = [("0", "0", "0"), ("pi", "0", "0"), *extra]
        strategies = [canonicalize(*t) for t in triples]
        if not verify_invariance_end_to_end(game, strategies).all_isomorphic:
            return [{"theta": t, "alpha": a, "beta": b} for t, a, b in triples]


def cli():
    rng = random.Random(POOL_SEED + 1)
    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    sessions = []
    for sid in range(CLI_SESSIONS):
        # entries span at most 5, the range for which limit_check's bound holds
        payoffs = _exact_game(rng, hi=5)
        game = Bimatrix2.from_rows(payoffs)
        theta1 = rng.choice(("1/4 pi", "1/3 pi", "2/3 pi", "3/4 pi"))
        invariant_cls = rng.choice(CDE)
        session = {
            "id": sid,
            "game": payoffs,
            "cls": rng.choice(CDE),
            "theta1": theta1,
            "invariant_cls": invariant_cls,
            "set": _non_invariant_set(rng, game),
            "p1": ",".join(_lattice_triple(rng)),
            "p2": ",".join(_lattice_triple(rng)),
            "extended": extension_matrix(
                ClassParams.create(invariant_cls, theta1=theta1), game).to_json(),
        }
        game_file, ext_file = inputs.write_session_files(session, workdir)
        expect = {}
        for name, argv in inputs.cli_commands(session, game_file, ext_file):
            proc = subprocess.run([sys.executable, "-m", "ewlext", *argv],
                                  capture_output=True, text=True, env=child_env(),
                                  cwd=str(ROOT), timeout=120)
            expect[name] = {"exit": proc.returncode, "stdout": proc.stdout}
        codes = {name: e["exit"] for name, e in expect.items()}
        if codes != dict.fromkeys(codes, 0) | {"verify_set": 1}:
            raise SystemExit(f"session {sid}: unexpected exit codes {codes}")
        session["expect"] = expect
        sessions.append(session)
        print(f"session {sid}", {k: v["exit"] for k, v in expect.items()}, file=sys.stderr)
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    _write("cli_sessions.json", {"pool_seed": POOL_SEED + 1, "sessions": sessions})


if __name__ == "__main__":
    {"lattice": lattice, "analyze": analyze, "cli": cli}[sys.argv[1]]()
