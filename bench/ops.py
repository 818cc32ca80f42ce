"""The operations each workload times, written against ewlext's public API.

The worker imports this module after putting the checkout's ``src`` on the
path.  Every call goes through an attribute of the ``ewlext`` package, so
the traced run's wrappers, which replace those bindings, see it.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from typing import Dict

import ewlext
from ewlext.payoff import format_scalar

ENTRY_TOL = 1e-9   # float extension vs coefficient route, per entry
ORACLE_TOL = 1e-9  # closed form vs statevector, per entry
FLOAT_ISO_TOL = 1e-9


# -- lattice workloads ----------------------------------------------------------


def lattice_slice(theta: str, step: str, mode: str) -> Dict:
    """One search_solutions call over a single theta1 slice, with the
    perf_counter readings around it.

    Hits come back in lattice units (phase / step) so that the parent can
    compare them with the stored reference without parsing angles.
    """
    spec = ewlext.LatticeSpec.create([theta], step)
    start = time.perf_counter()
    result = ewlext.search_solutions(spec, mode=mode)
    end = time.perf_counter()
    unit = spec.phase_step
    hits = [
        [int(s.alpha1 / unit), int(s.beta1 / unit), int(s.alpha2 / unit),
         int(s.beta2 / unit), s.label]
        for s in result.solutions
    ]
    return {"theta": theta, "step": step, "mode": mode, "start": start, "end": end,
            "tested": result.tested, "hits": hits}


# -- analyze workload -------------------------------------------------------------


def build_case(case: Dict):
    """Turn one pool entry into (game, params, mode): the seeded inputs."""
    game = ewlext.Bimatrix2.from_rows(case["game"])
    kwargs = {}
    theta1 = case.get("theta1")
    if theta1 is not None:
        kwargs["theta1"] = theta1
    for name, value in case["phases"].items():
        kwargs[name] = Fraction(value)
    return game, ewlext.ClassParams.create(case["cls"], **kwargs), case["mode"]


def _max_entry_diff(g1, g2) -> float:
    return max(
        max(abs(float(p.u1) - float(q.u1)), abs(float(p.u2) - float(q.u2)))
        for r1, r2 in zip(g1.payoffs, g2.payoffs)
        for p, q in zip(r1, r2)
    )


def analyze_case(game, params, mode: str) -> Dict:
    """Everything a user does with one extension, in order.

    Returns the outcome of each in-line check and a summary of the
    equilibria; the parent compares the summary with the reference.
    """
    exact = mode == "exact"
    strategies = ewlext.strategy_set(params)
    ext = ewlext.extension_matrix(params, game)
    built = ewlext.build_extended_game(game, strategies, mode=mode)
    if exact:
        entries_agree = all(
            p == q for r1, r2 in zip(ext.payoffs, built.payoffs) for p, q in zip(r1, r2)
        )
    else:
        entries_agree = _max_entry_diff(ext, built) <= ENTRY_TOL
    oracle_diff = 0.0
    for i, p in enumerate(strategies):
        for j, q in enumerate(strategies):
            ref = ewlext.payoff_oracle(game, p, q)
            got = ext.payoffs[i][j]
            oracle_diff = max(oracle_diff, abs(float(got.u1) - ref.u1),
                              abs(float(got.u2) - ref.u2))
    holds = ewlext.criterion_holds(strategies, mode=mode).holds
    invariant = ewlext.verify_invariance_end_to_end(
        game, strategies, mode=mode, tol=0.0 if exact else FLOAT_ISO_TOL
    ).all_isomorphic
    report = ewlext.mixed_equilibria(ext, mode=mode)
    verified = all(ewlext.verify_equilibrium(ext, eq) for eq in report.equilibria)
    return {
        "entries_agree": entries_agree,
        "oracle_ok": oracle_diff <= ORACLE_TOL,
        "oracle_diff": oracle_diff,
        "criterion": holds,
        "invariant": invariant,
        "verified": verified,
        "degenerate": report.degenerate,
        "equilibria": equilibria_summary(report, exact),
    }


def equilibria_summary(report, exact: bool):
    """Exact equilibria as a digest of their printed form; float ones as
    numbers, compared with a tolerance by the parent."""
    if exact:
        text = "\n".join(
            "|".join([
                eq.kind,
                ",".join(str(format_scalar(v)) for v in eq.profile.p1),
                ",".join(str(format_scalar(v)) for v in eq.profile.p2),
                str(format_scalar(eq.payoff.u1)), str(format_scalar(eq.payoff.u2)),
            ])
            for eq in report.equilibria
        )
        return {"count": len(report.equilibria),
                "digest": hashlib.sha256(text.encode()).hexdigest()[:20]}
    return {"count": len(report.equilibria),
            "values": [[float(v) for v in eq.profile.p1 + eq.profile.p2]
                       + [float(eq.payoff.u1), float(eq.payoff.u2)]
                       for eq in report.equilibria]}
