"""Correctness gates: compare worker outputs with the recorded references.

Each function returns (attempted, failed, notes).  An operation is a
lattice tuple, an analyze case or a CLI invocation; any mismatch counts
its operation as failed.  The lattice references include the UNCLASSIFIED
hits beyond the named families; they are part of the expected output.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Dict, List, Tuple

FLOAT_EQ_TOL = 1e-7
LIMITS_REL_TOL = 1e-9
UNCLASSIFIED = "UNCLASSIFIED"
MAX_NOTES = 5

Result = Tuple[int, int, List[str]]


def hits_digest(hits) -> str:
    text = "\n".join(",".join(str(x) for x in h) for h in sorted(map(tuple, hits)))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def named_families(step: Fraction) -> Dict[str, set]:
    """Phase tuples of each discrete family, in lattice units of ``step``,
    from ewlext.enumerate_discrete_solutions (an independent listing)."""
    from ewlext import enumerate_discrete_solutions

    return {
        label: {tuple(int(v / step) for v in t) for t in enumerate_discrete_solutions(label)}
        for label in ("B", "C", "D1", "D2", "E1", "E2")
    }


def _named_ok(key, label, families, per_pi: int) -> bool:
    """A named hit must be a listed solution of its family; A1/A2 are
    continuous, so their defining congruence is checked instead."""
    a1, b1, a2, b2 = key
    if label == "A1":
        return (a1 + b2) % per_pi == 0
    if label == "A2":
        return (a2 + b1) % per_pi == 0
    return key in families.get(label, ())


def check_lattice(slices: List[Dict], reference: Dict) -> Result:
    attempted = failed = 0
    notes: List[str] = []
    family_cache: Dict[str, Dict[str, set]] = {}
    for res in slices:
        expected = reference[res["mode"]][res["theta"]]
        attempted += expected["tested"]
        if res.get("error"):
            failed += expected["tested"]
            notes.append(f"{res['theta']} {res['mode']}: raised {res['error']}")
            continue
        step = Fraction(res["step"])
        per_pi = int(1 / step)
        if res["step"] not in family_cache:
            family_cache[res["step"]] = named_families(step)
        families = family_cache[res["step"]]
        want = {tuple(h[:4]): h[4] for h in expected["hits"]}
        got = {tuple(h[:4]): h[4] for h in res["hits"]}
        bad = {k for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
        bad |= {k for k, label in got.items()
                if label != UNCLASSIFIED and not _named_ok(k, label, families, per_pi)}
        if res["mode"] == "float":
            exact = {tuple(2 * v for v in h[:4]): h[4]
                     for h in reference["exact"][res["theta"]]["hits"]}
            sub = {k: v for k, v in got.items() if all(x % 2 == 0 for x in k)}
            bad |= {k for k in exact.keys() | sub.keys() if exact.get(k) != sub.get(k)}
        duplicates = len(res["hits"]) - len(got)
        wrong_count = abs(res["tested"] - expected["tested"])
        slice_failed = len(bad) + duplicates + wrong_count
        if slice_failed:
            notes.append(f"{res['theta']} {res['mode']}: {len(bad)} hits differ, "
                         f"{duplicates} duplicates, tested {res['tested']}")
        failed += min(slice_failed, expected["tested"])
    return attempted, failed, notes[:MAX_NOTES]


CASE_FLAGS = ("entries_agree", "oracle_ok", "criterion", "invariant", "verified")


def _equilibria_match(got: Dict, want: Dict) -> bool:
    if got.get("count") != want["count"]:
        return False
    if "digest" in want:
        return got.get("digest") == want["digest"]
    return all(
        len(g) == len(w) and all(abs(x - y) <= FLOAT_EQ_TOL for x, y in zip(g, w))
        for g, w in zip(got.get("values", []), want["values"])
    )


def check_analyze(records: List[Dict], pool: Dict) -> Result:
    failed = 0
    notes: List[str] = []
    for rec in records:
        case = pool["cases"][rec["id"]]
        if rec.get("error"):
            problem = f"raised {rec['error']}"
        else:
            flags = [f for f in CASE_FLAGS if not rec.get(f)]
            problem = f"failed {flags}" if flags else None
            if problem is None and not _equilibria_match(rec["equilibria"], case["expect"]):
                problem = "equilibria differ from the reference"
        if problem:
            failed += 1
            notes.append(f"case {rec['id']} ({case['cls']}, {case['mode']}): {problem}")
    return len(records), failed, notes[:MAX_NOTES]


def _numbers_match(got: str, want: str) -> bool:
    """CSV text equal up to a relative tolerance on float fields."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        return False
    for g_line, w_line in zip(g_lines, w_lines):
        g_fields, w_fields = g_line.split(","), w_line.split(",")
        if len(g_fields) != len(w_fields):
            return False
        for g, w in zip(g_fields, w_fields):
            if g == w:
                continue
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                return False
            if abs(gv - wv) > LIMITS_REL_TOL * max(1.0, abs(wv)):
                return False
    return True


def check_cli(records: List[Dict], pool: Dict) -> Result:
    failed = 0
    notes: List[str] = []
    for rec in records:
        want = pool["sessions"][rec["session"]]["expect"][rec["name"]]
        if rec["exit"] != want["exit"]:
            problem = f"exit {rec['exit']}, expected {want['exit']}"
        elif rec["name"] == "limits":
            problem = None if _numbers_match(rec["stdout"], want["stdout"]) else "stdout differs"
        else:
            problem = None if rec["stdout"] == want["stdout"] else "stdout differs"
        if problem:
            failed += 1
            notes.append(f"session {rec['session']} {rec['name']}: {problem}")
    return len(records), failed, notes[:MAX_NOTES]
