"""The ewlext benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: lattice_exact, lattice_float,
analyze, cli (see README.md).  Every run starts fresh worker processes, so
each pays a cold start as a user of ``ewlext`` does.  Output: one line per
metric with its unit, a ``record`` line (environment and details, JSON), and
as the last line a JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))  # the checks cross-check against ewlext itself

import checks  # noqa: E402
import envinfo  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("lattice_exact", "lattice_float", "analyze", "cli")
SETUP_SAMPLES = 5          # fresh workers whose set-up time is taken; median reported
RUN_BUDGET_S = 140         # no new lattice sweep starts after this much of a run
WORKER_TIMEOUT_S = 170
STARTUP_SAMPLES = 5        # interpreter and import timings in the traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_units() -> Dict[str, str]:
    special = {"trace.unattributed_s": "s", "solver.hits_per_tuple": "1/tuple",
               "nash.equilibria_per_game": "1/game"}
    units = {}
    for name in tracing.layer_metrics(tracing.empty_raw(), {"wrapped": 0.0, "counted": 0.0}):
        if name in special:
            units[name] = special[name]
        elif name.endswith(".self_s"):
            units[name] = "s"
        elif name.endswith(".calls") or name.endswith(".cache_entries"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    units["payoff.oracle_max_abs_diff"] = "abs"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    for command in inputs.CLI_COMMANDS:
        units[f"cli.{command}.wall_ms"] = "ms"
    return units


# -- workers --------------------------------------------------------------------


def spawn(job: Dict, timeout: float) -> Dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(args, workdir: Path) -> Dict:
    """Timed workers, then set-up-only workers until SETUP_SAMPLES exist."""
    started = time.perf_counter()
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "workdir": str(workdir)}
    out_dir = ROOT / ".bench_out"
    runs: List[Dict] = []
    timed = 0.0
    while True:
        job = dict(base, sweep=len(runs))
        if args.trace and args.workload != "cli":
            out_dir.mkdir(exist_ok=True)
            job["spans_file"] = str(
                out_dir / f"spans-{args.workload}-seed{args.seed}-{len(runs)}.jsonl")
        remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        res = spawn(job, remaining)
        runs.append(res)
        timed += res["wall_s"]
        if not args.workload.startswith("lattice") or timed >= args.seconds:
            break
        if time.perf_counter() - started + 1.5 * res["wall_s"] > RUN_BUDGET_S:
            break
    setup = [{k: r[k] for k in ("setup_s", "setup_ref_s")} for r in runs]
    while len(setup) < SETUP_SAMPLES:
        remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        setup.append(spawn(dict(base, setup_only=True), remaining))
    return {"runs": runs, "setup": setup}


# -- metrics ----------------------------------------------------------------------


def operations(out: Dict) -> List[Dict]:
    return [op for r in out["runs"] for op in r["ops"]]


def tail(latencies: List[float]) -> Dict:
    """The highest percentile with at least ten samples beyond it, but never
    below the median; the maximum when there are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 10, (n + 1) // 2) if n >= 11 else n
    return {"value": ordered[k - 1], "percentile": 100.0 * k / n, "samples": n}


def end_to_end(workload: str, out: Dict, key: str = "ref_ms") -> Dict:
    """End-to-end metrics from the operation times under ``key``: "ref_ms"
    (reference seconds, the reported metrics) or "ms" (wall clock)."""
    ops = operations(out)
    if workload.startswith("lattice"):
        ops = [op for op in ops if not op.get("error")]
        done = sum(op["tested"] for op in ops)
    else:
        done = len(ops)
    latencies = [op[key] for op in ops]
    busy_s = sum(latencies) / 1000.0
    setup = [r["setup_ref_s" if key == "ref_ms" else "setup_s"] for r in out["setup"]]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": done / busy_s if busy_s else 0.0,
        "op_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "op_ms_tail": tail(latencies)["value"] if latencies else 0.0,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in out["runs"]) / 1024.0,
    }


def input_size(workload: str, out: Dict) -> Dict:
    ops = operations(out)
    if workload.startswith("lattice"):
        return {"tuples_per_slice": 4096 if workload == "lattice_exact" else 65536,
                "slices": [f"{op['theta']} ({op['mode']}, step {op['step']} pi)"
                           for op in ops],
                "latency_unit": "one search_solutions call (one slice)"}
    if workload == "analyze":
        pool = inputs.load("analyze_pool.json")
        return {"cases": len(ops), "cases_per_round": len(pool["rounds"][0]),
                "float_share": sum(pool["cases"][i]["mode"] == "float"
                                   for i in pool["rounds"][0]) / len(pool["rounds"][0])}
    return {"invocations": len(ops), "commands_per_session": len(inputs.CLI_COMMANDS)}


def median_startup(code: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=str(ROOT),
                       timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def per_layer(workload: str, out: Dict) -> Dict:
    records = operations(out)
    raw = tracing.empty_raw()
    for part in out["runs"] + records:  # worker totals, or one per CLI command
        if "trace" in part:
            tracing.merge_raw(raw, part["trace"])
    metrics = tracing.layer_metrics(raw, tracing.calibrate())
    metrics["payoff.oracle_max_abs_diff"] = max(
        (rec.get("oracle_diff", 0.0) for rec in records), default=0.0)
    interpreter = median_startup("pass")
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = max(median_startup("import ewlext") - interpreter, 0.0)
    for command in inputs.CLI_COMMANDS:
        ms = [rec["ms"] for rec in records if rec.get("name") == command]
        metrics[f"cli.{command}.wall_ms"] = statistics.median(ms) if ms else 0.0
    return metrics


def check(workload: str, out: Dict):
    records = operations(out)
    if workload.startswith("lattice"):
        return checks.check_lattice(records, inputs.load("lattice_reference.json"))
    if workload == "analyze":
        return checks.check_analyze(records, inputs.load("analyze_pool.json"))
    return checks.check_cli(records, inputs.load("cli_sessions.json"))


def evaluate(workload: str, out: Dict, trace: bool) -> Dict:
    """Correctness and metrics for one run's worker output."""
    attempted, failed, notes = check(workload, out)
    if trace:
        metrics, units = per_layer(workload, out), per_layer_units()
    else:
        metrics, units = end_to_end(workload, out), END_TO_END_UNITS
    ops = operations(out)
    details = {
        "input_size": input_size(workload, out),
        "op_ms_tail": tail([op["ref_ms"] for op in ops]) if ops else None,
        "wall_clock_metrics": end_to_end(workload, out, key="ms"),
        "speed_factor_median": statistics.median(op["speed_factor"] for op in ops)
        if ops else None,
        "setup_samples": out["setup"],
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": notes,
    }
    return {
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "details": details,
    }


# -- entry point --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ewlext" / "__init__.py").is_file():
        print(f"error: no ewlext sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    before = envinfo.snapshot()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        out = run_workers(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    evaluation = evaluate(args.workload, out, bool(args.trace))
    result = evaluation["result"]
    env = envinfo.static(ROOT)
    env.update(out["runs"][0]["versions"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "before": before,
              "after": envinfo.snapshot(), **evaluation["details"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")

    print(f"ewlext benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {result['attempted']} operations, "
          f"{result['failed']} failed (failed_ratio {record['failed_ratio']:.6g})")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in record["failures"]:
        print(f"  FAILED: {note}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
