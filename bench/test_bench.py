"""The benchmark's own tests, at a small smoke size.

    python3 -m pytest -q bench/test_bench.py

They show that a corrupted output is counted in failed_ratio (one lattice
hit dropped, one equilibrium perturbed, one wrong CLI exit code), that one
command prints every metric by name with its unit, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

SMOKE = ["--seed", "7", "--seconds", "0.1"]


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=str(ROOT), timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def smoke_output(workload):
    """Worker output of a one-round (analyze) or one-session (cli) run."""
    args = run.parse_args(["--workload", workload, *SMOKE])
    workdir = ROOT / ".bench_work" / f"test-{workload}"
    try:
        return run.run_workers(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def analyze_out():
    return smoke_output("analyze")


@pytest.fixture(scope="module")
def cli_out():
    return smoke_output("cli")


def reference_sweep():
    """A lattice_exact sweep whose hits are the recorded reference itself,
    so the check can be exercised without a 30-second search."""
    ref = inputs.load("lattice_reference.json")
    ops = []
    for theta in ("1/2 pi", "1/3 pi"):
        expected = ref["exact"][theta]
        ops.append({"theta": theta, "step": "1/4", "mode": "exact", "tested": expected["tested"],
                    "hits": copy.deepcopy(expected["hits"]), "ms": 1000.0, "ref_ms": 1000.0,
                    "speed_factor": 1.0})
    setup = {"setup_s": 0.2, "setup_ref_s": 0.2}
    return {"runs": [{"ops": ops, "wall_s": 2.0, "peak_rss_kb": 1024, **setup}],
            "setup": [setup] * 5}


def test_reference_counts_match_the_seed_commit():
    ref = inputs.load("lattice_reference.json")
    assert ref["exact"]["1/2 pi"]["counts"] == {
        "B": 64, "C": 64, "D": 32, "E": 32, "UNCLASSIFIED": 96}
    assert ref["exact"]["1/3 pi"]["counts"] == {
        "C": 64, "D": 32, "E": 32, "UNCLASSIFIED": 64}
    assert ref["float"]["1/3 pi"]["counts"] == {
        "C": 64, "D": 32, "E": 32, "UNCLASSIFIED": 448}


def test_dropped_lattice_hit_is_counted():
    out = reference_sweep()
    clean = run.evaluate("lattice_exact", out, trace=False)
    assert clean["result"]["failed"] == 0 and clean["result"]["correct"]
    assert clean["result"]["attempted"] == 2 * 4096
    out["runs"][0]["ops"][1]["hits"].pop(5)
    broken = run.evaluate("lattice_exact", out, trace=False)
    assert broken["result"]["failed"] == 1 and not broken["result"]["correct"]
    assert broken["details"]["failed_ratio"] == pytest.approx(1 / 8192)


def test_float_sublattice_is_cross_checked_against_exact():
    ref = inputs.load("lattice_reference.json")
    hits = copy.deepcopy(ref["float"]["1/3 pi"]["hits"])
    on_sublattice = [h for h in hits if all(x % 2 == 0 for x in h[:4])]
    assert len(on_sublattice) == len(ref["exact"]["1/3 pi"]["hits"]) == 192
    relabelled = next(h for h in hits if h in on_sublattice and h[4] != "UNCLASSIFIED")
    relabelled[4] = "UNCLASSIFIED"
    res = {"theta": "1/3 pi", "step": "1/8", "mode": "float", "tested": 65536, "hits": hits}
    attempted, failed, _ = run.checks.check_lattice([res], ref)
    assert (attempted, failed) == (65536, 1)


def test_perturbed_equilibrium_is_counted(analyze_out):
    clean = run.evaluate("analyze", analyze_out, trace=False)
    assert clean["result"]["failed"] == 0
    n = clean["result"]["attempted"]
    assert n == 15
    broken = copy.deepcopy(analyze_out)
    record = next(r for r in broken["runs"][0]["ops"] if "digest" in r["equilibria"])
    record["equilibria"]["digest"] = "0" * 20
    result = run.evaluate("analyze", broken, trace=False)
    assert result["result"]["failed"] == 1
    assert result["details"]["failed_ratio"] == pytest.approx(1 / n)
    float_broken = copy.deepcopy(analyze_out)
    record = next(r for r in float_broken["runs"][0]["ops"]
                  if "values" in r["equilibria"] and r["equilibria"]["values"])
    record["equilibria"]["values"][0][0] += 1e-3
    assert run.evaluate("analyze", float_broken, trace=False)["result"]["failed"] == 1


def test_wrong_cli_exit_code_is_counted(cli_out):
    clean = run.evaluate("cli", cli_out, trace=False)
    assert clean["result"]["failed"] == 0
    assert clean["result"]["attempted"] == len(inputs.CLI_COMMANDS)
    broken = copy.deepcopy(cli_out)
    record = next(r for r in broken["runs"][0]["ops"] if r["name"] == "verify_set")
    assert record["exit"] == 1
    record["exit"] = 0
    result = run.evaluate("cli", broken, trace=False)
    assert result["result"]["failed"] == 1
    assert result["details"]["failed_ratio"] == pytest.approx(1 / len(inputs.CLI_COMMANDS))


def _printed_metrics(lines):
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    for name, metric in final["metrics"].items():
        assert any(line.strip().startswith(f"{name} = ") and line.strip().endswith(
            f" {metric['unit']}") for line in lines), name
    return final


def test_one_command_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    final = _printed_metrics(bench("--workload", "analyze", *SMOKE, "--trace", "0"))
    assert final["correct"] and final["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in final["metrics"].items()}
    assert all(v["value"] > 0 for v in final["metrics"].values())


def test_traced_run_reports_every_layer_and_idle_layers_read_zero():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    final = _printed_metrics(bench("--workload", "analyze", *SMOKE, "--trace", "1"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in final["metrics"].items()}
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert metrics["solver.search_solutions.calls"] == 0  # the lattice layer is idle
    assert metrics["nash.mixed_equilibria.calls"] == 15
    assert metrics["extensions.extension_matrix.calls"] == 15
    assert metrics["payoff.payoff_oracle.calls"] == 15 * 16
    assert 0 < metrics["trace.overhead_ratio"] < 1


def test_refuses_to_run_without_the_package_sources():
    bare = ROOT / ".bench_work" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", *SMOKE],
                              capture_output=True, text=True, cwd=str(bare), timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
