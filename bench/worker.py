"""One fresh worker process: set up (import ewlext, make the seeded inputs),
then run the timed phase and print one JSON object on stdout.

Usage (run.py starts it): python3 bench/worker.py '<job json>'
The job names the workload, seed, seconds, sweep index, work directory and
whether to trace or only to set up.

Every operation record carries its wall time (``ms``) and its time in
reference seconds (``ref_ms``, see speed.py).  In-process phases sample the
machine speed from a timer signal; the CLI worker pins itself, and so the
commands it starts, to one CPU and samples between commands.  Traced runs
take no samples, so the kernel never runs inside a traced span.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402  (plain data; no ewlext import)
import tracing  # noqa: E402
from speed import Speedometer  # noqa: E402

CLI_TIMEOUT_S = 60
SETUP_KERNELS = 3  # speed samples on each side of set-up
CLI_KERNELS = 3    # speed samples before each command


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(job):
    """Everything the user pays before the first operation."""
    import ewlext  # noqa: F401
    import ops

    workload, seed = job["workload"], job["seed"]
    if workload.startswith("lattice"):
        sweeps = inputs.lattice_sweeps(workload, seed)
        for _ in range(job.get("sweep", 0)):
            next(sweeps)
        return next(sweeps)
    if workload == "analyze":
        pool = inputs.load("analyze_pool.json")
        return [[(cid, ops.build_case(pool["cases"][cid])) for cid in rnd]
                for rnd in inputs.analyze_order(seed, pool)]
    pool = inputs.load("cli_sessions.json")
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    sessions = []
    for sid in inputs.cli_order(seed, pool):
        session = pool["sessions"][sid]
        game_file, ext_file = inputs.write_session_files(session, workdir)
        sessions.append((sid, inputs.cli_commands(session, game_file, ext_file)))
    return sessions


def run_lattice(slices, job, tracer, speed):
    import ops

    results = []
    for k, (theta, step, mode) in enumerate(slices):
        if tracer:
            tracer.op_id = k
        try:
            results.append(ops.lattice_slice(theta, step, mode))
        except Exception as exc:  # the failure is the measurement
            now = time.perf_counter()
            results.append({"theta": theta, "step": step, "mode": mode, "error": repr(exc),
                            "start": now, "end": now, "tested": 0, "hits": []})
    return results


def _cycle(items):
    while True:
        yield from items


def run_analyze(rounds, job, tracer, speed):
    import ops

    out = []
    t0 = time.perf_counter()
    for rnd in _cycle(rounds):
        for cid, (game, params, mode) in rnd:
            if tracer:
                tracer.op_id = cid
            start = time.perf_counter()
            try:
                record = ops.analyze_case(game, params, mode)
            except Exception as exc:  # counted as a failed operation
                record = {"error": repr(exc)}
            record.update(id=cid, start=start, end=time.perf_counter())
            out.append(record)
        if time.perf_counter() - t0 >= job["seconds"]:
            return out


def run_cli(sessions, job, tracer, speed):
    """Each command runs in its own process; in the traced run that process
    installs the wrappers itself (traced_cli.py) and reports its totals."""
    env = child_env()
    out = []
    trace_dir = Path(job["workdir"])
    t0 = time.perf_counter()
    for sid, commands in _cycle(sessions):
        for name, argv in commands:
            if not job.get("trace"):
                cmd = [sys.executable, "-m", "ewlext", *argv]
                trace_file = None
                speed.take(CLI_KERNELS)
            else:
                trace_file = trace_dir / f"trace-{len(out)}.json"
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                      cwd=str(ROOT), timeout=CLI_TIMEOUT_S)
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = None, ""
            record = {"session": sid, "name": name, "exit": code, "stdout": stdout,
                      "start": start, "end": time.perf_counter()}
            if trace_file is not None and trace_file.exists():
                record["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
                trace_file.unlink()
            out.append(record)
        if time.perf_counter() - t0 >= job["seconds"]:
            if not job.get("trace"):
                speed.take(CLI_KERNELS)
            return out


RUNNERS = {"lattice_exact": run_lattice, "lattice_float": run_lattice,
           "analyze": run_analyze, "cli": run_cli}


def pin_to_one_cpu() -> None:
    """Keep this worker and the commands it starts on one CPU, so that the
    speed samples taken here describe the CPU the commands ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    job = json.loads(sys.argv[1])
    workload, trace = job["workload"], bool(job.get("trace"))
    if workload == "cli":
        pin_to_one_cpu()
    speed = Speedometer()
    speed.take(SETUP_KERNELS)
    t0 = time.perf_counter()
    prepared = setup(job)
    t1 = time.perf_counter()
    speed.take(SETUP_KERNELS)
    setup_ref_s, _ = speed.reference(t0, t1)
    result = {"setup_s": t1 - t0, "setup_ref_s": setup_ref_s}
    if not job.get("setup_only"):
        import numpy

        import ewlext

        tracer = None
        if trace and workload != "cli":
            tracer = tracing.Tracer()
            tracer.install()
        sampling = speed if not trace and workload != "cli" else nullcontext()
        t2 = time.perf_counter()
        with sampling:
            ops = RUNNERS[workload](prepared, job, tracer, speed)
        result["wall_s"] = time.perf_counter() - t2
        for op in ops:
            op["ms"] = (op["end"] - op["start"]) * 1000.0
            if trace:
                op["ref_ms"], op["speed_factor"] = op["ms"], 1.0
            else:
                ref_s, op["speed_factor"] = speed.reference(op["start"], op["end"])
                op["ref_ms"] = ref_s * 1000.0
        result["ops"] = ops
        if tracer is not None:
            raw = tracer.raw()
            raw["wall_s"] = result["wall_s"]
            result["trace"] = raw
            if job.get("spans_file"):
                tracer.write_spans(job["spans_file"])
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        result["versions"] = {"numpy": numpy.__version__, "ewlext": ewlext.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
