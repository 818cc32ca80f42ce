"""Run one ewlext command with the benchmark's tracing wrappers installed.

Usage: python3 bench/traced_cli.py <trace-out.json> <ewlext arguments...>
The command's stdout and exit code are those of ``ewlext``; the per-layer
totals of this process go to the trace file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import ewlext.cli

    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = ewlext.cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code
    raw = tracer.raw()
    raw["wall_s"] = time.perf_counter() - t0
    Path(out_path).write_text(json.dumps(raw), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
