"""Timing wrappers installed around the public functions of each ewlext module.

Only the traced run installs them; end-to-end metrics come from untraced
runs.  Each wrapped call opens a span (name, start, end, parent, operation
id).  A span's self time is its duration minus the time its child spans
cover.  The innermost per-pair calls (``LEAVES``) are folded into call
counts and busy time on their parent instead of being stored, and Q(sqrt 2)
arithmetic is only counted, so memory stays bounded on the pi/8 lattice.

Every binding of a traced function is replaced in every loaded ``ewlext.*``
module: ``criterion_holds``, for instance, is bound in both
``ewlext.invariance`` and ``ewlext.solver``, and ``coefficients`` in
``payoff``, ``equivalence`` and ``cli``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, function) for every traced function, in report order.
TRACED = (
    ("su2", "canonicalize"),
    ("su2", "phi"),
    ("exactnum", "exact_cos"),
    ("payoff", "coefficients"),
    ("payoff", "payoff_closed_form"),
    ("payoff", "payoff_oracle"),
    ("equivalence", "coefficient_row"),
    ("equivalence", "partition"),
    ("invariance", "criterion_holds"),
    ("invariance", "build_extended_game"),
    ("invariance", "strongly_isomorphic"),
    ("invariance", "verify_invariance_end_to_end"),
    ("extensions", "strategy_set"),
    ("extensions", "extension_matrix"),
    ("solver", "search_solutions"),
    ("solver", "classify_tuple"),
    ("nash", "mixed_equilibria"),
    ("nash", "solve_linear"),
    ("nash", "verify_equilibrium"),
)
LEAVES = {"su2.canonicalize", "su2.phi", "exactnum.exact_cos", "payoff.coefficients",
          "payoff.payoff_closed_form", "payoff.payoff_oracle"}
Q2_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__")
SPAN_CAP = 20000  # stored spans per process; aggregates cover every call


def _coefficients_hook(counters, result):
    counters["payoff.coefficients.float"] += isinstance(result[0], float)


def _criterion_hook(counters, result):
    counters["invariance.criterion_holds.holds"] += bool(result.holds)


def _solve_linear_hook(counters, result):
    counters["nash.solve_linear.nonunique"] += result[0] != "unique"


def _mixed_hook(counters, result):
    counters["nash.mixed_equilibria.equilibria"] += len(result.equilibria)
    counters["nash.mixed_equilibria.degenerate"] += bool(result.degenerate)


def _search_hook(counters, result):
    counters["solver.search_solutions.hits"] += len(result.solutions)
    counters["solver.search_solutions.tested"] += result.tested


HOOKS: Dict[str, Callable] = {
    "payoff.coefficients": _coefficients_hook,
    "invariance.criterion_holds": _criterion_hook,
    "nash.solve_linear": _solve_linear_hook,
    "nash.mixed_equilibria": _mixed_hook,
    "solver.search_solutions": _search_hook,
}
COUNTERS = ("payoff.coefficients.float", "invariance.criterion_holds.holds",
            "nash.solve_linear.nonunique", "nash.mixed_equilibria.equilibria",
            "nash.mixed_equilibria.degenerate", "solver.search_solutions.hits",
            "solver.search_solutions.tested", "exactnum.q2_ops")


class Tracer:
    """Span stack, per-name aggregates and a bounded span log for one process."""

    def __init__(self):
        self.stack: List[list] = []  # frames: [child_s, span_id]
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.spans: List[tuple] = []
        self.next_id = 0
        self.op_id: Optional[int] = None
        self.root_s = 0.0
        self.caches: Dict[str, object] = {}
        self.cache_before: Dict[str, tuple] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        leaf = name in LEAVES
        hook = HOOKS.get(name)
        stack, calls, self_s, counters = self.stack, self.calls, self.self_s, self.counters
        spans = self.spans
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.next_id += 1
            frame = [0.0, self.next_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                if not leaf and len(spans) < SPAN_CAP:
                    spans.append((frame[1], name, start, end, parent, self.op_id))
            if hook is not None:
                hook(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable) -> Callable:
        counters = self.counters

        def counted(*args):
            counters["exactnum.q2_ops"] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded
        ewlext modules, count Q2 arithmetic, and read the caches' counters."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ewlext" or n.startswith("ewlext."))]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"ewlext.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            if hasattr(original, "cache_info"):
                self.caches[name] = original
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        exactnum = sys.modules.get("ewlext.exactnum")
        q2 = getattr(exactnum, "Q2", None)
        if q2 is not None:
            for op in Q2_OPS:
                if op in vars(q2):
                    setattr(q2, op, self.count(vars(q2)[op]))
        payoff = sys.modules.get("ewlext.payoff")
        cached = getattr(payoff, "_coefficients_exact", None)
        if hasattr(cached, "cache_info"):
            self.caches["payoff.coefficients"] = cached
        self.cache_before = {k: tuple(c.cache_info()[:2]) for k, c in self.caches.items()}

    def raw(self) -> Dict:
        """Mergeable totals for this process (see merge_raw)."""
        cache = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            h0, m0 = self.cache_before.get(key, (0, 0))
            cache[key] = [info.hits - h0, info.misses - m0, info.currsize]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "cache": cache,
            "root_s": self.root_s,
            "wrapped_calls": sum(self.calls.values()),
            "spans": len(self.spans),
            "wall_s": 0.0,
        }

    def write_spans(self, path) -> None:
        """One JSON object per stored span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def empty_raw() -> Dict:
    return {"calls": {}, "self_s": {}, "counters": {}, "cache": {}, "root_s": 0.0,
            "wrapped_calls": 0, "spans": 0, "wall_s": 0.0}


def merge_raw(total: Dict, part: Dict) -> Dict:
    """Add one process's totals into ``total`` (cache sizes take the maximum)."""
    for key in ("calls", "self_s", "counters"):
        for name, value in part.get(key, {}).items():
            total[key][name] = total[key].get(name, 0) + value
    for name, (hits, misses, size) in part.get("cache", {}).items():
        h, m, s = total["cache"].get(name, (0, 0, 0))
        total["cache"][name] = [h + hits, m + misses, max(s, size)]
    for key in ("root_s", "wrapped_calls", "spans", "wall_s"):
        total[key] = total.get(key, 0) + part.get(key, 0)
    return total


def calibrate(n: int = 20000) -> Dict[str, float]:
    """Cost of one wrapped call and of one counted call, in seconds, for a
    call shaped like the package's (two arguments and a keyword)."""
    tracer = Tracer()

    def nothing(a, b, mode=None):
        return None

    def pair(a, b):
        return None

    cases = (("wrapped", tracer.wrap("calibration", nothing), nothing, {"mode": "exact"}),
             ("counted", tracer.count(pair), pair, {}))
    costs = {}
    for key, fn, bare, kwargs in cases:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(1, 2, **kwargs)
            t1 = time.perf_counter()
            for _ in range(n):
                bare(1, 2, **kwargs)
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / n)
        costs[key] = max(best, 0.0)
    return costs


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: Dict, costs: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from merged totals (idle layers read 0).

    ``costs`` is calibrate()'s result: the tracing overhead is estimated as
    wrapped calls times the cost of one wrapper plus counted Q2 operations
    times the cost of one counter, over the traced wall time.
    """
    calls, self_s, counters, cache = raw["calls"], raw["self_s"], raw["counters"], raw["cache"]
    out: Dict[str, float] = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = calls.get(name, 0)
        if name != "exactnum.exact_cos":
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    hits, misses, size = cache.get("payoff.coefficients", (0, 0, 0))
    out["payoff.coefficients.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["payoff.coefficients.cache_entries"] = size
    out["payoff.coefficients.float_ratio"] = _ratio(
        counters.get("payoff.coefficients.float", 0), calls.get("payoff.coefficients", 0))
    hits, misses, _ = cache.get("exactnum.exact_cos", (0, 0, 0))
    out["exactnum.exact_cos.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["exactnum.q2_ops.calls"] = counters.get("exactnum.q2_ops", 0)
    out["invariance.criterion_holds.holds_ratio"] = _ratio(
        counters.get("invariance.criterion_holds.holds", 0),
        calls.get("invariance.criterion_holds", 0))
    out["solver.hits_per_tuple"] = _ratio(
        counters.get("solver.search_solutions.hits", 0),
        counters.get("solver.search_solutions.tested", 0))
    out["nash.solve_linear.nonunique_ratio"] = _ratio(
        counters.get("nash.solve_linear.nonunique", 0), calls.get("nash.solve_linear", 0))
    out["nash.equilibria_per_game"] = _ratio(
        counters.get("nash.mixed_equilibria.equilibria", 0),
        calls.get("nash.mixed_equilibria", 0))
    out["nash.degenerate_ratio"] = _ratio(
        counters.get("nash.mixed_equilibria.degenerate", 0),
        calls.get("nash.mixed_equilibria", 0))
    overhead_s = (raw["wrapped_calls"] * costs["wrapped"]
                  + counters.get("exactnum.q2_ops", 0) * costs["counted"])
    out["trace.overhead_ratio"] = _ratio(overhead_s, raw["wall_s"])
    out["trace.unattributed_s"] = max(raw.get("wall_s", 0.0) - raw.get("root_s", 0.0), 0.0)
    return out
