"""Spans around the package's layer calls, recorded from outside the package.

`Tracer.install` replaces module attributes of the package with timing
wrappers and `uninstall` puts the originals back; no file of the package
changes.  Each call records a span (name, start, end, parent span) plus a
count taken from its return value.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

# (module, attribute, span name, count from the return value)
WRAPPED = (
    ("subsetfvs.cli", "parse_graph_file", "cli.parse_graph_file", None),
    ("subsetfvs.cli", "parse_layout", "cli.parse_layout", None),
    ("subsetfvs.cli", "width", "layouts.width", None),
    ("subsetfvs.cli", "solve", "dp.solve", None),
    ("subsetfvs.cli", "solve_nmc", "multiway.solve_nmc", None),
    ("subsetfvs.layouts", "mim_cut", "layouts.mim_cut", None),
    ("subsetfvs.dp", "build_context", "dp.build_context",
     lambda ctx: sum(f.class_count for f in (ctx.fam_x1, ctx.fam_x2, ctx.fam_y1, ctx.fam_y2))),
    ("subsetfvs.dp", "compute_reps", "nec.compute_reps", None),
    ("subsetfvs.dp", "mim_cut", "layouts.mim_cut", None),
    ("subsetfvs.dp", "merge_tables", "dp.merge_tables", len),
    ("subsetfvs.dp", "reduce_table", "dp.reduce_table", len),
    ("subsetfvs.multiway", "solve", "dp.solve", None),
)

# Metrics of one traced round: (name, unit).
LAYER_METRICS = (
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("layouts.width_gf2_s", "s"),
    ("layouts.width_rational_s", "s"),
    ("layouts.width_mim_s", "s"),
    ("layouts.mim_cut_calls", "count"),
    ("nec.compute_reps_s", "s"),
    ("nec.compute_reps_calls", "count"),
    ("nec.classes", "count"),
    ("dp.solve_s", "s"),
    ("dp.build_context_s", "s"),
    ("dp.merge_s", "s"),
    ("dp.merged_rows", "count"),
    ("dp.max_merged_rows", "count"),
    ("dp.reduce_s", "s"),
    ("dp.kept_rows", "count"),
    ("dp.keep_ratio", "ratio"),
    ("multiway.solve_nmc_s", "s"),
    ("multiway.self_s", "s"),
)


class Tracer:
    """Owns the recorded spans and the patched attributes."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, count]
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def span(self, name: str, fn: Callable, *args, count=None, **kwargs):
        """Call fn inside a new span; count maps its result to the span count."""
        sp = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            sp[4] = count(result)
        return result

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        def wrapper(*args, **kwargs):
            if name == "layouts.width":
                kind = kwargs.get("kind", args[2] if len(args) > 2 else "gf2")
                return self.span(f"layouts.width_{kind}", fn, *args, **kwargs)
            return self.span(name, fn, *args, count=count, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, count in WRAPPED:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer totals of one round from its spans."""
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    def total(name: str) -> float:
        return sum((d for d, sp in zip(dur, spans) if sp[0] == name), 0.0)

    def self_time(name: str) -> float:
        return sum((d - c for d, c, sp in zip(dur, child_time, spans) if sp[0] == name), 0.0)

    def counts(name: str) -> List[int]:
        return [sp[4] for sp in spans if sp[0] == name]

    merged = counts("dp.merge_tables")
    kept = counts("dp.reduce_table")
    return {
        "cli.parse_s": total("cli.parse_graph_file") + total("cli.parse_layout"),
        "cli.self_s": self_time("cli.main"),
        "layouts.width_gf2_s": total("layouts.width_gf2"),
        "layouts.width_rational_s": total("layouts.width_rational"),
        "layouts.width_mim_s": total("layouts.width_mim"),
        "layouts.mim_cut_calls": len(counts("layouts.mim_cut")),
        "nec.compute_reps_s": total("nec.compute_reps"),
        "nec.compute_reps_calls": len(counts("nec.compute_reps")),
        "nec.classes": sum(counts("dp.build_context")),
        "dp.solve_s": total("dp.solve"),
        "dp.build_context_s": total("dp.build_context"),
        "dp.merge_s": total("dp.merge_tables"),
        "dp.merged_rows": sum(merged),
        "dp.max_merged_rows": max(merged, default=0),
        "dp.reduce_s": total("dp.reduce_table"),
        "dp.kept_rows": sum(kept),
        "dp.keep_ratio": sum(kept) / sum(merged) if merged else 0.0,
        "multiway.solve_nmc_s": total("multiway.solve_nmc"),
        "multiway.self_s": self_time("multiway.solve_nmc"),
    }
