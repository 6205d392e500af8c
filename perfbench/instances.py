"""Seeded workload inputs for the solver benchmark.

Everything here is plain Python and imports nothing from the package, so the
inputs (and the reference answers computed from them) do not depend on the
code under test.

Each workload is a fixed suite of graph shapes.  The shapes are drawn once
from the suite's own seed strings below; --seed then draws what varies per
run: a relabelling of the vertices (new ids, names and file order, with the
layout relabelled to match) and, on the weighted workload, the weights.
Solve cost on this solver follows the shape: over eight relabellings or
reweightings of one 13-vertex random graph, the number of bucket keys
`reduce_table` enumerated stayed within 0.05%, while fresh G(n, m) draws
of that size spread over a factor of 40.  Fixed shapes therefore keep
run-to-run spread down to the machine's own noise, and a new seed still
gives new files, new tie-breaks and, on `cut_fvs`, new optima.

Every random draw comes from ``random.Random`` seeded with a string, which
CPython hashes with SHA-512, so the same seed gives the same inputs in
every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

WORKLOADS = ("interval", "high_mim", "cut_fvs")


@dataclass(frozen=True)
class Case:
    """One `sfvs solve` call: an input graph, its layout and the problem."""

    name: str
    family: str  # "interval" or "random": picks the reference method
    problem: str  # "sfvs", "fvs" or "nmc"
    names: Tuple[str, ...]
    weights: Tuple[int, ...]
    s_flags: Tuple[int, ...]  # tracked set for sfvs; terminals for nmc
    edges: Tuple[Tuple[int, int], ...]
    order: Tuple[int, ...]  # caterpillar layout: leaves joined in this order

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def terminals(self) -> Tuple[int, ...]:
        return tuple(v for v, f in enumerate(self.s_flags) if f)

    def graph_text(self) -> str:
        lines = [f"p sfvs {self.n} {len(self.edges)}"]
        for name, w, f in zip(self.names, self.weights, self.s_flags):
            lines.append(f"v {name} {w} {f}")
        for u, v in self.edges:
            lines.append(f"e {self.names[u]} {self.names[v]}")
        return "\n".join(lines) + "\n"

    def layout_text(self) -> str:
        text = self.names[self.order[0]]
        for v in self.order[1:]:
            text = f"({text},{self.names[v]})"
        return text + "\n"

    def argv(self, graph_path: str, layout_path: str, json_path: str) -> List[str]:
        argv = ["solve", "--graph", graph_path, "--layout", layout_path,
                "--problem", self.problem, "--json", json_path]
        if self.problem == "nmc":
            argv += ["--terminals", ",".join(self.names[t] for t in self.terminals)]
        return argv


def _interval_shape(rng: random.Random, n: int):
    """Closed intervals with left ends in [0, 3n] and lengths in [1, n/6];
    vertices numbered by left end, so the identity order is the certificate
    layout (mim at most 1)."""
    spans = []
    for _ in range(n):
        left = rng.randint(0, 3 * n)
        spans.append((left, left + rng.randint(1, max(2, n // 6))))
    spans.sort()
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if spans[j][0] <= spans[i][1]
    )
    return edges, tuple(range(n))


def _random_shape(rng: random.Random, n: int, m: int):
    """G(n, m) on a shuffled caterpillar layout."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(sorted(rng.sample(pairs, m)))
    order = list(range(n))
    rng.shuffle(order)
    return edges, tuple(order)


def _terminals(rng: random.Random, n: int, edges, k: int) -> Tuple[int, ...]:
    """k pairwise non-adjacent vertices of the largest component."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, best = set(), set()
    for root in range(n):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        if len(comp) > len(best):
            best = comp
    pool = sorted(best)
    rng.shuffle(pool)
    chosen: List[int] = []
    for v in pool:
        if len(chosen) < k and not adj[v] & set(chosen):
            chosen.append(v)
    return tuple(int(v in chosen) for v in range(n))


# Suite shapes: (family, problem, n, edges for random graphs, terminals, draw).
# `draw` picks the suite seed string; the random shapes were picked among
# the first five draws of each size so that one round takes a few seconds
# and the layouts span mim 3 to 5.  The largest instance of each workload
# comes last: its time is reported as largest_s.
SUITES = {
    "interval": (
        ("interval", "sfvs", 50, 0, 0, 0),
        ("interval", "sfvs", 85, 0, 0, 0),
        ("interval", "sfvs", 120, 0, 0, 0),
    ),
    "high_mim": (
        ("random", "sfvs", 12, 24, 0, 4),
        ("random", "sfvs", 13, 26, 0, 2),
        ("random", "sfvs", 14, 28, 0, 1),
        ("random", "sfvs", 15, 30, 0, 3),
    ),
    "cut_fvs": (
        ("random", "nmc", 11, 16, 3, 0),
        ("random", "nmc", 12, 18, 4, 2),
        ("random", "fvs", 14, 20, 0, 1),
        ("interval", "nmc", 80, 0, 3, 0),
        ("interval", "fvs", 100, 0, 0, 0),
    ),
}
WEIGHTED = {"cut_fvs"}


def _shape(family, problem, n, m, k, draw) -> Case:
    rng = random.Random(f"perfbench-suite:{family}:{n}:{m}:{draw}")
    if family == "interval":
        edges, order = _interval_shape(rng, n)
    else:
        edges, order = _random_shape(rng, n, m)
    if problem == "nmc":
        flags = _terminals(rng, n, edges, k)
    elif problem == "fvs":
        flags = (1,) * n
    else:
        chosen = set(rng.sample(range(n), n // 3))
        flags = tuple(int(v in chosen) for v in range(n))
    return Case(f"{problem}-{family}-n{n}", family, problem, tuple(f"v{i}" for i in range(n)),
                (1,) * n, flags, edges, order)


def _relabel(case: Case, rng: random.Random, weighted: bool) -> Case:
    n = case.n
    new = list(range(n))
    rng.shuffle(new)  # old id -> new id
    old = [0] * n
    for o, v in enumerate(new):
        old[v] = o
    weights = tuple(rng.randint(1, 9) for _ in range(n)) if weighted \
        else tuple(case.weights[old[v]] for v in range(n))
    return replace(
        case,
        weights=weights,
        s_flags=tuple(case.s_flags[old[v]] for v in range(n)),
        edges=tuple(sorted((min(new[u], new[v]), max(new[u], new[v])) for u, v in case.edges)),
        order=tuple(new[v] for v in case.order),
    )


def make_cases(workload: str, seed: int) -> List[Case]:
    """The instances of one round of `workload` for `seed`, largest last."""
    if workload not in SUITES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [_relabel(_shape(*spec), rng, workload in WEIGHTED) for spec in SUITES[workload]]
