"""Reference optima and a feasibility check made apart from the solver.

Nothing here imports the package: optima come from integer programs solved
by ``scipy.optimize.milp`` and graph tests from ``networkx``.

* interval sfvs / fvs: one covering row per triangle that meets S.  An
  induced subgraph of a chordal graph is chordal, and in a chordal graph
  the shortest cycle through a vertex is a triangle, so "no triangle through
  S survives" is exactly "no cycle through S survives".
* random sfvs / fvs: covering rows for cycles through S, added lazily from
  the cycles the current optimum still keeps, until it keeps none.
* nmc: the region-assignment program.  Each vertex is deleted (y_v) or
  assigned to one terminal's region (x_v,t), y_v + sum_t x_v,t = 1, each
  terminal sits in its own region, and x_u,t - x_v,t <= y_u + y_v on every
  edge, so kept neighbours always share a region.

Run as a script to recompute the references of a workload from its seeds:

    python3 perfbench/reference.py --workload interval --seeds 1-10
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from instances import WORKLOADS, Case, make_cases


def _graph(case: Case, keep: Optional[Iterable[int]] = None) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(case.n) if keep is None else keep)
    if keep is None:
        g.add_edges_from(case.edges)
    else:
        kept = set(keep)
        g.add_edges_from((u, v) for u, v in case.edges if u in kept and v in kept)
    return g


def _tracked(case: Case) -> Set[int]:
    if case.problem == "fvs":
        return set(range(case.n))
    return {v for v, f in enumerate(case.s_flags) if f}


def _solve_covering(weights: Sequence[int], rows: List[Sequence[int]]) -> Set[int]:
    """Minimum-weight 0/1 vector y with sum(y[r]) >= 1 for every row r."""
    n = len(weights)
    if not rows:
        return set()
    data, ri, ci = [], [], []
    for i, row in enumerate(rows):
        for v in row:
            data.append(1.0)
            ri.append(i)
            ci.append(v)
    a = coo_matrix((data, (ri, ci)), shape=(len(rows), n)).tocsr()
    res = milp(
        c=np.asarray(weights, dtype=float),
        constraints=LinearConstraint(a, lb=1.0, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return {v for v in range(n) if res.x[v] > 0.5}


def _triangle_rows(case: Case) -> List[Tuple[int, int, int]]:
    g = _graph(case)
    s = _tracked(case)
    rows = []
    for u, v in case.edges:
        for w in nx.common_neighbors(g, u, v):
            if w > v and (u in s or v in s or w in s):
                rows.append((u, v, w))
    return rows


def _cycle_through(g: nx.Graph, s: int) -> Optional[List[int]]:
    """A shortest cycle of g through s, or None."""
    best = None
    h = g.subgraph(set(g) - {s})
    for a, b in itertools.combinations(sorted(g[s]), 2):
        try:
            path = nx.shortest_path(h, a, b)
        except nx.NetworkXNoPath:
            continue
        if best is None or len(path) < len(best):
            best = path
    return None if best is None else [s] + best


def _sforest_violations(case: Case, keep: Set[int]) -> List[int]:
    """S vertices of the kept side that lie in a biconnected block of three
    or more vertices, i.e. on a cycle of the kept subgraph."""
    s = _tracked(case)
    g = _graph(case, keep)
    bad: Set[int] = set()
    for block in nx.biconnected_components(g):
        if len(block) >= 3:
            bad |= block & s
    return sorted(bad)


def _lazy_cycle_deletion(case: Case) -> Set[int]:
    rows: List[Tuple[int, ...]] = []
    seen = set()
    while True:
        deleted = _solve_covering(case.weights, rows)
        keep = set(range(case.n)) - deleted
        bad = _sforest_violations(case, keep)
        if not bad:
            return deleted
        g = _graph(case, keep)
        for s in bad:
            cyc = _cycle_through(g, s)
            key = tuple(sorted(cyc))
            if key not in seen:
                seen.add(key)
                rows.append(key)


def _nmc_deletion(case: Case) -> Set[int]:
    n = case.n
    terms = case.terminals
    k = len(terms)
    nv = n * (k + 1)  # y_v at v, x_v,t at n + v * k + t

    def x(v: int, t: int) -> int:
        return n + v * k + t

    rows_a, rows_lb, rows_ub = [], [], []
    for v in range(n):
        row = {v: 1.0}
        for t in range(k):
            row[x(v, t)] = 1.0
        rows_a.append(row)
        rows_lb.append(1.0)
        rows_ub.append(1.0)
    for t, tv in enumerate(terms):
        rows_a.append({x(tv, t): 1.0})
        rows_lb.append(1.0)
        rows_ub.append(1.0)
    for u, v in case.edges:
        for t in range(k):
            for a, b in ((u, v), (v, u)):
                rows_a.append({x(a, t): 1.0, x(b, t): -1.0, a: -1.0, b: -1.0})
                rows_lb.append(-np.inf)
                rows_ub.append(0.0)
    data, ri, ci = [], [], []
    for i, row in enumerate(rows_a):
        for j, val in row.items():
            data.append(val)
            ri.append(i)
            ci.append(j)
    a = coo_matrix((data, (ri, ci)), shape=(len(rows_a), nv)).tocsr()
    cost = np.zeros(nv)
    cost[:n] = case.weights
    res = milp(
        c=cost,
        constraints=LinearConstraint(a, lb=np.array(rows_lb), ub=np.array(rows_ub)),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return {v for v in range(n) if res.x[v] > 0.5}


def optimal_deletion(case: Case) -> Set[int]:
    """One optimal deletion set of the case, found by an integer program."""
    if case.problem == "nmc":
        return _nmc_deletion(case)
    if case.family == "interval":
        return _solve_covering(case.weights, _triangle_rows(case))
    return _lazy_cycle_deletion(case)


def objective_of(case: Case, deleted: Set[int]) -> int:
    """The solver's `objective_weight` for a deletion set: the deleted weight
    for nmc, the kept weight otherwise."""
    dw = sum(case.weights[v] for v in deleted)
    return dw if case.problem == "nmc" else sum(case.weights) - dw


def reference_optimum(case: Case) -> int:
    return objective_of(case, optimal_deletion(case))


def check_report(case: Case, report: Dict, reference: int) -> List[str]:
    """Reasons why a `sfvs solve --json` report is wrong; empty when it
    is a feasible optimum of the case."""
    problems = []
    if report.get("problem") != case.problem or report.get("n") != case.n \
            or report.get("m") != len(case.edges):
        problems.append("report header does not match the input")
    ids = {name: i for i, name in enumerate(case.names)}
    names = report.get("deletion_set", [])
    if len(set(names)) != len(names) or any(name not in ids for name in names):
        return problems + ["deletion set names unknown or repeated vertices"]
    deleted = {ids[name] for name in names}
    keep = set(range(case.n)) - deleted
    if case.problem == "nmc":
        terms = case.terminals
        if deleted & set(terms):
            problems.append("cut deletes a terminal")
        g = _graph(case, keep)
        comp = {}
        for i, part in enumerate(nx.connected_components(g)):
            for v in part:
                comp[v] = i
        alive = [comp[t] for t in terms if t in comp]
        if len(set(alive)) != len(alive):
            problems.append("cut does not separate the terminals")
    elif _sforest_violations(case, keep):
        problems.append("an S vertex of the kept side lies on a cycle")
    kept_w = sum(case.weights[v] for v in keep)
    if report.get("sforest_weight") != kept_w:
        problems.append("sforest_weight differs from the kept weight")
    if report.get("objective_weight") != objective_of(case, deleted):
        problems.append("objective_weight differs from the deletion set's weight")
    if report.get("objective_weight") != reference:
        problems.append(
            f"objective {report.get('objective_weight')} is not the optimum {reference}"
        )
    return problems


def _seed_range(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        for seed in _seed_range(args.seeds):
            refs = {c.name: reference_optimum(c) for c in make_cases(workload, seed)}
            print(json.dumps({"workload": workload, "seed": seed, "optima": refs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
