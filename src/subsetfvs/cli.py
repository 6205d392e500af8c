"""Batch front end: file IO, solver dispatch, instance generation.

Graph files are DIMACS-adjacent text: a header line `p sfvs <n> <m>`,
one `v <name> <weight> <0|1>` line per vertex (the trailing flag marks
membership in S), and one `e <name> <name>` line per edge.  Lines starting
with `c` are comments.  Layout files hold the nested-parenthesis form
produced by serialize_layout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .graphs import CheckError, Graph, Instance, bits, mask_of
from .layouts import (
    RootedLayout,
    interval_layout,
    intervals_intersect,
    layout_from_order,
    parse_layout,
    permutation_layout,
    serialize_layout,
    width,
)
from .dp import solve
from .multiway import NmcInstance, solve_nmc


# The largest instance `generate` writes.  It refuses a larger --n before it
# builds anything: the random kind walks all n^2 vertex pairs in Python.
GENERATE_MAX_N = 5000


class CliError(Exception):
    """Parse or validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1, like every other parse error;
    argparse's own code 2 means an oracle mismatch here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def parse_graph_file(text: str) -> Tuple[Graph, Tuple[int, ...], int, List[str]]:
    """Returns (graph, weights, s mask, vertex names in id order)."""
    header = None
    vlines: List[Tuple[str, int, int]] = []
    elines: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise CliError(f"line {lineno}: repeated header")
            if len(parts) != 4 or parts[1] != "sfvs":
                raise CliError(f"line {lineno}: header must be 'p sfvs <n> <m>'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise CliError(f"line {lineno}: bad header counts")
            if min(header) < 0:
                raise CliError(f"line {lineno}: header counts must be >= 0")
            if header[0] == 0:
                raise CliError(f"line {lineno}: header vertex count is 0, not >= 1")
        elif parts[0] == "v":
            if len(parts) != 4:
                raise CliError(f"line {lineno}: vertex line needs name, weight, s-flag")
            try:
                w = int(parts[2])
                flag = int(parts[3])
            except ValueError:
                raise CliError(f"line {lineno}: bad vertex numbers")
            if flag not in (0, 1):
                raise CliError(f"line {lineno}: s-flag must be 0 or 1")
            if any(c in parts[1] for c in "(),"):
                raise CliError(f"line {lineno}: vertex name {parts[1]!r} holds '(', ')' or ','")
            vlines.append((parts[1], w, flag))
        elif parts[0] == "e":
            if len(parts) != 3:
                raise CliError(f"line {lineno}: edge line needs two names")
            elines.append((parts[1], parts[2]))
        else:
            raise CliError(f"line {lineno}: unknown line type {parts[0]!r}")
    if header is None:
        raise CliError("missing 'p sfvs' header")
    n, m = header
    if len(vlines) != n:
        raise CliError(f"expected {n} vertex lines, found {len(vlines)}")
    if len(elines) != m:
        raise CliError(f"expected {m} edge lines, found {len(elines)}")
    names = [name for name, _, _ in vlines]
    if len(set(names)) != len(names):
        raise CliError("duplicate vertex name")
    ids = {name: i for i, name in enumerate(names)}
    edges = []
    for a, b in elines:
        if a not in ids or b not in ids:
            raise CliError(f"edge references unknown vertex {a if a not in ids else b!r}")
        edges.append((ids[a], ids[b]))
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise CliError(str(exc))
    weights = tuple(w for _, w, _ in vlines)
    s_mask = mask_of(i for i, (_, _, flag) in enumerate(vlines) if flag)
    return g, weights, s_mask, names


def write_graph_file(g: Graph, weights: Sequence[int], s_mask: int, names: Sequence[str]) -> str:
    lines = [f"p sfvs {g.n} {g.edge_count}"]
    for i, name in enumerate(names):
        lines.append(f"v {name} {weights[i]} {(s_mask >> i) & 1}")
    for u, v in g.edges():
        lines.append(f"e {names[u]} {names[v]}")
    return "\n".join(lines) + "\n"


def _name_list(arg: str, ids: dict) -> List[int]:
    out = []
    for name in arg.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in ids:
            raise CliError(f"unknown vertex name {name!r}")
        out.append(ids[name])
    if not out:
        raise CliError("empty vertex list")
    return out


def _run_solve(args) -> int:
    if args.s is not None and args.problem != "sfvs":
        raise CliError(f"--s applies to --problem sfvs only, not {args.problem}")
    if args.terminals is not None and args.problem != "nmc":
        raise CliError(f"--terminals applies to --problem nmc only, not {args.problem}")
    try:
        with open(args.graph) as fh:
            g, weights, s_mask, names = parse_graph_file(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ids = {name: i for i, name in enumerate(names)}

    if args.layout:
        with open(args.layout) as fh:
            layout = parse_layout(fh.read(), names)
    else:
        layout = layout_from_order(range(g.n))

    # The solve always runs in one thread; --threads is only validated.
    if args.threads < 0:
        raise CliError("--threads must be >= 0")

    if args.oracle:
        # The reference route loads only when a check is asked for.
        from . import oracles

        limit = oracles.BRUTE_LIMIT
        if g.n > limit:
            print(f"error: n={g.n} exceeds the oracle limit {limit}", file=sys.stderr)
            return 3

    w_gf2, _ = width(g, layout, "gf2")
    w_rat, _ = width(g, layout, "rational")
    w_mim, _ = width(g, layout, "mim")

    started = time.perf_counter()
    if args.problem == "nmc":
        terms = tuple(bits(s_mask) if args.terminals is None else _name_list(args.terminals, ids))
        nmc = NmcInstance(g, terms, tuple(weights))
        res = solve_nmc(nmc, layout)
        deletion = res.cut
        objective = res.weight
    else:
        s_set = g.vertices if args.problem == "fvs" else s_mask
        if args.s is not None:
            s_set = mask_of(_name_list(args.s, ids))
        inst = Instance(g, s_set, tuple(weights))
        res = solve(inst, layout)
        deletion = res.deletion
        objective = res.weight
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if args.oracle:
        if args.problem == "nmc":
            ref = oracles.brute_force_nmc(nmc)
            ref_w = None if ref is None else ref.weight
        elif args.problem == "fvs":
            ref_w, _ = oracles.brute_force_fvs(g, weights)
        else:
            ref_w, _ = oracles.brute_force_sfvs(inst)
        if ref_w != objective:
            print("error: oracle disagrees with the solver", file=sys.stderr)
            return 2

    kept = g.vertices & ~deletion
    report = {
        "problem": args.problem,
        "n": g.n,
        "m": g.edge_count,
        "width": {"gf2": w_gf2, "rational": w_rat, "mim": w_mim},
        "objective_weight": objective,
        "deletion_set": [names[v] for v in bits(deletion)],
        "sforest_weight": sum(weights[v] for v in bits(kept)),
        "oracle_checked": args.oracle,
        "elapsed_ms": elapsed_ms,
    }
    payload = json.dumps(report, indent=2) + "\n"
    if args.json == "-":
        sys.stdout.write(payload)
    else:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
        deleted = ",".join(report["deletion_set"]) or "(none)"
        print(f"{args.problem}: objective {objective}, deleted {deleted}")
    return 0


def _run_generate(args) -> int:
    if args.n <= 0:
        raise CliError("--n must be positive")
    if args.n > GENERATE_MAX_N:
        raise CliError(f"--n must be at most {GENERATE_MAX_N}")
    if not 0 <= args.p <= 1:
        raise CliError("--p must be a probability in [0, 1]")
    rng = random.Random(args.seed)
    n = args.n
    names = [f"v{i}" for i in range(n)]
    written = ""  # files written before the graph and the layout
    if args.kind == "random":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < args.p]
        g = Graph(n, edges)
        s_mask = mask_of(v for v in range(n) if rng.random() < 1 / 3)
        order = list(range(n))
        rng.shuffle(order)
        layout = layout_from_order(order)
    elif args.kind == "permutation":
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]]
        g = Graph(n, edges)
        s_mask = mask_of(v for v in range(n) if rng.random() < 1 / 3)
        layout = permutation_layout(perm, g)
    else:
        intervals = []
        for _ in range(n):
            left = rng.randint(0, 3 * n)
            intervals.append((left, left + rng.randint(1, max(2, n // 2))))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if intervals_intersect(intervals[i], intervals[j])
        ]
        g = Graph(n, edges)
        s_mask = mask_of(v for v in range(n) if rng.random() < 1 / 3)
        layout = interval_layout(intervals, g)
        with open(args.out + ".intervals", "w") as fh:
            for name, (l, r) in zip(names, intervals):
                fh.write(f"{name} {l} {r}\n")
        written = f"{args.out}.intervals, "
    with open(args.out + ".gr", "w") as fh:
        fh.write(write_graph_file(g, [1] * n, s_mask, names))
    with open(args.out + ".layout", "w") as fh:
        fh.write(serialize_layout(layout, names) + "\n")
    print(f"wrote {written}{args.out}.gr and {args.out}.layout")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sfvs",
        description="Exact subset feedback vertex set / multiway cut solver over rooted layouts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("solve", help="solve an instance file")
    run_p.add_argument("--graph", required=True, help="instance file")
    run_p.add_argument("--layout", help="layout file (default: caterpillar in id order)")
    run_p.add_argument("--problem", choices=["sfvs", "fvs", "nmc"], default="sfvs")
    run_p.add_argument("--s", help="comma-separated S vertices (sfvs; overrides file flags)")
    run_p.add_argument("--terminals", help="comma-separated terminals (nmc)")
    run_p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and checked to be >= 0; the solve runs in one thread",
    )
    run_p.add_argument("--json", help="write a JSON report to PATH, or - for stdout")
    run_p.set_defaults(fn=_run_solve)

    gen_p = sub.add_parser("generate", help="write a random instance")
    gen_p.add_argument("kind", choices=["random", "interval", "permutation"])
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--p", type=float, default=0.3, help="edge probability (random kind)")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", default="instance", help="output path prefix")
    gen_p.set_defaults(fn=_run_generate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckError as exc:
        print(f"error: the answer failed a check: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the instance is too large for this layout", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
