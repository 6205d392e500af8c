"""Metamorphic invariants of the optimum at sizes no brute force reaches.

Each test solves weighted subset FVS on interval graphs with n >= 85 on
their certificate layouts, changes the instance in a way whose effect on the
optimum is known, and solves again.  Layouts are carried over by name
through `serialize_layout` and `parse_layout`.
"""

import random

import pytest

from subsetfvs.dp import solve
from subsetfvs.graphs import Graph, Instance, bits, mask_of
from subsetfvs.layouts import interval_layout, intervals_intersect, parse_layout, serialize_layout


def interval_instance(seed, n):
    """Weighted sfvs instance on n random intervals (left ends in [0, 3n],
    lengths in [1, n/6]), with |S| about n/3, and its certificate layout."""
    rng = random.Random(seed)
    intervals = []
    for _ in range(n):
        left = rng.randint(0, 3 * n)
        intervals.append((left, left + rng.randint(1, n // 6)))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if intervals_intersect(intervals[i], intervals[j])
    ]
    g = Graph(n, edges)
    s_set = mask_of(v for v in range(n) if rng.random() < 1 / 3)
    weights = tuple(rng.randint(1, 5) for _ in range(n))
    return Instance(g, s_set, weights), interval_layout(intervals, g)


def names_of(n, prefix="v"):
    return [f"{prefix}{i}" for i in range(n)]


def optimum(inst, layout):
    return solve(inst, layout).weight


@pytest.fixture(scope="module", params=[85, 120])
def base(request):
    inst, lay = interval_instance("metamorphic-a", request.param)
    best = optimum(inst, lay)
    # Some vertex must go, or the invariants below would hold trivially.
    assert 0 < best < sum(inst.weights)
    return inst, lay, best


def test_relabelling_keeps_the_optimum(base):
    inst, lay, best = base
    g, n = inst.graph, inst.graph.n
    perm = list(range(n))
    random.Random(5).shuffle(perm)  # vertex v becomes perm[v]
    names = names_of(n)
    new_names, weights = [""] * n, [0] * n
    for v in range(n):
        new_names[perm[v]] = names[v]
        weights[perm[v]] = inst.weights[v]
    moved = Instance(
        Graph(n, [(perm[u], perm[v]) for u, v in g.edges()]),
        mask_of(perm[v] for v in bits(inst.s_set)),
        tuple(weights),
    )
    moved_lay = parse_layout(serialize_layout(lay, names), new_names)
    assert moved_lay.below[moved_lay.root] == moved.graph.vertices
    assert perm != list(range(n))
    assert optimum(moved, moved_lay) == best


def test_disjoint_union_adds_the_optima(base):
    inst_a, lay_a, best_a = base
    inst_b, lay_b = interval_instance("metamorphic-b", 90)
    best_b = optimum(inst_b, lay_b)
    na, nb = inst_a.graph.n, inst_b.graph.n
    union = Instance(
        Graph(na + nb, list(inst_a.graph.edges()) + [(na + u, na + v) for u, v in inst_b.graph.edges()]),
        inst_a.s_set | inst_b.s_set << na,
        inst_a.weights + inst_b.weights,
    )
    names_a, names_b = names_of(na, "a"), names_of(nb, "b")
    text = f"({serialize_layout(lay_a, names_a)},{serialize_layout(lay_b, names_b)})"
    assert optimum(union, parse_layout(text, names_a + names_b)) == best_a + best_b


@pytest.mark.parametrize("w", [0, 1, 7])
def test_pendant_vertex_outside_s_adds_its_weight(base, w):
    """A pendant vertex lies on no cycle, so every S-forest takes it."""
    inst, lay, best = base
    n = inst.graph.n
    anchor = max(range(n), key=lambda v: inst.graph.adj[v].bit_count())
    grown = Instance(
        Graph(n + 1, list(inst.graph.edges()) + [(anchor, n)]),
        inst.s_set,
        inst.weights + (w,),
    )
    names = names_of(n + 1)
    text = f"({serialize_layout(lay, names[:n])},{names[n]})"
    assert optimum(grown, parse_layout(text, names)) == best + w
