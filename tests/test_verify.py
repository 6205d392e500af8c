"""Independent checkers: brute-force references, representativity audits,
crossing-structure contractions and the index-existence property."""

import random

import pytest

from subsetfvs.graphs import Graph, Instance, bits, is_forest, is_s_forest
from subsetfvs.layouts import layout_from_order, mim_bipartite
from subsetfvs.oracles import (
    BlockPartition,
    IndexTuple,
    brute_force_fvs,
    brute_force_sfvs,
    build_index_from_cover,
    check_represents,
    check_x2plus,
    connected_components,
    extract_vertex_cover,
    find_scontraction,
    is_complement_solution,
    is_partial_solution,
    lies_on_cycle,
    node_context,
    s_forest_by_cycles,
    scontraction_conditions,
)

EMPTY_INDEX = IndexTuple(frozenset(), frozenset(), 0, frozenset(), frozenset())


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def greedy_s_forest(g, s, rng):
    """A maximal random S-forest, grown vertex by vertex."""
    kept = 0
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if is_s_forest(g, kept | (1 << v), s):
            kept |= 1 << v
    return kept


# --------------------------------------------------------------- S-forests


def test_lies_on_cycle_examples():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert lies_on_cycle(tri, 0b111, 0)
    assert not lies_on_cycle(tri, 0b011, 0)
    path = Graph(3, [(0, 1), (1, 2)])
    assert not lies_on_cycle(path, 0b111, 1)


def test_cycle_route_agrees_with_component_route():
    # two unrelated definitions of "S-forest" must agree on every subset
    rng = random.Random(3)
    answers = {False: 0, True: 0}
    for n in range(1, 10):
        for _ in range(20 if n < 8 else 8):
            g = random_graph(rng, n, rng.choice((0.25, 0.4, 0.6)))
            for s in (rng.randrange(1 << n), rng.randrange(1 << n)):
                for x in range(1 << n):
                    want = s_forest_by_cycles(g, x, s)
                    assert is_s_forest(g, x, s) == want, (n, list(g.edges()), x, s)
                    answers[want] += 1
    assert min(answers.values()) > 1000, answers
    cases = [
        # an S-vertex with two neighbors in one non-S component
        (Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), 0b1111, 0b0001, False),
        (Graph(3, [(0, 1), (0, 2), (1, 2)]), 0b111, 0b001, False),
        # two adjacent S-vertices that share a component, then two that
        # see different ones
        (Graph(3, [(0, 1), (0, 2), (1, 2)]), 0b111, 0b011, False),
        (Graph(4, [(0, 1), (0, 2), (1, 3)]), 0b1111, 0b0011, True),
        # a non-S cycle with a pendant S-vertex
        (Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), 0b1111, 0b1000, True),
    ]
    n = 3000
    cycle = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    cases.append((cycle, cycle.vertices, 1 << 1234, False))
    cases.append((cycle, cycle.vertices & ~(1 << 7), 1 << 1234, True))
    for g, x, s, want in cases:
        assert is_s_forest(g, x, s) is want
        assert s_forest_by_cycles(g, x, s) is want


# ------------------------------------------------------------ brute forces


def test_brute_force_small_examples():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert brute_force_sfvs(Instance(tri, 0b111, (1, 1, 1))) == (2, 0b011)
    assert brute_force_sfvs(Instance(tri, 0b111, (5, 1, 1))) == (6, 0b011)
    # nothing tracked: keep everything
    assert brute_force_sfvs(Instance(tri, 0, (1, 1, 1))) == (3, 0b111)


def test_brute_force_result_is_optimal_by_scan():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        s = rng.randrange(1 << g.n)
        weights = tuple(rng.randint(-3, 9) for _ in range(g.n))
        inst = Instance(g, s, weights)
        w, mask = brute_force_sfvs(inst)
        assert s_forest_by_cycles(g, mask, s)
        assert inst.weight_of(mask) == w
        for x in range(1 << g.n):
            if s_forest_by_cycles(g, x, s):
                assert inst.weight_of(x) <= w


def test_brute_force_fvs_examples():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert brute_force_fvs(k4, (1, 1, 1, 1)) == (2, 0b0011)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert brute_force_fvs(c4, (1, 1, 1, 1)) == (3, 0b0111)
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert brute_force_fvs(tree, (2, 1, 1, 1)) == (5, 0b1111)


def test_brute_force_fvs_matches_all_tracked_sfvs():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        weights = tuple(rng.randint(-2, 8) for _ in range(g.n))
        inst = Instance(g, g.vertices, weights)
        assert brute_force_fvs(g, weights)[0] == brute_force_sfvs(inst)[0]


# -------------------------------------------------------- representativity


def test_check_represents_reflexive_and_subset():
    inst = Instance(Graph(2, []), 0b11, (1, 1))
    table = {0: 0, 0b01: 1}
    assert check_represents(inst, 0b01, table, table)
    # an empty reduction loses the answer for every completion
    assert not check_represents(inst, 0b01, table, {})
    # reduced entries must literally come from the untrimmed table
    assert not check_represents(inst, 0b01, table, {0: 1})


def test_check_represents_accepts_dominated_drop():
    # on the all-tracked triangle the pair {0,1} dies once 2 arrives, so
    # the completion {2} is answered by a lone twin: the heavy one must stay
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = Instance(g, 0b111, (5, 3, 1))
    full = {m: inst.weight_of(m) for m in range(4)}
    no_light_twin = {m: w for m, w in full.items() if m != 0b010}
    assert check_represents(inst, 0b011, full, no_light_twin)
    no_heavy_twin = {m: w for m, w in full.items() if m != 0b001}
    assert not check_represents(inst, 0b011, full, no_heavy_twin)


def test_check_represents_far_side_guard():
    inst = Instance(Graph(14, []), 0, (0,) * 14)
    table = {0: 0}
    with pytest.raises(ValueError):
        check_represents(inst, 0b1, table, table)


# ----------------------------------------------------- degree bound on cuts


def test_x2plus_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert check_x2plus(star, 0b0001, 0b1110)
    matching = Graph(4, [(0, 2), (1, 3)])
    assert check_x2plus(matching, 0b0011, 0b1100)


def test_x2plus_on_random_forests():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = []
        g = Graph(n, [])
        for e in pool:
            cand = Graph(n, edges + [e])
            if is_forest(cand, cand.vertices):
                edges.append(e)
                g = cand
        x = rng.randrange(1 << n)
        assert check_x2plus(g, x, g.vertices & ~x)


# ------------------------------------------------------------- contraction


def test_find_scontraction_keeps_acyclic_structure_unchanged():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p = find_scontraction(g, 0, 0b0011, 0b1100)
    assert p.blocks == (0b1100,)


def test_find_scontraction_merges_blocks_of_contracted_cycle():
    # blocks {1} and {2} close a four-cycle with the two near components
    # {0} and {3}; the far blocks get merged, the near ones never do
    g = Graph(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
    p = find_scontraction(g, 0, 0b1001, 0b0110)
    assert p.blocks == (0b0110,)


def test_find_scontraction_leaves_s_vertices_out():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p = find_scontraction(g, 0b0100, 0b0011, 0b1100)
    assert p.blocks == (0b1000,)


def test_find_scontraction_rejects_overlap():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        find_scontraction(g, 0, 0b01, 0b01)


def test_scontraction_conditions_on_random_splits():
    rng = random.Random(59)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        s = rng.randrange(1 << g.n)
        full = greedy_s_forest(g, s, rng)
        x = full & rng.randrange(1 << g.n)
        y = full & ~x
        p = find_scontraction(g, s, x, y)
        assert scontraction_conditions(g, s, x, y, p)
        # blocks partition y minus S and stay pairwise non-adjacent
        union = 0
        for b in p.blocks:
            assert not union & b
            union |= b
        assert union == y & ~s
        cover = extract_vertex_cover(g, s, x, y, p)
        assert len(cover) <= 4 * mim_bipartite(g, x, y)


# ------------------------------------------------------------ vertex cover


def test_extract_cover_star_and_isolated_edge():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    p = connected_components(star, 0b1110)
    assert extract_vertex_cover(star, 0, 0b0001, 0b1110, p) == [("xn", 0b0001)]

    edge = Graph(2, [(0, 1)])
    q = connected_components(edge, 0b10)
    assert extract_vertex_cover(edge, 0, 0b01, 0b10, q) == [("xn", 0b01)]
    assert extract_vertex_cover(edge, 0b01, 0b01, 0b10, q) == [("xs", 0b01)]


# --------------------------------------------------------- index existence


def split_context(inst, x, y, rng):
    """A caterpillar node whose side contains x and avoids y."""
    g = inst.graph
    spare = [v for v in bits(g.vertices & ~(x | y))]
    rng.shuffle(spare)
    take = spare[: rng.randint(0, len(spare))]
    vx = x | 0
    for v in take:
        vx |= 1 << v
    if vx == 0 or vx == g.vertices:
        return None
    order = sorted(bits(vx)) + sorted(bits(g.vertices & ~vx))
    lay = layout_from_order(order)
    node = next(z for z in lay.postorder() if lay.below[z] == vx)
    return node_context(inst, lay, node)


def test_every_sampled_split_has_a_shared_index():
    """For a random S-forest split across a random cut, the cover-built
    index admits the near side as a partial solution and the far side as
    its complement."""
    rng = random.Random(67)
    hits = 0
    while hits < 60:
        g = random_graph(rng, rng.randint(3, 8), 0.4)
        s = rng.randrange(1 << g.n)
        weights = (1,) * g.n
        inst = Instance(g, s, weights)
        full = greedy_s_forest(g, s, rng)
        x = full & rng.randrange(1 << g.n)
        y = full & ~x
        ctx = split_context(inst, x, y, rng)
        if ctx is None:
            continue
        hits += 1
        p = find_scontraction(g, s, x, y)
        cover = extract_vertex_cover(g, s, x, y, p)
        i = build_index_from_cover(ctx, x, cover)
        assert is_partial_solution(inst, ctx, x, i)
        assert is_complement_solution(inst, ctx, y, p, i)


# ----------------------------------------------------- far-side conditions


def test_complement_empty_far_solution():
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, 0)
    assert is_complement_solution(inst, ctx, 0, BlockPartition((), ()), EMPTY_INDEX)


def test_complement_rejects_unmatched_far_vertex_near_rest():
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, 0)
    i = EMPTY_INDEX._replace(x_rest=ctx.fam_x1.rep_of(0b001))
    assert not is_complement_solution(inst, ctx, 0b010, BlockPartition((), ()), i)


def test_complement_allows_untracked_cycle_inside_one_block():
    # the far side carries a plain cycle with no tracked vertex; contracted
    # into a single block it looks like a tree and passes
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (0, 1)])
    inst = Instance(g, 0b00001, (1,) * 5)
    lay = layout_from_order([0, 1, 2, 3, 4])
    ctx = node_context(inst, lay, 0)
    p = BlockPartition((0b11110,), (False,))
    i = EMPTY_INDEX._replace(yvc_ns=frozenset({ctx.fam_y2.rep_of(0b11110)}))
    assert is_complement_solution(inst, ctx, 0b11110, p, i)


def test_complement_requires_unique_far_matches():
    g = Graph(3, [(0, 1), (0, 2)])
    inst = Instance(g, 0, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, 0)
    # blocks {1} and {2} share their 2-neighbor class; one far set cannot
    # pick between them
    p = BlockPartition((0b010, 0b100), (False, False))
    i = EMPTY_INDEX._replace(yvc_ns=frozenset({ctx.fam_y2.rep_of(0b010)}))
    assert not is_complement_solution(inst, ctx, 0b110, p, i)
