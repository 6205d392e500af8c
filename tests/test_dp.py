"""Table dynamics: index enumeration, admissibility, signatures, reduction,
merging and the full bottom-up solve."""

import hashlib
import random
from functools import reduce
from operator import or_

import pytest

from subsetfvs import dp, layouts, oracles
from subsetfvs.graphs import (
    CheckError,
    Graph,
    Instance,
    bits,
    components_masks,
    is_s_forest,
    lex_order,
    mask_of,
)
from subsetfvs.layouts import (
    interval_layout,
    intervals_intersect,
    layout_from_order,
    mim_cut,
    parse_layout,
    width,
)
from subsetfvs.dp import (
    SolveResult,
    _bucket_keys,
    _profile,
    merge_tables,
    reduce_table,
    solve,
)
from subsetfvs.multiway import NmcInstance, extend_layout, reduce_to_sfvs
from subsetfvs.oracles import (
    NEG_INF,
    IndexTuple,
    aux_graph,
    best,
    brute_force_sfvs,
    bucket_keys_by_candidate,
    cc_signature,
    check_represents,
    enumerate_indices,
    far_candidates,
    index_count,
    is_partial_solution,
    lex_key,
    node_context,
    profile_solution,
    rep_of,
    reps,
    s_forest_by_cycles,
    xs_pool,
    ys_pool,
)

EMPTY_INDEX = IndexTuple(frozenset(), frozenset(), 0, frozenset(), frozenset())


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def node_for(layout, below_mask):
    return next(x for x in layout.postorder() if layout.below[x] == below_mask)


def context_for(inst, below_mask, order=None):
    lay = layout_from_order(order or list(range(inst.n)))
    return node_context(inst, lay, node_for(lay, below_mask))


def _force_key_route(monkeypatch):
    monkeypatch.setattr(dp, "completion_route", lambda ctx, rows: False)
    monkeypatch.setattr(dp, "signature_route", lambda ctx, survivors: False)


@pytest.fixture
def key_route(monkeypatch):
    """Every node takes the key route.  The tests that pin its tables, its
    keep rule and its signature skip run on it, whatever `completion_route`
    and `signature_route` would pick for their nodes."""
    _force_key_route(monkeypatch)


def _profile_solution(inst, ctx, x, labels):
    """The profile `reduce_table` builds for row x, from the structure
    `ctx.blocks` carries, or None when x can never be extended; the store
    of a `node_context` builds it for any set.  The far groups are built
    again on each call; once `labels` numbers the far labels, they come out
    the same."""
    st = ctx.blocks.of(ctx.node, x)
    if st.excess:
        return None
    return _profile(ctx, x, x & inst.s_set, st, labels, dp._far_groups(ctx, labels))


# ---------------------------------------------------------------- indices


def test_index_stream_matches_closed_form():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(3, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        inst = Instance(Graph(n, edges), rng.randrange(1 << n), (1,) * n)
        lay = layout_from_order(list(range(n)))
        for x in lay.postorder():
            if lay.is_leaf(x):
                continue
            ctx = node_context(inst, lay, x)
            assert sum(1 for _ in enumerate_indices(ctx)) == index_count(ctx)


def test_index_count_path_node():
    # path 0-1-2, node side {0,1}: one crossing edge, so the budget is 4.
    # Pools are Rep2_x = {0, {1}}, singles_x = {0, {1}}, Rep2_y = {0, {2}},
    # singles_y = {{2}}; of the 128 unbudgeted pool combinations, 29 exceed
    # four chosen sets, leaving 99 per x_rest and 198 in total.
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    assert ctx.mim == 1
    assert index_count(ctx) == 198
    stream = list(enumerate_indices(ctx))
    assert len(stream) == 198
    assert len(set(stream)) == 198


def test_index_collapse_without_crossing_edges():
    # at the root the far side is empty: every family collapses to {0} and
    # the all-empty tuple is the only index left
    inst = Instance(triangle(), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, lay.root)
    assert ctx.mim == 0
    assert index_count(ctx) == 1
    assert list(enumerate_indices(ctx)) == [EMPTY_INDEX]


# --------------------------------------------------------------- aux graph


def test_aux_graph_contracts_solution_side():
    inst = Instance(triangle(), 0, (1, 1, 1))
    bg = aux_graph(inst, 0b111, EMPTY_INDEX)
    assert bg.blocks == (0b111,)
    assert bg.a_count == 1
    assert bg.graph.edge_count == 0


def test_aux_graph_keeps_far_side_edgeless():
    # vertices 0 and 2 are adjacent in the triangle, but far-side blocks
    # never receive edges among themselves
    inst = Instance(triangle(), 0, (1, 1, 1))
    i = IndexTuple(frozenset(), frozenset(), 0, frozenset({0b001, 0b100}), frozenset())
    bg = aux_graph(inst, 0, i)
    assert bg.blocks == (0b001, 0b100)
    assert bg.graph.edge_count == 0


def test_aux_graph_near_far_edge():
    inst = Instance(path(3), 0, (1, 1, 1))
    i = IndexTuple(frozenset(), frozenset(), 0, frozenset({0b100}), frozenset())
    bg = aux_graph(inst, 0b011, i)
    assert bg.blocks == (0b011, 0b100)
    assert list(bg.graph.edges()) == [(0, 1)]
    assert bg.s_flags == (False, False)


# ------------------------------------------------------------ admissibility


def test_empty_solution_fits_empty_index():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    assert is_partial_solution(inst, ctx, 0, EMPTY_INDEX)


def test_cycle_through_s_is_rejected():
    inst = Instance(triangle(), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, lay.root)
    assert not is_partial_solution(inst, ctx, 0b111, EMPTY_INDEX)


def test_s_vertex_with_two_component_neighbors_rejected():
    # 0 in S sees both endpoints of the edge 1-2; no index accepts that
    inst = Instance(triangle(), 0b001, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, lay.root)
    assert not is_partial_solution(inst, ctx, 0b111, EMPTY_INDEX)


def test_far_singleton_with_two_component_neighbors_rejected():
    inst = Instance(triangle(), 0b100, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    i = IndexTuple(
        frozenset(), frozenset(), rep_of(ctx.fam_x1, 0b011), frozenset(), frozenset({0b100})
    )
    assert not is_partial_solution(inst, ctx, 0b011, i)


def test_rest_class_must_match():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    # {1} has a crossing neighbor, so it is not 1-equivalent to the empty rest
    assert not is_partial_solution(inst, ctx, 0b010, EMPTY_INDEX)
    good = EMPTY_INDEX._replace(x_rest=rep_of(ctx.fam_x1, 0b010))
    assert is_partial_solution(inst, ctx, 0b010, good)


def test_solution_outside_node_side_raises():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    with pytest.raises(ValueError):
        is_partial_solution(inst, ctx, 0b100, EMPTY_INDEX)


# -------------------------------------------------------------- signatures


def test_signature_of_empty_solution():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    assert cc_signature(inst, ctx, 0, EMPTY_INDEX) == ()


def test_signature_groups_matched_single():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    i = IndexTuple(frozenset(), frozenset({0b010}), 0, frozenset(), frozenset())
    assert is_partial_solution(inst, ctx, 0b010, i)
    assert cc_signature(inst, ctx, 0b010, i) == ((("xs", 0b010),),)

    # a far set touching the same single lands in the same group
    iy = i._replace(yvc_ns=frozenset({0b100}))
    assert is_partial_solution(inst, ctx, 0b010, iy)
    assert cc_signature(inst, ctx, 0b010, iy) == ((("xs", 0b010), ("yn", 0b100)),)


def test_signature_zero_set_is_isolated_group():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    i = IndexTuple(frozenset(), frozenset({0b010}), 0, frozenset(), frozenset({0}))
    assert cc_signature(inst, ctx, 0b010, i) == ((("xs", 0b010),), (("ys", 0),))


def test_signature_equal_for_twins():
    # 0 and 1 have the same crossing neighborhood, so either one matched to
    # the same representative produces the same grouping
    g = Graph(3, [(0, 2), (1, 2)])
    inst = Instance(g, 0b111, (5, 3, 1))
    ctx = context_for(inst, 0b011)
    i = IndexTuple(frozenset(), frozenset({0b001}), 0, frozenset(), frozenset())
    assert cc_signature(inst, ctx, 0b001, i) == cc_signature(inst, ctx, 0b010, i)


def test_signature_requires_admissibility():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    ctx = context_for(inst, 0b011)
    i = IndexTuple(frozenset(), frozenset({0b010}), 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        cc_signature(inst, ctx, 0b001, i)


# ----------------------------------------------------------------- merging


def test_merge_crosses_tables():
    a = {0: 0, 0b001: 2}
    b = {0: 0, 0b010: 3}
    merged = merge_tables(a, b)
    assert merged == {0: 0, 0b001: 2, 0b010: 3, 0b011: 5}


def test_merge_with_empty_table_is_empty():
    a = {0: 0, 0b001: 2}
    assert merge_tables(a, {}) == {}


def test_merge_rejects_overlap():
    a = {0b001: 2}
    with pytest.raises(ValueError):
        merge_tables(a, {0b001: 1})


# --------------------------------------------------------------- reduction


def test_reduce_keeps_empty_solution():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    node = node_for(lay, 0b011)
    ctx = node_context(inst, lay, node)
    red = reduce_table({0: 0}, ctx, inst)
    assert red == {0: 0}


def test_reduce_collapses_twins_onto_heavier(key_route):
    # 0 and 1 are interchangeable towards the far side; only the weight-5
    # twin survives, and the answer for every completion is preserved
    g = Graph(3, [(0, 2), (1, 2)])
    inst = Instance(g, 0b111, (5, 3, 1))
    lay = layout_from_order([0, 1, 2])
    node = node_for(lay, 0b011)
    ctx = node_context(inst, lay, node)
    untrimmed = {m: inst.weight_of(m) for m in range(4)}
    red = reduce_table(untrimmed, ctx, inst)
    assert 0b001 in red
    assert 0b010 not in red
    assert check_represents(inst, 0b011, untrimmed, red)


def test_reduce_drops_locally_dead_members():
    inst = Instance(triangle(), 0b111, (1, 1, 1))
    lay = layout_from_order([0, 1, 2])
    ctx = node_context(inst, lay, lay.root)
    untrimmed = {m: inst.weight_of(m) for m in range(8)}
    red = reduce_table(untrimmed, ctx, inst)
    assert 0b111 not in red
    assert check_represents(inst, 0b111, untrimmed, red)


def test_reduce_agrees_with_index_by_index_route():
    """The production reduction enumerates realizable buckets from each
    solution; the literal route walks the full index stream instead.  The
    two kept sets need not coincide, but both must preserve the best
    completion for every far-side subset."""
    cases = [
        ([(0, 1), (1, 2), (2, 3)], 0b1111),
        ([(0, 1), (0, 2), (1, 2), (2, 3)], 0b0100),
        ([(0, 2), (0, 3), (1, 2), (1, 3)], 0b0011),
    ]
    for edges, s in cases:
        inst = Instance(Graph(4, edges), s, (2, 3, 1, 1))
        lay = layout_from_order([0, 1, 2, 3])
        node = node_for(lay, 0b0011)
        ctx = node_context(inst, lay, node)
        untrimmed = {m: inst.weight_of(m) for m in range(4)}

        fast = reduce_table(untrimmed, ctx, inst)

        buckets = {}
        for i in enumerate_indices(ctx):
            for m, w in untrimmed.items():
                if not is_partial_solution(inst, ctx, m, i):
                    continue
                sig = cc_signature(inst, ctx, m, i)
                entry = (-w, tuple(sorted(range(4)[b] for b in range(4) if m >> b & 1)), m)
                cur = buckets.get((i, sig))
                if cur is None or entry < cur:
                    buckets[(i, sig)] = entry
        literal = {e[2]: untrimmed[e[2]] for e in buckets.values()}

        assert check_represents(inst, 0b0011, untrimmed, fast)
        assert check_represents(inst, 0b0011, untrimmed, literal)


def test_reduce_ignores_insertion_order():
    rng = random.Random(31)
    for _ in range(6):
        n = rng.randint(6, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        inst = Instance(Graph(n, edges), rng.randrange(1 << n), weights)
        order = list(range(n))
        rng.shuffle(order)

        # A node's structures live in the store until its parent's merge,
        # so each node's table is reduced again inside the trace.
        def watch(node, ctx, merged, reduced):
            items = list(merged.items())
            for _ in range(3):
                rng.shuffle(items)
                again = reduce_table(dict(items), ctx, inst)
                assert list(again.items()) == list(reduced.items())
            assert list(reduced) == sorted(reduced, key=lambda m: (-reduced[m], lex_order(m)))

        solve(inst, layout_from_order(order), trace=watch)


def test_reduce_tie_keeps_lexicographically_smallest_twin():
    # 0..3 all see only the far vertex 4 and nothing else, so {0,3} and
    # {1,2} fall in the same buckets.  At equal weight the lexicographically
    # smaller {0,3} survives, although its mask (9) is the larger integer (6).
    g = Graph(5, [(v, 4) for v in range(4)])
    inst = Instance(g, 0b10000, (1, 1, 1, 1, 1))
    lay = layout_from_order([0, 1, 2, 3, 4])
    node = node_for(lay, 0b01111)
    ctx = node_context(inst, lay, node)
    for items in ([(0b0110, 2), (0b1001, 2)], [(0b1001, 2), (0b0110, 2)]):
        assert reduce_table(dict(items), ctx, inst) == {0b1001: 2}
    # a heavier twin beats a lexicographically smaller one
    heavier = {0b0110: 3, 0b1001: 2}
    assert reduce_table(heavier, ctx, inst) == {0b0110: 3}


def _golden_layout(seed, n):
    """G(n, 2n) on a shuffled caterpillar whose widest cut has mim >= 3."""
    rng = random.Random(f"golden:{seed}:{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph(n, rng.sample(pairs, 2 * n))
        order = list(range(n))
        rng.shuffle(order)
        lay = layout_from_order(order)
        if max(mim_cut(g, lay.below[x]) for x in lay.postorder()) >= 3:
            return rng, g, lay


def _golden_cases():
    for seed, n in ((1, 10), (2, 11), (3, 12)):
        rng, g, lay = _golden_layout(seed, n)
        s = mask_of(rng.sample(range(n), n // 3))
        yield f"sfvs-n{n}", Instance(g, s, tuple(rng.choice((1, 1, 2)) for _ in range(n))), lay
    _, g, lay = _golden_layout(4, 11)
    yield "fvs-n11", Instance(g, g.vertices, (1,) * 11), lay
    yield "nmc-n14", *_hub_case(*_golden_layout(13, 14))


def _hub_case(rng, g, lay, deletable_terminals=False):
    """Node multiway cut on g with up to three pairwise non-adjacent
    terminals and weights in 1..5, drawn from rng, as the hub reduction's
    sfvs instance on the layout extended by the hub."""
    terminals = []
    for v in rng.sample(range(g.n), g.n):
        if len(terminals) < 3 and not any(g.has_edge(v, t) for t in terminals):
            terminals.append(v)
    nmc = NmcInstance(g, tuple(sorted(terminals)), tuple(rng.randint(1, 5) for _ in range(g.n)))
    inst, hub = reduce_to_sfvs(nmc, deletable_terminals)
    return inst, extend_layout(lay, hub)


def _dense_layout(seed):
    """G(10, 40) on a shuffled caterpillar, with the rng that drew it.  At
    seed 3 its wide cuts send a node through the key route, both as an sfvs
    instance and as the hub reduction of a multiway cut."""
    rng = random.Random(f"dense:{seed}:10")
    g = Graph(10, rng.sample([(u, v) for u in range(10) for v in range(u + 1, 10)], 40))
    order = list(range(10))
    rng.shuffle(order)
    return rng, g, layout_from_order(order)


# sha256 over repr((node, sorted merged items, sorted reduced items)) at every
# internal node, in solve order.  GOLDEN_TABLES holds them with every node on
# the key route, as recorded with the per-bucket minimum-entry reduction that
# preceded the best-first one; GOLDEN_ROUTED_TABLES as `solve` runs, with
# each node on the route `completion_route` and `signature_route` pick.  The
# nmc-n14 digests were recorded once `solve` dropped the rows that cannot
# hold the forced hub and terminals, after a `check_represents` audit at
# every node (far-side guard lifted) and a brute-force check of the optimum.
GOLDEN_TABLES = {
    "sfvs-n10": "a1ea0bbb1daa6aa0512f19a37cc087eb73af36ae3d3b20bbae86169fe6dc68a9",
    "sfvs-n11": "2b71af2b52ec5c7b5b348ed2a56d1f38c19bbd1dd752e2c973579855c7bb948c",
    "sfvs-n12": "d5c1879aa4a67f7b880fd3000b6fc3172df2e2c750c91fd5ade13a2eea96fe1f",
    "fvs-n11": "d10bcd7448d83f6ac5ec994f6d1e378b3ee33929b8e969876aa5d412aa05f3a5",
    "nmc-n14": "d9b5ef915123f8e57d2a146538cb26a5689bf8e9506f6dba28c756bda23d56b8",
}


GOLDEN_ROUTED_TABLES = {
    "sfvs-n10": "55a2acd842b1c92f005252ea367035e67cfd30efffba48f9b70a7791dbe9796d",
    "sfvs-n11": "b6afcb5e89c5b507e06f7bc890f92e170aeb7591f90eafcdd272c842f1a44cf7",
    "sfvs-n12": "f183725c0448999f6e29cc142466be2debccd45334364c1a574fb303e6597e58",
    "fvs-n11": "d33191c9a0c1e0423646b0b9aabe5850a7b5ec661f4f6ecac4a507e6a19d0d5f",
    "nmc-n14": "b32f1e33bd63b98022ac7ad6f255983511f9c209b0cd166457c3e3fa114d63bc",
}


def _golden_digests():
    got = {}
    for name, inst, lay in _golden_cases():
        h = hashlib.sha256()

        def watch(node, ctx, merged, reduced):
            h.update(repr((
                node,
                sorted(merged.items()),
                sorted(reduced.items()),
            )).encode())

        solve(inst, lay, trace=watch)
        got[name] = h.hexdigest()
    return got


def test_reduced_tables_match_golden_digests(monkeypatch):
    assert _golden_digests() == GOLDEN_ROUTED_TABLES
    _force_key_route(monkeypatch)
    assert _golden_digests() == GOLDEN_TABLES


def test_solve_computes_no_representative(monkeypatch):
    """`solve` names classes by their keys and never works out a
    representative.  With `oracles.reps`, where every representative is
    worked out, raising, the golden cases (sfvs, fvs and an nmc hub case)
    give their golden tables and the brute-force optimum, and so does
    sfvs-n10 with every node on the completion route, the signature pass
    alone or the key route."""

    def no_reps(*args):
        raise AssertionError("a representative was computed")

    monkeypatch.setattr(oracles, "reps", no_reps)
    assert _golden_digests() == GOLDEN_ROUTED_TABLES
    cases = list(_golden_cases())
    for name, inst, lay in cases:
        assert solve(inst, lay).weight == brute_force_sfvs(inst)[0], name
    _, inst, lay = cases[0]
    want = brute_force_sfvs(inst)[0]
    for completion, signature in ((True, False), (False, True), (False, False)):
        with monkeypatch.context() as m:
            m.setattr(dp, "completion_route", lambda ctx, rows: completion)
            m.setattr(dp, "signature_route", lambda ctx, survivors: signature)
            assert solve(inst, lay).weight == want, (completion, signature)


# -------------------------------------------------------------- bucket keys


def _decode(keys, labels):
    """Keys as (x_rest, set of label sets), with each label bit mapped back
    to the label `labels` gave it: free of bit numbering and of the order of
    the groups.  Decoding must not merge two keys."""
    names = {bit: label for label, bit in labels.items()}
    out = {
        (key[0], frozenset(frozenset(names[1 << b] for b in bits(grp)) for grp in key[1:]))
        for key in keys
    }
    assert len(out) == len(keys)
    return out


def _keys_by_type(inst, ctx, x, labels):
    """Decoded keys of `_bucket_keys`, or None for a dead solution."""
    prof = _profile_solution(inst, ctx, x, labels)
    if prof is None:
        return None
    keys = set()
    _bucket_keys(ctx, x, prof, keys)
    return _decode(keys, labels)


def _keys_by_candidate(inst, ctx, x, labels):
    keys = bucket_keys_by_candidate(inst, ctx, x, labels)
    if keys is None:
        return None
    return _decode(keys, labels)


def test_bucket_keys_match_per_candidate_reference(key_route):
    """At every internal node of the golden cases (G(n, 2n) with n <= 12 on
    shuffled caterpillars of mim >= 3, an fvs case and an nmc hub case on
    G(14, 28)),
    every merged solution gets the same keys from the search over
    attachment types as from the per-candidate reference, label for label.
    Label numbering is shared across the solutions of a node, as in
    `reduce_table`.  The same holds on wide boundaries: permutation graphs
    (n = 14, 16) and an interval graph (n = 40) on their mim-1 layouts."""

    def compare(cases):
        checked = 0
        for name, inst, lay in cases:

            def watch(node, ctx, merged, reduced):
                nonlocal checked
                labels, ref_labels = {}, {}
                for x in merged:
                    got = _keys_by_type(inst, ctx, x, labels)
                    assert got == _keys_by_candidate(inst, ctx, x, ref_labels), (name, ctx.node, x)
                    checked += got is not None

            solve(inst, lay, trace=watch)
        return checked

    assert compare(_golden_cases()) > 3000
    wide = [
        ("permutation-n14", *_permutation_case(1, 14)),
        ("permutation-n16", *_permutation_case(1, 16)),
        ("interval-n40", *_interval_case(2, 40)),
    ]
    assert compare(wide) > 2000


def _interval_case(seed, n):
    """Interval graph on its left-endpoint layout (mim 1), |S| = n/3."""
    rng = random.Random(f"interval:{seed}:{n}")
    iv = []
    for _ in range(n):
        left = rng.randint(0, 3 * n)
        iv.append((left, left + rng.randint(1, n // 6)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if intervals_intersect(iv[u], iv[v])]
    g = Graph(n, edges)
    s = mask_of(rng.sample(range(n), n // 3))
    return Instance(g, s, (1,) * n), interval_layout(iv, g)


def _permutation_case(seed, n):
    """The instance of `sfvs generate permutation --n n --seed seed`: a
    permutation graph on its position-order caterpillar (mim 1), each
    vertex in S with probability 1/3."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]])
    s = mask_of(v for v in range(n) if rng.random() < 1 / 3)
    return Instance(g, s, (1,) * n), layouts.permutation_layout(perm, g)


def _balanced_case(seed, n):
    """G(n, 2n) on a balanced layout over a shuffled vertex order, so that
    both children of most nodes hold several vertices."""
    rng = random.Random(f"balanced:{seed}:{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, rng.sample(pairs, 2 * n))
    order = [f"v{v}" for v in range(n)]
    rng.shuffle(order)

    def nest(names):
        if len(names) == 1:
            return names[0]
        mid = len(names) // 2
        return f"({nest(names[:mid])},{nest(names[mid:])})"

    lay = parse_layout(nest(order), [f"v{v}" for v in range(n)])
    s = mask_of(rng.sample(range(n), n // 3))
    return Instance(g, s, tuple(rng.choice((1, 1, 2)) for _ in range(n))), lay


def _plain_profile(prof, labels):
    """A profile free of block order, tree ids and label bits: the blocks
    with their d=1 classes, the tree partition, the matched candidates with
    their blocks, and per attachment type its blocks, labels and trees."""
    if prof is None:
        return None
    names = {bit: label for label, bit in labels.items()}
    assert len(set(prof.blocks)) == len(prof.blocks) == len(prof.classes)
    members = {}
    for block, t in zip(prof.blocks, prof.tree_of):
        members.setdefault(t, set()).add(block)
    tree = {t: frozenset(m) for t, m in members.items()}
    return (
        frozenset(zip(prof.blocks, prof.classes)),
        frozenset(tree.values()),
        frozenset((names[bit], prof.blocks[bi]) for bit, bi in prof.x_cands),
        frozenset(
            (
                frozenset(prof.blocks[j] for j in bits(att)),
                frozenset(names[1 << b] for b in bits(label_mask)),
                frozenset(tree[t] for t in trees),
            )
            for att, trees, label_mask in prof.types
        ),
    )


def test_carried_profile_matches_from_scratch_reference():
    """At every internal node, every merged row's profile built from the
    structures carried through the merges equals the one the oracle builds
    from scratch: blocks as a set, tree partition, matched candidates and
    attachment types, label for label.  Covers the golden cases, an n = 85
    interval graph and a balanced layout; the profiles are taken while the
    solve runs, so they read the carried structures.  The reference's
    far-side candidates come from the definition, not from `far_cands`."""
    cases = list(_golden_cases()) + [
        ("interval-n85", *_interval_case(1, 85)),
        ("balanced-n12", *_balanced_case(1, 12)),
    ]
    for name, inst, lay in cases:
        checked = 0

        def watch(node, ctx, merged, reduced):
            nonlocal checked
            labels, ref_labels = {}, {}
            far_cands = far_candidates(inst.graph, ctx)
            for x in merged:
                got = _plain_profile(_profile_solution(inst, ctx, x, labels), labels)
                ref = profile_solution(inst, ctx, x, ref_labels, far_cands)
                want = _plain_profile(ref, ref_labels)
                assert got == want, (name, node, x)
                checked += got is not None

        solve(inst, lay, trace=watch)
        assert checked > 100, name


def _random_binary_case(rng, n):
    """Random graph on a random binary layout: two random subtrees join at
    each step, so most nodes have two inner children."""
    p = rng.random()
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    names = [f"v{v}" for v in range(n)]
    trees = list(names)
    while len(trees) > 1:
        a = trees.pop(rng.randrange(len(trees)))
        b = trees.pop(rng.randrange(len(trees)))
        trees.append(f"({a},{b})")
    return Instance(g, 0, (1,) * n), parse_layout(trees[0], names)


def _excess_by_definition(g, s, x):
    """Edges of x's S-contraction beyond a forest, from scratch: the edges
    of G[x] with an end in S, minus the components of x \\ S and the
    S-vertices of x, plus the components of x."""
    s_edges = sum(1 for u, v in g.edges() if x >> u & x >> v & 1 and (s >> u | s >> v) & 1)
    nodes = len(components_masks(g, x & ~s)) + (x & s).bit_count()
    return s_edges - nodes + len(components_masks(g, x))


def test_carried_excess_matches_definition():
    """At every internal node, each merged row's carried `excess` equals
    the count from scratch, it is 0 exactly when the row is an S-forest,
    and every reduced row is an S-forest.  Covers the golden cases (nmc hub
    case included), an n = 85 interval graph and 30 random binary layouts
    with random S and weights; some rows die at every kind of case.

    `solve` drops the rows that cannot hold the forced vertices beyond the
    node before `trace` sees the merged table, so each node's product of
    its child tables is rebuilt here, leaves as `solve` starts them.  A
    row is dropped exactly when the forced vertices beyond the node are
    not empty and x | those vertices is no S-forest; a dropped row counts
    as dead."""
    rng = random.Random(10)
    cases = list(_golden_cases()) + [("interval-n85", *_interval_case(1, 85))]
    for i in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(2, 11))
        n = inst.n
        s = mask_of(v for v in range(n) if rng.random() < 0.4)
        weights = tuple(rng.randint(-1, 4) for _ in range(n))
        cases.append((f"binary-{i}", Instance(inst.graph, s, weights), lay))
    dead = {}  # dead merged rows by kind of case
    for name, inst, lay in cases:
        g, s = inst.graph, inst.s_set
        kind = name.split("-")[0]
        dead.setdefault(kind, 0)
        forced = dp.forced_set(inst)
        tables = {}

        def table(node):
            if not lay.is_leaf(node):
                return tables.pop(node)
            v = lay.leaf_vertex[node]
            return {1 << v: inst.weights[v]} if forced >> v & 1 else {0: 0, 1 << v: inst.weights[v]}

        def watch(node, ctx, merged, reduced):
            product = merge_tables(table(lay.left[node]), table(lay.right[node]))
            tables[node] = reduced
            far = forced & ~lay.below[node]
            assert merged.items() <= product.items(), (name, node)
            for x in product:
                holds = not far or is_s_forest(g, x | far, s)
                assert (x in merged) == holds, (name, node, x)
                dead[kind] += not holds
            for x in merged:
                excess = ctx.blocks.of(node, x).excess
                assert excess == _excess_by_definition(g, s, x), (name, node, x)
                assert (excess == 0) == is_s_forest(g, x, s), (name, node, x)
                dead[kind] += excess > 0
            for x in reduced:
                assert is_s_forest(g, x, s), (name, node, x)

        solve(inst, lay, trace=watch)
    assert all(dead.values()), dead
    # n = 1: the root is a leaf, so its two rows are neither merged nor
    # reduced; the heavier one, the empty set, wins.
    assert solve(Instance(Graph(1, []), 1, (-2,)), layout_from_order([0])) == SolveResult(0, 0, 1)


def _signature_by_definition(g, s, bnd, x):
    """x's boundary signature from scratch: x & bnd, and the nonempty
    boundary parts of the components of x \\ S and of x, sorted."""

    def parts(pieces):
        return tuple(sorted(p & bnd for p in pieces if p & bnd))

    return x & bnd, parts(components_masks(g, x & ~s)), parts(components_masks(g, x))


def _stored_signature(st):
    """The boundary signature a stored structure of excess 0 is: the OR of
    its trees (x & the boundary), its components and its trees."""
    return reduce(or_, st.trees, 0), st.comps, st.trees


def test_carried_signature_matches_definition():
    """At every internal node, each merged row of excess 0 has as its
    stored structure the boundary signature from scratch.  A row joined at
    the node is cut to the boundary there; a row that passes up unjoined
    keeps a child's structure or is cut down at the node.  Covers the
    golden cases, an n = 85 interval graph, a balanced layout and 30
    random binary layouts; rows pass up unjoined from inner children on
    both sides."""
    rng = random.Random(31)
    cases = [(inst, lay) for _, inst, lay in _golden_cases()]
    cases += [_interval_case(1, 85), _balanced_case(1, 12)]
    for _ in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(2, 12))
        s = mask_of(v for v in range(inst.n) if rng.random() < 0.4)
        cases.append((Instance(inst.graph, s, inst.weights), lay))
    checked = 0
    unjoined = {"left": 0, "right": 0}  # rows from an inner child, unjoined
    for inst, lay in cases:
        g, s = inst.graph, inst.s_set

        def watch(node, ctx, merged, reduced):
            nonlocal checked
            for x in merged:
                st = ctx.blocks.of(node, x)
                if st.excess:
                    continue
                want = _signature_by_definition(g, s, ctx.near_bnd, x)
                assert _stored_signature(st) == want, (node, x)
                checked += 1
                for side, child in (("left", lay.left[node]), ("right", lay.right[node])):
                    if x and not x & ~lay.below[child] and not lay.is_leaf(child):
                        unjoined[side] += 1

        solve(inst, lay, trace=watch)
    assert checked > 5000 and min(unjoined.values()) > 100, (checked, unjoined)


def test_merge_stores_every_pair_by_definition():
    """The merge stores, at every internal node, the structure of every
    union of a left child row and a right child row, and nothing else.
    Each stored structure of excess 0 is the row's boundary signature from
    scratch; every other one holds the row's excess from scratch.  Covers
    the golden cases, the cases of `test_routes_agree_past_brute_force`
    (as routed) and two balanced layouts, whose inner right children pass
    rows up unjoined.  Rows pass up unjoined from inner children on both
    sides, and some of them have a piece that leaves the boundary at the
    node, so their stored structure is cut down there."""
    cases = [(inst, lay) for _, inst, lay in _golden_cases()]
    cases += [_permutation_case(1, 24), _interval_case(1, 85), _permutation_case(1, 28)]
    cases += [_balanced_case(1, 12), _balanced_case(2, 14)]
    checked = {"excess 0": 0, "dead": 0, "left unjoined": 0, "right unjoined": 0, "cut": 0}
    for inst, lay in cases:
        g, s = inst.graph, inst.s_set
        forced = dp.forced_set(inst)
        tables = {}

        def rows(node):
            if not lay.is_leaf(node):
                return tables.pop(node)
            v = lay.leaf_vertex[node]
            return {1 << v} if forced >> v & 1 else {0, 1 << v}

        def watch(node, ctx, merged, reduced):
            lc, rc = lay.left[node], lay.right[node]
            lefts, rights = rows(lc), rows(rc)
            tables[node] = set(reduced)
            stored = ctx.blocks.known[node]
            assert stored.keys() == {l | r for l in lefts for r in rights}, node
            for x, st in stored.items():
                if st.excess:
                    assert st.excess == _excess_by_definition(g, s, x), (node, x)
                    checked["dead"] += 1
                    continue
                assert _excess_by_definition(g, s, x) == 0, (node, x)
                want = _signature_by_definition(g, s, ctx.near_bnd, x)
                assert _stored_signature(st) == want, (node, x)
                checked["excess 0"] += 1
                for side, child in (("left", lc), ("right", rc)):
                    if x and not x & ~lay.below[child] and not lay.is_leaf(child):
                        checked[f"{side} unjoined"] += 1
                        checked["cut"] += bool(x & ctx.blocks.boundary[child] & ~ctx.near_bnd)

        solve(inst, lay, trace=watch)
    assert min(checked.values()) > 100, checked


def test_scratch_structures_match_definition():
    """The store of a `node_context` builds the structure of any set below
    a node from the leaves up, a walk no solve takes.  At every internal
    node of a balanced layout and of 30 random binary layouts (random S),
    random subsets of the side, sets no table holds, get the excess from
    scratch and, at excess 0, the boundary signature from scratch as their
    stored structure.  Some subsets lie below one inner child, so their
    structure is joined below the node and cut down there."""
    rng = random.Random(41)
    cases = [_balanced_case(1, 12)]
    for _ in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(3, 12))
        s = mask_of(v for v in range(inst.n) if rng.random() < 0.4)
        cases.append((Instance(inst.graph, s, inst.weights), lay))
    checked = {"sets": 0, "excess 0": 0, "dead": 0, "below one child": 0}
    for inst, lay in cases:
        g, s = inst.graph, inst.s_set
        blocks = node_context(inst, lay, lay.root).blocks
        for node in lay.postorder():
            if lay.is_leaf(node):
                continue
            bnd, left = blocks.boundary[node], lay.below[lay.left[node]]
            side = list(bits(lay.below[node]))
            for _ in range(8):
                x = mask_of(rng.sample(side, rng.randint(1, len(side))))
                st = blocks.of(node, x)
                assert st.excess == _excess_by_definition(g, s, x), (node, x)
                checked["sets"] += 1
                checked["below one child"] += not 0 < x & left < x
                if st.excess:
                    checked["dead"] += 1
                    continue
                want = _signature_by_definition(g, s, bnd, x)
                assert _stored_signature(st) == want, (node, x)
                checked["excess 0"] += 1
    assert min(checked.values()) > 100, checked


def test_store_holds_only_live_rows():
    """The store keeps the structures of live rows only, each at its node.
    At every `trace` call, each inner child's dict holds exactly the rows
    of the child's reduced table.  After the solve, every inner node below
    the root holds none, the root holds the root table's rows and each
    leaf holds its two sets.  Covers a caterpillar (sfvs-n10), a balanced
    layout, 30 random binary layouts (random S) and an nmc hub layout,
    whose root is the hub's; inner children on both sides are checked."""
    rng = random.Random(53)
    _, inst, lay = next(_golden_cases())
    cases = [(inst, lay), _balanced_case(1, 12), _hub_case(*_golden_layout(13, 14))]
    for _ in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(2, 12))
        s = mask_of(v for v in range(inst.n) if rng.random() < 0.4)
        cases.append((Instance(inst.graph, s, inst.weights), lay))
    checked = {"left": 0, "right": 0}
    for inst, lay in cases:
        tables, stores = {}, []

        def watch(node, ctx, merged, reduced):
            for side, child in (("left", lay.left[node]), ("right", lay.right[node])):
                if not lay.is_leaf(child):
                    assert ctx.blocks.known[child].keys() == tables.pop(child).keys(), (node, child)
                    checked[side] += 1
            tables[node] = reduced
            stores.append(ctx.blocks)

        solve(inst, lay, trace=watch)
        known = stores[-1].known
        for node in lay.postorder():
            if lay.is_leaf(node):
                assert known[node].keys() == {0, 1 << lay.leaf_vertex[node]}, node
            elif node == lay.root:
                assert known[node].keys() == tables[node].keys()
            else:
                assert known[node] == {}, node
    assert min(checked.values()) > 30, checked


def test_both_routes_represent_the_merged_table():
    """At every internal node, the reduced table is a subset of the merged
    one, represents it (`check_represents`), and holds S-forests only; the
    three routes are told apart and checked each.  On every route each
    kept row is the first S-forest row, in (-weight, lex_order) order, of
    its boundary signature, the signature taken from scratch.  A node takes
    the completion route exactly when 2^|far side| <= len(far_cands) or
    4 * 2^|far side| <= len(merged), and some random binary node below
    the root takes it by the second test alone.  There the table is exactly the first row
    that completes each far S-forest Y, so it has at most |F| rows for the
    set F of those Y.
    Elsewhere the first S-forest row per signature survives, and the key
    route's kept rows (the full keep rule replayed) are among them.  When
    there is at most one survivor, or they number at most
    fam_x2.class_count * len(far_cands).bit_length(), they are the table;
    otherwise the table is the key route's.  Covers the golden cases, one
    sfvs and two nmc hub cases on `_dense_layout(3)`, one with deletable
    terminals (two kinds: sfvs and nmc), and 30 random binary layouts
    (n <= 12, random S, weights in -1..4); each kind of case takes every
    route.  The audit reads at most 12 far vertices, and the golden hub
    case has 13 at its lowest node, so it is drawn at n = 11 here, as
    `_golden_layout(5, 11)`."""
    rng = random.Random(15)
    cases = [("sfvs", inst, lay) for name, inst, lay in _golden_cases() if not name.startswith("nmc")]
    cases.append(("nmc", *_hub_case(*_golden_layout(5, 11))))
    dense_rng, g, lay = _dense_layout(3)
    cases.append(("sfvs", Instance(g, mask_of(dense_rng.sample(range(10), 3)), (1,) * 10), lay))
    cases.append(("nmc", *_hub_case(*_dense_layout(3))))
    cases.append(("nmc", *_hub_case(*_dense_layout(3), deletable_terminals=True)))
    for _ in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(2, 12))
        n = inst.n
        s = mask_of(v for v in range(n) if rng.random() < 0.4)
        cases.append(("binary", Instance(inst.graph, s, tuple(rng.randint(-1, 4) for _ in range(n))), lay))
    routes = {}  # kind of case -> nodes per route
    widened = {}  # kind of case -> nodes below the root routed by table size alone
    for kind, inst, lay in cases:
        g, s = inst.graph, inst.s_set

        def watch(node, ctx, merged, reduced):
            got = reduced
            assert got.items() <= merged.items()
            assert check_represents(inst, ctx.vx, merged, reduced), (kind, node)
            assert all(is_s_forest(g, x, s) for x in got), (kind, node)
            sols = merged
            order = sorted(sols, key=lambda m: (-sols[m], lex_order(m)))
            counts = routes.setdefault(kind, {"completion": 0, "signature": 0, "key": 0})
            first = {}
            for x in order:
                if is_s_forest(g, x, s):
                    first.setdefault(_signature_by_definition(g, s, ctx.near_bnd, x), x)
            survivors = set(first.values())
            assert set(got) <= survivors, (kind, node)
            far = ctx.cvx.bit_count()
            route = dp.completion_route(ctx, len(merged))
            assert route == (2 ** far <= len(ctx.far_cands) or 4 * 2 ** far <= len(merged))
            if route:
                counts["completion"] += 1
                widened[kind] = widened.get(kind, 0) + (far > 0 and 2 ** far > len(ctx.far_cands))
                forests = [y for y in range(1 << g.n) if not y & ~ctx.cvx and is_s_forest(g, y, s)]
                want = {next((x for x in order if is_s_forest(g, x | y, s)), None) for y in forests}
                assert set(got) == want - {None}, (kind, node)
                assert len(got) <= len(forests)
                return
            keyed, _ = _literal_keep(inst, ctx, merged)
            assert keyed.keys() <= survivors, (kind, node)
            if len(survivors) <= max(1, ctx.fam_x2.class_count * len(ctx.far_cands).bit_length()):
                counts["signature"] += 1
                assert set(got) == survivors, (kind, node)
            else:
                counts["key"] += 1
                assert list(got.items()) == list(keyed.items()), (kind, node)

        solve(inst, lay, trace=watch)
    assert set(routes) == {"sfvs", "nmc", "binary"}
    assert all(min(counts.values()) > 0 for counts in routes.values()), routes
    assert widened.get("binary", 0) > 0, widened


def _far_subsets(cvx):
    subsets = [0]
    for v in bits(cvx):
        subsets += [y | 1 << v for y in subsets]
    return subsets


def test_completion_pairs_match_definition(monkeypatch):
    """At every completion-route node, `_far_forests` lists exactly the far
    sets Y with G[Y] an S-forest, and for every merged row x of excess 0
    and every such Y, `_completes` holds exactly when x | Y is an S-forest
    (`is_s_forest`): the decision read from carried structures is the
    definition.  Covers the golden cases, the nmc hub case on
    `_dense_layout(3)`, 30 random binary layouts (n <= 12) and the n = 85
    interval case, where the route is forced at every node whose far side
    has at most 8 vertices."""
    rng = random.Random(22)
    cases = [(inst, lay) for _, inst, lay in _golden_cases()]
    cases.append(_hub_case(*_dense_layout(3)))
    for _ in range(30):
        inst, lay = _random_binary_case(rng, rng.randint(2, 12))
        s = mask_of(v for v in range(inst.n) if rng.random() < 0.4)
        cases.append((Instance(inst.graph, s, inst.weights), lay))
    forced = _interval_case(1, 85)
    cases.append(forced)
    checked = {"nodes": 0, "forced": 0, "pairs": 0, "open": 0}
    for inst, lay in cases:
        g, s = inst.graph, inst.s_set

        def watch(node, ctx, merged, reduced):
            if not dp.completion_route(ctx, len(merged)):
                return
            s_nbs = ctx.blocks.s_nbs
            forests = dp._far_forests(inst, ctx.cvx, s_nbs)
            ys = [y for y, _, _ in forests]
            assert sorted(ys) == [y for y in sorted(_far_subsets(ctx.cvx)) if is_s_forest(g, y, s)]
            for x in merged:
                st = ctx.blocks.of(node, x)
                if st.excess:
                    continue
                left = {
                    y
                    for y, comps, trees in forests
                    if not dp._completes(st, x, y, (comps, trees), s_nbs, ctx.blocks._reach)
                }
                for y in ys:
                    assert (y not in left) == is_s_forest(g, x | y, s), (node, x, y)
                checked["pairs"] += len(ys)
                checked["open"] += len(left)
            checked["nodes"] += 1
            checked["forced"] += inst is forced[0]

        with monkeypatch.context() as m:
            if inst is forced[0]:
                m.setattr(dp, "completion_route", lambda ctx, rows: ctx.cvx.bit_count() <= 8)
            solve(inst, lay, trace=watch)
    assert checked["open"] > 0 and checked["pairs"] > checked["open"], checked
    assert checked["nodes"] > 80 and checked["forced"] == 9, checked


def test_reduced_tables_represent_at_n85():
    """On the n = 85 interval case, every node whose far side has at most
    12 vertices keeps a table that represents the merged one: the audit's
    cost depends on the far side and the table sizes, not on n."""
    inst, lay = _interval_case(1, 85)
    audited = []

    def watch(node, ctx, merged, reduced):
        if ctx.cvx.bit_count() <= 12:
            assert check_represents(inst, ctx.vx, merged, reduced), node
            audited.append(node)

    solve(inst, lay, trace=watch)
    assert len(audited) == 13


def _routed_weight(monkeypatch, inst, lay, route):
    """Optimum of a solve with every node on one route: "routed" as
    `reduce_table` picks, "key" the key route, "signature" the signature
    pass alone."""
    with monkeypatch.context() as m:
        if route == "key":
            _force_key_route(m)
        elif route == "signature":
            m.setattr(dp, "completion_route", lambda ctx, rows: False)
            m.setattr(dp, "signature_route", lambda ctx, survivors: True)
        return solve(inst, lay).weight


def test_routes_agree_past_brute_force(monkeypatch):
    """The routes of `reduce_table` are independent exact reductions, so
    they check one another where brute force cannot reach: the solve as
    routed, with the key route at every node and with the signature pass
    alone reach one optimum.  The signature pass alone keeps the most rows,
    so it runs on the permutation graph at n = 24 but not at n = 28."""
    all_routes = ("routed", "key", "signature")
    cases = [
        (_permutation_case(1, 24), all_routes),
        (_interval_case(1, 85), all_routes),
        (_permutation_case(1, 28), ("routed", "key")),
    ]
    for (inst, lay), routes in cases:
        weights = {route: _routed_weight(monkeypatch, inst, lay, route) for route in routes}
        assert len(set(weights.values())) == 1, (inst.n, weights)


def _reach_by_adjacency(g, side, u_set):
    """The vertices of side with a neighbor in u_set, and those with two."""
    hits = {v: (g.adj[v] & u_set).bit_count() for v in bits(side)}
    return mask_of(v for v, c in hits.items() if c), mask_of(v for v, c in hits.items() if c > 1)


def test_far_candidates_match_adjacency_definition():
    """`far_cands`, read from the far families' class keys and the far
    vertices' neighborhoods, holds one candidate per nonempty d=2 far
    representative, then, in order, one per nonempty entry of the oracle's
    `ys_pool`, each with ext and e_bad counted from adjacency and labelled
    by its class key `ext | e_bad << n`.  The d=2 candidates may come in
    any order, since labels are only compared for equality.  The oracle's
    `xs_pool` is the sorted d=1 class of every near singleton.  On random
    graphs over caterpillars and random binary layouts, two interval
    layouts and the nmc hub case."""
    rng = random.Random(8)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 9)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        order = list(range(n))
        rng.shuffle(order)
        cases.append((Instance(g, 0, (1,) * n), layout_from_order(order)))
    cases += [_random_binary_case(rng, rng.randint(2, 10)) for _ in range(30)]
    cases += [_interval_case(2, 40), _interval_case(3, 60)]
    _, nmc_inst, nmc_lay = list(_golden_cases())[-1]
    cases.append((nmc_inst, nmc_lay))
    nodes = 0
    for inst, lay in cases:
        g = inst.graph
        for x in lay.postorder():
            if lay.is_leaf(x):
                continue
            ctx = node_context(inst, lay, x)
            want_x = sorted({rep_of(ctx.fam_x1, 1 << v) for v in bits(ctx.vx)}, key=lex_key)
            assert list(xs_pool(ctx)) == want_x
            want = []
            for kind, pool in ((dp._YN, reps(ctx.fam_y2).values()), (dp._YS, ys_pool(ctx))):
                for u in pool:
                    if u:
                        ext, bad = _reach_by_adjacency(g, ctx.vx, u)
                        want.append(((ext | bad << g.n) << 2 | kind, ext, bad))
            sets = sum(1 for u in reps(ctx.fam_y2).values() if u)
            got = list(ctx.far_cands)
            assert len(got) == len(want), (x, lay.below[x])
            assert sorted(got[:sets]) == sorted(want[:sets]), (x, lay.below[x])
            assert got[sets:] == want[sets:], (x, lay.below[x])
            nodes += 1
    assert nodes > 300


def _literal_keep(inst, ctx, table):
    """The keep rule replayed row by row: best first, every extendable row
    profiled and its keys enumerated, kept when the seen set grows.
    Returns the kept dict, best first, and the number of rows whose keys it
    enumerated."""
    sols = table
    labels, seen, keep, enumerated = {}, set(), [], 0
    for x in sorted(sols, key=lambda m: (-sols[m], lex_order(m))):
        prof = _profile_solution(inst, ctx, x, labels)
        if prof is None:
            continue
        before = len(seen)
        _bucket_keys(ctx, x, prof, seen)
        enumerated += 1
        if len(seen) > before:
            keep.append(x)
    return {m: sols[m] for m in keep}, enumerated


def _counting_bucket_keys(monkeypatch):
    calls = []

    def counted(ctx, x, prof, keys):
        calls.append(x)
        _bucket_keys(ctx, x, prof, keys)

    monkeypatch.setattr(dp, "_bucket_keys", counted)
    return calls


def test_signature_skip_matches_full_keep_rule(monkeypatch, key_route):
    """Rejecting a row whose boundary signature repeats an earlier row's
    keeps, at every internal node, the dict (order included) that the full
    keep rule keeps, and spares `_bucket_keys` calls.  Covers the golden
    cases (sfvs, fvs and an nmc hub case), an n = 85 interval sfvs graph
    and an n = 60 interval fvs graph."""
    iv_inst, iv_lay = _interval_case(4, 60)
    cases = list(_golden_cases()) + [
        ("interval-n85", *_interval_case(1, 85)),
        ("fvs-interval-n60", Instance(iv_inst.graph, iv_inst.graph.vertices, iv_inst.weights), iv_lay),
    ]
    calls = _counting_bucket_keys(monkeypatch)
    for name, inst, lay in cases:
        dropped = nodes = 0

        def watch(node, ctx, merged, reduced):
            nonlocal dropped, nodes
            want, enumerated = _literal_keep(inst, ctx, merged)
            assert list(reduced.items()) == list(want.items()), (name, node)
            assert len(calls) <= enumerated, (name, node)
            dropped += enumerated - len(calls)
            nodes += 1
            calls.clear()

        solve(inst, lay, trace=watch)
        assert nodes > 8 and dropped > 0, name


def test_signature_skip_keeps_heavier_of_boundary_twins(monkeypatch, key_route):
    # Node side {0, 1, 2} with boundary {2}: 0 and 1 see only 2, which sees
    # the far vertex 3.  {0, 2} and {1, 2} differ in an interior vertex
    # only, so they agree on the boundary: the heavier one stays and
    # `_bucket_keys` runs once for the pair.
    g = Graph(4, [(0, 2), (1, 2), (2, 3)])
    inst = Instance(g, 0, (5, 3, 1, 1))
    lay = layout_from_order([0, 1, 2, 3])
    ctx = node_context(inst, lay, node_for(lay, 0b0111))
    assert ctx.near_bnd == 0b0100
    table = {0b0101: 6, 0b0110: 4}
    assert _literal_keep(inst, ctx, table) == ({0b0101: 6}, 2)
    calls = _counting_bucket_keys(monkeypatch)
    assert reduce_table(table, ctx, inst) == {0b0101: 6}
    assert calls == [0b0101]


@pytest.mark.parametrize(
    "s, rows",
    [
        (0, (0b00011, 0b00111)),  # components and trees differ
        (0b00011, (0b00011, 0b00111)),  # trees differ, components agree
        (0b00100, (0b00111, 0b01011)),  # components differ, trees agree
    ],
)
def test_signature_skip_keeps_rows_with_other_boundary_partitions(monkeypatch, key_route, s, rows):
    # Boundary vertices 0 and 1 both see the far vertex 4; 2 and 3 join
    # them inside the side.  Both rows have the boundary part {0, 1}, but
    # their components or trees cut it differently, so both reach
    # `_bucket_keys` and both stay.  With S = {0, 1}, for instance, 4 can
    # join the two trees of {0, 1} but would close a cycle in {0, 1, 2}.
    g = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    inst = Instance(g, s, (1,) * 5)
    lay = layout_from_order([0, 1, 2, 3, 4])
    ctx = node_context(inst, lay, node_for(lay, 0b01111))
    assert ctx.near_bnd == 0b00011
    table = {x: inst.weight_of(x) for x in rows}
    calls = _counting_bucket_keys(monkeypatch)
    kept = reduce_table(table, ctx, inst)
    assert sorted(calls) == sorted(rows)
    assert (kept, 2) == _literal_keep(inst, ctx, table) == (table, 2)


def test_profile_skip_drops_a_row_whose_fingerprint_repeats(monkeypatch, key_route):
    # Node side {0, 1, 2} with boundary {1, 2}: 1 and 2 both see only the
    # far vertex 3.  {1} and {2} differ on the boundary, so both pass the
    # signature pass, but each is one block of one d=1 class hooked by the
    # same far candidates: one fingerprint, one key set.  Only the first
    # row is searched, and the kept dict is the full keep rule's.
    g = Graph(4, [(1, 3), (2, 3)])
    inst = Instance(g, 0, (1,) * 4)
    lay = layout_from_order([0, 1, 2, 3])
    ctx = node_context(inst, lay, node_for(lay, 0b0111))
    assert ctx.near_bnd == 0b0110
    table = {0b0010: 1, 0b0100: 1}
    calls = _counting_bucket_keys(monkeypatch)
    kept = reduce_table(table, ctx, inst)
    assert calls == [0b0010]
    assert kept == _literal_keep(inst, ctx, table)[0] == {0b0010: 1}


def test_profile_skip_searches_rows_that_differ_only_in_block_classes(monkeypatch, key_route):
    # S = V, node side {0, 1, 2, 3}, every vertex on the boundary.  The rows
    # {0, 1} and {2, 3} are each one tree of two S-vertices that both see
    # the far vertex 4, so every far candidate would hook a tree twice and
    # no type is left; no block is matched either.  Their profiles differ
    # only in the blocks' d=1 classes, {0} against {2}, and so do their key
    # sets.  The fingerprint must hold the classes, so both
    # rows are searched and both are kept, as the full keep rule keeps them.
    g = Graph(6, [(0, 1), (2, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (3, 4)])
    inst = Instance(g, g.vertices, (1,) * 6)
    lay = layout_from_order(list(range(6)))
    ctx = node_context(inst, lay, node_for(lay, 0b1111))
    assert ctx.near_bnd == 0b1111
    table = {0b0011: 2, 0b1100: 2}
    profs = {x: _profile_solution(inst, ctx, x, {}) for x in table}
    c0, c2 = ctx.fam_x1.class_of(0b0001), ctx.fam_x1.class_of(0b0100)
    assert [profs[x][1:] for x in table] == [((0, 0), (), (), (c0, c0)), ((0, 0), (), (), (c2, c2))]
    for x, classes in ((0b0011, c0), (0b1100, c2)):
        keys = set()
        _bucket_keys(ctx, x, profs[x], keys)
        assert keys == {(classes,)}
    calls = _counting_bucket_keys(monkeypatch)
    kept = reduce_table(table, ctx, inst)
    assert calls == [0b0011, 0b1100]
    assert kept == _literal_keep(inst, ctx, table)[0] == table


def _random_caterpillar_case(rng):
    """G(n, p) with n = 5..11 on a shuffled caterpillar, S of any density
    from sparse to all of V, weights 1..3."""
    n = rng.randint(5, 11)
    p = rng.choice([0.2, 0.3, 0.45, 0.6])
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    s = mask_of(v for v in range(n) if rng.random() < rng.choice([0.1, 0.3, 0.6, 1.0]))
    order = list(range(n))
    rng.shuffle(order)
    return Instance(g, s, tuple(rng.choice((1, 1, 2, 3)) for _ in range(n))), layout_from_order(order)


def test_profile_skip_matches_full_keep_rule(monkeypatch, key_route):
    """With the key route at every node, the kept dicts (order included)
    are those of the full keep rule.  Covers the wide cases of
    `test_bucket_keys_match_per_candidate_reference` and 150 small random
    caterpillars; on the latter, a fingerprint without the blocks' classes
    or without the types' far labels keeps other rows.  On the wide cases
    the skip fires: `_bucket_keys` runs for fewer rows than pass the
    signature pass, so for fewer than the full rule enumerates.  At every
    node, the signature survivors with one fingerprint (`prof[1:]`) get one
    key set from `_bucket_keys`."""
    calls = _counting_bucket_keys(monkeypatch)
    rng = random.Random(7)
    small = [(f"random-{i}", _random_caterpillar_case(rng)) for i in range(150)]
    wide = [
        ("permutation-n14", _permutation_case(1, 14)),
        ("permutation-n16", _permutation_case(1, 16)),
        ("interval-n40", _interval_case(2, 40)),
    ]
    for name, (inst, lay) in small + wide:
        searched = survivors = enumerated = 0

        def watch(node, ctx, merged, reduced):
            nonlocal searched, survivors, enumerated
            want, count = _literal_keep(inst, ctx, merged)
            assert list(reduced.items()) == list(want.items()), (name, node)
            live = [m for m in merged if not ctx.blocks.of(node, m).excess]
            order = sorted(live, key=lambda m: (-merged[m], lex_order(m)))
            first = list(dp._first_per_signature(ctx, order))
            survivors += len(first)
            searched += len(calls)
            enumerated += count
            calls.clear()
            # One fingerprint, one key set: the claim the skip rests on.
            labels, by_fingerprint = {}, {}
            for x in first:
                prof = _profile_solution(inst, ctx, x, labels)
                by_fingerprint.setdefault(prof[1:], []).append((x, prof))
            for group in by_fingerprint.values():
                if len(group) < 2:
                    continue
                key_sets = []
                for x, prof in group:
                    key_sets.append(set())
                    _bucket_keys(ctx, x, prof, key_sets[-1])
                    assert key_sets[-1] == key_sets[0], (name, node, x)

        solve(inst, lay, trace=watch)
        assert searched <= survivors <= enumerated, name
        if name in dict(wide):
            assert searched < survivors, name


def _show(ctx, label):
    """A label as its kind and the vertices of its class's representative,
    read from the family the kind names."""
    kind = label & 3
    fam = (ctx.fam_x2, ctx.fam_x1, ctx.fam_y2, ctx.fam_y1)[kind]
    return ("xn", "xs", "yn", "ys")[kind] + "".join(str(v) for v in bits(reps(fam)[label >> 2]))


def test_bucket_keys_pinned_small_profile():
    # a=0 and b=1 are two components of the solution {a, b}; u=2 sees both
    # and w=3 sees a.  Far side {2, 3}, mim 1, so at most two sets a side.
    # Attachment {a, b} carries three labels (yn2, yn23, ys2), attachment
    # {a} is a lone hook with two (yn3, ys3): it keeps a unmatched and
    # excludes the {a, b} type.  One label per type at most.
    g = Graph(4, [(0, 2), (1, 2), (0, 3)])
    inst = Instance(g, 0, (1,) * 4)
    lay = layout_from_order([0, 1, 2, 3])
    ctx = node_context(inst, lay, node_for(lay, 0b0011))
    assert ctx.mim == 1
    labels = {}
    prof = _profile_solution(inst, ctx, 0b0011, labels)
    names = {bit: label for label, bit in labels.items()}
    assert sorted(
        (att, sorted(_show(ctx, names[1 << b]) for b in bits(label_mask)))
        for att, _, label_mask in prof.types
    ) == [(0b01, ["yn3", "ys3"]), (0b11, ["yn2", "yn23", "ys2"])]
    # x_rest is shown as its class's representative
    got = {
        (
            reps(ctx.fam_x1)[x_rest],
            frozenset(frozenset(_show(ctx, label) for label in grp) for grp in groups),
        )
        for x_rest, groups in _keys_by_type(inst, ctx, 0b0011, {})
    }

    def key(x_rest, *groups):
        return x_rest, frozenset(frozenset(grp.split()) for grp in groups)

    assert got == {
        # both blocks matched: nothing else, or one label of the {a, b} type
        key(0, "xn0", "xn1"),
        key(0, "xn0 xn1 yn2"), key(0, "xn0 xn1 yn23"), key(0, "xn0 xn1 ys2"),
        # nothing matched: no far set, or one label of either type
        key(1),
        key(1, "yn2"), key(1, "yn23"), key(1, "ys2"), key(1, "yn3"), key(1, "ys3"),
        # b matched: its own group, the lone hook on a beside it
        key(1, "xn1"), key(1, "xn1", "yn3"), key(1, "xn1", "ys3"),
        key(1, "xn1 yn2"), key(1, "xn1 yn23"), key(1, "xn1 ys2"),
        # a matched: the lone hook on a is out
        key(2, "xn0"),
        key(2, "xn0 yn2"), key(2, "xn0 yn23"), key(2, "xn0 ys2"),
    }


def test_bucket_keys_pinned_many_labels_and_groups():
    # Solution {a, b, d} = {0, 1, 2}: three components and three trees.
    # Far vertices 6..8 see a, b and one of 3..5 each, so many far sets hit
    # exactly {a, b}; 9, 10 and 11 hook a, b and d alone; 12 sees d and 3.
    # With d in S it is a matched S-vertex instead of a component.
    edges = [(6 + i, v) for i in range(3) for v in (0, 1, 3 + i)]
    edges += [(9, 0), (10, 1), (11, 2), (12, 2), (12, 3)]
    g = Graph(13, edges)
    lay = layout_from_order(list(range(13)))
    for s, n_keys, per_att in (
        (0, 2176, {0b011: 20, 0b001: 2, 0b010: 2, 0b100: 5, 0b111: 47, 0b101: 3, 0b110: 3}),
        (0b100, 1552, {0b011: 20, 0b001: 2, 0b010: 2, 0b100: 4, 0b111: 30, 0b101: 2, 0b110: 2}),
    ):
        inst = Instance(g, s, (1,) * 13)
        ctx = node_context(inst, lay, node_for(lay, 0b111111))
        assert ctx.mim == 4
        prof = _profile_solution(inst, ctx, 0b111, {})
        assert {att: label_mask.bit_count() for att, _, label_mask in prof.types} == per_att
        got = _keys_by_type(inst, ctx, 0b111, {})
        assert got == _keys_by_candidate(inst, ctx, 0b111, {})
        assert len(got) == n_keys
        # three lone hooks at once: three groups without a matched label
        assert any(len(groups) == 3 and not any(l & 3 < 2 for grp in groups for l in grp)
                   for _, groups in got)


# ------------------------------------------------------------------- best


def test_best_of_trivial_tables():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    assert best(inst, {0: 0}, 0) == 0
    assert best(inst, {}, 0) == NEG_INF


def test_best_rejects_cycle_closing_completion():
    inst = Instance(triangle(), 0b100, (1, 1, 1))
    table = {0b011: 2}
    assert best(inst, table, 0b100) == NEG_INF
    assert best(inst, table, 0) == 2


# ------------------------------------------------------------------ solve


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_solve_small_cycles():
    # one deletion breaks every cycle of a ring with all vertices tracked
    for n, want in [(3, 2), (4, 3), (5, 4)]:
        inst = Instance(ring(n), (1 << n) - 1, (1,) * n)
        res = solve(inst, layout_from_order(list(range(n))))
        assert res.weight == want
        assert is_s_forest(inst.graph, res.sforest, inst.s_set)
        assert res.deletion == inst.graph.vertices & ~res.sforest


def test_solve_complete_graph_needs_two():
    g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    res = solve(Instance(g, 0b1111, (1, 1, 1, 1)), layout_from_order([0, 1, 2, 3]))
    assert res.weight == 2


def test_solve_single_tracked_vertex_on_ring():
    # only the cycle through vertex 0 matters, one deletion still needed
    inst = Instance(ring(4), 0b0001, (1, 1, 1, 1))
    assert solve(inst, layout_from_order([0, 1, 2, 3])).weight == 3


def test_solve_untracked_ring_keeps_everything():
    inst = Instance(ring(4), 0, (1, 1, 1, 1))
    res = solve(inst, layout_from_order([0, 1, 2, 3]))
    assert res.weight == 4
    assert res.sforest == 0b1111


def test_solve_prefers_dropping_negative_weight():
    inst = Instance(Graph(1, []), 0b1, (-5,))
    res = solve(inst, layout_from_order([0]))
    assert res.weight == 0
    assert res.sforest == 0
    assert res.deletion == 0b1


def test_solve_zero_weight_tie_prefers_smaller_vertex_set():
    inst = Instance(Graph(4, []), 0b1111, (2, -1, 3, 0))
    res = solve(inst, layout_from_order([0, 1, 2, 3]))
    assert res.weight == 5
    assert res.sforest == 0b0101


def test_solve_tie_break_is_lexicographic():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    inst = Instance(g, (1 << 6) - 1, (1,) * 6)
    res = solve(inst, layout_from_order(list(range(6))))
    assert res.weight == 4
    assert res.sforest == mask_of([0, 1, 3, 4])


def test_root_check_raises_on_a_dead_root_row(monkeypatch):
    # With reduce_table returning the merged table, dead rows reach the
    # root, and the heaviest one there, the whole triangle, is no S-forest.
    monkeypatch.setattr(dp, "reduce_table", lambda table, ctx, inst: table)
    inst = Instance(triangle(), 0b111, (1, 1, 1))
    with pytest.raises(CheckError, match="not an S-forest"):
        solve(inst, layout_from_order([0, 1, 2]))


def test_solve_rejects_mismatched_layout():
    inst = Instance(path(3), 0b111, (1, 1, 1))
    with pytest.raises(ValueError):
        solve(inst, layout_from_order([0, 1, 2, 3]))


def test_solve_trace_sees_representative_tables():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(4, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        inst = Instance(Graph(n, edges), rng.randrange(1 << n), (1,) * n)
        lay = layout_from_order(list(range(n)))
        seen = []

        def watch(node, ctx, merged, reduced):
            assert len(reduced) <= len(merged)
            assert check_represents(inst, ctx.vx, merged, reduced)
            seen.append(node)

        solve(inst, lay, trace=watch)
        assert seen == [x for x in lay.postorder() if not lay.is_leaf(x)]


def _dominant_case(rng):
    """A random binary layout (n <= 10) with random S and weights in -3..9,
    up to three of them raised into 20..80: a few vertices often outweigh
    all the others together, so the instance has a forced set."""
    inst, lay = _random_binary_case(rng, rng.randint(2, 10))
    n = inst.n
    s = mask_of(v for v in range(n) if rng.random() < 0.4)
    weights = [rng.randint(-3, 9) for _ in range(n)]
    for v in rng.sample(range(n), rng.randint(0, min(3, n))):
        weights[v] = rng.randint(20, 80)
    return Instance(inst.graph, s, tuple(weights)), lay


def _forced_by_definition(inst):
    """The longest proper prefix of the vertices, by weight then id, whose
    every vertex outweighs the positive weight outside it and which induces
    an S-forest (`s_forest_by_cycles`), tried prefix by prefix."""
    g, w = inst.graph, inst.weights
    order = sorted(range(g.n), key=lambda v: (-w[v], v))
    for k in range(g.n - 1, 0, -1):
        outside = sum(max(w[u], 0) for u in order[k:])
        h = mask_of(order[:k])
        if all(w[v] > outside for v in order[:k]) and s_forest_by_cycles(g, h, inst.s_set):
            return h
    return 0


def test_forced_set_is_held_by_every_maximum():
    """On 500 random instances (`_dominant_case`), `forced_set` equals the
    prefix definition, and every maximum-weight S-forest, listed by brute
    force, holds it.  Most instances have a forced set."""
    rng = random.Random(76)
    nonempty = 0
    for trial in range(500):
        inst, _ = _dominant_case(rng)
        g, s = inst.graph, inst.s_set
        forests = {m: inst.weight_of(m) for m in range(1 << g.n) if s_forest_by_cycles(g, m, s)}
        top = max(forests.values())
        h = dp.forced_set(inst)
        assert h == _forced_by_definition(inst), trial
        assert all(m & h == h for m, w in forests.items() if w == top), trial
        nonempty += h != 0
    assert nonempty > 400, nonempty


def test_forced_set_pinned_cases(monkeypatch):
    tested = []
    monkeypatch.setattr(dp, "is_s_forest", lambda g, x, s: tested.append(x) or is_s_forest(g, x, s))
    # Unit weights force nothing, even on an S-forest, and test no prefix:
    # only all of V outweighs its (empty) outside, and it is not tried.
    assert dp.forced_set(Instance(path(6), 0b111111, (1,) * 6)) == 0 and tested == []
    # The hub reduction forces the hub and the terminals, or with deletable
    # terminals the hub alone.
    nmc = NmcInstance(path(5), (0, 4), (1, 2, 3, 2, 1))
    inst, hub = reduce_to_sfvs(nmc)
    assert dp.forced_set(inst) == mask_of([0, 4, hub])
    inst, hub = reduce_to_sfvs(nmc, deletable_terminals=True)
    assert dp.forced_set(inst) == 1 << hub
    # Zero and negative weights are never forced.
    edgeless = Graph(4, [])
    assert dp.forced_set(Instance(edgeless, 0b1111, (0, -2, 0, -1))) == 0
    assert dp.forced_set(Instance(edgeless, 0b1111, (5, 0, -1, 0))) == 0b0001
    # {0, 1, 2} outweighs the rest, but its triangle runs through S = {0}:
    # the longest prefix that is an S-forest is {0, 1}.
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    tested.clear()
    assert dp.forced_set(Instance(g, 0b00001, (50, 40, 30, 1, 1))) == 0b00011
    assert tested == [0b00111, 0b00011]


def test_solve_with_forced_set_matches_brute_force():
    """On 1500 random binary layouts with dominant weights (`_dominant_case`),
    most of them with a forced set, `solve` drops the rows that cannot hold
    it and still reaches the brute-force optimum."""
    rng = random.Random(77)
    nonempty = 0
    for trial in range(1500):
        inst, lay = _dominant_case(rng)
        assert solve(inst, lay).weight == brute_force_sfvs(inst)[0], trial
        nonempty += dp.forced_set(inst) != 0
    assert nonempty > 1200, nonempty


def test_cut_values_read_only_the_boundary(monkeypatch):
    """On an n = 400 path over the id-order caterpillar, every cut boundary
    holds at most one vertex.  The width report (all three kinds), the
    interval certificate check and the solve pass only that boundary to the
    two-sided cut functions, never the node's whole side.  Every one of
    them reads a cut's rows through `layouts._distinct_rows`, once per
    call, so each kind's pass reads each cut once.  The solve searches a
    cut's mim only at key-route nodes."""
    n = 400
    g = path(n)
    sides = []
    key_nodes = []
    orig = layouts._distinct_rows
    monkeypatch.setattr(layouts, "_distinct_rows", lambda g, a, b: sides.append(a) or orig(g, a, b))
    keep_by_keys = dp._keep_by_keys
    monkeypatch.setattr(dp, "_keep_by_keys", lambda *args: key_nodes.append(1) or keep_by_keys(*args))
    lay = layout_from_order(range(n))
    for kind in ("gf2", "rational", "mim"):
        assert width(g, lay, kind)[0] == 1
    assert interval_layout([(v, v + 1) for v in range(n)], g) == lay
    assert solve(Instance(g, g.vertices, (1,) * n), lay) == SolveResult(n, g.vertices, 0)
    assert len(sides) == 4 * lay.node_count + len(key_nodes)
    assert max(a.bit_count() for a in sides) <= 2


def test_node_mim_matches_width_and_is_searched_once(monkeypatch):
    """On random graphs (n <= 14) over shuffled caterpillars, balanced
    layouts and their hub extensions (`extend_layout`, the hub joined to
    up to three vertices), `ctx.mim` read in a trace at every internal
    node equals that node's value in `width(g, lay, "mim")`, and the solve
    searches each node's cut at most once, however often the key route
    and the trace read it."""
    rng = random.Random(32)
    calls = []
    orig = dp.mim_bipartite
    monkeypatch.setattr(dp, "mim_bipartite", lambda g, a, b: calls.append(a) or orig(g, a, b))

    def nest(part):
        mid = len(part) // 2
        return part[0] if len(part) == 1 else f"({nest(part[:mid])},{nest(part[mid:])})"

    checked, widest = 0, 0
    for _ in range(16):
        n = rng.randint(2, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        names = [f"v{v}" for v in range(n)]
        order = rng.sample(range(n), n)
        hub_edges = edges + [(v, n) for v in rng.sample(range(n), min(3, n))]
        balanced = parse_layout(nest([names[v] for v in order]), names)
        for base in (layout_from_order(order), balanced):
            for g, lay in ((Graph(n, edges), base), (Graph(n + 1, hub_edges), extend_layout(base, n))):
                want = width(g, lay, "mim")[1]
                s = mask_of(v for v in range(g.n) if rng.random() < 0.4)
                inst = Instance(g, s, tuple(rng.randint(1, 3) for _ in range(g.n)))
                seen = []

                def watch(node, ctx, merged, reduced):
                    assert ctx.mim == ctx.mim == want[node], node
                    seen.append(node)

                calls.clear()
                solve(inst, lay, trace=watch)
                assert len(calls) == len(seen) == lay.node_count - lay.n
                checked += len(seen)
                widest = max(widest, max(want))
    assert checked > 300 and widest >= 3, (checked, widest)
