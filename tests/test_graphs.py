"""Core graph primitives: masks, contractions, S-forest detection."""

import random

import pytest

from subsetfvs.graphs import (
    Graph,
    Instance,
    bits,
    components_masks,
    is_forest,
    is_s_forest,
    lex_order,
    mask_of,
)
from subsetfvs.oracles import (
    BlockPartition,
    connected_components,
    contract_partial,
    contracted,
    lex_key,
    neighborhood,
)


def test_graph_construction_and_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (2, 3)]
    assert g.vertices == 0b1111


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert list(bits(0b1010)) == [1, 3]
    assert lex_key(0b110) == (1, 2)
    assert lex_key(0) == ()


def test_lex_order_sorts_like_lex_key():
    # prefixes, the empty set, sets that differ in their first vertex, and
    # random sets up to 300 vertices wide
    fixed = [0, 0b1, 0b10, 0b11, 0b101, 0b110, 0b1001, 0b0110, 1 << 299, (1 << 300) - 1]
    rng = random.Random(13)
    masks = fixed + [rng.getrandbits(rng.randint(1, 300)) for _ in range(2000)]
    masks += [rng.getrandbits(6) for _ in range(200)]
    distinct = set(masks)
    assert sorted(distinct, key=lex_order) == sorted(distinct, key=lex_key)
    assert len({lex_order(m) for m in distinct}) == len(distinct)
    assert lex_order(0) == ""
    assert lex_order(0b1001) < lex_order(0b0110) < lex_order(0b0100)


def test_neighborhood_path():
    # P3 a-b-c: joint neighborhood of the endpoints is the middle
    g = Graph(3, [(0, 1), (1, 2)])
    assert neighborhood(g, mask_of([0, 2])) == 0b010
    assert neighborhood(g, 0) == 0
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert neighborhood(tri, 0b001) == 0b110


def test_components():
    g = Graph(3, [(0, 1), (1, 2)])
    assert components_masks(g, mask_of([0, 2])) == [0b001, 0b100]
    assert components_masks(g, 0b111) == [0b111]
    assert components_masks(g, 0) == []
    assert len(connected_components(g, 0)) == 0


def test_contracted_full_triangle_of_blocks():
    # C4 v1v2v3v4; contracting {v1,v2} leaves a triangle on the three blocks
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = BlockPartition((0b0011, 0b0100, 0b1000), (False, False, False))
    bg = contracted(g, p)
    assert bg.graph.n == 3
    assert sorted(bg.graph.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_contracted_mixed_empty_near_side():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = BlockPartition((0b0011, 0b1100), (False, False))
    bg = contracted(g, (), b, "mixed")
    assert bg.graph.n == 2
    assert list(bg.graph.edges()) == []


def test_contracted_rejects_empty_block():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        contracted(g, BlockPartition((0,), (False,)))


def test_contract_partial():
    # x = {s1,a,b} with s = {s1} and preformed block {a,b}
    p = contract_partial(0b111, BlockPartition((0b110,), (False,)), 0b001)
    assert p.blocks == (0b001, 0b110)
    assert p.s_flags == (True, False)

    allsingle = contract_partial(0b101, BlockPartition((), ()), 0b101)
    assert allsingle.blocks == (0b001, 0b100)
    assert all(allsingle.s_flags)

    empty = contract_partial(0, BlockPartition((), ()), 0b11)
    assert len(empty) == 0


def test_contract_partial_validates_cover():
    with pytest.raises(ValueError):
        contract_partial(0b111, BlockPartition((0b010,), (False,)), 0b001)
    with pytest.raises(ValueError):
        # block contains an S vertex
        contract_partial(0b111, BlockPartition((0b011,), (False,)), 0b001)


def test_is_forest():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_forest(g, g.vertices)
    assert is_forest(g, 0b0111)
    assert is_forest(g, 0)


def test_is_s_forest_triangle():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_s_forest(tri, 0b111, 0b001)
    assert is_s_forest(tri, 0b111, 0)
    assert is_s_forest(tri, 0b011, 0b001)


def test_is_s_forest_c4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_s_forest(g, g.vertices, g.vertices)
    for v in range(4):
        assert is_s_forest(g, g.vertices & ~(1 << v), g.vertices)


def test_is_s_forest_two_blocks_sharing_a_cut_vertex():
    # bowtie: two triangles glued at vertex 2; an S-vertex in one triangle
    # must not flag the other
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert not is_s_forest(g, g.vertices, 1 << 0)
    assert is_s_forest(g, g.vertices & ~0b001, 1 << 0)
    # S-vertex only in the right triangle: removing the left one changes nothing
    assert not is_s_forest(g, g.vertices, 1 << 3)
    assert not is_s_forest(g, g.vertices & ~0b001, 1 << 3)
    assert is_s_forest(g, g.vertices & ~0b01000, 1 << 3)


def test_is_s_forest_matches_definition_exhaustively():
    # ground truth straight from the definition: some cycle meets S
    def has_s_cycle(g, x, s):
        verts = [v for v in range(g.n) if (x >> v) & 1]
        n = len(verts)
        pos = {v: i for i, v in enumerate(verts)}

        def dfs_cycles():
            # enumerate all simple cycles by walking increasing start vertices
            found = []
            for start in verts:
                stack = [(start, [start], 1 << pos[start])]
                while stack:
                    u, path, seen = stack.pop()
                    for w in bits(g.adj[u] & x):
                        if w == start and len(path) >= 3:
                            found.append(list(path))
                        elif w > start and not (seen >> pos[w]) & 1:
                            stack.append((w, path + [w], seen | (1 << pos[w])))
            return found

        return any(any((s >> v) & 1 for v in cyc) for cyc in dfs_cycles())

    rng = random.Random(5150)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        s = rng.randrange(1 << n)
        for x in range(1 << n):
            assert is_s_forest(g, x, s) == (not has_s_cycle(g, x, s))


def test_instance_validation():
    g = Graph(2, [(0, 1)])
    inst = Instance(g, 0b01, (3, -4))
    assert inst.n == 2
    assert inst.weight_of(0b11) == -1
    with pytest.raises(ValueError):
        Instance(g, 0b100, (1, 1))
    with pytest.raises(ValueError):
        Instance(g, 0, (1,))
    with pytest.raises(ValueError):
        Instance(g, 0, (1 << 62, 1))
