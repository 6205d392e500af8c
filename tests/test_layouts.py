"""Layouts, cut functions and their width; serialization; interval layouts."""

import itertools
import random
from fractions import Fraction

import pytest

from subsetfvs.graphs import Graph, bits, mask_of
from subsetfvs.layouts import (
    RootedLayout,
    _rational_rank,
    cut_rank,
    distinct_external_neighborhoods,
    gf2_rank,
    interval_layout,
    intervals_intersect,
    layout_from_order,
    mim_bipartite,
    mim_cut,
    parse_layout,
    serialize_layout,
    vertex_set_below,
    width,
)


def fraction_rank(rows):
    """Plain Gaussian elimination over exact rationals, written from the
    textbook definition; the reference for the rational cut rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def brute_mim(g, a, b):
    """Largest induced matching across the cut by trying all edge subsets."""
    cross = [(u, v) for u in bits(a) for v in bits(b) if g.has_edge(u, v)]
    best = 0
    for k in range(len(cross), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(cross, k):
            verts = set()
            ok = True
            for u, v in combo:
                if u in verts or v in verts:
                    ok = False
                    break
                verts.add(u)
                verts.add(v)
            if not ok:
                continue
            if all(
                not g.has_edge(u1, v2) and not g.has_edge(u2, v1)
                for (u1, v1), (u2, v2) in itertools.combinations(combo, 2)
            ):
                best = k
                break
    return best


def test_layout_below():
    lay = layout_from_order([0, 1, 2])
    assert vertex_set_below(lay, lay.root) == 0b111
    leaves = [x for x in lay.nodes() if lay.is_leaf(x)]
    assert sorted(lay.below[x] for x in leaves) == [0b001, 0b010, 0b100]
    internal = [x for x in lay.nodes() if not lay.is_leaf(x)]
    assert 0b011 in [lay.below[x] for x in internal]  # deepest join holds {v0,v1}
    with pytest.raises(ValueError):
        vertex_set_below(lay, 99)


def test_layout_from_order_shapes():
    two = layout_from_order([0, 1])
    assert two.node_count == 3 and not two.is_leaf(two.root)
    three = layout_from_order([0, 1, 2])
    assert three.leaf_vertex[three.right[three.root]] == 2
    single = layout_from_order([0])
    assert single.node_count == 1 and single.is_leaf(single.root)
    with pytest.raises(ValueError):
        layout_from_order([])
    with pytest.raises(ValueError):
        layout_from_order([0, 0])


def test_cut_rank_k22():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert cut_rank(g, 0b0011, "gf2") == 1
    assert cut_rank(g, 0b0011, "rational") == 1
    assert cut_rank(g, 0, "gf2") == 0
    assert cut_rank(g, 0, "rational") == 0


def test_cut_rank_all_ones_minus_identity():
    # cut matrix J - I on 3x3: full rank over the rationals, rank 2 over GF(2)
    g = Graph(6, [(u, v + 3) for u in range(3) for v in range(3) if u != v])
    a = 0b000111
    rows = [[1 if g.has_edge(u, v) else 0 for v in bits(g.vertices & ~a)] for u in bits(a)]
    assert fraction_rank(rows) == 3
    assert cut_rank(g, a, "rational") == 3
    assert cut_rank(g, a, "gf2") == 2
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    with pytest.raises(ValueError):
        cut_rank(g, a, "real")


def test_rational_rank_matches_fraction_reference():
    # GF(2) and rational ranks differ on the first two
    fixed = [
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[0, 3, -1], [0, 0, 0], [0, -6, 2], [5, 1, 1]],
    ]
    assert gf2_rank([0b011, 0b110, 0b101]) == 2
    assert _rational_rank(fixed[0]) == fraction_rank(fixed[0]) == 3
    for rows in fixed:
        assert _rational_rank(rows) == fraction_rank(rows)
    rng = random.Random(404)
    for _ in range(300):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        lo, hi = rng.choice([(0, 1), (-3, 3)])
        rows = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3 and r > 1:
            # force a dependent row
            k = rng.randint(-2, 2)
            rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
        assert _rational_rank(rows) == fraction_rank(rows)


def test_cut_rank_symmetry_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        a = rng.randrange(1 << n)
        for kind in ("gf2", "rational"):
            assert cut_rank(g, a, kind) == cut_rank(g, g.vertices & ~a, kind)


def test_mim_examples():
    pm = Graph(6, [(0, 3), (1, 4), (2, 5)])
    assert mim_cut(pm, 0b000111) == 3
    k33 = Graph(6, [(u, v + 3) for u in range(3) for v in range(3)])
    assert mim_cut(k33, 0b000111) == 1
    empty = Graph(4, [])
    assert mim_cut(empty, 0b0011) == 0
    with pytest.raises(ValueError):
        mim_bipartite(pm, 0b11, 0b10)


def test_mim_against_exhaustive():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        a = rng.randrange(1 << n)
        assert mim_cut(g, a) == brute_mim(g, a, g.vertices & ~a)


def test_width_p4_caterpillar():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    lay = layout_from_order([0, 1, 2, 3])
    # reference: rank every one of the layout's cuts directly
    expected = max(cut_rank(g, lay.below[x], "gf2") for x in lay.nodes())
    w, report = width(g, lay, "gf2")
    assert w == expected == 1
    assert len(report.values) == lay.node_count


def test_width_edge_cases():
    empty = Graph(3, [])
    assert width(empty, layout_from_order([2, 0, 1]), "mim")[0] == 0
    single = Graph(1, [])
    assert width(single, layout_from_order([0]), "gf2")[0] == 0
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        width(g, layout_from_order([0]), "gf2")
    with pytest.raises(ValueError):
        width(g, layout_from_order([0, 1]), "boolean")


def test_distinct_external_neighborhoods():
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert distinct_external_neighborhoods(k22, 0b0011) == 1
    pm = Graph(6, [(0, 3), (1, 4), (2, 5)])
    assert distinct_external_neighborhoods(pm, 0b000111) == 3
    isolated = Graph(3, [(1, 2)])
    assert distinct_external_neighborhoods(isolated, 0b001) == 1


def test_intervals_intersect():
    assert intervals_intersect((1, 5), (5, 9))
    assert intervals_intersect((2, 3), (1, 10))
    assert not intervals_intersect((1, 2), (3, 4))


def test_interval_layout_disjoint():
    iv = [(0, 1), (10, 11), (20, 21)]
    g = Graph(3, [])
    lay = interval_layout(iv, g)
    assert width(g, lay, "mim")[0] == 0


def test_interval_layout_nested():
    iv = [(1, 10), (2, 3), (4, 5)]
    g = Graph(3, [(0, 1), (0, 2)])
    lay = interval_layout(iv, g)
    assert all(mim_cut(g, lay.below[x]) <= 1 for x in lay.nodes())
    # sorted by left endpoint: the deepest join pairs the two leftmost
    internal = [x for x in lay.nodes() if not lay.is_leaf(x)]
    assert 0b011 in [lay.below[x] for x in internal]


def test_interval_layout_random_width_one():
    rng = random.Random(20)
    iv = []
    for _ in range(20):
        left = rng.randint(0, 60)
        iv.append((left, left + rng.randint(1, 12)))
    edges = [
        (i, j)
        for i in range(20)
        for j in range(i + 1, 20)
        if intervals_intersect(iv[i], iv[j])
    ]
    g = Graph(20, edges)
    lay = interval_layout(iv, g)
    assert max(mim_cut(g, lay.below[x]) for x in lay.nodes()) <= 1


def test_interval_layout_validates_model():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        interval_layout([(0, 1)], g)
    with pytest.raises(ValueError):
        interval_layout([(0, 1), (5, 6)], g)  # intervals disjoint, edge present
    with pytest.raises(ValueError):
        interval_layout([(3, 1), (0, 2)], g)


def test_serialize_parse_roundtrip():
    names = ["v0", "v1", "v2"]
    lay = layout_from_order([0, 1, 2])
    text = serialize_layout(lay, names)
    assert text == "((v0,v1),v2)"
    back = parse_layout(text, names)
    assert back.below == lay.below
    assert parse_layout("(v0,v1)", ["v0", "v1"]).node_count == 3


def test_parse_layout_errors():
    names = ["v0", "v1", "v2"]
    with pytest.raises(ValueError):
        parse_layout("((v0,v0),v1)", names)
    with pytest.raises(ValueError):
        parse_layout("(v0,v1)", names)  # v2 missing
    with pytest.raises(ValueError):
        parse_layout("((v0,v1),v2)x", names)
    with pytest.raises(ValueError):
        parse_layout("", names)
    with pytest.raises(ValueError):
        parse_layout("(v0,unknown)", ["v0", "v1"])


def test_random_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 9)
        names = [f"n{i}" for i in range(n)]

        def rand_tree(vs):
            if len(vs) == 1:
                return vs[0]
            cut = rng.randint(1, len(vs) - 1)
            return (rand_tree(vs[:cut]), rand_tree(vs[cut:]))

        def render(t):
            if isinstance(t, int):
                return names[t]
            return f"({render(t[0])},{render(t[1])})"

        perm = list(range(n))
        rng.shuffle(perm)
        text = render(rand_tree(perm))
        lay = parse_layout(text, names)
        assert serialize_layout(lay, names) == text


@pytest.mark.parametrize("shape", ["caterpillar", "balanced"])
def test_roundtrip_deep_and_large_layouts(shape):
    """5000 leaves: a caterpillar nests 4999 levels deep, past the default
    recursion limit."""
    n = 5000
    names = [f"v{i}" for i in range(n)]
    if shape == "caterpillar":
        text = names[0]
        for name in names[1:]:
            text = f"({text},{name})"
    else:
        level = list(names)
        while len(level) > 1:
            paired = [f"({a},{b})" for a, b in zip(level[::2], level[1::2])]
            level = paired + level[len(paired) * 2:]
        text = level[0]
    lay = parse_layout(text, names)
    assert lay.node_count == 2 * n - 1
    assert lay.below[lay.root] == (1 << n) - 1
    assert all(lay.left[x] < x and lay.right[x] < x for x in lay.postorder() if not lay.is_leaf(x))
    assert serialize_layout(lay, names) == text
    if shape == "caterpillar":
        assert lay.below == layout_from_order(range(n)).below
