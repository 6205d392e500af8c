"""Layouts, cut functions and their width; serialization; interval layouts."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from subsetfvs import layouts
from subsetfvs.graphs import Graph, bits, mask_of
from subsetfvs.layouts import (
    RootedLayout,
    _rational_rank,
    boundaries,
    cut_rank,
    gf2_rank,
    interval_layout,
    intervals_intersect,
    layout_from_order,
    mim_bipartite,
    mim_bipartite_at_most_one,
    mim_cut,
    parse_layout,
    permutation_layout,
    serialize_layout,
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
    """Largest induced matching across the cut by trying edge subsets of
    growing size.  Every subset of an induced matching is one, so the first
    size with none ends the search."""
    cross = [(u, v) for u in bits(a) for v in bits(b) if g.has_edge(u, v)]

    def induced(combo):
        us = {u for u, _ in combo}
        vs = {v for _, v in combo}
        return len(us) == len(vs) == len(combo) and all(
            not g.has_edge(u1, v2) and not g.has_edge(u2, v1)
            for (u1, v1), (u2, v2) in itertools.combinations(combo, 2)
        )

    k = 0
    while any(induced(combo) for combo in itertools.combinations(cross, k + 1)):
        k += 1
    return k


def interval_graph(rng, n, longest):
    """A random interval graph with its certificate layout: left ends in
    [0, 3n], lengths in [1, longest], the `generate interval` shape when
    longest = n // 2."""
    iv = []
    for _ in range(n):
        left = rng.randint(0, 3 * n)
        iv.append((left, left + rng.randint(1, longest)))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if intervals_intersect(iv[u], iv[v])])
    return g, interval_layout(iv, g)


def test_layout_below():
    lay = layout_from_order([0, 1, 2])
    leaves = [x for x in lay.postorder() if lay.is_leaf(x)]
    assert sorted(lay.below[x] for x in leaves) == [0b001, 0b010, 0b100]
    internal = [x for x in lay.postorder() if not lay.is_leaf(x)]
    assert 0b011 in [lay.below[x] for x in internal]  # deepest join holds {v0,v1}


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


def test_rational_rank_shortcut_matches_bareiss_on_random_cuts(monkeypatch):
    """The rational rank returns the count of distinct nonzero rows, with no
    elimination, when they are independent over GF(2).  On random cuts of
    random graphs, shortcut or not, it equals Bareiss elimination on the
    whole cut matrix, and both paths run."""
    calls = []
    monkeypatch.setattr(layouts, "_rational_rank", lambda rows: calls.append(rows) or _rational_rank(rows))
    rng = random.Random(505)
    cuts = shortcuts = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        a = rng.randrange(1 << n)
        b = g.vertices & ~a
        full = [[g.adj[v] >> u & 1 for u in bits(b)] for v in bits(a)]
        before = len(calls)
        assert layouts.rank_bipartite(g, a, b, "rational") == (_rational_rank(full) if full else 0)
        cuts += 1
        shortcuts += len(calls) == before
    assert cuts == 3000 and 0 < shortcuts < cuts


def test_rational_rank_falls_back_when_gf2_rank_falls_short(monkeypatch):
    # Side rows 110, 101 and 011 over the far vertices 3, 4, 5: their GF(2)
    # rank is 2 (they sum to 0), their rational rank 3, so elimination runs.
    g = Graph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    calls = []
    monkeypatch.setattr(layouts, "_rational_rank", lambda rows: calls.append(rows) or _rational_rank(rows))
    assert layouts.rank_bipartite(g, 0b000111, 0b111000, "gf2") == 2
    assert layouts.rank_bipartite(g, 0b000111, 0b111000, "rational") == 3
    assert len(calls) == 1
    # Two of those rows are independent over GF(2): no elimination.
    assert layouts.rank_bipartite(g, 0b000011, 0b111000, "rational") == 2
    assert len(calls) == 1


def packed_gf2_cut_rank(g, a):
    """GF(2) cut rank with the complement's columns packed densely, one bit
    at a time, and a textbook XOR basis keyed by each row's highest bit."""
    comp = g.vertices & ~a
    basis = {}
    for v in bits(a):
        row = 0
        for j, u in enumerate(bits(comp)):
            if g.adj[v] >> u & 1:
                row |= 1 << j
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def test_gf2_cut_rank_matches_packed_reference():
    rng = random.Random(77)
    for _ in range(400):
        n = rng.randint(1, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        a = rng.randrange(1 << n)
        assert cut_rank(g, a, "gf2") == packed_gf2_cut_rank(g, a)
    for n in (12, 30):
        g, lay = interval_graph(rng, n, n // 2)
        for x in lay.postorder():
            assert cut_rank(g, lay.below[x], "gf2") == packed_gf2_cut_rank(g, lay.below[x])


def dense_rational_cut_rank(g, a):
    """Rational cut rank of the whole |a| x |complement| matrix, zero rows
    and columns included."""
    comp = g.vertices & ~a
    return fraction_rank([[g.adj[v] >> u & 1 for u in bits(comp)] for v in bits(a)])


def test_rational_cut_rank_matches_dense_reference():
    # cut_rank(..., "rational") ranks only the rows with a neighbor across
    # the cut and the columns they touch
    rng = random.Random(78)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 11)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        cases.append((g, rng.randrange(1 << n)))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    edgeless = Graph(7, [])
    cases += [
        (two_triangles, 0b000111),  # no edge crosses
        (two_triangles, two_triangles.vertices),  # the full side
        (two_triangles, 0),
        (edgeless, 0b0101010),
        (edgeless, edgeless.vertices),
    ]
    for g, a in cases:
        assert cut_rank(g, a, "rational") == dense_rational_cut_rank(g, a)
    assert cut_rank(two_triangles, 0b000111, "rational") == 0
    assert cut_rank(two_triangles, 0b001011, "rational") == 2
    g, lay = interval_graph(rng, 30, 15)
    for x in lay.postorder():
        assert cut_rank(g, lay.below[x], "rational") == dense_rational_cut_rank(g, lay.below[x])


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
    """One-sided cuts (b the complement of a) and two-sided ones (b a strict
    subset of the complement, as `width` and `build_context` pass)."""
    rng = random.Random(67)
    values = set()
    for i in range(300):
        n = rng.randint(2, 12)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        a = rng.randrange(1 << n)
        b = g.vertices & ~a
        if i % 2 and b:
            b &= rng.randrange(1 << n) & ~(1 << rng.choice(list(bits(b))))
            got = mim_bipartite(g, a, b)
        else:
            got = mim_cut(g, a)
        want = brute_mim(g, a, b)
        assert got == want, (n, sorted(g.edges()), a, b)
        values.add(min(want, 3))
    assert values == {0, 1, 2, 3}


def test_mim_cut_leaves_no_cyclic_garbage():
    rng = random.Random(12)
    g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.3])
    gc.collect()
    gc.disable()
    try:
        values = {mim_cut(g, 0b000000111111) for _ in range(50)}
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(values) == 1


def test_mim_bipartite_at_scale():
    matching = Graph(80, [(i, 40 + i) for i in range(40)])
    assert mim_cut(matching, (1 << 40) - 1) == 40
    # The crown: a_i sees every b_j but b_i.  Any two a's with their missing
    # b's swapped form an induced matching; a third sees both b's.
    k = 150
    crown = Graph(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])
    assert mim_cut(crown, (1 << k) - 1) == 2
    g, lay = interval_graph(random.Random(200), 200, 100)
    assert all(mim_cut(g, lay.below[x]) <= 1 for x in lay.postorder())


def test_width_p4_caterpillar():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    lay = layout_from_order([0, 1, 2, 3])
    # reference: rank every one of the layout's cuts directly
    expected = max(cut_rank(g, lay.below[x], "gf2") for x in lay.postorder())
    w, values = width(g, lay, "gf2")
    assert w == expected == 1
    assert len(values) == lay.node_count


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


def _boundary_cases():
    """Random graphs (n <= 14) on caterpillar, balanced and random binary
    layouts over shuffled vertex orders, and an n = 85 interval graph on
    its certificate layout."""
    rng = random.Random(14)

    def nest(part):
        mid = len(part) // 2
        return part[0] if len(part) == 1 else f"({nest(part[:mid])},{nest(part[mid:])})"

    for i in range(16):
        n = rng.randint(2, 14)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        names = [f"v{v}" for v in range(n)]
        order = rng.sample(names, n)
        yield f"caterpillar-{i}", g, layout_from_order([int(v[1:]) for v in order])
        yield f"balanced-{i}", g, parse_layout(nest(order), names)
        trees = list(order)
        while len(trees) > 1:
            a = trees.pop(rng.randrange(len(trees)))
            b = trees.pop(rng.randrange(len(trees)))
            trees.append(f"({a},{b})")
        yield f"binary-{i}", g, parse_layout(trees[0], names)
    yield ("interval-n85", *interval_graph(rng, 85, 14))


def test_boundaries_match_definition():
    """Each node's boundary is the set of vertices below it with a neighbor
    outside it."""
    for name, g, lay in _boundary_cases():
        got = boundaries(g, lay)
        assert len(got) == lay.node_count
        for x in lay.postorder():
            below = lay.below[x]
            want = mask_of(v for v in bits(below) if g.adj[v] & ~below)
            assert got[x] == want, (name, x)


def test_width_values_match_cut_functions():
    """The width report, read from boundary rows, gives every node the
    value of the cut function on the node's whole side."""
    for name, g, lay in _boundary_cases():
        for kind in ("gf2", "rational", "mim"):
            w, values = width(g, lay, kind)
            for x in lay.postorder():
                a = lay.below[x]
                want = mim_cut(g, a) if kind == "mim" else cut_rank(g, a, kind)
                assert values[x] == want, (name, kind, x)
            assert w == max(values)


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
    assert all(mim_cut(g, lay.below[x]) <= 1 for x in lay.postorder())
    # sorted by left endpoint: the deepest join pairs the two leftmost
    internal = [x for x in lay.postorder() if not lay.is_leaf(x)]
    assert 0b011 in [lay.below[x] for x in internal]


def test_interval_layout_random_width_one():
    rng = random.Random(20)
    g, lay = interval_graph(rng, 20, 12)
    assert max(mim_cut(g, lay.below[x]) for x in lay.postorder()) <= 1


def test_mim_at_most_one_criterion_matches_mim_cut():
    """Nested crossing neighborhoods decide mim <= 1 exactly as the full
    induced-matching search does: on random graphs and random cuts, and on
    cuts with hundreds of crossing edges of dense interval graphs, on their
    certificate layout and on caterpillars with a few leaves swapped."""
    rng = random.Random(316)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(1, 10)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        a = rng.randrange(1 << n)
        want = mim_cut(g, a) <= 1
        assert mim_bipartite_at_most_one(g, a, g.vertices & ~a) == want, (n, sorted(g.edges()), a)
        verdicts.add(want)
    assert verdicts == {True, False}
    values = set()
    most_crossing = 0
    for n in (100, 200):
        g, lay = interval_graph(rng, n, n // 2)
        order = [lay.leaf_vertex[x] for x in lay.postorder() if lay.is_leaf(x)]
        for swaps in (0, 2, 4):
            for _ in range(swaps):
                i, j = rng.sample(range(n), 2)
                order[i], order[j] = order[j], order[i]
            cat = layout_from_order(order)
            for x in cat.postorder():
                a = cat.below[x]
                m = mim_cut(g, a)
                assert mim_bipartite_at_most_one(g, a, g.vertices & ~a) == (m <= 1), (n, swaps, x)
                values.add(min(m, 2))
                most_crossing = max(most_crossing, sum((g.adj[v] & ~a).bit_count() for v in bits(a)))
    assert values == {0, 1, 2}
    assert most_crossing >= 300


def test_interval_layout_validates_model():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        interval_layout([(0, 1)], g)
    with pytest.raises(ValueError):
        interval_layout([(0, 1), (5, 6)], g)  # intervals disjoint, edge present
    with pytest.raises(ValueError):
        interval_layout([(3, 1), (0, 2)], g)


def _inversion_graph(perm):
    n = len(perm)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]])


def test_permutation_layout_has_unit_mim():
    """The caterpillar in position order of a permutation graph has mim at
    most 1 at every cut, by the exact search, on random permutations up to
    n = 40; the largest has cuts with many more crossing edges than one."""
    rng = random.Random(34)
    for n in (1, 2, 5, 12, 25, 40):
        perm = list(range(n))
        rng.shuffle(perm)
        g = _inversion_graph(perm)
        lay = permutation_layout(perm, g)
        assert [lay.leaf_vertex[x] for x in lay.postorder() if lay.is_leaf(x)] == list(range(n))
        assert max(mim_cut(g, lay.below[x]) for x in lay.postorder()) <= 1
    crossing = max(sum((g.adj[v] & ~lay.below[x]).bit_count() for v in bits(lay.below[x])) for x in lay.postorder())
    assert crossing > 40


def test_permutation_layout_validates_model():
    perm = [2, 0, 3, 1]
    g = _inversion_graph(perm)
    assert permutation_layout(perm, g).n == 4
    with pytest.raises(ValueError, match="permutation of"):
        permutation_layout([0, 0, 1, 2], g)
    with pytest.raises(ValueError, match=r"adjacency on \(0,2\)"):
        permutation_layout(perm, Graph(4, list(g.edges()) + [(0, 2)]))
    with pytest.raises(ValueError, match=r"adjacency on \(0,1\)"):
        permutation_layout(perm, Graph(4, [e for e in g.edges() if e != (0, 1)]))


def _first_pair_against_model(iv, g):
    """The pair loop: the first (u, v), u < v, whose adjacency the model
    gets wrong, or None."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if intervals_intersect(iv[u], iv[v]) != g.has_edge(u, v):
                return u, v
    return None


def test_interval_model_check_names_the_pair_loops_first_pair():
    """The sweep names the first pair the pair loop finds on perturbed
    interval models: an endpoint moved, or an edge of the model's graph
    flipped.  Small coordinates give shared and touching endpoints."""
    rng = random.Random(2500)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 14)
        iv = []
        for _ in range(n):
            left = rng.randint(0, 2 * n)
            iv.append((left, left + rng.randint(0, 4)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {(u, v) for u, v in pairs if intervals_intersect(iv[u], iv[v])}
        for _ in range(rng.randint(0, 2)):
            if pairs and rng.random() < 0.5:
                edges ^= {rng.choice(pairs)}
            else:
                v = rng.randrange(n)
                left = max(0, iv[v][0] + rng.randint(-2, 2))
                iv[v] = (left, max(left, iv[v][1] + rng.randint(-2, 2)))
        g = Graph(n, sorted(edges))
        want = _first_pair_against_model(iv, g)
        outcomes.add(want is None)
        if want is None:
            interval_layout(iv, g)
            continue
        with pytest.raises(ValueError) as exc:
            interval_layout(iv, g)
        assert str(exc.value) == "interval model disagrees with adjacency on (%d,%d)" % want
    assert outcomes == {True, False}


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
