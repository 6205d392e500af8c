"""Neighbor equivalence families: classes, representatives, canonicity."""

import math
import random

import pytest

from subsetfvs.graphs import CheckError, Graph, bits, mask_of
from subsetfvs.layouts import (
    cut_rank,
    interval_layout,
    intervals_intersect,
    layout_from_order,
    mim_cut,
    parse_layout,
)
from subsetfvs.nec import layout_families, side_family
from subsetfvs.oracles import lex_key, neighbor_counts, rep_of, reps, same_class


def classes_by_definition(g, a, d):
    """Group every subset of a by its clamped external count vector."""
    groups = {}
    for x in range(1 << g.n):
        if x & ~a:
            continue
        key = neighbor_counts(g, a, d, x)
        groups.setdefault(key, []).append(x)
    return groups


def test_neighbor_counts_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    # a = {0,2}, outside = {1}
    assert neighbor_counts(g, 0b101, 1, 0b101) == (1,)
    assert neighbor_counts(g, 0b101, 2, 0b101) == (2,)
    assert neighbor_counts(g, 0b101, 2, 0) == (0,)
    with pytest.raises(ValueError):
        neighbor_counts(g, 0b101, 1, 0b010)


def test_same_class_clamping():
    # one external vertex u adjacent to five inside vertices; 2 vs 3 chosen
    g = Graph(6, [(u, 5) for u in range(5)])
    a = 0b011111
    x, y = 0b00011, 0b11100
    assert same_class(g, a, 2, x, y)
    assert not same_class(g, a, 3, x, y)
    assert same_class(g, a, 1, x, x)
    assert not same_class(g, a, 1, 0, 0b00001)


def test_empty_outside_single_class():
    g = Graph(3, [(0, 1), (1, 2)])
    fam = side_family(g, g.vertices, 2)
    assert list(reps(fam).values()) == [0]
    assert fam.class_count == 1
    # complement side: only the empty subset exists
    fam0 = side_family(g, 0, 1)
    assert list(reps(fam0).values()) == [0]


def test_no_external_edges_single_class():
    g = Graph(4, [(0, 1)])
    fam = side_family(g, 0b0011, 1)
    assert list(reps(fam).values()) == [0]
    assert fam.class_count == 1


def test_two_vertices_one_external_neighbor():
    # a = {0,1}, both adjacent only to external 2
    g = Graph(3, [(0, 2), (1, 2)])
    fam = side_family(g, 0b011, 1)
    assert set(reps(fam).values()) == {0, 0b001}
    assert fam.class_count == 2
    assert rep_of(fam, 0) == 0
    assert rep_of(fam, 0b010) == 0b001  # same clamped key, {0} is lex-smaller
    assert rep_of(fam, 0b011) == 0b001  # count saturates at d=1
    fam2 = side_family(g, 0b011, 2)
    assert rep_of(fam2, 0b011) == 0b011
    assert fam2.class_count == 3


def test_class_of_rejects_outsiders():
    g = Graph(3, [(0, 2), (1, 2)])
    fam = side_family(g, 0b011, 1)
    with pytest.raises(ValueError):
        fam.class_of(0b100)
    with pytest.raises(ValueError):
        rep_of(fam, 0b100)


def test_reps_raise_check_error_on_a_key_without_member():
    # side {0} meets its one outside neighbor 2 at most once, so no subset
    # of the side has the key "2 seen twice"
    g = Graph(3, [(0, 2), (1, 2)])
    fam = side_family(g, 0b001, 2)
    fam.keys.add(0b100 | 0b100 << g.n)
    with pytest.raises(CheckError, match="no member"):
        reps(fam)
    # and a subset whose key the family lacks
    fam = side_family(g, 0b001, 2)
    fam.keys.discard(0)
    with pytest.raises(CheckError, match="class missing"):
        reps(fam)


def test_class_of_raises_check_error_on_a_missing_class():
    g = Graph(3, [(0, 2), (1, 2)])
    fam = side_family(g, 0b011, 1)
    fam.keys.clear()
    with pytest.raises(CheckError, match="class missing"):
        fam.class_of(0b001)


def test_key_lookup_consistency():
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    fam = side_family(g, 0b0011, 2)
    for x in range(4):
        if x & ~0b0011:
            continue
        r = rep_of(fam, x)
        assert fam.key_of(r) == fam.key_of(x)


def test_representatives_match_definition_exhaustively():
    """Canonical choice: each class's minimum-size, then lex-smallest member,
    across random graphs up to n=7 with both sides and d in {1,2}."""
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        a = rng.randrange(1 << n)
        for d in (1, 2):
            fam = side_family(g, a, d)
            groups = classes_by_definition(g, a, d)
            assert fam.class_count == len(groups)
            expected = {
                min(members, key=lambda m: (m.bit_count(), lex_key(m)))
                for members in groups.values()
            }
            assert set(reps(fam).values()) == expected
            for members in groups.values():
                want = min(members, key=lambda m: (m.bit_count(), lex_key(m)))
                for m in members:
                    assert rep_of(fam, m) == want


def test_nec_one_symmetry():
    # class counts for d=1 coincide on the two sides of every cut
    rng = random.Random(88)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        a = rng.randrange(1 << n)
        fa = side_family(g, a, 1)
        fb = side_family(g, g.vertices & ~a, 1)
        assert fa.class_count == fb.class_count


def test_class_count_bounds():
    rng = random.Random(4096)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        a = rng.randrange((1 << n) - 1) + 1
        size = a.bit_count()
        rw = cut_rank(g, a, "gf2")
        rwq = cut_rank(g, a, "rational")
        m = mim_cut(g, a)
        for d in (1, 2):
            cnt = side_family(g, a, d).class_count
            assert cnt <= 2 ** (d * rw * rw)
            assert cnt <= (d * rwq + 1) ** rwq
            if size > 1 and m > 0:
                if d * m == 1:
                    # every class has a representative of size <= 1, giving
                    # at most size+1 classes; size**1 itself can be beaten by
                    # one when the crossing neighborhoods form a full chain
                    assert cnt <= size + 1
                else:
                    assert cnt <= size ** (d * m)
    # the smallest cut where size**(d*mim) is one short: A = {0, 1}, with
    # crossing neighborhoods {2} and {2, 3} forming a chain
    g = Graph(4, [(0, 2), (1, 2), (1, 3)])
    a = 0b0011
    size = a.bit_count()
    assert mim_cut(g, a) == 1
    fam = side_family(g, a, 1)
    assert fam.class_count == len(classes_by_definition(g, a, 1)) == 3
    assert fam.class_count == size + 1 > size**1


def test_compute_reps_rejects_other_d():
    g = Graph(3, [(0, 1), (1, 2)])
    for d in (0, 3):
        with pytest.raises(ValueError):
            side_family(g, 0b011, d)
    with pytest.raises(ValueError, match="out of range"):
        side_family(g, 0b1000, 1)


def split_layout(order, rng=None):
    """Layout parsed from a nested split of order: halves when rng is None,
    random cut points otherwise."""
    names = [f"v{i}" for i in range(len(order))]

    def render(vs):
        if len(vs) == 1:
            return names[vs[0]]
        cut = len(vs) // 2 if rng is None else rng.randint(1, len(vs) - 1)
        return f"({render(vs[:cut])},{render(vs[cut:])})"

    return parse_layout(render(list(order)), names)


def random_subsets(rng, side, count):
    members = list(bits(side))
    yield 0
    yield side
    for _ in range(count):
        yield mask_of(v for v in members if rng.random() < 0.5)


def assert_layout_pass_matches(g, lay, rng):
    """At every node, near and far side, d in {1, 2}: the layout pass gives
    the key set and the class count of side_family, whose keys all have a
    member by definition (`oracles.reps` finds one per key), and the same
    class_of on random subsets."""
    near1, near2, far1, far2 = layout_families(g, lay)
    for d, near, far in ((1, near1, far1), (2, near2, far2)):
        for x in lay.postorder():
            for fam, side in ((near[x], lay.below[x]), (far[x], g.vertices & ~lay.below[x])):
                ref = side_family(g, side, d)
                assert (fam.side, fam.d, fam.out) == (side, d, g.vertices & ~side)
                assert fam.keys == set(reps(ref))
                assert fam.class_count == ref.class_count
                for sub in random_subsets(rng, side, 8):
                    assert fam.class_of(sub) == ref.class_of(sub)


def test_leaf_far_family_is_read_off_the_neighborhood():
    """A leaf's far family, side V \\ {v} seen from v, has one d = 2 class
    per count of v's neighbors, 0, 1 or at least 2, with representatives
    the empty set, v's least neighbor and v's two least neighbors, in that
    order.  Pinned for vertices with 0, 1 and 3 neighbors.  At every leaf
    of a caterpillar (the first leaf a left child) and of a balanced layout
    (leaves on both sides), the keys equal those of side_family at d = 2,
    and the d = 1 family's those at d = 1."""
    g = Graph(6, [(1, 2), (4, 2), (4, 3), (4, 5)])
    n = g.n
    pinned = {
        0: {0: 0},
        1: {0: 0, 1 << 1: 1 << 2},
        4: {0: 0, 1 << 4: 1 << 2, 1 << 4 | 1 << 4 + n: 1 << 2 | 1 << 3},
    }
    for lay in (layout_from_order(range(n)), split_layout(range(n))):
        _, _, far1, far2 = layout_families(g, lay)
        for x in lay.postorder():
            if not lay.is_leaf(x) or x == lay.root:
                continue
            v = lay.leaf_vertex[x]
            side = g.vertices & ~(1 << v)
            assert (far2[x].side, far2[x].out) == (side, 1 << v)
            assert far2[x].keys == side_family(g, side, 2).keys
            assert far1[x].keys == side_family(g, side, 1).keys
            if v in pinned:
                assert far2[x].keys == set(pinned[v]), v
                assert list(reps(far2[x]).items()) == list(pinned[v].items()), v


def test_layout_pass_matches_compute_reps_on_random_graphs():
    rng = random.Random(515)
    for _ in range(30):
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        for lay in (layout_from_order(range(n)), split_layout(order), split_layout(order, rng)):
            assert_layout_pass_matches(g, lay, rng)


def test_layout_pass_matches_compute_reps_on_interval_graphs():
    rng = random.Random(77)
    for n in (38, 42):
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
        assert_layout_pass_matches(g, interval_layout(intervals, g), rng)
    # a balanced layout over the last graph's intervals, by left end
    assert_layout_pass_matches(g, split_layout(sorted(range(n), key=intervals.__getitem__)), rng)


def test_reps_iterate_in_size_lex_order():
    """Iterating a family's reps meets the representatives in (size, lex)
    order, so a reader that walks the keys meets each class's minimum first:
    side_family on both sides of every layout node (the vertices below it
    and the rest), d in {1, 2}, and on random sides."""
    rng = random.Random(909)
    cases = []
    for _ in range(25):
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        order = list(range(n))
        rng.shuffle(order)
        cases.append((Graph(n, edges), layout_from_order(order)))
        cases.append((Graph(n, edges), split_layout(order, rng)))
    families = 0
    for g, lay in cases:
        sides = [m for x in lay.postorder() for m in (lay.below[x], g.vertices & ~lay.below[x])]
        fams = [side_family(g, side, d) for side in sides for d in (1, 2)]
        for d in (1, 2):
            fams += [side_family(g, rng.randrange(1 << g.n), d) for _ in range(3)]
        for fam in fams:
            got = list(reps(fam).values())
            assert got == sorted(got, key=lambda r: (r.bit_count(), lex_key(r)))
            families += 1
    assert families > 500


def random_interval_graph(rng, n):
    """Interval graph on n random intervals, with its certificate layout."""
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
    return g, interval_layout(intervals, g)


def assert_coarsened(g, lay, rng, samples):
    """Every d = 1 family of the layout has one class per distinct `once`
    mask of the d = 2 keys of its side, and maps a set to a representative
    with the same clamped d = 1 counts that precedes it in (size, lex)
    order."""
    low = (1 << g.n) - 1
    near1, near2, far1, far2 = layout_families(g, lay)
    for x in lay.postorder():
        for fam1, fam2 in ((near1[x], near2[x]), (far1[x], far2[x])):
            assert fam1.d == 1 and fam1.side == fam2.side
            assert fam1.class_count == len({key & low for key in fam2.keys})
            for sub in random_subsets(rng, fam1.side, samples):
                rep = rep_of(fam1, sub)
                assert neighbor_counts(g, fam1.side, 1, rep) == neighbor_counts(g, fam1.side, 1, sub)
                assert (rep.bit_count(), lex_key(rep)) <= (sub.bit_count(), lex_key(sub))


def test_coarsened_families_on_an_n85_interval_certificate_layout():
    rng = random.Random(85)
    g, lay = random_interval_graph(rng, 85)
    assert_coarsened(g, lay, rng, 2)


def test_coarsened_families_on_random_binary_layouts():
    rng = random.Random(121)
    for _ in range(15):
        n = rng.randint(2, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        order = list(range(n))
        rng.shuffle(order)
        assert_coarsened(Graph(n, edges), split_layout(order, rng), rng, 6)


def assert_least_members_are_small(g, lay):
    """The lemma behind the class-count bound: at every node, near and far
    side, d in {1, 2}, each class's least member has the class's key, lies
    in the side's boundary (its vertices with a neighbor across the cut)
    and has at most d * mim vertices.  Returns the families checked and the
    largest representative met."""
    near1, near2, far1, far2 = layout_families(g, lay)
    families = largest = 0
    for x in lay.postorder():
        m = mim_cut(g, lay.below[x])
        for d, fams in ((1, (near1[x], far1[x])), (2, (near2[x], far2[x]))):
            for fam in fams:
                boundary = mask_of(v for v in bits(fam.side) if g.adj[v] & fam.out)
                for key, rep in reps(fam).items():
                    assert fam.class_of(rep) == key
                    assert rep & ~boundary == 0
                    assert rep.bit_count() <= d * m, (x, d, m, rep)
                    largest = max(largest, rep.bit_count())
                families += 1
    return families, largest


def test_least_members_within_d_mim_on_an_n85_interval_certificate_layout():
    g, lay = random_interval_graph(random.Random(85), 85)
    families, largest = assert_least_members_are_small(g, lay)
    assert families == 4 * lay.node_count
    assert largest == 2


def test_least_members_within_d_mim_on_random_binary_layouts():
    rng = random.Random(121)
    families = largest = 0
    for _ in range(15):
        n = rng.randint(2, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        order = list(range(n))
        rng.shuffle(order)
        got = assert_least_members_are_small(Graph(n, edges), split_layout(order, rng))
        families += got[0]
        largest = max(largest, got[1])
    assert families > 800
    assert largest == 6
