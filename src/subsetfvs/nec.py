"""Neighbor-count equivalence classes, named by their keys.

Two subsets X, Y of a side A are d-equivalent when every vertex u outside A
satisfies min(d, |X & N(u)|) == min(d, |Y & N(u)|).  d is 1 or 2, the two
values the DP uses.

A class is keyed by neighborhood bitmasks restricted to the outside of A:
`once` holds the outside vertices with at least one neighbor in X and, for
d = 2, `twice` those with at least two.  The key is the int
`once | twice << n`, which is `once` itself when d = 1.  Keys and classes
are in bijection, so a key names its class, and the solver names classes
by keys alone.  For disjoint parts the masks combine in O(1):
once = o_a | o_b, twice = t_a | t_b | (o_a & o_b).

Families are built by joins of key sets.  For disjoint sides A and B, every
subset of A | B is the union of its parts in A and in B, and the key of a
union, seen from outside A | B, is read off the parts' keys cut down to
that outside by the formula above.  So the d = 2 keys of A | B are those
combinations, taken over every pair of cut-down keys of A and of B; no
comparison or order is involved.  `layout_families` runs this over a
layout, near sides bottom-up and far sides top-down.  A leaf's sides need
no join: its near side is one vertex v, with the classes of {} and {v};
its far side V \\ {v} is seen from v alone, so it has at most three d = 2
classes (no, one, or two or more neighbors of v), read off N(v).  A d = 1
family is read off the d = 2 family of its side, on first use: min(1, c)
is a function of min(2, c), so the d = 1 keys are the d = 2 keys masked
to `once`, key & (2^n - 1).  `side_family` builds the family of any side
by folding the join over its single vertices, each seen from the whole
side's outside.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graphs import CheckError, Graph, bits
from .layouts import RootedLayout


class NecFamily:
    """The classes of one (side, d) pair, as the set of their keys, seen
    from out, the complement of the side.  A d = 1 family may be given by
    `fine`, the d = 2 family of its side, and then reads its keys off it on
    first use.
    """

    def __init__(
        self,
        graph: Graph,
        side: int,
        d: int,
        keys: Optional[Set[int]] = None,
        *,
        fine: Optional["NecFamily"] = None,
    ):
        self.graph, self.side, self.d = graph, side, d
        self.out = graph.vertices & ~side
        if keys is not None:
            self.keys = keys
        self._fine = fine
        self._class_cache: Dict[int, int] = {}

    @cached_property
    def keys(self) -> Set[int]:
        low = (1 << self.graph.n) - 1
        return {key & low for key in self._fine.keys}

    @property
    def class_count(self) -> int:
        return len(self.keys)

    def key_of(self, x: int) -> int:
        if x & ~self.side:
            raise ValueError("x must be a subset of the family side")
        adj = self.graph.adj
        once = twice = 0
        while x:
            low = x & -x
            nb = adj[low.bit_length() - 1]
            twice |= once & nb
            once |= nb
            x ^= low
        out = self.out
        if self.d == 1:
            return once & out
        return once & out | (twice & out) << self.graph.n

    def class_of(self, x: int) -> int:
        """The key of the class of x, checked against the family."""
        key = self._class_cache.get(x)
        if key is None:
            key = self.key_of(x)
            if key not in self.keys:
                raise CheckError("equivalence class missing from the family")
            self._class_cache[x] = key
        return key


def _joined_keys(ka: Iterable[int], kb: Iterable[int], out: int, n: int) -> Set[int]:
    """d = 2 keys of the union of two disjoint sides, seen from out, from
    the sides' d = 2 keys: each cut down to out, combined pairwise."""
    low = (1 << n) - 1
    cut = out | out << n
    # once_a & once_b, shifted into the twice half, is (once_a << n) & (b << n)
    b_keys = [(b, b << n) for b in {key & cut for key in kb}]
    keys: Set[int] = set()
    for a in {key & cut for key in ka}:
        sa = (a & low) << n
        keys.update([a | b | sa & sb for b, sb in b_keys])
    return keys


def side_family(g: Graph, a: int, d: int) -> NecFamily:
    """The family of side a for the d-equivalence, for any side: the join
    folded over a's single vertices."""
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if a & ~g.vertices:
        raise ValueError("side out of range")
    out = g.vertices & ~a
    keys = {0}
    for v in bits(a):
        keys = _joined_keys(keys, (0, g.adj[v] & out), out, g.n)
    fam = NecFamily(g, a, 2, keys)
    return fam if d == 2 else NecFamily(g, a, 1, fine=fam)


def layout_families(g: Graph, layout: RootedLayout) -> Tuple[List[NecFamily], ...]:
    """(near1, near2, far1, far2) of a layout, indexed by node id: near sides
    (the vertices below the node) and far sides (the rest), d = 1 and 2."""
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")
    n, adj, every = g.n, g.adj, g.vertices
    near: List[NecFamily] = []
    for x in layout.postorder():
        side = layout.below[x]
        if layout.is_leaf(x):
            keys = {0, adj[layout.leaf_vertex[x]] & ~side}
        else:
            left, right = near[layout.left[x]], near[layout.right[x]]
            keys = _joined_keys(left.keys, right.keys, every & ~side, n)
        near.append(NecFamily(g, side, 2, keys))
    far: List[Optional[NecFamily]] = [None] * layout.node_count
    far[layout.root] = NecFamily(g, 0, 2, {0})
    for x in reversed(layout.postorder()):
        if not layout.is_leaf(x):
            left, right = layout.left[x], layout.right[x]
            for child, sibling in ((left, right), (right, left)):
                out = layout.below[child]
                if layout.is_leaf(child):
                    nb = adj[layout.leaf_vertex[child]]
                    keys = {0}
                    if nb:
                        keys.add(out)
                    if nb & (nb - 1):
                        keys.add(out | out << n)
                else:
                    keys = _joined_keys(far[x].keys, near[sibling].keys, out, n)
                far[child] = NecFamily(g, every & ~out, 2, keys)
    return (
        [NecFamily(g, f.side, 1, fine=f) for f in near],
        near,
        [NecFamily(g, f.side, 1, fine=f) for f in far],
        far,
    )
