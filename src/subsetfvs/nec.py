"""Canonical representatives of neighbor-count equivalence classes.

Two subsets X, Y of a side A are d-equivalent when every vertex u outside A
satisfies min(d, |X & N(u)|) == min(d, |Y & N(u)|).  The canonical
representative of a class is its smallest member, first by size, then by the
lexicographic order of the sorted vertex list.  d is 1 or 2, the two values
the DP uses.

A class is keyed by neighborhood bitmasks restricted to the outside of A:
`once` holds the outside vertices with at least one neighbor in X and, for
d = 2, `twice` those with at least two.  The key is the int
`once | twice << n`, which is `once` itself when d = 1.  For disjoint parts
the masks combine in O(1): once = o_a | o_b, twice = t_a | t_b | (o_a & o_b).

Families are built by joins.  For disjoint sides A and B, every canonical
representative of A | B is r_A | r_B, where r_A and r_B are canonical
representatives of A and B:

- an equivalence over A still holds over A | B, because V \\ (A | B) lies in
  V \\ A; so replacing the A-part of a member by its representative stays
  in the class, and the unions reach every class;
- replacing a part by a smaller or lex-smaller one never makes the union
  larger or lex-larger: for equal sizes, X precedes Y exactly when the least
  vertex of X ^ Y lies in X, and a disjoint common part leaves X ^ Y as it is.

`join` scans these unions and keeps the first per key in (size, lex) order,
at d = 2 only.  `layout_families` runs it over a layout, near sides bottom-up
and far sides top-down; `compute_reps` folds it over the singletons of an
arbitrary side.  `coarsen` reads a side's d = 1 family off its d = 2 family:
min(1, c) is a function of min(2, c), so a d = 1 class is the union of the
d = 2 classes sharing its `once` mask, key & (2^n - 1).  A lookup visits the
classes in (size, lex) order, so the first met per `once` holds the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graphs import CheckError, Graph, bits, lex_order
from .layouts import RootedLayout


def neighbor_counts(g: Graph, a: int, d: int, x: int) -> Tuple[int, ...]:
    """min(d, |x & N(u)|) for each u outside a, in increasing id order."""
    if x & ~a:
        raise ValueError("x must be a subset of the side a")
    out = []
    for u in bits(g.vertices & ~a):
        c = (g.adj[u] & x).bit_count()
        out.append(c if c < d else d)
    return tuple(out)


def same_class(g: Graph, a: int, d: int, x: int, y: int) -> bool:
    """Direct d-equivalence test over side a; no family required."""
    return neighbor_counts(g, a, d, x) == neighbor_counts(g, a, d, y)


@dataclass
class NecFamily:
    """All canonical representatives for one (side, d) pair.

    lookup maps a class key to the index of its representative; both are in
    (size, lex) order, so iterating lookup visits the representatives in
    order.  out is the vertex mask the classes are seen from: the complement
    of the side, except in the partial families of `compute_reps`, which see
    only the complement of the whole side.
    """

    graph: Graph
    side: int
    d: int
    out: int
    representatives: Tuple[int, ...]
    lookup: Dict[int, int]
    _rep_cache: Dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.representatives)

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

    def rep_of(self, x: int) -> int:
        """Canonical representative of the class of x."""
        cached = self._rep_cache.get(x)
        if cached is not None:
            return cached
        idx = self.lookup.get(self.key_of(x))
        if idx is None:
            raise CheckError("equivalence class missing from the family")
        rep = self.representatives[idx]
        self._rep_cache[x] = rep
        return rep


def _empty_family(g: Graph, out: int) -> NecFamily:
    return NecFamily(g, 0, 2, out, (0,), {0: 0})


def _singleton_family(g: Graph, v: int) -> NecFamily:
    side = 1 << v
    out = g.vertices & ~side
    once = g.adj[v] & out
    if not once:
        return NecFamily(g, side, 2, out, (0,), {0: 0})
    return NecFamily(g, side, 2, out, (0, side), {0: 0, once: 1})


def _parts(fam: NecFamily, out: int) -> List[Tuple[int, int, int]]:
    """(rep, once, twice) with the masks cut down to out, first rep per
    cut-down key only: the others give the same keys with later unions."""
    shift = fam.graph.n
    reps = fam.representatives
    seen: Dict[int, Tuple[int, int, int]] = {}
    for key, idx in fam.lookup.items():
        once = key & out
        twice = key >> shift & out
        k = once | twice << shift
        if k not in seen:
            seen[k] = (reps[idx], once, twice)
    return list(seen.values())


def join(fa: NecFamily, fb: NecFamily) -> NecFamily:
    """d = 2 family of the union of two disjoint sides, from their families."""
    if fa.graph is not fb.graph or fa.d != 2 or fb.d != 2:
        raise ValueError("join takes d = 2 families of one graph")
    if fa.side & fb.side:
        raise ValueError("sides overlap")
    g = fa.graph
    shift = g.n
    side = fa.side | fb.side
    out = fa.out & fb.out
    b_parts = _parts(fb, out)
    best: Dict[int, int] = {}
    for ra, oa, ta in _parts(fa, out):
        for rb, ob, tb in b_parts:
            key = oa | ob | (ta | tb | (oa & ob)) << shift
            r = ra | rb
            cur = best.get(key)
            if cur is None:
                best[key] = r
                continue
            cr, cc = r.bit_count(), cur.bit_count()
            if cr < cc or (cr == cc and (r ^ cur) & -(r ^ cur) & r):
                best[key] = r
    ordered = sorted(best.items(), key=lambda kv: (kv[1].bit_count(), lex_order(kv[1])))
    reps = tuple(r for _, r in ordered)
    lookup = {key: i for i, (key, _) in enumerate(ordered)}
    return NecFamily(g, side, 2, out, reps, lookup)


def coarsen(fam: NecFamily) -> NecFamily:
    """d = 1 family of a d = 2 family's side: the first class per `once`."""
    low = (1 << fam.graph.n) - 1
    reps: List[int] = []
    lookup: Dict[int, int] = {}
    for key, idx in fam.lookup.items():
        once = key & low
        if once not in lookup:
            lookup[once] = len(reps)
            reps.append(fam.representatives[idx])
    return NecFamily(fam.graph, fam.side, 1, fam.out, tuple(reps), lookup)


def compute_reps(g: Graph, a: int, d: int) -> NecFamily:
    """Build the representative family of side a for the d-equivalence."""
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if a & ~g.vertices:
        raise ValueError("side out of range")
    # Seen from the final outside only, each partial family has at most as
    # many classes as the result.
    fam = _empty_family(g, g.vertices & ~a)
    for v in bits(a):
        fam = join(fam, _singleton_family(g, v))
    return fam if d == 2 else coarsen(fam)


def layout_families(g: Graph, layout: RootedLayout) -> Tuple[List[NecFamily], ...]:
    """(near1, near2, far1, far2) of a layout, indexed by node id: near sides
    (the vertices below the node) and far sides (the rest), d = 1 and 2."""
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")
    near: List[NecFamily] = []
    for x in layout.postorder():
        if layout.is_leaf(x):
            near.append(_singleton_family(g, layout.leaf_vertex[x]))
        else:
            near.append(join(near[layout.left[x]], near[layout.right[x]]))
    far: List[Optional[NecFamily]] = [None] * layout.node_count
    far[layout.root] = _empty_family(g, g.vertices)
    for x in reversed(layout.postorder()):
        if not layout.is_leaf(x):
            left, right = layout.left[x], layout.right[x]
            far[left] = join(far[x], near[right])
            far[right] = join(far[x], near[left])
    return [coarsen(f) for f in near], near, [coarsen(f) for f in far], far
