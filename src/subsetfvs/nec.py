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
to `once`, key & (2^n - 1).

The canonical representative of a class is its smallest member, first by
size, then by the lexicographic order of the sorted vertex list.  Only
oracles and tests read representatives; a family works them out on first
read, from `compute_reps`.  That reference folds `join` over the
singletons of a side.  Every canonical representative of A | B is
r_A | r_B, where r_A and r_B are canonical representatives of A and B:

- an equivalence over A still holds over A | B, because V \\ (A | B) lies in
  V \\ A; so replacing the A-part of a member by its representative stays
  in the class, and the unions reach every class;
- replacing a part by a smaller or lex-smaller one never makes the union
  larger or lex-larger: for equal sizes, X precedes Y exactly when the least
  vertex of X ^ Y lies in X, and a disjoint common part leaves X ^ Y as it is.

`join` scans these unions and keeps the first per key in (size, lex) order,
at d = 2 only.  `coarsen` reads a side's d = 1 representatives off its
d = 2 family: a d = 1 class is the union of the d = 2 classes sharing its
`once` mask, and a reference family lists its classes in (size, lex)
order of their representatives, so the first met per `once` holds the
minimum.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from .graphs import CheckError, Graph, bits, lex_order
from .layouts import RootedLayout


class NecFamily:
    """The classes of one (side, d) pair, as the set of their keys.

    out is the vertex mask the classes are seen from: the complement of the
    side, except in the partial families of `compute_reps`, which see only
    the complement of the whole side.  A d = 1 family may be given by
    `fine`, the d = 2 family of its side, and then reads its keys off it on
    first use.  reps maps each key to the class's canonical representative,
    in (size, lex) order of the representatives; unless given, it is worked
    out by `compute_reps` when first read.
    """

    def __init__(
        self,
        graph: Graph,
        side: int,
        d: int,
        out: int,
        keys: Optional[Set[int]] = None,
        *,
        fine: Optional["NecFamily"] = None,
        reps: Optional[Dict[int, int]] = None,
    ):
        self.graph, self.side, self.d, self.out = graph, side, d, out
        if reps is not None:
            self.reps = reps
            keys = set(reps)
        if keys is not None:
            self.keys = keys
        self._fine = fine
        self._class_cache: Dict[int, int] = {}

    @cached_property
    def keys(self) -> Set[int]:
        low = (1 << self.graph.n) - 1
        return {key & low for key in self._fine.keys}

    @cached_property
    def reps(self) -> Dict[int, int]:
        return compute_reps(self.graph, self.side, self.d).reps

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

    def rep_of(self, x: int) -> int:
        """Canonical representative of the class of x."""
        rep = self.reps.get(self.key_of(x))
        if rep is None:
            raise CheckError("equivalence class missing from the family")
        return rep


def _empty_family(g: Graph, out: int) -> NecFamily:
    return NecFamily(g, 0, 2, out, reps={0: 0})


def _singleton_family(g: Graph, v: int) -> NecFamily:
    side = 1 << v
    out = g.vertices & ~side
    once = g.adj[v] & out
    return NecFamily(g, side, 2, out, reps={0: 0, once: side} if once else {0: 0})


def _parts(fam: NecFamily, out: int) -> List[Tuple[int, int, int]]:
    """(rep, once, twice) with the masks cut down to out, first rep per
    cut-down key only: the others give the same keys with later unions."""
    shift = fam.graph.n
    seen: Dict[int, Tuple[int, int, int]] = {}
    for key, rep in fam.reps.items():
        once = key & out
        twice = key >> shift & out
        k = once | twice << shift
        if k not in seen:
            seen[k] = (rep, once, twice)
    return list(seen.values())


def join(fa: NecFamily, fb: NecFamily) -> NecFamily:
    """d = 2 family of the union of two disjoint sides, with representatives,
    from their families: the reference."""
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
    reps = dict(sorted(best.items(), key=lambda kv: (kv[1].bit_count(), lex_order(kv[1]))))
    return NecFamily(g, side, 2, out, reps=reps)


def coarsen(fam: NecFamily) -> NecFamily:
    """d = 1 family of a d = 2 family's side, with representatives: the
    first class per `once`."""
    low = (1 << fam.graph.n) - 1
    reps: Dict[int, int] = {}
    for key, rep in fam.reps.items():
        reps.setdefault(key & low, rep)
    return NecFamily(fam.graph, fam.side, 1, fam.out, reps=reps)


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


def _joined_keys(fa: NecFamily, fb: NecFamily, out: int) -> Set[int]:
    """d = 2 keys of the union of two disjoint sides, seen from out: each
    side's keys cut down to out, combined pairwise."""
    n = fa.graph.n
    low = (1 << n) - 1
    cut = out | out << n
    # once_a & once_b, shifted into the twice half, is (once_a << n) & (b << n)
    b_parts = [(b, b << n) for b in {key & cut for key in fb.keys}]
    keys: Set[int] = set()
    for a in {key & cut for key in fa.keys}:
        sa = (a & low) << n
        keys.update([a | b | sa & sb for b, sb in b_parts])
    return keys


def layout_families(g: Graph, layout: RootedLayout) -> Tuple[List[NecFamily], ...]:
    """(near1, near2, far1, far2) of a layout, indexed by node id: near sides
    (the vertices below the node) and far sides (the rest), d = 1 and 2.
    The families hold keys only."""
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")
    n, adj, every = g.n, g.adj, g.vertices
    near: List[NecFamily] = []
    for x in layout.postorder():
        side = layout.below[x]
        if layout.is_leaf(x):
            keys = {0, adj[layout.leaf_vertex[x]] & ~side}
        else:
            keys = _joined_keys(near[layout.left[x]], near[layout.right[x]], every & ~side)
        near.append(NecFamily(g, side, 2, every & ~side, keys))
    far: List[Optional[NecFamily]] = [None] * layout.node_count
    far[layout.root] = NecFamily(g, 0, 2, every, {0})
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
                    keys = _joined_keys(far[x], near[sibling], out)
                far[child] = NecFamily(g, every & ~out, 2, out, keys)
    return (
        [NecFamily(g, f.side, 1, f.out, fine=f) for f in near],
        near,
        [NecFamily(g, f.side, 1, f.out, fine=f) for f in far],
        far,
    )
