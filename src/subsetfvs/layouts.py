"""Rooted binary layouts over a graph and their cut functions.

A layout is a rooted binary tree whose leaves are exactly the graph's
vertices; the subtree below a node x induces the cut (V_x, complement).
Three cut values are supported: GF(2) rank and rational rank of the
cross-adjacency matrix, and the maximum induced matching size of the
crossing bipartite graph.  Only a side's boundary (see `boundaries`) adds to
any of them, so each is computed on two sides (a, b); `cut_rank` and
`mim_cut` take b to be the complement of a.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, bits


@dataclass(frozen=True)
class RootedLayout:
    """Rooted binary tree; node ids are postorder positions, root last.

    left/right hold child node ids (-1 on leaves); leaf_vertex holds the
    graph vertex of each leaf (-1 on internal nodes); below[x] is the
    bitmask of vertices under x.
    """

    n: int
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    leaf_vertex: Tuple[int, ...]
    below: Tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.left)

    @property
    def root(self) -> int:
        return len(self.left) - 1

    def is_leaf(self, x: int) -> bool:
        return self.left[x] < 0

    def postorder(self) -> range:
        return range(len(self.left))


class _LayoutBuilder:
    def __init__(self):
        self.left: List[int] = []
        self.right: List[int] = []
        self.leaf_vertex: List[int] = []
        self.below: List[int] = []

    def leaf(self, v: int) -> int:
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_vertex.append(v)
        self.below.append(1 << v)
        return len(self.left) - 1

    def join(self, a: int, b: int) -> int:
        self.left.append(a)
        self.right.append(b)
        self.leaf_vertex.append(-1)
        self.below.append(self.below[a] | self.below[b])
        return len(self.left) - 1

    def finish(self, n: int) -> RootedLayout:
        lay = RootedLayout(
            n,
            tuple(self.left),
            tuple(self.right),
            tuple(self.leaf_vertex),
            tuple(self.below),
        )
        if lay.below[lay.root] != (1 << n) - 1:
            raise ValueError("layout leaves do not cover the vertex set")
        return lay


def layout_from_order(order: Sequence[int]) -> RootedLayout:
    """Left-deep caterpillar layout: order[0],order[1] join deepest, each
    later vertex hangs off as a right leaf."""
    order = list(order)
    n = len(order)
    if n == 0:
        raise ValueError("empty layout order")
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    b = _LayoutBuilder()
    node = b.leaf(order[0])
    for v in order[1:]:
        node = b.join(node, b.leaf(v))
    return b.finish(n)


def gf2_rank(rows: List[int]) -> int:
    """Rank over GF(2) of 0/1 rows packed as bitmask ints."""
    rank = 0
    basis: List[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
            rank += 1
    return rank


def _rational_rank(rows: List[List[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    After k pivots every remaining entry is a (k+1)-minor of the input, so
    the division by the previous pivot is exact and entries stay integers.
    """
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return 0
    rank = 0
    prev = 1
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        pv = top[col]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            f = row[col]
            mat[r] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_bipartite(g: Graph, a: int, b: int, field: str = "gf2") -> int:
    """Rank of the adjacency matrix rows(a) x cols(b).

    The rational rank skips elimination when the distinct nonzero rows are
    independent over GF(2).  For a 0/1 matrix, rank over GF(2) <= rank over
    the rationals <= the number of distinct nonzero rows.  The second holds
    because repeated and zero rows add nothing.  For the first, take rows
    independent over GF(2) and suppose some rational combination of them
    is 0.  Scale the coefficients to coprime integers: at least one is odd.
    Reduced mod 2 they give a nontrivial GF(2) combination that is 0, a
    contradiction.  So when the GF(2) rank of the distinct rows equals
    their count, the rational rank is that count too.
    """
    if field == "gf2":
        # The rows keep b's vertex ids as column positions: packing them
        # densely would only relabel columns in order.
        return gf2_rank([g.adj[v] & b for v in bits(a)])
    if field == "rational":
        # Zero and repeated rows add nothing to the rank, nor do columns no
        # row touches.
        packed = list({g.adj[v] & b for v in bits(a)} - {0})
        if gf2_rank(packed) == len(packed):
            return len(packed)
        touched = 0
        for row in packed:
            touched |= row
        cols = list(bits(touched))
        return _rational_rank([[row >> u & 1 for u in cols] for row in packed])
    raise ValueError(f"unknown field {field!r}")


def cut_rank(g: Graph, a: int, field: str = "gf2") -> int:
    """Rank of the cross-adjacency matrix rows(a) x cols(complement)."""
    return rank_bipartite(g, a, g.vertices & ~a, field)


def mim_bipartite(g: Graph, a: int, b: int) -> int:
    """Exact maximum induced matching of the bipartite graph G[a, b].

    Side vertices u_1..u_m are the ends of an induced matching exactly when
    their neighborhoods in b are distinct and each keeps a private vertex
    outside the union of the others: u_i is matched to its private vertex.
    So the search chooses among the distinct nonzero neighborhoods.  Every
    subset of a valid choice is valid, so adding them in index order reaches
    every choice; a branch stops once its size plus the neighborhoods left
    cannot beat the best found.
    """
    if a & b:
        raise ValueError("sides overlap")
    nbhs = sorted({g.adj[v] & b for v in bits(a)} - {0})
    k = len(nbhs)
    best = 0
    # Depth first, smallest index first, with an explicit stack of (next
    # index to try, union of the chosen neighborhoods, each chosen one's
    # private part); a frame that admits a neighborhood goes back under its
    # child and resumes after it.  A self-calling closure would leave a
    # reference cycle behind every call.
    stack: List[Tuple[int, int, Tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        j, union, private = stack.pop()
        size = len(private)
        while j < k and size + k - j > best:
            nb = nbhs[j]
            j += 1
            own = nb & ~union
            if not own:
                continue
            kept = [p & ~nb for p in private]
            if all(kept):
                stack.append((j, union, private))
                stack.append((j, union | nb, (*kept, own)))
                best = max(best, size + 1)
                break
    return best


def mim_cut(g: Graph, a: int) -> int:
    return mim_bipartite(g, a, g.vertices & ~a)


def boundaries(g: Graph, layout: RootedLayout) -> List[int]:
    """Per node id, the boundary of its cut: the vertices below the node
    with a neighbor outside it.  A vertex that leaves a boundary never
    returns to one higher up, so each node looks only at its children's."""
    adj, below = g.adj, layout.below
    out: List[int] = []
    for x in layout.postorder():
        cand = below[x] if layout.is_leaf(x) else out[layout.left[x]] | out[layout.right[x]]
        bnd = 0
        for v in bits(cand):
            if adj[v] & ~below[x]:
                bnd |= 1 << v
        out.append(bnd)
    return out


def width(g: Graph, layout: RootedLayout, kind: str = "gf2") -> Tuple[int, Tuple[int, ...]]:
    """Maximum cut value over all layout nodes, and the value of every
    node's cut, indexed by node id.  Each node's value is read from its
    boundary rows alone."""
    if layout.n != g.n:
        raise ValueError("layout and graph disagree on the vertex count")
    if kind not in ("gf2", "rational", "mim"):
        raise ValueError(f"unknown cut kind {kind!r}")
    bnd = boundaries(g, layout)
    values = []
    for x in layout.postorder():
        a, b = bnd[x], g.vertices & ~layout.below[x]
        values.append(mim_bipartite(g, a, b) if kind == "mim" else rank_bipartite(g, a, b, kind))
    return max(values), tuple(values)


def mim_bipartite_at_most_one(g: Graph, a: int, b: int) -> bool:
    """Whether the bipartite graph G[a, b] has induced-matching value at most 1.

    That holds exactly when the nonzero neighborhoods in b of a's vertices
    form a chain under inclusion.  Two incomparable ones, N(u) and N(v),
    give the induced matching {u x, v y} for x in N(u) \\ N(v) and y in
    N(v) \\ N(u); in a chain, of any two crossing edges one end sees both
    far ends, so no two edges form an induced matching."""
    chain = sorted({g.adj[v] & b for v in bits(a)} - {0}, key=int.bit_count)
    return all(not p & ~q for p, q in zip(chain, chain[1:]))


def intervals_intersect(p: Tuple[int, int], q: Tuple[int, int]) -> bool:
    return p[0] <= q[1] and q[0] <= p[1]


def interval_layout(intervals: Sequence[Tuple[int, int]], g: Graph) -> RootedLayout:
    """Caterpillar layout by left endpoint for an interval model of g.

    The model must reproduce g's adjacency exactly (closed intervals,
    touching endpoints intersect).  Every cut of the returned layout has
    induced-matching value at most 1; this is asserted at build time.
    """
    if len(intervals) != g.n:
        raise ValueError("interval count does not match the vertex count")
    for l, r in intervals:
        if l > r:
            raise ValueError(f"bad interval [{l},{r}]")
    # Interval v meets [l, r] exactly when v starts by r and ends at or
    # after l: one prefix mask by left end, one suffix mask by right end.
    by_left = sorted(range(g.n), key=lambda v: intervals[v][0])
    by_right = sorted(range(g.n), key=lambda v: intervals[v][1])
    lefts = [intervals[v][0] for v in by_left]
    rights = [intervals[v][1] for v in by_right]
    started = [0]  # started[k]: the first k vertices by left end
    for v in by_left:
        started.append(started[-1] | 1 << v)
    ended = [0]  # ended[k]: the last k vertices by right end
    for v in reversed(by_right):
        ended.append(ended[-1] | 1 << v)
    for u, (l, r) in enumerate(intervals):
        expect = started[bisect_right(lefts, r)] & ended[g.n - bisect_left(rights, l)]
        wrong = (expect & ~(1 << u)) ^ g.adj[u]
        if wrong:
            # Both masks are symmetric, so the first u that disagrees does
            # so first with a higher v: the pair the pair loop meets first.
            v = (wrong & -wrong).bit_length() - 1
            raise ValueError(f"interval model disagrees with adjacency on ({u},{v})")
    order = sorted(range(g.n), key=lambda v: (intervals[v][0], intervals[v][1], v))
    return _unit_mim_layout(g, order, "interval")


def permutation_layout(perm: Sequence[int], g: Graph) -> RootedLayout:
    """Caterpillar layout in position order for a permutation model of g.

    Vertex i sits at position i, and i < j are adjacent exactly when
    perm[i] > perm[j]: the edges are the permutation's inversions.  Across
    a prefix cut, a vertex sees the later vertices of smaller value, so
    these neighborhoods form a chain and every cut has induced-matching
    value at most 1; this is asserted at build time.
    """
    n = g.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    smaller = [0]  # smaller[k]: the vertices of value below k
    for v in sorted(range(n), key=perm.__getitem__):
        smaller.append(smaller[-1] | 1 << v)
    for u in range(n):
        earlier = (1 << u) - 1
        expect = smaller[perm[u]] & ~earlier | earlier & ~smaller[perm[u] + 1]
        wrong = expect ^ g.adj[u]
        if wrong:
            v = (wrong & -wrong).bit_length() - 1
            raise ValueError(f"permutation model disagrees with adjacency on ({u},{v})")
    return _unit_mim_layout(g, range(n), "permutation")


def _unit_mim_layout(g: Graph, order: Sequence[int], kind: str) -> RootedLayout:
    """The caterpillar in `order`, checked cut by cut to have mim <= 1."""
    layout = layout_from_order(order)
    bnd = boundaries(g, layout)
    for x in layout.postorder():
        if not mim_bipartite_at_most_one(g, bnd[x], g.vertices & ~layout.below[x]):
            raise AssertionError(f"{kind} layout produced a cut above width 1")
    return layout


def serialize_layout(layout: RootedLayout, names: Sequence[str]) -> str:
    """Canonical nested-parentheses form with no whitespace."""
    if len(names) != layout.n:
        raise ValueError("name table length mismatch")
    out: List[str] = []
    stack: List[object] = [layout.root]  # node ids, and literal text to emit
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif layout.is_leaf(item):
            out.append(names[layout.leaf_vertex[item]])
        else:
            out.append("(")
            stack += [")", layout.right[item], ",", layout.left[item]]
    return "".join(out)


def parse_layout(text: str, names: Sequence[str]) -> RootedLayout:
    """Parse the nested-parentheses layout form; leaves are vertex names.

    Iterative, so depth is not bounded by the recursion limit; leaves and
    joins are built in postorder, as node ids require.
    """
    ids = {name: i for i, name in enumerate(names)}
    if len(ids) != len(names):
        raise ValueError("duplicate vertex names")
    s = "".join(text.split())
    if not s:
        raise ValueError("empty layout text")
    pos = 0
    used = set()
    b = _LayoutBuilder()
    # One entry per open '(': None until its first child is built, then
    # that child's node id.
    open_nodes: List[Optional[int]] = []
    while True:
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_nodes.append(None)
            continue
        start = pos
        while pos < len(s) and s[pos] not in "(),":
            pos += 1
        name = s[start:pos]
        if not name:
            raise ValueError(f"expected a vertex name at position {start}")
        if name not in ids:
            raise ValueError(f"unknown vertex name {name!r}")
        v = ids[name]
        if v in used:
            raise ValueError(f"vertex {name!r} appears twice")
        used.add(v)
        node = b.leaf(v)
        while open_nodes and open_nodes[-1] is not None:
            if pos >= len(s) or s[pos] != ")":
                raise ValueError(f"expected ')' at position {pos}")
            pos += 1
            node = b.join(open_nodes.pop(), node)
        if not open_nodes:
            break
        if pos >= len(s) or s[pos] != ",":
            raise ValueError(f"expected ',' at position {pos}")
        pos += 1
        open_nodes[-1] = node
    if pos != len(s):
        raise ValueError(f"trailing characters at position {pos}")
    if len(used) != len(names):
        raise ValueError("layout does not cover every vertex")
    return b.finish(len(names))
