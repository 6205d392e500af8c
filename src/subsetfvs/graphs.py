"""Bitmask graphs, weighted instances, block partitions and S-forest tests.

Vertex sets are plain Python ints used as bitmasks over vertex ids 0..n-1.
All derived orderings (component lists, block lists, tie-breaks) follow the
fixed vertex id order, so every operation here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

MAX_WEIGHT_SUM = 1 << 62


class CheckError(RuntimeError):
    """A solver's own consistency check failed: its answer is not trusted."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lex_key(mask: int) -> Tuple[int, ...]:
    """Sorted vertex tuple; the lexicographic tie-break order for vertex sets."""
    return tuple(bits(mask))


_PRESENT_FIRST = str.maketrans("01", "10")


def lex_order(mask: int) -> str:
    """A sort key that orders vertex sets as `lex_key` does, built without a
    Python loop over the set.

    Character i is '0' when vertex i is in the set and '1' when it is not,
    up to the largest vertex.  At the first vertex two sets disagree on, the
    set holding it is the smaller one while the other set goes on; when the
    other set has already ended, its string is a prefix, and a prefix sorts
    first, as a tuple does.
    """
    return bin(mask)[:1:-1].translate(_PRESENT_FIRST) if mask else ""


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    adj[v] is the neighbor bitmask of v.  Self-loops and repeated edges are
    rejected so the bitmask representation is faithful.
    """

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"repeated edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            count += 1
        self.n = n
        self.adj = tuple(adj)
        self._edges = count

    @property
    def vertices(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self._edges})"


def neighborhood(g: Graph, u: int) -> int:
    """Open neighborhood N(U) of a vertex set: union of adjacencies minus U."""
    out = 0
    for v in bits(u):
        out |= g.adj[v]
    return out & ~u


def components_masks(g: Graph, x: int) -> List[int]:
    """Connected components of g[x] as masks, ordered by smallest vertex."""
    out = []
    rest = x
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & x & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


@dataclass(frozen=True)
class BlockPartition:
    """Ordered list of disjoint nonempty vertex sets, each tagged as an
    S-singleton block or a plain block of vertices outside S."""

    blocks: Tuple[int, ...]
    s_flags: Tuple[bool, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.s_flags):
            raise ValueError("blocks and flags length mismatch")
        for b in self.blocks:
            if b == 0:
                raise ValueError("empty block")

    def __len__(self) -> int:
        return len(self.blocks)

    def union(self) -> int:
        u = 0
        for b in self.blocks:
            u |= b
        return u

    def __iter__(self):
        return iter(self.blocks)


def connected_components(g: Graph, x: int) -> BlockPartition:
    comps = components_masks(g, x)
    return BlockPartition(tuple(comps), tuple(False for _ in comps))


def contract_partial(x: int, p: BlockPartition, s: int) -> BlockPartition:
    """Blocks of p plus one S-singleton block per vertex of x & s.

    p must partition x minus s exactly and contain no S vertex.
    """
    covered = 0
    for b in p.blocks:
        if b & s:
            raise ValueError("partition block contains an S vertex")
        if b & covered:
            raise ValueError("partition blocks overlap")
        covered |= b
    if covered != x & ~s:
        raise ValueError("partition does not cover the non-S part of x")
    entries = [(b, False) for b in p.blocks]
    entries.extend(((1 << v), True) for v in bits(x & s))
    entries.sort(key=lambda e: e[0] & -e[0])
    return BlockPartition(tuple(e[0] for e in entries), tuple(e[1] for e in entries))


@dataclass(frozen=True)
class BlockGraph:
    """A graph whose vertices are blocks of an underlying graph.

    graph is indexed by block position: first the a-side blocks, then the
    b-side ones.  s_flags marks S-singleton blocks.
    """

    graph: Graph
    blocks: Tuple[int, ...]
    s_flags: Tuple[bool, ...]
    a_count: int


def _coerce_blocks(side) -> Tuple[Tuple[int, ...], Tuple[bool, ...]]:
    if isinstance(side, BlockPartition):
        return side.blocks, side.s_flags
    blocks = tuple(side)
    return blocks, tuple(False for _ in blocks)


def contracted(g: Graph, a, b=(), mode: str = "full") -> BlockGraph:
    """Contract blocks into single vertices.

    mode 'full': every pair of blocks is adjacent iff one sees the other.
    mode 'mixed': a-side internal edges plus a/b edges, none within b.
    Two blocks A, B are adjacent when N(A) meets B.  Blocks within a side
    must be disjoint (for 'full', across sides too); empty blocks rejected.
    """
    ab, af = _coerce_blocks(a)
    bb, bf = _coerce_blocks(b)
    blocks = ab + bb
    flags = af + bf
    if mode not in ("full", "mixed"):
        raise ValueError(f"unknown mode {mode!r}")
    for blk in blocks:
        if blk == 0:
            raise ValueError("empty block")
    seen = 0
    for blk in ab:
        if blk & seen:
            raise ValueError("a-side blocks overlap")
        seen |= blk
    if mode == "full":
        for blk in bb:
            if blk & seen:
                raise ValueError("blocks overlap in full mode")
            seen |= blk
    na = len(ab)
    nbhd = [neighborhood(g, blk) for blk in blocks]
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if mode == "mixed" and i >= na:
                continue
            if nbhd[i] & blocks[j]:
                edges.append((i, j))
    return BlockGraph(Graph(len(blocks), edges), blocks, flags, na)


def is_forest(g: Graph, x: int) -> bool:
    """True when g[x] is acyclic."""
    return is_s_forest(g, x, x)


def is_s_forest(g: Graph, x: int, s: int) -> bool:
    """True when no cycle of g[x] passes through a vertex of s.

    Counts on the S-contraction of x: a node per component of g[x minus s]
    and per vertex of x & s, an edge per edge of g[x] with an end in s.  x
    is an S-forest exactly when that multigraph is a forest, that is, when
    its edges number its nodes minus its components, which are those of
    g[x].  An S-vertex that sees one component twice adds a parallel edge,
    and so a cycle.
    """
    xs = x & s
    if not xs:
        return True
    rest = x & ~s
    # An edge with both ends in s is counted from each end, and an edge from
    # s to the rest twice from its s end.
    s_edges = sum((g.adj[v] & x).bit_count() + (g.adj[v] & rest).bit_count() for v in bits(xs))
    s_edges //= 2
    nodes = len(components_masks(g, rest)) + xs.bit_count()
    return s_edges == nodes - len(components_masks(g, x))


@dataclass(frozen=True)
class Instance:
    """A weighted subset feedback vertex set instance.

    s_set marks the vertices whose cycles are forbidden; weights are signed
    integers (rationals should be pre-scaled by the caller).
    """

    graph: Graph
    s_set: int
    weights: Tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        if self.s_set & ~g.vertices:
            raise ValueError("s_set not within the vertex range")
        if len(self.weights) != g.n:
            raise ValueError("weight vector length mismatch")
        if sum(abs(w) for w in self.weights) >= MAX_WEIGHT_SUM:
            raise ValueError("weights too large; rescale the instance")

    @property
    def n(self) -> int:
        return self.graph.n

    def weight_of(self, x: int) -> int:
        return sum(self.weights[v] for v in bits(x))
