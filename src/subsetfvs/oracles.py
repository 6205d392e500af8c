"""Reference algorithms and structural checkers used to validate the solver.

Everything here reaches the answer by a route independent of the dynamic
program: subset enumeration with a connectivity-based cycle test, a direct
contraction construction for crossing forests (the block partitions and
block graphs of the paper's proofs), the d-neighbor equivalence read off
neighbor counts by definition (with each class's least member, found by
scanning the side's boundary), and a semantic completion check that
compares tables against every possible far side.  Like the solver, it
needs only the standard library.

`check_represents` is the property all three routes of `dp.reduce_table`
(completion, signature and key) keep, read by its definition: every far
subset's best completion, row by row.  It runs at any n once the far side
has at most 12 vertices.
The literal index route is here too: `enumerate_indices` streams the full
index family of a layout node, `is_partial_solution` and `cc_signature` are
the admissibility test and the connection signature the key route's bucket
keys stand for, and `best` reads a table's best completion.  None of it
runs in `dp.solve`.
"""

from __future__ import annotations

import math
import weakref
from itertools import combinations
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graphs import CheckError, Graph, Instance, bits, components_masks, is_forest, is_s_forest
from .graphs import mask_of
from .dp import _XN, _XS, _YN, _YS, BlockStore, NodeContext, Structure, Table, _label_bit, _Profile
from .dp import build_context
from .layouts import RootedLayout, mim_bipartite
from .multiway import NmcInstance, NmcResult, separates
from .nec import NecFamily, layout_families

BRUTE_LIMIT = 20
NEG_INF = float("-inf")


def lex_key(mask: int) -> Tuple[int, ...]:
    """Sorted vertex tuple; the lexicographic tie-break order for vertex sets."""
    return tuple(bits(mask))


def neighborhood(g: Graph, u: int) -> int:
    """Open neighborhood N(U) of a vertex set: union of adjacencies minus U."""
    out = 0
    for v in bits(u):
        out |= g.adj[v]
    return out & ~u


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


_REPS: "weakref.WeakKeyDictionary[NecFamily, Dict[int, int]]" = weakref.WeakKeyDictionary()


def reps(fam: NecFamily) -> Dict[int, int]:
    """Each class's canonical representative, keyed by the class's key: its
    least member, first by size, then by the lexicographic order of the
    sorted vertex list, in that order of the representatives.

    Read off the definition: subsets of the side's boundary (its vertices
    with a neighbor in `fam.out`) are scanned in (size, lex) order, and the
    first met per key is kept.  A least member lies in the boundary, since
    dropping a vertex off it keeps the key and makes the set smaller.
    Raises CheckError when a subset's key is missing from the family, or a
    key of the family has no member.  Worked out once per family.
    """
    got = _REPS.get(fam)
    if got is not None:
        return got
    g = fam.graph
    boundary = [v for v in bits(fam.side) if g.adj[v] & fam.out]
    got = {}
    for size in range(len(boundary) + 1):
        for combo in combinations(boundary, size):
            x = mask_of(combo)
            key = fam.key_of(x)
            if key not in got:
                if key not in fam.keys:
                    raise CheckError("equivalence class missing from the family")
                got[key] = x
                if len(got) == len(fam.keys):
                    _REPS[fam] = got
                    return got
    raise CheckError("family key with no member on the side")


def rep_of(fam: NecFamily, x: int) -> int:
    """Canonical representative of the class of x, a subset of the side."""
    return reps(fam)[fam.class_of(x)]


def _connected(g: Graph, inside: int, a: int, b: int) -> bool:
    """True when vertices a and b are joined inside the given vertex set."""
    if not (inside >> a) & 1 or not (inside >> b) & 1:
        return False
    seen = 1 << a
    frontier = seen
    while frontier:
        if (seen >> b) & 1:
            return True
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & inside & ~seen
        seen |= frontier
    return (seen >> b) & 1 == 1


def lies_on_cycle(g: Graph, x: int, v: int) -> bool:
    """Whether v lies on some cycle of the graph induced on x.

    Checks pairs of neighbors for a connection avoiding v; this is the
    independent route, used instead of the component count of
    `graphs.is_s_forest`.
    """
    nbrs = list(bits(g.adj[v] & x))
    inside = x & ~(1 << v)
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if _connected(g, inside, nbrs[i], nbrs[j]):
                return True
    return False


def s_forest_by_cycles(g: Graph, x: int, s: int) -> bool:
    """S-forest test via per-vertex cycle membership."""
    return not any(lies_on_cycle(g, x, v) for v in bits(x & s))


def brute_force_sfvs(inst: Instance) -> Tuple[int, int]:
    """Exhaustive maximum-weight S-forest; ties to the lexicographically
    smallest vertex set.  Returns (weight, vertex mask)."""
    g, s = inst.graph, inst.s_set
    if g.n > BRUTE_LIMIT:
        raise ValueError("graph too large for exhaustive search")
    best: Optional[Tuple[int, Tuple[int, ...], int]] = None
    for mask in range(1 << g.n):
        if not s_forest_by_cycles(g, mask, s):
            continue
        cand = (-inst.weight_of(mask), lex_key(mask), mask)
        if best is None or cand < best:
            best = cand
    assert best is not None  # the empty set always qualifies
    return -best[0], best[2]


def brute_force_fvs(g: Graph, weights: Sequence[int]) -> Tuple[int, int]:
    """Exhaustive maximum-weight induced forest, with its own union-find
    acyclicity test."""
    if g.n > BRUTE_LIMIT:
        raise ValueError("graph too large for exhaustive search")
    best: Optional[Tuple[int, Tuple[int, ...], int]] = None
    for mask in range(1 << g.n):
        parent = list(range(g.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for u, v in g.edges():
            if (mask >> u) & 1 and (mask >> v) & 1:
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
        if not ok:
            continue
        w = sum(weights[v] for v in bits(mask))
        cand = (-w, lex_key(mask), mask)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return -best[0], best[2]


def brute_force_nmc(
    nmc: NmcInstance, deletable_terminals: bool = False
) -> Optional[NmcResult]:
    """Exhaustive minimum-weight cut; ties to the lexicographically smallest
    cut.  None when no cut works (adjacent terminals)."""
    g = nmc.graph
    if g.n > BRUTE_LIMIT:
        raise ValueError("graph too large for exhaustive search")
    tmask = mask_of(nmc.terminals)
    best: Optional[Tuple[int, Tuple[int, ...], int]] = None
    for cut in range(1 << g.n):
        if cut & tmask and not deletable_terminals:
            continue
        if not separates(g, cut, nmc.terminals):
            continue
        w = sum(nmc.weights[v] for v in bits(cut))
        cand = (w, lex_key(cut), cut)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return NmcResult(best[0], best[2])


def check_represents(inst: Instance, vx: int, untrimmed: Table, reduced: Table) -> bool:
    """Whether the reduced table represents the untrimmed one: it is a
    subset of it, and for every subset y of the far side its best
    completion (`best`) weighs what the untrimmed table's does.  The far
    side may have at most 12 vertices; n is not bounded."""
    outside = inst.graph.vertices & ~vx
    if outside.bit_count() > 12:
        raise ValueError("far side too large to enumerate")
    if any(untrimmed.get(m) != w for m, w in reduced.items()):
        return False
    ys = [0]
    for v in bits(outside):
        ys += [y | 1 << v for y in ys]
    return all(best(inst, untrimmed, y) == best(inst, reduced, y) for y in ys)


def best(inst: Instance, table: Table, y: int):
    """Best weight of a table member that stays an S-forest with y; -inf
    when no member does."""
    g, s = inst.graph, inst.s_set
    top = NEG_INF
    for mask, w in table.items():
        if w > top and is_s_forest(g, mask | y, s):
            top = w
    return top


class _ScratchStore(BlockStore):
    """A `BlockStore` that builds the structure of any set below a node
    from the leaves up, for contexts built outside a solve.  `solve` asks
    only for sets whose parts its children's dicts hold, which
    `BlockStore.of` builds from."""

    def of(self, node: int, x: int) -> Structure:
        # Preorder down to the nodes whose dict holds their part of x, then
        # build those parts children first.  A leaf's dict holds both sets.
        lay, known = self.layout, self.known
        walk = []
        todo = [node]
        while todo:
            y = todo.pop()
            if x & lay.below[y] not in known[y]:
                walk.append(y)
                todo += (lay.left[y], lay.right[y])
        for y in reversed(walk):
            super().of(y, x & lay.below[y])
        return known[node][x]


def node_context(inst: Instance, layout: RootedLayout, node: int) -> NodeContext:
    """`dp.build_context` of one node, with layout families and a block
    store of its own, built from scratch; the store's `of` takes any set
    below the node."""
    families = layout_families(inst.graph, layout)
    return build_context(inst, layout, node, families, _ScratchStore(inst, layout))


class IndexTuple(NamedTuple):
    """Cut-side description a partial solution can be attached to.

    xvc_ns / xvc_s: representative sets matched to solution components /
    S-singletons; x_rest: representative of the unmatched remainder;
    yvc_ns / yvc_s: far-side representative sets the completion may expose.
    """

    xvc_ns: FrozenSet[int]
    xvc_s: FrozenSet[int]
    x_rest: int
    yvc_ns: FrozenSet[int]
    yvc_s: FrozenSet[int]


def _singleton_pool(fam: NecFamily, side: int) -> Tuple[int, ...]:
    return tuple(sorted({rep_of(fam, 1 << v) for v in bits(side)}, key=lex_key))


def xs_pool(ctx: NodeContext) -> Tuple[int, ...]:
    """Sorted d=1 representatives of every singleton of the near side, the
    pool the index family draws matched S-vertices from."""
    return _singleton_pool(ctx.fam_x1, ctx.vx)


def ys_pool(ctx: NodeContext) -> Tuple[int, ...]:
    """Sorted d=1 representatives of every singleton of the far side, the
    pool the index family draws far-side singletons from."""
    return _singleton_pool(ctx.fam_y1, ctx.cvx)


def _reach(g: Graph, side: int, u_set: int) -> Tuple[int, int]:
    """(ext, e_bad) of a far-side set: the vertices of `side` with at least
    one neighbor in u_set, and those with at least two, from adjacency."""
    ext = bad = 0
    for v in bits(side):
        hits = (g.adj[v] & u_set).bit_count()
        if hits:
            ext |= 1 << v
            if hits > 1:
                bad |= 1 << v
    return ext, bad


def _far_label(g: Graph, ctx: NodeContext, u_set: int, kind: int) -> int:
    """Label of a far-side candidate: its class key, ext | e_bad << n from
    `_reach`, shifted left by two, with its kind in the low bits."""
    ext, bad = _reach(g, ctx.vx, u_set)
    return (ext | bad << g.n) << 2 | kind


def far_candidates(g: Graph, ctx: NodeContext) -> List[Tuple[int, int, int]]:
    """(label, ext, e_bad) of every far-side candidate an index can name,
    from the definition: each nonempty d=2 far representative, then each
    nonzero entry of `ys_pool`, with ext and e_bad counted from adjacency
    and the label from `_far_label`.  `dp` reads the same candidates, as
    `ctx.far_cands`, from the far families' class keys and the far
    vertices' neighborhoods."""
    pools = ((_YN, reps(ctx.fam_y2).values()), (_YS, ys_pool(ctx)))
    return [
        (_far_label(g, ctx, u, kind), *_reach(g, ctx.vx, u))
        for kind, pool in pools
        for u in pool
        if u
    ]


def index_count(ctx: NodeContext) -> int:
    """Closed-form size of the full index stream."""
    budget = 4 * ctx.mim
    pools = (
        ctx.fam_x2.class_count,
        len(xs_pool(ctx)),
        ctx.fam_y2.class_count,
        len(ys_pool(ctx)),
    )
    total = 0
    for k1 in range(min(budget, pools[0]) + 1):
        c1 = math.comb(pools[0], k1)
        for k2 in range(min(budget - k1, pools[1]) + 1):
            c2 = c1 * math.comb(pools[1], k2)
            for k3 in range(min(budget - k1 - k2, pools[2]) + 1):
                c3 = c2 * math.comb(pools[2], k3)
                for k4 in range(min(budget - k1 - k2 - k3, pools[3]) + 1):
                    total += c3 * math.comb(pools[3], k4)
    return total * ctx.fam_x1.class_count


def enumerate_indices(ctx: NodeContext) -> Iterator[IndexTuple]:
    """Stream every index tuple of the node, lazily.

    The four cover components are drawn from the full representative pools
    and only the joint size bound of 4 * mim applies.
    """
    budget = 4 * ctx.mim
    p_ns = reps(ctx.fam_x2).values()
    p_s = xs_pool(ctx)
    q_ns = reps(ctx.fam_y2).values()
    q_s = ys_pool(ctx)
    for x_rest in reps(ctx.fam_x1).values():
        for k1 in range(min(budget, len(p_ns)) + 1):
            for c1 in combinations(p_ns, k1):
                for k2 in range(min(budget - k1, len(p_s)) + 1):
                    for c2 in combinations(p_s, k2):
                        for k3 in range(min(budget - k1 - k2, len(q_ns)) + 1):
                            for c3 in combinations(q_ns, k3):
                                rem = budget - k1 - k2 - k3
                                for k4 in range(min(rem, len(q_s)) + 1):
                                    for c4 in combinations(q_s, k4):
                                        yield IndexTuple(
                                            frozenset(c1),
                                            frozenset(c2),
                                            x_rest,
                                            frozenset(c3),
                                            frozenset(c4),
                                        )


def aux_graph(inst: Instance, x: int, i: IndexTuple) -> BlockGraph:
    """Block graph joining the solution's contraction with the index's
    far-side sets; no edges among far-side blocks (mixed contraction).

    Empty far-side sets would be isolated blocks; they are omitted here and
    handled as singleton groups by `cc_signature`.
    """
    g, s = inst.graph, inst.s_set
    a = contract_partial(x, connected_components(g, x & ~s), s)
    b_blocks = [u for u in sorted(i.yvc_ns, key=lex_key) if u]
    b_flags = [False] * len(b_blocks)
    for u in sorted(i.yvc_s, key=lex_key):
        if u:
            b_blocks.append(u)
            b_flags.append(True)
    b = BlockPartition(tuple(b_blocks), tuple(b_flags)) if b_blocks else ()
    return contracted(g, a, b, "mixed")


def _match_unique(keys: List[int], target_key: int) -> Optional[int]:
    found = None
    for idx, k in enumerate(keys):
        if k == target_key:
            if found is not None:
                return None
            found = idx
    return found


def is_partial_solution(inst: Instance, ctx: NodeContext, x: int, i: IndexTuple) -> bool:
    """Literal admissibility test of a solution against an index."""
    g, s = inst.graph, inst.s_set
    if x & ~ctx.vx:
        raise ValueError("solution not within the node side")
    comps = components_masks(g, x & ~s)
    singles = list(bits(x & s))
    fam1, fam2 = ctx.fam_x1, ctx.fam_x2
    single_keys = [fam1.key_of(1 << v) for v in singles]
    comp_keys = [fam2.key_of(c) for c in comps]

    matched = 0
    for r in i.xvc_s:
        hit = _match_unique(single_keys, fam1.key_of(r))
        if hit is None:
            return False
        matched |= 1 << singles[hit]
    for r in i.xvc_ns:
        hit = _match_unique(comp_keys, fam2.key_of(r))
        if hit is None:
            return False
        matched |= comps[hit]

    bg = aux_graph(inst, x, i)
    if not is_forest(bg.graph, bg.graph.vertices):
        return False

    for u_set in i.yvc_s:
        if u_set == 0:
            continue
        if u_set.bit_count() != 1:
            raise ValueError("yvc_s members must be empty or singleton sets")
        au = g.adj[u_set.bit_length() - 1]
        for c in comps:
            if (au & c).bit_count() > 1:
                return False
    for v in singles:
        av = g.adj[v]
        for u_set in i.yvc_ns:
            if (av & u_set).bit_count() > 1:
                return False
        for c in comps:
            if (av & c).bit_count() > 1:
                return False

    return fam1.key_of(x & ~matched) == fam1.key_of(i.x_rest)


def profile_solution(
    inst: Instance,
    ctx: NodeContext,
    x: int,
    labels: Dict[int, int],
    far_cands: Sequence[Tuple[int, int, int]],
) -> Optional[_Profile]:
    """Reference for `dp._profile`, built from scratch: the
    components of x minus S by breadth-first search, the trees and the
    forbidden cycles by union-find over every block, and the class keys
    and the blocks' d=1 classes from whole blocks, through `class_of`.  As in
    `dp`, the profile keeps the blocks with a vertex that has a neighbor
    across the cut, each as its boundary part (`block & near_bnd`),
    and each attachment type holds the OR of its label bits; tree ids are
    the union-find roots.  `far_cands` is
    `far_candidates(inst.graph, ctx)`, built once per node by the caller."""
    g, s = inst.graph, inst.s_set
    comps = components_masks(g, x & ~s)
    singles = list(bits(x & s))
    nc = len(comps)
    blocks = comps + [1 << v for v in singles]
    nb = len(blocks)

    parent = list(range(nb))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for si, v in enumerate(singles):
        av = g.adj[v]
        bi = nc + si
        for bj in range(nb):
            if bj == bi or not av & blocks[bj]:
                continue
            if bj < nc and (av & blocks[bj]).bit_count() > 1:
                return None
            if nc <= bj < bi:
                continue
            ra, rb = find(bi), find(bj)
            if ra == rb:
                return None
            parent[ra] = rb

    comp_keys = [ctx.fam_x2.class_of(c) for c in comps]
    single_keys = [ctx.fam_x1.class_of(1 << v) for v in singles]
    x_cands: List[Tuple[int, int]] = []  # label bit, index among the kept blocks
    kept: List[int] = []
    for bi, block in enumerate(blocks):
        ext = 0
        for v in bits(block):
            ext |= g.adj[v]
        if not ext & ctx.cvx:
            continue
        keys = comp_keys if bi < nc else single_keys
        key = keys[bi if bi < nc else bi - nc]
        if key and keys.count(key) == 1:
            kind = _XN if bi < nc else _XS
            x_cands.append((_label_bit(labels, key << 2 | kind), len(kept)))
        kept.append(bi)
    tree_of = tuple(find(bi) for bi in kept)

    # Far-side candidates by attachment set, as in dp, but each candidate
    # on its own: its hit, its own degree checks, its own trees.
    by_att: Dict[int, Tuple[Tuple[int, ...], int]] = {}  # att -> trees, label mask
    for label, ext, bad in far_cands:
        hit = ext & x
        if not hit or bad & x & s:
            continue
        if label & 3 == _YS and any((hit & c).bit_count() > 1 for c in comps):
            continue
        att = 0
        trees = set()
        for j, bi in enumerate(kept):
            if hit & blocks[bi]:
                att |= 1 << j
                trees.add(tree_of[j])
        if len(trees) < att.bit_count():
            continue
        known = by_att.get(att, (tuple(trees), 0))
        by_att[att] = (known[0], known[1] | _label_bit(labels, label))
    types = tuple(sorted((att, trees, label_mask) for att, (trees, label_mask) in by_att.items()))
    classes = tuple(ctx.fam_x1.class_of(blocks[bi]) for bi in kept)
    parts = tuple(blocks[bi] & ctx.near_bnd for bi in kept)
    return _Profile(parts, tree_of, tuple(x_cands), types, classes)


Signature = Tuple[Tuple[Tuple[str, int], ...], ...]


def _encode_groups(groups: List[List[Tuple[str, int]]]) -> Signature:
    return tuple(sorted(tuple(sorted(grp)) for grp in groups if grp))


def cc_signature(inst: Instance, ctx: NodeContext, x: int, i: IndexTuple) -> Signature:
    """Connection signature: how the index's sets are grouped by the
    components of the solution/index block graph.

    Requires x to be a partial solution for i.
    """
    g, s = inst.graph, inst.s_set
    comps = components_masks(g, x & ~s)
    singles = list(bits(x & s))
    fam1, fam2 = ctx.fam_x1, ctx.fam_x2
    blocks = comps + [1 << v for v in singles]
    nb = len(blocks)

    chosen: List[Tuple[str, int, int]] = []  # (kind, set, ext inside vx)
    for u_set in sorted(i.yvc_ns, key=lex_key):
        chosen.append(("yn", u_set, _reach(g, ctx.vx, u_set)[0]))
    for u_set in sorted(i.yvc_s, key=lex_key):
        chosen.append(("ys", u_set, _reach(g, ctx.vx, u_set)[0]))

    parent = list(range(nb + len(chosen)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for bi in range(len(comps), nb):
        av = g.adj[blocks[bi].bit_length() - 1]
        for bj in range(nb):
            if bj != bi and av & blocks[bj]:
                union(bi, bj)
    for ci, (_, u_set, ext) in enumerate(chosen):
        for bj in range(nb):
            if ext & blocks[bj]:
                union(nb + ci, bj)

    single_keys = [fam1.key_of(1 << v) for v in singles]
    comp_keys = [fam2.key_of(c) for c in comps]
    groups: Dict[int, List[Tuple[str, int]]] = {}
    for r in sorted(i.xvc_ns, key=lex_key):
        hit = _match_unique(comp_keys, fam2.key_of(r))
        if hit is None:
            raise ValueError("x is not a partial solution for the index")
        groups.setdefault(find(hit), []).append(("xn", r))
    for r in sorted(i.xvc_s, key=lex_key):
        hit = _match_unique(single_keys, fam1.key_of(r))
        if hit is None:
            raise ValueError("x is not a partial solution for the index")
        groups.setdefault(find(len(comps) + hit), []).append(("xs", r))
    for ci, (kind, u_set, _) in enumerate(chosen):
        if u_set:
            groups.setdefault(find(nb + ci), []).append((kind, u_set))
    out = list(groups.values())
    for kind, u_set, _ in chosen:
        if u_set == 0:
            out.append([(kind, 0)])
    return _encode_groups(out)


def check_x2plus(g: Graph, x: int, y: int) -> bool:
    """On a forest split into sides x and y, at most 2 * mim(x, y) vertices
    of x can have two or more neighbors in y.  Returns whether that holds
    (the premise that the graph induced on x | y is a forest is assumed)."""
    heavy = sum(1 for v in bits(x) if (g.adj[v] & y).bit_count() >= 2)
    return heavy <= 2 * mim_bipartite(g, x, y)


def _full_blocks(g: Graph, s: int, x: int, y: int, p: BlockPartition) -> BlockPartition:
    """One partition holding both sides: x's components and S-singletons
    followed by y's blocks and S-singletons."""
    bx = contract_partial(x, connected_components(g, x & ~s), s)
    by = contract_partial(y, p, s)
    return BlockPartition(bx.blocks + by.blocks, bx.s_flags + by.s_flags)


def find_scontraction(g: Graph, s: int, x: int, y: int) -> BlockPartition:
    """Partition of y minus S whose contraction together with x's components
    turns the crossing structure into a forest.

    Requires the graph induced on x | y to be an S-forest.  Starts from the
    connected components of y minus S and repeatedly merges the blocks of a
    shortest cycle of the contracted graph; such cycles always pass through
    at least two mergeable blocks, so this terminates.
    """
    if x & y:
        raise ValueError("sides overlap")
    blocks = components_masks(g, y & ~s)
    while True:
        p = BlockPartition(tuple(blocks), (False,) * len(blocks))
        full = _full_blocks(g, s, x, y, p)
        bg = contracted(g, full, (), "full")
        cyc = _shortest_cycle(bg.graph)
        if cyc is None:
            return p
        cyc_masks = {full.blocks[c] for c in cyc}
        merged = 0
        rest = []
        for b in blocks:
            if b in cyc_masks:
                merged |= b
            else:
                rest.append(b)
        if merged == 0 or merged in blocks:
            raise AssertionError("contracted cycle without mergeable blocks")
        rest.append(merged)
        rest.sort(key=lambda m: m & -m)
        blocks = rest


def _shortest_cycle(g: Graph) -> Optional[List[int]]:
    """Vertex list of a shortest cycle, None in a forest.  Scans a BFS from
    every vertex and takes the best meeting of two branches."""
    best: Optional[List[int]] = None
    for root in range(g.n):
        parent = {root: -1}
        depth = {root: 0}
        order = [root]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in bits(g.adj[u]):
                if v not in parent:
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    order.append(v)
                elif parent[u] != v and depth[v] >= depth[u]:
                    # non-tree edge: walk both endpoints up to the meet
                    pa, pb = u, v
                    trail_a, trail_b = [pa], [pb]
                    while depth[pa] > depth[pb]:
                        pa = parent[pa]
                        trail_a.append(pa)
                    while depth[pb] > depth[pa]:
                        pb = parent[pb]
                        trail_b.append(pb)
                    while pa != pb:
                        pa, pb = parent[pa], parent[pb]
                        trail_a.append(pa)
                        trail_b.append(pb)
                    cyc = trail_a + trail_b[:-1][::-1]
                    if len(set(cyc)) == len(cyc) and len(cyc) >= 3:
                        if best is None or len(cyc) < len(best):
                            best = cyc
        if best is not None and len(best) == 3:
            break
    return best


def scontraction_conditions(g: Graph, s: int, x: int, y: int, p: BlockPartition) -> bool:
    """The three guarantees of a valid contraction: the full block graph is
    a forest, every S-vertex of both sides sees each block at most once, and
    the extracted cover is small with pairwise distinct crossing
    neighborhoods (checked by extract_vertex_cover)."""
    full = _full_blocks(g, s, x, y, p)
    bg = contracted(g, full, (), "full")
    if not is_forest(bg.graph, bg.graph.vertices):
        return False
    for v in bits((x | y) & s):
        for b in full.blocks:
            if (g.adj[v] & b).bit_count() > 1:
                return False
    return True


def extract_vertex_cover(
    g: Graph, s: int, x: int, y: int, p: BlockPartition
) -> List[Tuple[str, int]]:
    """Vertex cover of the crossing block forest: blocks seeing two or more
    far blocks, plus one endpoint of every isolated crossing edge (the one
    whose smallest vertex is smaller).

    Returns (side tag, block mask) pairs; tags are "xn", "xs", "yn", "ys".
    The cover size is at most 4 * mim of the cut and all crossing
    neighborhoods are pairwise distinct.
    """
    bx = contract_partial(x, connected_components(g, x & ~s), s)
    by = contract_partial(y, p, s)
    xb = list(zip(bx.blocks, bx.s_flags))
    yb = list(zip(by.blocks, by.s_flags))

    def cross_nbrs(block: int, far: List[Tuple[int, bool]]) -> Tuple[int, ...]:
        ext = 0
        for v in bits(block):
            ext |= g.adj[v]
        return tuple(j for j, (fb, _) in enumerate(far) if ext & fb)

    x_adj = [cross_nbrs(b, yb) for b, _ in xb]
    y_adj = [cross_nbrs(b, xb) for b, _ in yb]

    cover: List[Tuple[str, int]] = []
    for i, (b, single) in enumerate(xb):
        if len(x_adj[i]) >= 2:
            cover.append(("xs" if single else "xn", b))
    for j, (b, single) in enumerate(yb):
        if len(y_adj[j]) >= 2:
            cover.append(("ys" if single else "yn", b))
    for i, (b, single) in enumerate(xb):
        if len(x_adj[i]) != 1:
            continue
        j = x_adj[i][0]
        if len(y_adj[j]) != 1:
            continue
        fb, fsingle = yb[j]
        if min(bits(b)) < min(bits(fb)):
            cover.append(("xs" if single else "xn", b))
        else:
            cover.append(("ys" if fsingle else "yn", fb))

    m = mim_bipartite(g, x, y)
    assert len(cover) <= 4 * m, "cover exceeds four times the matching bound"
    nbhds = []
    for tag, b in cover:
        ext = 0
        for v in bits(b):
            ext |= g.adj[v]
        nbhds.append(ext & (x if tag.startswith("y") else y))
    assert len(set(nbhds)) == len(nbhds), "cover neighborhoods collide"
    return cover


def build_index_from_cover(
    ctx: NodeContext, x: int, cover: List[Tuple[str, int]]
) -> IndexTuple:
    """Index induced by a crossing cover: near-side cover blocks become
    matched representatives, far-side ones the expected far sets, and the
    rest of the solution is summarized by its 1-neighbor representative."""
    xvc_ns, xvc_s, yvc_ns, yvc_s = set(), set(), set(), set()
    matched = 0
    for tag, b in cover:
        if tag == "xn":
            xvc_ns.add(rep_of(ctx.fam_x2, b))
            matched |= b
        elif tag == "xs":
            xvc_s.add(rep_of(ctx.fam_x1, b))
            matched |= b
        elif tag == "yn":
            yvc_ns.add(rep_of(ctx.fam_y2, b))
        else:
            yvc_s.add(rep_of(ctx.fam_y1, b))
    return IndexTuple(
        frozenset(xvc_ns),
        frozenset(xvc_s),
        rep_of(ctx.fam_x1, x & ~matched),
        frozenset(yvc_ns),
        frozenset(yvc_s),
    )


def is_complement_solution(
    inst: Instance,
    ctx: NodeContext,
    y: int,
    p: BlockPartition,
    i: IndexTuple,
) -> bool:
    """Far-side counterpart of the partial solution conditions: the index's
    far sets match blocks of y's contraction uniquely, the mirrored block
    graph is a forest, degree limits hold toward the near-side sets, and
    the unmatched remainder never touches the near rest."""
    g, s = inst.graph, inst.s_set
    if y & ~ctx.cvx:
        raise ValueError("far solution not within the far side")
    singles = list(bits(y & s))
    fam1, fam2 = ctx.fam_y1, ctx.fam_y2
    single_keys = [fam1.key_of(1 << q) for q in singles]
    block_keys = [fam2.key_of(b) for b in p.blocks]

    matched = 0
    for u in i.yvc_ns:
        key = fam2.key_of(u)
        hits = [j for j, k in enumerate(block_keys) if k == key]
        if len(hits) != 1:
            return False
        matched |= p.blocks[hits[0]]
    for u in i.yvc_s:
        key = fam1.key_of(u)
        hits = [j for j, k in enumerate(single_keys) if k == key]
        if len(hits) != 1:
            return False
        matched |= 1 << singles[hits[0]]

    by = contract_partial(y, p, s)
    far_blocks = [b for b in sorted(i.xvc_ns, key=lex_key) if b]
    far_flags = [False] * len(far_blocks)
    for b in sorted(i.xvc_s, key=lex_key):
        if b:
            far_blocks.append(b)
            far_flags.append(True)
    far = BlockPartition(tuple(far_blocks), tuple(far_flags)) if far_blocks else ()
    bg = contracted(g, by, far, "mixed")
    if not is_forest(bg.graph, bg.graph.vertices):
        return False

    for u in i.xvc_s:
        if u == 0:
            continue
        au = g.adj[u.bit_length() - 1]
        for b in p.blocks:
            if (au & b).bit_count() > 1:
                return False
    for q in singles:
        aq = g.adj[q]
        for u in i.xvc_ns:
            if (aq & u).bit_count() > 1:
                return False
        for b in p.blocks:
            if (aq & b).bit_count() > 1:
                return False

    rest_ext = 0
    for v in bits(i.x_rest):
        rest_ext |= g.adj[v]
    return not rest_ext & (y & ~matched)


def bucket_keys_by_candidate(
    inst: Instance, ctx: NodeContext, x: int, labels: Dict[int, int]
) -> Optional[Set[Tuple[int, ...]]]:
    """Reference for `dp._bucket_keys`: the bucket keys of one solution,
    grown one far-side candidate at a time, or None when the solution can
    never be extended.

    Each candidate label (a class key shifted left by two, with its kind
    in the low bits, as in `dp`) gets the next free bit from `labels`; a
    far candidate's key comes from `_reach` (`_far_label`).  A key is the
    class key of the unmatched rest followed by the sorted label masks of
    the groups.  Candidates with equal attachment sets exclude each other,
    a lone hook on a block excludes every other hook on it, and a
    candidate hooking two blocks of one tree closes a cycle.
    """
    g, s = inst.graph, inst.s_set
    comps = components_masks(g, x & ~s)
    singles = list(bits(x & s))
    nc = len(comps)
    blocks = comps + [1 << v for v in singles]
    nb = len(blocks)

    def label_bit(label: int) -> int:
        bit = labels.get(label)
        if bit is None:
            bit = labels[label] = 1 << len(labels)
        return bit

    parent = list(range(nb))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for si, v in enumerate(singles):
        av = g.adj[v]
        bi = nc + si
        for bj in range(nb):
            if bj == bi or not av & blocks[bj]:
                continue
            if bj < nc and (av & blocks[bj]).bit_count() > 1:
                return None
            if nc <= bj < bi:
                continue
            ra, rb = find(bi), find(bj)
            if ra == rb:
                return None
            parent[ra] = rb
    tree_of = [find(b) for b in range(nb)]

    comp_keys = [ctx.fam_x2.class_of(c) for c in comps]
    single_keys = [ctx.fam_x1.class_of(1 << v) for v in singles]
    x_cands: List[Tuple[int, int]] = []  # label bit, block index
    for bi, key in enumerate(comp_keys):
        if key and comp_keys.count(key) == 1:
            x_cands.append((label_bit(key << 2 | _XN), bi))
    for si, key in enumerate(single_keys):
        if key and single_keys.count(key) == 1:
            x_cands.append((label_bit(key << 2 | _XS), nc + si))

    y_cands: List[Tuple[int, int, Tuple[int, ...]]] = []  # label bit, attachment, trees

    def add_hook(label: int, hit: int) -> None:
        att = 0
        trees = set()
        for bj, block in enumerate(blocks):
            if hit & block:
                att |= 1 << bj
                trees.add(tree_of[bj])
        if att and len(trees) == att.bit_count():
            y_cands.append((label_bit(label), att, tuple(trees)))

    for u_set in reps(ctx.fam_y2).values():
        if u_set:
            hit, bad = _reach(g, x, u_set)
            if not bad & s:
                add_hook(_far_label(g, ctx, u_set, _YN), hit)
    for u_set in ys_pool(ctx):
        au = g.adj[u_set.bit_length() - 1] if u_set else 0
        if u_set and not any((au & c).bit_count() > 1 for c in comps):
            add_hook(_far_label(g, ctx, u_set, _YS), _reach(g, x, u_set)[0])

    cap_side = 2 * ctx.mim
    p_subs = []  # matched blocks, class of the unmatched rest, (tree, label) per member
    for size in range(min(cap_side, len(x_cands)) + 1):
        for sub in combinations(x_cands, size):
            used = vc_mask = 0
            for _, bi in sub:
                used |= 1 << bi
                vc_mask |= blocks[bi]
            members = tuple((tree_of[bi], bit) for bit, bi in sub)
            p_subs.append((used, ctx.fam_x1.class_of(x & ~vc_mask), members))

    keys: Set[Tuple[int, ...]] = set()

    def grow(start: int, chosen: List[int], lone: int, root: List[int], groups: List[int]):
        for used, x_rest, members in p_subs:
            if used & lone:
                continue
            grp = groups.copy()
            for t, bit in members:
                grp[root[t]] |= bit
            keys.add((x_rest, *sorted(filter(None, grp))))
        if len(chosen) == cap_side:
            return
        for j in range(start, len(y_cands)):
            bit, att, trees = y_cands[j]
            clash = False
            for k in chosen:
                other = y_cands[k][1]
                if other == att:
                    clash = True
                elif att.bit_count() == 1 and other & att:
                    clash = True
                elif other.bit_count() == 1 and other & att:
                    clash = True
            rs = {root[t] for t in trees}
            if clash or len(rs) < len(trees):
                continue
            anchor = min(rs)
            grp = groups.copy()
            for r in rs:
                bit |= grp[r]
                grp[r] = 0
            grp[anchor] = bit
            grow(
                j + 1,
                chosen + [j],
                lone | att if att.bit_count() == 1 else lone,
                [anchor if r in rs else r for r in root],
                grp,
            )

    grow(0, [], 0, list(range(nb)), [0] * nb)
    return keys
