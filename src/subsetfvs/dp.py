"""Bottom-up dynamic programming for maximum-weight S-forests over a layout.

Each layout node keeps a table of partial solutions (vertex subsets of the
side below the node).  After merging child tables, `reduce_table` keeps a
subset that represents the merged table: for every set Y on the far side
of the cut, some kept row completes Y to an S-forest with the best weight
any merged row reaches.  Rows are visited best first, by (-weight,
lexicographic order), in one pass that keeps the first row per boundary
signature (the signature route, below).  The completion route or the key
route may then refine those survivors.

Some vertices lie in every maximum, and the weights alone show it:
`forced_set` finds H, the longest proper heaviest-first prefix whose every
vertex outweighs all positive weight outside it and which induces an
S-forest (the proof is in its docstring).  The hub reduction of node
multiway cut prices the hub and the terminals above the total, so they
are forced.  `solve` gives a forced leaf the one row that holds its
vertex, and keeps of each merged table only the rows x with
x | (H beyond the node) an S-forest (`_holding`), before `reduce_table`
and `trace` see it.  That is read by `_completes` from x's stored
structure and the pieces of the forced vertices beyond the node.  On a hub
instance it drops the rows that join two terminals in one tree, which
the hub would close into a cycle at the root.  The reduction thus
represents the table it gets, and the per-node audits check that same
table.  A node with no forced vertex beyond it, and every node of an
input with no forced set (unit weights, say), drops nothing.

The completion route decides representativity directly.  It lists F, the
far sets Y with G[Y] an S-forest, and keeps a row exactly when it
completes some Y in F that no earlier kept row completes; once every Y in
F is covered, the remaining rows are dropped unseen.  It is exact: for each
Y in F the first row in best-first order that completes Y is a heaviest
such row, and the lexicographically smallest among those, so it is kept.
S-forests are closed under taking subsets, so a far set outside F is
completed by no row, before or after the reduction.  The kept rows thus
represent the merged table, and there are at most |F| of them.  F is grown
one far vertex at a time and carries each Y's components of Y \\ S and
trees.  Whether a row x completes Y is then one more join (`_completes`),
of Y's pieces with x's stored ones, with no search: both have excess 0,
so by the join formula (`_joined`, below) x | Y is an S-forest exactly
when the edges between them with an end in S, plus the merges Y's
components make among x's components, minus the merges Y's trees make
among x's trees, sum to 0.  Only the far vertices that meet x have such
edges; they are found once per row, and a Y that meets none of them is
completed without a join.

The signature route keeps the first row per boundary signature: x &
near_bnd, and the boundary parts of x's boundary components and trees,
sorted (see below for the boundary).  At excess 0 that is the row's stored
structure, so the pass keys on it.  It is exact because a row meets a
completion only through the cut.  By the join formula (`_joined`), the
excess of x | Y, for a far set Y, is the excess of x plus that of Y plus
one per edge between x and Y with an end in S, plus the merges that those
edges make among the components of x \\ S and among the trees of x.  The
edges end in x & near_bnd, and which pieces of x they merge is read from
the pieces' boundary parts.  So for rows of excess 0, whether x | Y is an
S-forest depends on x only through its signature.  For each Y, the first
row in best-first order that completes Y is then the first row of its
signature, and is kept.  So the completion route keeps the same rows
whether it starts from the survivors or from all rows of excess 0, and the
key route does too (see below).

The key route keeps one maximum-weight member per bucket, with the same
ties.  Two solutions share a bucket when they admit the same index (a
bounded description of how a solution and a hypothetical completion on the
other side can interact through the cut) with the same connection
signature.  One winner per bucket preserves the best completion for every
subset of the other side.  The buckets are a function of the boundary
signature, so the key route only ever reduces the signature route's rows
further: it runs on those rows and keeps exactly what it would keep from
all of them.  A row is kept exactly when its keys add one to those of the
rows before it.  So a row whose keys some earlier row already had adds
none, and the key route skips the search for it.  It tells such rows by
their fingerprint: the row's profile (below) without its blocks.  That
leaves four parts: the blocks' trees (`tree_of`); the matched candidates
(`x_cands`); the attachment types, sorted, each as its blocks, their
trees and the OR of its far labels; and each block's d=1 class key
N(block & near_bnd) & cvx (`classes`).  The four parts fix the keys.
Each p-subset head is the d=1 class of the unmatched rest, the union of
the unmatched blocks' boundary parts, so its class key is the OR of
theirs.  Labels are numbered once per node, so
equal parts name equal labels.  Everything else `_bucket_keys` reads is a
node constant.  Two rows with one fingerprint thus have one key set, and
a row whose fingerprint an earlier row at the node had is dropped
unsearched.

Every node pays O(boundary) per row for the signature pass.  A node then
takes the completion route exactly when 2^|far side| is at most the
number of far-side candidates an index can name, or at most a quarter of
the merged rows (`completion_route`): the completion route's work per row
grows with the far subsets, the key route's with those candidates, and a
merged table that dwarfs the far subsets is cut to at most one row per
far S-forest.  So it runs near the root of a layout, where the far side
has a handful of vertices.  Elsewhere the survivors are the table when
there is at most one of them, or when they number at most
`fam_x2.class_count` times the bit length of `len(far_cands)`
(`signature_route`); otherwise the key route reduces them.  A lone
survivor of excess 0 is kept by the key route too.
The key route pays at least one scan of the far candidate groups per
survivor, and more per bucket key, to keep fewer rows.  The signature
route pays O(boundary) per row but passes more rows up, and the next
merge multiplies them by the other child's rows.  Every bucket key starts with
a near class, so the key route's table grows with the class count, and
survivors within a log factor of it leave it little to shrink for the
scans it costs.  Past that, the survivors mostly repeat how they meet the
far side, and the key route's smaller table pays for its scans.  Wide
boundaries (dense interval and permutation graphs) give many more
survivors than classes, so there the key route runs as before; narrow
cuts skip it.  The rule reads only per-node quantities that exist
already.  It is a measured choice, not a bound, and the results are
exact either way.

The full index family is astronomically large, so the key route enumerates,
per solution, only the indices that can actually arise from a vertex cover
of a crossing forest.  The far side of such an index is organised by
attachment type.  A far-side candidate's attachment is the set of solution
blocks it sees, and every chosen candidate must see one.  Candidates with
one attachment set exclude each other, so a far-side choice is a set of
attachment types plus one candidate label per type.  A type attached to a
single block (a lone type) can only stem from an isolated crossing edge, so
that block stays unmatched and no other type may hook it.  A type that
hooks two blocks of one tree, or two trees already joined, would close a
cycle.  `_bucket_keys` searches the type sets depth first in one loop: a
chosen type merges the trees it hooks, a lone type's one tree included,
and drops the types it clashes with, and a type whose trees are joined
already is skipped.  Each side of the cover holds at most twice the cut's
induced matching value.
Indices outside this family never decide a completion, so the trimmed table
represents the merged one.  The literal route lives with the test
oracles: `oracles.enumerate_indices` streams the full index family,
`oracles.is_partial_solution` and `oracles.cc_signature` are the definitions
the keys are checked against, and `oracles.bucket_keys_by_candidate` grows
the same keys one candidate at a time.

Buckets are plain tuples of ints.  Every candidate set an index can name
(a matched component or S-vertex on the near side, a far-side set or
singleton) is a label with one bit per node.  A label is the key of the
candidate's class (`NecFamily.class_of`) shifted left by two, with the
candidate's kind in the low bits, and a bucket key starts with the d=1
class key of the unmatched rest.  The index names classes by their
canonical representatives, but keys and representatives are in
bijection: a key is the class's neighbor counts toward the other side,
clamped at d, which every member shares and no other class has.  So
every fingerprint and bucket key maps one-to-one to the one named by
representatives, equal keys stay equal, and the kept rows are those
that naming keeps; no representative is ever worked out.  The far labels
are numbered when the key route starts at a node, grouped by their reach
into the side, and a profile scans those groups, not the candidates; near
labels are numbered as rows meet them.  A profile holds each attachment
type's far labels as the OR of their bits, and `_bucket_keys` splits
that mask into single labels.  A signature group is the OR of its label
bits, and a bucket key is the class of the unmatched rest followed by
the group masks in an order fixed by the set of groups.  Keys are
compared only for equality, and any one-to-one numbering keeps equal
keys equal.  On the key route a solution stays exactly when one of its
keys is not yet seen.  That is the minimum entry of each bucket, without
holding the buckets.

The work per node and per row follows the cut's boundary (the side's
vertices with a neighbor across the cut), not the number of vertices.
Only boundary vertices decide a class, so class keys are looked up from
the boundary part of a set.  The far-side candidates and their reach into
the side are read from the class keys of the far families, which already
hold them, and the far singletons from the far vertices that have a
neighbor on the side.  A row's block structure (its components, its
trees, and its excess, the number of edges its S-contraction has beyond a
forest) is carried from the child rows through `BlockStore`, one dict
per node.  There a row's structure holds the boundary parts of its pieces
on the node's boundary, sorted, so it is the row's signature at the node.
For the same reason a row's keys are a function of its boundary
signature, so the key route sees only the signature route's survivors
and profiles no repeated signature.  A row can still become an S-forest
exactly when its excess is 0, so `reduce_table`'s signature pass skips
the others and every root row is an S-forest.  The join formula is coded
once, in `_joined`: `BlockStore` calls it per child pair, `_far_forests`
per far vertex, and `_completes` per (row, far set) pair, for the
completion route and for `_holding` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations, filterfalse, product, starmap
from operator import add, or_
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .graphs import CheckError, Instance, bits, components_masks, is_s_forest, lex_order, mask_of
# mim_cut and compute_reps are unused here, and solve never calls them, but
# they stay names of this module: perfbench/tracing.py wraps them by name.
from .layouts import RootedLayout, boundaries, mim_bipartite, mim_cut  # noqa: F401
from .nec import NecFamily, layout_families
from .nec import side_family as compute_reps  # noqa: F401

# Candidate labels: a class key shifted left by two, with its kind (matched
# component, matched S-vertex, far-side set, far-side singleton) in the low
# bits.
_XN, _XS, _YN, _YS = range(4)


class Structure(NamedTuple):
    """Block structure of a vertex set x below a layout node, as far as a
    merge further up can still change it.

    The pieces listed are those with a vertex on the node's boundary (a
    vertex with a neighbor outside the node), as their boundary parts,
    sorted: no later edge reaches the rest of x.
    `excess` is over all of x.  It counts the edges of x's
    S-contraction (a node per component of x \\ S and per S-vertex, an
    edge per edge of x with an end in S) beyond a forest: edges minus nodes
    plus components.  x can still be extended to an S-forest exactly when
    it is 0, and it never falls as x grows."""

    comps: Tuple[int, ...]  # components of x \\ S on the boundary
    trees: Tuple[int, ...]  # components of x on the boundary
    excess: int


def _glue(out: Sequence[int], piece: int, reach: int) -> List[int]:
    """The pieces `out` with `piece` joined to each of them that meets
    `reach`, the piece's neighbors on their side: the others first, then
    the joined piece."""
    rest = []
    for other in out:
        if other & reach:
            piece |= other
        else:
            rest.append(other)
    rest.append(piece)
    return rest


def _joined(a: tuple, b: tuple, s_edges: int, reach: Callable[[int], int]) -> tuple:
    """The pieces and excess of x | y, for disjoint vertex sets x and y:
    the join formula.  `a`, `b` and the result are (components of the set
    minus S, trees, excess), as in `Structure`.

    Each set's pieces are maximal on its own side, so only an edge between
    x and y joins two of them: each piece p of y is glued to the pieces of
    x it meets, `reach(p)` being p's neighbors.  The joined excess is the
    two sets' sum, plus `s_edges`, the edges between x and y with an end
    in S (new contraction edges), plus one per component of x \\ S or
    y \\ S that the join merges into another (one contraction node
    fewer), minus one per tree it merges into another (one component
    fewer).  The pieces come back unsorted and uncut."""
    a_comps, a_trees, excess = a
    b_comps, b_trees, b_excess = b
    comps, trees = a_comps, a_trees
    for piece in b_comps:
        comps = _glue(comps, piece, reach(piece))
    for piece in b_trees:
        trees = _glue(trees, piece, reach(piece))
    excess += b_excess + s_edges + len(a_comps) + len(b_comps) - len(comps)
    return comps, trees, excess - (len(a_trees) + len(b_trees) - len(trees))


def _boundary_parts(pieces: Iterable[int], bnd: int) -> Tuple[int, ...]:
    """The nonempty parts of `pieces` in `bnd`, sorted."""
    return tuple(sorted([p & bnd for p in pieces if p & bnd]))


class BlockStore:
    """Block structures of vertex sets below the nodes of one layout, one
    dict per node, each piece stored as its part on that node's boundary.

    A leaf's set is one vertex or none.  An internal node's set is joined
    from its parts below the two children by `_joined`, along the edges
    from the right part to the left one, or is the structure of the one
    child it lies below, cut down.  That is exact: a join reads a piece
    only in vertices with a neighbor across the child cut, which lie on
    the child's boundary.  `solve` asks for the rows of each merged table,
    whose parts are in the children's dicts, and `keep` then drops what
    no live table holds."""

    def __init__(self, inst: Instance, layout: RootedLayout):
        adj, s = inst.graph.adj, inst.s_set
        self.layout = layout
        self.boundary = boundaries(inst.graph, layout)
        self.known: List[Dict[int, Structure]] = [{0: Structure((), (), 0)} for _ in self.boundary]
        # s_nbs[v]: v's neighbors along edges with an end in S, all of them
        # when v is in S, else those in S.
        self.s_nbs = [nb if s >> v & 1 else nb & s for v, nb in enumerate(adj)]
        # crossing[y]: the vertices below y's right child with a neighbor
        # below its left child; neighbors[y]: the neighbors of those below y.
        self.crossing: List[int] = []
        self.neighbors: List[int] = []
        nbs = self.neighbors
        for y in layout.postorder():
            crossing = 0
            if layout.is_leaf(y):
                v = 1 << layout.leaf_vertex[y]
                listed = (v,) if v & self.boundary[y] else ()
                self.known[y][v] = Structure(() if v & s else listed, listed, 0)
                nbs.append(adj[layout.leaf_vertex[y]])
            else:
                for u in bits(self.boundary[layout.right[y]]):
                    if adj[u] & layout.below[layout.left[y]]:
                        crossing |= 1 << u
                nbs.append(nbs[layout.left[y]] | nbs[layout.right[y]])
            self.crossing.append(crossing)
        # neighbors of a vertex set, cached until `keep`
        self._reach = cache(lambda piece: reduce(or_, [adj[v] for v in bits(piece)], 0))

    def of(self, node: int, x: int) -> Structure:
        """Block structure of a vertex set x below `node`: the known one, or
        built from x's parts in the children's dicts, which must hold them.
        A set wholly below one child keeps the child's structure when its
        trees, which cover x & the child's boundary, lie inside the node's
        boundary, and is cut down otherwise."""
        known = self.known
        got = known[node].get(x)
        if got is not None:
            return got
        lay, bnd, s_nbs = self.layout, self.boundary[node], self.s_nbs
        lc, rc = lay.left[node], lay.right[node]
        left = x & lay.below[lc]
        if left == x or not left:
            child = lc if left else rc
            got = known[child][x]
            if not x & self.boundary[child] & ~bnd:
                known[node][x] = got
                return got
            comps, trees, excess = got
        else:
            s_edges = 0
            for u in bits(x & self.crossing[node]):
                s_edges += (s_nbs[u] & left).bit_count()
            comps, trees, excess = _joined(known[lc][left], known[rc][x ^ left], s_edges, self._reach)
        got = known[node][x] = Structure(_boundary_parts(comps, bnd), _boundary_parts(trees, bnd), excess)
        return got

    def keep(self, node: int, rows: Iterable[int]) -> None:
        """Keep the structures of `rows` alone at `node`, built if need be,
        drop those of its inner children, and clear the neighbor cache.  A
        leaf keeps its two."""
        lay, known = self.layout, self.known
        known[node] = {m: self.of(node, m) for m in rows}
        for child in (lay.left[node], lay.right[node]):
            if not lay.is_leaf(child):
                known[child] = {}
        self._reach.cache_clear()


@dataclass
class NodeContext:
    """Per-node cut data: equivalence families on both sides, the far-side
    candidates an index can name, and the store of row structures.

    `near_bnd` holds the side's vertices with a neighbor across the cut.
    Only they decide a class of either near family, so a set and its part
    in `near_bnd` have one class key.

    `far_cands` holds (label, ext, e_bad) for every far-side candidate a
    cover can name: one per nonempty class of `fam_y2`, in no set order,
    then one per d=1 far class whose least member is a single vertex, by
    that vertex.  `ext` is the set of the side's vertices with a neighbor
    in the candidate and `e_bad` those with two or more; the label holds
    the class key (see `_XN`).  A far class key is seen from the node
    side: a d=2 key is `ext | e_bad << n`.  The far singletons' classes are
    the distinct nonzero N(u) & vx over far vertices u, and a singleton has
    no `e_bad`, so its d=1 key is `ext`.  Only far vertices with a neighbor
    on the side give one, and that neighbor lies on `near_bnd`.

    `mim`, the cut's induced-matching value, is searched on first read and
    kept.  Only the key route reads it, to cap each side of a cover."""

    node: int
    vx: int
    cvx: int
    fam_x1: NecFamily
    fam_x2: NecFamily
    fam_y1: NecFamily
    fam_y2: NecFamily
    near_bnd: int
    blocks: BlockStore
    far_cands: Tuple[Tuple[int, int, int], ...]

    @cached_property
    def mim(self) -> int:
        return mim_bipartite(self.fam_x2.graph, self.near_bnd, self.cvx)


def build_context(
    inst: Instance,
    layout: RootedLayout,
    node: int,
    families: Sequence[Sequence[NecFamily]],
    blocks: BlockStore,
) -> NodeContext:
    """Cut data of one layout node.  `families` is `layout_families` of the
    layout and `blocks` the store of row structures, which `solve` builds
    once and shares."""
    g, adj = inst.graph, inst.graph.adj
    near1, near2, far1, far2 = families
    vx = layout.below[node]
    cvx = g.vertices & ~vx
    bnd = blocks.boundary[node]
    low = (1 << g.n) - 1
    far_cands = [(key << 2 | _YN, key & low, key >> g.n) for key in far2[node].keys if key]
    # The far vertices with a neighbor on the side, which lies on its
    # boundary, least first; each names the d=1 class of its singleton.
    far_bnd = blocks.neighbors[node] & cvx
    singles: Dict[int, None] = {}
    while far_bnd:
        u = far_bnd & -far_bnd
        singles[adj[u.bit_length() - 1] & bnd] = None
        far_bnd ^= u
    far_cands += [(ext << 2 | _YS, ext, 0) for ext in singles]
    return NodeContext(
        node,
        vx,
        cvx,
        near1[node],
        near2[node],
        far1[node],
        far2[node],
        bnd,
        blocks,
        tuple(far_cands),
    )


Table = Dict[int, int]  # partial solutions of one layout node: vertex mask -> weight


def merge_tables(a: Table, b: Table) -> Table:
    """All unions of one solution per child; weights add."""
    if reduce(or_, a, 0) & reduce(or_, b, 0):
        raise ValueError("child tables overlap")
    return {ma | mb: wa + wb for ma, wa in a.items() for mb, wb in b.items()}


def _label_bit(labels: Dict[int, int], label: int) -> int:
    bit = labels.get(label)
    if bit is None:
        bit = labels[label] = 1 << len(labels)
    return bit


class _FarGroup(NamedTuple):
    ext: int
    sets: Tuple[Tuple[int, int], ...]  # e_bad and label bit of each far set
    all_sets: int  # the OR of their label bits
    bad: int  # the union of their e_bad
    single: int  # the label bit of the far singleton with this ext, or 0


def _far_groups(ctx: NodeContext, labels: Dict[int, int]) -> List[_FarGroup]:
    """`ctx.far_cands` grouped by `ext`, in order of first member, with
    every far label numbered in `labels`.

    Candidates are classes, so no two share (ext, e_bad, singleton flag);
    but many share `ext`, and with it their hit in every row.  A profile
    scans the groups, not the candidates, and the key route builds them
    once per node."""
    sets: Dict[int, List[Tuple[int, int]]] = {}
    singles: Dict[int, int] = {}
    for label, ext, bad in ctx.far_cands:
        bit = _label_bit(labels, label)
        members = sets.setdefault(ext, [])
        if label & 3 == _YS:
            singles[ext] = bit
        else:
            members.append((bad, bit))
    groups = []
    for ext, members in sets.items():
        bad = all_sets = 0
        for e_bad, bit in members:
            bad |= e_bad
            all_sets |= bit
        groups.append(_FarGroup(ext, tuple(members), all_sets, bad, singles.get(ext, 0)))
    return groups


class _Profile(NamedTuple):
    # the boundary parts of a solution's blocks on the boundary: components
    # of x \\ S, then S-vertices; tree_of numbers their trees
    blocks: Tuple[int, ...]
    tree_of: Tuple[int, ...]
    x_cands: Tuple[Tuple[int, int], ...]  # label bit, block index
    # attachment types, sorted: attached blocks (bitmask), the trees of
    # those blocks, the OR of the label bits of the far-side candidates
    # with that attachment
    types: Tuple[Tuple[int, Tuple[int, ...], int], ...]
    classes: Tuple[int, ...]  # each block's d=1 class key


def _profile(
    ctx: NodeContext,
    x: int,
    xs_mask: int,
    st: Structure,
    labels: Dict[int, int],
    groups: List[_FarGroup],
) -> _Profile:
    """Profile of an extendable solution x with S-part `xs_mask` and
    structure `st` at the node.

    Only the blocks on the boundary enter the profile, as the boundary parts
    `st` stores: no index can match or hook the others.  Candidate labels
    get their bits from `labels`, the far ones through `groups`, which is
    `_far_groups(ctx, labels)`.  The surviving members of the far groups
    are grouped further by the set they hit in x, so their attachment (the
    blocks they see) and its trees are worked out once per distinct hit,
    and candidates with one attachment set form one attachment type, its
    labels ORed into one mask.  A type that hooks one tree twice would
    close a cycle and is dropped.  The types are sorted, so the profile
    without its blocks, `prof[1:]`, is the fingerprint the key route
    compares (see the module docstring).
    """
    comps = st.comps
    singles = list(bits(xs_mask & ctx.near_bnd))
    nc = len(comps)
    blocks = list(comps) + [1 << v for v in singles]
    tree_of = [0] * len(blocks)
    for t, tree in enumerate(st.trees):
        for bj, block in enumerate(blocks):
            if block & tree:
                tree_of[bj] = t

    fam1, fam2 = ctx.fam_x1, ctx.fam_x2
    comp_keys = [fam2.class_of(c) for c in comps]
    single_keys = [fam1.class_of(1 << v) for v in singles]
    x_cands: List[Tuple[int, int]] = []
    for bi, key in enumerate(comp_keys):
        if comp_keys.count(key) == 1:
            x_cands.append((_label_bit(labels, key << 2 | _XN), bi))
    for si, key in enumerate(single_keys):
        if single_keys.count(key) == 1:
            x_cands.append((_label_bit(labels, key << 2 | _XS), nc + si))

    # hit << 1 | singleton flag -> label mask.  A far set is out when a
    # matched S-vertex sees it twice; a far singleton when it sees a
    # component twice, which depends on its hit alone.
    by_hit: Dict[int, int] = {}
    for ext, sets, all_sets, bad, single in groups:
        hit = ext & x
        if not hit:
            continue
        out = hit & xs_mask & bad
        if out:
            kept = 0
            for e_bad, bit in sets:
                if not e_bad & out:
                    kept |= bit
        else:
            kept = all_sets
        if kept:
            by_hit[hit << 1] = by_hit.get(hit << 1, 0) | kept
        if single:
            by_hit[hit << 1 | 1] = by_hit.get(hit << 1 | 1, 0) | single

    by_att: Dict[int, int] = {}
    for key, label_mask in by_hit.items():
        hit = key >> 1
        if key & 1 and any((hit & c).bit_count() > 1 for c in comps):
            continue
        att = 0
        for bj, block in enumerate(blocks):
            if hit & block:
                att |= 1 << bj
        by_att[att] = by_att.get(att, 0) | label_mask

    types = []
    for att, label_mask in sorted(by_att.items()):
        trees = {tree_of[bj] for bj in bits(att)}
        if len(trees) == att.bit_count():  # two hooks into one tree close a cycle
            types.append((att, tuple(trees), label_mask))
    classes = (*[fam1.class_of(c) for c in comps], *single_keys)
    return _Profile(tuple(blocks), tuple(tree_of), tuple(x_cands), tuple(types), classes)


BucketKey = Tuple[int, ...]  # x_rest, then the label masks of the groups


def _sorted_choices(cols: Collection[List[int]]) -> List[Tuple[int, ...]]:
    """One sorted tuple per choice of one mask from each column."""
    if len(cols) < 2:
        return list(zip(*cols)) if cols else [()]
    return list(map(tuple, map(sorted, product(*cols))))


def _bucket_keys(ctx: NodeContext, x: int, prof: _Profile, keys: Set[BucketKey]) -> None:
    """Add to `keys` the bucket keys of every cover-realizable index of a
    solution.

    Candidates with one attachment set exclude each other, so a far-side
    choice (q) is a set of attachment types plus one label per type.  The
    search runs depth first over type sets, one state per set, on an
    explicit stack.  `allowed` holds the types that may still join, as a
    bitmask; choosing a type drops those it clashes with, the types whose
    attachment meets its own when one of the two is lone (a lone type
    hooks a single block, which then stays unmatched and takes no other
    hook).  A state keeps `root[t]`, the root of tree t in a flat
    union-find of the solution's trees, and `opts[r]`, one label mask per
    label choice of the types joined to root r.  Choosing a type merges the
    roots of its trees into their least one, a lone type's single root
    included.  A type whose trees have fewer roots than it has trees would
    close a cycle and is skipped; roots only merge deeper, so it never
    joins below that state.  `lone` holds the blocks that lone types hook,
    and the matched near-side subsets (p) that use one of them are skipped.

    The p-subsets do not depend on q and are built once.  Each state
    expands its label choices with `itertools.product`, one column per
    group, instead of one step per choice.  A key is x_rest, then the
    groups holding matched labels sorted by those labels, then the other
    groups sorted.  That order is a function of the set of groups, so the
    keys are in bijection with (x_rest, *sorted group masks).  Each side
    holds at most 2 * mim sets, so the two never exceed the joint bound of
    4 * mim.
    """
    cap_side = 2 * ctx.mim
    fam1 = ctx.fam_x1
    x_bnd = x & ctx.near_bnd  # the part of x its classes depend on
    blocks, tree_of, x_cands, types, _ = prof
    # each type's label bits, as a list
    label_cols = [[1 << b for b in bits(label_mask)] for _, _, label_mask in types]

    # The p-subsets: the blocks each one matches, its trees (bitmask), its
    # label mask per tree, and its key while none of its trees has a type:
    # x_rest, then those masks in sorted order.
    ps: List[Tuple[int, int, Dict[int, int], BucketKey]] = []
    for size in range(min(cap_side, len(x_cands)) + 1):
        for sub in combinations(x_cands, size):
            used = vc_mask = tmask = 0
            by_tree: Dict[int, int] = {}
            for bit, bi in sub:
                used |= 1 << bi
                vc_mask |= blocks[bi]
                t = tree_of[bi]
                tmask |= 1 << t
                by_tree[t] = by_tree.get(t, 0) | bit
            head = (fam1.class_of(x_bnd & ~vc_mask), *sorted(by_tree.values()))
            ps.append((used, tmask, by_tree, head))
    clashes = [
        sum(1 << k for k, (att_k, trees_k, _) in enumerate(types)
            if att & att_k and min(len(trees), len(trees_k)) == 1)
        for att, trees, _ in types
    ]
    update = keys.update

    stack = [((1 << len(types)) - 1, 0, 0, list(range(len(blocks))), {})]
    while stack:
        allowed, size, lone, root, opts = stack.pop()
        # Trees under a root with types.  A p-subset that avoids them keeps
        # its head, since only a type can join two trees.
        typed = 0
        for t, r in enumerate(root):
            if r in opts:
                typed |= 1 << t
        heads = []
        for used, tmask, by_tree, head in ps:
            if used & lone:
                continue
            if not tmask & typed:
                heads.append(head)
                continue
            by_root: Dict[int, int] = {}
            for t, f in by_tree.items():
                r = root[t]
                by_root[r] = by_root.get(r, 0) | f
            cols: List[Iterable[int]] = [(head[0],)]
            free = opts.copy()
            for f, r in sorted(zip(by_root.values(), by_root)):
                col = free.pop(r, None)
                cols.append(map(f.__or__, col) if col else (f,))
            update(starmap(add, product(product(*cols), _sorted_choices(free.values()))))
        update(starmap(add, product(heads, _sorted_choices(opts.values()))))
        if size == cap_side:
            continue
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            j = low.bit_length() - 1
            att, trees, _ = types[j]
            col = label_cols[j]
            rs = {root[t] for t in trees}
            if len(rs) < len(trees):
                continue  # two of its trees are joined already
            nxt = opts.copy()
            for r in rs:
                other = nxt.pop(r, None)
                if other:
                    col = [o | b for o in other for b in col]
            anchor = min(rs)
            nxt[anchor] = col
            merged = [anchor if r in rs else r for r in root]
            hooked = lone | att if len(rs) == 1 else lone
            stack.append((allowed & ~clashes[j], size + 1, hooked, merged, nxt))


def completion_route(ctx: NodeContext, rows: int) -> bool:
    """Whether `reduce_table` keeps rows at this node by completion sets,
    given the number of merged rows: exactly when the far side has at most
    `len(ctx.far_cands)` subsets, or at most a quarter of `rows`."""
    far = ctx.cvx.bit_count()
    return far < len(ctx.far_cands).bit_length() or far + 2 < rows.bit_length()


def signature_route(ctx: NodeContext, survivors: int) -> bool:
    """Whether the first rows per boundary signature, `survivors` of them,
    are kept as they are: exactly when there is at most one, or they
    number at most `ctx.fam_x2.class_count` times the bit length of
    `len(ctx.far_cands)`.  Otherwise the key route reduces them further."""
    return survivors <= 1 or survivors <= ctx.fam_x2.class_count * len(ctx.far_cands).bit_length()


FarForest = Tuple[int, List[int], List[int]]  # Y, its components of Y \ S, its trees


def _far_forests(inst: Instance, far: int, s_nbs: Sequence[int]) -> List[FarForest]:
    """Every S-forest Y over the vertices of `far`, with its components of
    Y \\ S and its trees; `s_nbs` is `BlockStore.s_nbs`.

    Grown one far vertex at a time, since every subset of an S-forest is
    one.  Adding a vertex v to Y is a join (`_joined`) of Y's pieces with
    those of {v}, along the edges from v to Y; Y | v is kept exactly when
    the joined excess is 0."""
    adj, s = inst.graph.adj, inst.s_set
    forests: List[FarForest] = [(0, [], [])]
    for v in bits(far):
        bit, s_nb = 1 << v, s_nbs[v]
        leaf = ((), (bit,), 0) if s & bit else ((bit,), (bit,), 0)
        reach = {bit: adj[v]}.__getitem__  # {v} is its own one piece
        grown = []
        for y, comps, trees in forests:
            comps, trees, excess = _joined((comps, trees, 0), leaf, (s_nb & y).bit_count(), reach)
            if not excess:
                grown.append((y | bit, comps, trees))
        forests += grown
    return forests


def _completes(
    st: Structure,
    x: int,
    y: int,
    pieces: Tuple[Sequence[int], Sequence[int]],
    s_nbs: Sequence[int],
    reach: Callable[[int], int],
) -> bool:
    """Whether x | Y is an S-forest, for a set x of structure `st` and
    excess 0 and a disjoint S-forest Y with `pieces`, its components of
    Y \\ S and its trees: exactly when the join formula (`_joined`) gives
    x | Y excess 0.  x's stored pieces, its boundary parts at the node,
    suffice: Y meets x only in vertices with a neighbor beyond the node,
    which lie on the boundary.  `y` holds the vertices of Y whose edges to
    x are counted, through their `s_nbs` (`BlockStore.s_nbs`): all of Y, or
    only those with a neighbor in x, since no other vertex has an edge to
    x.  `reach` gives a piece's neighbors.  A Y that meets x nowhere is
    completed."""
    s_edges = 0
    for v in bits(y):
        s_edges += (s_nbs[v] & x).bit_count()
    return not _joined(st, (*pieces, 0), s_edges, reach)[2]


def _least(forests: List[FarForest]) -> List[FarForest]:
    """The members of `forests` that hold no member one vertex smaller.  For
    the open far S-forests these are the least ones (see
    `_keep_by_completions`)."""
    ys = {y for y, _, _ in forests}
    return [f for f in forests if not any(f[0] ^ 1 << v in ys for v in bits(f[0]))]


def _keep_by_completions(ctx: NodeContext, inst: Instance, rows: Iterable[int]) -> List[int]:
    """The rows, best first, that complete a far S-forest no earlier kept
    row completes; stops once every far S-forest is covered.  The rows have
    excess 0, and `ctx.blocks` holds their structures.

    A row completes every subset of a far set it completes, so the open far
    S-forests (those no kept row completes) are closed under supersets
    among the far S-forests.  A row thus completes an open one exactly when
    it completes a least one, with no open proper subset; and such a
    subset, if any, lies one vertex below.  Each row is tried on the least
    open ones, and only a kept row on them all.  Each pair is decided by
    `_completes`, which counts the edges of the far vertices that meet the
    row (`touch`), read once per row; a far set that meets none of them is
    completed."""
    of, node, reach = ctx.blocks.of, ctx.node, ctx.blocks._reach
    adj, bnd = inst.graph.adj, ctx.near_bnd
    s_nbs = ctx.blocks.s_nbs
    # per far vertex, its bit and its neighbors on the side, which lie on
    # the boundary
    far_nbs = [(1 << v, adj[v] & bnd) for v in bits(ctx.cvx)]
    open_ys = _far_forests(inst, ctx.cvx, s_nbs)
    least = open_ys[:1]  # the empty set
    keep = []
    for x in rows:
        if not open_ys:
            break
        st = of(node, x)
        touch = 0
        for bit, nb in far_nbs:
            if nb & x:
                touch |= bit

        def completes(f: FarForest) -> bool:
            y, comps, trees = f
            met = y & touch
            return not met or _completes(st, x, met, (comps, trees), s_nbs, reach)

        if any(map(completes, least)):
            keep.append(x)
            open_ys = list(filterfalse(completes, open_ys))
            least = _least(open_ys)
    return keep


def _first_per_signature(ctx: NodeContext, rows: Iterable[int]) -> Iterator[int]:
    """The rows of excess 0, best first, whose stored structure no earlier
    such row had; rows of nonzero excess are skipped.  Lazy, so a caller
    that stops early builds no more structures.

    At excess 0 the structure is the boundary signature: its trees are the
    boundary parts of x's trees, so their OR is x & near_bnd."""
    of, node = ctx.blocks.of, ctx.node
    seen: Set[Structure] = set()
    for mask in rows:
        st = of(node, mask)
        if not st.excess and st not in seen:
            seen.add(st)
            yield mask


def _keep_by_keys(ctx: NodeContext, inst: Instance, rows: Sequence[int]) -> List[int]:
    """The rows, best first, that add a bucket key no earlier row had, so
    each bucket's winner is the first row that has its key.

    A bucket key is the class of the unmatched rest followed by the label
    masks of the signature's groups, in an order fixed by the set of groups
    (see `_bucket_keys`).  A row meets a completion only through the
    boundary, so its keys are a function of its boundary signature, its
    stored structure.  Every input of the profile and of the keys
    reads only that much.  Far-side hits lie in x & near_bnd, since a
    vertex with a far neighbor is on the boundary.  Representatives come
    from a block's boundary part, the unmatched rest from x & near_bnd, and
    a block lies in a tree exactly when their boundary parts meet.  The
    labels a repeat would name are already numbered, so a row whose
    signature an earlier (heavier or lexicographically smaller) one had
    adds no key to the seen set.  `reduce_table` therefore passes only the
    first row per signature.  Of those, a row whose profile without its
    blocks, `prof[1:]`, an earlier row had has that row's keys (see the
    module docstring) and is dropped without the search.  The kept rows
    are those the full keep rule keeps.
    """
    of, node, s = ctx.blocks.of, ctx.node, inst.s_set
    labels: Dict[int, int] = {}
    groups = _far_groups(ctx, labels)
    seen: Set[BucketKey] = set()
    searched: Set[tuple] = set()
    keep: List[int] = []
    for mask in rows:
        prof = _profile(ctx, mask, mask & s, of(node, mask), labels, groups)
        fingerprint = prof[1:]
        if fingerprint in searched:
            continue
        searched.add(fingerprint)
        before = len(seen)
        _bucket_keys(ctx, mask, prof, seen)
        if len(seen) > before:
            keep.append(mask)
    return keep


def reduce_table(table: Table, ctx: NodeContext, inst: Instance) -> Table:
    """A subset of the merged table that represents it: for every far-side
    set, some kept row completes it to an S-forest with the best weight any
    merged row reaches; ties fall to the lexicographically smallest vertex
    set.  The result lists its rows best first, by (-weight, lex_order).

    Rows go best first, by (-weight, lex_order), through one pass: a row
    whose excess is not 0 can never be extended and is skipped, and of the
    rest the first row per boundary signature survives.  When
    `completion_route` holds, the completion route refines the survivors.
    Otherwise they are the table when `signature_route` holds, and the key
    route refines them when it does not.  Either refinement keeps what it
    would keep from all the rows of excess 0 (see the module docstring)."""
    # Stable sorts: by weight, heaviest first, keeping lex_order among ties.
    order = sorted(table, key=lex_order)
    order.sort(key=table.__getitem__, reverse=True)
    rows = _first_per_signature(ctx, order)
    if completion_route(ctx, len(table)):
        rows = _keep_by_completions(ctx, inst, rows)
    else:
        rows = list(rows)
        if not signature_route(ctx, len(rows)):
            rows = _keep_by_keys(ctx, inst, rows)
    return {m: table[m] for m in rows}


def forced_set(inst: Instance) -> int:
    """The forced set H: the longest proper prefix of the vertices, heaviest
    first, such that each vertex of H outweighs all positive weight outside
    H and G[H] is an S-forest; 0 when no nonempty prefix qualifies.

    Every maximum-weight S-forest holds H.  Let Z be an S-forest that
    misses some h in H.  Z weighs at most w(Z & H) plus the positive weight
    outside H, which is less than w(Z & H) + w(h) <= w(H), since every
    vertex of H has positive weight.  H is itself an S-forest, so Z is not
    a maximum.  A vertex of weight at most 0 is never forced.  The prefix
    that is all of V is not tried: it has no outside weight, so every
    positive weighting (unit weights included) would pass the first test,
    and the second would read the whole graph.  Equal weights are never
    split, since a vertex cannot outweigh a positive one of equal weight.
    """
    w, n = inst.weights, inst.n
    order = sorted(range(n), key=lambda v: -w[v])
    outside = [0] * (n + 1)  # outside[k]: positive weight of order[k:]
    for k in range(n - 1, -1, -1):
        outside[k] = outside[k + 1] + max(w[order[k]], 0)
    for k in range(n - 1, 0, -1):
        if w[order[k - 1]] > outside[k]:
            h = mask_of(order[:k])
            if is_s_forest(inst.graph, h, inst.s_set):
                return h
    return 0


def _holding(inst: Instance, blocks: BlockStore, node: int, far: int, table: Table) -> Table:
    """The rows x of `table` with x | far an S-forest, for `far` the forced
    vertices beyond `node`: the rows that can still be part of a maximum.

    `far` is a subset of the forced set, so an S-forest of excess 0, and
    `_completes` decides each row from x's stored structure and far's
    pieces.  Only the side's vertices with a neighbor in `far` (`touch`) can
    add an edge with an end in S or glue two pieces, so a row that avoids
    them keeps its own excess; only the far vertices with a neighbor on the
    side (`met`) have edges to count."""
    g, s = inst.graph, inst.s_set
    side, reach = blocks.layout.below[node], blocks._reach
    pieces = (components_masks(g, far & ~s), components_masks(g, far))
    touch = reach(far) & side
    met = far & blocks.neighbors[node]
    kept: Table = {}
    for x, wx in table.items():
        st = blocks.of(node, x)
        if st.excess:
            continue
        if x & touch and not _completes(st, x, met, pieces, blocks.s_nbs, reach):
            continue
        kept[x] = wx
    return kept


@dataclass(frozen=True)
class SolveResult:
    weight: int
    sforest: int
    deletion: int


TraceFn = Callable[[int, NodeContext, Table, Table], None]


def solve(
    inst: Instance,
    layout: RootedLayout,
    trace: Optional[TraceFn] = None,
) -> SolveResult:
    """Maximum-weight induced S-forest and its complement deletion set.

    Every maximum holds the forced set H (`forced_set`), so a forced
    leaf's table is the row of its vertex alone, and every merged table
    keeps only the rows x with x | (H beyond the node) an S-forest
    (`_holding`) before `reduce_table` and `trace` see it.  That loses no
    maximum.  Say a maximum Z has its part below each of a node's
    children in the child's table.  Its part x below the node is then a
    merged row, and x | (H beyond the node) lies in Z, which holds H, so
    x is kept.  The reduced table holds a row x' at least as heavy with
    x' | (Z beyond the node) an S-forest, another maximum, which agrees
    with Z off the node's side.  So, node by node bottom-up, some maximum
    has its part below the root in the root table.  With H empty, as
    under unit weights, nothing is dropped."""
    g, s = inst.graph, inst.s_set
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")

    forced = forced_set(inst)
    families = layout_families(g, layout)
    blocks = BlockStore(inst, layout)
    tables: Dict[int, Table] = {}
    for x in layout.postorder():
        if layout.is_leaf(x):
            v = layout.leaf_vertex[x]
            row = {1 << v: inst.weights[v]}
            tables[x] = row if forced >> v & 1 else {0: 0, **row}
            continue
        ctx = build_context(inst, layout, x, families, blocks)
        merged = merge_tables(tables.pop(layout.left[x]), tables.pop(layout.right[x]))
        far = forced & ~layout.below[x]
        if far:
            merged = _holding(inst, blocks, x, far, merged)
        reduced = reduce_table(merged, ctx, inst)
        if trace is not None:
            trace(x, ctx, merged, reduced)
        tables[x] = reduced
        blocks.keep(x, reduced)

    # Every root row has excess 0, so each is an S-forest; the winner is
    # checked from scratch all the same.
    sols = tables[layout.root]
    mask = min(sols, key=lambda m: (-sols[m], lex_order(m)))
    if not is_s_forest(g, mask, s):
        raise CheckError("the best root row is not an S-forest")
    return SolveResult(sols[mask], mask, g.vertices & ~mask)
