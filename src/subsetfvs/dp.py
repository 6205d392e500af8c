"""Bottom-up dynamic programming for maximum-weight S-forests over a layout.

Each layout node keeps a table of partial solutions (vertex subsets of the
side below the node).  After merging child tables, `reduce_table` keeps a
subset that represents the merged table: for every set Y on the far side
of the cut, some kept row completes Y to an S-forest with the best weight
any merged row reaches.  Rows are visited best first, by (-weight,
lexicographic order), and kept by one of two routes.

The completion route decides representativity directly.  It lists F, the
far sets Y with G[Y] an S-forest, and keeps a row exactly when it
completes some Y in F that no earlier kept row completes; once every Y in
F is covered, the remaining rows are dropped unseen.  It is exact: for each
Y in F the first row in best-first order that completes Y is a heaviest
such row, and the lexicographically smallest among those, so it is kept.
S-forests are closed under taking subsets, so a far set outside F is
completed by no row, before or after the reduction.  The kept rows thus
represent the merged table, and there are at most |F| of them.

The key route keeps one maximum-weight member per bucket, with the same
ties.  Two solutions share a bucket when they admit the same index (a
bounded description of how a solution and a hypothetical completion on the
other side can interact through the cut) with the same connection
signature.  One winner per bucket preserves the best completion for every
subset of the other side.

A node takes the completion route exactly when 2^|far side| is at most the
number of far-side candidates an index can name (`completion_route`): the
completion route's work per row grows with the far subsets, the key
route's with those candidates.  So it runs near the root of a layout,
where the far side has a handful of vertices.

The full index family is astronomically large, so the key route enumerates,
per solution, only the indices that can actually arise from a vertex cover
of a crossing forest.  The far side of such an index is organised by
attachment type.  A far-side candidate's attachment is the set of solution
blocks it sees, and every chosen candidate must see one.  Candidates with
one attachment set exclude each other, so a far-side choice is a set of
attachment types plus one candidate label per type.  A type attached to a
single block can only stem from an isolated crossing edge, so that block
stays unmatched and no other type may hook it.  A type that hooks two
blocks of one tree, or two trees already joined, would close a cycle.  Each
side of the cover holds at most twice the cut's induced matching value.
Indices outside this family never decide a completion, so the trimmed table
represents the merged one.  The literal route lives with the test
oracles: `oracles.enumerate_indices` streams the full index family,
`oracles.is_partial_solution` and `oracles.cc_signature` are the definitions
the keys are checked against, and `oracles.bucket_keys_by_candidate` grows
the same keys one candidate at a time.

Buckets are plain tuples of ints.  Every candidate set an index can name
(a matched component or S-vertex on the near side, a far-side set or
singleton) is a label, and each label met during one `reduce_table` call
gets one bit.  A signature group is the OR of its label bits, and a bucket
key is the class of the unmatched rest followed by the group masks in an
order fixed by the set of groups.  On the key route a solution stays
exactly when one of its keys is not yet seen.  That is the minimum entry
of each bucket, without holding the buckets.

The work per node and per row follows the cut's boundary (the side's
vertices with a neighbor across the cut), not the number of vertices.
Only boundary vertices decide a class, so representatives are looked up
from the boundary part of a set.  The far-side candidates and their reach
into the side are read from the class keys of the far families, which
already hold them.  A row's block structure (its components, its trees,
and its excess, the number of edges its S-contraction has beyond a
forest) is carried from the child rows through `BlockStore`, which joins
two rows along the edges between them and keeps only the pieces on the
boundary.  For the same reason a row's keys are a function of its
boundary signature (its boundary part and the boundary parts of its
components and trees), so the key route rejects a row whose signature an
earlier row had before it profiles the row or enumerates its keys.  A row
can still become an S-forest exactly when its excess is 0, so
`reduce_table` drops the others first and every root row is an S-forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, starmap
from operator import add
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .graphs import CheckError, Graph, Instance, bits, is_s_forest, lex_order
# compute_reps and mim_cut are unused here but stay names of this module: the
# tracer in perfbench/tracing.py wraps dp.compute_reps, dp.build_context and
# dp.mim_cut.
from .layouts import RootedLayout, boundaries, mim_bipartite, mim_cut  # noqa: F401
from .nec import NecFamily, compute_reps, layout_families  # noqa: F401

# Candidate labels: a representative set shifted left by two, with its kind
# (matched component, matched S-vertex, far-side set, far-side singleton) in
# the low bits.
_XN, _XS, _YN, _YS = range(4)


class Structure(NamedTuple):
    """Block structure of a vertex set x below a layout node, as far as a
    merge further up can still change it.

    The pieces listed are those with a vertex on the node's boundary (a
    vertex with a neighbor outside the node): no later edge reaches the
    others.  `excess` is over all of x.  It counts the edges of x's
    S-contraction (a node per component of x \\ S and per S-vertex, an
    edge per edge of x with an end in S) beyond a forest: edges minus nodes
    plus components.  x can still be extended to an S-forest exactly when
    it is 0, and it never falls as x grows."""

    comps: Tuple[int, ...]  # components of x \\ S on the boundary
    trees: Tuple[int, ...]  # components of x on the boundary
    excess: int


class BlockStore:
    """Block structures of vertex sets below the nodes of one layout.

    A leaf's set is one vertex or none.  An internal node's set is joined
    from its parts below the two children.  Each part's components are
    maximal on its own side, so only an edge from the right part to the
    left one joins two of them.  The joined `excess` is the parts' sum,
    plus one per such edge with an end in S (a new contraction edge), plus
    one per listed component of x \\ S that the join merges into another
    (one contraction node fewer), minus one per listed tree it merges into
    another (one component fewer).  The structure of a set is kept by set
    alone: asked at an ancestor of the node it was built at, it may list
    pieces that have left the boundary since, and readers filter by their
    own boundary.  `solve` asks for the rows of each merged table, whose
    parts are rows of the child tables and already known, and then forgets
    the rows no live table holds.  A set with unknown parts is built the
    same way, from the leaves up.
    """

    def __init__(self, inst: Instance, layout: RootedLayout):
        adj = inst.graph.adj
        self.adj = adj
        self.s = inst.s_set
        self.layout = layout
        self.boundary = boundaries(inst.graph, layout)
        # crossing[y]: the vertices below y's right child with a neighbor
        # below its left child.
        self.crossing: List[int] = []
        for y in layout.postorder():
            crossing = 0
            if not layout.is_leaf(y):
                for u in bits(self.boundary[layout.right[y]]):
                    if adj[u] & layout.below[layout.left[y]]:
                        crossing |= 1 << u
            self.crossing.append(crossing)
        self.known: Dict[int, Structure] = {0: Structure((), (), 0)}
        self._reach: Dict[int, int] = {}  # neighbors of a set of right-side vertices

    def of(self, node: int, x: int) -> Structure:
        """Block structure of a vertex set x below `node`."""
        got = self.known.get(x)
        if got is not None:
            return got
        lay, known = self.layout, self.known
        # Preorder down to the nodes whose part of x is known, then join
        # those parts children first.
        walk = []
        todo = [node]
        while todo:
            y = todo.pop()
            if x & lay.below[y] not in known:
                walk.append(y)
                if not lay.is_leaf(y):
                    todo += (lay.left[y], lay.right[y])
        for y in reversed(walk):
            part = x & lay.below[y]
            if part in known:
                continue
            if lay.is_leaf(y):
                listed = (part,) if part & self.boundary[y] else ()
                known[part] = Structure(() if part & self.s else listed, listed, 0)
            else:
                known[part] = self._join(y, part)
        return known[x]

    def _join(self, node: int, x: int) -> Structure:
        adj, s, crossing = self.adj, self.s, self.crossing[node]
        left = x & self.layout.below[self.layout.left[node]]
        a, b = self.known[left], self.known[x ^ left]
        comps = self._glue(a.comps, b.comps, crossing)
        trees = self._glue(a.trees, b.trees, crossing)
        excess = a.excess + b.excess + len(a.comps) + len(b.comps) - len(comps)
        excess -= len(a.trees) + len(b.trees) - len(trees)
        for u in bits(x & crossing):
            seen = adj[u] & left
            excess += (seen if s >> u & 1 else seen & s).bit_count()
        bnd = self.boundary[node]
        return Structure(
            tuple(c for c in comps if c & bnd),
            tuple(t for t in trees if t & bnd),
            excess,
        )

    def _glue(self, out: Sequence[int], pieces: Sequence[int], crossing: int) -> List[int]:
        """Left pieces `out` joined with right pieces `pieces`; only the
        vertices of `crossing` reach the left side."""
        out = list(out)
        for piece in pieces:
            hook = piece & crossing
            reach = self._reach.get(hook)
            if reach is None:
                reach = 0
                for v in bits(hook):
                    reach |= self.adj[v]
                self._reach[hook] = reach
            grown = piece
            rest = []
            for comp in out:
                if comp & reach:
                    grown |= comp
                else:
                    rest.append(comp)
            rest.append(grown)
            out = rest
        return out

    def forget(self, masks: Iterable[int]) -> None:
        """Drop the structures of these sets, and the neighbor cache."""
        known = self.known
        for m in masks:
            if m:
                known.pop(m, None)
        self._reach.clear()


@dataclass
class NodeContext:
    """Per-node cut data: equivalence families on both sides, the far-side
    candidates an index can name, and the store of row structures.

    `near_bnd` holds the side's vertices with a neighbor across the cut.
    Only they decide a class of either near family, so a set and its part
    in `near_bnd` have one representative.

    `far_cands` holds (label, ext, e_bad) for every far-side candidate a
    cover can name: the nonempty representatives of `fam_y2`, then the
    single-vertex representatives of `fam_y1`.  `ext` is the set of the
    side's vertices with a neighbor in the candidate and `e_bad` those with
    two or more.  Both are read from the far families' class keys, which
    are seen from the node side: a d=2 key is `ext | e_bad << n`, and a d=1
    key is `ext`.  A singleton has no `e_bad`."""

    node: int
    vx: int
    cvx: int
    mim: int
    fam_x1: NecFamily
    fam_x2: NecFamily
    fam_y1: NecFamily
    fam_y2: NecFamily
    near_bnd: int
    blocks: BlockStore
    far_cands: Tuple[Tuple[int, int, int], ...]


def build_context(
    inst: Instance,
    layout: RootedLayout,
    node: int,
    families: Optional[Sequence[Sequence[NecFamily]]] = None,
    blocks: Optional[BlockStore] = None,
) -> NodeContext:
    """Cut data of one layout node.  `families` is `layout_families` of the
    layout and `blocks` the store of row structures, which `solve` builds
    once and shares; without them this call builds its own."""
    g = inst.graph
    if families is None:
        families = layout_families(g, layout)
    if blocks is None:
        blocks = BlockStore(inst, layout)
    near1, near2, far1, far2 = families
    vx = layout.below[node]
    cvx = g.vertices & ~vx
    fam_y1, fam_y2 = far1[node], far2[node]
    # The lookups list the keys in the order of the representatives.
    sets, singles = fam_y2.representatives, fam_y1.representatives
    low = (1 << g.n) - 1
    far_cands = [
        (sets[i] << 2 | _YN, key & low, key >> g.n) for key, i in fam_y2.lookup.items() if key
    ]
    far_cands += [
        (singles[i] << 2 | _YS, key, 0)
        for key, i in fam_y1.lookup.items()
        if singles[i].bit_count() == 1
    ]
    return NodeContext(
        node,
        vx,
        cvx,
        mim_bipartite(g, blocks.boundary[node], cvx),
        near1[node],
        near2[node],
        fam_y1,
        fam_y2,
        blocks.boundary[node],
        blocks,
        tuple(far_cands),
    )


@dataclass
class SolutionTable:
    """Partial solutions of one layout node: vertex mask -> weight."""

    node: int
    solutions: Dict[int, int]

    def __len__(self) -> int:
        return len(self.solutions)


def merge_tables(a: SolutionTable, b: SolutionTable, node: int = -1) -> SolutionTable:
    """All unions of one solution per child; weights add."""
    ua = 0
    for m in a.solutions:
        ua |= m
    ub = 0
    for m in b.solutions:
        ub |= m
    if ua & ub:
        raise ValueError("child tables overlap")
    if not a.solutions or not b.solutions:
        return SolutionTable(node, {})
    merged: Dict[int, int] = {}
    for ma, wa in a.solutions.items():
        for mb, wb in b.solutions.items():
            merged[ma | mb] = wa + wb
    return SolutionTable(node, merged)


def _label_bit(labels: Dict[int, int], label: int) -> int:
    bit = labels.get(label)
    if bit is None:
        bit = labels[label] = 1 << len(labels)
    return bit


class _Profile(NamedTuple):
    # the blocks of a solution with a vertex on the boundary: components of
    # x \\ S, then S-vertices; tree_of numbers their trees
    blocks: Tuple[int, ...]
    tree_of: Tuple[int, ...]
    x_cands: Tuple[Tuple[int, int], ...]  # label bit, block index
    # attachment types: attached blocks (bitmask), the trees of those
    # blocks, the label bits of the far-side candidates with that attachment
    types: Tuple[Tuple[int, Tuple[int, ...], List[int]], ...]


def _profile(
    ctx: NodeContext, x: int, xs_mask: int, st: Structure, labels: Dict[int, int]
) -> _Profile:
    """Profile of an extendable solution x with S-part `xs_mask` and
    structure `st`.

    Only the blocks on the boundary enter the profile: no index can match
    or hook the others.  Candidate labels get their bits from `labels`.
    The surviving far-side candidates of `ctx.far_cands` are grouped by the
    set they hit in x, so their attachment (the blocks they see) and its
    trees are worked out once per distinct hit, and candidates with one
    attachment set form one attachment type.  A type that hooks one tree
    twice would close a cycle and is dropped.
    """
    bnd = ctx.near_bnd
    comps = [c for c in st.comps if c & bnd]
    singles = list(bits(xs_mask & bnd))
    nc = len(comps)
    blocks = comps + [1 << v for v in singles]
    tree_of = [0] * len(blocks)
    t = 0
    for tree in st.trees:
        if tree & bnd:
            for bj, block in enumerate(blocks):
                if block & tree:
                    tree_of[bj] = t
            t += 1

    fam1, fam2 = ctx.fam_x1, ctx.fam_x2
    comp_reps = [fam2.rep_of(c & bnd) for c in comps]
    single_reps = [fam1.rep_of(1 << v) for v in singles]
    x_cands: List[Tuple[int, int]] = []
    for bi, rep in enumerate(comp_reps):
        if comp_reps.count(rep) == 1:
            x_cands.append((_label_bit(labels, rep << 2 | _XN), bi))
    for si, rep in enumerate(single_reps):
        if single_reps.count(rep) == 1:
            x_cands.append((_label_bit(labels, rep << 2 | _XS), nc + si))

    # hit << 1 | singleton flag -> labels.  A far set is out when a matched
    # S-vertex sees it twice; a far singleton when it sees a component
    # twice, which depends on its hit alone.
    by_hit: Dict[int, List[int]] = {}
    for label, ext, bad in ctx.far_cands:
        hit = ext & x
        if hit and not bad & xs_mask:
            key = hit << 1 | (label & 3 == _YS)
            bucket = by_hit.get(key)
            if bucket is None:
                by_hit[key] = [label]
            else:
                bucket.append(label)

    by_att: Dict[int, Tuple[Tuple[int, ...], List[int]]] = {}
    for key, hooks in by_hit.items():
        hit = key >> 1
        if key & 1 and any((hit & c).bit_count() > 1 for c in comps):
            continue
        att = 0
        trees = set()
        for bj, block in enumerate(blocks):
            if hit & block:
                att |= 1 << bj
                trees.add(tree_of[bj])
        if len(trees) < att.bit_count():
            continue  # two hooks into one tree close a cycle
        label_bits = [_label_bit(labels, label) for label in hooks]
        known = by_att.get(att)
        if known is None:
            by_att[att] = (tuple(trees), label_bits)
        else:
            known[1].extend(label_bits)

    types = tuple((att, trees, label_bits) for att, (trees, label_bits) in by_att.items())
    return _Profile(tuple(blocks), tuple(tree_of), tuple(x_cands), types)


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
    search runs over type sets, one state per set: `allowed` holds the types
    that may still join, as a bitmask, and choosing one strikes the types it
    clashes with (a lone hook on a block excludes every other type hooking
    that block).  A state keeps `root[t]`, the root of tree t in a flat
    union-find of the solution's trees, and `opts[r]`, one label mask per
    label choice of the types joined to root r.  A type that hooks two trees
    already joined would close a cycle.  Roots only merge deeper, so such a
    type is struck from `allowed` in the state where that check fails, and
    no deeper state checks it again.

    The matched near-side subsets (p) do not depend on q and are built once.
    Each state expands its label choices with `itertools.product`, one
    column per group, instead of one step per choice.  A key is x_rest, then
    the groups holding matched labels sorted by those labels, then the other
    groups sorted.  That order is a function of the set of groups, so the
    keys are in bijection with (x_rest, *sorted group masks).  Each side
    holds at most 2 * mim sets, so the two never exceed the joint bound of
    4 * mim.
    """
    cap_side = 2 * ctx.mim
    fam1 = ctx.fam_x1
    x_bnd = x & ctx.near_bnd  # the part of x its classes depend on
    blocks, tree_of, x_cands, types = prof

    # The p-subsets: the blocks each one matches, its trees (bitmask), its
    # label mask per tree, and its key while none of its trees has a type:
    # x_rest, then those masks in sorted order.
    p_used: List[int] = []
    p_tmask: List[int] = []
    p_trees: List[Dict[int, int]] = []
    p_heads: List[BucketKey] = []
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
            p_used.append(used)
            p_tmask.append(tmask)
            p_trees.append(by_tree)
            p_heads.append((fam1.rep_of(x_bnd & ~vc_mask), *sorted(by_tree.values())))
    # A block hooked by a lone type stays unmatched, so each set of
    # lone-hooked blocks keeps the p-subsets that avoid it.
    p_pools: Dict[int, List[int]] = {}

    nb = len(blocks)
    hooks_on = [0] * nb
    lone_on = [0] * nb
    multi = 0
    for j, (att, trees, _) in enumerate(types):
        for b in bits(att):
            hooks_on[b] |= 1 << j
        if len(trees) == 1:
            lone_on[att.bit_length() - 1] |= 1 << j
        else:
            multi |= 1 << j
    clashes: List[int] = []
    for att, trees, _ in types:
        clash = 0
        if len(trees) == 1:
            clash = hooks_on[att.bit_length() - 1]
        else:
            for b in bits(att):
                clash |= lone_on[b]
        clashes.append(clash)

    update = keys.update

    def emit(lone: int, root: List[int], opts: Dict[int, List[int]]) -> None:
        pool = p_pools.get(lone)
        if pool is None:
            pool = p_pools[lone] = [i for i, used in enumerate(p_used) if not used & lone]
        # Trees under a root with types.  A p-subset that avoids them keeps
        # its head, since only a type can join two trees.
        typed = 0
        for t, r in enumerate(root):
            if r in opts:
                typed |= 1 << t
        heads = []
        for i in pool:
            if not p_tmask[i] & typed:
                heads.append(p_heads[i])
                continue
            by_root: Dict[int, int] = {}
            for t, f in p_trees[i].items():
                r = root[t]
                by_root[r] = by_root.get(r, 0) | f
            cols: List[Iterable[int]] = [(p_heads[i][0],)]
            free = opts.copy()
            for f, r in sorted(zip(by_root.values(), by_root)):
                col = free.pop(r, None)
                cols.append(map(f.__or__, col) if col else (f,))
            update(starmap(add, product(product(*cols), _sorted_choices(free.values()))))
        update(starmap(add, product(heads, _sorted_choices(opts.values()))))

    # Depth first over the type sets, with an explicit stack.  A recursive
    # closure is a reference cycle: everything it reaches, `keys` included,
    # would outlive the call until the cycle collector runs.
    stack = [((1 << len(types)) - 1, 0, 0, list(range(nb)), {})]
    while stack:
        allowed, size, lone, root, opts = stack.pop()
        emit(lone, root, opts)
        if size == cap_side:
            continue
        for j in bits(allowed & multi):
            trees = types[j][1]
            if len({root[t] for t in trees}) < len(trees):
                allowed &= ~(1 << j)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            j = low.bit_length() - 1
            att, trees, label_bits = types[j]
            nxt = opts.copy()
            if len(trees) == 1:
                r = root[trees[0]]
                col = opts.get(r)
                nxt[r] = [o | b for o in col for b in label_bits] if col else label_bits
                stack.append((allowed & ~clashes[j], size + 1, lone | att, root, nxt))
                continue
            rs = {root[t] for t in trees}
            anchor = min(rs)
            col = label_bits
            for r in rs:
                other = nxt.pop(r, None)
                if other:
                    col = [o | b for o in other for b in col]
            nxt[anchor] = col
            stack.append((allowed & ~clashes[j], size + 1, lone, [anchor if r in rs else r for r in root], nxt))


def completion_route(ctx: NodeContext) -> bool:
    """Whether `reduce_table` keeps rows at this node by completion sets:
    exactly when the far side has at most `len(ctx.far_cands)` subsets."""
    return ctx.cvx.bit_count() < len(ctx.far_cands).bit_length()


def _keep_by_completions(ctx: NodeContext, inst: Instance, rows: Sequence[int]) -> List[int]:
    """The rows, best first, that complete a far S-forest no earlier kept
    row completes; stops once every far S-forest is covered."""
    g, s = inst.graph, inst.s_set
    # Grown one far vertex at a time: every subset of an S-forest is one.
    open_ys = [0]
    for v in bits(ctx.cvx):
        open_ys += [y | 1 << v for y in open_ys if is_s_forest(g, y | 1 << v, s)]
    keep = []
    for x in rows:
        if not open_ys:
            break
        rest = [y for y in open_ys if not is_s_forest(g, x | y, s)]
        if len(rest) < len(open_ys):
            keep.append(x)
            open_ys = rest
    return keep


_EMPTY_PART = frozenset([0])  # the boundary part of a piece off the boundary


def _keep_by_keys(ctx: NodeContext, inst: Instance, rows: Sequence[int]) -> List[int]:
    """The rows, best first, that add a bucket key no earlier row had, so
    each bucket's winner is the first row that has its key.

    A bucket key is the class of the unmatched rest followed by the label
    masks of the signature's groups, in an order fixed by the set of groups
    (see `_bucket_keys`).  A row meets a completion only through the
    boundary, so its keys are a function of its boundary signature: x &
    near_bnd, and the boundary parts of its boundary components and trees,
    as sets.  Every input of the profile and of the keys reads only that
    much.  Far-side hits lie in x & near_bnd, since a vertex with a far
    neighbor is on the boundary.  Representatives come from a block's
    boundary part, the unmatched rest from x & near_bnd, and a block lies
    in a tree exactly when their boundary parts meet.  The labels a repeat
    would name are already numbered, so a row whose signature an earlier
    (heavier or lexicographically smaller) one had adds no key to the seen
    set.  It is rejected before it is profiled and its keys are enumerated.
    """
    of, node, s, bnd = ctx.blocks.of, ctx.node, inst.s_set, ctx.near_bnd
    labels: Dict[int, int] = {}
    seen: Set[BucketKey] = set()
    sigs: Set[Tuple[int, FrozenSet[int], FrozenSet[int]]] = set()
    keep: List[int] = []
    for mask in rows:
        st = of(node, mask)
        sig = (
            mask & bnd,
            frozenset([c & bnd for c in st.comps]) - _EMPTY_PART,
            frozenset([t & bnd for t in st.trees]) - _EMPTY_PART,
        )
        if sig in sigs:
            continue
        sigs.add(sig)
        before = len(seen)
        _bucket_keys(ctx, mask, _profile(ctx, mask, mask & s, st, labels), seen)
        if len(seen) > before:
            keep.append(mask)
    return keep


def reduce_table(table: SolutionTable, ctx: NodeContext, inst: Instance) -> SolutionTable:
    """A subset of the merged table that represents it: for every far-side
    set, some kept row completes it to an S-forest with the best weight any
    merged row reaches; ties fall to the lexicographically smallest vertex
    set.  Rows go best first, by (-weight, lex_order).  A row whose excess
    is not 0 can never be extended and is dropped first.  The rest take the
    completion route when `completion_route` holds, else the key route (see
    the module docstring)."""
    sols = table.solutions
    of, node = ctx.blocks.of, ctx.node
    rows = [m for m in sorted(sols, key=lambda m: (-sols[m], lex_order(m))) if not of(node, m).excess]
    keep = (_keep_by_completions if completion_route(ctx) else _keep_by_keys)(ctx, inst, rows)
    return SolutionTable(table.node, {m: sols[m] for m in sorted(keep, key=lex_order)})


@dataclass(frozen=True)
class SolveResult:
    weight: int
    sforest: int
    deletion: int


TraceFn = Callable[[int, NodeContext, SolutionTable, SolutionTable], None]


def solve(
    inst: Instance,
    layout: RootedLayout,
    trace: Optional[TraceFn] = None,
) -> SolveResult:
    """Maximum-weight induced S-forest and its complement deletion set."""
    g, s = inst.graph, inst.s_set
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")

    families = layout_families(g, layout)
    blocks = BlockStore(inst, layout)
    tables: Dict[int, SolutionTable] = {}
    for x in layout.postorder():
        if layout.is_leaf(x):
            v = layout.leaf_vertex[x]
            tables[x] = SolutionTable(x, {0: 0, 1 << v: inst.weights[v]})
            continue
        ctx = build_context(inst, layout, x, families, blocks)
        children = tables.pop(layout.left[x]), tables.pop(layout.right[x])
        merged = merge_tables(*children, x)
        reduced = reduce_table(merged, ctx, inst)
        if trace is not None:
            trace(x, ctx, merged, reduced)
        tables[x] = reduced
        # Keep the structures of live rows only.
        kept = reduced.solutions
        blocks.forget(m for t in (merged, *children) for m in t.solutions if m not in kept)

    # Every root row has excess 0, so each is an S-forest; the winner is
    # checked from scratch all the same.
    sols = tables[layout.root].solutions
    mask = min(sols, key=lambda m: (-sols[m], lex_order(m)))
    if not is_s_forest(g, mask, s):
        raise CheckError("the best root row is not an S-forest")
    return SolveResult(sols[mask], mask, g.vertices & ~mask)
