"""Bottom-up dynamic programming for maximum-weight S-forests over a layout.

Each layout node keeps a table of partial solutions (vertex subsets of the
side below the node).  After merging child tables, `reduce_table` keeps one
maximum-weight member per behavior class: two solutions behave alike when
they admit the same index (a bounded description of how a solution and a
hypothetical completion on the other side can interact through the cut) with
the same connection signature.  Keeping one winner per class preserves the
best completion for every subset of the other side.

The full index family is astronomically large, so `reduce_table` enumerates,
per solution, only the indices that can actually arise from a vertex cover
of a crossing forest: every chosen far-side block must see at least one
block of the solution, chosen far-side blocks have pairwise distinct
attachment sets, a far-side block attached to a single solution block can
only stem from an isolated crossing edge (so that block stays unmatched),
and each side of the cover holds at most twice the cut's induced matching
value.  Indices outside this family never decide a completion, so the
trimmed table represents the merged one; the exhaustive index stream is
still available through `enumerate_indices` for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .graphs import (
    BlockGraph,
    BlockPartition,
    Graph,
    Instance,
    bits,
    components_masks,
    connected_components,
    contract_partial,
    contracted,
    is_forest,
    is_s_forest,
    lex_key,
)
from .layouts import RootedLayout, mim_cut
# compute_reps is unused here but stays a name of this module: the tracer in
# perfbench/tracing.py wraps dp.compute_reps, dp.build_context and dp.mim_cut.
from .nec import NecFamily, compute_reps, layout_families  # noqa: F401

NEG_INF = float("-inf")


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


@dataclass
class NodeContext:
    """Per-node cut data: equivalence families on both sides and the pools
    the index components are drawn from."""

    node: int
    vx: int
    cvx: int
    mim: int
    fam_x1: NecFamily
    fam_x2: NecFamily
    fam_y1: NecFamily
    fam_y2: NecFamily
    xs_pool: Tuple[int, ...]
    ys_pool: Tuple[int, ...]
    _ext_cache: Dict[int, int] = field(default_factory=dict, repr=False)
    _ebad_cache: Dict[int, int] = field(default_factory=dict, repr=False)

    def ext_of(self, u_set: int) -> int:
        """Neighborhood of a far-side set inside the node side."""
        ext = self._ext_cache.get(u_set)
        if ext is None:
            g = self.fam_x1.graph
            ext = 0
            for u in bits(u_set):
                ext |= g.adj[u]
            ext &= self.vx
            self._ext_cache[u_set] = ext
        return ext

    def e_bad(self, u_set: int) -> int:
        """Vertices of the node side with two or more neighbors in u_set."""
        bad = self._ebad_cache.get(u_set)
        if bad is None:
            g = self.fam_x1.graph
            bad = 0
            for v in bits(self.ext_of(u_set)):
                if (g.adj[v] & u_set).bit_count() > 1:
                    bad |= 1 << v
            self._ebad_cache[u_set] = bad
        return bad

    def index_count(self) -> int:
        """Closed-form size of the full index stream."""
        budget = 4 * self.mim
        pools = (
            len(self.fam_x2.representatives),
            len(self.xs_pool),
            len(self.fam_y2.representatives),
            len(self.ys_pool),
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
        return total * len(self.fam_x1.representatives)


# Per-node families for one layout: near d=1, near d=2, far d=1, far d=2,
# each indexed by node id.
Families = Tuple[Sequence[NecFamily], Sequence[NecFamily], Sequence[NecFamily], Sequence[NecFamily]]


def node_families(g: Graph, layout: RootedLayout) -> Families:
    """All NEC families `build_context` reads, from one layout pass per d."""
    near1, far1 = layout_families(g, layout, 1)
    near2, far2 = layout_families(g, layout, 2)
    return near1, near2, far1, far2


def build_context(
    inst: Instance,
    layout: RootedLayout,
    node: int,
    families: Optional[Families] = None,
) -> NodeContext:
    """Cut data of one layout node.  `families` is `node_families` of the
    layout, which `solve` builds once; without it this call builds them."""
    g = inst.graph
    if families is None:
        families = node_families(g, layout)
    near1, near2, far1, far2 = families
    vx = layout.below[node]
    cvx = g.vertices & ~vx
    fam_x1 = near1[node]
    fam_y1 = far1[node]
    xs_pool = tuple(sorted({fam_x1.rep_of(1 << v) for v in bits(vx)}, key=lex_key))
    ys_pool = tuple(sorted({fam_y1.rep_of(1 << u) for u in bits(cvx)}, key=lex_key))
    return NodeContext(
        node,
        vx,
        cvx,
        mim_cut(g, vx),
        fam_x1,
        near2[node],
        fam_y1,
        far2[node],
        xs_pool,
        ys_pool,
    )


def enumerate_indices(ctx: NodeContext) -> Iterator[IndexTuple]:
    """Stream every index tuple of the node, lazily.

    The four cover components are drawn from the full representative pools
    and only the joint size bound of 4 * mim applies.
    """
    budget = 4 * ctx.mim
    p_ns = ctx.fam_x2.representatives
    p_s = ctx.xs_pool
    q_ns = ctx.fam_y2.representatives
    q_s = ctx.ys_pool
    for x_rest in ctx.fam_x1.representatives:
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
        chosen.append(("yn", u_set, ctx.ext_of(u_set) if u_set else 0))
    for u_set in sorted(i.yvc_s, key=lex_key):
        chosen.append(("ys", u_set, ctx.ext_of(u_set) if u_set else 0))

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


class _Profile(NamedTuple):
    blocks: Tuple[int, ...]
    tree_of: Tuple[int, ...]
    x_cands: Tuple[Tuple[str, int, int], ...]  # kind, rep set, block index
    y_cands: Tuple[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]], ...]


def _profile_solution(inst: Instance, ctx: NodeContext, x: int) -> Optional[_Profile]:
    """Block structure of a solution, or None when it can never be extended
    (its own contraction already has a forbidden cycle or degree)."""
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
                continue  # single/single edges handled once, from the later one
            ra, rb = find(bi), find(bj)
            if ra == rb:
                return None
            parent[ra] = rb

    tree_of = tuple(find(b) for b in range(nb))

    fam1, fam2 = ctx.fam_x1, ctx.fam_x2
    comp_reps = [fam2.rep_of(c) for c in comps]
    single_reps = [fam1.rep_of(1 << v) for v in singles]
    x_cands: List[Tuple[str, int, int]] = []
    for bi, rep in enumerate(comp_reps):
        if rep and comp_reps.count(rep) == 1:
            x_cands.append(("xn", rep, bi))
    for si, rep in enumerate(single_reps):
        if rep and single_reps.count(rep) == 1:
            x_cands.append(("xs", rep, nc + si))

    xs_mask = x & s
    y_cands: List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]]] = []

    def attach_of(u_set: int) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        ext = ctx.ext_of(u_set)
        if not ext & x:
            return None
        att = tuple(bj for bj in range(nb) if ext & blocks[bj])
        trees = tuple(sorted({tree_of[bj] for bj in att}))
        if len(trees) != len(att):
            return None  # two hooks into one tree always closes a cycle
        return att, trees

    for u_set in ctx.fam_y2.representatives:
        if not u_set or ctx.e_bad(u_set) & xs_mask:
            continue
        hook = attach_of(u_set)
        if hook:
            y_cands.append(("yn", u_set, hook[0], hook[1]))
    for u_set in ctx.ys_pool:
        if not u_set:
            continue
        au = g.adj[u_set.bit_length() - 1]
        if any((au & c).bit_count() > 1 for c in comps):
            continue
        hook = attach_of(u_set)
        if hook:
            y_cands.append(("ys", u_set, hook[0], hook[1]))

    return _Profile(tuple(blocks), tree_of, tuple(x_cands), tuple(y_cands))


def _bucket_keys(ctx: NodeContext, x: int, prof: _Profile) -> Iterator[Tuple[int, Signature]]:
    """All (x_rest, signature) bucket keys of cover-realizable indices."""
    cap_side = 2 * ctx.mim
    cap_total = 4 * ctx.mim
    fam1 = ctx.fam_x1
    blocks = prof.blocks
    tree_of = prof.tree_of
    y_cands = prof.y_cands

    q_combos: List[Tuple[Tuple[int, ...], Dict[int, int], FrozenSet[int]]] = []

    def grow_q(
        start: int,
        chosen: Tuple[int, ...],
        used_attach: FrozenSet[Tuple[int, ...]],
        attached_blocks: FrozenSet[int],
        lone_blocks: FrozenSet[int],
        uf: Dict[int, int],
    ):
        q_combos.append((chosen, uf, lone_blocks))
        if len(chosen) >= cap_side:
            return
        for j in range(start, len(y_cands)):
            _, _, att, trees = y_cands[j]
            if att in used_attach:
                continue
            if len(att) == 1:
                if att[0] in attached_blocks:
                    continue
            elif lone_blocks & set(att):
                continue
            roots = set()
            ok = True
            for t in trees:
                r = t
                while uf.get(r, r) != r:
                    r = uf.get(r, r)
                if r in roots:
                    ok = False
                    break
                roots.add(r)
            if not ok:
                continue
            new_uf = dict(uf)
            anchor = min(roots)
            for r in roots:
                new_uf[r] = anchor
            new_uf[("q", j)] = anchor
            grow_q(
                j + 1,
                chosen + (j,),
                used_attach | {att},
                attached_blocks | set(att),
                lone_blocks | ({att[0]} if len(att) == 1 else frozenset()),
                new_uf,
            )

    grow_q(0, (), frozenset(), frozenset(), frozenset(), {})

    def resolve(uf: Dict[int, int], key) -> int:
        r = key
        while uf.get(r, r) != r:
            r = uf.get(r, r)
        return r

    for chosen_q, uf, lone_blocks in q_combos:
        q_size = len(chosen_q)
        p_pool = [c for c in prof.x_cands if c[2] not in lone_blocks]
        p_cap = min(cap_side, cap_total - q_size, len(p_pool))
        for p_size in range(p_cap + 1):
            for p_sub in combinations(p_pool, p_size):
                vc_mask = 0
                for _, _, bi in p_sub:
                    vc_mask |= blocks[bi]
                x_rest = fam1.rep_of(x & ~vc_mask)
                groups: Dict[int, List[Tuple[str, int]]] = {}
                for kind, rep, bi in p_sub:
                    groups.setdefault(resolve(uf, tree_of[bi]), []).append((kind, rep))
                for j in chosen_q:
                    kind, u_set, _, _ = y_cands[j]
                    groups.setdefault(resolve(uf, ("q", j)), []).append((kind, u_set))
                yield x_rest, _encode_groups(list(groups.values()))


def reduce_table(table: SolutionTable, ctx: NodeContext, inst: Instance) -> SolutionTable:
    """Keep one maximum-weight solution per (index, signature) bucket over
    the cover-realizable index family; ties fall to the lexicographically
    smallest vertex set.  The result is a subset of the input that preserves
    the best completion for every far-side set."""
    buckets: Dict[Tuple[int, Signature], Tuple[int, Tuple[int, ...], int]] = {}
    for mask in sorted(table.solutions, key=lex_key):
        w = table.solutions[mask]
        prof = _profile_solution(inst, ctx, mask)
        if prof is None:
            continue
        entry = (-w, lex_key(mask), mask)
        for key in _bucket_keys(ctx, mask, prof):
            cur = buckets.get(key)
            if cur is None or entry < cur:
                buckets[key] = entry
    keep = {entry[2] for entry in buckets.values()}
    out = {m: table.solutions[m] for m in sorted(keep, key=lex_key)}
    return SolutionTable(table.node, out)


def best(inst: Instance, table: SolutionTable, y: int):
    """Best weight of a table member that stays an S-forest with y; -inf
    when no member does."""
    g, s = inst.graph, inst.s_set
    top = NEG_INF
    for mask, w in table.solutions.items():
        if w > top and is_s_forest(g, mask | y, s):
            top = w
    return top


@dataclass(frozen=True)
class SolveResult:
    weight: int
    sforest: int
    deletion: int


TraceFn = Callable[[int, NodeContext, SolutionTable, SolutionTable], None]


def solve(
    inst: Instance,
    layout: RootedLayout,
    threads: int = 1,
    trace: Optional[TraceFn] = None,
) -> SolveResult:
    """Maximum-weight induced S-forest and its complement deletion set.

    threads is accepted and ignored: every step is pure Python, and a
    thread pool under the interpreter lock gave no speedup.
    """
    g, s = inst.graph, inst.s_set
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")

    families = node_families(g, layout)
    tables: Dict[int, SolutionTable] = {}
    for x in layout.postorder():
        if layout.is_leaf(x):
            v = layout.leaf_vertex[x]
            tables[x] = SolutionTable(x, {0: 0, 1 << v: inst.weights[v]})
            continue
        ctx = build_context(inst, layout, x, families)
        merged = merge_tables(tables[layout.left[x]], tables[layout.right[x]], x)
        reduced = reduce_table(merged, ctx, inst)
        if trace is not None:
            trace(x, ctx, merged, reduced)
        tables[x] = reduced
        del tables[layout.left[x]], tables[layout.right[x]]

    root_table = tables[layout.root]
    winner = None
    for mask in sorted(root_table.solutions, key=lex_key):
        w = root_table.solutions[mask]
        if not is_s_forest(g, mask, s):
            continue
        if winner is None or (-w, lex_key(mask)) < winner[0]:
            winner = ((-w, lex_key(mask)), mask)
    if winner is None:
        raise RuntimeError("no S-forest member survived at the root")
    mask = winner[1]
    return SolveResult(root_table.solutions[mask], mask, g.vertices & ~mask)
