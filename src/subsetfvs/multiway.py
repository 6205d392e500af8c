"""Node multiway cut by reduction to the subset feedback problem.

A hub vertex adjacent to every terminal is added and made the only tracked
vertex; any cycle through the hub is a path between two surviving terminals,
so deleting a minimum-weight vertex set to kill such cycles is exactly a
minimum multiway cut.  The hub and (by default) the terminals receive a
weight exceeding the total, which keeps them out of every optimal deletion.
The same gap makes them forced (`dp.forced_set`): each outweighs all other
positive weight, so `dp.solve` keeps only the rows that hold the terminals
below a node, and drops every row that joins two terminals in one tree.
With deletable terminals the hub alone is forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .graphs import CheckError, Graph, Instance, bits, components_masks, mask_of
from .layouts import RootedLayout
from .dp import solve


@dataclass(frozen=True)
class NmcInstance:
    graph: Graph
    terminals: Tuple[int, ...]
    weights: Tuple[int, ...]

    def __post_init__(self):
        if len(self.terminals) < 2:
            raise ValueError("need at least two terminals")
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("repeated terminal")
        for t in self.terminals:
            if not 0 <= t < self.graph.n:
                raise ValueError(f"terminal {t} out of range")
        if len(self.weights) != self.graph.n:
            raise ValueError("weight count does not match the vertex count")


def reduce_to_sfvs(
    nmc: NmcInstance, deletable_terminals: bool = False
) -> Tuple[Instance, int]:
    """Instance on n+1 vertices whose maximum S-forests correspond to
    minimum cuts; returns it with the hub vertex id."""
    g = nmc.graph
    hub = g.n
    big = 1 + sum(abs(w) for w in nmc.weights)
    edges = list(g.edges()) + [(t, hub) for t in nmc.terminals]
    weights = list(nmc.weights)
    if not deletable_terminals:
        for t in nmc.terminals:
            weights[t] = big
    weights.append(big)
    return Instance(Graph(g.n + 1, edges), 1 << hub, tuple(weights)), hub


def extend_layout(layout: RootedLayout, hub: int) -> RootedLayout:
    """New root joining the old tree with a fresh hub leaf."""
    k = layout.node_count
    return RootedLayout(
        layout.n + 1,
        layout.left + (-1, k - 1),
        layout.right + (-1, k),
        layout.leaf_vertex + (hub, -1),
        layout.below + (1 << hub, layout.below[k - 1] | (1 << hub)),
    )


def separates(g: Graph, cut: int, terminals: Tuple[int, ...]) -> bool:
    """No path between surviving terminals after removing the cut: no
    component of g minus the cut holds two terminals."""
    tmask = mask_of(terminals)
    return all((c & tmask).bit_count() < 2 for c in components_masks(g, g.vertices & ~cut))


@dataclass(frozen=True)
class NmcResult:
    weight: int
    cut: int


def solve_nmc(
    nmc: NmcInstance,
    layout: RootedLayout,
    deletable_terminals: bool = False,
) -> NmcResult:
    g = nmc.graph
    if layout.n != g.n:
        raise ValueError("layout does not match the graph")
    if not deletable_terminals:
        for i, t in enumerate(nmc.terminals):
            for u in nmc.terminals[i + 1 :]:
                if g.has_edge(t, u):
                    raise ValueError("adjacent terminals cannot be separated")
    inst, hub = reduce_to_sfvs(nmc, deletable_terminals)
    res = solve(inst, extend_layout(layout, hub))
    if not res.sforest >> hub & 1:
        raise CheckError("the hub was dropped from the optimum")
    cut = g.vertices & ~res.sforest
    if not deletable_terminals and cut & mask_of(nmc.terminals):
        raise CheckError("the cut deletes a terminal")
    if not separates(g, cut, nmc.terminals):
        raise CheckError("the cut does not separate the terminals")
    return NmcResult(sum(nmc.weights[v] for v in bits(cut)), cut)

