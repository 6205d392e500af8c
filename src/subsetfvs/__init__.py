"""Exact weighted subset feedback vertex set and node multiway cut over
rooted branch layouts."""

from .graphs import (
    BlockGraph,
    BlockPartition,
    Graph,
    Instance,
    is_forest,
    is_s_forest,
    mask_of,
)
from .layouts import (
    RootedLayout,
    cut_rank,
    interval_layout,
    layout_from_order,
    mim_cut,
    parse_layout,
    serialize_layout,
    width,
)
from .nec import NecFamily, compute_reps, same_class
from .dp import SolutionTable, SolveResult, solve
from .multiway import NmcInstance, NmcResult, brute_force_nmc, solve_nmc

__all__ = [
    "BlockGraph",
    "BlockPartition",
    "Graph",
    "Instance",
    "NecFamily",
    "NmcInstance",
    "NmcResult",
    "RootedLayout",
    "SolutionTable",
    "SolveResult",
    "brute_force_nmc",
    "compute_reps",
    "cut_rank",
    "interval_layout",
    "is_forest",
    "is_s_forest",
    "layout_from_order",
    "mask_of",
    "mim_cut",
    "parse_layout",
    "same_class",
    "serialize_layout",
    "solve",
    "solve_nmc",
    "width",
]
