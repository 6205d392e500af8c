"""Exact weighted subset feedback vertex set and node multiway cut over
rooted branch layouts."""

from .graphs import Graph, Instance, is_forest, is_s_forest, mask_of
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
from .nec import NecFamily
from .dp import SolveResult, solve
from .multiway import NmcInstance, NmcResult, solve_nmc

__all__ = [
    "Graph",
    "Instance",
    "NecFamily",
    "NmcInstance",
    "NmcResult",
    "RootedLayout",
    "SolveResult",
    "cut_rank",
    "interval_layout",
    "is_forest",
    "is_s_forest",
    "layout_from_order",
    "mask_of",
    "mim_cut",
    "parse_layout",
    "serialize_layout",
    "solve",
    "solve_nmc",
    "width",
]
