"""Tree-like tableaux, permutation tableaux and non-ambiguous trees:
enumeration, statistics, bijections and exhaustive verification."""

from .core import (
    BorderPath,
    Cell,
    NonAmbiguousTree,
    PermutationTableau,
    StatRecord,
    TreeLikeTableau,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    noc_class,
    parse_nat,
    parse_pt,
    parse_tlt,
    stats_of,
    to_json,
    to_text,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "BorderPath",
    "Cell",
    "NonAmbiguousTree",
    "PermutationTableau",
    "StatRecord",
    "TreeLikeTableau",
    "enumerate_nat",
    "enumerate_pt",
    "enumerate_tlt",
    "noc_class",
    "parse_nat",
    "parse_pt",
    "parse_tlt",
    "stats_of",
    "to_json",
    "to_text",
    "transpose",
]
