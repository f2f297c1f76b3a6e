"""Vertex separator reconfiguration under token sliding, token jumping,
and bounded token addition/removal."""

from .bipartite import IsrInstance, is_peanut_like, isr_to_vsr, translate_sequence, vsr_to_isr
from .cliquepair import characterize, is_3p1_diamond_free, solve_tar_tj_3p1d, solve_ts_3p1d
from .dispatch import solve
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .minsep import enumerate_minimal_separators, tame_solve
from .oracle import enumerate_states, export_reconfig_graph, solve_bfs, verify_sequence
from .separators import (
    brute_force_minimal_separators,
    brute_force_separators,
    is_minimal_separator,
    is_separator,
    minimum_separator_size,
    shrink_to_minimal,
)
from .seriesparallel import (
    canonical_separator,
    classify_pair,
    recognize_and_decompose,
    reconfigure_to_canonical,
    sp_solve_tj,
)
from .tar_tj import (
    is_trivially_negative_tar,
    normalize_tar_sequence,
    tar_to_tj_instance,
    tar_to_tj_sequence,
    tj_to_tar_instance,
)

__all__ = [
    "solve",
    "Solution",
    "Graph",
    "ReconfigInstance",
    "Rule",
    "solve_bfs",
    "verify_sequence",
    "enumerate_states",
    "export_reconfig_graph",
    "is_separator",
    "is_minimal_separator",
    "shrink_to_minimal",
    "brute_force_separators",
    "brute_force_minimal_separators",
    "minimum_separator_size",
    "enumerate_minimal_separators",
    "tame_solve",
    "is_trivially_negative_tar",
    "normalize_tar_sequence",
    "tar_to_tj_sequence",
    "tar_to_tj_instance",
    "tj_to_tar_instance",
    "IsrInstance",
    "is_peanut_like",
    "isr_to_vsr",
    "vsr_to_isr",
    "translate_sequence",
    "characterize",
    "is_3p1_diamond_free",
    "solve_tar_tj_3p1d",
    "solve_ts_3p1d",
    "recognize_and_decompose",
    "classify_pair",
    "canonical_separator",
    "reconfigure_to_canonical",
    "sp_solve_tj",
]

__version__ = "0.1.0"
