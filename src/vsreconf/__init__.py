"""Vertex separator reconfiguration under token sliding, token jumping,
and bounded token addition/removal: :func:`solve`, its data types, and
the function behind each other CLI subcommand.  The engines are reached
through ``solve(instance, engine)`` and stay public in their modules."""

from .bipartite import IsrInstance, is_peanut_like, isr_to_vsr, vsr_to_isr
from .cliquepair import characterize
from .dispatch import solve
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .minsep import enumerate_minimal_separators
from .oracle import export_reconfig_graph, verify_sequence
from .seriesparallel import recognize_and_decompose
from .tar_tj import tar_to_tj_instance, tj_to_tar_instance

__all__ = [
    "solve",
    "Solution",
    "Graph",
    "ReconfigInstance",
    "Rule",
    "IsrInstance",
    "verify_sequence",
    "enumerate_minimal_separators",
    "tj_to_tar_instance",
    "tar_to_tj_instance",
    "isr_to_vsr",
    "vsr_to_isr",
    "is_peanut_like",
    "characterize",
    "recognize_and_decompose",
    "export_reconfig_graph",
]

__version__ = "0.1.0"
