"""Correspondence between independent-set and separator reconfiguration.

In a bipartite graph G with parts A and B, attach two new vertices u
(adjacent to all of A) and v (adjacent to all of B).  A set I ⊆ V(G) is
independent exactly when its complement V(G) ∖ I separates u from v in
the extended graph, so independent-set reconfiguration (ISR) and vertex
separator reconfiguration (VSR) instances translate into each other by
complementation, state by state, under both TJ and TS.

Graphs of the extended shape are recognized by :func:`is_peanut_like`.
:func:`vsr_to_isr` needs the instance's terminals to be the foci, with s
joined to part A as :func:`isr_to_vsr` builds it, and refuses any other pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .graph import Graph
from .instance import ReconfigInstance, Rule
from .separators import State


def _check_independent(g: Graph, vs: frozenset[int], what: str) -> None:
    for a in vs:
        g.check_vertex(a)
        if g.neighbors(a) & vs:
            raise InputError(f"{what} is not an independent set")


def _check_partition(g: Graph, a: frozenset[int], b: frozenset[int]) -> None:
    if a & b or (a | b) != frozenset(g.vertices()):
        raise InputError("parts must partition the vertex set")
    _check_independent(g, a, "part A")
    _check_independent(g, b, "part B")


@dataclass(frozen=True)
class PeanutWitness:
    """Foci u, v of a peanut-like graph: the graph is bipartite with
    parts ``side_a`` (containing v) and ``side_b`` (containing u), where
    N(u) = side_a ∖ {v} and N(v) = side_b ∖ {u}."""

    u: int
    v: int
    side_a: frozenset[int]
    side_b: frozenset[int]


def _foci(g: Graph, u: int, v: int) -> PeanutWitness | None:
    """Witness that u and v are foci, or None."""
    if u == v or g.has_edge(u, v):
        return None
    side_a, side_b = g.neighbors(u) | {v}, g.neighbors(v) | {u}
    if side_a & side_b or len(side_a) + len(side_b) != g.n:
        return None
    if any(g.neighbors(x) & side for side in (side_a, side_b) for x in side):
        return None
    return PeanutWitness(u, v, side_a, side_b)


def is_peanut_like(g: Graph) -> PeanutWitness | None:
    """Witness for the peanut-like shape, or None.

    Deterministic: the lexicographically smallest ordered pair (u, v)
    satisfying the foci condition wins.
    """
    for u in g.vertices():
        for v in g.vertices():
            if witness := _foci(g, u, v):
                return witness
    return None


@dataclass(frozen=True)
class IsrInstance:
    """Independent-set reconfiguration on a bipartite graph: move a token
    set from ``source`` to ``target`` through independent sets, one token
    jump or slide at a time."""

    graph: Graph
    part_a: frozenset[int]
    part_b: frozenset[int]
    rule: Rule
    source: State
    target: State

    def __post_init__(self) -> None:
        if self.rule not in (Rule.TS, Rule.TJ):
            raise InputError("ISR translation covers TS and TJ only")
        _check_partition(self.graph, self.part_a, self.part_b)
        _check_independent(self.graph, self.source, "source")
        _check_independent(self.graph, self.target, "target")
        if len(self.source) != len(self.target):
            raise InputError("source and target must have equal size")


def isr_to_vsr(instance: IsrInstance) -> ReconfigInstance:
    """Extend the bipartite graph with foci u = n (adjacent to all of
    part A) and v = n + 1 (adjacent to all of part B); complement both
    token sets.  Answers and rules carry over exactly."""
    g = instance.graph
    u, v = g.n, g.n + 1
    edges = list(g.edges)
    edges += [(a, u) for a in sorted(instance.part_a)]
    edges += [(b, v) for b in sorted(instance.part_b)]
    h = Graph(g.n + 2, edges)
    sa = frozenset(g.vertices()) - instance.source
    sb = frozenset(g.vertices()) - instance.target
    return ReconfigInstance(h, u, v, instance.rule, sa, sb)


def vsr_to_isr(instance: ReconfigInstance) -> IsrInstance:
    """Drop the terminals, which must be the foci of a peanut-like graph,
    and complement both states; s is joined to part A and t to part B.

    The inverse of :func:`isr_to_vsr`.  Every id except the two foci,
    which need not be the largest, is remapped densely in increasing
    order (on the path 1-4-0-3-2 the foci are 1 and 3, and 0, 2, 4
    become 0, 1, 2).
    """
    h, u, v = instance.graph, instance.s, instance.t
    if _foci(h, u, v) is None:
        raise InputError(f"terminals {u} and {v} are not the foci of a peanut-like graph")
    relabel = {old: new for new, old in enumerate(x for x in h.vertices() if x not in (u, v))}
    edges = [(relabel[a], relabel[b]) for a, b in h.edges if a in relabel and b in relabel]

    def renamed(xs: Iterable[int]) -> frozenset[int]:
        return frozenset(relabel[x] for x in xs)

    return IsrInstance(
        Graph(len(relabel), edges),
        renamed(h.neighbors(u)),
        renamed(h.neighbors(v)),
        instance.rule,
        renamed(relabel.keys() - instance.source),
        renamed(relabel.keys() - instance.target),
    )

