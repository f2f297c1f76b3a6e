"""Correspondence between independent-set and separator reconfiguration.

In a bipartite graph G with parts A and B, attach two new vertices u
(adjacent to all of A) and v (adjacent to all of B).  A set I ⊆ V(G) is
independent exactly when its complement V(G) ∖ I separates u from v in
the extended graph, so independent-set reconfiguration (ISR) and vertex
separator reconfiguration (VSR) instances translate into each other by
complementation, state by state, under both TJ and TS.

Graphs of the extended shape are recognized by :func:`is_peanut_like`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import Graph
from .instance import ReconfigInstance, ReconfigSequence, Rule
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


def is_peanut_like(g: Graph) -> PeanutWitness | None:
    """Witness for the peanut-like shape, or None.

    Deterministic: the lexicographically smallest ordered pair (u, v)
    satisfying the foci condition wins.
    """
    verts = frozenset(g.vertices())
    for u in sorted(verts):
        for v in sorted(verts):
            if u == v or g.has_edge(u, v):
                continue
            side_a = g.neighbors(u) | {v}
            side_b = g.neighbors(v) | {u}
            if side_a & side_b or (side_a | side_b) != verts:
                continue
            if any(g.neighbors(x) & side_a for x in side_a):
                continue
            if any(g.neighbors(x) & side_b for x in side_b):
                continue
            return PeanutWitness(u, v, side_a, side_b)
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


def vsr_to_isr(
    h: Graph,
    witness: PeanutWitness,
    rule: Rule,
    source: State,
    target: State,
) -> IsrInstance:
    """Drop the foci of a peanut-like graph and complement both states.

    Only valid when the states avoid the foci.  Every id except the two
    foci, which need not be the largest, is remapped densely in
    increasing order (on the path 1-4-0-3-2 the foci are 1 and 3, and
    0, 2, 4 become 0, 1, 2).
    """
    u, v = witness.u, witness.v
    for st in (source, target):
        if u in st or v in st:
            raise InputError("states may not contain the foci")
    keep = sorted(frozenset(h.vertices()) - {u, v})
    relabel = {old: new for new, old in enumerate(keep)}
    edges = [
        (relabel[a], relabel[b])
        for a, b in h.edges
        if a not in (u, v) and b not in (u, v)
    ]
    g = Graph(len(keep), edges)
    part_a = frozenset(relabel[x] for x in witness.side_a - {v})
    part_b = frozenset(relabel[x] for x in witness.side_b - {u})
    inner = frozenset(relabel)
    return IsrInstance(
        g,
        part_a,
        part_b,
        rule,
        frozenset(relabel[x] for x in inner - source),
        frozenset(relabel[x] for x in inner - target),
    )


def translate_sequence(
    direction: str, g_isr: Graph, seq: ReconfigSequence
) -> ReconfigSequence:
    """Complement every state with respect to the inner (bipartite) graph.

    ``direction`` is ``"isr-to-vsr"`` (states are independent sets) or
    ``"vsr-to-isr"`` (states are separators restricted to the inner
    graph, i.e. vertex covers).  The complement map is an involution, so
    both directions perform the same rewrite; the direction selects which
    side's validity is checked.
    """
    if direction not in ("isr-to-vsr", "vsr-to-isr"):
        raise InputError(f"unknown direction {direction!r}")
    if not seq:
        raise InputError("empty sequence")
    verts = frozenset(g_isr.vertices())
    for st in seq:
        if not st <= verts:
            raise InputError("sequence state leaves the inner vertex set")
        inner = st if direction == "isr-to-vsr" else verts - st
        _check_independent(g_isr, frozenset(inner), "sequence state")
    return [verts - st for st in seq]
