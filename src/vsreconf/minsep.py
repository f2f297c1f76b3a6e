"""Minimal st-separator enumeration and the tame-class TAR/TJ solver.

Enumeration follows the classical output-sensitive expansion scheme:
seed with the minimal separator close to s, then push each known
separator past each of its vertices by taking component neighborhoods of
the graph minus (separator union closed neighborhood), keeping the
candidates that pass the full-component test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, ResourceLimitError
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .separators import State, canon, check_state, shrink_to_minimal
from .sequence import certify, dedupe, tar_steps
from .tar_tj import is_trivially_negative_tar, tj_to_tar_instance

DEFAULT_FAMILY_CAP = 1_000_000


@dataclass(frozen=True)
class SeparatorFamily:
    members: frozenset[State]
    s: int
    t: int

    def sorted_members(self) -> list[State]:
        return sorted(self.members, key=canon)


def _has_full_sides(g: Graph, s: int, t: int, sep: State) -> bool:
    """Full-component test: ``sep`` is a minimal st-separator iff s and t
    lie in different components of G - sep whose neighborhoods are both
    all of ``sep``.  Two BFS runs."""
    comp_s = g.reachable_from(s, sep)
    if t in comp_s or g.neighborhood(comp_s) != sep:
        return False
    return g.neighborhood(g.reachable_from(t, sep)) == sep


def enumerate_minimal_separators(
    g: Graph, s: int, t: int, family_cap: int = DEFAULT_FAMILY_CAP
) -> SeparatorFamily:
    """All minimal st-separators of a connected graph.

    Each member is expanded once per vertex, and each expansion makes one
    component pass plus, per candidate, the two BFS runs of the
    full-component test: O(|F| n^2 (n + m)) for a family of |F|
    separators.
    """
    if not g.is_connected():
        raise InputError("enumeration expects a connected graph")
    check_state(g, s, t, ())
    if g.has_edge(s, t):
        raise InputError("adjacent terminals admit no separator")

    seed = shrink_to_minimal(g, s, t, g.neighbors(s) - {t})
    found: set[State] = {seed}
    queue: deque[State] = deque([seed])
    while queue:
        sep = queue.popleft()
        for x in sorted(sep):
            removed = sep | (g.neighbors(x) - {s, t}) | {x}
            for comp in g.components(removed):
                cand = g.neighborhood(comp)
                if cand in found or not cand:
                    continue
                if s in cand or t in cand:
                    continue
                if not _has_full_sides(g, s, t, cand):
                    continue
                if len(found) >= family_cap:
                    raise ResourceLimitError(
                        f"separator family cap {family_cap} exceeded"
                    )
                found.add(cand)
                queue.append(cand)
    return SeparatorFamily(frozenset(found), s, t)


def _overlap(a: State, b: State, k: int) -> bool:
    """Whether two separators are joined in the overlap graph: their union
    fits the TAR bound (the size test first spares most unions)."""
    return len(a) + len(b) <= k or len(a | b) <= k


@dataclass(frozen=True)
class OverlapGraph:
    """Minimal separators as nodes; edges join pairs whose union fits the
    TAR bound.  Adjacency is evaluated on demand: ``neighbors`` costs one
    pass over the nodes, and the full edge set is only built if read."""

    nodes: list[State]  # sorted by canon
    k: int

    def neighbors(self, node: State) -> list[State]:
        return [x for x in self.nodes if x != node and _overlap(node, x, self.k)]

    @cached_property
    def edges(self) -> frozenset[tuple[State, State]]:
        return frozenset(
            (a, b)
            for i, a in enumerate(self.nodes)
            for b in self.nodes[i + 1:]
            if _overlap(a, b, self.k)
        )


def build_overlap_graph(family: SeparatorFamily, k: int) -> OverlapGraph:
    return OverlapGraph(family.sorted_members(), k)


def tame_solve(
    instance: ReconfigInstance, family_cap: int = DEFAULT_FAMILY_CAP
) -> Solution:
    """Polynomial TAR/TJ solver for graphs with few minimal separators.

    YES iff the minimalized endpoints lie in the same overlap-graph
    component.  A TJ instance is first recast as TAR with bound k+1; the
    certificate is then a TAR(k+1) sequence for that recast instance.

    After enumeration, the overlap-graph BFS scans the |F| members once
    per node it expands, O(|F|^2) union tests at most, and stops as soon
    as it reaches the target.
    """
    if instance.rule is Rule.TS:
        raise InputError("tame solver handles TAR and TJ only")
    if instance.rule is Rule.TJ:
        instance = tj_to_tar_instance(instance)
    g, s, t, k = instance.graph, instance.s, instance.t, instance.k
    assert k is not None

    if instance.source == instance.target:
        return Solution(True, certify(instance, [instance.source]))
    if is_trivially_negative_tar(instance):
        return Solution(False)

    family = enumerate_minimal_separators(g, s, t, family_cap)
    overlap = OverlapGraph(family.sorted_members(), k)
    sa = shrink_to_minimal(g, s, t, instance.source)
    sb = shrink_to_minimal(g, s, t, instance.target)

    # BFS in the overlap graph, deterministic ordering, stopping at sb
    parent: dict[State, State | None] = {sa: None}
    queue = deque([sa])
    while queue and sb not in parent:
        cur = queue.popleft()
        for nxt in overlap.neighbors(cur):
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == sb:
                    break
                queue.append(nxt)
    if sb not in parent:
        return Solution(False)

    path = [sb]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()

    # drop to sa, cross each overlap edge through the union, add back up
    seq = tar_steps(instance.source, sa)
    for cur, nxt in zip(path, path[1:]):
        seq += tar_steps(cur, cur | nxt) + tar_steps(cur | nxt, nxt)
    seq += tar_steps(sb, instance.target)
    return Solution(True, certify(instance, dedupe(seq)))
