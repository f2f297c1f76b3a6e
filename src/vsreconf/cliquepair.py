"""Separator reconfiguration on graphs that are two overlapping cliques.

A connected, non-complete graph on at least four vertices that contains
neither three pairwise non-adjacent vertices nor an induced diamond is
either (i) two cliques sharing a single cut vertex, (ii) two disjoint
cliques whose cross edges form a matching, or (iii) the five-cycle.  On
these graphs TAR and TJ instances are always reconfigurable (unless a
TAR endpoint is stuck by minimality) and TS instances reduce to token
counting per clique plus a passage-edge condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ContractViolationError, InputError, NotApplicableError
from .graph import Graph
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution
from .oracle import solve_bfs
from .separators import State, pad_state
from .sequence import certify, dedupe, jumps
from .tar_tj import (
    is_trivially_negative_tar,
    tar_to_tj_instance,
    tj_to_tar_sequence,
)


def is_3p1_diamond_free(g: Graph) -> bool:
    """Exhaustive forbidden-induced-subgraph check: no independent triple,
    no induced diamond (four vertices spanning exactly five edges)."""
    verts = list(g.vertices())
    for a, b, c in itertools.combinations(verts, 3):
        if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
            return False
    for quad in itertools.combinations(verts, 4):
        m = sum(1 for x, y in itertools.combinations(quad, 2) if g.has_edge(x, y))
        if m == 5:
            return False
    return True


@dataclass(frozen=True)
class CutVertexCliques:
    q1: frozenset[int]
    q2: frozenset[int]
    w: int


@dataclass(frozen=True)
class MatchedCliques:
    q1: frozenset[int]
    q2: frozenset[int]
    matching: frozenset[tuple[int, int]]  # (q1 endpoint, q2 endpoint)


@dataclass(frozen=True)
class SpecialC5:
    order: tuple[int, ...]  # cyclic vertex order


@dataclass(frozen=True)
class NotInScope:
    reason: str


Characterization = CutVertexCliques | MatchedCliques | SpecialC5 | NotInScope

_OUT_OF_CLASS = NotInScope("not two overlapping cliques or a five-cycle")


def _c5_order(g: Graph) -> tuple[int, ...] | None:
    if g.n != 5 or len(g.edges) != 5 or any(g.degree(v) != 2 for v in g.vertices()):
        return None
    if not g.is_connected():
        return None
    order = [0]
    prev = None
    while len(order) < 5:
        nxt = min(x for x in g.neighbors(order[-1]) if x != prev)
        prev = order[-1]
        order.append(nxt)
    return tuple(order)


def _matched_partition(g: Graph) -> MatchedCliques | None:
    comp_edges = [
        (a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if not g.has_edge(a, b)
    ]
    comp = Graph(g.n, comp_edges)
    comps = comp.components()
    if len(comps) > 2:
        # the complement of two matched cliques is K_{|Q1|,|Q2|} minus a
        # matching, which has at most two components
        return None
    coloring = comp.bipartition()
    if coloring is None:
        return None
    comps.sort(key=min)
    left_all, _ = coloring
    for mask in range(1 << len(comps)):
        q1: set[int] = set()
        for i, c in enumerate(comps):
            side = c & left_all if not mask >> i & 1 else c - left_all
            q1 |= side
        q2 = set(g.vertices()) - q1
        if not q1 or not q2 or 0 not in q1:
            continue
        cross = [
            tuple(sorted((x, y), key=lambda v: v not in q1))
            for x, y in g.edges
            if ((x in q1) ^ (y in q1))
        ]
        ends = [v for e in cross for v in e]
        if len(ends) != len(set(ends)):
            continue
        return MatchedCliques(
            frozenset(q1), frozenset(q2), frozenset((a, b) for a, b in cross)
        )
    return None


def characterize(g: Graph) -> Characterization:
    """Match the graph against the three in-scope shapes.

    Deterministic: cut-vertex variant first, then matched cliques (first
    valid complement two-coloring with vertex 0 in the first clique),
    then the five-cycle.

    Every in-scope shape has at least C(floor(n/2), 2) + C(ceil(n/2), 2)
    edges (two cliques covering the vertices; the five-cycle meets the
    bound), so sparser graphs are refused after the linear-time
    connectivity check, before any quadratic work.

    The complement of two matched cliques Q1, Q2 is K_{|Q1|,|Q2|} minus a
    matching, which has at most two components, so at most four
    two-colourings of the complement are tried: polynomial time overall.
    """
    if g.n < 4:
        return NotInScope("fewer than 4 vertices")
    if not g.is_connected():
        return NotInScope("disconnected")
    if g.is_clique(g.vertices()):
        return NotInScope("complete graph")
    half = g.n // 2
    if len(g.edges) < half * (half - 1) // 2 + (g.n - half) * (g.n - half - 1) // 2:
        return _OUT_OF_CLASS
    cuts = g.cut_vertices()
    if len(cuts) == 1:
        (w,) = cuts
        comps = g.components({w})
        if len(comps) == 2:
            q1, q2 = (frozenset(c) | {w} for c in sorted(comps, key=min))
            if g.is_clique(q1) and g.is_clique(q2):
                return CutVertexCliques(q1, q2, w)
    matched = _matched_partition(g)
    if matched is not None:
        return matched
    order = _c5_order(g)
    if order is not None:
        return SpecialC5(order)
    return _OUT_OF_CLASS


def _require_class(g: Graph) -> Characterization:
    ch = characterize(g)
    if isinstance(ch, NotInScope):
        raise NotApplicableError(f"graph outside the two-clique class: {ch.reason}")
    return ch


def _terminal_sides(
    ch: CutVertexCliques | MatchedCliques, s: int, t: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Clique containing s first; terminals are non-adjacent, hence in
    different cliques (and never the shared cut vertex)."""
    if s in ch.q1 and t in ch.q2:
        return ch.q1, ch.q2
    if s in ch.q2 and t in ch.q1:
        return ch.q2, ch.q1
    raise InputError("terminals must lie in different cliques")


def _canonical_matched_state(
    g: Graph, ch: MatchedCliques, s: int, t: int, k: int
) -> State:
    """One token per matching edge (the q1 endpoint unless it is a
    terminal), padded with the smallest free non-terminal ids."""
    chosen = {y if x in (s, t) else x for x, y in ch.matching}
    if len(chosen) > k:
        raise ContractViolationError("fewer tokens than matching edges")
    return pad_state(g, s, t, chosen, k)


def _matched_to_canonical(
    inst: ReconfigInstance, ch: MatchedCliques, start: State, canonical: State
) -> ReconfigSequence:
    """Phase 1: give every matching edge its chosen endpoint (jumping the
    other endpoint's token across); phase 2: park the remaining tokens."""
    g, s, t = inst.graph, inst.s, inst.t
    seq = [start]
    cur = start
    for x, y in sorted(ch.matching):
        c, o = (x, y) if x in canonical else (y, x)
        if c in cur:
            continue
        if o not in cur:
            raise ContractViolationError("state misses a matching edge")
        cur = cur - {o} | {c}
        seq.append(cur)
    seq += jumps(cur, canonical)[1:]
    if seq[-1] != canonical:
        raise ContractViolationError("canonicalization failed")
    return seq


def _tj_walk(instance: ReconfigInstance, ch: Characterization) -> ReconfigSequence:
    """TJ walk between the endpoints of an in-class instance, before the
    solver's final check."""
    g, s, t = instance.graph, instance.s, instance.t
    sa, sb = instance.source, instance.target
    if sa == sb:
        return [sa]
    if isinstance(ch, CutVertexCliques):
        # every state contains the cut vertex, and every superset of it is
        # a separator, so tokens jump directly to their destinations
        return jumps(sa, sb)
    if isinstance(ch, MatchedCliques):
        canonical = _canonical_matched_state(g, ch, s, t, len(sa))
        fwd = _matched_to_canonical(instance, ch, sa, canonical)
        bwd = _matched_to_canonical(instance, ch, sb, canonical)
        return dedupe(fwd + bwd[::-1])
    # five-cycle: the state space is tiny; exhaustive search is exact
    return solve_bfs(instance).sequence  # type: ignore[return-value]


def solve_tar_tj_3p1d(instance: ReconfigInstance) -> Solution:
    """Always-YES constructive solver for TJ (and TAR via conversion) on
    the two-clique class; the only NO answers are stuck TAR endpoints."""
    ch = _require_class(instance.graph)
    if instance.rule is Rule.TS:
        raise InputError("TS instances are handled by solve_ts_3p1d")
    if instance.rule is Rule.TJ and isinstance(ch, SpecialC5):
        return solve_bfs(instance)
    if instance.rule is Rule.TJ or instance.source == instance.target:
        return Solution(True, certify(instance, _tj_walk(instance, ch)))

    g, k = instance.graph, instance.k
    assert k is not None
    tar = instance
    if k > g.n - 1:
        # states never hold s or t, so every bound from n-2 up admits the
        # same states; n-1 is the largest whose TJ recast (k-1 padded
        # tokens) fits in the n-2 non-terminals
        tar = ReconfigInstance(g, instance.s, instance.t, Rule.TAR,
                               instance.source, instance.target, g.n - 1)
    if is_trivially_negative_tar(tar):
        return Solution(False)
    conv = tar_to_tj_instance(tar)
    mid = tj_to_tar_sequence(_tj_walk(conv.tj_instance, ch))
    seq = conv.source_bridge + mid + conv.target_bridge[::-1]
    return Solution(True, certify(instance, dedupe(seq)))


def solve_ts_3p1d(instance: ReconfigInstance) -> Solution:
    """TS decision by token counting.

    Cut-vertex shape: the cut vertex holds a token in every state and
    splits the graph, so the answer is YES exactly when each clique
    carries the same number of tokens in source and target.  Matched
    shape: tokens change cliques only by sliding along a matching edge
    with both endpoints free of terminals (a passage), so unequal counts
    need such an edge.  Certificates come from exhaustive search; the
    decision itself is the counting rule.
    """
    ch = _require_class(instance.graph)
    if instance.rule is not Rule.TS:
        raise InputError("expects a TS instance")
    if isinstance(ch, SpecialC5):
        return solve_bfs(instance)

    s, t = instance.s, instance.t
    sa, sb = instance.source, instance.target
    qs, _ = _terminal_sides(ch, s, t)
    if isinstance(ch, CutVertexCliques):
        side = qs - {ch.w}
        yes = len(sa & side) == len(sb & side)
    else:
        passage = any(
            s not in e and t not in e for e in ch.matching
        )
        yes = len(sa & qs) == len(sb & qs) or passage
    if not yes:
        return Solution(False)
    res = solve_bfs(instance)
    if not res.reachable:
        raise ContractViolationError("counting rule predicted YES; search says NO")
    return res
