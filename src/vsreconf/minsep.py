"""Minimal st-separator enumeration and the tame-class TAR/TJ solver.

Enumeration is the a,b-separator variant of Berry, Bordat and Cogis
(2000) (also Kloks and Kratsch 1998).  Write N(C) for the open
neighbourhood of a vertex set C, and step(X) = N(C) for the component C
of t in G - X.  The seed is step(N[s]).  A member S is expanded once
per x in S not adjacent to t, into step(S u N[x]).  Every candidate is
a minimal st-separator, so none is tested:

- t's component C is full, because the candidate is N(C).
- Every member of the candidate lies in (S - x) u N(x), so it touches
  the connected set A u {x}, where A is the s-side of G - S.  That set
  holds s and misses the candidate, so s's component is full too.

Each expansion is one ``Graph.boundary`` search of t's component:
O(|F| n (n + m)) for a family of |F| separators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .separators import State, canon, check_state, shrink_to_minimal
from .sequence import certify, dedupe, tar_steps
from .tar_tj import _normalize, _subsample, is_trivially_negative_tar, tj_to_tar_instance

DEFAULT_FAMILY_CAP = 1_000_000


@dataclass(frozen=True)
class SeparatorFamily:
    members: frozenset[State]
    s: int
    t: int

    def sorted_members(self) -> list[State]:
        return sorted(self.members, key=canon)


def enumerate_minimal_separators(
    g: Graph, s: int, t: int, family_cap: int = DEFAULT_FAMILY_CAP
) -> SeparatorFamily:
    """All minimal st-separators of a connected graph."""
    if not g.is_connected():
        raise InputError("enumeration expects a connected graph")
    check_state(g, s, t, ())
    if g.has_edge(s, t):
        raise InputError("adjacent terminals admit no separator")

    seed = g.boundary(t, g.neighbors(s) | {s})
    found: set[State] = {seed}
    queue: deque[State] = deque([seed])
    while queue:
        sep = queue.popleft()
        for x in sep:
            if g.has_edge(x, t):
                continue
            cand = g.boundary(t, sep | g.neighbors(x))
            if cand in found:
                continue
            if len(found) >= family_cap:
                raise ResourceLimitError(f"separator family cap {family_cap} exceeded")
            found.add(cand)
            queue.append(cand)
    return SeparatorFamily(frozenset(found), s, t)


def _overlap(a: State, b: State, k: int) -> bool:
    """Whether two separators are joined in the overlap graph: their union
    fits the TAR bound (the size test first spares most unions)."""
    return len(a) + len(b) <= k or len(a | b) <= k


def tame_solve(
    instance: ReconfigInstance, family_cap: int = DEFAULT_FAMILY_CAP
) -> Solution:
    """Polynomial TAR/TJ solver for graphs with few minimal separators.

    YES iff the minimalized endpoints lie in the same overlap-graph
    component.  The certificate is for the instance given: a TJ instance
    is solved as TAR with bound k+1, and the checked TAR(k+1) walk is
    folded back into a TJ walk (normalized to sizes k, k+1, k, ..., then
    every other state kept; each rewrite keeps a valid walk).

    After enumeration, the overlap-graph BFS scans the |F| members once
    per node it expands, O(|F|^2) union tests at most, and stops as soon
    as it reaches the target.
    """
    if instance.rule is Rule.TS:
        raise InputError("tame solver handles TAR and TJ only")
    if instance.source == instance.target:
        return Solution(True, certify(instance, [instance.source]))
    tar = tj_to_tar_instance(instance) if instance.rule is Rule.TJ else instance
    if is_trivially_negative_tar(tar):
        return Solution(False)
    g, s, t, k = tar.graph, tar.s, tar.t, tar.k
    assert k is not None

    family = enumerate_minimal_separators(g, s, t, family_cap)
    # a member larger than k overlaps nothing, since |a u b| >= |b| > k
    members = [m for m in family.sorted_members() if len(m) <= k]
    sa = shrink_to_minimal(g, s, t, tar.source)
    sb = shrink_to_minimal(g, s, t, tar.target)

    # BFS in the overlap graph, deterministic ordering, stopping at sb
    parent: dict[State, State | None] = {sa: None}
    queue = deque([sa])
    while queue and sb not in parent:
        cur = queue.popleft()
        for nxt in members:
            if nxt not in parent and _overlap(cur, nxt, k):
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
    seq = tar_steps(tar.source, sa)
    for cur, nxt in zip(path, path[1:]):
        seq += tar_steps(cur, cur | nxt) + tar_steps(cur | nxt, nxt)
    seq += tar_steps(sb, tar.target)
    seq = certify(tar, dedupe(seq))
    if instance.rule is Rule.TJ:
        size = len(instance.source)
        seq = _subsample(_normalize(seq, size), size)
    return Solution(True, seq)
