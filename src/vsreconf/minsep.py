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

The TJ walk of ``tame_solve`` enumerates nothing when the minimal cores
of its endpoints already overlap (their union has at most k + 1
vertices).  Otherwise its overlap search finds the neighbours of a
member of k vertices by lookup: an index of the members of at most k
vertices, built once in O(sum of |b|), answers each in
sum over member sizes z of C(k, z - 1) lookups.  Smaller members, and
every member when the lookups would outnumber the members, are scanned.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError, ResourceLimitError
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .separators import State, canon, check_separable, shrink_to_minimal
from .tar_tj import solve_via_tj

DEFAULT_FAMILY_CAP = 1_000_000


@dataclass(frozen=True)
class SeparatorFamily:
    members: frozenset[State]

    def sorted_members(self) -> list[State]:
        return sorted(self.members, key=canon)


def enumerate_minimal_separators(
    g: Graph, s: int, t: int, family_cap: int = DEFAULT_FAMILY_CAP
) -> SeparatorFamily:
    """All minimal st-separators.  Every search stays in the component of
    t, so the graph need not be connected; when s lies in another
    component, the seed is empty and the family is {∅}."""
    check_separable(g, s, t)

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
    return SeparatorFamily(frozenset(found))


def tame_solve(instance: ReconfigInstance) -> Solution:
    """Polynomial TAR/TJ solver for graphs with few minimal separators.

    A TJ instance with k tokens is YES iff its minimalized endpoints lie
    in one component of the overlap graph: the members of size at most
    k, joined when their union has at most k+1 vertices.  The path found
    is the source's chain for ``solve_via_tj``, which TAR goes through
    too, so a TAR certificate passes through the primed states.

    Endpoints whose cores overlap are joined without enumeration.
    Otherwise the overlap BFS stops at the target; a member of k vertices
    costs sum over member sizes z of C(k, z - 1) index lookups, after an
    O(sum of |b|) index build, and any other member one scan of the family.
    """
    if instance.rule is Rule.TS:
        raise InputError("tame solver handles TAR and TJ only")
    return solve_via_tj(instance, _tj_walk)


def _tj_walk(tj: ReconfigInstance) -> tuple[list[State], list[State]] | None:
    """Chains from the distinct endpoints of a TJ instance to the target's
    minimal core: the overlap path from the source's minimal core, and
    the target's core alone.  None when the overlap search does not reach
    the target."""
    g, s, t, k = tj.graph, tj.s, tj.t, len(tj.source)
    sa, sb = (shrink_to_minimal(g, s, t, x) for x in (tj.source, tj.target))
    if len(sa | sb) <= k + 1:
        # the search below would dequeue sa first and meet sb among its
        # neighbours, whatever else the family holds
        return [sa, sb] if sa != sb else [sa], [sb]
    # a member above k overlaps none: no minimal separator holds another
    fam = enumerate_minimal_separators(g, s, t)
    members = sorted((m for m in fam.members if len(m) <= k), key=canon)
    # a neighbour b of a k-member a has one vertex y outside a, so the
    # index files b's position under b - {y}, a subset of a of size |b| - 1
    sizes = {len(m) for m in members}
    lookups = sum(comb(k, z - 1) for z in sizes)
    index: dict[State, list[int]] | None = None

    # BFS in the overlap graph, deterministic ordering, stopping at sb;
    # the size test spares most unions
    parent: dict[State, State | None] = {sa: None}
    queue = deque([sa])
    while queue and sb not in parent:
        cur = queue.popleft()
        if len(cur) == k and lookups < len(members):
            if index is None:
                index = defaultdict(list)
                for i, b in enumerate(members):
                    for y in b:
                        index[b - {y}].append(i)
            found = {
                i
                for z in sizes
                for sub in combinations(cur, z - 1)
                for i in index.get(frozenset(sub), ())
            }
            nbrs: Iterable[State] = [members[i] for i in sorted(found)]
        else:
            nbrs = (
                b for b in members
                if b not in parent and (len(cur) + len(b) <= k + 1 or len(cur | b) <= k + 1)
            )
        for nxt in nbrs:
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == sb:
                    break
                queue.append(nxt)
    if sb not in parent:
        return None

    path = [sb]
    while (prev := parent[path[-1]]) is not None:
        path.append(prev)
    return path[::-1], [sb]
