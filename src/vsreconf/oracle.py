"""Ground-truth brute-force solver.

Explicit BFS over the reconfiguration graph for all three rules, exact
shortest distances, sequence verification, and DOT export.  Every
constructive solver in the library is validated against this module.

One move generator, :func:`_moves`, lists the rule-adjacent candidates
of a state for the search, :func:`rule_neighbors` and the export.  The
search tests a candidate for separation only while it is unreached, so
the parent and siblings of a dequeued state cost a hash lookup, not a
search of the graph.  Each test is one ``Graph.separates`` search,
which stops as soon as it meets t.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import ResourceLimitError
from .graph import Graph
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution, states_adjacent
from .separators import State, canon, format_state, is_separator
from .sequence import certify

DEFAULT_STATE_CAP = 5_000_000


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _moves(instance: ReconfigInstance, st: State) -> Iterator[tuple[State, bool]]:
    """Each state rule-adjacent to `st` with no terminal in it, paired
    with whether it still needs a separation test.  TAR additions need
    none when `st` separates, because a superset of a separator
    separates.  Each candidate is yielded once."""
    g, s, t = instance.graph, instance.s, instance.t
    forbidden = {s, t}

    if instance.rule is Rule.TAR:
        k = instance.k
        assert k is not None
        for x in st:
            yield st - {x}, True
        if len(st) < k:
            for y in g.vertices():
                if y not in st and y not in forbidden:
                    yield st | {y}, False
        return

    for x in st:
        dests = g.neighbors(x) if instance.rule is Rule.TS else g.vertices()
        for y in dests:
            if y not in st and y not in forbidden:
                yield (st - {x}) | {y}, True


def rule_neighbors(instance: ReconfigInstance, st: State) -> set[State]:
    """All separator states adjacent to the separator `st` under the
    instance rule.  They are built from the instance's checked ids, so
    their separation is tested directly, without :func:`is_separator`'s
    id checks."""
    g, s, t = instance.graph, instance.s, instance.t
    return {
        cand
        for cand, needs_test in _moves(instance, st)
        if not needs_test or g.separates(s, t, cand)
    }


def solve_bfs(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> Solution:
    """Shortest-path BFS in the implicit reconfiguration graph.

    The candidates of a dequeued state that are still unreached are
    tested for separation in :func:`canon` order, and each one that
    separates is reached from it.  A dequeued state yields O(k n)
    candidates (O(k Δ) under TS), each built and looked up in O(k), and
    costs one O(n + m) separation test per candidate still unreached, a
    search from s that stops when it meets t.
    The state cap counts reached states."""
    g, s, t = instance.graph, instance.s, instance.t
    source, target = instance.source, instance.target
    parent: dict[State, State | None] = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        cur = queue.popleft()
        fresh = [m for m in _moves(instance, cur) if m[0] not in parent]
        for nxt, needs_test in sorted(fresh, key=lambda m: canon(m[0])):
            if needs_test and not g.separates(s, t, nxt):
                continue
            if len(parent) >= state_cap:
                raise ResourceLimitError(
                    f"state cap {state_cap} exceeded while solving {instance.describe()}"
                )
            parent[nxt] = cur
            if nxt == target:
                break
            queue.append(nxt)
    if target not in parent:
        return Solution(False, states_explored=len(parent))
    seq: ReconfigSequence = [target]
    while parent[seq[-1]] is not None:
        seq.append(parent[seq[-1]])  # type: ignore[arg-type]
    seq.reverse()
    return Solution(True, certify(instance, seq), len(parent))


def verify_sequence(instance: ReconfigInstance, seq: ReconfigSequence) -> VerifyResult:
    """Check endpoints, separator-ness of every state, and rule adjacency
    of every consecutive pair."""
    g, s, t = instance.graph, instance.s, instance.t
    if not seq:
        return VerifyResult(False, "empty sequence")
    if seq[0] != instance.source:
        return VerifyResult(False, "first state differs from source")
    if seq[-1] != instance.target:
        return VerifyResult(False, "last state differs from target")
    for i, st in enumerate(seq):
        if st & {s, t}:
            return VerifyResult(False, f"state {i} contains a terminal")
        if not is_separator(g, s, t, st):
            return VerifyResult(False, f"state {i} is not an st-separator")
    for i in range(len(seq) - 1):
        if not states_adjacent(instance.rule, seq[i], seq[i + 1], g, instance.k):
            return VerifyResult(
                False, f"states {i} and {i + 1} are not {instance.rule.value}-adjacent"
            )
    return VerifyResult(True)


def enumerate_states(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> list[State]:
    """All separator states within the rule's cardinality bounds."""
    g, s, t = instance.graph, instance.s, instance.t
    pool = [v for v in g.vertices() if v not in (s, t)]
    if instance.rule is Rule.TAR:
        assert instance.k is not None
        sizes = range(min(instance.k, len(pool)) + 1)
    else:
        sizes = range(len(instance.source), len(instance.source) + 1)
    states = []
    for r in sizes:
        for combo in combinations(pool, r):
            cand = frozenset(combo)
            if g.separates(s, t, cand):
                states.append(cand)
                if len(states) > state_cap:
                    raise ResourceLimitError(f"state cap {state_cap} exceeded")
    return sorted(states, key=canon)


@dataclass(frozen=True)
class ReconfigGraph:
    states: list[State]
    edges: list[tuple[State, State]]
    rule: Rule
    k: int | None

    def to_dot(self) -> str:
        label = self.rule.value + (f" k={self.k}" if self.rule is Rule.TAR else "")
        names = {st: f"s{i}" for i, st in enumerate(self.states)}
        lines = ["graph reconfig {", f'  label="{label}";']
        for st in self.states:
            lines.append(f'  {names[st]} [label="{{{format_state(st)}}}"];')
        for a, b in self.edges:
            lines.append(f"  {names[a]} -- {names[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def export_reconfig_graph(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigGraph:
    """Materialize the full reconfiguration graph for small instances.

    Edges come from :func:`_moves` of each state, each candidate looked
    up among the enumerated states instead of tested again.  The cost is
    the enumeration (one O(n + m) test per subset within the size
    bounds) plus O(k n) candidates per state, not a test of every state
    pair.  Edges are listed by index of their first end, then of their
    second."""
    states = enumerate_states(instance, state_cap)
    index = {st: i for i, st in enumerate(states)}
    edges = []
    for i, a in enumerate(states):
        later = sorted(
            j for j in (index.get(b, -1) for b, _ in _moves(instance, a)) if j > i
        )
        edges.extend((a, states[j]) for j in later)
    return ReconfigGraph(states, edges, instance.rule, instance.k)
