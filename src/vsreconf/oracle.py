"""Ground-truth brute-force solver.

Explicit BFS over the reconfiguration graph for all three rules, exact
shortest distances, sequence verification, and DOT export.  Every
constructive solver in the library is validated against this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

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


def rule_neighbors(instance: ReconfigInstance, st: State) -> set[State]:
    """All separator states adjacent to `st` under the instance rule.
    They are built from the instance's checked ids, so their separation
    is tested directly, without :func:`is_separator`'s id checks."""
    g, s, t = instance.graph, instance.s, instance.t
    forbidden = {s, t}
    out: set[State] = set()

    if instance.rule is Rule.TAR:
        k = instance.k
        assert k is not None
        for x in st:
            smaller = st - {x}
            if t not in g.reachable_from(s, smaller):
                out.add(smaller)
        if len(st) + 1 <= k:
            for y in g.vertices():
                if y not in st and y not in forbidden:
                    out.add(st | {y})  # supersets of separators separate
        return out

    for x in st:
        dests = g.neighbors(x) if instance.rule is Rule.TS else g.vertices()
        for y in dests:
            if y in st or y in forbidden:
                continue
            cand = (st - {x}) | {y}
            if t not in g.reachable_from(s, cand):
                out.add(cand)
    return out


def solve_bfs(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> Solution:
    """Shortest-path BFS in the implicit reconfiguration graph."""
    source, target = instance.source, instance.target
    parent: dict[State, State | None] = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        cur = queue.popleft()
        for nxt in sorted(rule_neighbors(instance, cur), key=canon):
            if nxt in parent:
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
            if t not in g.reachable_from(s, cand):
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
    """Materialize the full reconfiguration graph for small instances."""
    states = enumerate_states(instance, state_cap)
    edges = []
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            if states_adjacent(instance.rule, a, b, instance.graph, instance.k):
                edges.append((a, b))
    return ReconfigGraph(states, edges, instance.rule, instance.k)
