"""Ground-truth brute-force solver.

Bidirectional BFS over the reconfiguration graph for all three rules,
exact shortest distances, DOT export, and the certificate check: rule
adjacency (:func:`states_adjacent`), :func:`verify_sequence`, and
:func:`certify`, which every solver calls once on the walk it returns.
Beside them, :func:`stranded_component` is the TS token count that
answers NO on any graph in O(n + m); the search itself never uses it.

Inside the search and the export a state is an int mask with vertex v
at bit n - 1 - v; states are frozensets only where they enter and where
they are returned.  One move function, :func:`_moves`, lists the
rule-adjacent candidate masks of a state for the search and the
export, from a per-search table of move bits.  A candidate is built
and looked up in O(1) int operations.  The search grows BFS layers
from the source and from the target, and tests a candidate for
separation only while neither side holds it and no earlier test has
rejected it, so a known state costs a hash lookup, not a search of the
graph.  Each test is one mask search, :func:`_separates`: O(reached
vertices) big-int operations over a table of neighbourhood masks,
stopping as soon as it meets t.  The walk returned is the one a
one-sided BFS from the source finds, rebuilt by lookups in the
corridor of shortest paths, and the state cap counts the states either
side reached.  The certificate check keeps ``Graph.separates`` on
frozenset states, so the search kernel never certifies its own walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from .errors import ContractViolationError, ResourceLimitError
from .graph import Graph
from .instance import ReconfigInstance, ReconfigSequence, Rule, Solution
from .separators import State, canon, format_state, is_separator

DEFAULT_STATE_CAP = 5_000_000


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _mask(st: State, n: int) -> int:
    """`st` as an int with vertex v at bit n - 1 - v."""
    return sum(1 << (n - 1 - v) for v in st)


def _members(mask: int, n: int) -> list[int]:
    """The vertices of `mask`, ascending: the highest bit is the smallest
    vertex."""
    out = []
    while mask:
        top = mask.bit_length()
        out.append(n - top)
        mask ^= 1 << (top - 1)
    return out


def _neighbour_masks(g: Graph) -> list[int]:
    """N(v) as a mask, in the bit layout of the states, at index n - v:
    the index of a mask's smallest vertex is the mask's bit length."""
    return [0] + [_mask(g.neighbors(v), g.n) for v in reversed(g.vertices())]


def _separates(nbr: list[int], n: int, s: int, t: int, removed: int) -> bool:
    """Whether the mask `removed` separates s from t (s != t), over the
    table `nbr` of :func:`_neighbour_masks`.  A depth-first search from
    s: take the smallest vertex of `todo`, and stop as soon as its
    unseen neighbours hold t.  A vertex with one unseen neighbour hands
    the search straight on to it, so a path costs no pushes.  Each
    reached vertex costs O(1) big-int operations; `unseen` stays
    non-negative, since an AND with a negative int makes CPython copy
    it into two's complement."""
    tbit = 1 << (n - 1 - t)
    todo = 1 << (n - 1 - s)
    unseen = ((1 << n) - 1) ^ (removed | todo)
    while todo:
        top = todo.bit_length()
        todo ^= 1 << (top - 1)
        new = nbr[top] & unseen
        while new:
            if new & tbit:
                return False
            unseen ^= new
            if new & (new - 1):
                todo |= new
                break
            new = nbr[new.bit_length()] & unseen
    return True


def _move_table(instance: ReconfigInstance) -> list[list[int]]:
    """Per vertex v, at index n - v as in :func:`_neighbour_masks`, the
    bits of the non-terminals a token on v may move to: its neighbours
    under TS, every vertex under TJ.  Under TAR every row lists every
    non-terminal, the additions."""
    g, n = instance.graph, instance.graph.n
    ends = (instance.s, instance.t)

    def bits(vs) -> list[int]:
        return [1 << (n - 1 - y) for y in sorted(vs) if y not in ends]

    if instance.rule is Rule.TS:
        return [[]] + [bits(g.neighbors(v)) for v in reversed(g.vertices())]
    return [bits(g.vertices())] * (n + 1)


def _moves(instance: ReconfigInstance, table: list[list[int]], st: int) -> list[int]:
    """Each mask rule-adjacent to the mask `st` with no terminal in it,
    once, over the table of :func:`_move_table`.  Under TAR a candidate
    that holds `st` (``c & st == st``) is an addition, which separates
    whenever `st` does; every other candidate needs a separation test."""
    tar = instance.rule is Rule.TAR
    out = []
    rest = st
    while rest:
        top = rest.bit_length()
        bit = 1 << (top - 1)
        rest ^= bit
        if tar:
            out.append(st ^ bit)
        else:
            out += [(st ^ bit) | y for y in table[top] if not st & y]
    if tar and st.bit_count() < instance.k:  # type: ignore[operator]
        out += [st | y for y in table[0] if not st & y]
    return out


def states_adjacent(rule: Rule, a: State, b: State, graph: Graph, k: int | None = None) -> bool:
    """Rule adjacency between two states (separator-ness not included)."""
    if rule is Rule.TAR:
        assert k is not None
        return len(a ^ b) == 1 and max(len(a), len(b)) <= k
    if len(a) != len(b) or len(a - b) != 1:
        return False
    if rule is Rule.TJ:
        return True
    (x,) = a - b
    (y,) = b - a
    return graph.has_edge(x, y)


def solve_bfs(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> Solution:
    """Shortest-path BFS from both ends of the implicit reconfiguration
    graph, returning the walk that one-sided BFS from the source finds.

    States are int masks (vertex v at bit n - 1 - v) until the
    certificate is returned.  Each round grows a full layer on the side
    with the smaller frontier, the source side on a tie.  The search
    stops after the first layer that meets the other ball, at distance
    a + b, or answers NO when a frontier runs dry.  The source side
    keeps `parent` and reaches the candidates of each state in
    :func:`canon` order, so its layers come out in one-sided BFS order;
    the target side keeps only `dist_t` and does not sort.  Under TS and
    TJ canon order is descending mask order.  TAR mixes sizes: there a
    candidate c sorts, descending, by c with every bit below its lowest
    one set, and a removal wins a tie, since the shorter member list is
    then a prefix of the longer.  A state yields O(k n) candidates
    (O(k Δ) under TS), each built, ordered and looked up in O(1) int
    operations; one outside both balls and not yet rejected costs a
    :func:`_separates`, a mask search of O(reached vertices) big-int
    operations, and a rejected mask is kept so that it is not tested
    again.

    One-sided BFS ranks a layer-i state by its earliest layer-(i - 1)
    neighbour, then by canon, and each layer-(i - 1) neighbour of a state
    on a shortest path is on one too.  So the walk is rebuilt in that
    corridor: from the meeting states in source-layer order, each layer
    is replayed by `dist_t` lookups, with no separation test, and first
    parents lead from the target to the meeting layer, `parent` on to
    the source.  `states_explored` and the state cap count the states
    either side reached."""
    g, s, t, n = instance.graph, instance.s, instance.t, instance.graph.n
    source, target = _mask(instance.source, n), _mask(instance.target, n)
    nbr, table = _neighbour_masks(g), _move_table(instance)
    full = (1 << n) - 1
    mixed_sizes = instance.rule is Rule.TAR
    if len({source, target}) > state_cap:
        raise ResourceLimitError(
            f"state cap {state_cap} exceeded while solving {instance.describe()}"
        )

    def in_canon_order(cur: int, moves: list[int]) -> list[int]:
        if mixed_sizes:
            moves.sort(key=lambda c: ((c | c - 1) & full) << 1 | (c < cur), reverse=True)
        else:
            moves.sort(reverse=True)
        return moves

    rejected: set[int] = set()  # candidates that failed the separation test

    def grow(frontier: list[int], ball: dict, other: dict, forward: bool) -> tuple[list[int], int]:
        layer, meets = [], 0
        for cur in frontier:
            fresh = [c for c in _moves(instance, table, cur) if c not in ball and c not in rejected]
            for nxt in in_canon_order(cur, fresh) if forward else fresh:
                if nxt in other:
                    meets += 1
                elif nxt & cur != cur and not _separates(nbr, n, s, t, nxt):
                    rejected.add(nxt)
                    continue
                elif len(ball) + len(other) - meets >= state_cap:
                    raise ResourceLimitError(
                        f"state cap {state_cap} exceeded while solving {instance.describe()}"
                    )
                ball[nxt] = cur if forward else ball[cur] + 1
                layer.append(nxt)
        return layer, meets

    parent: dict[int, int | None] = {source: None}
    dist_t = {target: 0}
    fwd, bwd, meets = [source], [target], int(source == target)
    while fwd and bwd and not meets:
        if len(fwd) <= len(bwd):
            fwd, meets = grow(fwd, parent, dist_t, True)
        else:
            bwd, meets = grow(bwd, dist_t, parent, False)
    if not meets:
        return Solution(False, states_explored=len(parent) + len(dist_t))
    layer = [v for v in fwd if v in dist_t]
    first: dict[int, int] = {}
    for j in range(dist_t[layer[0]] - 1, -1, -1):
        below = []
        for cur in layer:
            fresh = [
                c for c in _moves(instance, table, cur) if dist_t.get(c) == j and c not in first
            ]
            for nxt in in_canon_order(cur, fresh):
                first[nxt] = cur
                below.append(nxt)
        layer = below
    chain = [target]
    while chain[-1] in first:
        chain.append(first[chain[-1]])
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])  # type: ignore[arg-type]
    seq: ReconfigSequence = [frozenset(_members(m, n)) for m in reversed(chain)]
    return Solution(True, certify(instance, seq), len(parent) + len(dist_t) - meets)


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


def certify(instance: ReconfigInstance, seq: ReconfigSequence) -> ReconfigSequence:
    """Return ``seq`` if it is a valid certificate for ``instance``; raise
    :class:`ContractViolationError` otherwise.  Every solver certifies
    through here once, before it returns."""
    check = verify_sequence(instance, seq)
    if not check:
        raise ContractViolationError(f"constructed sequence invalid: {check.reason}")
    return seq


def stranded_component(instance: ReconfigInstance) -> frozenset[int] | None:
    """For a TS instance, a component of G - ({s, t} ∪ (N(s) ∩ N(t))) on
    which the source and target hold different numbers of tokens, else
    None (always None under TJ and TAR).  A returned component makes the
    answer NO on any graph: each common neighbour w of s and t lies in
    every separator, since s-w-t is a path, so its token never moves and
    no token slides onto it, and no token slides onto s or t; so a slide
    keeps every token inside its component.  One components pass,
    O(n + m)."""
    if instance.rule is not Rule.TS:
        return None
    g, s, t = instance.graph, instance.s, instance.t
    for comp in g.components({s, t} | (g.neighbors(s) & g.neighbors(t))):
        if len(instance.source & comp) != len(instance.target & comp):
            return frozenset(comp)
    return None


def enumerate_states(instance: ReconfigInstance, state_cap: int = DEFAULT_STATE_CAP) -> list[State]:
    """All separator states within the rule's cardinality bounds, in
    canon order: one :func:`_separates` mask search per subset of the
    non-terminals within those bounds."""
    g, s, t, n = instance.graph, instance.s, instance.t, instance.graph.n
    nbr = _neighbour_masks(g)
    pool = [v for v in g.vertices() if v not in (s, t)]
    if instance.rule is Rule.TAR:
        assert instance.k is not None
        sizes = range(min(instance.k, len(pool)) + 1)
    else:
        sizes = range(len(instance.source), len(instance.source) + 1)
    states = []
    for r in sizes:
        for combo in combinations(pool, r):
            if _separates(nbr, n, s, t, _mask(combo, n)):
                states.append(frozenset(combo))
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
    the enumeration (one mask search per subset within the size bounds,
    O(reached vertices) big-int operations) plus O(k n) candidates per
    state, not a test of every state pair.  Edges are listed by index of
    their first end, then of their second."""
    states = enumerate_states(instance, state_cap)
    n = instance.graph.n
    masks = [_mask(st, n) for st in states]
    index = {m: i for i, m in enumerate(masks)}
    table = _move_table(instance)
    edges = []
    for i, a in enumerate(masks):
        later = sorted(
            j for j in (index.get(b, -1) for b in _moves(instance, table, a)) if j > i
        )
        edges.extend((states[i], states[j]) for j in later)
    return ReconfigGraph(states, edges, instance.rule, instance.k)
