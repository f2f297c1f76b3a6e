"""Separator reconfiguration on graphs that are two overlapping cliques.

A connected, non-complete graph on at least four vertices that contains
neither three pairwise non-adjacent vertices nor an induced diamond is
either (i) two cliques sharing a single cut vertex, (ii) two disjoint
cliques whose cross edges form a matching, or (iii) the five-cycle.  On
these graphs TAR and TJ instances are always reconfigurable (unless a
TAR endpoint is stuck by minimality), by the cut-vertex rule of
``solve_via_tj`` on shape (i) and by passage flips on shape (ii), which
move a token across a matching edge only.  TS instances reduce to token
counting per component once s, t and their common neighbours are
removed; that NO rule holds on any graph, so the TS solver answers it
before it asks for the class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolationError, InputError, NotApplicableError
from .graph import Graph
from .instance import ReconfigInstance, Rule, Solution
from .oracle import solve_bfs, stranded_component
from .separators import State
from .tar_tj import solve_via_tj


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
    """The cyclic order of the graph if it is the five-cycle, which is the
    only simple 2-regular graph on five vertices."""
    if g.n != 5 or len(g.edges) != 5 or any(g.degree(v) != 2 for v in g.vertices()):
        return None
    order = [0]
    prev = None
    while len(order) < 5:
        nxt = min(x for x in g.neighbors(order[-1]) if x != prev)
        prev = order[-1]
        order.append(nxt)
    return tuple(order)


def _complement_sides(g: Graph) -> list[tuple[set[int], set[int]]]:
    """The complement's components, in order of their smallest vertex,
    each split into its two colour classes (the one holding that vertex
    first), from one pass over the complement's neighbour sets V - N[v].
    Empty if the complement has an odd cycle or more than two components,
    which no two-clique shape's complement has."""
    everyone = frozenset(g.vertices())
    colour: dict[int, int] = {}
    comps: list[tuple[set[int], set[int]]] = []
    for root in g.vertices():
        if root in colour:
            continue
        if len(comps) == 2:
            return []
        colour[root] = 0
        comps.append(({root}, set()))
        queue = [root]
        for x in queue:
            c = colour[x]
            for y in everyone - g.neighbors(x) - {x}:
                if y not in colour:
                    colour[y] = 1 - c
                    comps[-1][1 - c].add(y)
                    queue.append(y)
                elif colour[y] == c:
                    return []
    return comps


def characterize(g: Graph) -> Characterization:
    """Match the graph against the three in-scope shapes.

    Deterministic: cut-vertex variant first, then matched cliques (vertex
    0 in the first clique, which joins its colour class first to the
    class holding the other complement component's smallest vertex, then
    to the other class), then the five-cycle.

    Every in-scope shape has at least C(floor(n/2), 2) + C(ceil(n/2), 2)
    edges (two cliques covering the vertices; the five-cycle meets the
    bound), so sparser graphs are refused by that O(1) edge count first,
    before the linear-time connectivity check and any quadratic work.

    The two-clique shapes are read off one pass over the complement's
    neighbour sets with one 2-colouring: the complement of two cliques
    sharing a cut vertex w is w isolated plus a complete bipartite graph,
    and that of two matched cliques Q1, Q2 is K_{|Q1|,|Q2|} minus a
    matching, with at most two components.  A complement with an odd
    cycle leaves only the five-cycle.  O(n) set differences of size n.
    """
    n, m = g.n, len(g.edges)
    if n < 4:
        return NotInScope("fewer than 4 vertices")
    if m == n * (n - 1) // 2:
        return NotInScope("complete graph")
    half = n // 2
    if m < half * (half - 1) // 2 + (n - half) * (n - half - 1) // 2:
        return _OUT_OF_CLASS
    if not g.is_connected():
        return NotInScope("disconnected")
    comps = _complement_sides(g)
    isolated = [left for left, right in comps if not right]
    if len(comps) == 2 and len(isolated) == 1:
        # w is isolated, and the rest must be complete bipartite between
        # the two cliques' other vertices
        ((w,),) = isolated
        a, b = next(c for c in comps if c[1])
        if len(a) * len(b) == n * (n - 1) // 2 - m:
            return CutVertexCliques(frozenset(a | {w}), frozenset(b | {w}), w)
    choices = [left for left, _ in comps[:1]]  # vertex 0's colour class
    if len(comps) == 2:
        choices = [choices[0] | side for side in comps[1]]
    for q1 in choices:
        q2 = set(g.vertices()) - q1
        cross = [(x, y) for x in q1 for y in g.neighbors(x) & q2]
        ends = [v for e in cross for v in e]
        if q2 and len(ends) == len(set(ends)):
            return MatchedCliques(frozenset(q1), frozenset(q2), frozenset(cross))
    order = _c5_order(g)
    if order is not None:
        return SpecialC5(order)
    return _OUT_OF_CLASS


def _require_class(g: Graph) -> Characterization:
    ch = characterize(g)
    if isinstance(ch, NotInScope):
        raise NotApplicableError(f"graph outside the two-clique class: {ch.reason}")
    return ch


def _tj_walk(
    instance: ReconfigInstance, ch: MatchedCliques
) -> tuple[list[State], list[State]]:
    """Passage flips from each distinct endpoint of a matched-cliques
    instance: for each matching edge in sorted order, the token on the
    other endpoint jumps onto the chosen one, the terminal's partner or
    else the q1 end, unless the chosen one holds a token already.

    Say s lies in Q1 and t in Q2.  Every st-path crosses by a matching
    edge, and each matching edge (x, y) lies on the path s - x - y - t
    (x = s or y = t allowed).  So a state separates iff it holds a
    non-terminal endpoint of every matching edge.  A separator that
    misses the chosen endpoint thus holds the other one, and the state
    after the flip still holds a non-terminal endpoint of every edge, so
    it separates too.  Consecutive states are one jump apart, and both
    walks end holding every chosen endpoint, a common separator."""
    s, t = instance.s, instance.t

    def flips(x: State) -> list[State]:
        seq = [x]
        for a, b in sorted(ch.matching):
            chosen, other = (b, a) if a in (s, t) else (a, b)
            if chosen not in seq[-1]:
                seq.append(seq[-1] - {other} | {chosen})
        return seq

    return flips(instance.source), flips(instance.target)


def solve_tar_tj_3p1d(instance: ReconfigInstance) -> Solution:
    """Always-YES constructive solver for TJ (and TAR via conversion) on
    the two-clique class; the only NO answers are stuck TAR endpoints.
    The cut vertex separates the non-adjacent terminals, so
    ``solve_via_tj`` asks for chains on matched cliques only.  The
    five-cycle's state space is tiny, so exhaustive search answers it."""
    ch = _require_class(instance.graph)
    if instance.rule is Rule.TS:
        raise InputError("TS instances are handled by solve_ts_3p1d")
    if isinstance(ch, SpecialC5):
        return solve_bfs(instance)
    return solve_via_tj(instance, lambda tj: _tj_walk(tj, ch))


def solve_ts_3p1d(instance: ReconfigInstance) -> Solution:
    """TS decision by token counting.

    The NO rule, :func:`~vsreconf.oracle.stranded_component`, holds on
    any graph, in or out of the class, and runs first: a component of
    G - ({s, t} ∪ (N(s) ∩ N(t))) whose token count differs between
    source and target makes the answer NO in O(n + m).  Only then must
    the graph be in the class, where equal counts make the answer YES:
    in the cut-vertex shape the components are the two cliques less the
    cut vertex and the terminals; in the matched shape the passages
    (matching edges with neither endpoint a terminal) are exactly what
    joins the two cliques less the terminals and their matched partners;
    the five-cycle is never stranded and always YES.  Certificates come
    from exhaustive search.
    """
    if instance.rule is not Rule.TS:
        raise InputError("expects a TS instance")
    if stranded_component(instance) is not None:
        return Solution(False)
    _require_class(instance.graph)
    res = solve_bfs(instance)
    if not res.reachable:
        raise ContractViolationError("counting rule predicted YES; search says NO")
    return res
