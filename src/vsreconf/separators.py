"""Separator predicates shared by every solver.

A state is a frozenset of vertex ids (token positions).  Canonical
encodings for hashing/printing are the sorted tuples produced by
:func:`canon`.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice
from typing import Iterable

from .errors import ContractViolationError, InputError, InvalidInstanceError
from .graph import Graph

State = frozenset[int]


def canon(s: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def format_state(s: Iterable[int]) -> str:
    """A state as a line: its ids, ascending and space-separated."""
    return " ".join(map(str, canon(s)))


def _check_terminals(g: Graph, s: int, t: int) -> None:
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        raise InputError("terminals must be distinct")


def check_separable(g: Graph, s: int, t: int) -> None:
    """Refuse terminals that no state separates: bad ids, equal or adjacent."""
    _check_terminals(g, s, t)
    if g.has_edge(s, t):
        raise InvalidInstanceError("terminals are adjacent: no separator exists")


def check_state(g: Graph, s: int, t: int, sep: Iterable[int]) -> State:
    """Validate a candidate state against the graph and terminals."""
    _check_terminals(g, s, t)
    sep = frozenset(sep)
    for v in sep:
        g.check_vertex(v)
    if s in sep or t in sep:
        raise InputError("state may not contain a terminal")
    return sep


def is_separator(g: Graph, s: int, t: int, sep: Iterable[int]) -> bool:
    """True iff t is unreachable from s in G minus the state."""
    return g.separates(s, t, check_state(g, s, t, sep))


def is_minimal_separator(g: Graph, s: int, t: int, sep: Iterable[int]) -> bool:
    """Minimal iff both sides are full (every member has a neighbour in the
    components of s and of t), the same as "dropping any one vertex breaks
    it" and as proper-subset minimality.  Three O(n + m) searches."""
    sep = check_state(g, s, t, sep)
    return g.separates(s, t, sep) and g.boundary(s, sep) == sep == g.boundary(t, sep)


def shrink_to_minimal(g: Graph, s: int, t: int, sep: Iterable[int]) -> State:
    """Deterministic minimal separator contained in `sep`.

    Takes the neighborhood of the s-side component, then the neighborhood
    of the t-side component of the intermediate cut.  The result is
    minimal by construction (every member has a neighbour on both
    sides), so it is not re-checked; callers that need the proof, such
    as ``reconfigure_to_canonical``, check their input themselves.
    """
    sep = check_state(g, s, t, sep)
    if not g.separates(s, t, sep):
        raise ContractViolationError("shrink_to_minimal requires a separator")
    return g.boundary(t, g.boundary(s, sep))


def pad_state(g: Graph, s: int, t: int, sep: Iterable[int], k: int) -> State:
    """``sep`` filled up to k tokens with the smallest free non-terminal
    ids.  Its one caller, ``tar_tj._tar_to_tj``, makes sure ``sep`` has at
    most k."""
    sep = frozenset(sep)
    free = (v for v in g.vertices() if v not in sep and v not in (s, t))
    return sep | frozenset(islice(free, k - len(sep)))


# -- brute-force oracles (used as ground truth in tests and by the
#    enumeration acceptance checks) ----------------------------------

def brute_force_separators(g: Graph, s: int, t: int, max_size: int | None = None):
    """Every st-separator, by full subset enumeration."""
    _check_terminals(g, s, t)
    pool = [v for v in g.vertices() if v not in (s, t)]
    hi = len(pool) if max_size is None else min(max_size, len(pool))
    for r in range(hi + 1):
        for combo in combinations(pool, r):
            cand = frozenset(combo)
            if is_separator(g, s, t, cand):
                yield cand


def brute_force_minimal_separators(g: Graph, s: int, t: int) -> set[State]:
    """Every minimal st-separator, by filtering the full subset lattice."""
    return {
        sep
        for sep in brute_force_separators(g, s, t)
        if is_minimal_separator(g, s, t, sep)
    }


def minimum_separator_size(g: Graph, s: int, t: int) -> int:
    """Size of a minimum st-separator, by max-flow (vertex-disjoint
    paths; Menger).  Terminals must be non-adjacent."""
    check_separable(g, s, t)
    # Split each non-terminal vertex v into v_in -> v_out with capacity 1
    # and run unit-capacity augmenting paths.
    n = g.n
    INF = n + 1

    def vin(v: int) -> int:
        return 2 * v

    def vout(v: int) -> int:
        return 2 * v + 1

    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {}

    def add(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for v in g.vertices():
        add(vin(v), vout(v), INF if v in (s, t) else 1)
    for a, b in g.edges:
        add(vout(a), vin(b), INF)
        add(vout(b), vin(a), INF)

    source, sink = vout(s), vin(t)
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent and cap.get((x, y), 0) > 0:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return flow
        y = sink
        while y != source:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1
