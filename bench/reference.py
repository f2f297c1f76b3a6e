"""Correctness reference for the benchmark, independent of ``vsreconf``.

Nothing here imports the library under test.  Graphs are adjacency
bitmasks (``adj[v]`` has bit ``u`` set when ``uv`` is an edge) and
states are bitmasks of token positions, so the reference shares no data
structure or code path with the engines it checks.

* :func:`check_certificate` checks a printed move sequence: endpoints,
  every state an st-separator, cardinality and rule adjacency.
* :func:`search` is a plain breadth-first search over separator states,
  used to fix expected answers for instances small enough for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

@dataclass(frozen=True)
class Instance:
    """One reconfiguration instance as the benchmark writes it."""

    n: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int
    rule: str
    source: frozenset[int]
    target: frozenset[int]
    k: int | None = None

    def to_text(self) -> str:
        """The CLI's keyword-line instance format, with an inline graph."""
        lines = [
            " ".join(["graph", str(self.n)] + [f"{a}-{b}" for a, b in self.edges]),
            f"s {self.s}",
            f"t {self.t}",
            f"rule {self.rule}",
        ]
        if self.k is not None:
            lines.append(f"k {self.k}")
        lines.append("source " + " ".join(map(str, sorted(self.source))))
        lines.append("target " + " ".join(map(str, sorted(self.target))))
        return "\n".join(lines) + "\n"


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def members(m: int) -> list[int]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def reach(adj: list[int], start: int, blocked: int, stop: int = -1) -> int:
    """Bitmask of vertices reachable from ``start`` avoiding ``blocked``;
    returns early (with ``stop`` included) once ``stop`` is reached."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen & ~blocked
        seen |= frontier
        if stop >= 0 and frontier >> stop & 1:
            break
    return seen


def separates(adj: list[int], s: int, t: int, state: int) -> bool:
    return not reach(adj, s, state, t) >> t & 1


def neighbourhood(adj: list[int], comp: int) -> int:
    out = 0
    for v in members(comp):
        out |= adj[v]
    return out & ~comp


def separator_near(adj: list[int], s: int, t: int) -> int:
    """The minimal st-separator closest to ``s``: the neighbourhood of
    t's component in G - N(s).  Terminals must be non-adjacent."""
    comp_t = reach(adj, t, adj[s])
    return neighbourhood(adj, comp_t)


def check_certificate(inst: Instance, seq: list[frozenset[int]]) -> str | None:
    """``None`` when ``seq`` is a valid reconfiguration sequence for
    ``inst``; otherwise the first reason it is not."""
    if not seq:
        return "empty sequence"
    if seq[0] != inst.source:
        return "first state differs from source"
    if seq[-1] != inst.target:
        return "last state differs from target"
    adj = adjacency(inst.n, inst.edges)
    size = len(inst.source)
    for i, st in enumerate(seq):
        if any(not 0 <= v < inst.n for v in st):
            return f"state {i} names a vertex outside the graph"
        if inst.s in st or inst.t in st:
            return f"state {i} holds a terminal"
        if inst.rule == "TAR":
            if len(st) > inst.k:
                return f"state {i} exceeds k={inst.k}"
        elif len(st) != size:
            return f"state {i} changes the token count"
        if not separates(adj, inst.s, inst.t, mask(st)):
            return f"state {i} is not an st-separator"
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        gone, new = a - b, b - a
        if inst.rule == "TAR":
            ok = len(gone) + len(new) == 1
        else:
            ok = len(gone) == 1 and len(new) == 1
            if ok and inst.rule == "TS":
                (x,), (y,) = gone, new
                ok = bool(adj[x] >> y & 1)
        if not ok:
            return f"states {i} and {i + 1} are not {inst.rule}-adjacent"
    return None


class SearchCapExceeded(Exception):
    """The reference search made more separation tests than its cap allows."""


def search(inst: Instance) -> list[frozenset[int]] | None:
    """Shortest reconfiguration sequence by breadth-first search over
    separator states, or ``None`` when the target is unreachable."""
    return explore(inst)[0]


def explore(inst: Instance, cap: int = 10**6) -> tuple[list[frozenset[int]] | None, int, int]:
    """:func:`search`, also returning how many states it met and how many
    candidate states it tested for separation.  Each state's successors
    are visited in ascending order of their sorted vertex lists, and the
    search stops as soon as it meets the target."""
    adj = adjacency(inst.n, inst.edges)
    s, t = inst.s, inst.t
    free = mask(range(inst.n)) & ~(1 << s) & ~(1 << t)
    src, dst = mask(inst.source), mask(inst.target)
    parent = {src: None}
    queue = deque([src])
    verdict: dict[int, bool] = {}
    tested = 0

    def ok(st: int) -> bool:
        if st not in verdict:
            verdict[st] = separates(adj, s, t, st)
        return verdict[st]

    while queue and dst not in parent:
        cur = queue.popleft()
        cands = []
        if inst.rule == "TAR":
            cands += [cur & ~(1 << x) for x in members(cur)]
            if bin(cur).count("1") < inst.k:
                cands += [cur | 1 << y for y in members(free & ~cur)]
        else:
            for x in members(cur):
                dests = adj[x] if inst.rule == "TS" else free
                cands += [cur & ~(1 << x) | 1 << y for y in members(dests & free & ~cur)]
        cands.sort(key=members)
        tested += len(cands)
        if tested > cap:
            raise SearchCapExceeded(f"more than {cap} separation tests")
        for nxt in cands:
            if nxt not in parent and ok(nxt):
                parent[nxt] = cur
                queue.append(nxt)
                if nxt == dst:
                    break
    if dst not in parent:
        return None, len(parent), tested
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return [frozenset(members(m)) for m in reversed(path)], len(parent), tested
