"""Simple undirected graphs over dense integer vertex ids.

All algorithm modules share this representation: vertices are 0..n-1,
edges are unordered pairs, no loops or multi-edges.  Instances are
immutable after construction, so they can be shared freely.

Queries (``neighbors``, ``has_edge``, ``reachable_from``, ``separates``,
``boundary``) trust their vertex ids.  Ids are checked where they enter:
in the constructor, ``separators.check_state``, ``ReconfigInstance`` and
the CLI.  ``separates`` stops at its target, and ``boundary`` reads N(C)
off the one search of C.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .errors import InputError

Edge = tuple[int, int]

# largest vertex count accepted from text, checked before allocating for it
MAX_VERTICES = 100_000


def check_vertex_count(n: int) -> int:
    """Refuse a vertex count read from text that exceeds MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


class Graph:
    """A finite simple undirected graph."""

    __slots__ = ("n", "edges", "_adj", "_dfs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        es: set[Edge] = set()  # a repeated edge collapses here and in adj
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
            if a == b:
                raise InputError(f"self-loop at vertex {a}")
            es.add((a, b) if a < b else (b, a))
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self.edges = frozenset(es)
        self._adj = tuple(map(frozenset, adj))
        self._dfs: tuple[list[int], list[int], list[int], list[int]] | None = None

    # -- basic queries ------------------------------------------------

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise InputError(f"vertex id {v} outside [0,{self.n})")
        return v

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- traversal ----------------------------------------------------

    def reachable_from(self, start: int, removed: frozenset[int] | set[int] = frozenset()) -> set[int]:
        """Vertices reachable from `start` (not in `removed`) in the graph
        minus `removed`."""
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in seen and y not in removed:
                    seen.add(y)
                    queue.append(y)
        return seen

    def separates(self, s: int, t: int, removed: Iterable[int]) -> bool:
        """Whether t is unreachable from s in the graph minus `removed`
        (any iterable of vertex ids): one search from s that stops the
        moment it meets t."""
        if s == t:
            return False
        adj = self._adj
        seen = {s, *removed}
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    if y == t:
                        return False
                    seen.add(y)
                    stack.append(y)
        return True

    def boundary(self, start: int, removed: frozenset[int] | set[int]) -> frozenset[int]:
        """N(C) for the component C of `start` in the graph minus
        `removed`: the removed vertices one search from `start` touches."""
        adj = self._adj
        seen = {start}
        stack = [start]
        touched = []
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    if y in removed:
                        touched.append(y)
                    else:
                        stack.append(y)
        return frozenset(touched)

    def components(self, removed: frozenset[int] | set[int] = frozenset()) -> list[set[int]]:
        """Connected components of the graph minus `removed`, each sorted
        by smallest member."""
        removed = frozenset(removed)
        seen: set[int] = set(removed)
        comps = []
        for v in range(self.n):
            if v in seen:
                continue
            comp = self.reachable_from(v, removed)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return len(self.reachable_from(0)) == self.n

    # -- structure ----------------------------------------------------

    def _lowpoints(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """One iterative Hopcroft-Tarjan lowpoint DFS from each vertex not
        yet reached, in id order: the discovery order, and per vertex id
        ``disc``, ``low`` and ``parent`` (-1 for a root)."""
        adj = self._adj
        disc = [-1] * self.n
        low = [0] * self.n
        parent = [-1] * self.n
        order: list[int] = []
        for root in range(self.n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = len(order)
            order.append(root)
            stack: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if disc[w] < 0:
                        parent[w] = v
                        disc[w] = low[w] = len(order)
                        order.append(w)
                        stack.append((w, iter(adj[w])))
                        break
                    if w != parent[v] and disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    p = parent[v]
                    if p >= 0 and low[v] < low[p]:
                        low[p] = low[v]
        return order, disc, low, parent

    def _lowpoint_dfs(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """:meth:`_lowpoints`, run on first use and kept: the graph never
        changes, and ``blocks`` and ``cut_vertices_between`` share it and
        only read it."""
        if self._dfs is None:
            self._dfs = self._lowpoints()
        return self._dfs

    def cut_vertices_between(self, s: int, t: int) -> list[int]:
        """The vertices other than s and t whose removal separates s from
        t, ascending; empty when t is unreachable from s.  Read off the
        one lowpoint DFS: v separates exactly when a child c of v has
        low[c] >= disc[v], so that no back edge leaves the subtree of c
        for a proper ancestor of v, and that subtree holds one of s and t.
        Such a v lies on the tree path between s and t, and c on it too."""
        _, disc, low, parent = self._lowpoint_dfs()
        root_path = {s}  # s and its proper ancestors
        v = s
        while (v := parent[v]) >= 0:
            root_path.add(v)
        meet = t  # the lowest common ancestor of s and t
        while meet not in root_path:
            if (meet := parent[meet]) < 0:  # t's DFS tree is not s's
                return []
        cuts = set()
        for c in (s, t):
            while c != meet:
                v = parent[c]
                if low[c] >= disc[v]:
                    cuts.add(v)
                c = v
        return sorted(cuts - {s, t})

    def blocks(self, connected: bool = False) -> list[frozenset[Edge]] | None:
        """Biconnected components as edge sets (bridges come out as
        single-edge blocks), from one lowpoint DFS.  The tree edge into v
        opens a block when low[v] >= disc[parent], and otherwise joins its
        parent's; every edge belongs with the tree edge into its later
        discovered end.  Ordered by smallest edge, which orders them as
        their sorted edge lists would, since blocks share no edge.  With
        ``connected``, None instead if the DFS needs a second root, that
        is, if the graph is disconnected (n <= 1 counts as connected)."""
        order, disc, low, parent = self._lowpoint_dfs()
        if connected and parent.count(-1) > 1:
            return None
        block = list(range(self.n))  # the block of the tree edge into v
        for v in order:
            p = parent[v]
            if p >= 0 and low[v] < disc[p]:
                block[v] = block[p]
        out: dict[int, list[Edge]] = {}
        for a, b in self.edges:
            out.setdefault(block[a] if disc[a] > disc[b] else block[b], []).append((a, b))
        return sorted((frozenset(es) for es in out.values()), key=min)

    # -- text format --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the shared graph format: first data line ``n m``, then m
        lines ``a b``; ``#`` comment lines and blank lines are skipped."""
        lines = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lines.append(line)
        if not lines:
            raise InputError("empty graph description")
        head = lines[0].split()
        if len(head) != 2:
            raise InputError(f"expected 'n m' header, got {lines[0]!r}")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise InputError(f"bad header {lines[0]!r}") from exc
        check_vertex_count(n)
        if len(lines) - 1 != m:
            raise InputError(f"header promises {m} edges, found {len(lines) - 1}")
        edges = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"bad edge line {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise InputError(f"bad edge line {line!r}") from exc
        return cls(n, edges)

    def to_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{a} {b}" for a, b in sorted(self.edges))
        return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
