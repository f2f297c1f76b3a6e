"""Shared fixture graphs used across the test suite.

The three published example graphs are transcribed with fixed integer
ids; the mapping is documented next to each builder.
"""

from __future__ import annotations

import itertools
import random

from vsreconf.graph import Graph


def figure1_graph() -> Graph:
    """Ten-vertex graph where {u1,u2} reaches {u7,u8} under TJ but not TS.

    Ids: u=0, u1=1, u2=2, u3=3, u4=4, u5=5, u6=6, u7=7, u8=8, v=9.
    """
    edges = [
        (0, 1),
        (1, 2), (1, 4),
        (2, 3),
        (3, 4), (3, 5), (3, 6),
        (4, 5), (4, 6), (4, 7),
        (5, 6), (5, 7),
        (6, 7), (6, 8),
        (7, 8), (7, 9),
        (8, 9),
    ]
    return Graph(10, edges)


FIG1_S, FIG1_T = 0, 9
FIG1_SA = frozenset({1, 2})
FIG1_SB = frozenset({7, 8})


def figure2_graph() -> Graph:
    """Two cliques (K4 and K5) glued at a single cut vertex.

    Ids: u=0, u1=1, u2=2, z=3, v1=4, v2=5, v3=6, v=7.
    """
    q1 = [0, 1, 2, 3]
    q2 = [3, 4, 5, 6, 7]
    edges = list(itertools.combinations(q1, 2)) + list(itertools.combinations(q2, 2))
    return Graph(8, edges)


FIG2_S, FIG2_T = 0, 7
FIG2_SA = frozenset({1, 3, 4, 5})
FIG2_SB = frozenset({1, 2, 3, 6})


def figure3_graph(with_passage: bool) -> Graph:
    """Two K5 cliques joined by a matching; the u1-v1 edge is optional.

    Ids: u=0, u1=1, u2=2, u3=3, u4=4, v=5, v1=6, v2=7, v3=8, v4=9.
    Matching: u-v4 = (0,9), u2-v = (2,5), and optionally u1-v1 = (1,6).
    """
    q1 = [0, 1, 2, 3, 4]
    q2 = [5, 6, 7, 8, 9]
    edges = list(itertools.combinations(q1, 2)) + list(itertools.combinations(q2, 2))
    edges += [(0, 9), (2, 5)]
    if with_passage:
        edges.append((1, 6))
    return Graph(10, edges)


FIG3_S, FIG3_T = 0, 5
FIG3_SA = frozenset({1, 2, 3, 7, 9})
FIG3_SB = frozenset({2, 6, 7, 8, 9})


def parallel_pair_graph() -> Graph:
    """Series-parallel fixture where reaching the canonical separator
    {a,b} from {x2,y2} takes four jumps.

    Ids: a=0, b=1, x1=2, x2=3, y1=4, y2=5, z1=6, z2=7, s=8, t=9.
    """
    edges = [
        (0, 2), (0, 8),
        (1, 8), (1, 4),
        (4, 6), (2, 6),
        (2, 3),
        (3, 7), (5, 7),
        (5, 9), (3, 9),
        (4, 5),
    ]
    return Graph(10, edges)


PP_S, PP_T = 8, 9
PP_A = frozenset({3, 5})
PP_M = frozenset({0, 1})


def star_fixture() -> Graph:
    """s=0, t=1, c=2, pendants x=3, y=4; edges s-c, c-t, s-x, s-y."""
    return Graph(5, [(0, 2), (2, 1), (0, 3), (0, 4)])


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random G(n,p) resampled until connected."""
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.is_connected():
            return g


def nonadjacent_pairs(g: Graph):
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                yield s, t


def all_labeled_connected_graphs(n: int):
    """Every labeled connected graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if g.is_connected():
            yield g


def random_series_parallel_graph(rng: random.Random, n: int) -> Graph:
    """Random 2-connected series-parallel graph with roughly n vertices,
    grown by random series/parallel expansions from a doubled edge."""
    # multigraph under construction: list of (u, v) with repetition
    edges = [(0, 1), (0, 1)]
    nverts = 2
    while nverts < n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.55:
            # series: subdivide
            edges.pop(i)
            edges += [(u, nverts), (nverts, v)]
            nverts += 1
        else:
            edges.append((u, v))
    return Graph(nverts, [(u, v) for u, v in edges if u != v])


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c."""
    return Graph(rows * cols, [
        (r * cols + c, r * cols + c + d)
        for r in range(rows) for c in range(cols) for d in (1, cols)
        if (d == 1 and c + 1 < cols) or (d == cols and r + 1 < rows)
    ])


def ladder_edges(m: int) -> list[tuple[int, int]]:
    """The 2 x m ladder: rails 0..m-1 and m..2m-1, rungs i - (m + i)."""
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return rails + [(i, m + i) for i in range(m)]


def theta_graph(p: int, length: int) -> tuple[Graph, list[int], list[int]]:
    """θ(p, length): terminals 0 and 1 joined by p internally disjoint
    paths of ``length`` inner vertices each, with the paths' first and
    last inner vertices (two minimal 0-1 separators of size p)."""
    paths = [list(range(2 + i * length, 2 + (i + 1) * length)) for i in range(p)]
    edges = [e for q in paths for e in [(0, q[0]), *zip(q, q[1:]), (q[-1], 1)]]
    return Graph(2 + p * length, edges), [q[0] for q in paths], [q[-1] for q in paths]
