"""Seeded instance generators for the two benchmark workloads.

Each workload joins two families of instances.  Each family is a fixed
ladder of evenly spaced sizes per kind of graph; the seed draws the graph structure, the labels and the endpoint states
at each rung, never the sizes, so runs with different seeds load the
solver alike, and the evenly spaced sizes give a smooth spread of solve
times, without gaps for a percentile to jump across.
Every case carries its expected answer and the basis for it: either a
construction argument (stated in ``basis``) or the independent
reference search of :mod:`reference`.  Nothing here imports
``vsreconf``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace

from reference import (
    Instance,
    adjacency,
    mask,
    members,
    neighbourhood,
    reach,
    SearchCapExceeded,
    explore,
    search,
    separator_near,
)


@dataclass(frozen=True)
class Case:
    name: str
    inst: Instance
    expected: str  # "YES" or "NO"
    basis: str  # why the expected answer holds
    bucket: int = 0  # 1..4, by rank in vertex count


# ---------------------------------------------------------------------------
# graph helpers


def _relabel(rng: random.Random, n: int, edges, *vertex_sets):
    """Shuffle vertex ids; returns sorted edges and the mapped sets."""
    perm = list(range(n))
    rng.shuffle(perm)
    out_edges = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    mapped = [frozenset(perm[v] for v in vs) for vs in vertex_sets]
    return out_edges, mapped


def _sp_block(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random 2-connected series-parallel graph on vertices 0..n-1:
    random series (subdivide) and parallel (duplicate) expansions of a
    doubled edge."""
    edges = [(0, 1), (0, 1)]
    nv = 2
    while nv < n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.55:
            edges[i] = (u, nv)
            edges.append((nv, v))
            nv += 1
        else:
            edges.append((u, v))
    return sorted({(min(e), max(e)) for e in edges})


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _distances(adj: list[int], s: int) -> dict[int, int]:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in members(adj[x]):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _minimal_between(adj: list[int], s: int, t: int, layer: int) -> int:
    """A minimal st-separator obtained by shrinking the BFS layer at
    distance ``layer`` from s (0 < layer < dist(s, t))."""
    dist = _distances(adj, s)
    cut = mask(v for v, d in dist.items() if d == layer)
    comp_s = reach(adj, s, cut)
    return neighbourhood(adj, reach(adj, t, neighbourhood(adj, comp_s)))


def _pad(rng: random.Random, n: int, core: int, size: int, s: int, t: int) -> frozenset[int]:
    """``core`` plus random non-terminal vertices up to ``size`` tokens."""
    pool = [v for v in range(n) if v not in (s, t) and not core >> v & 1]
    extra = rng.sample(pool, size - bin(core).count("1"))
    return frozenset(members(core)) | frozenset(extra)


def _far_pair(rng: random.Random, adj: list[int], n: int, least: int = 3) -> tuple[int, int]:
    """Random terminals at distance at least ``least`` (or 2 if none)."""
    while True:
        s = rng.randrange(n)
        dist = _distances(adj, s)
        far = [v for v, d in dist.items() if d >= least] or [
            v for v, d in dist.items() if d >= 2
        ]
        if far:
            return s, rng.choice(far)


def _reference_case(name: str, inst: Instance) -> Case:
    answer = "YES" if search(inst) is not None else "NO"
    return Case(name, inst, answer, "reference search")


# ---------------------------------------------------------------------------
# sp-tj: TJ on series-parallel graphs (always YES)

SP_SIZES = range(40, 102, 3)
SP_BLOCKS, SP_CHAINS = 2, 1  # per size
SP_YES = "construction: TJ on a graph whose blocks are series-parallel is always YES"


def _sp_endpoints(rng, n, edges, s, t):
    """The minimal separators nearest s and nearest t, padded with 0-3
    extra tokens to a common size."""
    adj = adjacency(n, edges)
    a, b = separator_near(adj, s, t), separator_near(adj, t, s)
    size = max(bin(a).count("1"), bin(b).count("1")) + rng.randint(0, 3)
    return _pad(rng, n, a, size, s, t), _pad(rng, n, b, size, s, t)


def _sp_chain(rng: random.Random, n: int):
    """Three series-parallel blocks in a row glued at cut vertices; returns
    the edges and terminals inside the two end blocks."""
    sizes = (n // 3, n // 3, n - 2 * (n // 3) + 2)
    edges, blocks, cuts = [], [], []
    for size in sizes:
        if blocks:
            glue = rng.choice(blocks[-1])
            cuts.append(glue)
            top = max(blocks[-1])
            labels = [glue] + list(range(top + 1, top + size))
        else:
            labels = list(range(size))
        edges += [(labels[a], labels[b]) for a, b in _sp_block(rng, size)]
        blocks.append(labels)
    s = rng.choice([v for v in blocks[0] if v not in cuts])
    t = rng.choice([v for v in blocks[-1] if v not in cuts])
    return edges, s, t


def gen_sp_tj(rng: random.Random) -> list[Case]:
    # vertex ids follow the construction order, as in the test fixtures
    cases = []
    for n in SP_SIZES:
        for i in range(SP_BLOCKS + SP_CHAINS):
            if i < SP_BLOCKS:
                edges = _sp_block(rng, n)
                s, t = _far_pair(rng, adjacency(n, edges), n)
                name = f"sp{n}-block{i}"
            else:
                edges, s, t = _sp_chain(rng, n)
                name = f"sp{n}-chain{i}"
            src, dst = _sp_endpoints(rng, n, edges, s, t)
            inst = Instance(n, tuple(sorted(edges)), s, t, "TJ", src, dst)
            cases.append(Case(name, inst, "YES", SP_YES))
    return cases


# ---------------------------------------------------------------------------
# tame-tar: TAR on cycles, TJ and TAR on 3 x m grids

TAME_CYCLES = range(20, 40, 2)
TAME_CYCLE_KS = (3, 4, 2)  # per size; k = 2 gives frozen NO instances
TAME_GRID_COLS = range(5, 13)
TAME_GRID_RULES = (("TJ", None),) * 2 + (("TAR", 4), ("TAR", 5), ("TAR", 3))
CYCLE_YES = ("construction: on a cycle every minimal separator is one vertex per side,"
             " and with k >= 3 a side's token moves by add-then-remove")
GRID_YES = ("construction: the column cuts of a 3 x m grid are joined by single-token"
            " steps that keep a cut in place")
FROZEN_NO = ("construction: distinct endpoints that are minimal separators of exactly"
             " k vertices cannot move under TAR(k)")


def _cycle_sides(n: int) -> tuple[list[int], list[int]]:
    half = n // 2
    return list(range(1, half)), list(range(half + 1, n))


def gen_tame_tar(rng: random.Random) -> list[Case]:
    cases = []
    for n in TAME_CYCLES:
        left, right = _cycle_sides(n)
        for i, k in enumerate(TAME_CYCLE_KS):
            a = mask([rng.choice(left), rng.choice(right)])
            b = mask([rng.choice(left), rng.choice(right)])
            while k == 2 and b == a:
                b = mask([rng.choice(left), rng.choice(right)])
            src = _pad(rng, n, a, rng.randint(2, k), 0, n // 2)
            dst = _pad(rng, n, b, rng.randint(2, k), 0, n // 2)
            edges, (ss, tt, src, dst) = _relabel(rng, n, _cycle(n), {0}, {n // 2}, src, dst)
            inst = Instance(n, edges, min(ss), min(tt), "TAR", src, dst, k)
            answer, basis = ("NO", FROZEN_NO) if k == 2 else ("YES", CYCLE_YES)
            cases.append(Case(f"cycle{n}-k{k}-{i}", inst, answer, basis))
    for cols in TAME_GRID_COLS:
        n = 3 * cols
        g_edges = _grid(3, cols)
        adj = adjacency(n, g_edges)
        s, t = cols, 2 * cols - 1  # both ends of the middle row
        for i, (rule, k) in enumerate(TAME_GRID_RULES):
            a = _minimal_between(adj, s, t, rng.randint(1, cols - 2))
            b = _minimal_between(adj, s, t, rng.randint(1, cols - 2))
            while k == 3 and b == a:
                b = _minimal_between(adj, s, t, rng.randint(1, cols - 2))
            if rule == "TJ":
                size = 3 + rng.randint(0, 2)
                src, dst = _pad(rng, n, a, size, s, t), _pad(rng, n, b, size, s, t)
            else:
                src = _pad(rng, n, a, rng.randint(3, k), s, t)
                dst = _pad(rng, n, b, rng.randint(3, k), s, t)
            edges, (ss, tt, src, dst) = _relabel(rng, n, g_edges, {s}, {t}, src, dst)
            inst = Instance(n, edges, min(ss), min(tt), rule, src, dst, k)
            answer, basis = ("NO", FROZEN_NO) if k == 3 else ("YES", GRID_YES)
            cases.append(Case(f"grid3x{cols}-{rule.lower()}-{i}", inst, answer, basis))
    return cases


# ---------------------------------------------------------------------------
# ts-oracle: TS outside both solver classes

TS_CYCLES = range(14, 20)
TS_GRIDS = ((3, 5), (4, 4), (3, 6), (4, 5), (3, 7))
TS_GNP = range(14, 19)
# every TS case is redrawn until a search in solve_bfs's order tests this
# many candidate states for separation (the oracle's is_separator calls):
# enough work for the oracle to dominate the solve, and a narrow band, so
# that the load does not hinge on a few heavy draws of the seed
TS_CHECKS = (1000, 3000)
TS_DRAWS = 1000
CYCLE_TS = ("construction: on a cycle no token can slide past a terminal, so TS is"
            " YES iff both sides keep their token counts")


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if reach(adjacency(n, edges), 0, 0) == (1 << n) - 1:
            return edges


def _separators_between(rng: random.Random, n: int, edges) -> Instance:
    """Two minimal separators between far-apart terminals, each padded
    with 1-2 extra tokens to a common size."""
    adj = adjacency(n, edges)
    s, t = _far_pair(rng, adj, n)
    far = _distances(adj, s)[t]
    a = _minimal_between(adj, s, t, rng.randint(1, far - 1))
    b = _minimal_between(adj, s, t, rng.randint(1, far - 1))
    size = max(bin(a).count("1"), bin(b).count("1")) + rng.randint(1, 2)
    src, dst = _pad(rng, n, a, size, s, t), _pad(rng, n, b, size, s, t)
    edges, (ss, tt, src, dst) = _relabel(rng, n, edges, {s}, {t}, src, dst)
    return Instance(n, edges, min(ss), min(tt), "TS", src, dst)


def _cycle_tokens(rng: random.Random, n: int) -> tuple[Instance, str]:
    """1-2 tokens beyond a minimal separator, split over both sides."""
    left, right = _cycle_sides(n)
    tokens = 2 + rng.randint(1, 2)
    states = []
    for _ in range(2):
        on_left = rng.randint(1, tokens - 1)
        states.append(frozenset(rng.sample(left, on_left) + rng.sample(right, tokens - on_left)))
    same = len(states[0] & set(left)) == len(states[1] & set(left))
    edges, (ss, tt, src, dst) = _relabel(rng, n, _cycle(n), {0}, {n // 2}, *states)
    return Instance(n, edges, min(ss), min(tt), "TS", src, dst), "YES" if same else "NO"


def _banded(rng: random.Random, name: str, draw) -> Case:
    """A TS case from ``draw`` whose reference search makes a number of
    separation tests inside TS_CHECKS; ``draw`` returns an instance and
    its expected answer by construction, or None."""
    lo, hi = TS_CHECKS
    for _ in range(TS_DRAWS):
        inst, claimed = draw()
        try:
            path, _, tested = explore(inst, hi)
        except SearchCapExceeded:
            continue
        if tested < lo:
            continue
        answer = "YES" if path is not None else "NO"
        if claimed is None:
            return Case(name, inst, answer, "reference search")
        if claimed != answer:
            raise ValueError(f"{name}: construction says {claimed}, search says {answer}")
        return Case(name, inst, claimed, CYCLE_TS)
    raise ValueError(f"{name}: no draw in {TS_DRAWS} meets {lo}-{hi} states")


def gen_ts_oracle(rng: random.Random) -> list[Case]:
    cases = []
    for n in TS_CYCLES:
        for i in range(3):
            cases.append(_banded(rng, f"cycle{n}-{i}", lambda: _cycle_tokens(rng, n)))
    for rows, cols in TS_GRIDS:
        for i in range(5):
            draw = lambda: (_separators_between(rng, rows * cols, _grid(rows, cols)), None)
            cases.append(_banded(rng, f"grid{rows}x{cols}-{i}", draw))
    for n in TS_GNP:
        for i in range(5):
            draw = lambda: (_separators_between(rng, n, _gnp(rng, n, 0.25)), None)
            cases.append(_banded(rng, f"gnp{n}-{i}", draw))
    return cases


# ---------------------------------------------------------------------------
# class-2clique: the two-clique class and cocktail-party adversaries

CLASS_CUT_TS = range(8, 16)
CLASS_MATCHED_TS = (8, 10, 12, 14)
CLASS_BIG = range(12, 28, 2)
CLASS_PARTY = range(14, 22, 2)
CLASS_YES = "construction: TJ (and TAR with a movable endpoint) on the two-clique class is always YES"
PARTY_YES = "construction: source equals target"


def _cut_cliques(n: int):
    """Cliques on 0..a-1 and a-1..n-1 sharing the cut vertex a-1."""
    a = n // 2
    q1, q2 = list(range(a)), list(range(a - 1, n))
    edges = [(x, y) for q in (q1, q2) for i, x in enumerate(q) for y in q[i + 1:]]
    return edges, q1, q2, a - 1


def _matched_cliques(rng: random.Random, q: int, pairs: int):
    q1, q2 = list(range(q)), list(range(q, 2 * q))
    edges = [(x, y) for c in (q1, q2) for i, x in enumerate(c) for y in c[i + 1:]]
    matching = list(zip(rng.sample(q1, pairs), rng.sample(q2, pairs)))
    return edges + matching, q1, q2, matching


def _unmatched_terminals(rng, q1, q2, matching) -> tuple[int, int]:
    s = rng.choice([x for x in q1 if x not in {m[0] for m in matching}])
    t = rng.choice([y for y in q2 if y not in {m[1] for m in matching}])
    return s, t


def _class_instance(rng, n, edges, s, t, rule, src, dst, k=None) -> Instance:
    edges, (ss, tt, src, dst) = _relabel(rng, n, edges, {s}, {t}, src, dst)
    return Instance(n, edges, min(ss), min(tt), rule, src, dst, k)


def _matched_state(rng, n, matching, s, t, size) -> frozenset[int]:
    """One endpoint of every matching edge (the non-terminal one when an
    edge touches a terminal), padded to ``size``."""
    core = 0
    for x, y in matching:
        pick = y if x in (s, t) else x if y in (s, t) else rng.choice((x, y))
        core |= 1 << pick
    return _pad(rng, n, core, max(size, bin(core).count("1")), s, t)


def gen_class_2clique(rng: random.Random) -> list[Case]:
    cases = []
    # TS on small members (expected answer by search)
    for n in CLASS_CUT_TS:
        edges, q1, q2, w = _cut_cliques(n)
        for i in range(2):
            s, t = rng.choice(q1[:-1]), rng.choice(q2[1:])
            k = rng.randint(2, 4)
            src, dst = _pad(rng, n, 1 << w, k, s, t), _pad(rng, n, 1 << w, k, s, t)
            inst = _class_instance(rng, n, edges, s, t, "TS", src, dst)
            cases.append(_reference_case(f"cutcliques{n}-ts-{i}", inst))
    for n in CLASS_MATCHED_TS:
        for i, passage in enumerate((True, True, False)):
            if passage:
                edges, q1, q2, matching = _matched_cliques(rng, n // 2, rng.randint(2, 3))
                s, t = _unmatched_terminals(rng, q1, q2, matching)
            else:
                # every matching edge touches a terminal: no passage
                edges, q1, q2, matching = _matched_cliques(rng, n // 2, 2)
                (s, _), (_, t) = matching
            k = len(matching) + rng.randint(0, 1)
            src = _matched_state(rng, n, matching, s, t, k)
            dst = _matched_state(rng, n, matching, s, t, k)
            inst = _class_instance(rng, n, edges, s, t, "TS", src, dst)
            tag = "passage" if passage else "nopassage"
            cases.append(_reference_case(f"matched{n}-{tag}-ts-{i}", inst))
    # the five-cycle under each rule (tiny; expected answer by search)
    for rule, k in (("TS", None), ("TJ", None), ("TAR", 3)):
        src = frozenset({1, rng.choice((3, 4))})
        dst = frozenset({1, rng.choice((3, 4))})
        inst = _class_instance(rng, 5, _cycle(5), 0, 2, rule, src, dst, k)
        cases.append(_reference_case(f"c5-{rule.lower()}", inst))
    # TJ and TAR on larger members (expected answer by construction)
    for n in CLASS_BIG:
        edges, q1, q2, w = _cut_cliques(n)
        s, t = rng.choice(q1[:-1]), rng.choice(q2[1:])
        k = rng.randint(3, 6)
        src, dst = _pad(rng, n, 1 << w, k, s, t), _pad(rng, n, 1 << w, k, s, t)
        inst = _class_instance(rng, n, edges, s, t, "TJ", src, dst)
        cases.append(Case(f"cutcliques{n}-tj", inst, "YES", CLASS_YES))
        inst = _class_instance(rng, n, edges, s, t, "TAR", src, dst, k + 1)
        cases.append(Case(f"cutcliques{n}-tar", inst, "YES", CLASS_YES))
        if n % 2:
            continue  # matched cliques come in pairs of equal size
        edges, q1, q2, matching = _matched_cliques(rng, n // 2, n // 4)
        s, t = _unmatched_terminals(rng, q1, q2, matching)
        p = len(matching)
        src = _matched_state(rng, n, matching, s, t, p + 2)
        dst = _matched_state(rng, n, matching, s, t, p + 2)
        inst = _class_instance(rng, n, edges, s, t, "TJ", src, dst)
        cases.append(Case(f"matched{n}-tj", inst, "YES", CLASS_YES))
        inst = _class_instance(rng, n, edges, s, t, "TAR", src, dst, p + 3)
        cases.append(Case(f"matched{n}-tar", inst, "YES", CLASS_YES))
        src = _matched_state(rng, n, matching, s, t, p)
        dst = _matched_state(rng, n, matching, s, t, p)
        while dst == src:
            dst = _matched_state(rng, n, matching, s, t, p)
        inst = _class_instance(rng, n, edges, s, t, "TAR", src, dst, p)
        cases.append(Case(f"matched{n}-tar-frozen", inst, "NO", FROZEN_NO))
    # cocktail party K_2m minus a perfect matching: outside the class,
    # and the only separator is every non-terminal vertex
    for n in CLASS_PARTY:
        edges = [(x, y) for x in range(n) for y in range(x + 1, n) if x // 2 != y // 2]
        rest = frozenset(range(2, n))
        inst = _class_instance(rng, n, edges, 0, 1, "TJ", rest, rest)
        cases.append(Case(f"party{n}-tj", inst, "YES", PARTY_YES))
    return cases


# the four families of instances, each built to load one solver
PARTS = {
    "sp-tj": gen_sp_tj,
    "tame-tar": gen_tame_tar,
    "ts-oracle": gen_ts_oracle,
    "class-2clique": gen_class_2clique,
}
# two families to a workload, so that each of the four solver routes is
# loaded by one workload and bypassed by the other, with runs twice as
# long as four workloads would allow
WORKLOADS = {
    "sp-tame": ("sp-tj", "tame-tar"),
    "oracle-class": ("ts-oracle", "class-2clique"),
}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of ``workload`` for ``seed``; equal seeds give equal cases.

    Each family draws from its own generator seeded by its name, and the
    cases are put in four size buckets by their rank in vertex count.
    """
    cases = [c for part in WORKLOADS[workload]
             for c in PARTS[part](random.Random(f"{part}:{seed}"))]
    if len({c.name for c in cases}) != len(cases):
        raise ValueError(f"{workload}: case names are not unique")
    order = sorted(range(len(cases)), key=lambda i: cases[i].inst.n)
    for rank, i in enumerate(order):
        cases[i] = replace(cases[i], bucket=1 + 4 * rank // len(cases))
    return cases
