import contextlib
import hashlib
import io
import itertools
import random
import sys
import time

import pytest

from vsreconf import Solution, minsep, solve
from vsreconf.cli import format_instance, main as cli_main
from vsreconf.cliquepair import NotInScope, characterize
from vsreconf.errors import InputError, NotApplicableError
from vsreconf.graph import Graph, cycle_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.minsep import tame_solve
from vsreconf.oracle import solve_bfs, verify_sequence

from fixtures import (
    grid_graph,
    nonadjacent_pairs,
    random_connected_graph,
    random_series_parallel_graph,
    theta_graph,
)
from ground_truth import brute_force_separators, is_minimal_separator


def F(*xs):
    return frozenset(xs)


def bowtie():
    """Two triangles glued at cut vertex 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def prism():
    """Triangles {0,1,2} and {3,4,5} joined by a perfect matching."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


class TestRoutes:
    @pytest.mark.parametrize(
        "g, rule, source, target, k, engine",
        [
            (bowtie(), Rule.TJ, F(2), F(2), None, "class"),
            (cycle_graph(6), Rule.TJ, F(1, 5), F(2, 4), None, "sp"),
            (cycle_graph(6), Rule.TAR, F(1, 5), F(2, 4), 3, "sp"),
            (cycle_graph(6), Rule.TS, F(1, 5), F(2, 4), None, "oracle"),
        ],
    )
    def test_auto_names_the_route(self, g, rule, source, target, k, engine):
        inst = ReconfigInstance(g, 0, 3, rule, source, target, k)
        res = solve(inst)
        assert isinstance(res, Solution) and res.engine == engine
        assert res.reachable and verify_sequence(inst, res.sequence)

    def test_explicit_engine_is_named(self):
        inst = ReconfigInstance(cycle_graph(6), 0, 3, Rule.TJ, F(1, 5), F(2, 4))
        assert solve(inst, "oracle").engine == "oracle"

    def test_unknown_engine(self):
        inst = ReconfigInstance(cycle_graph(6), 0, 3, Rule.TJ, F(1, 5), F(1, 5))
        with pytest.raises(InputError):
            solve(inst, "fastest")

    def test_distance_reads_the_sequence(self):
        assert Solution(True, [F(1), F(2), F(3)]).distance == 2
        assert Solution(False).distance is None


@pytest.mark.parametrize(
    "g, t, rule, source, target, k, engine",
    [
        (bowtie(), 4, Rule.TJ, F(2), F(2), None, "class"),
        (prism(), 4, Rule.TAR, F(1, 2, 3), F(1, 3, 5), 3, "class"),
        (cycle_graph(6), 3, Rule.TJ, F(1, 5), F(2, 4), None, "sp"),
    ],
    ids=["cut-vertex", "matched", "series-parallel"],
)
def test_auto_characterizes_once(monkeypatch, g, t, rule, source, target, k, engine):
    # every module that holds the class test is patched, whatever its import
    calls = []

    def counted(graph):
        calls.append(graph)
        return characterize(graph)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("vsreconf") and getattr(mod, "characterize", None) is characterize:
            monkeypatch.setattr(mod, "characterize", counted)
    res = solve(ReconfigInstance(g, 0, t, rule, source, target, k))
    assert res.engine == engine
    assert len(calls) == 1


@pytest.mark.parametrize(
    "g, s, t, engine",
    [
        (bowtie(), 0, 4, "class"),
        (prism(), 0, 4, "class"),
        (cycle_graph(5), 0, 2, "class"),
        (cycle_graph(6), 0, 3, "sp"),
    ],
    ids=["cut-vertex", "matched", "c5", "c6"],
)
@pytest.mark.parametrize("extra", [0, 3], ids=["k=n", "k=n+3"])
def test_class_tar_bound_above_n_matches_oracle(g, s, t, engine, extra):
    k = g.n + extra
    seps = sorted(brute_force_separators(g, s, t), key=sorted)
    for a, b in itertools.product(seps, repeat=2):
        inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        res = solve(inst)
        assert res.engine == engine
        assert res.reachable == solve_bfs(inst).reachable, (sorted(a), sorted(b))
        if res.reachable:
            assert verify_sequence(inst, res.sequence)


def test_tar_on_series_parallel_graphs_matches_oracle():
    rng = random.Random(11)
    done = frozen = 0
    while done < 150:
        g = random_series_parallel_graph(rng, rng.randint(5, 10))
        if not isinstance(characterize(g), NotInScope):
            continue  # a two-clique graph goes to the class route first
        s, t = rng.choice(list(nonadjacent_pairs(g)))
        seps = sorted(brute_force_separators(g, s, t), key=sorted)
        a, b = rng.choice(seps), rng.choice(seps)
        k = max(len(a), len(b)) + rng.randint(0, 2)
        if rng.random() < 0.25:
            # a frozen source: a minimal separator of exactly k vertices
            a = rng.choice([x for x in seps if is_minimal_separator(g, s, t, x)])
            b = rng.choice([x for x in seps if len(x) <= len(a)])
            k = len(a)
        inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        res = solve(inst)
        assert res.engine == "sp"
        assert res.reachable == solve_bfs(inst).reachable, (g.to_text(), s, t, k, sorted(a), sorted(b))
        if res.reachable:
            assert verify_sequence(inst, res.sequence)
        frozen += a != b and len(a) == k and is_minimal_separator(g, s, t, a)
        done += 1
    assert frozen >= 15


def test_theta_tar_is_answered_by_sp(monkeypatch):
    # θ(6, 4) has 4^6 minimal separators; the tame route must not run
    def refused(instance):
        raise AssertionError("tame_solve called")

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("vsreconf") and getattr(mod, "tame_solve", None) is tame_solve:
            monkeypatch.setattr(mod, "tame_solve", refused)
    g, first, last = theta_graph(6, 4)
    inst = ReconfigInstance(g, 0, 1, Rule.TAR, first, last, 7)
    res = solve(inst)
    assert res.engine == "sp" and res.reachable
    assert verify_sequence(inst, res.sequence)


def connected_terminals(rng):
    """G(n, p) on 4..7 vertices, connected, with a non-adjacent pair."""
    g = random_connected_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
    pairs = list(nonadjacent_pairs(g))
    return (g, *rng.choice(pairs)) if pairs else None


def two_components(apart):
    """Two connected G(n, p) side by side, with s and t in one of them,
    or one in each when ``apart``."""

    def draw(rng):
        g1 = random_connected_graph(rng, rng.randint(2 if apart else 3, 4))
        g2 = random_connected_graph(rng, rng.randint(2, 4))
        n1 = g1.n
        g = Graph(n1 + g2.n, [*g1.edges, *((a + n1, b + n1) for a, b in g2.edges)])
        if apart:
            return g, rng.randrange(n1), n1 + rng.randrange(g2.n)
        pairs = list(nonadjacent_pairs(g1))
        return (g, *rng.choice(pairs)) if pairs else None

    return draw


def test_solve_matches_oracle_on_random_instances():
    for draw in (connected_terminals, two_components(False), two_components(True)):
        rng = random.Random(3)
        done = 0
        while done < 120:
            drawn = draw(rng)
            if drawn is None:
                continue
            g, s, t = drawn
            seps = sorted(brute_force_separators(g, s, t), key=sorted)
            a, b = rng.choice(seps), rng.choice(seps)
            same = [x for x in seps if len(x) == len(a)]
            for rule in Rule:
                if rule is Rule.TAR:
                    k = max(len(a), len(b), 1) + rng.randint(0, 2)
                    inst = ReconfigInstance(g, s, t, rule, a, b, k)
                else:
                    inst = ReconfigInstance(g, s, t, rule, a, rng.choice(same))
                res = solve(inst)
                assert res.reachable == solve_bfs(inst).reachable, (
                    g.to_text(), s, t, inst.describe(), sorted(inst.source), sorted(inst.target),
                )
                if res.reachable:
                    assert verify_sequence(inst, res.sequence)
            done += 1


def glued_pieces(rng):
    """Two or three connected pieces (cliques, series-parallel blocks or
    G(n, p)) on at most 9 vertices, each glued at its vertex 0 onto a
    random vertex of the graph so far, which starts as one vertex."""
    n, edges = 1, []
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(2, min(4, 10 - n))
        piece = rng.choice([
            Graph(size, itertools.combinations(range(size), 2)),
            random_series_parallel_graph(rng, size),
            random_connected_graph(rng, size),
        ])
        at = [rng.randrange(n), *range(n, n + size - 1)]
        edges += [(at[a], at[b]) for a, b in piece.edges]
        n += size - 1
    return Graph(n, edges)


def test_engines_match_oracle_across_cut_vertices():
    # every engine that accepts the graph agrees with the oracle, under
    # TJ and under TAR with a bound of |S| and |S| + 1
    rng = random.Random(47)
    checks = dict.fromkeys(("auto", "class", "sp", "tame"), 0)
    split = 0
    for _ in range(600):
        g = glued_pieces(rng)
        s, t = rng.choice(list(nonadjacent_pairs(g)))
        split += bool(g.cut_vertices_between(s, t))
        seps = sorted(brute_force_separators(g, s, t), key=sorted)
        a = rng.choice(seps)
        insts = [ReconfigInstance(g, s, t, Rule.TJ, a, rng.choice([x for x in seps if len(x) == len(a)]))]
        for k in (len(a), len(a) + 1):
            insts.append(ReconfigInstance(g, s, t, Rule.TAR, a, rng.choice([x for x in seps if len(x) <= k]), k))
        for inst in insts:
            want = solve_bfs(inst).reachable
            for engine in checks:
                try:
                    res = solve(inst, engine)
                except NotApplicableError:
                    continue
                assert res.reachable == want, (engine, g.to_text(), s, t, inst.describe(), sorted(a))
                if res.reachable:
                    assert verify_sequence(inst, res.sequence)
                checks[engine] += 1
    assert split > 400
    assert checks["auto"] == checks["tame"] == 1800 and checks["sp"] > 1000 and checks["class"] > 300, checks


def test_glued_theta_tj_and_tar_enumerate_nothing(monkeypatch):
    # two θ(5, 6) plus one chord, not series-parallel, glued at the cut
    # vertex 1 between s = 0 and t = the second copy's 1: no block holds
    # both terminals, so sp builds no tree and answers through the cut
    # vertex
    def refuse(*args):
        raise AssertionError("separator family enumerated")

    monkeypatch.setattr(minsep, "enumerate_minimal_separators", refuse)
    g, first, last = theta_graph(5, 6)
    shift = [1, *range(g.n, 2 * g.n - 1)]  # the second copy's ids
    chord = [(first[0] + 2, first[1] + 3)]
    edges = [*g.edges, *chord, *((shift[a], shift[b]) for a, b in [*g.edges, *chord])]
    glued = Graph(2 * g.n - 1, edges)
    source, target = F(*first), F(*(shift[v] for v in last))
    for rule, k in ((Rule.TJ, None), (Rule.TAR, 6)):
        inst = ReconfigInstance(glued, 0, g.n, rule, source, target, k)
        res = solve(inst)
        assert res.engine == "sp" and res.reachable
        assert verify_sequence(inst, res.sequence)


def layered_graph(q):
    """s = 0 joined to A = {1..q}, A complete to B = {q+1..2q}, and B
    joined to t = 2q+1: the minimal separators are A and B alone."""
    a, b = range(1, q + 1), range(q + 1, 2 * q + 1)
    t = 2 * q + 1
    edges = [(0, x) for x in a] + [(x, y) for x in a for y in b] + [(y, t) for y in b]
    return Graph(t + 1, edges), set(a), set(b)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("rule", [Rule.TJ, Rule.TAR])
def test_layered_tame_answers_no(q, rule):
    # |A u B| = 2q > q + 1, so neither the TJ walk nor the TAR(q+1) one exists
    g, a, b = layered_graph(q)
    inst = ReconfigInstance(g, 0, 2 * q + 1, rule, a, b, q + 1 if rule is Rule.TAR else None)
    res = solve(inst)
    assert res.engine == "tame" and not res.reachable
    assert not solve_bfs(inst).reachable


def matched_cliques(q):
    """Cliques {0..q-1} and {q..2q-1} joined by the matching i -- q+i."""
    edges = [(a, b) for base in (0, q) for a in range(base, base + q) for b in range(a + 1, base + q)]
    return Graph(2 * q, edges + [(i, q + i) for i in range(q)])


def digest_instances():
    """About a hundred seeded instances over every route: cycles, 3 x m
    grids, series-parallel graphs, G(n, p) and matched cliques, each
    under TS, TJ and TAR."""
    rng = random.Random(10)
    graphs = [cycle_graph(n) for n in range(5, 13)]
    graphs += [grid_graph(3, m) for m in range(2, 7)]
    graphs += [random_series_parallel_graph(rng, n) for n in range(6, 14)]
    graphs += [random_connected_graph(rng, rng.randint(6, 9), 0.35) for _ in range(8)]
    graphs += [matched_cliques(q) for q in (3, 4, 5)]
    out = []
    for g in graphs:
        s, t = rng.choice(list(nonadjacent_pairs(g)))
        seps = sorted(brute_force_separators(g, s, t, max_size=5), key=sorted)
        # TAR between minimum states under a tight bound, so that some are NO
        small = [x for x in seps if len(x) == min(map(len, seps))]
        for rule in Rule:
            if rule is Rule.TAR:
                a, b = rng.choice(small), rng.choice(small)
                out.append(ReconfigInstance(g, s, t, rule, a, b, max(len(a), len(b)) + rng.randint(0, 1)))
            else:
                a = rng.choice(seps)
                b = rng.choice([x for x in seps if len(x) == len(a)])
                out.append(ReconfigInstance(g, s, t, rule, a, b))
    return out


@pytest.fixture(scope="module")
def solve_outputs(tmp_path_factory):
    """Exit code and stdout of `solve FILE --sequence` on every digest
    instance."""
    instances = digest_instances()
    assert len(instances) == 96
    folder = tmp_path_factory.mktemp("digest")
    out = []
    for i, inst in enumerate(instances):
        path = folder / f"{i}.inst"
        path.write_text(format_instance(inst))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["solve", str(path), "--sequence"])
        out.append((code, buf.getvalue()))
    return out


def test_solve_sequence_output_is_pinned(solve_outputs):
    # stdout and exit code of every solve, so a faster search cannot
    # change an answer or a certificate
    h = hashlib.sha256()
    for code, out in solve_outputs:
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "3e88f54e4106517bf6c3db7abd3cff1fb28f0097e1d18f8abbdafeafa501aec9"


def test_solve_answers_are_pinned(solve_outputs):
    # exit code and first line only, so a change of route that changes
    # certificates must still leave every answer as it was
    h = hashlib.sha256()
    for code, out in solve_outputs:
        h.update(f"{code}\n{out.splitlines()[0]}\n".encode())
    assert h.hexdigest() == "9d2acea91b86f95f36ba95b9aadca8d3243afb3664af6f0e8948d47594723fb9"


def test_ts_cycle_with_unequal_sides_is_answered_by_counting():
    # C400, s = 0, t = 200: the source holds one token on the side of
    # 1..199 and two on the other, the target two and one; the count rule
    # answers NO without a search, where the search closes a ball of
    # tens of thousands of states
    g = cycle_graph(400)
    inst = ReconfigInstance(g, 0, 200, Rule.TS, F(1, 201, 202), F(1, 2, 201))
    t0 = time.perf_counter()
    res = solve(inst)
    took = time.perf_counter() - t0
    assert not res.reachable and res.engine == "class" and res.states_explored == 0
    assert took < 1.0


def with_pendant_k4(g, v):
    """g with a K4 hung on vertex v: three new vertices joined to v and to
    each other, a block that is not series-parallel."""
    new = range(g.n, g.n + 3)
    return Graph(g.n + 3, [*g.edges, *((v, x) for x in new), *itertools.combinations(new, 2)])


def test_one_lowpoint_dfs_per_solve(monkeypatch):
    # the blocks and the cut vertices between s and t are read off one
    # lowpoint DFS of the graph, whichever route answers
    calls = []
    lowpoints = Graph._lowpoints
    monkeypatch.setattr(Graph, "_lowpoints", lambda g, *args: calls.append(g) or lowpoints(g, *args))
    # three 4-cycles glued at the cut vertices 2 and 5, terminals in the end blocks
    chain = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2),
                       (5, 7), (7, 8), (8, 9), (9, 5)])
    grid = grid_graph(3, 6)
    for inst, engine in (
        (ReconfigInstance(chain, 0, 8, Rule.TJ, F(1, 3), F(7, 9)), "sp"),
        (ReconfigInstance(cycle_graph(6), 0, 3, Rule.TJ, F(1, 5), F(2, 4)), "sp"),
        (ReconfigInstance(cycle_graph(8), 0, 4, Rule.TAR, F(1, 7), F(3, 5), 3), "sp"),
        (ReconfigInstance(grid, 0, 17, Rule.TJ, F(1, 7, 13), F(4, 10, 16)), "tame"),
    ):
        calls.clear()
        res = solve(inst)
        assert res.reachable and res.engine == engine
        assert verify_sequence(inst, res.sequence)
        assert calls == [inst.graph]


def test_sp_answers_past_blocks_no_path_uses():
    # series-parallel graphs with a K4 hung on one vertex: sp recognises
    # only the block that holds s and t, or none when a cut vertex splits
    # them, so the K4 sends nothing to tame; TJ and TAR with a bound of the
    # larger endpoint, or one more, agree with the oracle
    rng = random.Random(28)
    checked = 0
    while checked < 600:
        base = random_series_parallel_graph(rng, rng.randint(5, 8))
        g = with_pendant_k4(base, rng.randrange(base.n))
        s, t = rng.choice(list(nonadjacent_pairs(g)))
        seps = sorted(brute_force_separators(g, s, t, max_size=3), key=sorted)
        if not seps:
            continue
        a, c = rng.choice(seps), rng.choice(seps)
        b = rng.choice([x for x in seps if len(x) == len(a)])
        k = max(len(a), len(c)) + rng.randint(0, 1)
        for inst in (ReconfigInstance(g, s, t, Rule.TJ, a, b), ReconfigInstance(g, s, t, Rule.TAR, a, c, k)):
            res = solve(inst)
            assert res.engine == "sp", (g.to_text(), inst.describe())
            assert res.reachable == solve_bfs(inst).reachable, (g.to_text(), inst.describe())
            if res.reachable:
                assert verify_sequence(inst, res.sequence)
            checked += 1


def test_theta_with_pendant_k4_is_answered_by_sp():
    # θ(6, 6) with a K4 hung on an inner vertex: the θ block holds s and t
    # and is series-parallel, so sp answers where tame's overlap search
    # over 6^6 minimal separators took seconds
    theta, first, last = theta_graph(6, 6)
    g = with_pendant_k4(theta, first[2] + 1)
    for rule, k in ((Rule.TJ, None), (Rule.TAR, 7)):
        inst = ReconfigInstance(g, 0, 1, rule, F(*first), F(*last), k)
        t0 = time.perf_counter()
        res = solve(inst)
        took = time.perf_counter() - t0
        assert res.reachable and res.engine == "sp"
        assert verify_sequence(inst, res.sequence)
        assert took < 1.0
