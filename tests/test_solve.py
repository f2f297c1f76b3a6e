import itertools
import random
import sys

import pytest

from vsreconf import Solution, solve
from vsreconf.cliquepair import characterize
from vsreconf.errors import InputError
from vsreconf.graph import Graph, cycle_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.separators import brute_force_separators

from fixtures import nonadjacent_pairs, random_connected_graph


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
            (cycle_graph(6), Rule.TAR, F(1, 5), F(2, 4), 3, "tame"),
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
    "g, s, t",
    [(bowtie(), 0, 4), (prism(), 0, 4), (cycle_graph(5), 0, 2)],
    ids=["cut-vertex", "matched", "c5"],
)
@pytest.mark.parametrize("extra", [0, 3], ids=["k=n", "k=n+3"])
def test_class_tar_bound_above_n_matches_oracle(g, s, t, extra):
    k = g.n + extra
    seps = sorted(brute_force_separators(g, s, t), key=sorted)
    for a, b in itertools.product(seps, repeat=2):
        inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        res = solve(inst)
        assert res.engine == "class"
        assert res.reachable == solve_bfs(inst).reachable, (sorted(a), sorted(b))
        if res.reachable:
            assert verify_sequence(inst, res.sequence)


def test_solve_matches_oracle_on_random_instances():
    rng = random.Random(3)
    done = 0
    while done < 120:
        g = random_connected_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = rng.choice(pairs)
        seps = sorted(brute_force_separators(g, s, t), key=sorted)
        a, b = rng.choice(seps), rng.choice(seps)
        same = [x for x in seps if len(x) == len(a)]
        for rule in Rule:
            if rule is Rule.TAR:
                inst = ReconfigInstance(g, s, t, rule, a, b, max(len(a), len(b)) + rng.randint(0, 2))
            else:
                inst = ReconfigInstance(g, s, t, rule, a, rng.choice(same))
            res = solve(inst)
            assert res.reachable == solve_bfs(inst).reachable, (
                g.to_text(), s, t, inst.describe(), sorted(inst.source), sorted(inst.target),
            )
            if res.reachable:
                assert verify_sequence(inst, res.sequence)
        done += 1
