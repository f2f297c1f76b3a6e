import itertools
import random

import pytest

from vsreconf.bipartite import (
    IsrInstance,
    is_peanut_like,
    isr_to_vsr,
    vsr_to_isr,
)
from vsreconf.cli import format_isr_instance, main
from vsreconf.errors import InputError
from vsreconf.graph import Graph, complete_graph, cycle_graph, path_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.separators import is_separator

from ground_truth import translate_sequence


def F(*xs):
    return frozenset(xs)


def random_bipartite(rng, n, p=0.5):
    """Random bipartite graph; part A = even split of [0, n)."""
    a = frozenset(range(n // 2))
    b = frozenset(range(n // 2, n))
    edges = [(x, y) for x in a for y in b if rng.random() < p]
    return Graph(n, edges), a, b


class TestPeanutRecognition:
    def test_p4_has_foci(self):
        w = is_peanut_like(path_graph(4))
        assert w is not None
        assert (w.u, w.v) == (0, 3)
        assert w.side_a == {1, 3} and w.side_b == {0, 2}

    def test_c4_rejected(self):
        assert is_peanut_like(cycle_graph(4)) is None

    def test_k2_rejected(self):
        assert is_peanut_like(complete_graph(2)) is None

    def test_triangle_rejected(self):
        assert is_peanut_like(complete_graph(3)) is None

    def test_constructed_instances_recognized(self):
        rng = random.Random(13)
        for _ in range(25):
            g, a, b = random_bipartite(rng, rng.randint(2, 6))
            inst = IsrInstance(g, a, b, Rule.TJ, F(), F())
            h = isr_to_vsr(inst).graph
            w = is_peanut_like(h)
            assert w is not None
            # the planted foci satisfy the condition; recognition may pick a
            # lexicographically smaller equivalent pair, so verify the
            # witness on its own terms
            assert h.neighbors(w.u) == w.side_a - {w.v}
            assert h.neighbors(w.v) == w.side_b - {w.u}


class TestIndependentIffComplementSeparates:
    def test_exhaustive_small_bipartite(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            for _ in range(12):
                g, a, b = random_bipartite(rng, n, rng.uniform(0.3, 0.9))
                base = isr_to_vsr(IsrInstance(g, a, b, Rule.TJ, F(), F()))
                h, u, v = base.graph, base.s, base.t
                for r in range(n + 1):
                    for comb in itertools.combinations(range(n), r):
                        i = frozenset(comb)
                        indep = all(not g.has_edge(x, y) for x in i for y in i if x < y)
                        sep = is_separator(h, u, v, frozenset(g.vertices()) - i)
                        assert indep == sep


class TestInstanceTranslation:
    def test_path_example(self):
        # a=0, b=1, c=2; A={a,c}, B={b}
        g = path_graph(3)
        inst = IsrInstance(g, F(0, 2), F(1), Rule.TJ, F(0), F(2))
        vsr = isr_to_vsr(inst)
        assert vsr.s == 3 and vsr.t == 4
        assert vsr.source == F(1, 2) and vsr.target == F(0, 1)

    def test_single_edge_ts(self):
        g = complete_graph(2)
        inst = IsrInstance(g, F(0), F(1), Rule.TS, F(0), F(1))
        vsr = isr_to_vsr(inst)
        assert vsr.source == F(1) and vsr.target == F(0)
        assert solve_bfs(vsr).reachable

    def test_identity_states(self):
        g = path_graph(3)
        inst = IsrInstance(g, F(0, 2), F(1), Rule.TJ, F(0), F(0))
        vsr = isr_to_vsr(inst)
        assert vsr.source == vsr.target

    def test_round_trip(self):
        rng = random.Random(29)
        done = 0
        while done < 20:
            g, a, b = random_bipartite(rng, rng.randint(2, 6))
            pool = list(g.vertices())
            i_a = frozenset(
                x for x in pool if rng.random() < 0.4 and not (g.neighbors(x) & a)
            ) & a
            if any(g.neighbors(x) & i_a for x in i_a):
                continue
            inst = IsrInstance(g, a, b, Rule.TJ, i_a, i_a)
            vsr = isr_to_vsr(inst)
            w = is_peanut_like(vsr.graph)
            assert w is not None
            back = vsr_to_isr(vsr)
            assert back.graph == g
            assert back.part_a == a and back.part_b == b
            assert back.source == i_a and back.target == i_a
            done += 1

    def test_foci_need_not_be_the_largest_ids(self):
        # the docstring's example: on the path 1-4-0-3-2 the foci are 1
        # and 3, and the kept ids 0, 2, 4 become 0, 1, 2
        g = Graph(5, [(1, 4), (4, 0), (0, 3), (3, 2)])
        w = is_peanut_like(g)
        assert (w.u, w.v) == (1, 3)
        isr = vsr_to_isr(ReconfigInstance(g, 1, 3, Rule.TJ, F(0), F(0)))
        assert isr.graph == Graph(3, [(0, 2)])
        assert (isr.part_a, isr.part_b) == (F(2), F(0, 1))
        assert isr.source == F(1, 2)

    def test_foci_in_state_rejected(self):
        g = path_graph(4)
        w = is_peanut_like(g)
        with pytest.raises(InputError):
            vsr_to_isr(ReconfigInstance(g, w.u, w.v, Rule.TJ, F(w.u), F(w.u)))

    def test_answers_agree_with_oracle(self):
        rng = random.Random(61)
        done = 0
        while done < 30:
            g, a, b = random_bipartite(rng, rng.randint(3, 6))
            indep_sets = [
                frozenset(c)
                for r in (1, 2)
                for c in itertools.combinations(range(g.n), r)
                if all(not g.has_edge(x, y) for x in c for y in c if x < y)
            ]
            sized = {}
            for i in indep_sets:
                sized.setdefault(len(i), []).append(i)
            pools = [v for v in sized.values() if len(v) >= 2]
            if not pools:
                continue
            pool = pools[rng.randrange(len(pools))]
            ia, ib = rng.sample(pool, 2)
            for rule in (Rule.TJ, Rule.TS):
                vsr = isr_to_vsr(IsrInstance(g, a, b, rule, ia, ib))
                res = solve_bfs(vsr)
                # independent oracle: BFS over independent sets directly
                want = _isr_bfs(g, rule, ia, ib)
                assert res.reachable == want, (g.to_text(), rule, sorted(ia), sorted(ib))
            done += 1


def random_isr(rng):
    """A seeded ISR instance on ``random_bipartite``: two equal-size
    independent sets, TS or TJ."""
    g, a, b = random_bipartite(rng, rng.randint(2, 7), rng.uniform(0.2, 0.9))
    indep = [
        frozenset(c)
        for r in range(g.n + 1)
        for c in itertools.combinations(range(g.n), r)
        if not any(g.neighbors(x) & frozenset(c) for x in c)
    ]
    source = rng.choice(indep)
    target = rng.choice([i for i in indep if len(i) == len(source)])
    return IsrInstance(g, a, b, rng.choice((Rule.TS, Rule.TJ)), source, target)


def _is_foci(h, u, v):
    """The foci condition read off its definition: {v} ∪ N(u) and
    {u} ∪ N(v) partition V(h) into two independent sets."""
    side_a, side_b = h.neighbors(u) | {v}, h.neighbors(v) | {u}
    return (
        u != v
        and not h.has_edge(u, v)
        and not side_a & side_b
        and side_a | side_b == frozenset(h.vertices())
        and not any(h.neighbors(x) & side for side in (side_a, side_b) for x in side)
    )


class TestReductionIsInverse:
    def test_library_round_trip(self):
        rng = random.Random(71)
        for _ in range(200):
            x = random_isr(rng)
            assert vsr_to_isr(isr_to_vsr(x)) == x

    def test_cli_round_trip(self, capsys, tmp_path):
        rng = random.Random(73)
        isr_file, vsr_file = tmp_path / "x.isr", tmp_path / "x.vsr"
        for _ in range(50):
            x = random_isr(rng)
            isr_file.write_text(format_isr_instance(x))
            assert main(["reduce", "isr-to-vsr", str(isr_file)]) == 0
            vsr_file.write_text(capsys.readouterr().out)
            assert main(["reduce", "vsr-to-isr", str(vsr_file)]) == 0
            assert capsys.readouterr().out == format_isr_instance(x)

    def test_answers_at_every_foci_pair(self):
        # peanut-like graphs with several foci pairs; the terminals are any
        # ordered foci pair but the lexicographically smallest one, and a
        # pair that is not foci is refused
        rng = random.Random(79)
        done = 0
        while done < 30:
            g, a, b = random_bipartite(rng, rng.randint(2, 6), 0.8)
            h = isr_to_vsr(IsrInstance(g, a, b, Rule.TJ, F(), F())).graph
            pairs = [p for p in itertools.permutations(h.vertices(), 2) if _is_foci(h, *p)]
            if len(pairs) < 4:
                continue
            w = is_peanut_like(h)
            assert pairs[0] == (w.u, w.v)
            u, v = rng.choice(pairs[1:])
            inner = sorted(frozenset(h.vertices()) - {u, v})
            seps = [
                frozenset(c)
                for r in range(len(inner) + 1)
                for c in itertools.combinations(inner, r)
                if h.separates(u, v, frozenset(c))
            ]
            sa = rng.choice(seps)
            sb = rng.choice([x for x in seps if len(x) == len(sa)])
            for rule in (Rule.TJ, Rule.TS):
                vsr = ReconfigInstance(h, u, v, rule, sa, sb)
                isr = vsr_to_isr(vsr)
                want = solve_bfs(vsr).reachable
                assert _isr_bfs(isr.graph, rule, isr.source, isr.target) == want
            for p in itertools.permutations(h.vertices(), 2):
                if p not in pairs and not h.has_edge(*p):
                    full = frozenset(h.vertices()) - set(p)
                    with pytest.raises(InputError, match="peanut"):
                        vsr_to_isr(ReconfigInstance(h, *p, Rule.TJ, full, full))
            done += 1


def _isr_bfs(g, rule, ia, ib):
    from collections import deque

    seen = {ia}
    queue = deque([ia])
    while queue:
        cur = queue.popleft()
        if cur == ib:
            return True
        for x in cur:
            dests = g.neighbors(x) if rule is Rule.TS else g.vertices()
            for y in dests:
                if y in cur:
                    continue
                nxt = cur - {x} | {y}
                if nxt in seen:
                    continue
                if any(g.neighbors(z) & nxt for z in nxt):
                    continue
                seen.add(nxt)
                queue.append(nxt)
    return ib in seen


class TestTranslateSequence:
    def test_tj_path_example(self):
        g = path_graph(3)
        out = translate_sequence("isr-to-vsr", g, [F(0), F(2)])
        assert out == [F(1, 2), F(0, 1)]

    def test_singleton(self):
        g = path_graph(3)
        assert translate_sequence("isr-to-vsr", g, [F(0)]) == [F(1, 2)]

    def test_involution(self):
        g = path_graph(3)
        fwd = translate_sequence("isr-to-vsr", g, [F(0), F(2)])
        assert translate_sequence("vsr-to-isr", g, fwd) == [F(0), F(2)]

    def test_preserves_validity(self):
        g = path_graph(3)
        inst = IsrInstance(g, F(0, 2), F(1), Rule.TJ, F(0), F(2))
        vsr = isr_to_vsr(inst)
        out = translate_sequence("isr-to-vsr", g, [F(0), F(2)])
        assert verify_sequence(vsr, out)

    def test_rejects_bad_direction(self):
        with pytest.raises(InputError):
            translate_sequence("sideways", path_graph(3), [F(0)])

    def test_rejects_dependent_state(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            translate_sequence("isr-to-vsr", g, [F(0, 1)])
