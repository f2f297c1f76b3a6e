import itertools
import random
from collections import deque

import pytest

from vsreconf import minsep
from vsreconf.errors import InputError, ResourceLimitError
from vsreconf.graph import Graph, complete_graph, cycle_graph, path_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.minsep import enumerate_minimal_separators, tame_solve
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.separators import canon, shrink_to_minimal

from fixtures import (
    all_labeled_connected_graphs,
    grid_graph,
    nonadjacent_pairs,
    random_connected_graph,
)
from ground_truth import (
    brute_force_minimal_separators,
    brute_force_separators,
    is_minimal_separator,
)


def F(*xs):
    return frozenset(xs)


class TestEnumeration:
    def test_p4(self):
        fam = enumerate_minimal_separators(path_graph(4), 0, 3)
        assert fam.members == {F(1), F(2)}

    def test_c5(self):
        fam = enumerate_minimal_separators(cycle_graph(5), 0, 2)
        assert fam.members == {F(1, 3), F(1, 4)}

    def test_c6_opposite(self):
        fam = enumerate_minimal_separators(cycle_graph(6), 0, 3)
        assert fam.members == {F(1, 4), F(1, 5), F(2, 4), F(2, 5)}

    def test_adjacent_terminals_rejected(self):
        with pytest.raises(InputError):
            enumerate_minimal_separators(complete_graph(3), 0, 1)

    def test_disconnected_matches_brute_force(self):
        # terminals in two components: the empty set is the one separator
        assert enumerate_minimal_separators(Graph(4, [(0, 1), (2, 3)]), 0, 3).members == {F()}
        rng = random.Random(5)
        done = apart = 0
        while done < 150:
            n = rng.randint(4, 9)
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3])
            if g.is_connected():
                continue
            s, t = rng.choice(list(nonadjacent_pairs(g)))
            fam = enumerate_minimal_separators(g, s, t)
            assert fam.members == brute_force_minimal_separators(g, s, t), (g.to_text(), s, t)
            apart += fam.members == {F()}
            done += 1
        assert 20 <= apart <= 130

    def test_family_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_minimal_separators(cycle_graph(6), 0, 3, family_cap=2)

    def test_matches_brute_force_exhaustive_small(self):
        for n in (3, 4, 5):
            for g in all_labeled_connected_graphs(n):
                for s, t in nonadjacent_pairs(g):
                    fam = enumerate_minimal_separators(g, s, t)
                    assert fam.members == brute_force_minimal_separators(g, s, t), (
                        g.to_text(),
                        s,
                        t,
                    )

    def test_matches_brute_force_random_n7(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_connected_graph(rng, 7, rng.uniform(0.3, 0.8))
            for s, t in nonadjacent_pairs(g):
                fam = enumerate_minimal_separators(g, s, t)
                assert fam.members == brute_force_minimal_separators(g, s, t)

    def test_matches_brute_force_random_n8_n9(self):
        rng = random.Random(23)
        for n in (8, 9):
            for _ in range(40):
                g = random_connected_graph(rng, n, rng.uniform(0.2, 0.7))
                for s, t in nonadjacent_pairs(g):
                    fam = enumerate_minimal_separators(g, s, t)
                    assert fam.members == brute_force_minimal_separators(g, s, t), (
                        g.to_text(),
                        s,
                        t,
                    )

    @pytest.mark.parametrize("n", [4, 5, 9, 16, 25, 40])
    def test_cycle_opposite_terminals(self, n):
        """C_n, s = 0, t = n//2: one vertex from each of the two s-t arcs."""
        g, t = cycle_graph(n), n // 2
        fam = enumerate_minimal_separators(g, 0, t)
        assert len(fam.members) == (t - 1) * (n - t - 1)
        for sep in fam.members:
            assert is_minimal_separator(g, 0, t, sep)


class TestTameSolve:
    def test_rejects_ts(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TS, F(1, 3), F(1, 4))
        with pytest.raises(InputError):
            tame_solve(inst)

    def test_identity(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TAR, F(1, 3), F(1, 3), 2)
        res = tame_solve(inst)
        assert res.reachable and res.sequence == [F(1, 3)]

    def test_trivially_negative(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TAR, F(1, 3), F(1, 4), 2)
        assert not tame_solve(inst).reachable

    def test_tar_certificate_verifies(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TAR, F(1, 3), F(1, 4), 3)
        res = tame_solve(inst)
        assert res.reachable
        assert verify_sequence(inst, res.sequence)

    def test_tj_certificate_is_tj_walk(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TJ, F(1, 3), F(1, 4))
        res = tame_solve(inst)
        assert res.reachable
        assert res.sequence == [F(1, 3), F(1, 4)]
        assert verify_sequence(inst, res.sequence)

    def test_matches_oracle_random(self):
        rng = random.Random(71)
        done = 0
        while done < 60:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = [x for x in brute_force_separators(g, s, t) if len(x) <= 3]
            if len(seps) < 2:
                continue
            a, b = rng.sample(seps, 2)
            k = max(len(a), len(b)) + rng.randint(0, 1)
            inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
            want = solve_bfs(inst).reachable
            res = tame_solve(inst)
            assert res.reachable == want, (g.to_text(), s, t, sorted(a), sorted(b), k)
            if res.reachable:
                assert verify_sequence(inst, res.sequence)
            done += 1


class TestTameMatchesOracle:
    """tame_solve against exhaustive search on graphs with many minimal
    separators, under TAR and TJ."""

    CASES = [(cycle_graph(n), 0, n // 2) for n in (5, 6, 7, 8)] + [
        (grid_graph(3, m), m, 2 * m - 1) for m in (3, 4)
    ]

    @pytest.mark.parametrize("rule", [Rule.TAR, Rule.TJ])
    def test_answers_and_certificates(self, rule):
        rng = random.Random(f"tame-{rule.value}")
        yes = no = 0
        for g, s, t in self.CASES:
            seps = [x for x in brute_force_separators(g, s, t, max_size=4) if x]
            for _ in range(12):
                a = rng.choice(seps)
                pool = [x for x in seps if x != a and (rule is Rule.TAR or len(x) == len(a))]
                if not pool:
                    continue
                b = rng.choice(pool)
                if rule is Rule.TJ:
                    inst = ReconfigInstance(g, s, t, rule, a, b)
                else:
                    k = max(len(a), len(b)) + rng.randint(0, 1)
                    inst = ReconfigInstance(g, s, t, rule, a, b, k)
                res = tame_solve(inst)
                assert res.reachable == solve_bfs(inst).reachable, (
                    g.to_text(), s, t, sorted(a), sorted(b), inst.k,
                )
                if res.reachable:
                    assert verify_sequence(inst, res.sequence)
                    yes += 1
                else:
                    no += 1
        assert yes and (no or rule is Rule.TJ)


def reference_tj_walk(tj, dequeued=None):
    """The overlap search as a plain scan: enumerate the family, then
    test every member of size <= k against each member dequeued.  Returns
    the chains ``minsep._tj_walk`` returns, the overlap path and the
    target's core alone; equal chains lift to equal walks.  The members
    dequeued are appended to ``dequeued`` when it is given."""
    g, s, t, k = tj.graph, tj.s, tj.t, len(tj.source)
    members = [m for m in enumerate_minimal_separators(g, s, t).sorted_members() if len(m) <= k]
    sa, sb = (shrink_to_minimal(g, s, t, x) for x in (tj.source, tj.target))
    parent = {sa: None}
    queue = deque([sa])
    while queue and sb not in parent:
        cur = queue.popleft()
        if dequeued is not None:
            dequeued.append(cur)
        for nxt in members:
            if nxt not in parent and (len(cur) + len(nxt) <= k + 1 or len(cur | nxt) <= k + 1):
                parent[nxt] = cur
                if nxt == sb:
                    break
                queue.append(nxt)
    if sb not in parent:
        return None
    path = [sb]
    while (prev := parent[path[-1]]) is not None:
        path.append(prev)
    return path[::-1], [sb]


def padded(rng, g, s, t, core, size):
    """``core`` plus random non-terminal vertices, ``size`` in all."""
    free = [v for v in g.vertices() if v not in core and v not in (s, t)]
    return core | frozenset(rng.sample(free, size - len(core)))


class TestTjWalkMatchesScan:
    """``minsep._tj_walk`` against the plain scan: the forced path and
    the index lookups return the chains the scan returns."""

    def test_forced_path_enumerates_nothing(self, monkeypatch):
        rng = random.Random(29)
        cases = [ReconfigInstance(cycle_graph(6), 0, 3, Rule.TJ, F(1, 2, 5), F(1, 4, 5))]
        same_core = 0
        while len(cases) < 300:
            g = random_connected_graph(rng, rng.randint(5, 10), rng.uniform(0.2, 0.6))
            s, t = rng.choice(list(nonadjacent_pairs(g)))
            fam = sorted(enumerate_minimal_separators(g, s, t).members, key=canon)
            a, b = rng.choice(fam), rng.choice(fam)
            k = max(len(a), len(b)) + rng.randint(0, 2)
            if k > g.n - 2:
                continue
            tj = ReconfigInstance(
                g, s, t, Rule.TJ, padded(rng, g, s, t, a, k), padded(rng, g, s, t, b, k)
            )
            cores = [shrink_to_minimal(g, s, t, x) for x in (tj.source, tj.target)]
            if tj.source != tj.target and len(cores[0] | cores[1]) <= k + 1:
                cases.append(tj)
                same_core += cores[0] == cores[1]
        assert 30 <= same_core <= 270
        want = [reference_tj_walk(tj) for tj in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("forced path enumerated the family")

        monkeypatch.setattr(minsep, "enumerate_minimal_separators", refuse)
        for tj, w in zip(cases, want):
            assert minsep._tj_walk(tj) == w, (tj.graph.to_text(), tj.s, tj.t, tj.source, tj.target)

    def test_random_walks_equal_the_scan(self, monkeypatch):
        walk = minsep._tj_walk
        looked_up: set = set()
        enumerated = []
        # walks, walks that search the family, and members dequeued by
        # lookup and by scan
        counts = {"walks": 0, "searched": 0, "lookup": 0, "scan": 0}

        def counting_combinations(cur, r):
            looked_up.add(cur)
            return itertools.combinations(cur, r)

        def counting_enumerate(*args):
            enumerated.append(args)
            return enumerate_minimal_separators(*args)

        def checked_walk(tj):
            looked_up.clear()
            enumerated.clear()
            dequeued = []
            want = reference_tj_walk(tj, dequeued)
            assert walk(tj) == want, (tj.graph.to_text(), tj.s, tj.t, tj.source, tj.target)
            counts["walks"] += 1
            if enumerated:
                counts["searched"] += 1
                counts["lookup"] += len(looked_up)
                counts["scan"] += len(set(dequeued) - looked_up)
            return want

        monkeypatch.setattr(minsep, "combinations", counting_combinations)
        monkeypatch.setattr(minsep, "enumerate_minimal_separators", counting_enumerate)
        monkeypatch.setattr(minsep, "_tj_walk", checked_walk)
        rng = random.Random(31)
        while counts["walks"] < 1500 or counts["searched"] < 250:
            g = random_connected_graph(rng, rng.randint(5, 12), rng.uniform(0.15, 0.5))
            s, t = rng.choice(list(nonadjacent_pairs(g)))
            fam = sorted(enumerate_minimal_separators(g, s, t).members, key=canon)
            # cores far apart, so that more walks search the family
            a = rng.choice(fam)
            spread = {x: len(a | x) - max(len(a), len(x)) for x in fam}
            b = rng.choice([x for x in fam if spread[x] == max(spread.values())])
            k = max(len(a), len(b)) + rng.randint(0, 3)
            if k + 1 > g.n - 2:
                continue
            if rng.random() < 0.5:
                inst = ReconfigInstance(
                    g, s, t, Rule.TJ, padded(rng, g, s, t, a, k), padded(rng, g, s, t, b, k)
                )
            else:
                # TAR with bound k + 1 walks TJ instances of k tokens
                sa = padded(rng, g, s, t, a, rng.randint(len(a), k + 1))
                sb = padded(rng, g, s, t, b, rng.randint(len(b), k + 1))
                inst = ReconfigInstance(g, s, t, Rule.TAR, sa, sb, k + 1)
            res = tame_solve(inst)
            if res.reachable:
                assert verify_sequence(inst, res.sequence)
        assert counts["walks"] - counts["searched"] >= 1000, counts
        assert counts["lookup"] >= 100 and counts["scan"] >= 100, counts
