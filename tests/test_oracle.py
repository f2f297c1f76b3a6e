import random
from collections import deque
from itertools import combinations, product

import pytest

from vsreconf.errors import ResourceLimitError
from vsreconf.graph import Graph, cycle_graph
from vsreconf.instance import ReconfigInstance, Rule, Solution
from vsreconf.oracle import (
    DEFAULT_STATE_CAP,
    ReconfigGraph,
    _mask,
    _neighbour_masks,
    _separates,
    export_reconfig_graph,
    solve_bfs,
    states_adjacent,
    stranded_component,
    verify_sequence,
)
from vsreconf.separators import canon

from fixtures import (
    FIG1_S,
    FIG1_SA,
    FIG1_SB,
    FIG1_T,
    figure1_graph,
    grid_graph,
    nonadjacent_pairs,
    random_connected_graph,
)
from ground_truth import brute_force_separators


def c5_instance(rule, source, target, k=None):
    return ReconfigInstance(
        cycle_graph(5), 0, 2, rule, frozenset(source), frozenset(target), k
    )


def random_instances(seed, count, max_n=8, p=0.5):
    """Seeded instances on random connected G(n, p) with n = 4..max_n:
    one TS or TJ instance, then TAR between two separators of any sizes
    with k from the larger endpoint up to +2, so that removals and
    additions of different sizes meet among one state's candidates."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        g = random_connected_graph(rng, rng.randint(4, max_n), p)
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = rng.choice(pairs)
        seps = list(brute_force_separators(g, s, t))
        by_size = {}
        for x in seps:
            by_size.setdefault(len(x), []).append(x)
        group = max(by_size.values(), key=len)
        a, b = rng.sample(group, 2) if len(group) > 1 else group * 2
        yield ReconfigInstance(g, s, t, rng.choice((Rule.TS, Rule.TJ)), a, b)
        b = rng.choice([x for x in seps if x != a] or seps)
        low = max(len(a), len(b))
        for k in range(low, low + 3):
            yield ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        made += 1


def reference_states(instance):
    """The separator states within the rule's size bounds in canon
    order, by testing every subset of the non-terminals."""
    g, s, t = instance.graph, instance.s, instance.t
    pool = [v for v in g.vertices() if v not in (s, t)]
    if instance.rule is Rule.TAR:
        sizes = range(min(instance.k, len(pool)) + 1)
    else:
        sizes = [len(instance.source)]
    return sorted(
        (
            frozenset(c)
            for r in sizes
            for c in combinations(pool, r)
            if g.separates(s, t, c)
        ),
        key=canon,
    )


def reference_moves(instance, st):
    """The separators rule-adjacent to `st`, built as frozensets and each
    one tested for separation."""
    g, s, t = instance.graph, instance.s, instance.t
    free = [y for y in g.vertices() if y not in st and y not in (s, t)]
    if instance.rule is Rule.TAR:
        cands = [st - {x} for x in st]
        if len(st) < instance.k:
            cands += [st | {y} for y in free]
    else:
        cands = [
            (st - {x}) | {y}
            for x in st
            for y in free
            if instance.rule is Rule.TJ or g.has_edge(x, y)
        ]
    return {c for c in cands if g.separates(s, t, c)}


def reference_solve_bfs(instance, state_cap=DEFAULT_STATE_CAP):
    """The search as it was before candidates were filtered: every
    adjacent separator of each dequeued state in canon order, then the
    reached ones dropped."""
    source, target = instance.source, instance.target
    parent = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        cur = queue.popleft()
        for nxt in sorted(reference_moves(instance, cur), key=canon):
            if nxt in parent:
                continue
            if len(parent) >= state_cap:
                raise ResourceLimitError(f"state cap {state_cap} exceeded")
            parent[nxt] = cur
            if nxt == target:
                break
            queue.append(nxt)
    if target not in parent:
        return Solution(False, states_explored=len(parent))
    seq = [target]
    while parent[seq[-1]] is not None:
        seq.append(parent[seq[-1]])
    seq.reverse()
    return Solution(True, seq, len(parent))


def reference_solve_bidir(instance, state_cap=DEFAULT_STATE_CAP):
    """Full BFS layers from both ends, the smaller frontier first and the
    source side on a tie, until a layer meets the other ball or a
    frontier runs dry; every adjacent separator of a frontier state is
    reached.  `states_explored` counts the states either side reached.
    The walk joins the parent chains through one meeting state: a
    shortest walk, not always the one-sided search's."""
    source, target = instance.source, instance.target
    if len({source, target}) > state_cap:
        raise ResourceLimitError(f"state cap {state_cap} exceeded")
    balls = [{source: None}, {target: None}]
    fronts = [[source], [target]]
    met = [source] if source == target else []
    while all(fronts) and not met:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        ball, other = balls[side], balls[1 - side]
        layer = []
        for cur in fronts[side]:
            for nxt in reference_moves(instance, cur) - ball.keys():
                if nxt in other:
                    met.append(nxt)
                elif len(ball) + len(other) - len(met) >= state_cap:
                    raise ResourceLimitError(f"state cap {state_cap} exceeded")
                ball[nxt] = cur
                layer.append(nxt)
        fronts[side] = layer
    explored = len(balls[0]) + len(balls[1]) - len(met)
    if not met:
        return Solution(False, states_explored=explored)
    halves = [[met[0]], [met[0]]]
    for ball, half in zip(balls, halves):
        while ball[half[-1]] is not None:
            half.append(ball[half[-1]])
    return Solution(True, halves[0][::-1] + halves[1][1:], explored)


def reference_export(instance):
    """The reconfiguration graph by a rule-adjacency test of every pair."""
    states = reference_states(instance)
    edges = [
        (a, b)
        for i, a in enumerate(states)
        for b in states[i + 1:]
        if states_adjacent(instance.rule, a, b, instance.graph, instance.k)
    ]
    return ReconfigGraph(states, edges, instance.rule, instance.k)


def graph_distance(rg, a, b):
    """BFS distance from `a` to `b` in an exported graph, None if apart."""
    adj = {st: [] for st in rg.states}
    for x, y in rg.edges:
        adj[x].append(y)
        adj[y].append(x)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist.get(b)


def exported_neighbours(instance, st):
    """The states joined to `st` by an edge of the exported graph."""
    edges = export_reconfig_graph(instance).edges
    return {b for a, b in edges if a == st} | {a for a, b in edges if b == st}


class TestSeparatesKernel:
    def test_matches_graph_separates_random(self):
        """The mask search against ``Graph.separates`` on G(n, p), not
        resampled to be connected, for n = 2..14 and p = 0.05..0.95, with
        an isolated s or t now and then, and `removed` empty, holding t,
        holding N(s), or a random subset."""
        rng = random.Random(41)
        answers = set()
        for _ in range(1500):
            n = rng.randint(2, 14)
            p = rng.choice([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
            s, t = rng.sample(range(n), 2)
            lonely = rng.choice([None, s, t, None, None])
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < p and lonely not in (a, b)
            ]
            g = Graph(n, edges)
            nbr = _neighbour_masks(g)
            rest = [v for v in range(n) if v not in (s, t)]
            for removed in (
                set(),
                {t},
                g.neighbors(s) - {t},
                g.neighbors(s) | {t},
                set(rng.sample(rest, rng.randint(0, len(rest)))),
            ):
                want = g.separates(s, t, removed)
                assert _separates(nbr, n, s, t, _mask(removed, n)) == want, (
                    n, sorted(edges), s, t, sorted(removed)
                )
                answers.add(want)
        assert answers == {True, False}


class TestRuleNeighbors:
    """Rule-adjacent separators of one state, as the export lists them;
    ``TestExport`` checks every exported edge against an all-pairs
    construction."""

    def test_c5_ts(self):
        inst = c5_instance(Rule.TS, {1, 3}, {1, 4})
        assert exported_neighbours(inst, frozenset({1, 3})) == {frozenset({1, 4})}

    def test_c5_tj(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        assert exported_neighbours(inst, frozenset({1, 3})) == {frozenset({1, 4})}

    def test_c5_tar(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 4}, k=3)
        assert exported_neighbours(inst, frozenset({1, 3})) == {frozenset({1, 3, 4})}


class TestSolveBfs:
    def test_identity_distance_zero(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 3})
        res = solve_bfs(inst)
        assert res.reachable and res.distance == 0 and res.sequence == [frozenset({1, 3})]

    def test_figure1_tj_yes(self):
        inst = ReconfigInstance(
            figure1_graph(), FIG1_S, FIG1_T, Rule.TJ, FIG1_SA, FIG1_SB
        )
        assert solve_bfs(inst).reachable

    def test_figure1_ts_no(self):
        inst = ReconfigInstance(
            figure1_graph(), FIG1_S, FIG1_T, Rule.TS, FIG1_SA, FIG1_SB
        )
        assert not solve_bfs(inst).reachable

    def test_sequence_verifies(self):
        inst = ReconfigInstance(
            figure1_graph(), FIG1_S, FIG1_T, Rule.TJ, FIG1_SA, FIG1_SB
        )
        res = solve_bfs(inst)
        assert verify_sequence(inst, res.sequence)
        assert len(res.sequence) == res.distance + 1

    def test_state_cap(self):
        inst = ReconfigInstance(
            figure1_graph(), FIG1_S, FIG1_T, Rule.TJ, FIG1_SA, FIG1_SB
        )
        with pytest.raises(ResourceLimitError):
            solve_bfs(inst, state_cap=1)

    def test_distance_symmetry_random(self):
        rng = random.Random(23)
        done = 0
        while done < 30:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            seps = [x for x in brute_force_separators(g, s, t) if len(x) == 2]
            if len(seps) < 2:
                continue
            a, b = rng.sample(seps, 2)
            for rule, k in ((Rule.TS, None), (Rule.TJ, None), (Rule.TAR, 3)):
                fwd = solve_bfs(ReconfigInstance(g, s, t, rule, a, b, k))
                bwd = solve_bfs(ReconfigInstance(g, s, t, rule, b, a, k))
                assert fwd.reachable == bwd.reachable
                assert fwd.distance == bwd.distance
            done += 1

    def test_matches_unfiltered_search_random(self):
        for inst in random_instances(7, 80, max_n=9):
            got, want = solve_bfs(inst), reference_solve_bfs(inst)
            twin = reference_solve_bidir(inst)
            assert got.reachable == want.reachable == twin.reachable
            assert got.sequence == want.sequence
            assert got.states_explored == twin.states_explored
            if twin.reachable:
                assert twin.distance == want.distance
                assert verify_sequence(inst, twin.sequence)

    def test_sparse_and_dense_match_unfiltered_search_random(self):
        """`random_instances` draws G(n, 0.5); here p is 0.2 and 0.8."""
        rules = set()
        for p, seed in ((0.2, 43), (0.8, 47)):
            for inst in random_instances(seed, 25, max_n=9, p=p):
                rules.add(inst.rule)
                got, want = solve_bfs(inst), reference_solve_bfs(inst)
                assert got.reachable == want.reachable
                assert got.sequence == want.sequence
                assert got.states_explored == reference_solve_bidir(inst).states_explored
                assert export_reconfig_graph(inst) == reference_export(inst)
        assert rules == set(Rule)

    def test_search_calls_graph_separates_only_to_certify(self, monkeypatch):
        """The search tests candidates through the mask kernel; the one
        ``Graph.separates`` call per certificate state is `certify`'s."""
        calls = []
        plain = Graph.separates
        monkeypatch.setattr(
            Graph, "separates", lambda g, *a: calls.append(a) or plain(g, *a)
        )
        answers = set()
        fig1 = figure1_graph()
        fixed = [
            ReconfigInstance(fig1, FIG1_S, FIG1_T, rule, FIG1_SA, FIG1_SB)
            for rule in (Rule.TS, Rule.TJ)
        ]
        for inst in [*fixed, *random_instances(53, 15)]:
            calls.clear()
            res = solve_bfs(inst)
            answers.add(res.reachable)
            assert len(calls) == (len(res.sequence) if res.reachable else 0)
        assert answers == {True, False}

    def test_state_cap_boundary_matches_unfiltered_search_random(self):
        for inst in random_instances(11, 30, max_n=9):
            explored = solve_bfs(inst).states_explored
            for search in (solve_bfs, reference_solve_bidir):
                assert search(inst, state_cap=explored).states_explored == explored
                if explored > 1:  # one state is reached without an insertion
                    with pytest.raises(ResourceLimitError):
                        search(inst, state_cap=explored - 1)

    def test_corridor_ties_match_one_sided_search(self):
        """Cycles and 3 x m grids have many shortest walks, so the walk
        rebuilt in the corridor is checked where ties between them are
        broken: every rule, TAR bounds up to +2, pairs of separators of
        one size up to 4."""
        rng = random.Random(59)
        graphs = [(cycle_graph(n), 0, n // 2) for n in range(4, 17)]
        graphs += [(grid_graph(3, m), m, 2 * m - 1) for m in range(2, 6)]
        lengths = set()
        for g, s, t in graphs:
            by_size = {}
            for x in brute_force_separators(g, s, t, max_size=4):
                by_size.setdefault(len(x), []).append(x)
            for group in by_size.values():
                for _ in range(4):
                    a, b = rng.choice(group), rng.choice(group)
                    low = len(a)
                    for rule, k in [(Rule.TS, None), (Rule.TJ, None)] + [
                        (Rule.TAR, bound) for bound in range(low, low + 3)
                    ]:
                        inst = ReconfigInstance(g, s, t, rule, a, b, k)
                        got, want = solve_bfs(inst), reference_solve_bfs(inst)
                        assert got.reachable == want.reachable
                        assert got.sequence == want.sequence, inst.describe()
                        lengths.add(len(got.sequence or ()))
        assert max(lengths) >= 6

    def test_c80_tj_searches_a_fraction_of_the_one_sided_ball(self):
        """TJ with 3 tokens on C80: one-sided BFS reaches all 57,798
        states before the target; the two balls meet at distance 3."""
        inst = ReconfigInstance(
            cycle_graph(80), 0, 40, Rule.TJ, frozenset({1, 2, 79}), frozenset({38, 39, 78})
        )
        res = solve_bfs(inst)
        assert res.states_explored <= 0.15 * 57_798
        assert res.sequence == [
            frozenset({1, 2, 79}),
            frozenset({1, 2, 78}),
            frozenset({1, 38, 78}),
            frozenset({38, 39, 78}),
        ]

    def test_frozen_target_stops_the_search(self):
        """TS on the path s - 2 - 3 - 4 - t with the star 1 - 5, 5 - 6,
        5 - 7 at t: the target {2, 3, 4} fills the path and has no slide,
        while the source, one token on the path and two in the star, has
        9 states in its component.  The dry target side answers NO
        before the source side has reached them all."""
        g = Graph(8, [(0, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (5, 7)])
        inst = ReconfigInstance(g, 0, 1, Rule.TS, frozenset({2, 6, 7}), frozenset({2, 3, 4}))
        got, want = solve_bfs(inst), reference_solve_bfs(inst)
        assert not got.reachable and not want.reachable
        assert want.states_explored == 9
        assert got.states_explored == reference_solve_bidir(inst).states_explored == 5

    def test_tar_cardinality_bound_respected(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 4}, k=3)
        res = solve_bfs(inst)
        assert res.reachable
        assert all(len(st) <= 3 for st in res.sequence)


class TestVerifySequence:
    def test_valid_tj_step(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        assert verify_sequence(inst, [frozenset({1, 3}), frozenset({1, 4})])

    def test_two_tokens_moved_rejected(self):
        inst = ReconfigInstance(
            figure1_graph(), FIG1_S, FIG1_T, Rule.TJ, FIG1_SA, FIG1_SB
        )
        res = verify_sequence(inst, [FIG1_SA, FIG1_SB])
        assert not res and "adjacent" in res.reason

    def test_tar_triple(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 4}, k=3)
        seq = [frozenset({1, 3}), frozenset({1, 3, 4}), frozenset({1, 4})]
        assert verify_sequence(inst, seq)

    @pytest.mark.parametrize("rule, k", [(Rule.TS, None), (Rule.TJ, None), (Rule.TAR, 3)])
    def test_repeated_state_is_not_a_step(self, rule, k):
        inst = c5_instance(rule, {1, 3}, {1, 3}, k)
        res = verify_sequence(inst, [frozenset({1, 3}), frozenset({1, 3})])
        assert not res and res.reason == f"states 0 and 1 are not {rule.value}-adjacent"

    def test_wrong_endpoint(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        res = verify_sequence(inst, [frozenset({1, 3}), frozenset({1, 3})])
        assert not res and "target" in res.reason

    def test_wrong_first_state(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        res = verify_sequence(inst, [frozenset({1, 4})])
        assert not res and res.reason == "first state differs from source"

    def test_terminal_in_state(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 3})
        res = verify_sequence(inst, [frozenset({1, 3}), frozenset({0, 3}), frozenset({1, 3})])
        assert not res and res.reason == "state 1 contains a terminal"

    def test_non_separator_state(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 3}, k=3)
        res = verify_sequence(
            inst, [frozenset({1, 3}), frozenset({3}), frozenset({1, 3})]
        )
        assert not res and "separator" in res.reason

    def test_empty(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        assert not verify_sequence(inst, [])


class TestExport:
    def test_c4_single_state(self):
        inst = ReconfigInstance(
            cycle_graph(4), 0, 2, Rule.TJ, frozenset({1, 3}), frozenset({1, 3})
        )
        rg = export_reconfig_graph(inst)
        assert rg.states == [frozenset({1, 3})]
        assert rg.edges == []

    def test_c5_tj_two_states_one_edge(self):
        inst = c5_instance(Rule.TJ, {1, 3}, {1, 4})
        rg = export_reconfig_graph(inst)
        assert rg.states == [frozenset({1, 3}), frozenset({1, 4})]
        assert len(rg.edges) == 1

    def test_c5_tar_state_set(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 4}, k=3)
        rg = export_reconfig_graph(inst)
        assert set(rg.states) == {
            frozenset({1, 3}),
            frozenset({1, 4}),
            frozenset({1, 3, 4}),
        }
        assert len(rg.edges) == 2

    def test_dot_output_mentions_rule(self):
        inst = c5_instance(Rule.TAR, {1, 3}, {1, 4}, k=3)
        dot = export_reconfig_graph(inst).to_dot()
        assert "TAR k=3" in dot and dot.startswith("graph")

    def test_matches_all_pairs_construction_random(self):
        for inst in random_instances(19, 30):
            got, want = export_reconfig_graph(inst), reference_export(inst)
            assert got == want
            assert got.to_dot() == want.to_dot()

    def test_search_walks_exported_edges_random(self):
        for inst in random_instances(37, 40):
            res, rg = solve_bfs(inst), export_reconfig_graph(inst)
            edges = set(rg.edges)
            want = graph_distance(rg, inst.source, inst.target)
            assert res.reachable == (want is not None)
            if res.reachable:
                assert res.distance == want
                for a, b in zip(res.sequence, res.sequence[1:]):
                    assert (a, b) in edges or (b, a) in edges


def check_stranded_witness(inst, comp):
    """Check a witness of the TS count rule from the definitions alone: a
    connected vertex set that avoids s, t and their common neighbours,
    has no other neighbour outside it, and holds different token counts
    in the source and the target."""
    g, s, t = inst.graph, inst.s, inst.t
    fixed = {s, t} | {w for w in g.vertices() if g.has_edge(w, s) and g.has_edge(w, t)}
    assert comp and not comp & fixed
    outside = {y for x in comp for y in g.neighbors(x)} - comp
    assert outside <= fixed
    start = min(comp)
    assert g.reachable_from(start, frozenset(g.vertices()) - comp) == comp
    assert sum(v in comp for v in inst.source) != sum(v in comp for v in inst.target)


class TestStrandedComponent:
    def test_witness_implies_no_on_random_graphs(self):
        # every TS pair of same-size separators, on seeded random graphs
        rng = random.Random(2203)
        stranded = agree = 0
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(4, 8), rng.choice((0.3, 0.5)))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            by_size = {}
            for x in brute_force_separators(g, s, t):
                by_size.setdefault(len(x), []).append(x)
            for group in by_size.values():
                for a, b in product(group, repeat=2):
                    inst = ReconfigInstance(g, s, t, Rule.TS, a, b)
                    comp = stranded_component(inst)
                    if comp is None:
                        continue
                    stranded += 1
                    check_stranded_witness(inst, comp)
                    res = solve_bfs(inst)
                    assert not res.reachable, (g.to_text(), s, t, sorted(a), sorted(b))
                    agree += 1
        assert stranded == agree > 2000

    def test_only_ts_is_counted(self):
        # on C7 the sides of s = 0 and t = 3 hold two and one tokens in
        # the source, one and two in the target
        g = cycle_graph(7)
        for rule, k in ((Rule.TJ, None), (Rule.TAR, 3)):
            inst = ReconfigInstance(g, 0, 3, rule, {1, 2, 4}, {1, 4, 5}, k)
            assert stranded_component(inst) is None
        inst = ReconfigInstance(g, 0, 3, Rule.TS, {1, 2, 4}, {1, 4, 5})
        assert stranded_component(inst) == frozenset({1, 2})
        assert not solve_bfs(inst).reachable

    def test_common_neighbours_are_removed(self):
        # s and t share neighbour 1, which every separator holds; the
        # tokens on the rest of the cycle C6 + chord 1-4 stay on their side
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        inst = ReconfigInstance(g, 0, 2, Rule.TS, {1, 4}, {1, 5})
        assert stranded_component(inst) is None
        assert solve_bfs(inst).reachable
