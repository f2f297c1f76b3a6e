import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vsreconf.cli import main as cli_main
from vsreconf.errors import ContractViolationError, InputError
from vsreconf.graph import Graph, cycle_graph, path_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.minsep import enumerate_minimal_separators
from vsreconf.separators import is_separator, shrink_to_minimal
from vsreconf.seriesparallel import _pair, recognize_and_decompose

from fixtures import figure1_graph, random_connected_graph, nonadjacent_pairs
from ground_truth import (
    brute_force_minimal_separators,
    cut_vertices,
    is_minimal_separator,
    minimum_separator_size,
    neighborhood,
)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1
        g = Graph(4, [(0, 1), (2, 1), (0, 1), (1, 0), (1, 2), (3, 2)])
        assert g.edges == {(0, 1), (1, 2), (2, 3)}
        assert g.neighbors(1) == {0, 2} and g.degree(2) == 2
        assert g == path_graph(4)

    def test_edges_from_a_generator(self):
        edges = [(3, 0), (0, 1), (2, 1), (1, 3), (3, 0)]
        g = Graph(4, (e for e in edges))
        assert g == Graph(4, edges) and g.edges == Graph(4, edges).edges
        assert [g.neighbors(v) for v in g.vertices()] == [
            Graph(4, edges).neighbors(v) for v in range(4)
        ]

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (0, 3), (2, 2)], "edge (0,3) has an endpoint outside [0,3)"),
        ([(0, 1), (-1, 2), (2, 2)], "edge (-1,2) has an endpoint outside [0,3)"),
        ([(0, 1), (2, 2), (0, 3)], "self-loop at vertex 2"),
        ([(1, 2), (5, 5)], "edge (5,5) has an endpoint outside [0,3)"),
    ])
    def test_first_bad_edge_named(self, edges, message):
        for given in (edges, iter(edges)):
            with pytest.raises(InputError) as exc:
                Graph(3, given)
            assert str(exc.value) == message

    def test_text_roundtrip(self):
        g = figure1_graph()
        assert Graph.from_text(g.to_text()) == g

    def test_text_comments_ignored(self):
        g = Graph.from_text("# comment\n3 2\n0 1\n# another\n1 2\n")
        assert g == path_graph(3)

    def test_text_bad_edge_count(self):
        with pytest.raises(InputError):
            Graph.from_text("3 2\n0 1\n")

    def test_blocks_of_two_triangles(self):
        # bowtie: triangles 0-1-2 and 2-3-4 share vertex 2
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        blocks = g.blocks()
        assert len(blocks) == 2
        assert cut_vertices(g) == {2}

    def test_bridge_is_single_edge_block(self):
        g = path_graph(3)
        assert sorted(sorted(b) for b in g.blocks()) == [[(0, 1)], [(1, 2)]]

    def test_neighborhood_excludes_the_set(self):
        g = path_graph(5)
        assert neighborhood(g, {0}) == {1}
        assert neighborhood(g, {1, 2}) == {0, 3}
        assert neighborhood(g, set()) == frozenset()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_bad_ids_refused_where_they_enter(self, bad, tmp_path, capsys):
        # graph queries trust their ids: these entry points check them
        g = cycle_graph(4)
        calls = [
            lambda: is_separator(g, 0, 2, {1, bad}),
            lambda: is_separator(g, bad, 2, {1, 3}),
            lambda: ReconfigInstance(g, bad, 2, Rule.TJ, {1, 3}, {1, 3}),
            lambda: ReconfigInstance(g, 0, bad, Rule.TJ, {1, 3}, {1, 3}),
            lambda: ReconfigInstance(g, 0, 2, Rule.TJ, {1, bad}, {1, 3}),
            lambda: ReconfigInstance(g, 0, 2, Rule.TJ, {1, 3}, {1, bad}),
            lambda: enumerate_minimal_separators(g, bad, 2),
            lambda: enumerate_minimal_separators(g, 0, bad),
            lambda: minimum_separator_size(g, bad, 2),
            lambda: _pair(recognize_and_decompose(g), 0, bad).kind,
        ]
        for call in calls:
            with pytest.raises(InputError, match=f"vertex id {bad} outside"):
                call()

        graph = tmp_path / "c4.graph"
        graph.write_text(g.to_text())
        inst = tmp_path / "c4.inst"
        inst.write_text("graph c4.graph\ns 0\nt 2\nrule TJ\nsource 1 3\ntarget 1 3\n")
        seq = tmp_path / "c4.seq"
        seq.write_text("1 3\n3 9\n1 3\n")
        assert cli_main(["separators", str(graph), str(bad), "2"]) == 2
        assert f"vertex id {bad} outside" in capsys.readouterr().err
        assert cli_main(["oracle", str(inst), "--verify", str(seq)]) == 2
        assert "vertex id 9 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("s, t, message", [
        (0, 1, "terminals are adjacent: no separator exists"),
        (0, 0, "terminals must be distinct"),
    ])
    def test_one_refusal_for_an_inseparable_pair(self, s, t, message):
        # every entry point that takes a terminal pair refuses it alike
        g = cycle_graph(4)
        calls = [
            lambda: ReconfigInstance(g, s, t, Rule.TJ, {2}, {2}),
            lambda: enumerate_minimal_separators(g, s, t),
            lambda: minimum_separator_size(g, s, t),
            lambda: _pair(recognize_and_decompose(g), s, t).kind,
        ]
        for call in calls:
            with pytest.raises(InputError, match=f"^{message}$"):
                call()


class TestBiconnectivity:
    def test_cut_vertices_and_blocks_on_random_graphs(self):
        # v is a cut vertex iff G - v has more components than G; an
        # isolated v leaves one fewer, so it never counts
        rng = random.Random(11)
        seen_disconnected = seen_isolated = 0
        for _ in range(2000):
            n = rng.randint(1, 14)
            p = rng.choice([0.1, 0.2, 0.35, 0.6])
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            base = len(g.components())
            want = {v for v in g.vertices() if len(g.components({v})) > base}
            assert cut_vertices(g) == want, g.to_text()
            blocks = g.blocks()
            assert sum(len(b) for b in blocks) == len(g.edges)
            assert frozenset().union(*blocks) == g.edges
            assert blocks == sorted(blocks, key=sorted)
            # blocks meet only at cut vertices
            spans = [{v for e in b for v in e} for b in blocks]
            shared = {v for v in g.vertices() if sum(v in sp for sp in spans) >= 2}
            assert shared == want
            # the same DFS reads connectivity off its root count
            assert g.blocks(connected=True) == (blocks if base <= 1 else None)
            seen_disconnected += base > 1
            seen_isolated += any(g.degree(v) == 0 for v in g.vertices())
        assert seen_disconnected > 500 and seen_isolated > 500
        assert Graph(0).blocks(connected=True) == Graph(1).blocks(connected=True) == []

    def test_blocks_and_cut_vertices_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1973)
        seen_bridges = seen_isolated = seen_split = 0
        for _ in range(400):
            n = rng.randint(1, 40)
            p = rng.choice([0.03, 0.06, 0.1, 0.2, 0.4])
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            want = sorted(
                (frozenset((min(e), max(e)) for e in comp)
                 for comp in nx.biconnected_component_edges(h)),
                key=min,
            )
            assert g.blocks() == want, g.to_text()
            assert cut_vertices(g) == set(nx.articulation_points(h)), g.to_text()
            seen_bridges += any(nx.bridges(h))
            seen_isolated += any(g.degree(v) == 0 for v in g.vertices())
            seen_split += nx.number_connected_components(h) > 1
        assert min(seen_bridges, seen_isolated, seen_split) > 100

    def test_cut_vertices_between_match_one_vertex_removals(self):
        # v is listed iff removing it alone separates s from t; nothing
        # is listed when t lies in another component
        rng = random.Random(37)
        seen_apart = seen_cut = seen_uncut = 0
        for _ in range(1500):
            n = rng.randint(2, 12)
            p = rng.choice([0.1, 0.2, 0.35, 0.6])
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            s, t = rng.sample(range(n), 2)
            got = g.cut_vertices_between(s, t)
            if g.separates(s, t, ()):
                assert got == [], (g.to_text(), s, t)
                seen_apart += 1
                continue
            want = [v for v in g.vertices() if v not in (s, t) and g.separates(s, t, {v})]
            assert got == want, (g.to_text(), s, t)
            seen_cut += bool(want)
            seen_uncut += not want
        assert min(seen_apart, seen_cut, seen_uncut) > 200


class TestSearches:
    def test_separates_and_boundary_match_the_full_component(self):
        # one early-exit search each, against the whole component of the
        # start; removed sets often hold the start's neighbours, and
        # sometimes the start or the target itself
        rng = random.Random(23)
        seen_disconnected = seen_cut_off = seen_reached = 0
        for _ in range(3000):
            n = rng.randint(1, 12)
            p = rng.choice([0.1, 0.25, 0.45])
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            s, t = rng.randrange(n), rng.randrange(n)
            removed = {v for v in g.vertices() if rng.random() < 0.2}
            removed |= {v for v in g.neighbors(s) if rng.random() < 0.7}
            comp = g.reachable_from(s, removed)
            assert g.separates(s, t, removed) == (t not in comp), (g.to_text(), s, t, removed)
            assert g.boundary(s, removed) == neighborhood(g, comp), (g.to_text(), s, removed)
            seen_disconnected += not g.is_connected()
            seen_cut_off += t not in comp
            seen_reached += t in comp and t != s
        assert min(seen_disconnected, seen_cut_off, seen_reached) > 300


class TestIsSeparator:
    def test_p3_internal_vertex(self):
        assert is_separator(path_graph(3), 0, 2, {1})

    def test_c4_single_vertex_fails(self):
        assert not is_separator(cycle_graph(4), 0, 2, {1})

    def test_figure1_target_state(self):
        assert is_separator(figure1_graph(), 0, 9, {7, 8})

    def test_state_with_terminal_rejected(self):
        with pytest.raises(InputError):
            is_separator(path_graph(3), 0, 2, {0, 1})

    def test_bad_vertex_rejected(self):
        with pytest.raises(InputError):
            is_separator(path_graph(3), 0, 2, {7})


class TestMinimality:
    def test_c4_both_vertices(self):
        assert is_minimal_separator(cycle_graph(4), 0, 2, {1, 3})

    def test_p4_superset_not_minimal(self):
        assert not is_minimal_separator(path_graph(4), 0, 3, {1, 2})

    def test_diamond_unique_cut(self):
        # a=0, b=1, c=2, d=3
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert is_minimal_separator(g, 0, 3, {1, 2})

    def test_definitional_equivalence_small_random(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(4, 7))
            for s, t in nonadjacent_pairs(g):
                for sep in brute_force_minimal_separators(g, s, t):
                    assert is_minimal_separator(g, s, t, sep)

    def test_matches_drop_one_vertex_rule(self):
        # the full-sides test against the definition: a separator from
        # which dropping any one vertex reconnects s and t, on every
        # subset of the non-terminals, disconnected graphs included
        def drop_one_rule(g, s, t, sep):
            if t in g.reachable_from(s, sep):
                return False
            return all(t in g.reachable_from(s, sep - {v}) for v in sep)

        rng = random.Random(19)
        counts = [0, 0]
        for _ in range(80):
            n = rng.randint(3, 7)
            p = rng.choice([0.25, 0.45, 0.65])
            g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            for s, t in nonadjacent_pairs(g):
                pool = [v for v in g.vertices() if v not in (s, t)]
                for r in range(len(pool) + 1):
                    for combo in itertools.combinations(pool, r):
                        sep = frozenset(combo)
                        want = drop_one_rule(g, s, t, sep)
                        assert is_minimal_separator(g, s, t, sep) == want, (g.to_text(), s, t, combo)
                        counts[want] += 1
        assert min(counts) > 500


class TestShrinkToMinimal:
    def test_p4_two_step_rule(self):
        # s-side neighborhood {1} already separates; the t-side pass keeps it
        assert shrink_to_minimal(path_graph(4), 0, 3, {1, 2}) == {1}

    def test_c4_already_minimal(self):
        assert shrink_to_minimal(cycle_graph(4), 0, 2, {1, 3}) == {1, 3}

    def test_star_cut_vertex(self):
        from fixtures import star_fixture

        assert shrink_to_minimal(star_fixture(), 0, 1, {2, 3}) == {2}

    def test_non_separator_rejected(self):
        with pytest.raises(ContractViolationError):
            shrink_to_minimal(cycle_graph(4), 0, 2, {1})

    def test_random_supersets_shrink_to_minimal_subsets(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(4, 8))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            pool = [v for v in g.vertices() if v not in (s, t)]
            cand = frozenset(v for v in pool if rng.random() < 0.6)
            if not is_separator(g, s, t, cand):
                continue
            res = shrink_to_minimal(g, s, t, cand)
            assert res <= cand
            assert is_minimal_separator(g, s, t, res)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_separator_matches_brute_force_path_search(data):
    n = data.draw(st.integers(3, 7))
    density = data.draw(st.floats(0.2, 0.9))
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, density)
    pairs = list(nonadjacent_pairs(g))
    if not pairs:
        return
    s, t = rng.choice(pairs)
    pool = [v for v in g.vertices() if v not in (s, t)]
    sep = frozenset(v for v in pool if rng.random() < 0.5)
    # independent check: DFS over all simple paths
    def has_path(cur, seen):
        if cur == t:
            return True
        for y in g.neighbors(cur):
            if y not in seen and y not in sep:
                if has_path(y, seen | {y}):
                    return True
        return False

    assert is_separator(g, s, t, sep) == (not has_path(s, {s}))


def test_minimum_separator_size_against_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(4, 7))
        for s, t in nonadjacent_pairs(g):
            family = brute_force_minimal_separators(g, s, t)
            expected = min(len(f) for f in family)
            assert minimum_separator_size(g, s, t) == expected


def test_minimum_separator_size_and_is_separator_match_networkx():
    # graphs with isolated vertices and several components included
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    seen_cut = seen_apart = 0
    for _ in range(60):
        n = rng.randint(3, 14)
        p = rng.choice([0.1, 0.2, 0.35, 0.5])
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(n))
        for s, t in nonadjacent_pairs(g):
            size = minimum_separator_size(g, s, t)
            assert size == nx.node_connectivity(h, s, t), (g.to_text(), s, t)
            seen_apart += size == 0
            free = [v for v in range(n) if v not in (s, t)]
            sep = frozenset(rng.sample(free, rng.randint(0, n - 2)))
            cut = not nx.has_path(h.subgraph(set(range(n)) - sep), s, t)
            assert is_separator(g, s, t, sep) == cut, (g.to_text(), s, t, sep)
            seen_cut += cut and size > 0
    assert seen_cut > 100 and seen_apart > 100, (seen_cut, seen_apart)
