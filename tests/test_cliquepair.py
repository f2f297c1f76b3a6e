import hashlib
import itertools
import random

import pytest

from vsreconf import solve
from vsreconf.cliquepair import (
    CutVertexCliques,
    MatchedCliques,
    NotInScope,
    SpecialC5,
    characterize,
    solve_tar_tj_3p1d,
    solve_ts_3p1d,
)
from vsreconf.errors import InputError, NotApplicableError
from vsreconf.graph import Graph, complete_graph, cycle_graph, path_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.oracle import solve_bfs, stranded_component, verify_sequence

from fixtures import (
    FIG2_S,
    FIG2_SA,
    FIG2_SB,
    FIG2_T,
    FIG3_S,
    FIG3_SA,
    FIG3_SB,
    FIG3_T,
    all_labeled_connected_graphs,
    figure2_graph,
    figure3_graph,
)
from ground_truth import brute_force_separators, is_3p1_diamond_free


def F(*xs):
    return frozenset(xs)


def bowtie():
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def prism():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def diamond():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def cut_vertex_cliques(rng, n):
    """Cliques {0..c} and {c..n-1}, glued at c, randomly relabeled."""
    c = rng.randint(1, n - 2)
    edges = list(itertools.combinations(range(c + 1), 2))
    edges += list(itertools.combinations(range(c, n), 2))
    return _relabel(rng, n, edges)


def matched_cliques(rng, n):
    """Disjoint cliques {0..c-1} and {c..n-1} joined by a random nonempty
    matching, randomly relabeled."""
    c = rng.randint(2, n - 2)
    q2 = list(range(c, n))
    rng.shuffle(q2)
    size = rng.randint(1, min(c, n - c))
    edges = list(itertools.combinations(range(c), 2))
    edges += list(itertools.combinations(range(c, n), 2))
    edges += list(zip(range(size), q2))
    return _relabel(rng, n, edges)


def matched_shape(n, c, size):
    """Cliques {0..c-1} and {c..n-1} joined by the matching i-(c + i),
    i < size."""
    return Graph(n, list(itertools.combinations(range(c), 2))
                 + list(itertools.combinations(range(c, n), 2))
                 + [(i, c + i) for i in range(size)])


def cocktail_party(m):
    """K_2m minus the perfect matching {2i, 2i+1}: diamonds everywhere."""
    return Graph(2 * m, [(a, b) for a, b in itertools.combinations(range(2 * m), 2) if a // 2 != b // 2])


def larger_shapes(n):
    """Seeded class members on n vertices, plus a cocktail party for even
    n, each with whether it lies in the class."""
    rng = random.Random(n)
    shapes = [(cut_vertex_cliques(rng, n), True), (matched_cliques(rng, n), True)]
    if n % 2 == 0:
        shapes.append((cocktail_party(n // 2), False))
    return shapes


PINNED = "49cd6e9af46e61a5237ddf9688753af45533c5a86d4785cf499b4ae228accf7f"


def render(ch):
    """Every field of a characterization, in one line."""
    if isinstance(ch, CutVertexCliques):
        return f"cut-vertex {sorted(ch.q1)} {sorted(ch.q2)} {ch.w}"
    if isinstance(ch, MatchedCliques):
        return f"matched {sorted(ch.q1)} {sorted(ch.q2)} {sorted(ch.matching)}"
    if isinstance(ch, SpecialC5):
        return f"five-cycle {list(ch.order)}"
    return f"not-in-scope {ch.reason}"


class TestForbiddenSubgraphs:
    def test_bowtie_in_class(self):
        assert is_3p1_diamond_free(bowtie())

    def test_diamond_excluded(self):
        assert not is_3p1_diamond_free(diamond())

    def test_c5_in_class(self):
        assert is_3p1_diamond_free(cycle_graph(5))

    def test_independent_triple_excluded(self):
        assert not is_3p1_diamond_free(Graph(3, []))


class TestCharacterize:
    def test_bowtie(self):
        ch = characterize(bowtie())
        assert ch == CutVertexCliques(F(0, 1, 2), F(2, 3, 4), 2)

    def test_prism(self):
        ch = characterize(prism())
        assert isinstance(ch, MatchedCliques)
        assert {ch.q1, ch.q2} == {F(0, 1, 2), F(3, 4, 5)}
        assert ch.matching == {(0, 3), (1, 4), (2, 5)}

    def test_p4_matched(self):
        ch = characterize(path_graph(4))
        assert isinstance(ch, MatchedCliques)
        assert ch.matching == {(1, 2)}

    def test_c5(self):
        assert isinstance(characterize(cycle_graph(5)), SpecialC5)

    def test_complete_not_in_scope(self):
        assert isinstance(characterize(complete_graph(4)), NotInScope)

    def test_small_not_in_scope(self):
        assert isinstance(characterize(path_graph(3)), NotInScope)

    def test_disconnected_not_in_scope(self):
        # dense enough for the edge count, so refused by connectivity
        assert characterize(Graph(4, [(0, 1), (2, 3)])) == NotInScope("disconnected")
        # too sparse: refused by the edge count, before connectivity is read
        assert characterize(Graph(6, [(0, 1), (2, 3)])) == NotInScope(
            "not two overlapping cliques or a five-cycle"
        )

    def test_figure2(self):
        ch = characterize(figure2_graph())
        assert ch == CutVertexCliques(F(0, 1, 2, 3), F(3, 4, 5, 6, 7), 3)

    def test_figure3(self):
        for flag in (True, False):
            ch = characterize(figure3_graph(flag))
            assert isinstance(ch, MatchedCliques)
            want = {(0, 9), (2, 5)} | ({(1, 6)} if flag else set())
            assert ch.matching == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_agrees_with_subgraph_check(self, n):
        for g in all_labeled_connected_graphs(n):
            if len(g.edges) == n * (n - 1) // 2:
                continue
            in_class = is_3p1_diamond_free(g)
            ch = characterize(g)
            assert in_class == (not isinstance(ch, NotInScope)), g.to_text()

    @pytest.mark.parametrize("n", range(8, 21))
    def test_agrees_with_subgraph_check_on_larger_shapes(self, n):
        for g, in_class in larger_shapes(n):
            assert is_3p1_diamond_free(g) == in_class, g.to_text()
            assert (not isinstance(characterize(g), NotInScope)) == in_class, g.to_text()

    def test_exact_results_pinned(self):
        # `recognize` prints these results, so the tie-breaks (which clique
        # is q1, where the five-cycle starts) and the reasons are pinned too
        graphs = [g for n in (4, 5, 6) for g in all_labeled_connected_graphs(n)]
        graphs += [g for n in range(8, 21) for g, _ in larger_shapes(n)]
        text = "\n".join(render(characterize(g)) for g in graphs)
        assert len(graphs) == 27_503
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED

    @pytest.mark.parametrize("m", [12, 16, 20])
    def test_large_cocktail_parties_refused(self, m):
        # the complement is a perfect matching: m components, while two
        # matched cliques have a complement of at most two
        assert isinstance(characterize(cocktail_party(m)), NotInScope)

    def test_clique_variants_have_small_diameter(self):
        nx = pytest.importorskip("networkx")
        for g in (bowtie(), prism(), figure2_graph(), figure3_graph(False)):
            assert nx.diameter(nx.Graph(list(g.edges))) <= 3


class TestSolveTarTj:
    def test_bowtie_identity(self):
        g = bowtie()
        inst = ReconfigInstance(g, 0, 4, Rule.TJ, F(2), F(2))
        res = solve_tar_tj_3p1d(inst)
        assert res.reachable and res.sequence == [F(2)]

    def test_figure2_tj(self):
        inst = ReconfigInstance(
            figure2_graph(), FIG2_S, FIG2_T, Rule.TJ, FIG2_SA, FIG2_SB
        )
        res = solve_tar_tj_3p1d(inst)
        assert res.reachable
        assert verify_sequence(inst, res.sequence)

    @pytest.mark.parametrize(
        "g, s, t, source, target",
        [
            (prism(), 0, 4, F(1, 2, 3), F(1, 3, 5)),
            # two 5-cliques and a perfect matching: both endpoints hold the
            # chosen ends {1, 2, 3, 4, 5}, so token 8 jumps straight to 9
            (matched_shape(10, 5, 5), 0, 6, F(1, 2, 3, 4, 5, 8), F(1, 2, 3, 4, 5, 9)),
        ],
        ids=["prism", "two-5-cliques"],
    )
    def test_matched_tj_takes_the_oracle_distance(self, g, s, t, source, target):
        inst = ReconfigInstance(g, s, t, Rule.TJ, source, target)
        res = solve(inst, "class")
        assert res.engine == "class" and verify_sequence(inst, res.sequence)
        assert len(res.sequence) == len(solve_bfs(inst).sequence) == 2

    def test_figure3_tj_both_variants(self):
        for flag in (True, False):
            inst = ReconfigInstance(
                figure3_graph(flag), FIG3_S, FIG3_T, Rule.TJ, FIG3_SA, FIG3_SB
            )
            res = solve_tar_tj_3p1d(inst)
            assert res.reachable
            assert verify_sequence(inst, res.sequence)

    def test_figure2_tar(self):
        inst = ReconfigInstance(
            figure2_graph(), FIG2_S, FIG2_T, Rule.TAR, FIG2_SA, FIG2_SB, 5
        )
        res = solve_tar_tj_3p1d(inst)
        assert res.reachable
        assert verify_sequence(inst, res.sequence)

    def test_tar_trivially_negative(self):
        inst = ReconfigInstance(path_graph(4), 0, 3, Rule.TAR, F(1), F(2), 1)
        assert not solve_tar_tj_3p1d(inst).reachable

    def test_c5_tj(self):
        inst = ReconfigInstance(cycle_graph(5), 0, 2, Rule.TJ, F(1, 3), F(1, 4))
        res = solve_tar_tj_3p1d(inst)
        assert res.reachable and verify_sequence(inst, res.sequence)

    def test_rejects_ts(self):
        inst = ReconfigInstance(path_graph(4), 0, 3, Rule.TS, F(1), F(2))
        with pytest.raises(InputError):
            solve_tar_tj_3p1d(inst)

    def test_refuses_out_of_scope(self):
        inst = ReconfigInstance(cycle_graph(6), 0, 3, Rule.TJ, F(1, 4), F(2, 5))
        with pytest.raises(NotApplicableError):
            solve_tar_tj_3p1d(inst)


class TestSolveTs:
    def test_figure2_no(self):
        inst = ReconfigInstance(
            figure2_graph(), FIG2_S, FIG2_T, Rule.TS, FIG2_SA, FIG2_SB
        )
        assert not solve_ts_3p1d(inst).reachable
        assert not solve_bfs(inst).reachable

    def test_figure3_passage_yes(self):
        inst = ReconfigInstance(
            figure3_graph(True), FIG3_S, FIG3_T, Rule.TS, FIG3_SA, FIG3_SB
        )
        res = solve_ts_3p1d(inst)
        assert res.reachable
        assert verify_sequence(inst, res.sequence)

    def test_figure3_no_passage_no(self):
        inst = ReconfigInstance(
            figure3_graph(False), FIG3_S, FIG3_T, Rule.TS, FIG3_SA, FIG3_SB
        )
        assert not solve_ts_3p1d(inst).reachable
        assert not solve_bfs(inst).reachable

    def test_rejects_tj(self):
        inst = ReconfigInstance(path_graph(4), 0, 3, Rule.TJ, F(1), F(2))
        with pytest.raises(InputError):
            solve_ts_3p1d(inst)


def random_class_graph(rng):
    """Random member of the class: either glued or matched cliques."""
    if rng.random() < 0.5:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        # cliques {0..n1} and {n1..n1+n2} share vertex n1
        verts1 = list(range(n1 + 1))
        verts2 = list(range(n1, n1 + n2 + 1))
        edges = list(itertools.combinations(verts1, 2))
        edges += list(itertools.combinations(verts2, 2))
        return Graph(n1 + n2 + 1, edges)
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    q1 = list(range(n1))
    q2 = list(range(n1, n1 + n2))
    edges = list(itertools.combinations(q1, 2)) + list(itertools.combinations(q2, 2))
    pairs = rng.sample(q2, min(n1, n2))
    cross = [(a, b) for a, b in zip(q1, pairs) if rng.random() < 0.7]
    if not cross:
        cross = [(q1[0], q2[0])]
    return Graph(n1 + n2, edges + cross)


def test_matches_oracle_on_random_class_instances():
    rng = random.Random(201)
    done = 0
    while done < 50:
        g = random_class_graph(rng)
        ch = characterize(g)
        if isinstance(ch, NotInScope):
            continue
        pairs = [
            (s, t)
            for s in range(g.n)
            for t in range(s + 1, g.n)
            if not g.has_edge(s, t)
        ]
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        seps = sorted(brute_force_separators(g, s, t), key=sorted)
        by_size = {}
        for x in seps:
            by_size.setdefault(len(x), []).append(x)
        pools = [v for v in by_size.values() if len(v) >= 2]
        if not pools:
            continue
        pool = pools[rng.randrange(len(pools))]
        a, b = rng.sample(pool, 2)
        ts = ReconfigInstance(g, s, t, Rule.TS, a, b)
        tj = ReconfigInstance(g, s, t, Rule.TJ, a, b)
        tar = ReconfigInstance(g, s, t, Rule.TAR, a, b, len(a) + rng.randint(0, 1))
        assert solve_ts_3p1d(ts).reachable == solve_bfs(ts).reachable, (
            g.to_text(), s, t, sorted(a), sorted(b),
        )
        res_tj = solve_tar_tj_3p1d(tj)
        assert res_tj.reachable == solve_bfs(tj).reachable
        if res_tj.reachable:
            assert verify_sequence(tj, res_tj.sequence)
        res_tar = solve_tar_tj_3p1d(tar)
        assert res_tar.reachable == solve_bfs(tar).reachable
        if res_tar.reachable:
            assert verify_sequence(tar, res_tar.sequence)
        done += 1


def test_matched_tj_holding_the_chosen_ends_jumps_only_the_rest():
    # TJ on matched cliques: when both endpoints hold the chosen end of
    # every matching edge (the terminal's partner, else the q1 end), no
    # passage flips, solve_via_tj's cut-vertex rule takes a cut vertex
    # both hold, and the certificate jumps each token of source - target
    # once, the fewest possible
    def check(g, s, t, a, b):
        inst = ReconfigInstance(g, s, t, Rule.TJ, a, b)
        res = solve(inst, "class")
        assert verify_sequence(inst, res.sequence)
        assert len(res.sequence) - 1 == len(a - b), (g.to_text(), s, t, sorted(a), sorted(b))

    # the one matching edge 4-5: both ends split 1 from 2, and only 5 is
    # held by both endpoints
    g = Graph(7, [(0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
    check(g, 1, 2, F(0, 5, 6), F(0, 4, 5))
    rng = random.Random(26)
    done = 0
    while done < 300:
        g = matched_cliques(rng, rng.randint(4, 10))
        ch = characterize(g)
        s, t = rng.choice([p for p in itertools.combinations(g.vertices(), 2) if not g.has_edge(*p)])
        chosen = frozenset(y if x in (s, t) else x for x, y in ch.matching)
        free = [v for v in g.vertices() if v not in chosen and v not in (s, t)]
        extra = rng.randint(1, len(free)) if free else 0
        a, b = (chosen | frozenset(rng.sample(free, extra)) for _ in range(2))
        if a == b:
            continue
        check(g, s, t, a, b)
        done += 1


def class_shapes(n):
    """Every cut-vertex and matched-cliques graph on n vertices, up to
    isomorphism: cliques {0..c} and {c..n-1} glued at c, and each
    :func:`matched_shape`."""
    for c in range(1, n - 1):
        yield Graph(n, list(itertools.combinations(range(c + 1), 2))
                    + list(itertools.combinations(range(c, n), 2)))
    for c in range(2, n - 1):
        for size in range(1, min(c, n - c) + 1):
            yield matched_shape(n, c, size)


def test_class_ts_is_yes_unless_stranded():
    # on every class shape with n <= 9 and on C5, each TS pair of
    # separators that the count rule does not strand is YES; reachability
    # is an equivalence, so each group of equal counts is checked as a
    # star from its first member
    graphs = [cycle_graph(5)] + [g for n in range(4, 10) for g in class_shapes(n)]
    pairs = 0
    for g in graphs:
        assert not isinstance(characterize(g), NotInScope), g.to_text()
        for s, t in itertools.combinations(g.vertices(), 2):
            if g.has_edge(s, t):
                continue
            groups = {}
            for x in sorted(brute_force_separators(g, s, t), key=sorted):
                groups.setdefault(len(x), []).append(x)
            for group in groups.values():
                while group:
                    a = group[0]
                    rest = []
                    for b in group:
                        inst = ReconfigInstance(g, s, t, Rule.TS, a, b)
                        if stranded_component(inst) is not None:
                            rest.append(b)
                            continue
                        assert solve_bfs(inst).reachable, (g.to_text(), s, t, sorted(a), sorted(b))
                        pairs += 1
                    group = rest
    assert pairs > 1000
