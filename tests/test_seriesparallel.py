import hashlib
import itertools
import random

import pytest

from vsreconf.dispatch import solve
from vsreconf.errors import InputError, NotApplicableError
from vsreconf.graph import Graph, complete_graph, cycle_graph, path_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.minsep import enumerate_minimal_separators
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.separators import is_separator
from vsreconf.seriesparallel import (
    Nested,
    Parallel,
    PSTree,
    Sequential,
    _pair,
    build_ps_tree,
    recognize_and_decompose,
    sp_solve_tj,
)

from fixtures import (
    PP_A,
    PP_M,
    PP_S,
    PP_T,
    ladder_edges,
    nonadjacent_pairs,
    parallel_pair_graph,
    random_connected_graph,
    random_series_parallel_graph,
    theta_graph,
)
from ground_truth import (
    brute_force_minimal_separators,
    cut_vertices,
    minimum_separator_size,
    reconfigure_to_canonical,
    replay,
)


def F(*xs):
    return frozenset(xs)


def k23():
    return Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


class TestConstructionTree:
    def test_triangle_shape(self):
        tree = build_ps_tree([(0, 1), (0, 2), (1, 2)])
        assert tree.op[tree.root_edge][0] == "P"
        kids = tree.op[tree.root_edge][2]
        s_kids = [k for k in kids if tree.op.get(k, ("",))[0] == "S"]
        assert len(s_kids) == 1
        assert tree.epsilon(0, 1) == 1

    def test_triangle_replay(self):
        tree = build_ps_tree([(0, 1), (0, 2), (1, 2)])
        assert sorted(replay(tree), key=sorted) == [F(0, 1), F(0, 2), F(1, 2)]

    def test_k23_epsilon_and_root(self):
        tree = build_ps_tree(list(k23().edges))
        assert tree.root_vertices() == F(0, 1)
        assert tree.epsilon(0, 1) == 2

    def test_k4_rejected(self):
        with pytest.raises(NotApplicableError):
            build_ps_tree(list(complete_graph(4).edges))

    def test_repeated_edge_rejected(self):
        with pytest.raises(InputError, match="repeats"):
            build_ps_tree([(0, 1), (1, 2), (0, 2), (2, 1)])
        # the first repeated pair in sorted order is named
        with pytest.raises(InputError) as exc:
            build_ps_tree([(3, 4), (0, 1), (2, 3), (4, 3), (1, 2), (2, 0), (1, 0)])
        assert str(exc.value) == "edge (0, 1) repeats in the block"

    def test_k4_block_named_in_error(self):
        g = Graph(5, list(complete_graph(4).edges) + [(3, 4)])
        with pytest.raises(NotApplicableError, match=r"\[0, 1, 2, 3\]"):
            recognize_and_decompose(g)

    def test_decompose_path_is_leaf_blocks(self):
        d = recognize_and_decompose(path_graph(4))
        assert d.trees == []
        assert len(d.k2_blocks) == 3

    def test_replay_random(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_series_parallel_graph(rng, rng.randint(3, 20))
            d = recognize_and_decompose(g)
            for tree in d.trees:
                pairs = {frozenset(p) for p in replay(tree)}
                block = {
                    frozenset(e)
                    for e in g.edges
                    if set(e) <= tree.block_vertices
                }
                # the block's edges are exactly the replayed leaves
                assert pairs <= block

    def test_term_rendering(self):
        tree = build_ps_tree([(0, 1), (0, 2), (1, 2)])
        term = tree.to_term()
        assert term.startswith("(P ") and "S@2" in term

    def test_term_matches_recursive_rendering(self):
        def render(tree, eid):
            u, v = tree.endpoints[eid]
            if eid not in tree.op:
                return f"{u}-{v}"
            kind, created, (l, r) = tree.op[eid]
            tag = f"S@{created}" if kind == "S" else "P"
            return f"({tag} {u}-{v} {render(tree, l)} {render(tree, r)})"

        rng = random.Random(11)
        for _ in range(60):
            g = random_series_parallel_graph(rng, rng.randint(3, 40))
            g = Graph(g.n, _relabelled(rng, g.n, g.edges))
            (tree,) = recognize_and_decompose(g).trees
            assert tree.to_term() == render(tree, tree.root_edge)

    def test_disconnected_not_applicable(self):
        for g in (
            Graph(4, [(0, 1), (2, 3)]),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # vertex 4 beside a C4
            Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),  # two triangles
        ):
            with pytest.raises(NotApplicableError) as exc:
                recognize_and_decompose(g)
            assert str(exc.value) == "decomposition expects a connected graph"

    def test_connectivity_edge_cases(self):
        for n in (0, 1):
            decomp = recognize_and_decompose(Graph(n))
            assert decomp.trees == [] and decomp.k2_blocks == []
        # two triangles sharing the cut vertex 2
        bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        decomp = recognize_and_decompose(bowtie)
        assert [tree.to_term() for tree in decomp.trees] == [
            "(P 0-1 0-1 (S@2 0-1 0-2 1-2))", "(P 2-3 2-3 (S@4 2-3 2-4 3-4))",
        ]
        assert decomp.k2_blocks == []


def reference_build_ps_tree(block_edges):
    """The rescanning reduction: every step regroups all live edges to
    find a parallel pair, then recounts every vertex's live edges to find
    a series one."""
    endpoints = dict(enumerate(sorted(tuple(sorted(e)) for e in block_edges)))
    leaves = frozenset(endpoints)
    block_vertices = frozenset(v for e in endpoints.values() for v in e)
    live, op, parent, support, reductions = set(endpoints), {}, {}, {}, []

    def reduce(kind, created, kids, ends):
        m = len(endpoints)
        endpoints[m] = ends
        op[m] = (kind, created, kids)
        for e in kids:
            parent[e] = m
        if created is not None:
            support[created] = m
        live.difference_update(kids)
        live.add(m)
        reductions.append(m)

    while len(live) > 1:
        groups, incident = {}, {}
        for e in sorted(live):
            groups.setdefault(endpoints[e], []).append(e)
            for x in endpoints[e]:
                incident.setdefault(x, []).append(e)
        par = [grp for grp in groups.values() if len(grp) >= 2]
        if par:
            e1, e2 = min(par, key=lambda grp: grp[0])[:2]
            reduce("P", None, (e1, e2), endpoints[e1])
            continue
        for w in sorted(block_vertices, reverse=True):
            inc = incident.get(w, [])
            if len(inc) != 2:
                continue
            e1, e2 = inc
            u = next(x for x in endpoints[e1] if x != w)
            v = next(x for x in endpoints[e2] if x != w)
            if u == v:
                continue
            a, b = min(u, v), max(u, v)
            first = e1 if a in endpoints[e1] else e2
            reduce("S", w, (first, e2 if first == e1 else e1), (a, b))
            break
        else:
            raise NotApplicableError(
                f"block is not series-parallel: vertices {sorted(block_vertices)}"
            )
    (root,) = live
    pair_edges = {}
    for e in sorted(endpoints):
        pair_edges.setdefault(endpoints[e], []).append(e)
    return PSTree(
        block_vertices, root, endpoints, op, parent, support,
        list(reversed(reductions)), leaves, pair_edges,
    )


PSTREE_FIELDS = (
    "endpoints", "op", "parent", "support", "order", "leaves", "root_edge", "block_vertices",
    "pair_edges",
)


def _outcome(build, edges):
    """Every recorded field of the tree, or the refusal message.  The
    pair lookup of every built tree is checked against a scan of its
    endpoints."""
    try:
        tree = build(edges)
    except NotApplicableError as exc:
        return str(exc)
    for u, v in set(tree.endpoints.values()):
        want = [e for e in sorted(tree.endpoints) if tree.endpoints[e] == (u, v)]
        assert tree.edges_with_endpoints(u, v) == tree.edges_with_endpoints(v, u) == want
    return {name: getattr(tree, name) for name in PSTREE_FIELDS}


def _relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def cocktail_party(q):
    """K(2, ..., 2) on q pairs: every edge but the matching 2i - (2i + 1)."""
    n = 2 * q
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if b != a + 1 or a % 2])


class TestWorklistMatchesRescan:
    def _agree(self, edges, series_parallel=True):
        want = _outcome(reference_build_ps_tree, edges)
        assert isinstance(want, dict) == series_parallel, want
        assert _outcome(build_ps_tree, edges) == want
        return want

    def test_random_series_parallel_blocks(self):
        rng = random.Random(2004)
        blocks = 0
        while blocks < 240:
            g = random_series_parallel_graph(rng, rng.randint(3, 80))
            for block in g.blocks():
                edges = sorted(block)
                if len(edges) < 2:
                    continue
                self._agree(edges)
                blocks += 1

    def test_k4_refused_by_both(self):
        want = self._agree(sorted(complete_graph(4).edges), series_parallel=False)
        assert want == "block is not series-parallel: vertices [0, 1, 2, 3]"

    def test_random_blocks_agree(self):
        rng = random.Random(1982)
        refused = 0
        for _ in range(150):
            g = random_connected_graph(rng, rng.randint(5, 14), rng.uniform(0.15, 0.5))
            for block in g.blocks():
                edges = sorted(block)
                if len(edges) < 2:
                    continue
                want = _outcome(reference_build_ps_tree, edges)
                assert _outcome(build_ps_tree, edges) == want
                refused += isinstance(want, str)
        assert refused >= 50

    def test_ladders(self):
        # construction trees of depth about m
        rng = random.Random(7)
        for m in (2, 3, 5, 17, 64, 200):
            edges = ladder_edges(m)
            self._agree(edges)
            self._agree(_relabelled(rng, 2 * m, edges))

    def test_theta_graphs(self):
        rng = random.Random(9)
        for p in range(2, 7):
            for length in (1, 2, 5, 12):
                g, _, _ = theta_graph(p, length)
                self._agree(sorted(g.edges))
                self._agree(_relabelled(rng, g.n, g.edges))

    def test_dense_and_sparse_refusals(self):
        k33 = [(a, b) for a in range(3) for b in range(3, 6)]
        k4_subdivided = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 5), (3, 5)]
        refused = [
            sorted(complete_graph(5).edges),
            k33,  # 2n - 3 edges: refused by the reduction itself
            k33 + [(0, 1)],
            k4_subdivided,
            *(sorted(cocktail_party(q).edges) for q in (3, 4, 5)),
        ]
        for edges in refused:
            want = self._agree(edges, series_parallel=False)
            vertices = sorted({v for e in edges for v in e})
            assert want == f"block is not series-parallel: vertices {vertices}"


class TestClassification:
    def test_c4_pair(self):
        d = recognize_and_decompose(cycle_graph(4))
        kind = _pair(d, 1, 3).kind
        assert kind == Nested(a=0, z=2)

    def test_k23_root_both(self):
        d = recognize_and_decompose(k23())
        assert _pair(d, 0, 1).kind == Sequential(None, F(2, 3, 4))

    def test_parallel_fixture(self):
        d = recognize_and_decompose(parallel_pair_graph())
        kind = _pair(d, PP_S, PP_T).kind
        assert isinstance(kind, Parallel)
        assert {kind.a, kind.b} == set(PP_M)

    def test_cut_vertex_pair(self):
        # no block holds both terminals; solve_via_tj answers such pairs
        d = recognize_and_decompose(path_graph(4))
        with pytest.raises(InputError, match="split by a cut vertex"):
            _pair(d, 0, 3).kind

    def test_adjacent_rejected(self):
        d = recognize_and_decompose(cycle_graph(4))
        with pytest.raises(InputError):
            _pair(d, 0, 1).kind

    def test_random_graphs_show_every_shape(self):
        # each shape, a pair with a root terminal in the Sequential and
        # Nested shapes, and Sequential both with and without a, arise
        # on random graphs: a random block with a pendant vertex, whose
        # pairs split by a cut vertex have no shape
        rng = random.Random(5)
        seen = set()
        split = 0
        for _ in range(40):
            g = random_series_parallel_graph(rng, rng.randint(4, 12))
            g = Graph(g.n + 1, _relabelled(rng, g.n, g.edges) + [(rng.randrange(g.n), g.n)])
            d = recognize_and_decompose(g)
            for s, t in nonadjacent_pairs(g):
                tree = d.tree_for(s, t)
                if tree is None:
                    split += 1
                    continue
                kind = _pair(d, s, t).kind
                rooted = bool({s, t} & tree.root_vertices())
                seen.add((type(kind).__name__, rooted, getattr(kind, "a", 0) is None))
                _pair(d, s, t).canon  # separates and has the predicted size
        assert split > 100
        assert seen == {
            ("Parallel", False, False),
            ("Serial", False, False),
            ("Sequential", False, False),
            ("Sequential", True, False),
            ("Sequential", True, True),
            ("Nested", False, False),
            ("Nested", True, False),
        }, seen


class TestCanonicalSeparator:
    def test_c4(self):
        d = recognize_and_decompose(cycle_graph(4))
        assert _pair(d, 1, 3).canon == F(0, 2)

    def test_k23(self):
        d = recognize_and_decompose(k23())
        assert _pair(d, 0, 1).canon == F(2, 3, 4)
        assert d.tree_for(0, 1).epsilon(0, 1) == 2

    def test_parallel_fixture(self):
        d = recognize_and_decompose(parallel_pair_graph())
        assert _pair(d, PP_S, PP_T).canon == frozenset(PP_M)

    def test_minimum_small_random(self):
        rng = random.Random(17)
        done = 0
        while done < 60:
            g = random_series_parallel_graph(rng, rng.randint(4, 9))
            d = recognize_and_decompose(g)
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            canon = _pair(d, s, t).canon
            assert len(canon) == minimum_separator_size(g, s, t)
            if g.n <= 8:
                assert canon in brute_force_minimal_separators(g, s, t)
            done += 1

    def test_minimum_large_random(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            g = random_series_parallel_graph(rng, rng.randint(20, 40))
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            d = recognize_and_decompose(g)
            s, t = pairs[rng.randrange(len(pairs))]
            canon = _pair(d, s, t).canon
            assert len(canon) == minimum_separator_size(g, s, t)
            done += 1


class TestReconfigureToCanonical:
    def test_parallel_fixture_walk(self):
        g = parallel_pair_graph()
        d = recognize_and_decompose(g)
        seq = reconfigure_to_canonical(d, PP_S, PP_T, frozenset(PP_A))
        assert seq[0] == frozenset(PP_A)
        assert frozenset(PP_M) <= seq[-1]
        assert len(seq) == 5
        for st in seq:
            assert is_separator(g, PP_S, PP_T, st)

    def test_already_canonical(self):
        g = cycle_graph(4)
        d = recognize_and_decompose(g)
        assert reconfigure_to_canonical(d, 1, 3, F(0, 2)) == [F(0, 2)]

    def test_rejects_non_minimal(self):
        g = parallel_pair_graph()
        d = recognize_and_decompose(g)
        with pytest.raises(InputError):
            reconfigure_to_canonical(d, PP_S, PP_T, F(2, 3, 5))

    def test_rejects_non_minimal_containing_the_canonical_set(self):
        # each input holds M(s, t), or on P4 the cut vertex that splits the
        # pair, so only the minimality check refuses it, before the pair
        # is classified
        d = recognize_and_decompose(cycle_graph(6))
        assert _pair(d, 0, 3).canon <= F(1, 2, 4, 5)
        for g, s, t, sep in (
            (cycle_graph(6), 0, 3, F(1, 2, 4, 5)),
            (path_graph(4), 0, 3, F(1, 2)),
        ):
            d = recognize_and_decompose(g)
            with pytest.raises(InputError, match="minimal"):
                reconfigure_to_canonical(d, s, t, sep)

    def test_all_minimal_separators_small_random(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            g = random_series_parallel_graph(rng, rng.randint(4, 8))
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            d = recognize_and_decompose(g)
            s, t = pairs[rng.randrange(len(pairs))]
            canon = _pair(d, s, t).canon
            for a in sorted(brute_force_minimal_separators(g, s, t), key=sorted):
                seq = reconfigure_to_canonical(d, s, t, a)
                assert seq[0] == a
                assert canon <= seq[-1]
                for st in seq:
                    assert is_separator(g, s, t, st)
                for x, y in zip(seq, seq[1:]):
                    assert len(x - y) == 1 and len(y - x) == 1
            done += 1

    def test_every_walk_on_relabelled_graphs_is_pinned(self):
        # shuffled ids put frame vertices anywhere, so both role swaps and
        # every entry move into a span get exercised; the digest pins the
        # walks themselves
        rng = random.Random(3)
        h = hashlib.sha256()
        walks = 0
        for _ in range(80):
            g = random_series_parallel_graph(rng, rng.randint(5, 14))
            g = Graph(g.n, _relabelled(rng, g.n, g.edges))
            d = recognize_and_decompose(g)
            for s in g.vertices():
                for t in g.vertices():
                    if s == t or g.has_edge(s, t):
                        continue
                    canon = _pair(d, s, t).canon
                    for a in enumerate_minimal_separators(g, s, t).sorted_members():
                        seq = reconfigure_to_canonical(d, s, t, a)
                        assert canon <= seq[-1]
                        inst = ReconfigInstance(g, s, t, Rule.TJ, a, seq[-1])
                        assert verify_sequence(inst, seq), (g.to_text(), s, t, a)
                        h.update(f"{s} {t}: {[sorted(x) for x in seq]}\n".encode())
                        walks += 1
        assert walks == 31726
        assert h.hexdigest() == "53fb320708461ace3801ac0d721e8bc04d1ef8728f2d1118318006b4202558b7"


def _random_separator_pair(rng, g, s, t):
    """Two equal-size separators built from terminal neighborhoods plus
    random padding."""
    free = [v for v in g.vertices() if v not in (s, t)]
    a = set(g.neighbors(s)) - {t}
    b = set(g.neighbors(t)) - {s}
    while len(a) < len(b):
        a.add(rng.choice([v for v in free if v not in a]))
    while len(b) < len(a):
        b.add(rng.choice([v for v in free if v not in b]))
    return frozenset(a), frozenset(b)


class TestSolver:
    def test_parallel_fixture(self):
        g = parallel_pair_graph()
        sa, sb = F(3, 5), F(2, 4)
        inst = ReconfigInstance(g, PP_S, PP_T, Rule.TJ, sa, sb)
        seq = sp_solve_tj(inst).sequence
        assert verify_sequence(inst, seq)

    def test_rejects_ts(self):
        inst = ReconfigInstance(cycle_graph(4), 1, 3, Rule.TS, F(0, 2), F(0, 2))
        with pytest.raises(InputError):
            sp_solve_tj(inst)

    def test_identity_shortcut(self):
        # equal endpoints do not skip recognition: graphs that are not
        # series-parallel are refused, and auto answers on another route
        # (K4 plus a pendant vertex is in the two-clique class)
        k33 = [(a, b) for a in range(1, 4) for b in range(4, 7)]
        s_k33_t = Graph(8, [(0, 1), (0, 2), (0, 3), *k33, (4, 7), (5, 7), (6, 7)])
        for g, s, t, state, engine in (
            (Graph(5, list(complete_graph(4).edges) + [(0, 4)]), 1, 4, F(0), "class"),
            (s_k33_t, 0, 7, F(1, 2, 3), "tame"),
            (Graph(4, [(0, 1), (2, 3)]), 0, 3, F(1), "tame"),
        ):
            inst = ReconfigInstance(g, s, t, Rule.TJ, state, state)
            with pytest.raises(NotApplicableError):
                sp_solve_tj(inst)
            res = solve(inst)
            assert res.sequence == [state]
            assert res.engine == engine

    def test_k4_subdivision_refused(self):
        # K4 with two edges doubled-by-subdivision: a K4 minor, one block
        g = Graph(
            6,
            [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 5), (3, 5)],
        )
        inst = ReconfigInstance(g, 4, 5, Rule.TJ, F(0, 1), F(2, 3))
        with pytest.raises(NotApplicableError):
            sp_solve_tj(inst)

    def test_cut_vertex_routing(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        g = Graph(7, edges)
        inst = ReconfigInstance(g, 1, 5, Rule.TJ, F(0, 2), F(4, 6))
        seq = sp_solve_tj(inst).sequence
        assert verify_sequence(inst, seq)
        assert any(3 in st for st in seq)

    def test_cut_vertex_branch_sequences(self):
        # an endpoint without the cut vertex 3 first swaps its smallest
        # token for it; the remaining tokens then jump in ascending order
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        g = Graph(7, edges)
        cases = [
            (F(0, 2), F(4, 6), [F(0, 2), F(2, 3), F(3, 6), F(4, 6)]),
            (F(0, 3), F(4, 6), [F(0, 3), F(3, 6), F(4, 6)]),
            (F(0, 3), F(3, 6), [F(0, 3), F(3, 6)]),
            (F(0, 2), F(3, 4), [F(0, 2), F(2, 3), F(3, 4)]),
        ]
        for a, b, want in cases:
            assert sp_solve_tj(ReconfigInstance(g, 1, 5, Rule.TJ, a, b)).sequence == want

    def test_canonical_across_a_cut_vertex(self):
        # a pair split by a cut vertex has no block, so no M(s, t); the
        # walks through the cut vertex are pinned by the sequence test above
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        d = recognize_and_decompose(Graph(7, edges))
        with pytest.raises(InputError, match="split by a cut vertex"):
            _pair(d, 1, 5).canon
        for sep in (F(0, 2), F(4, 6), F(3)):
            with pytest.raises(InputError, match="split by a cut vertex"):
                reconfigure_to_canonical(d, 1, 5, sep)

    def test_decomposition_cut_vertices_match_the_graph(self):
        # series-parallel blocks and bridges glued at random vertices
        rng = random.Random(43)
        seen_cuts = 0
        for _ in range(60):
            g = random_series_parallel_graph(rng, rng.randint(3, 6))
            n, edges = g.n, sorted(g.edges)
            for _ in range(rng.randint(0, 3)):
                h = random_series_parallel_graph(rng, 4) if rng.random() < 0.6 else path_graph(2)
                glue = rng.randrange(n)
                at = {v: glue if v == 0 else n + v - 1 for v in h.vertices()}
                edges += [(at[a], at[b]) for a, b in h.edges]
                n += h.n - 1
            g = Graph(n, edges)
            decomp = recognize_and_decompose(g)
            spans = [tr.block_vertices for tr in decomp.trees] + decomp.k2_blocks
            shared = {v for v in g.vertices() if sum(v in sp for sp in spans) >= 2}
            assert shared == cut_vertices(g), g.to_text()
            for s, t in itertools.permutations(g.vertices(), 2):
                want = [v for v in g.vertices() if v not in (s, t) and g.separates(s, t, {v})]
                assert g.cut_vertices_between(s, t) == want, (g.to_text(), s, t)
            seen_cuts += bool(cut_vertices(g))
        assert seen_cuts > 30

    def test_matches_oracle_small_random(self):
        rng = random.Random(41)
        done = 0
        while done < 60:
            g = random_series_parallel_graph(rng, rng.randint(4, 10))
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            a, b = _random_separator_pair(rng, g, s, t)
            if s in a | b or t in a | b:
                continue
            inst = ReconfigInstance(g, s, t, Rule.TJ, a, b)
            seq = sp_solve_tj(inst).sequence
            assert verify_sequence(inst, seq)
            assert solve_bfs(inst).reachable
            done += 1

    def test_verified_on_larger_graphs(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            g = random_series_parallel_graph(rng, rng.randint(15, 40))
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            a, b = _random_separator_pair(rng, g, s, t)
            if s in a | b or t in a | b:
                continue
            inst = ReconfigInstance(g, s, t, Rule.TJ, a, b)
            seq = sp_solve_tj(inst).sequence
            assert verify_sequence(inst, seq)
            done += 1

    def test_shrunk_inputs_also_work(self):
        rng = random.Random(47)
        done = 0
        while done < 30:
            g = random_series_parallel_graph(rng, rng.randint(4, 9))
            pairs = [
                (s, t)
                for s in range(g.n)
                for t in range(s + 1, g.n)
                if not g.has_edge(s, t)
            ]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = sorted(brute_force_minimal_separators(g, s, t), key=sorted)
            same_size = {}
            for x in seps:
                same_size.setdefault(len(x), []).append(x)
            pools = [v for v in same_size.values() if len(v) >= 2]
            if not pools:
                continue
            a, b = rng.sample(pools[rng.randrange(len(pools))], 2)
            inst = ReconfigInstance(g, s, t, Rule.TJ, a, b)
            seq = sp_solve_tj(inst).sequence
            assert verify_sequence(inst, seq)
            done += 1
