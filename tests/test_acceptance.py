"""Acceptance gate: twelve end-to-end criteria, one test (and one
printed PASS line) each.  Every criterion checks library results against
an independent oracle: exhaustive search, subset enumeration, max-flow,
or published fixture answers.
"""

import itertools
import random

from vsreconf.bipartite import IsrInstance, is_peanut_like, isr_to_vsr
from vsreconf.cliquepair import (
    NotInScope,
    characterize,
    solve_tar_tj_3p1d,
    solve_ts_3p1d,
)
from vsreconf.graph import Graph, complete_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.minsep import enumerate_minimal_separators, tame_solve
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.separators import is_separator
from vsreconf.seriesparallel import _pair, recognize_and_decompose, sp_solve_tj
from vsreconf.tar_tj import is_trivially_negative_tar

from fixtures import (
    FIG1_S,
    FIG1_SA,
    FIG1_SB,
    FIG1_T,
    FIG2_S,
    FIG2_SA,
    FIG2_SB,
    FIG2_T,
    FIG3_S,
    FIG3_SA,
    FIG3_SB,
    FIG3_T,
    PP_A,
    PP_M,
    PP_S,
    PP_T,
    figure1_graph,
    figure2_graph,
    figure3_graph,
    nonadjacent_pairs,
    parallel_pair_graph,
    random_connected_graph,
    random_series_parallel_graph,
)
from ground_truth import (
    brute_force_minimal_separators,
    brute_force_separators,
    is_3p1_diamond_free,
    minimum_separator_size,
    reconfigure_to_canonical,
    replay,
    translate_sequence,
)


def _report(num: int, text: str) -> None:
    print(f"CRITERION {num:2d} PASS: {text}")


def _random_separator_pool(rng, g, s, t):
    seps = sorted(brute_force_separators(g, s, t), key=sorted)
    by_size = {}
    for x in seps:
        by_size.setdefault(len(x), []).append(x)
    return [v for v in by_size.values() if len(v) >= 2]


def test_01_figure1_answers():
    g = figure1_graph()
    tj = ReconfigInstance(g, FIG1_S, FIG1_T, Rule.TJ, FIG1_SA, FIG1_SB)
    ts = ReconfigInstance(g, FIG1_S, FIG1_T, Rule.TS, FIG1_SA, FIG1_SB)
    tar = ReconfigInstance(g, FIG1_S, FIG1_T, Rule.TAR, FIG1_SA, FIG1_SB, 3)
    assert solve_bfs(tj).reachable
    assert not solve_bfs(ts).reachable
    res = tame_solve(tar)
    assert res.reachable and verify_sequence(tar, res.sequence)
    _report(1, "figure-1 fixture: TJ YES, TS NO, tame TAR k=3 YES")


def test_02_tj_tar_distance_law():
    rng = random.Random(1002)
    done = 0
    while done < 200:
        g = random_connected_graph(rng, rng.randint(4, 8))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        pools = _random_separator_pool(rng, g, s, t)
        if not pools:
            continue
        a, b = rng.sample(pools[rng.randrange(len(pools))], 2)
        tj = ReconfigInstance(g, s, t, Rule.TJ, a, b)
        res_tj = solve_bfs(tj)
        if not res_tj.reachable:
            continue
        tar = ReconfigInstance(g, s, t, Rule.TAR, a, b, len(a) + 1)
        res_tar = solve_bfs(tar)
        assert res_tar.reachable
        assert res_tar.distance == 2 * res_tj.distance, (
            g.to_text(), s, t, sorted(a), sorted(b),
        )
        done += 1
    _report(2, "dist_TJ = dist_(k+1)-TAR / 2 on 200 random YES instances")


def test_03_trivially_negative_confirmed():
    rng = random.Random(1003)
    done = flagged = 0
    while done < 200:
        g = random_connected_graph(rng, rng.randint(4, 8))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        pools = _random_separator_pool(rng, g, s, t)
        if not pools:
            continue
        a, b = rng.sample(pools[rng.randrange(len(pools))], 2)
        k = max(len(a), len(b)) + rng.randint(0, 1)
        tar = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        if is_trivially_negative_tar(tar):
            flagged += 1
            assert not solve_bfs(tar).reachable, (
                g.to_text(), s, t, sorted(a), sorted(b), k,
            )
        done += 1
    assert flagged >= 10
    _report(3, f"all {flagged} trivially-negative TAR instances confirmed NO")


def test_04_minimal_separator_enumeration_exhaustive():
    from fixtures import all_labeled_connected_graphs

    checked = 0
    for n in (2, 3, 4, 5, 6):
        for g in all_labeled_connected_graphs(n):
            for s, t in nonadjacent_pairs(g):
                fam = enumerate_minimal_separators(g, s, t)
                assert fam.members == frozenset(
                    brute_force_minimal_separators(g, s, t)
                ), (g.to_text(), s, t)
                checked += 1
    _report(4, f"enumeration = brute force on {checked} terminal pairs (n <= 6)")


def test_05_tame_matches_oracle():
    rng = random.Random(1005)
    done = 0
    while done < 500:
        g = random_connected_graph(rng, rng.randint(4, 8))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        pools = _random_separator_pool(rng, g, s, t)
        if not pools:
            continue
        a, b = rng.sample(pools[rng.randrange(len(pools))], 2)
        k = max(len(a), len(b)) + rng.randint(0, 2)
        tar = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
        res = tame_solve(tar)
        assert res.reachable == solve_bfs(tar).reachable, (
            g.to_text(), s, t, sorted(a), sorted(b), k,
        )
        if res.reachable:
            assert verify_sequence(tar, res.sequence)
        done += 1
    _report(5, "tame_solve = oracle on 500 random TAR instances, certificates valid")


def test_06_independence_iff_separation_exhaustive():
    checked = 0
    for n in range(1, 8):
        for na in range(0, n + 1):
            part_a = frozenset(range(na))
            part_b = frozenset(range(na, n))
            cross = [(x, y) for x in sorted(part_a) for y in sorted(part_b)]
            for mask in range(1 << len(cross)):
                edges = [cross[i] for i in range(len(cross)) if mask >> i & 1]
                g = Graph(n, edges)
                h_inst = isr_to_vsr(
                    IsrInstance(g, part_a, part_b, Rule.TJ, frozenset(), frozenset())
                )
                h, u, v = h_inst.graph, h_inst.s, h_inst.t
                verts = frozenset(g.vertices())
                for r in range(n + 1):
                    for comb in itertools.combinations(range(n), r):
                        i = frozenset(comb)
                        indep = all(
                            not g.has_edge(x, y)
                            for x in i
                            for y in i
                            if x < y
                        )
                        assert indep == is_separator(h, u, v, verts - i)
                        checked += 1
    _report(6, f"independence <=> complement separates, {checked} subset checks (n <= 7)")


def test_07_isr_vsr_translation_fidelity():
    rng = random.Random(1007)
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        na = rng.randint(1, n - 1) if n > 1 else 1
        part_a = frozenset(range(na))
        part_b = frozenset(range(na, n))
        edges = [
            (x, y)
            for x in sorted(part_a)
            for y in sorted(part_b)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        indep = [
            frozenset(c)
            for r in (1, 2)
            for c in itertools.combinations(range(n), r)
            if all(not g.has_edge(x, y) for x in c for y in c if x < y)
        ]
        sized = {}
        for i in indep:
            sized.setdefault(len(i), []).append(i)
        pools = [v for v in sized.values() if len(v) >= 2]
        if not pools:
            continue
        ia, ib = rng.sample(pools[rng.randrange(len(pools))], 2)
        rule = Rule.TJ if rng.random() < 0.5 else Rule.TS
        vsr = isr_to_vsr(IsrInstance(g, part_a, part_b, rule, ia, ib))
        assert is_peanut_like(vsr.graph) is not None
        res = solve_bfs(vsr)
        if not res.reachable:
            continue
        isr_seq = translate_sequence("vsr-to-isr", g, res.sequence)
        back = translate_sequence("isr-to-vsr", g, isr_seq)
        assert back == res.sequence
        assert verify_sequence(vsr, back)
        done += 1
    _report(7, "ISR<->VSR translation round-trips on 200 random instances")


def test_08_characterization_exhaustive():
    checked = 0
    for n in (4, 5, 6, 7):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << len(pairs)) - 1
        for mask in range(1 << len(pairs)):
            if mask == full:
                continue  # complete graph is out of scope by definition
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            in_class = is_3p1_diamond_free(g)
            ch = characterize(g)
            assert in_class == (not isinstance(ch, NotInScope)), g.to_text()
            checked += 1
    _report(8, f"characterization = forbidden-subgraph check on {checked} graphs (4 <= n <= 7)")


def _random_class_graph(rng):
    if rng.random() < 0.5:
        n1, n2 = rng.randint(2, 3), rng.randint(2, 4)
        verts1 = list(range(n1 + 1))
        verts2 = list(range(n1, n1 + n2 + 1))
        edges = list(itertools.combinations(verts1, 2))
        edges += list(itertools.combinations(verts2, 2))
        return Graph(n1 + n2 + 1, edges)
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    q1 = list(range(n1))
    q2 = list(range(n1, n1 + n2))
    edges = list(itertools.combinations(q1, 2)) + list(itertools.combinations(q2, 2))
    cross = [
        (a, b)
        for a, b in zip(q1, rng.sample(q2, min(n1, n2)))
        if rng.random() < 0.7
    ]
    if not cross:
        cross = [(q1[0], q2[0])]
    return Graph(n1 + n2, edges + cross)


def test_09_class_solvers():
    # published fixture answers
    fig2 = figure2_graph()
    ts2 = ReconfigInstance(fig2, FIG2_S, FIG2_T, Rule.TS, FIG2_SA, FIG2_SB)
    assert not solve_ts_3p1d(ts2).reachable
    tj2 = ReconfigInstance(fig2, FIG2_S, FIG2_T, Rule.TJ, FIG2_SA, FIG2_SB)
    assert solve_tar_tj_3p1d(tj2).reachable
    for flag, want in ((True, True), (False, False)):
        ts3 = ReconfigInstance(
            figure3_graph(flag), FIG3_S, FIG3_T, Rule.TS, FIG3_SA, FIG3_SB
        )
        assert solve_ts_3p1d(ts3).reachable == want
        assert solve_bfs(ts3).reachable == want

    rng = random.Random(1009)
    done = 0
    while done < 80:
        g = _random_class_graph(rng)
        if g.n > 8 or isinstance(characterize(g), NotInScope):
            continue
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        pools = _random_separator_pool(rng, g, s, t)
        pools = [p for p in pools if len(p[0]) <= 4]
        if not pools:
            continue
        a, b = rng.sample(pools[rng.randrange(len(pools))], 2)
        tj = ReconfigInstance(g, s, t, Rule.TJ, a, b)
        tar = ReconfigInstance(g, s, t, Rule.TAR, a, b, len(a) + 1)
        for inst in (tj, tar):
            res = solve_tar_tj_3p1d(inst)
            assert res.reachable
            assert verify_sequence(inst, res.sequence)
            assert solve_bfs(inst).reachable
        ts = ReconfigInstance(g, s, t, Rule.TS, a, b)
        assert solve_ts_3p1d(ts).reachable == solve_bfs(ts).reachable
        done += 1
    _report(9, "class solvers verified on 80 sampled instances + figure fixtures")


def test_10_canonical_separator_is_minimum():
    rng = random.Random(1010)
    done = 0
    while done < 500:
        g = random_series_parallel_graph(rng, rng.randint(4, 16))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        d = recognize_and_decompose(g)
        canon = _pair(d, s, t).canon
        # subset enumeration yields separators in increasing size order
        smallest = next(iter(brute_force_separators(g, s, t)))
        assert len(canon) == len(smallest), (g.to_text(), s, t)
        done += 1
    done = 0
    while done < 200:
        g = random_series_parallel_graph(rng, rng.randint(20, 40))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        d = recognize_and_decompose(g)
        canon = _pair(d, s, t).canon
        assert len(canon) == minimum_separator_size(g, s, t)
        done += 1
    _report(10, "|M(s,t)| = minimum separator size on 500 small + 200 large SP graphs")


def test_11_sp_solver():
    # four-jump fixture walk
    g = parallel_pair_graph()
    d = recognize_and_decompose(g)
    assert _pair(d, PP_S, PP_T).canon == PP_M
    seq = reconfigure_to_canonical(d, PP_S, PP_T, PP_A)
    assert len(seq) == 5 and seq[0] == PP_A and PP_M <= seq[-1]

    rng = random.Random(1011)
    done = 0
    while done < 500:
        g = random_series_parallel_graph(rng, rng.randint(4, 14))
        pairs = list(nonadjacent_pairs(g))
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        free = [v for v in g.vertices() if v not in (s, t)]
        a = set(g.neighbors(s)) - {t}
        b = set(g.neighbors(t)) - {s}
        for _ in range(rng.randint(0, 2)):
            c = [v for v in free if v not in a]
            if c:
                a.add(rng.choice(c))
        while len(a) < len(b):
            a.add(rng.choice([v for v in free if v not in a]))
        while len(b) < len(a):
            b.add(rng.choice([v for v in free if v not in b]))
        inst = ReconfigInstance(g, s, t, Rule.TJ, frozenset(a), frozenset(b))
        seq = sp_solve_tj(inst).sequence
        assert verify_sequence(inst, seq), (g.to_text(), s, t)
        if g.n <= 10:
            assert solve_bfs(inst).reachable
        done += 1
    _report(11, "sp_solve_tj verified on 500 random SP instances + figure-8 walk")


def test_12_replay_invariant_and_k4_rejection():
    import pytest

    from vsreconf.errors import NotApplicableError

    graphs = [
        figure1_graph(),
        parallel_pair_graph(),
    ]
    rng = random.Random(1012)
    for _ in range(200):
        graphs.append(random_series_parallel_graph(rng, rng.randint(3, 30)))
    blocks = 0
    for g in graphs:
        try:
            d = recognize_and_decompose(g)
        except NotApplicableError:
            continue
        for tree in d.trees:
            pairs = {frozenset(p) for p in replay(tree)}
            block_edges = {
                frozenset(e)
                for e in g.edges
                if set(e) <= tree.block_vertices
            }
            assert pairs == block_edges
            blocks += 1
    with pytest.raises(NotApplicableError):
        recognize_and_decompose(complete_graph(4))
    _report(12, f"replay invariant on {blocks} blocks; K4 rejected")
