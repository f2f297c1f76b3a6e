import random

import pytest

from vsreconf import solve
from vsreconf.errors import ContractViolationError, InputError, InvalidInstanceError
from vsreconf.graph import cycle_graph
from vsreconf.instance import ReconfigInstance, Rule
from vsreconf.oracle import solve_bfs, verify_sequence
from vsreconf.tar_tj import (
    is_trivially_negative_tar,
    tar_to_tj_instance,
    tj_to_tar_instance,
    tj_to_tar_sequence,
)

from fixtures import (
    nonadjacent_pairs,
    random_connected_graph,
    star_fixture,
)
from ground_truth import (
    brute_force_minimal_separators,
    brute_force_separators,
    is_minimal_separator,
    normalize_tar_sequence,
    tar_to_tj_sequence,
)


def F(*xs):
    return frozenset(xs)


class TestNormalize:
    def test_star_detour_through_small_state(self):
        # s=0, t=1, cut vertex c=2, pendants x=3, y=4
        g = star_fixture()
        seq = [F(2, 3), F(2), F(2, 4)]
        out = normalize_tar_sequence(g, 0, 1, seq, 2)
        assert out == [F(2, 3), F(2, 3, 4), F(2, 4)]

    def test_backtrack_excised(self):
        g = star_fixture()
        seq = [F(2, 3), F(2), F(2, 3), F(2), F(2, 4)]
        out = normalize_tar_sequence(g, 0, 1, seq, 2)
        assert out == [F(2, 3), F(2, 3, 4), F(2, 4)]

    def test_already_alternating_is_fixed_point(self):
        g = star_fixture()
        seq = [F(2, 3), F(2, 3, 4), F(2, 4)]
        assert normalize_tar_sequence(g, 0, 1, seq, 2) == seq

    def test_singleton_sequence(self):
        g = star_fixture()
        assert normalize_tar_sequence(g, 0, 1, [F(2, 3)], 2) == [F(2, 3)]

    def test_rejects_invalid_sequence(self):
        g = star_fixture()
        with pytest.raises(ContractViolationError):
            normalize_tar_sequence(g, 0, 1, [F(2, 3), F(2, 4)], 2)

    def test_rejects_non_separator_first_state(self):
        # the endpoint check goes through instance construction; its
        # InvalidInstanceError reaches the caller as a contract violation
        g = star_fixture()
        with pytest.raises(ContractViolationError, match="separator"):
            normalize_tar_sequence(g, 0, 1, [F(3, 4), F(2, 3, 4), F(2, 4)], 2)

    def test_terminal_inside_the_walk_is_an_input_error(self):
        g = star_fixture()
        with pytest.raises(InputError):
            normalize_tar_sequence(g, 0, 1, [F(2, 3), F(1, 2, 3), F(2, 3)], 2)

    def test_oracle_walks_normalize_to_valid_walks(self):
        # shortest (k+1)-TAR walks between size-k separators, stitched
        # through a third separator of any size up to k+1 (which adds
        # dips below k and backtracks), normalize to walks the oracle
        # accepts on the (k+1)-TAR instance
        rng = random.Random(53)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = list(brute_force_separators(g, s, t))
            k = rng.choice(sorted({len(x) for x in seps}))
            a, b = (rng.choice([x for x in seps if len(x) == k]) for _ in range(2))
            c = rng.choice([x for x in seps if len(x) <= k + 1])
            legs = [solve_bfs(ReconfigInstance(g, s, t, Rule.TAR, x, y, k + 1))
                    for x, y in ((a, c), (c, b))]
            if not all(leg.reachable for leg in legs):
                continue
            seq = legs[0].sequence + legs[1].sequence[1:]
            out = normalize_tar_sequence(g, s, t, seq, k)
            assert verify_sequence(ReconfigInstance(g, s, t, Rule.TAR, a, b, k + 1), out)
            assert [len(st) for st in out] == [k + i % 2 for i in range(len(out))]
            done += 1

    def test_rejects_small_endpoint(self):
        g = star_fixture()
        with pytest.raises(ContractViolationError):
            normalize_tar_sequence(g, 0, 1, [F(2), F(2, 4)], 1)


class TestSequenceConversions:
    def test_tj_to_tar_interleaves(self):
        seq = [F(1, 3), F(1, 4)]
        assert tj_to_tar_sequence(seq) == [F(1, 3), F(1, 3, 4), F(1, 4)]

    def test_tar_to_tj_subsamples(self):
        g = cycle_graph(5)
        seq = [F(1, 3), F(1, 3, 4), F(1, 4)]
        assert tar_to_tj_sequence(g, 0, 2, seq, 2) == [F(1, 3), F(1, 4)]

    def test_tar_to_tj_drops_a_vertex_added_and_removed_again(self):
        # the kept states are {1,5}, {1,5}, {1,4}: one repeat, one jump
        g = cycle_graph(6)
        seq = [F(1, 5), F(1, 2, 5), F(1, 5), F(1, 4, 5), F(1, 4)]
        assert normalize_tar_sequence(g, 0, 3, seq, 2) == seq
        assert tar_to_tj_sequence(g, 0, 3, seq, 2) == [F(1, 5), F(1, 4)]

    def test_tar_to_tj_rejects_unnormalized(self):
        g = star_fixture()
        with pytest.raises(ContractViolationError):
            tar_to_tj_sequence(g, 0, 1, [F(2, 3), F(2), F(2, 4)], 2)

    def test_round_trip_on_solved_instances(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = [x for x in brute_force_separators(g, s, t) if len(x) == 2]
            if len(seps) < 2:
                continue
            a, b = rng.sample(seps, 2)
            res = solve_bfs(ReconfigInstance(g, s, t, Rule.TJ, a, b))
            if not res.reachable:
                continue
            tar_seq = tj_to_tar_sequence(res.sequence)
            tar_inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, 3)
            assert verify_sequence(tar_inst, tar_seq)
            back = tar_to_tj_sequence(g, s, t, tar_seq, 2)
            assert back == res.sequence
            done += 1

    def test_distance_law_random(self):
        # TJ distance equals half the (k+1)-TAR distance
        rng = random.Random(97)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = [x for x in brute_force_separators(g, s, t) if len(x) == 2]
            if len(seps) < 2:
                continue
            a, b = rng.sample(seps, 2)
            tj = solve_bfs(ReconfigInstance(g, s, t, Rule.TJ, a, b))
            tar = solve_bfs(ReconfigInstance(g, s, t, Rule.TAR, a, b, 3))
            assert tj.reachable == tar.reachable
            if tj.reachable:
                assert tar.distance == 2 * tj.distance
            done += 1


class TestTriviallyNegative:
    def test_c5_tight_minimal_endpoint(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TAR, F(1, 3), F(1, 4), 2)
        assert is_trivially_negative_tar(inst)
        assert not solve_bfs(inst).reachable

    def test_equal_endpoints_not_negative(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TAR, F(1, 3), F(1, 3), 2)
        assert not is_trivially_negative_tar(inst)

    def test_slack_instance_not_negative(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TAR, F(1, 3), F(1, 4), 3)
        assert not is_trivially_negative_tar(inst)

    def test_matches_definition_random(self):
        # the definition, computed here: distinct endpoints, one of them a
        # minimal separator of exactly k vertices.  tar_to_tj_instance
        # refuses exactly those, and equal endpoints minimal with k
        # vertices, each with its own message; solve answers NO
        rng = random.Random(59)
        seen = {"negative": 0, "vacuous": 0, "converted": 0}
        done = 0
        while done < 200:
            g = random_connected_graph(rng, rng.randint(4, 9))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            seps = list(brute_force_separators(g, s, t))
            minimal = sorted(brute_force_minimal_separators(g, s, t), key=sorted)
            a = rng.choice(minimal if rng.random() < 0.5 else seps)
            no_larger = [x for x in seps if x != a and len(x) <= len(a)]
            roll = rng.random()
            b = a if roll < 0.25 else rng.choice(no_larger if roll < 0.6 and no_larger else seps)
            low = max(len(a), len(b))
            for k in (low, low + 1, low + 2, rng.randint(g.n - 1, g.n + 1)):
                inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
                tight = [len(x) == k and is_minimal_separator(g, s, t, x) for x in (a, b)]
                negative = a != b and any(tight)
                assert is_trivially_negative_tar(inst) == negative
                if negative:
                    seen["negative"] += 1
                    with pytest.raises(InvalidInstanceError, match="trivially negative"):
                        tar_to_tj_instance(inst)
                    assert not solve(inst).reachable
                elif a == b and tight[0]:
                    seen["vacuous"] += 1
                    with pytest.raises(InvalidInstanceError, match="primed state"):
                        tar_to_tj_instance(inst)
                else:
                    seen["converted"] += 1
                    assert len(tar_to_tj_instance(inst).tj_instance.source) == min(k, g.n - 1) - 1
            done += 1
        assert min(seen.values()) >= 10, seen

    def test_rejects_tj_instance(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TJ, F(1, 3), F(1, 4))
        with pytest.raises(InvalidInstanceError):
            is_trivially_negative_tar(inst)


class TestInstanceConversions:
    def test_tj_to_tar_bumps_bound(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TJ, F(1, 3), F(1, 4))
        tar = tj_to_tar_instance(inst)
        assert tar.rule is Rule.TAR and tar.k == 3
        assert tar.source == inst.source and tar.target == inst.target

    def test_tar_to_tj_bridges_verify(self):
        g = star_fixture()
        inst = ReconfigInstance(g, 0, 1, Rule.TAR, F(2, 3), F(2, 4), 2)
        conv = tar_to_tj_instance(inst)
        assert conv.tj_instance.rule is Rule.TJ
        assert len(conv.tj_instance.source) == 1
        # bridges are valid TAR(k) sequences landing on the primed states
        for bridge, start, end in (
            (conv.source_bridge, inst.source, conv.tj_instance.source),
            (conv.target_bridge, inst.target, conv.tj_instance.target),
        ):
            assert bridge[0] == start and bridge[-1] == end
            probe = ReconfigInstance(g, 0, 1, Rule.TAR, start, end, 2)
            assert verify_sequence(probe, bridge)

    def test_tar_to_tj_rejects_trivially_negative(self):
        g = cycle_graph(5)
        inst = ReconfigInstance(g, 0, 2, Rule.TAR, F(1, 3), F(1, 4), 2)
        with pytest.raises(InvalidInstanceError):
            tar_to_tj_instance(inst)

    def test_answer_preserved_random(self):
        rng = random.Random(5)
        done = 0
        while done < 30:
            g = random_connected_graph(rng, rng.randint(4, 7))
            pairs = list(nonadjacent_pairs(g))
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            seps = [x for x in brute_force_separators(g, s, t) if len(x) <= 3]
            if len(seps) < 2:
                continue
            a, b = rng.sample(seps, 2)
            k = max(len(a), len(b)) + 1
            inst = ReconfigInstance(g, s, t, Rule.TAR, a, b, k)
            try:
                conv = tar_to_tj_instance(inst)
            except InvalidInstanceError:
                continue
            want = solve_bfs(inst).reachable
            got = solve_bfs(conv.tj_instance).reachable
            assert want == got
            done += 1
