import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw import analysis, counting
from giraw.counting import (
    WalkModel,
    bounded_counts,
    count_bounded,
    endpoint_difference_distribution,
    f_start_count,
    path_profile,
    profile,
    range_classes,
    range_classes_from,
    range_distribution,
    transfer,
)
from giraw.trees import (
    SharedSubtrees,
    Tree,
    centre_diameter,
    free_level_sequences,
    generate_free_trees,
    level_tree,
    make_path,
    make_spider,
    make_star,
    reroot,
)

from fresh import run_python
from oracles import (
    oracle_F,
    oracle_F_direct,
    oracle_f,
    oracle_range_counts,
    tree_from_prufer,
)

STANDARD = WalkModel.STANDARD
LAZY = WalkModel.LAZY
BOTH = [STANDARD, LAZY]


def labeled_trees(max_n: int = 7):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)
        ).map(tree_from_prufer)
        if n > 2
        else st.just(Tree(n, tuple((i, i + 1) for i in range(n - 1))))
    )


class TestProfile:
    def test_single_vertex(self):
        for m in BOTH:
            assert profile(make_path(0), 2, m) == [1, 1, 1]

    def test_star_center_k2_standard(self):
        # brute force over the 2^3 sign assignments of the star's edges
        assert profile(make_star(3), 2, STANDARD) == [1, 8, 1]

    def test_edge_lazy_k1(self):
        assert profile(make_path(1), 1, LAZY) == [2, 2]

    def test_k0_standard_with_edge_is_zero(self):
        assert profile(make_path(1), 0, STANDARD) == [0]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            profile(make_path(1), -1, STANDARD)

    @given(labeled_trees(), st.integers(0, 6), st.sampled_from(BOTH))
    @settings(max_examples=80)
    def test_reflection_symmetry(self, t, k, m):
        prof = profile(reroot(t, 0), k, m)
        assert prof == prof[::-1]

    @given(labeled_trees(9), st.integers(0, 5), st.sampled_from(BOTH))
    @settings(max_examples=60)
    def test_root_independence_of_sum(self, t, k, m):
        assert len({sum(profile(reroot(t, r), k, m)) for r in range(t.n)}) == 1

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.integers(0, 5),
        st.sampled_from(BOTH),
    )
    @settings(max_examples=60)
    def test_spider_product(self, legs, k, m):
        prof = profile(make_spider(legs), k, m)
        expect = [1] * (k + 1)
        for a in legs:
            leg = path_profile(a, k, m)
            expect = [p * q for p, q in zip(expect, leg)]
        assert prof == expect

    def test_path_doubling_bound(self):
        for m, factor in [(STANDARD, 2), (LAZY, 3)]:
            for k in range(7):
                prev = path_profile(0, k, m)
                for a in range(1, 8):
                    cur = path_profile(a, k, m)
                    assert all(c <= factor * p for c, p in zip(cur, prev))
                    prev = cur


def memo_entries(t: Tree) -> int:
    """Profiles stored in the memo of t's batch."""
    return sum(len(d) for d in t.shared.profiles.values())


def count_band_steps(monkeypatch) -> list:
    """A list that grows by one item per band_step call of the profile DP."""
    steps, band_step = [], counting.band_step
    monkeypatch.setattr(counting, "band_step", lambda p, m: steps.append(1) or band_step(p, m))
    return steps


class TestSharedProfiles:
    def test_returned_profile_is_a_fresh_list(self):
        # rooted at a second leaf, the generated star's root class has been
        # seen twice and its profile is stored, so the third call is a memo hit
        star = list(generate_free_trees(5))[-1]
        a, b = reroot(star, 1), reroot(star, 2)
        want = profile(reroot(Tree(star.n, star.edges), 1), 3, LAZY)
        for rt in (a, b, a):
            prof = profile(rt, 3, LAZY)
            assert prof == want
            prof[0] = -1
        assert a.class_ids[1] in star.shared.profiles[(3, LAZY)]

    def test_deep_path_shares_nothing_and_a_scan_reuses(self, monkeypatch):
        path = make_path(200).tree
        range_distribution(path, STANDARD)
        assert memo_entries(path) == 0
        rooted, prof = [], counting.profile
        monkeypatch.setattr(counting, "profile", lambda t, k, m: rooted.append(t) or prof(t, k, m))
        steps = count_band_steps(monkeypatch)
        analysis.scan_against_path(10, STANDARD)
        # the last call is on a generated tree; each band step is one edge of
        # the DP, so without shared profiles the scan would take one per edge
        # of every profile call
        assert memo_entries(rooted[-1].tree) > 0
        assert len(steps) < sum(t.n - 1 for t in rooted) / 2

    def test_a_scan_does_the_same_work_after_other_scans(self, monkeypatch):
        steps = count_band_steps(monkeypatch)
        analysis.scan_against_path(10, LAZY)
        alone = len(steps)
        analysis.scan_against_path(10, STANDARD)
        steps.clear()
        analysis.scan_against_path(10, LAZY)
        assert len(steps) == alone

    def test_a_shared_subtree_crosses_its_edge_once(self, monkeypatch):
        # the memo holds edge-pushed profiles, so a memo hit needs no band
        # step: the scan makes fewer band steps than profile calls
        calls, prof = [], counting.profile
        monkeypatch.setattr(counting, "profile", lambda t, k, m: calls.append(k) or prof(t, k, m))
        steps = count_band_steps(monkeypatch)
        analysis.scan_against_path(10, STANDARD)
        assert len(steps) < len(calls)

    def test_shared_batch_matches_private_trees(self):
        shared = SharedSubtrees()
        for n in range(1, 9):
            for t in generate_free_trees(n, shared):
                for r in range(t.n):
                    rt, alone = reroot(t, r), reroot(Tree(t.n, t.edges), r)
                    for m in BOTH:
                        for k in range(7):
                            assert profile(rt, k, m) == profile(alone, k, m)
        assert memo_entries(t) > 0

    def test_same_class_siblings_are_pushed_once(self, monkeypatch):
        steps = count_band_steps(monkeypatch)
        prof = profile(make_star(500), 3, STANDARD)
        assert len(steps) == 1  # the leaf class; the star's root is seen once
        assert prof == [1, 2**500, 2**500, 1]

    def test_profile_matches_the_plain_recursion(self):
        # every first call on a fresh tree computes each missing class once,
        # including classes whose vertices hang under different parents
        def plain(rt, v, k, m):
            prof = [1] * (k + 1)
            for c in rt.children[v]:
                prof = [a * b for a, b in zip(prof, counting.band_step(plain(rt, c, k, m), m))]
            return prof

        for n in range(1, 9):
            for t in generate_free_trees(n):
                for r in range(t.n):
                    for m in BOTH:
                        for k in range(5):
                            rt = reroot(Tree(t.n, t.edges), r)
                            assert profile(rt, k, m) == plain(rt, r, k, m)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_two_deep_trees_store_no_profiles(self):
        # the paths come from separate inputs, so they share no sightings;
        # VmHWM, unlike ru_maxrss, does not inherit the forking process's peak
        peak = run_python(
            "from giraw.analysis import compare_range\n"
            "from giraw.counting import WalkModel\n"
            "from giraw.trees import make_path\n"
            "compare_range(make_path(150).tree, make_path(150).tree, WalkModel.STANDARD)\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
        )
        assert int(peak.split()[1]) < 50 * 1024  # kB


class TestCounts:
    def test_p2_k2_standard(self):
        # direct assignment enumeration over [0,2]^3
        t = make_path(2).tree
        assert oracle_F_direct(t, 2, STANDARD) == 6
        assert count_bounded(t, 2, STANDARD) == 6

    def test_k0(self):
        t = make_star(3).tree
        assert count_bounded(t, 0, STANDARD) == 0
        assert count_bounded(t, 0, LAZY) == 1

    def test_k1_standard_is_two(self):
        for t in [make_path(4).tree, make_star(3).tree, make_spider([2, 2, 1]).tree]:
            assert count_bounded(t, 1, STANDARD) == 2

    def test_star_f2(self):
        t = make_star(3).tree
        assert count_bounded(t, 2, STANDARD) == 10
        assert count_bounded(t, 1, STANDARD) == 2
        assert range_classes(t, 2, STANDARD) == 8

    def test_p3_f2(self):
        assert range_classes(make_path(3).tree, 2, STANDARD) == 6

    @given(labeled_trees(6))
    @settings(max_examples=30)
    def test_full_range_bound_saturates(self, t):
        for m in BOTH:
            total = m.steps_per_edge ** (t.n - 1)
            for k in range(t.diameter(), t.n + 1):
                assert range_classes(t, k, m) == total

    @given(labeled_trees(6), st.sampled_from(BOTH))
    @settings(max_examples=40)
    def test_monotone_in_k(self, t, m):
        values = [range_classes(t, k, m) for k in range(t.n)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_k_past_the_diameter_runs_no_dp(self, monkeypatch):
        steps = count_band_steps(monkeypatch)
        assert range_classes(make_path(3).tree, 2_000_000, STANDARD) == 8
        assert range_classes(make_star(3).tree, 2, LAZY) == 27
        assert steps == []

    def test_translation_formula_against_direct_enumeration(self):
        # validates the class-shift oracle itself on tiny cases
        trees = [make_path(2).tree, make_path(3).tree, make_star(3).tree]
        for t in trees:
            for m in BOTH:
                for k in range(4):
                    assert oracle_F(t, k, m) == oracle_F_direct(t, k, m)

    @given(labeled_trees(7), st.integers(0, 7), st.sampled_from(BOTH))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, t, k, m):
        assert count_bounded(t, k, m) == oracle_F(t, k, m)
        assert range_classes(t, k, m) == oracle_f(t, k, m)


class TestRangeDistribution:
    def test_single_edge_standard(self):
        d = range_distribution(make_path(1).tree, STANDARD)
        assert d.class_counts == {0: 0, 1: 2}
        assert d.denominator == 2

    def test_single_edge_lazy(self):
        d = range_distribution(make_path(1).tree, LAZY)
        assert d.class_counts == {0: 1, 1: 2}
        assert d.denominator == 3

    def test_p2_standard(self):
        d = range_distribution(make_path(2).tree, STANDARD)
        assert d.class_counts == {0: 0, 1: 2, 2: 2}
        assert d.tail(2) == Fraction(1, 2)
        assert d.expected_range() == Fraction(3, 2)

    @given(labeled_trees(7), st.sampled_from(BOTH))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, t, m):
        d = range_distribution(t, m)
        counts = oracle_range_counts(t, m)
        assert {r: c for r, c in d.class_counts.items() if c} == dict(counts)
        assert sum(d.class_counts.values()) == d.denominator

    @given(labeled_trees(9), st.sampled_from(BOTH))
    @settings(max_examples=60, deadline=None)
    def test_tail_invariants(self, t, m):
        d = range_distribution(t, m)
        assert d.tail(0) == 1
        tails = [d.tail(k) for k in range(t.n + 1)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0
        assert sum(d.class_counts.values()) == d.denominator

    def test_one_profile_dp_per_bound(self, monkeypatch):
        calls = []

        def counted(rt, k, m):
            calls.append(k)
            return profile(rt, k, m)

        monkeypatch.setattr(counting, "profile", counted)
        for t in [make_path(6).tree, make_star(5).tree, make_spider([3, 2, 2]).tree]:
            calls.clear()
            range_distribution(t, LAZY)
            assert calls == list(range(t.diameter()))

    @pytest.mark.parametrize("m", BOTH)
    def test_level_sequence_classes_match_the_distribution(self, m):
        # what the scan compares: f^j of the centre-rooted level tree, up to
        # the diameter from its level sequence
        for n in range(1, 13):
            for levels, t in zip(free_level_sequences(n), generate_free_trees(n)):
                d = centre_diameter(levels)
                f = range_classes_from(bounded_counts(level_tree(levels), range(-1, d + 1), m))
                tails = range_distribution(t, m).tail_counts
                assert f == [tails[0] - tails[j + 1] for j in range(d + 1)]

    def test_json_schema(self):
        d = range_distribution(make_path(3).tree, STANDARD)
        blob = json.loads(json.dumps(d.to_json_dict()))
        assert blob["n"] == 4
        assert blob["model"] == "standard"
        assert blob["denominator"] == "8"
        assert blob["class_counts"] == {"0": "0", "1": "2", "2": "4", "3": "2"}
        assert blob["tail"]["1"] == "1/1"
        assert blob["tail"]["3"] == "1/4"
        assert blob["tail"]["4"] == "0/1"


class TestTransfer:
    def test_length_zero_is_identity(self):
        for m in BOTH:
            tab = transfer(0, 3, m)
            assert tab == [[int(i == j) for j in range(4)] for i in range(4)]

    def test_one_step_cannot_jump_two(self):
        assert transfer(1, 2, STANDARD)[0][2] == 0

    def test_two_step_return(self):
        assert transfer(2, 2, STANDARD)[1][1] == 2

    @given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(BOTH))
    @settings(max_examples=60)
    def test_parity_and_reflection(self, a, k, m):
        tab = transfer(a, k, m)
        for i in range(k + 1):
            for j in range(k + 1):
                assert tab[i][j] == tab[k - i][k - j]
                if m is STANDARD and (i - j) % 2 != a % 2:
                    assert tab[i][j] == 0

    @given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(BOTH))
    @settings(max_examples=60)
    def test_row_sums_give_path_profile(self, a, k, m):
        tab = transfer(a, k, m)
        prof = path_profile(a, k, m)
        for i in range(k + 1):
            assert sum(tab[i]) == prof[i]


class TestFStartCount:
    def test_paper_counterexample_values(self):
        assert f_start_count(3, 2, 1, STANDARD) == 3
        assert f_start_count(3, 2, 2, STANDARD) == 2

    def test_zero_length_at_ceiling(self):
        for k in range(4):
            assert f_start_count(0, k, k, STANDARD) == 1
            assert f_start_count(0, k, k, LAZY) == 1

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            f_start_count(3, 2, 3, STANDARD)

    @given(st.integers(0, 5), st.integers(0, 5), st.sampled_from(BOTH), st.data())
    @settings(max_examples=60)
    def test_is_profile_difference(self, a, k, m, data):
        i = data.draw(st.integers(0, k))
        at_k = path_profile(a, k, m)[i]
        below = path_profile(a, k - 1, m)[i] if i < k else 0
        assert f_start_count(a, k, i, m) == at_k - below


class TestEndpointDifference:
    def test_distance_one_standard(self):
        t = make_path(1).tree
        assert endpoint_difference_distribution(t, 0, 1, STANDARD) == {
            -1: Fraction(1, 2),
            1: Fraction(1, 2),
        }

    def test_distance_two_standard(self):
        t = make_path(2).tree
        assert endpoint_difference_distribution(t, 0, 2, STANDARD) == {
            -2: Fraction(1, 4),
            0: Fraction(1, 2),
            2: Fraction(1, 4),
        }

    def test_distance_two_lazy(self):
        t = make_path(2).tree
        d = endpoint_difference_distribution(t, 0, 2, LAZY)
        assert d == {
            -2: Fraction(1, 9),
            -1: Fraction(2, 9),
            0: Fraction(3, 9),
            1: Fraction(2, 9),
            2: Fraction(1, 9),
        }

    def test_same_vertex_is_point_mass(self):
        t = make_star(3).tree
        assert endpoint_difference_distribution(t, 1, 1, STANDARD) == {0: Fraction(1)}

    @given(labeled_trees(6), st.sampled_from(BOTH), st.data())
    @settings(max_examples=40)
    def test_matches_enumeration(self, t, m, data):
        from collections import Counter

        from oracles import enumerate_walk_labels

        u = data.draw(st.integers(0, t.n - 1))
        v = data.draw(st.integers(0, t.n - 1))
        counts = Counter(l[u] - l[v] for l in enumerate_walk_labels(t, m))
        total = m.steps_per_edge ** (t.n - 1)
        expect = {x: Fraction(c, total) for x, c in sorted(counts.items())}
        assert endpoint_difference_distribution(t, u, v, m) == expect
