import os
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw import analysis
from giraw.analysis import (
    Verdict,
    Violation,
    center_violations,
    check_center_monotone,
    check_difference_monotone,
    check_spidersums,
    check_summand_comparison,
    compare_range,
    pairwise_domination_order,
    scan_against_path,
    spidersums_sides,
)
from giraw.counting import WalkModel, range_distribution
from giraw.trees import (
    generate_free_trees,
    make_path,
    make_spider,
    make_star,
    parse_tree,
    reroot,
)

from fresh import run_python
from oracles import tree_from_prufer

STANDARD = WalkModel.STANDARD
LAZY = WalkModel.LAZY
BOTH = [STANDARD, LAZY]

DOUBLE_BROOM = "0 1\n1 2\n2 3\n0 4\n0 5\n3 6\n3 7"


MIRROR = {
    Verdict.EQUAL: Verdict.EQUAL,
    Verdict.LEFT_DOMINATED_BY_RIGHT: Verdict.RIGHT_DOMINATED_BY_LEFT,
    Verdict.RIGHT_DOMINATED_BY_LEFT: Verdict.LEFT_DOMINATED_BY_RIGHT,
    Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
}


def same_size_tree(n: int):
    if n == 2:
        return st.just(make_path(1).tree)
    return st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2).map(
        tree_from_prufer
    )


class TestCompareRange:
    def test_reflexive(self):
        t = make_path(4).tree
        rep = compare_range(t, t, STANDARD)
        assert rep.verdict is Verdict.EQUAL
        assert rep.strict_at == ()

    def test_star_dominated_by_path(self):
        rep = compare_range(make_star(3).tree, make_path(3).tree, STANDARD)
        assert rep.verdict is Verdict.LEFT_DOMINATED_BY_RIGHT
        assert 3 in rep.strict_at
        by_k = {k: (a, b) for k, a, b in rep.per_k}
        assert by_k[3] == (Fraction(0), Fraction(2, 8))

    def test_path_on_left_dominates_star(self):
        rep = compare_range(make_path(3).tree, make_star(3).tree, STANDARD)
        assert rep.verdict is Verdict.RIGHT_DOMINATED_BY_LEFT
        assert rep.strict_at == (3,)

    @given(
        st.integers(2, 8).flatmap(lambda n: st.tuples(same_size_tree(n), same_size_tree(n))),
        st.sampled_from(BOTH),
    )
    @settings(max_examples=60, deadline=None)
    def test_swapping_sides_mirrors_verdict(self, pair, m):
        left, right = pair
        rep = compare_range(left, right, m)
        swapped = compare_range(right, left, m)
        assert swapped.verdict is MIRROR[rep.verdict]
        assert swapped.strict_at == rep.strict_at

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            compare_range(make_path(3).tree, make_path(4).tree, STANDARD)

    def test_verdict_invariant_under_relabeling(self):
        left = parse_tree("0 1\n0 2\n0 3")
        relabeled = parse_tree("3 1\n1 0\n1 2")
        path = make_path(3).tree
        assert (
            compare_range(left, path, STANDARD).verdict
            is compare_range(relabeled, path, STANDARD).verdict
        )
        assert compare_range(left, relabeled, LAZY).verdict is Verdict.EQUAL

    def test_per_k_covers_through_diameter_plus_one(self):
        rep = compare_range(make_star(4).tree, make_path(4).tree, LAZY)
        ks = [k for k, _, _ in rep.per_k]
        assert ks == list(range(0, 4 + 2))


class TestScan:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_lazy_all_trees_dominated(self, n):
        result = scan_against_path(n, LAZY, "all")
        assert result.violations == ()

    def test_lazy_n6_counts(self):
        result = scan_against_path(6, LAZY, "all")
        assert result.trees_checked == 6
        assert result.violations == ()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_standard_spiders_dominated(self, n):
        result = scan_against_path(n, STANDARD, "spiders")
        assert result.violations == ()

    def test_spider_family_filters(self):
        # on 7 vertices, 4 of the 11 trees have two branch vertices
        all_result = scan_against_path(7, STANDARD, "all")
        spider_result = scan_against_path(7, STANDARD, "spiders")
        assert spider_result.trees_checked < all_result.trees_checked == 11

    def test_bad_family(self):
        with pytest.raises(ValueError):
            scan_against_path(5, STANDARD, "stars")

    def test_spider_family_counts_the_spiders(self):
        for n in range(2, 15):
            spiders = sum(1 for t in generate_free_trees(n) if t.is_spider())
            assert scan_against_path(n, STANDARD, "spiders").trees_checked == spiders

    @pytest.mark.parametrize("m", BOTH)
    @pytest.mark.parametrize("family", ["all", "spiders"])
    def test_violations_match_the_tail_comparison(self, monkeypatch, m, family):
        # no tree beats the path, so the star stands in as a reference with
        # lower tails; the scan must report what comparing tails reports
        monkeypatch.setattr(analysis, "make_path", make_star)
        for n in range(3, 10):
            star = range_distribution(make_star(n - 1).tree, m)
            want = []
            for t in generate_free_trees(n):
                if family == "spiders" and not t.is_spider():
                    continue
                dist = range_distribution(t, m)
                for k in range(1, n):
                    if dist.tail_count(k) > star.tail_count(k):
                        want.append(Violation(t, k, dist.tail(k), star.tail(k)))
            got = scan_against_path(n, m, family).violations
            assert [v.tree.edges for v in got] == [v.tree.edges for v in want]
            assert list(got) == want
            assert n < 5 or want

    def test_json_shape(self):
        blob = scan_against_path(5, LAZY, "all").to_json_dict()
        assert blob["trees_checked"] == 3
        assert blob["violations"] == []


def in_process_shards(monkeypatch, workers: int) -> None:
    """Make scans run their shards one after another in this process."""
    monkeypatch.setattr(analysis, "_scan_workers", lambda n: workers)
    monkeypatch.setattr(
        analysis, "_run_forked", lambda shard, w: [shard(i) for i in range(w)]
    )


def count_forks(monkeypatch) -> list:
    """A list that grows by one item per os.fork call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="pins CPUs")


class TestScanShards:
    @pytest.mark.parametrize("m", BOTH)
    @pytest.mark.parametrize("family", ["all", "spiders"])
    @pytest.mark.parametrize("reference", ["path", "star"])
    def test_merged_shards_equal_one_process(self, monkeypatch, m, family, reference):
        # with the star as reference the violation lists are long, so their
        # order across shards is checked too
        if reference == "star":
            monkeypatch.setattr(analysis, "make_path", make_star)
        for n in range(1 if reference == "path" else 3, 13):
            in_process_shards(monkeypatch, 1)
            want = scan_against_path(n, m, family)
            assert reference == "path" or n < 5 or want.violations
            for workers in (2, 3):
                in_process_shards(monkeypatch, workers)
                assert scan_against_path(n, m, family) == want

    @linux_only
    def test_forked_scan_at_the_threshold_equals_one_process(self, monkeypatch):
        n = analysis.SHARD_MIN_N
        forks = count_forks(monkeypatch)
        got = scan_against_path(n, STANDARD)
        assert len(forks) == analysis._scan_workers(n) - 1 == len(os.sched_getaffinity(0)) - 1
        monkeypatch.setattr(analysis, "_scan_workers", lambda n: 1)
        assert got == scan_against_path(n, STANDARD)
        assert len(forks) == len(os.sched_getaffinity(0)) - 1  # the second run forked nothing

    @linux_only
    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        forks = count_forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            result = scan_against_path(analysis.SHARD_MIN_N, LAZY)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert result.trees_checked == 1301 and forks == []

    @linux_only
    def test_affinity_is_restored(self, monkeypatch):
        before = os.sched_getaffinity(0)
        monkeypatch.setattr(analysis, "_scan_workers", lambda n: 3)
        forks = count_forks(monkeypatch)
        assert scan_against_path(8, LAZY).trees_checked == 23
        assert len(forks) == 2
        assert os.sched_getaffinity(0) == before

    @linux_only
    def test_a_child_exception_is_raised_in_the_parent(self, monkeypatch):
        before = os.sched_getaffinity(0)
        monkeypatch.setattr(analysis, "_scan_workers", lambda n: 2)
        shard = analysis._scan_shard

        def failing(n, m, family, path_f, index, shards):
            if index:
                raise ValueError(f"shard {index} of {shards} failed")
            return shard(n, m, family, path_f, index, shards)

        monkeypatch.setattr(analysis, "_scan_shard", failing)
        with pytest.raises(ValueError, match="shard 1 of 2 failed"):
            scan_against_path(7, STANDARD)
        assert os.sched_getaffinity(0) == before

    @linux_only
    def test_one_usable_cpu_forks_nothing(self):
        out = run_python(
            "import os\n"
            "from giraw.analysis import scan_against_path, SHARD_MIN_N\n"
            "from giraw.counting import WalkModel\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "print(scan_against_path(SHARD_MIN_N, WalkModel.LAZY).trees_checked, len(forks))\n"
        )
        assert out == "1301 0\n"


class TestDominationOrder:
    def test_n4_is_chain(self):
        order = pairwise_domination_order(4, STANDARD)
        assert len(order.trees) == 2
        star = next(i for i, t in enumerate(order.trees) if max(t.degrees()) == 3)
        path = 1 - star
        assert order.dominators_of(star) == sorted({star, path})
        assert order.dominators_of(path) == [path]

    def test_n2_trivial(self):
        order = pairwise_domination_order(2, STANDARD)
        assert len(order.trees) == 1
        assert order.dominators_of(0) == [0]

    @pytest.mark.parametrize("m", BOTH)
    def test_agrees_with_pairwise_compare(self, m):
        below = (Verdict.EQUAL, Verdict.LEFT_DOMINATED_BY_RIGHT)
        for n in range(1, 9):
            order = pairwise_domination_order(n, m)
            for i, a in enumerate(order.trees):
                expect = [
                    j for j, b in enumerate(order.trees) if compare_range(a, b, m).verdict in below
                ]
                assert order.dominators_of(i) == expect

    def test_one_distribution_per_tree(self, monkeypatch):
        built = []

        def counted(t, m):
            built.append(t)
            return range_distribution(t, m)

        monkeypatch.setattr(analysis, "range_distribution", counted)
        order = pairwise_domination_order(10, STANDARD)
        assert len(built) == len(order.trees) == 106

    def test_double_broom_dominated_only_by_self_and_path(self):
        broom_form = parse_tree(DOUBLE_BROOM).canonical_form()
        path_form = make_path(7).tree.canonical_form()
        order = pairwise_domination_order(8, STANDARD)
        bi = next(
            i for i, t in enumerate(order.trees) if t.canonical_form() == broom_form
        )
        dominators = {order.trees[j].canonical_form() for j in order.dominators_of(bi)}
        assert dominators == {broom_form, path_form}


class TestSpidersums:
    def test_three_leaf_star_k2(self):
        lhs, rhs = spidersums_sides([1, 1, 1], 2, STANDARD)
        assert lhs == rhs == 2  # F^2 drops from 10 to 8 when two legs merge

    def test_two_leg_base_case_uses_empty_remainder(self):
        # with l = 2 the remainder profile is all ones, so the sum collapses to 0
        lhs, rhs = spidersums_sides([2, 3], 4, STANDARD)
        assert lhs == rhs == 0

    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=4),
        st.integers(0, 8),
        st.sampled_from(BOTH),
    )
    @settings(max_examples=120)
    def test_identity_holds(self, legs, k, m):
        assert check_spidersums(legs, k, m).ok

    def test_needs_two_legs(self):
        with pytest.raises(ValueError):
            check_spidersums([3], 2, STANDARD)

    @pytest.mark.parametrize("legs", [[2, -1], [0, 2], [2, 2, 0]])
    def test_legs_must_be_positive(self, legs):
        with pytest.raises(ValueError, match="leg lengths"):
            spidersums_sides(legs, 4, STANDARD)


class TestCenterMonotone:
    def test_standard_paths(self):
        assert check_center_monotone(6, 6, STANDARD).ok

    def test_lazy_all_rooted_trees(self):
        result = check_center_monotone(6, 6, LAZY, tree_n_max=6)
        assert result.ok

    def test_standard_star_at_leaf_is_a_counterexample(self):
        violations = center_violations(reroot(make_star(3).tree, 1), 2, STANDARD)
        assert violations  # the center-monotone claim fails off spiders

    def test_standard_tree_level_check_finds_the_failure(self):
        result = check_center_monotone(2, 4, STANDARD, tree_n_max=4)
        assert not result.ok


class TestDifferenceMonotone:
    def test_standard(self):
        result = check_difference_monotone(
            STANDARD, a_max=6, k_max=6, max_legs=3, max_leg_len=3
        )
        assert result.ok
        assert result.cases_checked > 0

    def test_lazy_with_trees(self):
        assert check_difference_monotone(LAZY, a_max=4, k_max=5, tree_n_max=6).ok

    def test_each_profile_is_computed_once(self, monkeypatch):
        # k_max + 1 cases per path, spider or rooted tree read k_max + 2 profiles
        calls = Counter()
        for name in ("path_profile", "spider_profile", "profile"):
            fn = getattr(analysis, name)
            monkeypatch.setattr(
                analysis, name, lambda x, k, m, fn=fn: calls.update([(fn.__name__, str(x), k)]) or fn(x, k, m)
            )
        k_max = 4
        result = check_difference_monotone(LAZY, a_max=3, k_max=k_max, max_legs=0, tree_n_max=5)
        runs = Counter((name, x) for name, x, _ in calls)
        assert set(calls.values()) == {1}
        assert set(runs.values()) == {k_max + 2}
        assert result.cases_checked == len(runs) * (k_max + 1)
        calls.clear()
        result = check_difference_monotone(STANDARD, a_max=0, k_max=k_max, max_legs=2, max_leg_len=2)
        spiders = Counter(x for name, x, _ in calls if name == "spider_profile")
        assert set(spiders.values()) == {k_max + 2} and len(spiders) == 5


class TestSummandComparison:
    def test_star_k2(self):
        assert check_summand_comparison([1, 1, 1], 2, STANDARD).ok

    def test_lazy_two_legs(self):
        for k in range(7):
            assert check_summand_comparison([2, 2], k, LAZY).ok

    @pytest.mark.parametrize("legs", [[-1, 2], [2, 0], [2, 2, -3]])
    def test_legs_must_be_positive(self, legs):
        with pytest.raises(ValueError, match="leg lengths"):
            check_summand_comparison(legs, 4, STANDARD)

    @given(
        st.lists(st.integers(1, 3), min_size=2, max_size=4),
        st.integers(0, 6),
        st.sampled_from(BOTH),
    )
    @settings(max_examples=80)
    def test_holds_generally(self, legs, k, m):
        assert check_summand_comparison(legs, k, m).ok


class TestTailOracle:
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.lists(
                st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)
            ).map(tree_from_prufer)
            if n > 2
            else st.just(make_path(n - 1).tree)
        ),
        st.sampled_from(BOTH),
    )
    @settings(max_examples=30, deadline=None)
    def test_compare_uses_true_tails(self, t, m):
        from oracles import oracle_range_counts

        path = make_path(t.n - 1).tree
        rep = compare_range(t, path, m, left_id="t", right_id="p")
        counts = oracle_range_counts(t, m)
        total = m.steps_per_edge ** (t.n - 1)
        for k, tail_left, _ in rep.per_k:
            expect = Fraction(sum(c for r, c in counts.items() if r >= k), total)
            assert tail_left == expect
