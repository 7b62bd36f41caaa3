import operator
import os
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw import analysis
from giraw.analysis import (
    DominationOrder,
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
    spider_profile,
    spidersums_sides,
)
from giraw import counting, trees
from giraw.counting import RootBranches, WalkModel, profile, range_distribution
from giraw.trees import (
    FREE_TREE_COUNTS,
    Tree,
    TreeError,
    generate_free_trees,
    level_tree,
    make_path,
    make_spider,
    make_star,
    parse_tree,
    reroot,
)

from fresh import run_python
from oracles import (
    canonical_form,
    degrees,
    oracle_center_violations,
    oracle_difference_violations,
    oracle_is_spider,
    oracle_range_counts,
    tree_from_prufer,
)

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


def oracle_tails(t, m) -> list[int]:
    """Classes with range >= k for k = 1..n, by enumerating every walk."""
    counts = oracle_range_counts(t, m)
    return [sum(c for r, c in counts.items() if r >= k) for k in range(1, t.n + 1)]


def oracle_verdict(tl: list[int], tr: list[int]):
    """Verdict and strict k's from two trees' enumerated tails at k = 1..n."""
    ks = range(1, len(tl) + 1)
    if tl == tr:
        return Verdict.EQUAL, ()
    if all(map(operator.le, tl, tr)):
        return Verdict.LEFT_DOMINATED_BY_RIGHT, tuple(k for k, a, b in zip(ks, tl, tr) if a < b)
    if all(map(operator.ge, tl, tr)):
        return Verdict.RIGHT_DOMINATED_BY_LEFT, tuple(k for k, a, b in zip(ks, tl, tr) if a > b)
    return Verdict.INCOMPARABLE, ()


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


def star_tree(leaves: int) -> Tree:
    """The star of make_star, unrooted, to stand in for the scan's path."""
    return make_star(leaves).tree


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
            spiders = sum(1 for t in generate_free_trees(n) if oracle_is_spider(t))
            assert scan_against_path(n, STANDARD, "spiders").trees_checked == spiders

    @pytest.mark.parametrize("m", BOTH)
    @pytest.mark.parametrize("family", ["all", "spiders"])
    def test_violations_match_the_tail_comparison(self, monkeypatch, m, family):
        # no tree beats the path, so the star stands in as a reference with
        # lower tails; the scan must report what comparing tails reports
        monkeypatch.setattr(analysis, "_path_tree", star_tree)
        for n in range(3, 10):
            star = range_distribution(make_star(n - 1).tree, m)
            want = []
            for t in generate_free_trees(n):
                if family == "spiders" and not oracle_is_spider(t):
                    continue
                dist = range_distribution(t, m)
                for k in range(1, n):
                    if dist.tail_count(k) > star.tail_count(k):
                        want.append(Violation(t, k, dist.tail(k), star.tail(k)))
            got = scan_against_path(n, m, family).violations
            assert [v.tree.edges for v in got] == [v.tree.edges for v in want]
            assert list(got) == want
            assert n < 5 or want

    @pytest.mark.parametrize("m, j", [(STANDARD, 2), (STANDARD, 5), (LAZY, 1), (LAZY, 6)])
    def test_a_raised_path_entry_lists_every_tail_above_it(self, m, j):
        # a shard lists a tree's violations only when one pass finds any;
        # raising f^j of the path by 1 makes every tree that ties it there
        # (the path itself, and in the lazy model at j = 1 every tree) a
        # violation, and the records must equal the tails compared in full
        n = 10
        raised = analysis._padded(range_distribution(make_path(n - 1).tree, m).classes, n)
        raised[j] += 1
        checked, found = analysis._scan_shard(n, m, "all", raised, 0, 1)
        want = [
            (index, levels, k, f[k - 1], raised[k - 1])
            for index, levels, f in analysis._f_vectors(n, m, "all", 0, 1)
            for k in analysis._tails_above(f, raised)
        ]
        assert checked == FREE_TREE_COUNTS[n - 1] and found == want
        assert found  # the path ties its own raised entry
        if (m, j) == (LAZY, 1):  # f^1 = 2^n - 1 on every tree
            assert len(found) == FREE_TREE_COUNTS[n - 1]
        result = analysis._merge_shards(n, m, "all", [(checked, found)])
        assert [(v.tree, v.k) for v in result.violations] == [
            (level_tree(levels).tree, k) for _, levels, k, _, _ in want
        ]

    def test_the_path_is_rooted_once(self, monkeypatch):
        # at its centre, for its f vector; no rooting at vertex 0 comes first
        roots = []
        monkeypatch.setattr(trees, "reroot", lambda t, r, fn=trees.reroot: roots.append(r) or fn(t, r))
        scan_against_path(9, LAZY)
        assert roots == [4]

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


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="forks scan workers")


class TestScanShards:
    @pytest.mark.parametrize("m", BOTH)
    @pytest.mark.parametrize("family", ["all", "spiders"])
    @pytest.mark.parametrize("reference", ["path", "star"])
    def test_merged_shards_equal_one_process(self, monkeypatch, m, family, reference):
        # with the star as reference the violation lists are long, so their
        # order across shards is checked too
        if reference == "star":
            monkeypatch.setattr(analysis, "_path_tree", star_tree)
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
        assert result.trees_checked == FREE_TREE_COUNTS[analysis.SHARD_MIN_N - 1] and forks == []

    @linux_only
    def test_affinity_is_restored(self, monkeypatch):
        # a scan never sets the CPU affinity, in the parent or in a worker
        def refuse(*args):
            raise AssertionError("a scan set the CPU affinity")

        before = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
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
        assert out == f"{FREE_TREE_COUNTS[analysis.SHARD_MIN_N - 1]} 0\n"


class TestSmallBoundClosedForms:
    # the scan engine's f vector of every free tree with 3..12 vertices

    @pytest.mark.parametrize("n", range(3, 13))
    def test_standard_f2_counts_the_two_parity_classes(self, n):
        # labels in [0, 2] change parity along every edge, so one side of
        # the bipartition is all 1 and the other free in {0, 2}:
        # F^2 = 2^p + 2^q for the sides' sizes p and q, and F^1 = 2
        for _, levels, f in analysis._f_vectors(n, STANDARD, "all", 0, 1):
            p = sum(1 for d in levels if d % 2 == 0)
            assert f[2] == 2**p + 2 ** (n - p) - 2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_lazy_f1_is_every_labelling_in_0_1_but_one(self, n):
        # every labelling in {0, 1} is a lazy walk, and F^0 = 1
        assert {f[1] for _, _, f in analysis._f_vectors(n, LAZY, "all", 0, 1)} == {2**n - 1}


class TestDominationOrder:
    def test_n4_is_chain(self):
        order = pairwise_domination_order(4, STANDARD)
        assert len(order.trees) == 2
        star = next(i for i, t in enumerate(order.trees) if max(degrees(t)) == 3)
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

    @pytest.mark.parametrize("m", BOTH)
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_relation_is_the_tail_rule(self, n, m):
        # past the walk oracle's reach, and through the standard ties at 9 and 10
        fs = [f for _, _, f in analysis._f_vectors(n, m, "all", 0, 1)]
        order = pairwise_domination_order(n, m)
        for i, fa in enumerate(fs):
            expect = [j for j, fb in enumerate(fs) if not analysis._tails_above(fa, fb)]
            assert order.dominators_of(i) == expect

    @pytest.mark.parametrize("n", [9, 10])
    def test_tied_trees_list_each_other(self, n):
        fs = [tuple(f) for _, _, f in analysis._f_vectors(n, STANDARD, "all", 0, 1)]
        tied = [i for i, f in enumerate(fs) if fs.count(f) > 1]
        assert len(tied) == 2
        i, j = tied
        order = pairwise_domination_order(n, STANDARD)
        assert j in order.dominators_of(i) and i in order.dominators_of(j)
        assert order.dominators_of(i) == order.dominators_of(j)

    def test_bitsets_of_hand_made_f_vectors(self):
        fs = [
            (0, 4, 6, 8),  # 0: below 1 and its twin 2
            (0, 2, 5, 8),  # 1: below itself alone
            (0, 4, 6, 8),  # 2: the twin of 0
            (0, 1, 7, 8),  # 3: incomparable with 0, 1, 2 and 4
            (0, 5, 4, 8),  # 4: incomparable with 0, 1, 2 and 3
            (0, 5, 7, 8),  # 5: below every tree
        ]
        order = DominationOrder(4, STANDARD, (), analysis._domination_bitsets(fs))
        got = [order.dominators_of(i) for i in range(len(fs))]
        assert got == [[0, 1, 2], [1], [0, 1, 2], [3], [4], [0, 1, 2, 3, 4, 5]]
        for i, fa in enumerate(fs):
            assert got[i] == [j for j, fb in enumerate(fs) if not analysis._tails_above(fa, fb)]

    @pytest.mark.parametrize("m", BOTH)
    def test_no_pair_is_compared_on_its_own(self, m, monkeypatch):
        def refuse(*_args):
            raise AssertionError("order compared a pair of f vectors")

        monkeypatch.setattr(analysis, "_tails_above", refuse)
        assert len(pairwise_domination_order(10, m).trees) == 106

    def test_one_f_vector_per_tree(self, monkeypatch):
        # order reads the scan engine's f vectors: no tree is rooted, walked
        # for its diameter or given a profile DP or a distribution
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("range_distribution", "reroot", "profile"):
            monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
        monkeypatch.setattr(Tree, "diameter", counted("diameter", Tree.diameter))
        fs = analysis._f_vectors
        monkeypatch.setattr(
            analysis, "_f_vectors", lambda *a: (calls.update("f") or v for v in fs(*a))
        )
        order = pairwise_domination_order(10, STANDARD)
        assert len(order.trees) == 106
        assert calls == {"f": 106}

    @pytest.mark.parametrize("m", BOTH)
    def test_relation_matches_the_walk_enumeration(self, m):
        for n in range(1, 9):
            order = pairwise_domination_order(n, m)
            tails = [oracle_tails(t, m) for t in order.trees]
            for i, a in enumerate(tails):
                expect = [j for j, b in enumerate(tails) if all(map(operator.le, a, b))]
                assert order.dominators_of(i) == expect

    @pytest.mark.parametrize("m", BOTH)
    def test_compare_matches_the_walk_enumeration(self, m):
        # the tails run to k = n, past both diameters, so a verdict that
        # stops at the smaller diameter misses the strict k's beyond it
        for n in range(1, 8):
            trees = list(generate_free_trees(n))
            tails = [oracle_tails(t, m) for t in trees]
            for (left, tl), (right, tr) in product(zip(trees, tails), repeat=2):
                rep = compare_range(left, right, m)
                assert (rep.verdict, rep.strict_at) == oracle_verdict(tl, tr)

    def test_compare_counts_strict_k_past_the_smaller_diameter(self):
        rep = compare_range(make_star(4).tree, make_path(4).tree, STANDARD)
        assert rep.verdict is Verdict.LEFT_DOMINATED_BY_RIGHT
        assert rep.strict_at == (3, 4)

    def test_double_broom_dominated_only_by_self_and_path(self):
        broom_form = canonical_form(parse_tree(DOUBLE_BROOM))
        path_form = canonical_form(make_path(7).tree)
        order = pairwise_domination_order(8, STANDARD)
        bi = next(
            i for i, t in enumerate(order.trees) if canonical_form(t) == broom_form
        )
        dominators = {canonical_form(order.trees[j]) for j in order.dominators_of(bi)}
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

    @pytest.mark.parametrize("m", BOTH)
    def test_a_spider_profile_keeps_every_leg(self, m):
        # a negative leg is refused as make_spider refuses it, not dropped;
        # no legs is the single vertex, all ones
        with pytest.raises(TreeError, match=r"leg lengths must be >= 1, got \[-1, 2\]"):
            spider_profile([-1, 2], 3, m)
        assert spider_profile([], 3, m) == [1, 1, 1, 1]
        assert spider_profile(iter([2, 1]), 3, m) == profile(make_spider([2, 1]), 3, m)


def rising_palindrome(rng: random.Random, n: int) -> list[int]:
    """A palindrome of length n that is nondecreasing up to its middle."""
    half = list(accumulate(rng.randint(0, 2) for _ in range((n + 1) // 2)))
    return half + half[: n // 2][::-1]


def perturb(rng: random.Random, *seqs: list[int]) -> None:
    """Move up to two entries of the sequences by one, in place."""
    for _ in range(rng.randint(0, 2)):
        seq = rng.choice(seqs)
        seq[rng.randrange(len(seq))] += rng.choice((-1, 1))


def random_profile_pair(rng: random.Random, k: int) -> tuple[list[int], list[int]]:
    """F^k and F^(k+1): small random integers, or a palindrome F^k rising to
    its middle and F^(k+1) = F^k + d with d one too, both perturbed."""
    if rng.random() < 0.3:
        return [rng.randint(0, 3) for _ in range(k + 1)], [rng.randint(0, 3) for _ in range(k + 2)]
    v, d = rising_palindrome(rng, k + 1), rising_palindrome(rng, k + 1)
    w = [a + b for a, b in zip(v, d)] + [v[0] + d[0]]
    perturb(rng, v, w)
    return v, w


def listed_centre_violations(prof: list[int]) -> list[tuple[int, int]]:
    """center_violations for a given profile, through the library's rule."""
    with mock.patch.object(analysis, "profile", return_value=prof):
        return center_violations(None, len(prof) - 1, LAZY)


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

    def test_standard_tree_grid_lists_the_oracle_pairs(self):
        result = check_center_monotone(4, 6, STANDARD, tree_n_max=5)
        rooted = (
            (f"n={n},tree={idx},root={r}", reroot(t, r))
            for n in range(1, 6)
            for idx, t in enumerate(generate_free_trees(n))
            for r in range(n)
        )
        cases = [(f"path a={a}", make_path(a)) for a in range(5)] + list(rooted)
        want = [
            (label, k, i, j)
            for label, rt in cases
            for k in range(7)
            for i, j in oracle_center_violations(profile(rt, k, STANDARD))
        ]
        assert result.cases_checked == len(cases) * 7 == 238
        assert list(result.counterexamples) == want and len(want) == 16

    def test_standard_grid_to_seven_vertices_lists_the_oracle_pairs(self):
        # a failing grid read from the branch table lists what the profile
        # DP of each rooting gives, with the same labels in the same order
        result = check_center_monotone(4, 7, STANDARD, tree_n_max=7)
        cases = [(f"path a={a}", make_path(a)) for a in range(5)] + [
            (f"n={n},tree={idx},root={r}", reroot(t, r))
            for n in range(1, 8)
            for idx, t in enumerate(generate_free_trees(n))
            for r in range(n)
        ]
        want = [
            (label, k, i, j)
            for label, rt in cases
            for k in range(8)
            for i, j in oracle_center_violations(profile(rt, k, STANDARD))
        ]
        assert result.cases_checked == len(cases) * 8 == 1176
        assert list(result.counterexamples) == want and len(want) == 134

    def test_each_path_is_decided_once(self, monkeypatch):
        # one chain class per path, its rows at every bound from one table
        products = count_row_products(monkeypatch)
        forbid_profile_dps(monkeypatch)
        assert check_center_monotone(24, 24, LAZY).cases_checked == 25 * 25
        assert products == [(bytes(range(2, a + 1)),) if a else () for a in range(25)]

    @given(st.randoms(use_true_random=False), st.integers(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_rule_lists_the_oracle_pairs(self, rng, k):
        prof = random_profile_pair(rng, k)[0]
        assert listed_centre_violations(prof) == oracle_center_violations(prof)

    def test_rule_on_seeded_profiles(self):
        rng = random.Random(19)
        passed = Counter()
        for k in range(15):
            for _ in range(300):
                prof = random_profile_pair(rng, k)[0]
                listed = listed_centre_violations(prof)
                assert listed == oracle_center_violations(prof)
                passed[k] += not listed
        assert all(0 < passed[k] < 300 for k in range(1, 15)) and passed[0] == 300

    def test_tree_size_past_the_generator_cap_fails_before_any_tree(self, monkeypatch):
        # not after every rooted tree up to n = 22 has been checked
        monkeypatch.setattr(analysis, "reroot", lambda t, r: pytest.fail("a tree was rooted"))
        with pytest.raises(TreeError, match=r"^n must be in \[1, 22\], got 23$"):
            check_center_monotone(0, 0, LAZY, tree_n_max=23)


def count_row_products(monkeypatch) -> list:
    """A list that grows by the branch keys of each RootBranches.half_rows call."""
    products, half_rows = [], RootBranches.half_rows
    monkeypatch.setattr(
        RootBranches, "half_rows", lambda table, keys: products.append(keys) or half_rows(table, keys)
    )
    return products


def forbid_profile_dps(monkeypatch) -> None:
    """Fail the test on any per-case profile DP the analysis module could call."""
    for name in ("profile", "_half_profiles", "spider_profile"):
        monkeypatch.setattr(analysis, name, lambda *args, name=name: pytest.fail(f"{name} ran"))


def grid_cases(n_max: int, paths: range, spiders: list[list[int]]) -> list[tuple]:
    """(label, rooted tree) of the grids' paths, spiders and every rooting up to n_max vertices."""
    return (
        [(f"path a={a}", make_path(a)) for a in paths]
        + [(f"spider {legs}", make_spider(legs)) for legs in spiders]
        + [
            (f"n={n},tree={idx},root={r}", reroot(t, r))
            for n in range(1, n_max + 1)
            for idx, t in enumerate(generate_free_trees(n))
            for r in range(n)
        ]
    )


def grid_rows(n_max: int, paths: range, spiders: list[list[int]], bound: int, m: WalkModel):
    """(label, half rows H_0..H_(bound-1)) of each case of grid_cases, from one bounded table."""
    table = RootBranches(1, m, bound)
    cases = (
        [(f"path a={a}", analysis._spider_keys([a] if a else [])) for a in paths]
        + [(f"spider {legs}", analysis._spider_keys(legs)) for legs in spiders]
        + list(analysis._rootings(n_max))
    )
    return [(label, table.half_rows(keys)) for label, keys in cases]


class TestRootedProfiles:
    @pytest.mark.parametrize("m", BOTH)
    def test_every_rooting_matches_its_profile_dp(self, m):
        # every path, spider and rooting the grids read, in the order they
        # label them, at every k <= 12: a table's half rows are the halves
        # of the profile DP at the case's own root
        spiders = list(analysis.iter_spider_leg_lists(3, 3))
        got = grid_rows(8, range(13), spiders, 13, m)
        cases = grid_cases(8, range(13), spiders)
        assert [label for label, _ in got] == [label for label, _ in cases]
        for (_, rows), (_, rt) in zip(got, cases):
            assert rows == list(counting._half_profiles(rt, range(13), m))

    def test_the_grids_push_each_class_once(self, monkeypatch):
        # the deep benchmark's lazy difference grid: each subtree class is
        # pushed at every k below its first wall bound and the grid's bound
        steps, band_step = [], counting.band_step
        monkeypatch.setattr(
            counting, "band_step", lambda p, m, beyond=0: steps.append(1) or band_step(p, m, beyond)
        )
        tables, make = [], analysis.RootBranches
        monkeypatch.setattr(
            analysis, "RootBranches", lambda n, m, bound: tables.append(make(n, m, bound)) or tables[-1]
        )
        assert check_difference_monotone(LAZY, a_max=24, k_max=24, tree_n_max=8).ok
        (table,) = tables
        # rooted trees on 1..7 vertices, and the chains of the paths past them
        assert len(table) == 1 + 1 + 2 + 4 + 9 + 20 + 48 + (24 - 7)
        assert len(steps) == sum(min(26, 2 * b.height) for b in table.values()) == 1082

    @pytest.mark.parametrize("m", BOTH)
    def test_half_row_rules_agree_with_the_oracles(self, m):
        # every rooting up to 8 vertices, paths up to 12 edges and the
        # default spiders at k <= 12: each rule holds exactly when the
        # all-pairs oracle lists no pair
        spiders = list(analysis.iter_spider_leg_lists(3, 3))
        failing = Counter()
        for label, rows in grid_rows(8, range(13), spiders, 14, m):
            profs = [counting._unfold(row, k) for k, row in enumerate(rows)]
            centre, difference = analysis._centre_fails(rows[:13]), analysis._difference_fails(rows)
            for k in range(13):
                assert (k in centre) == bool(oracle_center_violations(profs[k]))
                listed = oracle_difference_violations(label, profs[k], profs[k + 1], k)
                assert (k in difference) == bool(listed)
            failing.update(centre=len(centre), difference=len(difference))
        if m is LAZY:
            assert failing == Counter()
        else:
            assert failing["centre"] > 0 and failing["difference"] > 0


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
        # one row product per distinct rooted class, however many paths,
        # spiders and rootings have it, and no per-case profile DP
        products = count_row_products(monkeypatch)
        forbid_profile_dps(monkeypatch)
        k_max, rootings = 4, 1 + 2 + 3 + 2 * 4 + 3 * 5
        for check in (
            lambda: check_difference_monotone(LAZY, a_max=3, k_max=k_max, max_legs=0, tree_n_max=5),
            lambda: check_center_monotone(3, k_max, LAZY, tree_n_max=5),
        ):
            products.clear()
            result = check()
            assert len(products) == len(set(products)) == 1 + 1 + 2 + 4 + 9  # rooted trees on 1..5 vertices
            assert result.cases_checked == (4 + rootings) * (k_max + 1)
        products.clear()
        result = check_difference_monotone(STANDARD, a_max=0, k_max=k_max, max_legs=2, max_leg_len=2)
        assert products == [(), (b"",), (b"\x02",), (b"", b""), (b"\x02", b""), (b"\x02", b"\x02")]
        assert result.cases_checked == 6 * (k_max + 1)

    @given(st.randoms(use_true_random=False), st.integers(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_rules_list_the_oracle_pairs(self, rng, k):
        v, w = random_profile_pair(rng, k)
        listed = analysis._difference_violations("x", v, w, k)
        assert listed == oracle_difference_violations("x", v, w, k)

    def test_rules_on_seeded_profiles(self):
        rng = random.Random(19)
        passed = Counter()
        for k in range(15):
            for _ in range(300):
                v, w = random_profile_pair(rng, k)
                listed = analysis._difference_violations("x", v, w, k)
                assert listed == oracle_difference_violations("x", v, w, k)
                passed[k] += not listed
        assert all(0 < passed[k] < 300 for k in range(1, 15)) and passed[0] == 300

    def test_standard_rootings_list_the_oracle_pairs(self):
        # the lemma is for the lazy model; standard-model rootings fail it,
        # the half-row rule says so, and the failing k's list the oracle pairs
        failing, cases = [], 0
        for label, rows in grid_rows(6, range(0), [], 9, STANDARD):
            fails = analysis._difference_fails(rows)
            for k in range(8):
                cases += 1
                prof_k, prof_k1 = counting._unfold(rows[k], k), counting._unfold(rows[k + 1], k + 1)
                listed = analysis._difference_violations(label, prof_k, prof_k1, k)
                assert listed == oracle_difference_violations(label, prof_k, prof_k1, k)
                assert (k in fails) == bool(listed)
                if listed:
                    failing.append((label, k))
        assert cases == 520 and len(failing) == 55
        assert failing[0] == ("n=4,tree=1,root=1", 1)


class TestSummandComparison:
    def test_star_k2(self):
        assert check_summand_comparison([1, 1, 1], 2, STANDARD).ok

    def test_lazy_two_legs(self):
        for k in range(7):
            assert check_summand_comparison([2, 2], k, LAZY).ok

    @pytest.mark.parametrize("m", BOTH)
    def test_one_profile_dp_per_tree_over_both_bounds(self, monkeypatch, m):
        # the path and the spider are each built once, and each gets one
        # DP over k and k + 1, whose summands equal the per-bound formula
        calls, half = [], analysis._half_profiles
        monkeypatch.setattr(
            analysis, "_half_profiles", lambda rt, bounds, m: calls.append(bounds) or half(rt, bounds, m)
        )
        for legs, k in ([3, 2, 2, 1], 5), ([2, 3], 4), ([1, 1, 1], 0):
            calls.clear()
            at_k, at_k1 = analysis._summands(legs, [k, k + 1], m)
            assert calls == [[k, k + 1], [k, k + 1]]
            for bound, summand in (k, at_k), (k + 1, at_k1):
                tab = counting.transfer(legs[0], bound, m)
                p2 = counting.path_profile(legs[1], bound, m)
                pr = spider_profile(legs[2:], bound, m)
                for i, j in product(range(bound + 1), repeat=2):
                    assert summand(i, j) == tab[i][j] * (p2[i] - p2[j]) * (pr[i] - pr[j])

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
