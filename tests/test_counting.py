import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw import analysis, counting
from giraw.counting import (
    RootBranches,
    WalkModel,
    bounded_counts,
    branch_keys,
    count_bounded,
    endpoint_difference_distribution,
    f_start_count,
    is_spider,
    path_profile,
    profile,
    range_classes,
    range_classes_from,
    range_distribution,
    transfer,
)
from giraw.trees import (
    FREE_TREE_COUNTS,
    RootedTree,
    Tree,
    TreeError,
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
    oracle_is_spider,
    oracle_F_direct,
    oracle_f,
    oracle_path_range_counts,
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

    def test_negative_k_rejected_for_a_path(self):
        with pytest.raises(ValueError, match="label bound must be >= 0, got -1"):
            path_profile(2, -1, STANDARD)

    @pytest.mark.parametrize("m", BOTH)
    def test_negative_path_length_rejected(self, m):
        # every path routine builds or checks the path as transfer does
        with pytest.raises(TreeError, match="path length must be >= 0, got -2"):
            path_profile(-2, 4, m)
        with pytest.raises(TreeError, match="path length must be >= 0, got -1"):
            f_start_count(-1, 2, 1, m)
        with pytest.raises(ValueError, match="path length must be >= 0, got -1"):
            transfer(-1, 3, m)

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


def count_band_steps(monkeypatch) -> list:
    """A list that grows by one item per band_step call of the profile DP."""
    steps, band_step = [], counting.band_step
    monkeypatch.setattr(
        counting, "band_step", lambda p, m, beyond=0: steps.append(1) or band_step(p, m, beyond)
    )
    return steps


def engine_tables(monkeypatch) -> list:
    """A list that grows by the RootBranches table of every scan shard, in order."""
    tables, make = [], analysis.RootBranches
    monkeypatch.setattr(
        analysis, "RootBranches", lambda n, m: tables.append(make(n, m)) or tables[-1]
    )
    return tables


def reach(n: int, key: bytes) -> int:
    """Bounds k < n - 1 - size + height at which a scan reads the branch class of key.

    A longest path meets the branch in at most its height of its size
    vertices, so no tree on n vertices that holds it reads a larger k.
    """
    return n - 1 - (len(key) + 1) + max(key, default=1)


def pushes(n: int, key: bytes) -> int:
    """Bounds k at which a scan's RootBranches pushes the class of key.

    Those below its reach up to its first wall bound 2 height - 1, the
    first k with k - k//2 >= height: from there on its row is its wall.
    """
    return min(reach(n, key), 2 * max(key, default=1))


def path_steps(n: int, m: WalkModel) -> int:
    """Band steps of the path's f vector, which a scan computes once."""
    with pytest.MonkeyPatch.context() as mp:
        steps = count_band_steps(mp)
        range_distribution(make_path(n - 1).tree, m)
    return len(steps)


def rooted_counts(rt: RootedTree, d: int, m: WalkModel) -> list[int]:
    """F^0..F^d from one profile DP at rt's own root, which bounded_counts does not choose."""
    halves = counting._half_profiles(rt, range(d + 1), m)
    return [sum(counting._unfold(half, k)) for k, half in enumerate(halves)]


def rooted_classes(rt: RootedTree, d: int, m: WalkModel) -> list[int]:
    """f^0..f^d from one profile DP at rt's own root."""
    return range_classes_from([0, *rooted_counts(rt, d, m)])


def full_width_push(row: list[int], a: int, m: WalkModel) -> list[int]:
    """row pushed across a edges by full-width band steps."""
    for _ in range(a):
        row = counting.band_step(row, m)
    return row


class TestHalfProfiles:
    @pytest.mark.parametrize("m", BOTH)
    def test_one_call_over_any_bounds_equals_one_call_per_bound(self, m):
        # every rooting of every tree up to 8 vertices, at shuffled bounds
        # with repeats: the walls kept across bounds do not depend on their order
        rng = random.Random(8)
        for n in range(1, 9):
            for t in generate_free_trees(n):
                for r in range(n):
                    rt = reroot(t, r)
                    bounds = [rng.randrange(2 * n) for _ in range(12)]
                    alone = [next(counting._half_profiles(rt, [k], m)) for k in bounds]
                    assert list(counting._half_profiles(rt, bounds, m)) == alone

    def test_path_profile_and_transfer_match_full_width_steps(self):
        for m in BOTH:
            for k in range(14):
                identity = [[int(i == j) for j in range(k + 1)] for i in range(k + 1)]
                for a in range(13):
                    assert path_profile(a, k, m) == full_width_push([1] * (k + 1), a, m)
                    assert transfer(a, k, m) == [full_width_push(r, a, m) for r in identity]

    @pytest.mark.parametrize("m", BOTH)
    def test_the_rows_store_half_profiles(self, m):
        # a scan's table and a bounded one both hold F_0..F_(k//2) at each
        # bound k, up to the class's reach or the table's bound
        table, bounded = RootBranches(10, m), RootBranches(10, m, 15)
        for levels in free_level_sequences(10):
            table.split(levels)
            bounded.split(levels)
        for key, b in table.items():
            assert len(b.rows) == sum(k // 2 + 1 for k in range(reach(10, key)))
        assert {len(b.rows) for b in bounded.values()} == {sum(k // 2 + 1 for k in range(15))}


class TestSharedProfiles:
    def test_returned_profile_is_a_fresh_list(self):
        # rooted at a leaf, the star's root has one child, the centre, so
        # the root's product is the centre's pushed profile, and its rows
        # in a table
        star = list(generate_free_trees(5))[-1]
        a, b = reroot(star, 1), reroot(star, 2)
        want = profile(reroot(Tree(star.n, star.edges), 1), 3, LAZY)
        for rt in (a, b, a):
            prof = profile(rt, 3, LAZY)
            assert prof == want
            prof[0] = -1
        table = RootBranches(5, LAZY, 4)
        for _ in range(2):
            rows = table.half_rows(branch_keys(a))
            assert rows[3] == want[:2]
            rows[3][0] = rows[2][0] = -1

    def test_a_scan_reuses_its_branch_classes(self, monkeypatch):
        # the scan interns root branches, and most of the branches it meets
        # are classes it has met before
        tables = engine_tables(monkeypatch)
        analysis.scan_against_path(10, STANDARD)
        (table,) = tables
        sightings = sum(levels.count(1) for levels in free_level_sequences(10))
        assert 0 < len(table) < sightings / 4

    def test_a_scan_does_the_same_work_after_other_scans(self, monkeypatch):
        steps = count_band_steps(monkeypatch)
        analysis.scan_against_path(10, LAZY)
        alone = len(steps)
        analysis.scan_against_path(10, STANDARD)
        steps.clear()
        analysis.scan_against_path(10, LAZY)
        assert len(steps) == alone

    def test_a_shared_subtree_crosses_its_edge_once(self, monkeypatch):
        # a class is pushed across its top edge once per bound k it is read
        # at, however many trees and branches it sits in
        steps, tables = count_band_steps(monkeypatch), engine_tables(monkeypatch)
        fs = list(analysis._f_vectors(10, STANDARD, "all", 0, 1))
        (table,) = tables
        assert len(fs) == FREE_TREE_COUNTS[10 - 1]
        assert len(steps) == sum(pushes(10, key) for key in table)

    @pytest.mark.parametrize("m", BOTH)
    def test_wall_rows_equal_pushed_rows(self, m):
        # every class of every tree up to 12 vertices, in a scan's table and
        # in a bounded one: the rows at and past the first wall bound equal
        # a band step of the branches' product at each k
        def pushed(key, k):
            half = [1] * (k // 2 + 1)
            for part in key.split(b"\x02")[1:]:
                sub = pushed(part.translate(counting._LIFT), k)
                half = [a * b for a, b in zip(half, sub)]
            mirror = k - len(half)
            return counting.band_step(half, m, half[mirror] if mirror >= 0 else 0)

        for table in RootBranches(12, m), RootBranches(12, m, 17):
            for n in range(1, 13):
                for levels in free_level_sequences(n):
                    table.split(levels)
            ends = table.ends
            for key, b in table.items():
                for k in range(ends.index(len(b.rows))):
                    assert b.rows[ends[k] : ends[k + 1]] == pushed(key, k)

    def test_wall_copies_share_the_walls_ints(self):
        # a branch of a vertex with nine leaves, 2 edges high: its wall is
        # Q_0..Q_2 = 2^9, 2^9 + 1, 2^10, ints past CPython's small-int cache,
        # and every row from k = 4 on holds those very objects
        table = RootBranches(11, STANDARD, 40)
        (broom,) = table.split(bytes([0, 1, *[2] * 9]))
        ends = table.ends
        wall = broom.rows[ends[4] : ends[5]]
        assert (broom.height, wall) == (2, [2**9, 2**9 + 1, 2**10])
        for k in range(5, 40):
            row = broom.rows[ends[k] : ends[k + 1]]
            assert row == wall + [2**10] * (k // 2 - 2)
            assert all(a is b for a, b in zip(row, wall + wall[-1:] * (k // 2 - 2)))

    @pytest.mark.parametrize("m", BOTH)
    def test_a_table_pushes_each_class_once(self, monkeypatch, m):
        # one band step per (branch class, k it is read at) up to its first
        # wall bound in each shard, besides the path's own DPs; two shards
        # intern their classes apart
        n, path = 12, path_steps(12, m)
        steps, tables = count_band_steps(monkeypatch), engine_tables(monkeypatch)
        monkeypatch.setattr(analysis, "_scan_workers", lambda n: 2)
        monkeypatch.setattr(analysis, "_run_forked", lambda shard, w: [shard(i) for i in range(w)])
        analysis.scan_against_path(n, m)
        assert len(tables) == 2
        assert len(steps) == sum(pushes(n, key) for t in tables for key in t) + path

    def test_a_scanned_batch_interns_no_root(self, monkeypatch):
        # the table holds exactly the subtrees below the roots, each keyed by
        # the depths below its top counted from a top at depth 1
        tables = engine_tables(monkeypatch)
        analysis.scan_against_path(12, STANDARD)
        (table,) = tables
        below = set()
        for levels in free_level_sequences(12):
            for v in range(1, len(levels)):
                d = levels[v]
                end = next((w for w in range(v + 1, len(levels)) if levels[w] <= d), len(levels))
                below.add(bytes(x - d + 1 for x in levels[v + 1 : end]))
        assert set(table) == below
        assert len(table) < FREE_TREE_COUNTS[12 - 1]

    def test_same_class_siblings_are_pushed_once(self, monkeypatch):
        steps = count_band_steps(monkeypatch)
        prof = profile(make_star(500), 3, STANDARD)
        assert len(steps) == 1  # the leaf class; the root is never pushed
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
        # the paths are in no batch, so each call's memo goes when it returns;
        # VmHWM, unlike ru_maxrss, does not inherit the forking process's peak
        peak = run_python(
            "from giraw.analysis import compare_range\n"
            "from giraw.counting import WalkModel\n"
            "from giraw.trees import make_path\n"
            "compare_range(make_path(150).tree, make_path(150).tree, WalkModel.STANDARD)\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
        )
        assert int(peak.split()[1]) < 50 * 1024  # kB


class TestOneWallRows:
    @pytest.mark.parametrize("m", BOTH)
    def test_every_rooting_matches_the_engine(self, m):
        # the DP with one-wall rows, at every root of every tree up to 10
        # vertices, against the root-branch engine at the centre
        for n in range(1, 11):
            table = RootBranches(n, m)
            for levels, t in zip(free_level_sequences(n), generate_free_trees(n)):
                d = t.diameter()
                want = table.f_vector(table.split(levels))[: d + 1]
                for r in range(n):
                    assert rooted_classes(reroot(t, r), d, m) == want

    @pytest.mark.parametrize("m", BOTH)
    def test_every_rooting_matches_walk_enumeration(self, m):
        for n in range(1, 8):
            for t in generate_free_trees(n):
                d = t.diameter()
                want = [oracle_F(t, k, m) for k in range(d + 1)]
                for r in range(n):
                    assert rooted_counts(reroot(t, r), d, m) == want

    def test_a_wall_is_kept_per_class_and_model(self, monkeypatch):
        # Q_0..Q_2 of each arm of the centred path 0-1-2-3-4: labellings of
        # the arm below its parent's label i with the lower wall alone. The
        # arm's class and its leaf's keep their walls at their first push,
        # k = 3, and no later bound of the call pushes a class
        steps = count_band_steps(monkeypatch)
        for m, wall in (STANDARD, [2, 3, 4]), (LAZY, [5, 8, 9]):
            steps.clear()
            halves = list(counting._half_profiles(make_path(4).tree.centred, range(3, 12), m))
            assert len(steps) == 2
            for k, half in enumerate(halves, start=3):
                q = wall + wall[-1:] * (k // 2 - 2)
                assert half == [a * a for a in q[: k // 2 + 1]]


class TestRootBranches:
    @pytest.mark.parametrize("m", BOTH)
    def test_matches_the_per_tree_dp(self, m):
        # every tree up to 13 vertices: the engine's diameter, the first k
        # with f^k = s^(n-1), against the BFS one, its f vector against the
        # profile DPs of the level tree, and its spider test against the degrees
        for n in range(1, 14):
            table = RootBranches(n, m)
            for levels in free_level_sequences(n):
                rt = level_tree(levels)
                branches = table.split(levels)
                d = rt.tree.diameter()
                f = rooted_classes(rt, d, m)
                got = table.f_vector(branches)
                assert got == [*f, *f[-1:] * (n - len(f))]
                assert got.index(table.walks) == d  # f^k < s^(n-1) below the diameter
                assert is_spider(branches) == oracle_is_spider(rt.tree)

    def test_a_branch_met_deeper_is_one_class(self):
        # an edge below a branch's top hangs from the root in the first tree
        # and one level down in the second: both are the key b"\x02"
        table = RootBranches(5, STANDARD)
        table.split(b"\x00\x01\x02")
        assert set(table) == {b"", b"\x02"}
        table.split(b"\x00\x01\x02\x03\x01")
        assert set(table) == {b"", b"\x02", b"\x02\x03"}


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

    def test_count_past_the_diameter_runs_one_dp_below_it(self, monkeypatch):
        # F^(D-1) rooted at the centre, vertex 2 of the longest path 0-1-2-3
        calls, dp = [], counting._half_profiles
        monkeypatch.setattr(
            counting, "_half_profiles", lambda t, ks, m: calls.append((t.root, list(ks))) or dp(t, ks, m)
        )
        t = make_path(3).tree
        assert count_bounded(t, 20_000_000, STANDARD) == 159_999_992
        assert calls == [(2, [2])]

    @pytest.mark.parametrize("m", BOTH)
    def test_bounded_counts_match_walk_enumeration(self, m):
        # F^k = 0 below 0, one DP per bound below D, and the diameter rule
        # past it, also at descending bounds with gaps
        for n in range(1, 8):
            for t in generate_free_trees(n):
                for bounds in range(-1, t.diameter() + 4), range(t.diameter() + 3, -3, -2):
                    assert bounded_counts(t, bounds, m) == [oracle_F(t, k, m) for k in bounds]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="label bound must be >= 0, got -1"):
            count_bounded(make_path(3).tree, -1, STANDARD)

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

    @pytest.mark.parametrize("m", BOTH)
    def test_long_paths_match_the_reflection_principle(self, m):
        for a in range(9):
            want = {r: c for r, c in oracle_path_range_counts(a, m).items() if c}
            assert want == dict(oracle_range_counts(make_path(a).tree, m))
        # up to the benchmark's deep paths, path:200 and path:160 lazy
        for a in [*range(61), {STANDARD: 200, LAZY: 160}[m]]:
            assert range_distribution(make_path(a).tree, m).class_counts == (
                oracle_path_range_counts(a, m)
            )

    @pytest.mark.parametrize("m, a, steps", [(STANDARD, 200, 10_100), (LAZY, 160, 6_480)])
    def test_a_deep_path_pushes_each_class_until_its_wall(self, monkeypatch, m, a, steps):
        # rooted at its centre, the path's two arms are a/2 classes, heights
        # 1..a/2; a class of height h is pushed at k = 0..2h - 1 and copied
        # from its one-wall row after, so sum 2h band steps, not a^2 at the
        # endpoint rooting (40,000 and 25,600)
        counted = count_band_steps(monkeypatch)
        range_distribution(make_path(a).tree, m)
        assert len(counted) == steps == sum(2 * h for h in range(1, a // 2 + 1))

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
        # a distribution makes one DP call, at one centre, for the bounds below D
        calls, dp = [], counting._half_profiles

        def counted(rt, ks, m):
            calls.append((rt.root, list(ks)))
            return dp(rt, ks, m)

        monkeypatch.setattr(counting, "_half_profiles", counted)
        for t, centre in [
            (make_path(6).tree, 3),
            (make_star(5).tree, 0),
            (make_spider([3, 2, 2]).tree, 1),
        ]:
            calls.clear()
            range_distribution(t, LAZY)
            assert calls == [(centre, list(range(t.diameter())))]

    @pytest.mark.parametrize("m", BOTH)
    def test_level_sequence_classes_match_the_distribution(self, m):
        # f^j of the centre-rooted level tree, which the scan's engine is
        # tested against, equals the distribution's
        for n in range(1, 13):
            for levels, t in zip(free_level_sequences(n), generate_free_trees(n)):
                d = t.diameter()
                f = rooted_classes(level_tree(levels), d, m)
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
