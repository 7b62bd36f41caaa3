"""Tests of the benchmark's reference computations against brute-force enumeration.

Run with `python3 -m pytest perfbench`; they are not part of the package's
own test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest

import reference as ref


def _pruefer_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def _all_labeled_trees(n: int):
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        yield _pruefer_tree(seq, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_otter_matches_isomorphism_classes_of_labeled_trees(n):
    classes = {ref.canonical_form(n, edges) for edges in _all_labeled_trees(n)}
    assert ref.free_tree_count(n) == len(classes)


def test_otter_known_values():
    # OEIS A000055 from n = 1; the last two show the formula beyond the package's table.
    known = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
    assert [ref.free_tree_count(n) for n in range(1, 17)] == known


@pytest.mark.parametrize("n", range(1, 8))
def test_rooted_tree_count_matches_rooted_classes(n):
    rooted = set()
    for edges in _all_labeled_trees(n):
        for root in range(n):
            order = [(root, -1)] + ref.bfs_parents(n, edges, root)
            kids = {v: [] for v in range(n)}
            codes = {}
            for v, parent in reversed(order):
                codes[v] = tuple(sorted(kids[v]))
                if parent >= 0:
                    kids[parent].append(codes[v])
            rooted.add(codes[root])
    assert ref.rooted_tree_count(n) == len(rooted)


def _brute_path_counts(a: int, model: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for steps in product(ref.STEPS[model], repeat=a):
        pos, lo, hi = 0, 0, 0
        for s in steps:
            pos += s
            lo, hi = min(lo, pos), max(hi, pos)
        counts[hi - lo] = counts.get(hi - lo, 0) + 1
    return counts


@pytest.mark.parametrize("model", ["standard", "lazy"])
@pytest.mark.parametrize("a", range(0, 9))
def test_reflection_path_distribution_matches_enumeration(a, model):
    brute = _brute_path_counts(a, model)
    got = ref.path_range_class_counts(a, model)
    assert {r: c for r, c in got.items() if c} == brute
    assert set(got) == set(range(a + 1))


@pytest.mark.parametrize("model", ["standard", "lazy"])
def test_enumerated_tree_counts_match_path_reference(model):
    edges = [(i, i + 1) for i in range(6)]
    got = ref.enumerated_range_counts(7, edges, model)
    want = ref.path_range_class_counts(6, model)
    assert got == {r: c for r, c in want.items() if c}


def test_enumerated_star_counts():
    # Standard walks on a star with 3 leaves: range 1 iff all leaves agree.
    assert ref.enumerated_range_counts(4, [(0, 1), (0, 2), (0, 3)], "standard") == {1: 2, 2: 6}


def test_domination_relation_on_four_vertices():
    path = (4, [(0, 1), (1, 2), (2, 3)])
    star = (4, [(0, 1), (0, 2), (0, 3)])
    # The star is dominated by the path and not the other way round.
    assert ref.domination_relation([path, star], "standard") == [[0], [0, 1]]


@pytest.mark.parametrize("model", ["standard", "lazy"])
@pytest.mark.parametrize("d", range(0, 9))
def test_expected_abs_difference_matches_enumeration(d, model):
    steps = ref.STEPS[model]
    total = sum(abs(sum(seq)) for seq in product(steps, repeat=d))
    assert ref.expected_abs_difference(d, model) == Fraction(total, len(steps) ** d)


def test_distance_and_bfs_reject_non_trees():
    assert ref.distance(5, [(0, 1), (1, 2), (2, 3), (1, 4)], 3, 4) == 3
    with pytest.raises(ValueError):
        ref.bfs_parents(4, [(0, 1), (1, 0), (2, 3)])


def test_summand_comparison_cases_counts_pairs():
    assert all(
        ref.summand_comparison_cases(k) == len(list(combinations(range(k + 1), 2)))
        for k in range(10)
    )


@pytest.mark.parametrize("model", ["standard", "lazy"])
def test_difference_monotone_cases_counts_the_grid(model):
    a_max, k_max, tree_n_max = 4, 3, 5
    spiders = sum(
        1
        for legs in range(1, ref.DIFF_MONOTONE_MAX_LEGS + 1)
        for _ in combinations(range(ref.DIFF_MONOTONE_MAX_LEG_LEN + legs - 1), legs)
    )
    rooted = 0
    if model == "lazy":
        for n in range(1, tree_n_max + 1):
            classes = {ref.canonical_form(n, e) for e in _all_labeled_trees(n)}
            rooted += n * len(classes)
    want = (k_max + 1) * (a_max + 1 + spiders + rooted)
    assert ref.difference_monotone_cases(a_max, k_max, tree_n_max, model) == want
