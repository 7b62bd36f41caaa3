"""Stochastic-dominance comparison, tree-space scans, and the lemma lab.

Every check here is an exact computation; a "counterexample" is a parameter
tuple for which an identity or inequality failed with integer arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from .counting import (
    RangeDistribution,
    WalkModel,
    path_profile,
    profile,
    range_classes_to_diameter,
    range_distribution,
    transfer,
)
from .trees import (
    RootedTree,
    SharedSubtrees,
    Tree,
    centre_diameter,
    free_level_sequences,
    generate_free_trees,
    level_tree,
    make_path,
    reroot,
)


class Verdict(enum.Enum):
    EQUAL = "equal"
    LEFT_DOMINATED_BY_RIGHT = "left_dominated_by_right"
    RIGHT_DOMINATED_BY_LEFT = "right_dominated_by_left"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class DominanceReport:
    left: str
    right: str
    model: WalkModel
    per_k: tuple[tuple[int, Fraction, Fraction], ...]  # (k, tail_left, tail_right)
    verdict: Verdict
    strict_at: tuple[int, ...]  # k values where the dominated side's tail is smaller

    def to_json_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "model": self.model.value,
            "verdict": self.verdict.value,
            "strict_at": list(self.strict_at),
            "per_k": [
                {
                    "k": k,
                    "tail_left": f"{a.numerator}/{a.denominator}",
                    "tail_right": f"{b.numerator}/{b.denominator}",
                }
                for k, a, b in self.per_k
            ],
        }


def _dominance(dl: RangeDistribution, dr: RangeDistribution) -> tuple[Verdict, tuple[int, ...]]:
    """Verdict and strict k's of the per-k comparison of P(Range >= k).

    Callers pass trees of one size and one walk model, so both distributions
    share one denominator and their tails compare as integer counts.
    """
    kmax = max(len(dl.tail_counts), len(dr.tail_counts)) - 1
    pairs = [(k, dl.tail_count(k), dr.tail_count(k)) for k in range(1, kmax + 1)]
    if all(a == b for _, a, b in pairs):
        return Verdict.EQUAL, ()
    if all(a <= b for _, a, b in pairs):
        return Verdict.LEFT_DOMINATED_BY_RIGHT, tuple(k for k, a, b in pairs if a < b)
    if all(a >= b for _, a, b in pairs):
        return Verdict.RIGHT_DOMINATED_BY_LEFT, tuple(k for k, a, b in pairs if a > b)
    return Verdict.INCOMPARABLE, ()


def compare_range(
    left: Tree, right: Tree, m: WalkModel, left_id: str = "left", right_id: str = "right"
) -> DominanceReport:
    """Exact per-k comparison of P(Range >= k) between two same-size trees."""
    if left.n != right.n:
        raise ValueError(
            f"dominance is defined for equal vertex counts, got {left.n} and {right.n}"
        )
    dl = range_distribution(left, m)
    dr = range_distribution(right, m)
    verdict, strict = _dominance(dl, dr)
    kmax = max(len(dl.tail_counts), len(dr.tail_counts)) - 1
    per_k = tuple((k, dl.tail(k), dr.tail(k)) for k in range(kmax + 1))
    return DominanceReport(left_id, right_id, m, per_k, verdict, strict)


@dataclass(frozen=True)
class Violation:
    tree: Tree
    k: int
    tail_tree: Fraction
    tail_path: Fraction


@dataclass(frozen=True)
class ScanResult:
    n: int
    model: WalkModel
    family: str
    trees_checked: int
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "model": self.model.value,
            "family": self.family,
            "trees_checked": self.trees_checked,
            "violations": [
                {
                    "tree_edges": list(v.tree.edges),
                    "k": v.k,
                    "tail_tree": f"{v.tail_tree.numerator}/{v.tail_tree.denominator}",
                    "tail_path": f"{v.tail_path.numerator}/{v.tail_path.denominator}",
                }
                for v in self.violations
            ],
        }


def scan_against_path(n: int, m: WalkModel, family: str = "all") -> ScanResult:
    """Compare every free tree on n vertices against the path on n vertices.

    family: "all" or "spiders". A violation is a k with
    P(Range >= k) for the tree exceeding that of the path.

    Each tree is the level_tree of its centre-rooted level sequence, so its
    diameter is centre_diameter and it is never rerooted. Both sides have
    the denominator s^(n-1), and P(Range >= k) is 1 - f^(k-1)/s^(n-1), so
    a violation at k is f^(k-1)(tree) < f^(k-1)(path).
    """
    if family not in ("all", "spiders"):
        raise ValueError(f"family must be 'all' or 'spiders', got {family!r}")
    sequences = free_level_sequences(n)  # checks n before the path is built
    # f^0..f^(n-1) of the path cover every tree's f^0..f^D
    path_f = range_classes_to_diameter(make_path(n - 1), n - 1, m)
    denominator = m.steps_per_edge ** (n - 1)
    shared = SharedSubtrees()
    checked = 0
    violations: list[Violation] = []
    for levels in sequences:
        rt = level_tree(levels, shared)
        if family == "spiders" and not rt.tree.is_spider():
            continue
        checked += 1
        f = range_classes_to_diameter(rt, centre_diameter(levels), m)
        for k, (a, b) in enumerate(zip(f, path_f), start=1):
            if a < b:
                tail_tree = Fraction(denominator - a, denominator)
                tail_path = Fraction(denominator - b, denominator)
                violations.append(Violation(rt.tree, k, tail_tree, tail_path))
    return ScanResult(n, m, family, checked, tuple(violations))


@dataclass(frozen=True)
class DominationOrder:
    n: int
    model: WalkModel
    trees: tuple[Tree, ...]
    dominated_by: tuple[tuple[int, ...], ...]  # dominated_by[i]: j with trees[i] <= trees[j]

    def dominators_of(self, i: int) -> list[int]:
        """Indices j such that trees[i] is dominated by trees[j] (incl. equals)."""
        return list(self.dominated_by[i])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "model": self.model.value,
            "trees": [list(t.edges) for t in self.trees],
            "dominated_by": {str(i): self.dominators_of(i) for i in range(len(self.trees))},
        }


def pairwise_domination_order(n: int, m: WalkModel) -> DominationOrder:
    """Domination relation over all free trees on n vertices, one distribution each."""
    trees = tuple(generate_free_trees(n))
    dists = [range_distribution(t, m) for t in trees]
    below = (Verdict.EQUAL, Verdict.LEFT_DOMINATED_BY_RIGHT)
    dominated_by = tuple(
        tuple(j for j, b in enumerate(dists) if _dominance(a, b)[0] in below) for a in dists
    )
    return DominationOrder(n, m, trees, dominated_by)


@dataclass(frozen=True)
class LemmaCheckResult:
    lemma: str
    grid: str
    cases_checked: int
    counterexamples: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "grid": self.grid,
            "cases_checked": self.cases_checked,
            "counterexamples": [list(c) for c in self.counterexamples],
        }


def spider_profile(legs: Iterable[int], k: int, m: WalkModel) -> list[int]:
    """Root profile of a spider: entrywise product of its legs' path profiles.

    An empty leg list is the empty spider (single root vertex): all ones.
    """
    prof = [1] * (k + 1)
    for a in legs:
        leg = path_profile(a, k, m)
        prof = [p * q for p, q in zip(prof, leg)]
    return prof


def _split_legs(legs: list[int]) -> tuple[int, int, list[int]]:
    """The two legs the identity merges and the others; every leg needs an edge."""
    if len(legs) < 2:
        raise ValueError("identity needs at least two legs")
    if any(a < 1 for a in legs):
        raise ValueError(f"leg lengths must be >= 1, got {legs}")
    return legs[0], legs[1], legs[2:]


def spidersums_sides(legs: list[int], k: int, m: WalkModel) -> tuple[int, int]:
    """Both sides of the leg-merging identity for a spider.

    LHS: F^k(spider with legs) - F^k(spider with first two legs merged).
    RHS: the transfer-weighted sum of profile differences over 0 <= i < j <= k.
    """
    a1, a2, rest = _split_legs(legs)
    lhs = sum(spider_profile(legs, k, m)) - sum(spider_profile([a1 + a2] + rest, k, m))
    tab = transfer(a1, k, m)
    p2 = path_profile(a2, k, m)
    pr = spider_profile(rest, k, m)
    rhs = 0
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            rhs += tab[i][j] * (p2[i] - p2[j]) * (pr[i] - pr[j])
    return lhs, rhs


def check_spidersums(legs: list[int], k: int, m: WalkModel) -> LemmaCheckResult:
    """Exact-equality check of the leg-merging identity at one (legs, k)."""
    lhs, rhs = spidersums_sides(legs, k, m)
    ces = () if lhs == rhs else ((tuple(legs), k, lhs, rhs),)
    return LemmaCheckResult(
        lemma="spidersums",
        grid=f"legs={legs}, k={k}, model={m.value}",
        cases_checked=1,
        counterexamples=ces,
    )


def center_violations(rt: RootedTree, k: int, m: WalkModel) -> list[tuple[int, int]]:
    """Pairs (i, j) with |i-k/2| <= |j-k/2| but F_i < F_j for this rooted tree."""
    prof = profile(rt, k, m)
    bad = []
    for i in range(k + 1):
        for j in range(k + 1):
            if abs(2 * i - k) <= abs(2 * j - k) and prof[i] < prof[j]:
                bad.append((i, j))
    return bad


def _all_rooted_trees(n_max: int) -> Iterator[tuple[str, RootedTree]]:
    """Every rooted free tree up to n_max vertices, all sizes in one batch."""
    shared = SharedSubtrees()
    for n in range(1, n_max + 1):
        for idx, t in enumerate(generate_free_trees(n, shared)):
            for r in range(t.n):
                yield f"n={n},tree={idx},root={r}", reroot(t, r)


def check_center_monotone(
    a_max: int, k_max: int, m: WalkModel, tree_n_max: int = 0
) -> LemmaCheckResult:
    """Root-near-center monotonicity of profiles.

    Always checks endpoint-rooted paths up to a_max edges. With tree_n_max > 0
    also checks every rooted tree up to that size (valid for the lazy model;
    in the standard model tree-level checks are expected to fail, e.g. a star
    rooted at a leaf).
    """
    cases = 0
    ces: list[tuple] = []
    for a in range(a_max + 1):
        for k in range(k_max + 1):
            cases += 1
            for i, j in center_violations(make_path(a), k, m):
                ces.append((f"path a={a}", k, i, j))
    if tree_n_max > 0:
        for label, rt in _all_rooted_trees(tree_n_max):
            for k in range(k_max + 1):
                cases += 1
                for i, j in center_violations(rt, k, m):
                    ces.append((label, k, i, j))
    return LemmaCheckResult(
        lemma="center-monotone",
        grid=f"a<={a_max}, k<={k_max}, tree_n<={tree_n_max}, model={m.value}",
        cases_checked=cases,
        counterexamples=tuple(ces),
    )


def _difference_violations(
    label: str, prof_k: list[int], prof_k1: list[int], k: int
) -> list[tuple]:
    """Check both difference-monotonicity inequality families on one profile pair.

    Below-center form (i < j <= k, i+j <= k):
        0 <= F_j^k - F_i^k <= F_j^(k+1) - F_i^(k+1)
    Above-center form (i < j <= k, i+j >= k):
        0 <= F_i^k - F_j^k <= F_(i+1)^(k+1) - F_(j+1)^(k+1)
    """
    bad = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if i + j <= k:
                d0 = prof_k[j] - prof_k[i]
                d1 = prof_k1[j] - prof_k1[i]
                if not (0 <= d0 <= d1):
                    bad.append((label, "below-center", k, i, j, d0, d1))
            if i + j >= k:
                d0 = prof_k[i] - prof_k[j]
                d1 = prof_k1[i + 1] - prof_k1[j + 1]
                if not (0 <= d0 <= d1):
                    bad.append((label, "above-center", k, i, j, d0, d1))
    return bad


def iter_spider_leg_lists(max_legs: int, max_leg_len: int) -> Iterator[list[int]]:
    for l in range(1, max_legs + 1):
        for combo in combinations_with_replacement(range(1, max_leg_len + 1), l):
            yield list(combo)


def check_difference_monotone(
    m: WalkModel,
    a_max: int = 6,
    k_max: int = 6,
    max_legs: int = 3,
    max_leg_len: int = 3,
    tree_n_max: int = 7,
) -> LemmaCheckResult:
    """Monotonicity of profile differences in the bound k.

    Standard model: endpoint-rooted paths and center-rooted spiders.
    Lazy model: those plus every rooted tree up to tree_n_max vertices.
    """
    cases = 0
    ces: list[tuple] = []

    def run(label: str, prof_fn) -> None:
        nonlocal cases
        for k in range(k_max + 1):
            cases += 1
            ces.extend(_difference_violations(label, prof_fn(k), prof_fn(k + 1), k))

    for a in range(a_max + 1):
        run(f"path a={a}", lambda k, a=a: path_profile(a, k, m))
    for legs in iter_spider_leg_lists(max_legs, max_leg_len):
        run(f"spider {legs}", lambda k, legs=legs: spider_profile(legs, k, m))
    if m is WalkModel.LAZY and tree_n_max > 0:
        for label, rt in _all_rooted_trees(tree_n_max):
            run(label, lambda k, rt=rt: profile(rt, k, m))
    return LemmaCheckResult(
        lemma="difference-monotone",
        grid=(
            f"a<={a_max}, k<={k_max}, spiders<=({max_legs} legs x {max_leg_len}), "
            f"tree_n<={tree_n_max if m is WalkModel.LAZY else 0}, model={m.value}"
        ),
        cases_checked=cases,
        counterexamples=tuple(ces),
    )


def check_summand_comparison(legs: list[int], k: int, m: WalkModel) -> LemmaCheckResult:
    """Per-summand growth of the leg-merging expansion when k increases.

    The (i, j) summand at bound k is compared against the (i, j) summand at
    bound k+1 when i+j <= k, else against the (i+1, j+1) summand.
    """
    a1, a2, rest = _split_legs(legs)

    def summand(i: int, j: int, tab, p2, pr) -> int:
        return tab[i][j] * (p2[i] - p2[j]) * (pr[i] - pr[j])

    tab_k = transfer(a1, k, m)
    p2_k = path_profile(a2, k, m)
    pr_k = spider_profile(rest, k, m)
    tab_k1 = transfer(a1, k + 1, m)
    p2_k1 = path_profile(a2, k + 1, m)
    pr_k1 = spider_profile(rest, k + 1, m)

    cases = 0
    ces: list[tuple] = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            cases += 1
            lo = summand(i, j, tab_k, p2_k, pr_k)
            if i + j <= k:
                hi = summand(i, j, tab_k1, p2_k1, pr_k1)
                match = (i, j)
            else:
                hi = summand(i + 1, j + 1, tab_k1, p2_k1, pr_k1)
                match = (i + 1, j + 1)
            if lo > hi:
                ces.append((tuple(legs), k, (i, j), match, lo, hi))
    return LemmaCheckResult(
        lemma="summand-comparison",
        grid=f"legs={legs}, k={k}, model={m.value}",
        cases_checked=cases,
        counterexamples=tuple(ces),
    )
