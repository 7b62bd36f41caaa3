"""Stochastic-dominance comparison, tree-space scans, and the lemma lab.

Every check here is an exact computation; a "counterexample" is a parameter
tuple for which an identity or inequality failed with integer arithmetic.
"""

from __future__ import annotations

import enum
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NoReturn

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


# Scans of fewer vertices run in one process. On 2 CPUs, start-up included
# (medians of 40 runs), n = 12 (551 trees) took 0.198 s in one process and
# 0.208 s in two, n = 13 (1,301 trees) 0.272 s and 0.250 s.
SHARD_MIN_N = 13


class ScanWorkerError(RuntimeError):
    """A forked scan worker ended without a result."""


def scan_against_path(n: int, m: WalkModel, family: str = "all") -> ScanResult:
    """Compare every free tree on n vertices against the path on n vertices.

    family: "all" or "spiders". A violation is a k with
    P(Range >= k) for the tree exceeding that of the path.

    Each tree is the level_tree of its centre-rooted level sequence, so its
    diameter is centre_diameter and it is never rerooted. Both sides have
    the denominator s^(n-1), and P(Range >= k) is 1 - f^(k-1)/s^(n-1), so
    a violation at k is f^(k-1)(tree) < f^(k-1)(path).

    From SHARD_MIN_N vertices on the trees are dealt round robin to one
    worker per usable CPU (_scan_shard); the merged result is the same
    for any number of workers.
    """
    if family not in ("all", "spiders"):
        raise ValueError(f"family must be 'all' or 'spiders', got {family!r}")
    free_level_sequences(n)  # checks n before the path is built
    # f^0..f^(n-1) of the path cover every tree's f^0..f^D
    path_f = range_classes_to_diameter(make_path(n - 1), n - 1, m)
    workers = _scan_workers(n)
    shard = partial(_scan_shard, n, m, family, path_f, shards=workers)
    parts = [shard(0)] if workers == 1 else _run_forked(shard, workers)
    return _merge_shards(n, m, family, parts)


ShardPart = tuple[int, list[tuple[int, list[int], int, int, int]]]


def _scan_shard(
    n: int, m: WalkModel, family: str, path_f: list[int], shard: int, shards: int
) -> ShardPart:
    """Trees checked and violations among the trees of one shard.

    The shard walks the whole level-sequence stream and checks the trees
    whose stream index is shard mod shards, in a batch of its own. A
    violation at k is (index, levels, k, f^(k-1) of the tree, f^(k-1) of
    the path), all plain ints, in stream order.
    """
    shared = SharedSubtrees()
    checked = 0
    found = []
    for index, levels in islice(enumerate(free_level_sequences(n)), shard, None, shards):
        rt = level_tree(levels, shared)
        if family == "spiders" and not rt.tree.is_spider():
            continue
        checked += 1
        f = range_classes_to_diameter(rt, centre_diameter(levels), m)
        for k, (a, b) in enumerate(zip(f, path_f), start=1):
            if a < b:
                found.append((index, levels, k, a, b))
    return checked, found


def _merge_shards(n: int, m: WalkModel, family: str, parts: list[ShardPart]) -> ScanResult:
    """The scan's result from its shards' parts, violations in stream order."""
    denominator = m.steps_per_edge ** (n - 1)
    found = sorted((v for _, part in parts for v in part), key=itemgetter(0, 2))
    violations = []
    last = None
    for index, levels, k, a, b in found:
        if index != last:
            tree, last = level_tree(levels).tree, index
        tail_tree = Fraction(denominator - a, denominator)
        tail_path = Fraction(denominator - b, denominator)
        violations.append(Violation(tree, k, tail_tree, tail_path))
    return ScanResult(n, m, family, sum(checked for checked, _ in parts), tuple(violations))


def _scan_workers(n: int) -> int:
    """One scan worker per usable CPU.

    One below SHARD_MIN_N, without CPU affinity, or while other threads
    run: a forked child has only the forking thread, and a lock another
    thread held at the fork stays held in the child.
    """
    if n < SHARD_MIN_N or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def _run_forked(shard: Callable[[int], ShardPart], workers: int) -> list[ShardPart]:
    """[shard(0), ..., shard(workers - 1)], each in a process pinned to its own CPU.

    Shard 0 runs here and the others in forked children (_serve_shard),
    which pickle their part into a pipe. A child's exception is raised
    here; a child that ends without a part raises ScanWorkerError. The
    children are killed if this process stops early, and its CPU affinity
    is restored.
    """
    import pickle
    import signal

    cpus = os.sched_getaffinity(0)
    pins = sorted(cpus)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    parent = os.getpid()
    children = {}  # pid -> read end of its pipe, in shard order
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            pipe = open(r, "rb")
            try:
                # a Ctrl-C waits until the child is inside the try that ends in _exit
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                pid = os.fork()
                if pid == 0:
                    _serve_shard(shard, w, pins[w % len(pins)], wr, mask, parent)
                children[pid] = pipe
            finally:
                os.close(wr)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.sched_setaffinity(0, {pins[0]})
        parts = [shard(0)]
        for w, (pid, pipe) in enumerate(list(children.items()), start=1):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code != 0:
                how = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise ScanWorkerError(f"scan worker {w} of {workers} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts.append(value)
        return parts
    finally:
        os.sched_setaffinity(0, cpus)
        for pid, pipe in children.items():
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):  # already reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve_shard(
    shard: Callable[[int], ShardPart], w: int, cpu: int, wr: int, mask, parent: int
) -> NoReturn:
    """The child side of _run_forked: pickle (True, shard(w)) or (False, its exception) into wr.

    It always ends in os._exit, never unwinding into the caller's frames
    (a test runner's, or a CLI wrapper's cleanup), and the kernel kills it
    if the parent ends first.
    """
    import ctypes
    import pickle
    import signal

    status = 1
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent ended before that
            return
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.sched_setaffinity(0, {cpu})
        try:
            reply = (True, shard(w))
        except Exception as exc:
            reply = (False, exc)
        with open(wr, "wb") as pipe:
            pickle.dump(reply, pipe)
        status = 0
    finally:
        os._exit(status)


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
    Each case's profiles at k = 0..k_max + 1 are computed once each: the
    bound k + 1 profile of one k is the bound k profile of the next.
    """
    cases = 0
    ces: list[tuple] = []

    def run(label: str, prof_fn) -> None:
        nonlocal cases
        prof_k = prof_fn(0)
        for k in range(k_max + 1):
            cases += 1
            prof_k1 = prof_fn(k + 1)
            ces.extend(_difference_violations(label, prof_k, prof_k1, k))
            prof_k = prof_k1

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
