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
from itertools import chain, combinations_with_replacement, compress, count, groupby, islice
from operator import itemgetter, le, lt, sub
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .counting import (
    RootBranches,
    WalkModel,
    _half_profiles,
    _unfold,
    branch_keys,
    fraction_text,
    is_spider,
    profile,
    range_distribution,
    transfer,
)
from .trees import (
    RootedTree,
    Tree,
    _path_tree,
    free_level_sequences,
    generate_free_trees,
    level_tree,
    make_path,
    make_spider,
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
                {"k": k, "tail_left": fraction_text(a), "tail_right": fraction_text(b)}
                for k, a, b in self.per_k
            ],
        }


def _tails_above(fa: list[int], fb: list[int]) -> tuple[int, ...]:
    """The k >= 1 with P(Range >= k) larger on tree A than on tree B.

    fa, fb: f^0..f^(n-1) of two trees on n vertices in one model (_padded).
    P(Range >= k) = 1 - f^(k-1)/s^(n-1) on both, so that is fa[k-1] < fb[k-1].
    """
    return tuple(compress(count(1), map(lt, fa, fb)))


def _padded(f: list[int] | tuple[int, ...], n: int) -> list[int]:
    """f^0..f^(n-1) from f^0..f^D: past the diameter every f^k is f^D = s^(n-1)."""
    return [*f, *f[-1:] * (n - len(f))]


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
    fl, fr = _padded(dl.classes, left.n), _padded(dr.classes, right.n)
    up, down = _tails_above(fl, fr), _tails_above(fr, fl)
    verdict, strict = {
        (False, False): (Verdict.EQUAL, ()),
        (False, True): (Verdict.LEFT_DOMINATED_BY_RIGHT, down),
        (True, False): (Verdict.RIGHT_DOMINATED_BY_LEFT, up),
        (True, True): (Verdict.INCOMPARABLE, ()),
    }[bool(up), bool(down)]
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
                    "tail_tree": fraction_text(v.tail_tree),
                    "tail_path": fraction_text(v.tail_path),
                }
                for v in self.violations
            ],
        }


# Scans of fewer vertices run in one process. On 2 CPUs, start-up included
# (medians of 40 runs), n = 14 (3,159 trees) took 0.188 s in one process and
# 0.182 s in two, a tie within the spread of another round (0.167 s and
# 0.169 s), and n = 15 (7,741 trees) 0.281 s and 0.250 s.
SHARD_MIN_N = 15


class ScanWorkerError(RuntimeError):
    """A forked scan worker ended without a result."""


def scan_against_path(n: int, m: WalkModel, family: str = "all") -> ScanResult:
    """Compare every free tree on n vertices against the path on n vertices.

    family: "all" or "spiders". A tree's violations are _tails_above(tree, path),
    read from its f vector (_f_vectors); only a violating tree becomes a Tree.

    From SHARD_MIN_N vertices on the trees are dealt round robin to one
    worker per usable CPU (_scan_shard); the merged result is the same
    for any number of workers.
    """
    if family not in ("all", "spiders"):
        raise ValueError(f"family must be 'all' or 'spiders', got {family!r}")
    free_level_sequences(n)  # checks n before the path is built
    path_f = _padded(range_distribution(_path_tree(n - 1), m).classes, n)
    workers = _scan_workers(n)
    shard = partial(_scan_shard, n, m, family, path_f, shards=workers)
    parts = [shard(0)] if workers == 1 else _run_forked(shard, workers)
    return _merge_shards(n, m, family, parts)


ShardPart = tuple[int, list[tuple[int, bytes, int, int, int]]]


def _scan_shard(
    n: int, m: WalkModel, family: str, path_f: list[int], shard: int, shards: int
) -> ShardPart:
    """Trees checked and violations among the trees of one shard.

    A violation at k is (index, levels, k, f^(k-1) of the tree, f^(k-1) of
    the path), in stream order: the levels as the generator's bytes, the
    rest plain ints. Most trees have no violation, so one pass finds
    whether a tree has any before they are listed.
    """
    checked = 0
    found = []
    for index, levels, f in _f_vectors(n, m, family, shard, shards):
        checked += 1
        if any(map(lt, f, path_f)):  # a tail above the path's, so list them
            found += [(index, levels, k, f[k - 1], path_f[k - 1]) for k in _tails_above(f, path_f)]
    return checked, found


def _f_vectors(n: int, m: WalkModel, family: str, shard: int, shards: int) -> Iterator[tuple]:
    """(index, levels, padded f) of the trees whose stream index is shard mod shards.

    The root-branch engine: each centre-rooted level sequence splits into
    its root's branches, interned in one RootBranches table per call, and
    its f vector is the weighted product of their rows. No tree, class id,
    reroot or profile DP is made per tree, and the spider filter reads the
    branches too.
    """
    table = RootBranches(n, m)
    spiders = family == "spiders"
    for index, levels in islice(enumerate(free_level_sequences(n)), shard, None, shards):
        branches = table.split(levels)
        if spiders and not is_spider(branches):
            continue
        yield index, levels, table.f_vector(branches)


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
    """[shard(0), ..., shard(workers - 1)], each in its own process.

    Shard 0 runs here and the others in forked children (_serve_shard),
    which pickle their part into a pipe. A child's exception is raised
    here; a child that ends without a part raises ScanWorkerError. The
    children are killed if this process stops early.
    """
    import pickle
    import signal

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
                    _serve_shard(shard, w, wr, mask, parent)
                children[pid] = pipe
            finally:
                os.close(wr)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
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
        for pid, pipe in children.items():
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):  # already reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve_shard(
    shard: Callable[[int], ShardPart], w: int, wr: int, mask, parent: int
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
        try:
            reply = (True, shard(w))
        except Exception as exc:
            reply = (False, exc)
        with open(wr, "wb") as pipe:
            pickle.dump(reply, pipe)
        status = 0
    finally:
        os._exit(status)


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary digit's text -> its value


@dataclass(frozen=True)
class DominationOrder:
    """The domination relation over all free trees on n vertices, one bitset a tree.

    Bit j of dominated_by[i] is set iff trees[i] is dominated by trees[j]:
    P(Range >= k) is at most as large on tree i as on tree j at every k,
    equals included, so every tree is in its own set.
    """

    n: int
    model: WalkModel
    trees: tuple[Tree, ...]
    dominated_by: tuple[int, ...]

    def dominators_of(self, i: int) -> list[int]:
        """Indices j such that trees[i] is dominated by trees[j] (incl. equals), increasing."""
        bits = f"{self.dominated_by[i]:b}"[::-1].encode().translate(_BITS)
        return list(compress(count(), bits))

    def to_json_dict(self) -> dict:
        """The JSON view; its dominated_by expands each set only as it is read."""
        return {
            "n": self.n,
            "model": self.model.value,
            "trees": [list(t.edges) for t in self.trees],
            "dominated_by": _DominatorLists(self),
        }


class _DominatorLists:
    """dominated_by for the JSON writer, which reads items() alone.

    The items are (str(i), order.dominators_of(i)) in increasing i, each list
    built from its bitset as it is read, so no T x T structure is held.
    """

    def __init__(self, order: DominationOrder) -> None:
        self._order = order

    def items(self) -> Iterator[tuple[str, list[int]]]:
        indices = range(len(self._order.dominated_by))
        return zip(map(str, indices), map(self._order.dominators_of, indices))


def _domination_bitsets(fs: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Bit j of the i-th set: f_j^p <= f_i^p at every p, so tree i is dominated by tree j.

    fs: the padded f vectors of trees on one vertex count in one model. That is
    the negation of _tails_above(fs[i], fs[j]), and no pair is compared on its
    own. Each column p sorts the trees by f^p and walks its groups of equal
    value in increasing order: a running bitset takes in each group, then every
    tree of the group ANDs it into its own set, so trees tied at p land in each
    other's sets. A tree's set is the AND over all columns.
    """
    indices = range(len(fs))
    dominated_by = [(1 << len(fs)) - 1] * len(fs)
    for column in zip(*fs):
        value, below = column.__getitem__, 0
        for _, group in groupby(sorted(indices, key=value), value):
            group = list(group)
            for j in group:
                below |= 1 << j
            for i in group:
                dominated_by[i] &= below
    return tuple(dominated_by)


def pairwise_domination_order(n: int, m: WalkModel) -> DominationOrder:
    """Domination relation over all free trees on n vertices, from the scan's f vectors.

    The trees come in stream order, and the relation is one bitset a tree from
    the sorted columns of their f vectors (_domination_bitsets).
    """
    _, levels, fs = zip(*_f_vectors(n, m, "all", 0, 1))
    trees = tuple(level_tree(seq).tree for seq in levels)
    return DominationOrder(n, m, trees, _domination_bitsets(fs))


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
    """Root profile of the spider with these legs, rooted at its branch vertex.

    An empty leg list is the empty spider (single root vertex): all ones.
    """
    legs = list(legs)
    return profile(make_spider(legs) if legs else make_path(0), k, m)


def _split_legs(legs: list[int]) -> tuple[int, int, list[int]]:
    """The two legs the identity merges and the others; every leg needs an edge."""
    if len(legs) < 2:
        raise ValueError("identity needs at least two legs")
    if any(a < 1 for a in legs):
        raise ValueError(f"leg lengths must be >= 1, got {legs}")
    return legs[0], legs[1], legs[2:]


def _summands(legs: list[int], bounds: list[int], m: WalkModel) -> list[Callable[[int, int], int]]:
    """The (i, j) summand of the leg-merging expansion at each of these bounds.

    It is T[i][j] * (P_i - P_j) * (R_i - R_j), with T the transfer across the
    first leg, P the profile of a path of the second leg's length and R the
    profile of the spider of the other legs. The path and the spider are
    built once, each with one profile DP over all the bounds.
    """
    a1, a2, rest = _split_legs(legs)
    paths = _half_profiles(make_path(a2), bounds, m)
    spiders = _half_profiles(make_spider(rest) if rest else make_path(0), bounds, m)
    return [
        partial(_summand, transfer(a1, k, m), _unfold(p2, k), _unfold(pr, k))
        for k, p2, pr in zip(bounds, paths, spiders)
    ]


def _summand(tab: list[list[int]], p2: list[int], pr: list[int], i: int, j: int) -> int:
    """T[i][j] * (P_i - P_j) * (R_i - R_j), of one bound's T, P and R (_summands)."""
    return tab[i][j] * (p2[i] - p2[j]) * (pr[i] - pr[j])


def spidersums_sides(legs: list[int], k: int, m: WalkModel) -> tuple[int, int]:
    """Both sides of the leg-merging identity for a spider.

    LHS: F^k(spider with legs) - F^k(spider with first two legs merged).
    RHS: the sum of the summands over 0 <= i < j <= k.
    """
    a1, a2, rest = _split_legs(legs)
    lhs = sum(spider_profile(legs, k, m)) - sum(spider_profile([a1 + a2] + rest, k, m))
    (summand,) = _summands(legs, [k], m)
    return lhs, sum(summand(i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


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
    return _centre_pairs(profile(rt, k, m))


def _centre_pairs(prof: list[int]) -> list[tuple[int, int]]:
    """center_violations of F_0..F_k, every pair in (i, j) order."""
    k = len(prof) - 1
    return [
        (i, j)
        for i in range(k + 1)
        for j in range(k + 1)
        if abs(2 * i - k) <= abs(2 * j - k) and prof[i] < prof[j]
    ]


def _nondecreasing(x: Sequence[int]) -> bool:
    """Whether x_0 <= x_1 <= ... <= x_(len(x) - 1)."""
    return all(map(le, x, x[1:]))


def _centre_fails(rows: list[list[int]]) -> list[int]:
    """The bounds k at which a root profile fails centre-monotonicity, from its half rows.

    rows[k] is H_k = F_0^k..F_(k//2)^k. An engine profile is a palindrome,
    F_i^k = F_(k-i)^k (band_step), and so F_i^k >= F_j^k whenever
    |i - k/2| <= |j - k/2| iff H_k is nondecreasing: mirroring i and j into
    0..k//2 keeps their distances to k/2.
    """
    return [k for k, half in enumerate(rows) if not _nondecreasing(half)]


def _difference_fails(rows: list[list[int]]) -> list[int]:
    """The bounds k < len(rows) - 1 at which the difference lemma fails, from half rows.

    rows[k] is H_k = F_0^k..F_(k//2)^k, and every F^k is a palindrome
    (band_step). The below-center form of _difference_violations says
    that F^k and g = F^(k+1) - F^k on 0..k rise to the centre, and the
    above-center form that F^k and h_x = F^(k+1)_(x+1) - F^k_x fall from it.
    On palindromes:
    - F^k rises to the centre and falls from it iff H_k is nondecreasing
      (_centre_fails).
    - Reversed, h_x = F^(k+1)_(x+1) - F^k_x is g = F^(k+1) - F^k on 0..k:
      h_(k-x) = F^(k+1)_(k+1-x) - F^k_(k-x) = F^(k+1)_x - F^k_x. So the
      above-center family repeats the below-center one.
    - g rises to the centre iff it is nondecreasing on 0..k//2, where it is
      H_(k+1) - H_k, and g_(k-j) <= g_j for every j > k//2: a pair
      i < j, i + j <= k is a chain inside that half, or for j > k//2 the
      chain up to k - j >= i, then one mirror pair. As
      g_(k-j) = F^(k+1)_(j+1) - F^k_j, each mirror pair says
      F^(k+1)_(j+1) <= F^(k+1)_j, and mirrored by x -> k + 1 - x these
      say that H_(k+1) is nondecreasing.
    So the lemma holds at k iff H_k, H_(k+1) and H_(k+1) - H_k on
    0..k//2 are nondecreasing.
    """
    rising = list(map(_nondecreasing, rows))
    return [
        k
        for k in range(len(rows) - 1)
        if not (rising[k] and rising[k + 1] and _nondecreasing(list(map(sub, rows[k + 1], rows[k]))))
    ]


def _spider_keys(legs: list[int]) -> tuple[bytes, ...]:
    """The root branch keys of a spider rooted at its branch vertex, sorted as branch_keys sorts them.

    A leg of a edges is a chain, depths 2..a below its top at depth 1. A
    key byte holds a depth, so a <= 255. A path of a >= 1 edges rooted at
    an end is the spider [a], and a = 0 the empty spider.
    """
    if max(legs, default=0) > 255:
        raise ValueError(f"a path or leg in the lemma grids has at most 255 edges, got {max(legs)}")
    return tuple(sorted([bytes(range(2, a + 1)) for a in legs], reverse=True))


def _rootings(n_max: int) -> Iterator[tuple[str, tuple[bytes, ...]]]:
    """Every rooting of every free tree up to n_max vertices: its label and its root's branch keys."""
    free_level_sequences(n_max)  # checks n_max before the first tree
    for n in range(1, n_max + 1):
        for idx, t in enumerate(generate_free_trees(n)):
            for r in range(t.n):
                yield f"n={n},tree={idx},root={r}", tuple(branch_keys(reroot(t, r)))


def _lemma_grid(
    cases: Iterable[tuple[str, tuple[bytes, ...]]],
    table: RootBranches,
    k_max: int,
    failures: Callable[[str, list[list[int]]], list[tuple]],
) -> tuple[int, tuple[tuple, ...]]:
    """Cases checked and counterexamples of a grid of (label, root branch keys), k_max + 1 cases each.

    A root profile depends only on the rooted tree, so each distinct one,
    keyed by its sorted branch keys, is decided once on the table's half
    rows: failures(label, rows) lists a failing class's counterexamples
    under the label of its first case. Every case of the class adds them
    under its own label, in the same order.
    """
    found: dict[tuple[bytes, ...], list[tuple]] = {}
    checked, ces = 0, []
    for label, keys in cases:
        if keys not in found:
            found[keys] = failures(label, table.half_rows(keys))
        checked += k_max + 1
        ces += [(label, *c[1:]) for c in found[keys]]
    return checked, tuple(ces)


def check_center_monotone(
    a_max: int, k_max: int, m: WalkModel, tree_n_max: int = 0
) -> LemmaCheckResult:
    """Root-near-center monotonicity of profiles.

    Always checks endpoint-rooted paths up to a_max edges. With tree_n_max > 0
    also checks every rooted tree up to that size (valid for the lazy model;
    in the standard model tree-level checks are expected to fail, e.g. a star
    rooted at a leaf). Each rooted class is decided once (_lemma_grid) on
    one RootBranches table with rows for k <= k_max (_centre_fails); the
    pairs of a failing k are listed by _centre_pairs.
    """
    cases = [(f"path a={a}", _spider_keys([a] if a else [])) for a in range(a_max + 1)]

    def failures(label: str, rows: list[list[int]]) -> list[tuple]:
        return [
            (label, k, i, j) for k in _centre_fails(rows) for i, j in _centre_pairs(_unfold(rows[k], k))
        ]

    checked, ces = _lemma_grid(
        chain(cases, _rootings(tree_n_max) if tree_n_max > 0 else ()),
        RootBranches(1, m, k_max + 1),  # n sizes only f vectors, which a grid does not read
        k_max,
        failures,
    )
    return LemmaCheckResult(
        lemma="center-monotone",
        grid=f"a<={a_max}, k<={k_max}, tree_n<={tree_n_max}, model={m.value}",
        cases_checked=checked,
        counterexamples=ces,
    )


def _difference_violations(
    label: str, prof_k: list[int], prof_k1: list[int], k: int
) -> list[tuple]:
    """Check both difference-monotonicity inequality families on one profile pair.

    Below-center form (i < j <= k, i+j <= k):
        0 <= F_j^k - F_i^k <= F_j^(k+1) - F_i^(k+1)
    Above-center form (i < j <= k, i+j >= k):
        0 <= F_i^k - F_j^k <= F_(i+1)^(k+1) - F_(j+1)^(k+1)

    Every failing pair is listed, in (i, j) order; the grids call this only
    for a k that _difference_fails names.
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
    Each rooted class is decided once (_lemma_grid) on one RootBranches
    table with rows for k <= k_max + 1 (_difference_fails); the pairs of a
    failing k are listed by _difference_violations.
    """
    cases = [(f"path a={a}", _spider_keys([a] if a else [])) for a in range(a_max + 1)] + [
        (f"spider {legs}", _spider_keys(legs)) for legs in iter_spider_leg_lists(max_legs, max_leg_len)
    ]

    def failures(label: str, rows: list[list[int]]) -> list[tuple]:
        return [
            c
            for k in _difference_fails(rows)
            for c in _difference_violations(label, _unfold(rows[k], k), _unfold(rows[k + 1], k + 1), k)
        ]

    trees = m is WalkModel.LAZY and tree_n_max > 0
    checked, ces = _lemma_grid(
        chain(cases, _rootings(tree_n_max) if trees else ()),
        RootBranches(1, m, k_max + 2),  # n sizes only f vectors, which a grid does not read
        k_max,
        failures,
    )
    return LemmaCheckResult(
        lemma="difference-monotone",
        grid=(
            f"a<={a_max}, k<={k_max}, spiders<=({max_legs} legs x {max_leg_len}), "
            f"tree_n<={tree_n_max if m is WalkModel.LAZY else 0}, model={m.value}"
        ),
        cases_checked=checked,
        counterexamples=ces,
    )


def check_summand_comparison(legs: list[int], k: int, m: WalkModel) -> LemmaCheckResult:
    """Per-summand growth of the leg-merging expansion when k increases.

    The (i, j) summand at bound k is compared against the (i, j) summand at
    bound k+1 when i+j <= k, else against the (i+1, j+1) summand.
    """
    at_k, at_k1 = _summands(legs, [k, k + 1], m)
    cases = 0
    ces: list[tuple] = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            cases += 1
            lo = at_k(i, j)
            match = (i, j) if i + j <= k else (i + 1, j + 1)
            hi = at_k1(*match)
            if lo > hi:
                ces.append((tuple(legs), k, (i, j), match, lo, hi))
    return LemmaCheckResult(
        lemma="summand-comparison",
        grid=f"legs={legs}, k={k}, model={m.value}",
        cases_checked=cases,
        counterexamples=tuple(ces),
    )
