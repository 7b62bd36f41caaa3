"""Independent reference computations for checking the giraw CLI's outputs.

Nothing here imports giraw: every value is derived from first principles
(Otter's formula, the reflection principle, walk enumeration, a closed form),
so a fault in the program cannot hide behind the same fault in its check.
Each function is tested against brute-force enumeration in test_reference.py.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import product

STEPS = {"standard": (-1, 1), "lazy": (-1, 0, 1)}

# Spider leg lists enumerated by `verify-lemmas --lemma difference-monotone`:
# every multiset of 1..MAX_LEGS legs, each of length 1..MAX_LEG_LEN.
DIFF_MONOTONE_MAX_LEGS = 3
DIFF_MONOTONE_MAX_LEG_LEN = 3


@lru_cache(maxsize=None)
def rooted_tree_count(n: int) -> int:
    """Unlabeled rooted trees on n vertices (OEIS A000081), by the Euler transform."""
    if n <= 1:
        return n
    total = 0
    for k in range(1, n):
        divisor_sum = sum(d * rooted_tree_count(d) for d in range(1, k + 1) if k % d == 0)
        total += divisor_sum * rooted_tree_count(n - k)
    return total // (n - 1)


def free_tree_count(n: int) -> int:
    """Unlabeled free trees on n vertices (OEIS A000055), by Otter's formula."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    pairs = sum(rooted_tree_count(k) * rooted_tree_count(n - k) for k in range(1, n))
    if n % 2 == 0:
        pairs -= rooted_tree_count(n // 2)
    return rooted_tree_count(n) - pairs // 2


def step_sum_counts(a: int, model: str) -> dict[int, int]:
    """Number of step sequences of length a with sum x, for every reachable x.

    Binomial coefficients for the standard model; trinomial coefficients
    (choose j down-steps and j + x up-steps) for the lazy one.
    """
    if model == "standard":
        return {2 * up - a: math.comb(a, up) for up in range(a + 1)}
    return {
        x: sum(math.comb(a, j) * math.comb(a - j, j + abs(x)) for j in range((a - abs(x)) // 2 + 1))
        for x in range(-a, a + 1)
    }


def path_range_class_counts(a: int, model: str) -> dict[int, int]:
    """Range distribution of the path with a edges: range r -> step sequences.

    F^k, the number of labelings with labels in [0, k], counts walks that stay
    in the strip [0, k]. By the reflection principle the walks from i to j
    that avoid -1 and k + 1 number sum_m N(j - i + 2mL) - N(j + i + 2 + 2mL)
    with L = k + 2 and N the unrestricted count. Prefix sums of N turn the sum
    over the end label j into two lookups. Then f^k = F^k - F^(k-1) counts
    the sequences with range <= k.
    """
    counts = step_sum_counts(a, model)
    prefix = {}
    running = 0
    for x in range(-a, a + 1):
        running += counts.get(x, 0)
        prefix[x] = running

    def upto(x: int) -> int:  # sum of N(y) for y <= x
        if x < -a:
            return 0
        return prefix[min(x, a)]

    def between(lo: int, hi: int) -> int:
        return upto(hi) - upto(lo - 1)

    def bounded(k: int) -> int:  # F^k
        if k < 0:
            return 0
        width = 2 * (k + 2)
        reach = a // width + 2
        total = 0
        for i in range(k + 1):
            for m in range(-reach, reach + 1):
                s = m * width
                total += between(s - i, s + k - i) - between(s + i + 2, s + i + 2 + k)
        return total

    big_f = [bounded(k) for k in range(-1, a + 1)]  # F^-1 .. F^a
    small_f = [big_f[k + 1] - big_f[k] for k in range(a + 1)]  # f^0 .. f^a
    return {r: small_f[r] - (small_f[r - 1] if r else 0) for r in range(a + 1)}


def tails_from_class_counts(class_counts: dict[int, int], denominator: int, kmax: int) -> list[Fraction]:
    """P(Range >= k) for k = 0..kmax."""
    out = []
    for k in range(kmax + 1):
        below = sum(c for r, c in class_counts.items() if r < k)
        out.append(Fraction(denominator - below, denominator))
    return out


def expected_range(class_counts: dict[int, int], denominator: int) -> Fraction:
    return Fraction(sum(r * c for r, c in class_counts.items()), denominator)


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_parents(n: int, edges, root: int = 0) -> list[tuple[int, int]]:
    """(vertex, parent) pairs in BFS order from root; raises unless edges form a tree."""
    if len(edges) != n - 1:
        raise ValueError(f"{len(edges)} edges cannot form a tree on {n} vertices")
    adj = _adjacency(n, edges)
    seen = [False] * n
    seen[root] = True
    order = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append((w, v))
                queue.append(w)
    if len(order) != n - 1:
        raise ValueError("edges do not connect all vertices")
    return order


def distance(n: int, edges, u: int, v: int) -> int:
    depth = {u: 0}
    for w, parent in bfs_parents(n, edges, u):
        depth[w] = depth[parent] + 1
    return depth[v]


def enumerated_range_counts(n: int, edges, model: str) -> dict[int, int]:
    """Range distribution of a tree by enumerating every walk: range r -> walks."""
    order = bfs_parents(n, edges)
    counts: dict[int, int] = {}
    labels = [0] * n
    for signs in product(STEPS[model], repeat=n - 1):
        for (v, parent), s in zip(order, signs):
            labels[v] = labels[parent] + s
        r = max(labels) - min(labels)
        counts[r] = counts.get(r, 0) + 1
    return counts


def canonical_form(n: int, edges) -> tuple:
    """Isomorphism class of a free tree: the least AHU code over its centres."""
    adj = _adjacency(n, edges)
    degree = [len(a) for a in adj]
    alive = n
    layer = [v for v in range(n) if degree[v] <= 1]
    removed = [False] * n
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            alive -= 1
            for w in adj[v]:
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centres = [v for v in range(n) if not removed[v]]

    def code(root: int) -> tuple:
        order = [(root, -1)] + bfs_parents(n, edges, root)
        kids: dict[int, list] = {v: [] for v in range(n)}
        codes = {}
        for v, parent in reversed(order):
            codes[v] = tuple(sorted(kids[v]))
            if parent >= 0:
                kids[parent].append(codes[v])
        return codes[root]

    return min(code(c) for c in centres)


def domination_relation(trees: list[tuple[int, list]], model: str) -> list[list[int]]:
    """dominated_by[i]: every j with P_i(Range >= k) <= P_j(Range >= k) for all k >= 1.

    Trees are (n, edges) pairs on a common n; tails come from walk enumeration.
    """
    tails = []
    for n, edges in trees:
        counts = enumerated_range_counts(n, edges, model)
        tails.append([sum(c for r, c in counts.items() if r >= k) for k in range(1, n + 1)])
    return [
        [j for j, tj in enumerate(tails) if all(a <= b for a, b in zip(ti, tj))]
        for ti in tails
    ]


def expected_abs_difference(d: int, model: str) -> Fraction:
    """E|f(u) - f(v)| for vertices at distance d.

    The labels along the u-v path form a symmetric walk with steps of size
    at most 1, so |S_{m+1}| - |S_m| has mean 0 unless S_m = 0, where it is
    E|step|. Hence E|S_d| = E|step| * sum_{m < d} P(S_m = 0), and P(S_m = 0)
    is a central binomial (standard) or central trinomial (lazy) coefficient
    over 2^m or 3^m.
    """
    steps = STEPS[model]
    mean_abs_step = Fraction(sum(abs(s) for s in steps), len(steps))
    total = Fraction(0)
    for m in range(d):
        total += Fraction(step_sum_counts(m, model).get(0, 0), len(steps) ** m)
    return mean_abs_step * total


def summand_comparison_cases(k: int) -> int:
    """Grid size of `verify-lemmas --lemma summand-comparison`: pairs i < j in [0, k]."""
    return k * (k + 1) // 2


def difference_monotone_cases(a_max: int, k_max: int, tree_n_max: int, model: str) -> int:
    """Grid size of `verify-lemmas --lemma difference-monotone`.

    One case per bound k in [0, k_max] for each endpoint-rooted path, each
    spider leg multiset and, in the lazy model, each rooted tree (a free tree
    with a chosen root vertex) on up to tree_n_max vertices.
    """
    spiders = sum(
        math.comb(DIFF_MONOTONE_MAX_LEG_LEN + legs - 1, legs)
        for legs in range(1, DIFF_MONOTONE_MAX_LEGS + 1)
    )
    rooted = 0
    if model == "lazy":
        rooted = sum(n * free_tree_count(n) for n in range(1, tree_n_max + 1))
    return (k_max + 1) * (a_max + 1 + spiders + rooted)
