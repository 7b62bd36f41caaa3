"""Brute-force oracles the DP implementations are checked against.

These enumerate walk spaces or label assignments directly and never call the
dynamic-programming code paths they verify.
"""

from __future__ import annotations

import itertools
from collections import Counter

from giraw.counting import WalkModel
from giraw.trees import Tree, reroot


def enumerate_walk_labels(t: Tree, m: WalkModel):
    """All label vectors with label 0 at vertex 0, one per translation class."""
    order = reroot(t, 0).preorder_with_parent()
    for combo in itertools.product(m.steps, repeat=t.n - 1):
        labels = [0] * t.n
        for (v, parent), step in zip(order[1:], combo):
            labels[v] = labels[parent] + step
        yield tuple(labels)


def oracle_range_counts(t: Tree, m: WalkModel) -> Counter:
    """Range -> number of translation classes, by exhaustive walk enumeration."""
    return Counter(max(l) - min(l) for l in enumerate_walk_labels(t, m))


def oracle_f(t: Tree, k: int, m: WalkModel) -> int:
    """Classes with range <= k, by enumeration."""
    return sum(1 for l in enumerate_walk_labels(t, m) if max(l) - min(l) <= k)


def oracle_F(t: Tree, k: int, m: WalkModel) -> int:
    """Labelings with labels in [0, k]: each class of range r admits k-r+1 shifts."""
    total = 0
    for l in enumerate_walk_labels(t, m):
        r = max(l) - min(l)
        if r <= k:
            total += k - r + 1
    return total


def oracle_F_direct(t: Tree, k: int, m: WalkModel) -> int:
    """Labelings counted by raw assignment enumeration over [0, k]^n.

    Exponential in n*k; only for tiny inputs, to validate oracle_F itself.
    """
    limit = 1 if m is WalkModel.STANDARD else 0
    count = 0
    for labels in itertools.product(range(k + 1), repeat=t.n):
        if all(limit <= abs(labels[u] - labels[v]) <= 1 for u, v in t.edges):
            count += 1
    return count


def oracle_distances(n: int, edges) -> list[list[int]]:
    """Edge distance between every pair of vertices, -1 where there is no path.

    A breadth-first search from each vertex that scans the raw edge list
    once per level, so it reads no adjacency the code under test builds.
    """
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        level, grew = 0, True
        while grew:
            grew = False
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if dist[a] == level and dist[b] < 0:
                        dist[b] = level + 1
                        grew = True
            level += 1
        out.append(dist)
    return out


def degrees(t: Tree) -> list[int]:
    """Every vertex's degree, counted from the raw edge list."""
    deg = [0] * t.n
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def oracle_is_spider(t: Tree) -> bool:
    """At most one vertex of degree greater than 2. Paths count."""
    return sum(1 for d in degrees(t) if d > 2) <= 1


def tree_from_prufer(seq: list[int]) -> Tree:
    """Decode a Prufer sequence into the labeled tree on len(seq)+2 vertices."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    seq = list(seq)
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [x for x in range(n) if degree[x] == 1]
    edges.append((u, v))
    return Tree(n=n, edges=tuple(edges))


def centres(t: Tree) -> set[int]:
    """The vertices of least eccentricity: the middle one or two of any longest path."""
    path = t._longest_path
    return {path[len(path) // 2], path[(len(path) - 1) // 2]}


def canonical_form(t: Tree) -> str:
    """Isomorphism-invariant canonical bracket string (AHU on a centre root)."""

    def encode(root: int) -> str:
        rt = reroot(t, root)
        codes: dict[int, str] = {}
        for v in rt.postorder():  # children first, so no recursion
            codes[v] = "(" + "".join(sorted(codes.pop(c) for c in rt.children[v])) + ")"
        return codes[root]

    return min(encode(c) for c in centres(t))


def free_tree_classes_by_prufer(n: int) -> set:
    """Canonical forms of all isomorphism classes of trees on n vertices.

    Enumerates every labeled tree via Prufer sequences; independent of the
    level-sequence generator it checks.
    """
    if n == 1:
        return {canonical_form(Tree(1, ()))}
    if n == 2:
        return {canonical_form(Tree(2, ((0, 1),)))}
    return {
        canonical_form(tree_from_prufer(list(seq)))
        for seq in itertools.product(range(n), repeat=n - 2)
    }


def oracle_path_range_counts(a: int, m: WalkModel) -> dict[int, int]:
    """Range -> translation classes on the path with a edges, by the reflection principle.

    N(d) counts the unrestricted a-step walks with displacement d. Shifted to
    [1, k + 1], walks kept in [0, k] avoid the barriers 0 and w = k + 2, and
    since no step jumps a barrier, those from i to j number
    sum_l N(j - i + 2lw) - N(-(i + j) - 2 + 2lw): N folded over strips of
    width w, two at a time. Summing over the endpoints gives F^k, and
    f^k = F^k - F^(k-1) counts the classes of range <= k.
    """
    N: Counter = Counter({0: 1})
    for _ in range(a):
        nxt: Counter = Counter()
        for d, c in N.items():
            for s in m.steps:
                nxt[d + s] += c
        N = nxt

    def bounded(k: int) -> int:
        if k < 0:
            return 0
        period = 2 * (k + 2)
        folded = [0] * period
        for d, c in N.items():
            folded[d % period] += c
        kept = sum((k + 1 - abs(d)) * folded[d % period] for d in range(-k, k + 1))
        reflected = sum(
            (min(s, 2 * k - s) + 1) * folded[(-s - 2) % period] for s in range(2 * k + 1)
        )
        return kept - reflected

    f = [bounded(k) - bounded(k - 1) for k in range(a + 1)]
    return {r: b - c for r, (c, b) in enumerate(zip([0, *f], f))}


def oracle_center_violations(prof: list[int]) -> list[tuple[int, int]]:
    """Every pair (i, j) with |i - k/2| <= |j - k/2| and F_i < F_j, k = len(prof) - 1."""
    k = len(prof) - 1
    return [
        (i, j)
        for i in range(k + 1)
        for j in range(k + 1)
        if abs(2 * i - k) <= abs(2 * j - k) and prof[i] < prof[j]
    ]


def oracle_difference_violations(
    label: str, prof_k: list[int], prof_k1: list[int], k: int
) -> list[tuple]:
    """Every failing pair of both difference-monotonicity families, pair by pair.

    Below-center (i < j <= k, i+j <= k): 0 <= F_j^k - F_i^k <= F_j^(k+1) - F_i^(k+1).
    Above-center (i < j <= k, i+j >= k): 0 <= F_i^k - F_j^k <= F_(i+1)^(k+1) - F_(j+1)^(k+1).
    """
    bad = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if i + j <= k:
                d0, d1 = prof_k[j] - prof_k[i], prof_k1[j] - prof_k1[i]
                if not (0 <= d0 <= d1):
                    bad.append((label, "below-center", k, i, j, d0, d1))
            if i + j >= k:
                d0, d1 = prof_k[i] - prof_k[j], prof_k1[i + 1] - prof_k1[j + 1]
                if not (0 <= d0 <= d1):
                    bad.append((label, "above-center", k, i, j, d0, d1))
    return bad
