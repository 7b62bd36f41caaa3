"""Exact big-integer counting of bounded walks on trees.

All counts are Python ints (arbitrary precision); probabilities are
fractions.Fraction. Nothing here touches floating point.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .trees import RootedTree, Tree, reroot


class WalkModel(enum.Enum):
    STANDARD = "standard"
    LAZY = "lazy"

    @property
    def steps(self) -> tuple[int, ...]:
        return (-1, 1) if self is WalkModel.STANDARD else (-1, 0, 1)

    @property
    def steps_per_edge(self) -> int:
        return len(self.steps)


def band_step(prof: list[int], m: WalkModel, beyond: int = 0) -> list[int]:
    """Push a profile across one edge: entry i becomes prof[i-1] + prof[i+1].

    The lazy model adds prof[i]. The label below the profile contributes
    zero, and the label just past its stored end contributes beyond: zero
    for a full-width profile, and the mirrored entry for a half profile.

    Both step sets are symmetric, so the reflection x -> k - x maps every
    labelling in [0, k] to another one and every profile at bound k is a
    palindrome, F_i^k = F_(k-i)^k; a band step keeps that symmetry. A half
    profile stores F_0..F_(k//2), and the label k//2 + 1 past its end
    mirrors to k - k//2 - 1: the last stored entry for odd k, the one before
    it for even k >= 2, and no label for k = 0.
    """
    padded = [0, *prof, beyond]
    sides = map(operator.add, padded, padded[2:])
    if m is WalkModel.LAZY:
        return list(map(operator.add, sides, prof))
    return list(sides)


def profile(t: RootedTree, k: int, m: WalkModel) -> list[int]:
    """F_i^k profile of a rooted tree: entry i counts labelings with root label i.

    Bottom-up DP: a vertex's profile is the entrywise product, over its
    children, of the children's profiles pushed across their edges by
    band_step (all ones at a leaf). Every profile is a palindrome
    (F_i^k = F_(k-i)^k, see band_step), so the DP runs on half profiles
    F_0..F_(k//2) and only the returned root profile is full width.
    A subtree's profile depends only on its rooted-isomorphism class, and a
    parent reads it only pushed, so the DP keeps a memo that maps class id
    -> edge-pushed half profile: the memo of the tree's batch at (k, model),
    or one of this call's own for a tree in no batch. The DP pushes each
    class below the root that the memo lacks once, however many vertices
    have it, stores it, and then multiplies the root's children. The root's
    profile is never pushed or stored.
    """
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    h = k // 2 + 1
    mirror = k - h  # the stored label that mirrors label h; -1 for k = 0
    ids, shared = t.class_ids, t.tree.shared
    pushed = {} if shared is None else shared.profiles.setdefault((k, m), {})
    first: dict[int, int] = {}  # each class missing from the memo -> its first vertex
    stack = [t.root]
    while stack:
        for c in t.children[stack.pop()]:
            if ids[c] not in pushed and ids[c] not in first:
                first[ids[c]] = c
                stack.append(c)
    for cls in sorted(first):  # a class id exceeds its children's: children first
        prof = _children_product(t, first[cls], pushed, h)
        pushed[cls] = band_step(prof, m, prof[mirror] if mirror >= 0 else 0)
    prof = _children_product(t, t.root, pushed, h)
    return [*prof, *prof[: mirror + 1][::-1]]  # F_(k-i) = F_i for i <= mirror


def _children_product(t: RootedTree, v: int, pushed: dict[int, list[int]], h: int) -> list[int]:
    """Entrywise product of the pushed half profiles of v's children; h ones at a leaf."""
    kids = t.children[v]
    if not kids:
        return [1] * h
    ids = t.class_ids
    prof = pushed[ids[kids[0]]]
    for c in kids[1:]:
        prof = list(map(operator.mul, prof, pushed[ids[c]]))
    return prof


def count_bounded(t: Tree, k: int, m: WalkModel) -> int:
    """F^k: number of labelings with all labels in [0, k].

    No walk's range exceeds the diameter D, so from k = D on each of the
    s^(n-1) translation classes gains one placement per unit of k, and
    F^k = F^D + (k - D) s^(n-1) takes one DP, at D.
    """
    top = min(k, t.diameter())
    return sum(profile(reroot(t, 0), top, m)) + (k - top) * m.steps_per_edge ** (t.n - 1)


def bounded_counts(t: RootedTree, bounds: range, m: WalkModel) -> list[int]:
    """F^k for each bound k in bounds, one profile DP each; F^k = 0 for k < 0."""
    return [sum(profile(t, k, m)) if k >= 0 else 0 for k in bounds]


def range_classes_from(bounded: list[int]) -> list[int]:
    """Class counts from bounded counts at consecutive bounds.

    f^k = F^k - F^(k-1) counts the translation classes of walks with range
    <= k, so F^(j-1), F^j, ..., F^k give f^j, ..., f^k.
    """
    return [b - a for a, b in zip(bounded, bounded[1:])]


def range_classes_to_diameter(t: RootedTree, d: int, m: WalkModel) -> list[int]:
    """f^0..f^d of a tree with diameter d, one profile DP per bound k < d.

    No walk has a range above the diameter, so f^d is the whole walk space
    s^(n-1) and the widest DP is never run.
    """
    f = range_classes_from(bounded_counts(t, range(-1, d), m))
    return [*f, m.steps_per_edge ** (t.n - 1)]


def range_classes(t: Tree, k: int, m: WalkModel) -> int:
    """f^k = F^k - F^(k-1): translation classes of walks with range <= k."""
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    if k >= t.diameter():  # no walk has a range above the diameter
        return m.steps_per_edge ** (t.n - 1)
    return range_classes_from(bounded_counts(reroot(t, 0), range(k - 1, k + 1), m))[0]


@dataclass(frozen=True)
class RangeDistribution:
    """Exact distribution of the walk range over a tree's walk space, stored as f^0..f^D."""

    n: int
    model: WalkModel
    classes: tuple[int, ...]  # f^k: classes of range <= k; f^D is the walk space s^(n-1)

    @property
    def denominator(self) -> int:
        return self.classes[-1]

    @property
    def class_counts(self) -> dict[int, int]:
        """Range r -> number of translation classes: f^r - f^(r-1) have range r."""
        return {r: b - a for r, (a, b) in enumerate(zip([0, *self.classes], self.classes))}

    @cached_property
    def tail_counts(self) -> tuple[int, ...]:
        """tail_counts[k]: classes with range >= k, s^(n-1) - f^(k-1), for k = 0..D + 1."""
        return tuple(self.denominator - a for a in (0, *self.classes))

    def tail_count(self, k: int) -> int:
        """Number of translation classes with Range >= k."""
        tails = self.tail_counts  # read once: a cached_property reads slower than a plain field
        return tails[min(max(k, 0), len(tails) - 1)]

    def tail(self, k: int) -> Fraction:
        """P(Range >= k)."""
        return Fraction(self.tail_count(k), self.denominator)

    def expected_range(self) -> Fraction:
        """E[Range], the sum over k >= 1 of P(Range >= k)."""
        return Fraction(sum(self.tail_counts[1:]), self.denominator)

    def to_json_dict(self) -> dict:
        tails = (Fraction(c, self.denominator) for c in self.tail_counts)
        return {
            "n": self.n,
            "model": self.model.value,
            "denominator": str(self.denominator),
            "class_counts": {str(r): str(c) for r, c in self.class_counts.items()},
            "tail": {str(k): f"{p.numerator}/{p.denominator}" for k, p in enumerate(tails)},
        }


def range_distribution(t: Tree, m: WalkModel) -> RangeDistribution:
    """Exact range distribution from one profile DP per bound k below the diameter."""
    f = range_classes_to_diameter(reroot(t, 0), t.diameter(), m)
    return RangeDistribution(t.n, m, tuple(f))


def transfer(a: int, k: int, m: WalkModel) -> list[list[int]]:
    """Endpoint transfer table for the path with a edges.

    Entry [i][j] counts bounded labelings of P_a with endpoint labels i and j;
    each row is a row of the identity pushed across a edges. The reflection
    x -> k - x gives table[k-i][k-j] = table[i][j], so only rows
    0..k//2 are pushed and row k-i is row i reversed.
    """
    if a < 0:
        raise ValueError(f"path length must be >= 0, got {a}")
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    table = []
    for i in range(k // 2 + 1):
        row = [0] * (k + 1)  # allocated whole, so a huge k fails here at once
        row[i] = 1
        for _ in range(a):
            row = band_step(row, m)
        table.append(row)
    table += [row[::-1] for row in reversed(table[: k + 1 - len(table)])]
    return table


def path_profile(a: int, k: int, m: WalkModel) -> list[int]:
    """F_i^k(P_a) for i = 0..k, path rooted at an endpoint.

    Runs on the half profile F_0..F_(k//2), like profile.
    """
    h = k // 2 + 1
    mirror = k - h
    prof = [1] * h
    for _ in range(a):
        prof = band_step(prof, m, prof[mirror] if mirror >= 0 else 0)
    return [*prof, *prof[: mirror + 1][::-1]]


def f_start_count(a: int, k: int, i: int, m: WalkModel) -> int:
    """Bounded walks on P_a starting at label i that attain the ceiling k."""
    if not (0 <= i <= k):
        raise ValueError(f"start label {i} outside [0, {k}]")
    at_k = path_profile(a, k, m)[i]
    below = path_profile(a, k - 1, m)[i] if i <= k - 1 else 0
    return at_k - below


def endpoint_difference_distribution(
    t: Tree, u: int, v: int, m: WalkModel
) -> dict[int, Fraction]:
    """Exact distribution of f(u) - f(v) over uniform walks on t.

    On a tree the labels along the unique u-v path are d independent uniform
    steps, so this is a d-fold convolution of the step distribution.
    """
    d = t.distance(u, v)
    counts = [1]  # counts[i]: step sequences along the path with f(u) - f(v) = i - d
    for _ in range(d):
        counts = band_step([0, *counts, 0], m)
    total = m.steps_per_edge**d
    return {i - d: Fraction(c, total) for i, c in enumerate(counts) if c}
