"""Exact big-integer counting of bounded walks on trees.

All counts are Python ints (arbitrary precision); probabilities are
fractions.Fraction. Nothing here touches floating point.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction

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
    parent reads it only pushed, so the tree's batch memo maps (k, model) ->
    class id -> edge-pushed half profile. The DP stops at subtrees whose
    class is in the memo, pushes every other class below the root once per
    call, however many vertices have it, and stores the pushed profile of
    each class, the root's included, that the batch has seen in at least two
    rooted subtrees.
    """
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    h = k // 2 + 1
    mirror = k - h  # the stored label that mirrors label h; -1 for k = 0
    ids = t.class_ids
    sightings = t.tree.shared.sightings
    pushed = t.tree.shared.profiles.setdefault((k, m), {})
    first = {ids[t.root]: t.root}  # each class to compute -> its first vertex
    readers: dict[int, int] = {}  # class missing from the memo -> child edges that read it
    stack = [t.root]
    while stack:
        for c in t.children[stack.pop()]:
            if ids[c] not in pushed:
                readers[ids[c]] = readers.get(ids[c], 0) + 1
                if ids[c] not in first:
                    first[ids[c]] = c
                    stack.append(c)
    fresh: dict[int, list[int]] = {}  # pushed profiles computed here and still to be read
    for cls in sorted(first):  # a class id exceeds its children's: children first, the root last
        v = first[cls]
        prof = None
        for c in t.children[v]:
            if (x := ids[c]) not in readers:
                child = pushed[x]
            elif readers[x] > 1:
                readers[x] -= 1
                child = fresh[x]
            else:
                child = fresh.pop(x)
            prof = child if prof is None else list(map(operator.mul, prof, child))
        if prof is None:
            prof = [1] * h
        admit = sightings[cls] >= 2 and cls not in pushed
        if v != t.root or admit:
            fresh[cls] = band_step(prof, m, prof[mirror] if mirror >= 0 else 0)
            if admit:
                pushed[cls] = tuple(fresh[cls])
    return [*prof, *prof[: mirror + 1][::-1]]  # F_(k-i) = F_i for i <= mirror


def count_bounded(t: Tree, k: int, m: WalkModel) -> int:
    """F^k: number of labelings with all labels in [0, k]."""
    return sum(profile(reroot(t, 0), k, m))


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
    """Exact distribution of the walk range over a tree's walk space."""

    n: int
    model: WalkModel
    class_counts: dict[int, int]  # range r -> number of translation classes
    denominator: int
    # tail_counts[k]: classes with range >= k, for k = 0..max range + 1
    tail_counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tails = [self.denominator]
        for k in range(max(self.class_counts, default=0) + 1):
            tails.append(tails[-1] - self.class_counts.get(k, 0))
        object.__setattr__(self, "tail_counts", tuple(tails))

    def tail_count(self, k: int) -> int:
        """Number of translation classes with Range >= k."""
        return self.tail_counts[min(max(k, 0), len(self.tail_counts) - 1)]

    def tail(self, k: int) -> Fraction:
        """P(Range >= k)."""
        return Fraction(self.tail_count(k), self.denominator)

    def expected_range(self) -> Fraction:
        total = sum(r * c for r, c in self.class_counts.items())
        return Fraction(total, self.denominator)

    def to_json_dict(self) -> dict:
        tails = (Fraction(c, self.denominator) for c in self.tail_counts)
        return {
            "n": self.n,
            "model": self.model.value,
            "denominator": str(self.denominator),
            "class_counts": {str(r): str(c) for r, c in sorted(self.class_counts.items())},
            "tail": {str(k): f"{p.numerator}/{p.denominator}" for k, p in enumerate(tails)},
        }


def range_distribution(t: Tree, m: WalkModel) -> RangeDistribution:
    """Exact range distribution from one profile DP per bound k below the diameter.

    f^k counts the classes of range <= k, so f^r - f^(r-1) have range r.
    """
    f = range_classes_to_diameter(reroot(t, 0), t.diameter(), m)
    counts = {r: b - a for r, (a, b) in enumerate(zip([0, *f], f))}
    return RangeDistribution(
        n=t.n,
        model=m,
        class_counts=counts,
        denominator=m.steps_per_edge ** (t.n - 1),
    )


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
    if u == v:
        return {0: Fraction(1)}
    d = t.distance(u, v)
    steps = m.steps
    per = Fraction(1, len(steps))
    dist: dict[int, Fraction] = {0: Fraction(1)}
    for _ in range(d):
        new: dict[int, Fraction] = {}
        for x, p in dist.items():
            for s in steps:
                new[x + s] = new.get(x + s, Fraction(0)) + p * per
        dist = new
    return dict(sorted(dist.items()))
