"""Exact big-integer counting of bounded walks on trees.

All counts are Python ints (arbitrary precision); probabilities are
fractions.Fraction. Nothing here touches floating point.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .trees import _LIFT, RootedTree, Tree, make_path


def fraction_text(p: Fraction) -> str:
    """An exact rational as JSON text, p/q even for an integer."""
    return f"{p.numerator}/{p.denominator}"


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
    """F_i^k profile of a rooted tree: entry i counts labelings with root label i."""
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    return _unfold(next(_half_profiles(t, [k], m)), k)


def _unfold(half: list[int], k: int) -> list[int]:
    """F_0..F_k from the half profile F_0..F_(k//2) at bound k: F_(k-i) = F_i."""
    mirror = k - len(half)  # the stored label that mirrors label k//2 + 1; -1 for k = 0
    return [*half, *half[: mirror + 1][::-1]]


def _half_profiles(t: RootedTree, bounds: Iterable[int], m: WalkModel) -> Iterator[list[int]]:
    """F_0..F_(k//2) of the root profile of a rooted tree, for each bound k >= 0 in bounds.

    Bottom-up DP: a vertex's profile is the entrywise product, over its
    children, of the children's profiles pushed across their edges by
    band_step (all ones at a leaf). Every profile is a palindrome
    (F_i^k = F_(k-i)^k, see band_step), so the DP runs on half profiles.
    A subtree's profile depends only on its rooted-isomorphism class, and a
    parent reads it only pushed, so one postorder pass first interns the
    classes below the root, each by its children's class ids, with its
    height in edges from its parent; a class's id exceeds its children's.
    Each bound then pushes each class it reaches once, however many
    vertices have it, and multiplies the root's children.

    The one-wall rule, which RootBranches applies too: labels below a class
    of height h lie within h of its parent's label i, so once k - k//2 >= h
    no stored label i <= k//2 reaches the upper wall k, and the pushed half
    profile is Q_0..Q_(k//2), where Q_i counts the labellings with the
    lower wall 0 alone. Q_i is the constant s^size for i >= h, so the first
    bound with the rule that pushes the class keeps Q_0..Q_h, the class's
    wall, and every such bound after that copies a prefix of the wall,
    extended by Q_h, sharing its ints, without pushing the class or
    visiting anything below it. The walls hold at every bound, so the
    bounds may come in any order and repeat.
    """
    ids = [0] * t.n
    classes: dict[tuple[int, ...], int] = {}  # children's class ids -> class id
    heights: list[int] = []  # class id -> edges from its parent to its deepest vertex
    for v in t.postorder()[:-1]:  # children first, without the root: no parent reads it
        kids = tuple(sorted([ids[c] for c in t.children[v]]))
        ids[v] = classes.setdefault(kids, len(classes))
        if ids[v] == len(heights):
            heights.append(1 + max([heights[c] for c in kids], default=0))
    below = list(classes)  # class id -> its children's class ids
    top = [ids[c] for c in t.children[t.root]]
    walls: dict[int, list[int]] = {}
    for k in bounds:
        width = k // 2 + 1
        mirror = k - width  # the stored label that mirrors label k//2 + 1; -1 for k = 0
        reach = k - k // 2  # the greatest class height that leaves the upper wall out of reach
        pushed: dict[int, list[int]] = {}
        fresh: set[int] = set()  # the classes this bound pushes
        stack = top.copy()
        while stack:
            cls = stack.pop()
            if cls in pushed or cls in fresh:
                continue
            if heights[cls] <= reach and cls in walls:
                wall = walls[cls]
                pushed[cls] = wall[:width] + wall[-1:] * (width - len(wall))
            else:
                fresh.add(cls)
                stack += below[cls]
        for cls in sorted(fresh):  # children first
            prof = _product(pushed, below[cls], width)
            row = pushed[cls] = band_step(prof, m, prof[mirror] if mirror >= 0 else 0)
            if heights[cls] <= reach:
                # label k//2 >= h - 1 is out of every child's reach, so
                # prof[-1] is s^(size - 1) and Q_h is s^size
                walls[cls] = [*row[: heights[cls]], m.steps_per_edge * prof[-1]]
        yield _product(pushed, top, width)


def _product(pushed: dict[int, list[int]], classes: list[int], width: int) -> list[int]:
    """Entrywise product of the pushed half profiles of these classes; width ones for none."""
    if not classes:
        return [1] * width
    prod = pushed[classes[0]]
    for c in classes[1:]:
        prod = list(map(operator.mul, prod, pushed[c]))
    return prod


def _half_weights(k: int) -> list[int]:
    """The weights that sum a half profile at bound k to F^k.

    F_0..F_(k//2) are stored and F_(k-i) = F_i, so each stored entry counts
    twice, except F_(k/2) at even k, its own mirror, which counts once:
    F^k is twice the half sum less the middle entry at even k.
    """
    return [2] * (k // 2) + [1 + k % 2]


def count_bounded(t: Tree, k: int, m: WalkModel) -> int:
    """F^k: number of labelings with all labels in [0, k]."""
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    return bounded_counts(t, range(k, k + 1), m)[0]


def bounded_counts(t: Tree, bounds: range, m: WalkModel) -> list[int]:
    """F^k for each bound k in bounds; F^k = 0 for k < 0.

    Below the diameter D, F^k is the weighted sum (_half_weights) of the
    half profile of t.centred at k, and one _half_profiles call gives the
    half profiles at every distinct bound read. No walk's range exceeds D,
    so from k = D on each of the s^(n-1) translation classes gains one
    placement per unit of k, and F^k = F^(D-1) + (k - D + 1) s^(n-1): the
    DP at D - 1 runs once and serves every bound from D on.
    """
    d, walks = t.diameter(), m.steps_per_edge ** (t.n - 1)
    reads = [min(k, d - 1) for k in bounds]  # the bound each count reads a DP at
    js = [j for j in dict.fromkeys(reads) if j >= 0]
    halves = _half_profiles(t.centred, js, m)
    below = {j: sum(map(operator.mul, _half_weights(j), half)) for j, half in zip(js, halves)}
    return [below.get(j, 0) + (k - j) * walks for k, j in zip(bounds, reads)]


def range_classes_from(bounded: list[int]) -> list[int]:
    """Class counts from bounded counts at consecutive bounds.

    f^k = F^k - F^(k-1) counts the translation classes of walks with range
    <= k, so F^(j-1), F^j, ..., F^k give f^j, ..., f^k.
    """
    return [b - a for a, b in zip(bounded, bounded[1:])]


def range_classes(t: Tree, k: int, m: WalkModel) -> int:
    """f^k = F^k - F^(k-1): translation classes of walks with range <= k."""
    if k < 0:
        raise ValueError(f"label bound must be >= 0, got {k}")
    if k >= t.diameter():  # no walk has a range above the diameter
        return m.steps_per_edge ** (t.n - 1)
    return range_classes_from(bounded_counts(t, range(k - 1, k + 1), m))[0]


class Branch(NamedTuple):
    """One class of RootBranches: a subtree hanging from its parent by one edge."""

    height: int  # edges from the parent to the deepest vertex
    forks: int  # vertices with two children or more
    rows: list[int]  # edge-pushed half profiles at k = 0, 1, ..., as far as a tree reads them


# x -> x + 1 on every byte: move a key one level down (trees._LIFT moves it up)
_LOWER = bytes([*range(1, 256), 255])


class RootBranches(dict):
    """Root branches of trees, interned by shape, in model m.

    A branch is a child of the root with everything below it. In a level
    sequence every depth-1 entry starts one, and its key is the bytes of
    the depths below that entry, counted with the entry at depth 1. A shape
    met one level deeper, as a branch of a branch, gets the same key from
    the depths below its own top less one, so each class is stored once.
    Level sequences list the children in canonical order, so equal shapes
    have equal keys, as do branch_keys of any rooted tree.

    A class is built on its first sighting, from its own branches: the
    entrywise product of their rows at each k, pushed across its top edge
    by one band_step per k, until k - k//2 >= height and the one-wall rule
    of _half_profiles gives each row. The rows run to k = bound - 1, or, for
    f vectors on n vertices, to k < D: a longest path of a centre-rooted
    tree enters a subtree of `size` vertices at its top and meets at most
    `height` of them, so a tree that holds the class has
    D <= n - 1 - size + height. A class's own branches reach at least as far.
    """

    def __init__(self, n: int, m: WalkModel, bound: int | None = None):
        super().__init__()
        self.n, self.model, self.bound = n, m, bound
        self.walks = m.steps_per_edge ** (n - 1)  # s^(n-1): f^k for k >= D
        bounds = range(n - 1 if bound is None else bound)
        # rows[ends[k]:ends[k + 1]] is the half profile at bound k
        self.ends = [0, *accumulate(k // 2 + 1 for k in bounds)]
        lasts = [e - 1 for e in self.ends[1:]]
        weights = [w for k in bounds for w in _half_weights(k)]
        # per diameter d < n that has its rows: the weights of rows
        # 0..d-1, a getter of the running sum's ends of those rows (row 0 is
        # one entry, so for d < 2 the getter is a slice), and f^d..f^(n-1),
        # each s^(n-1)
        ds = range(min(n, len(self.ends)))
        self.weight_rows = [weights[: self.ends[d]] for d in ds]
        self.picks = [itemgetter(*lasts[:d]) if d > 1 else itemgetter(slice(d)) for d in ds]
        self.pads = [[self.walks] * (n - d) for d in ds]

    def split(self, levels: bytes) -> list[Branch]:
        """The branches of the root of a level sequence, in order, each interned."""
        return [self[key] for key in levels.split(b"\x01")[1:]]

    def __missing__(self, key: bytes) -> Branch:
        subs = [self[part.translate(_LIFT)] for part in key.split(b"\x02")[1:]]
        size, height = len(key) + 1, max(key, default=1)
        reach = self.n - 1 - size + height if self.bound is None else self.bound
        pushes = min(reach, 2 * height)  # the wall rule holds from k = 2 height - 1 on
        prod = [1] * self.ends[pushes]
        for b in subs:
            prod = list(map(operator.mul, prod, b.rows))
        rows: list[int] = []
        for k in range(pushes):
            half = prod[self.ends[k] : self.ends[k + 1]]
            mirror = k - len(half)  # see band_step; -1 for k = 0
            rows += band_step(half, self.model, half[mirror] if mirror >= 0 else 0)
        if pushes < reach:  # the row at k = 2 height - 1 is Q_0..Q_(height - 1)
            wall = [*rows[self.ends[pushes - 1] :], self.model.steps_per_edge**size]
            for k in range(pushes, reach):
                rows += wall + wall[-1:] * (k // 2 - height)
        forks = sum(b.forks for b in subs) + (len(subs) > 1)
        branch = self[key] = Branch(height, forks, rows)
        return branch

    def half_rows(self, keys: Iterable[bytes]) -> list[list[int]]:
        """Root half profiles F_0^k..F_(k//2)^k, each k below the bound, of a root with these branch keys."""
        rows = [self[key].rows for key in keys] or [[1] * self.ends[-1]]
        prod = list(reduce(partial(map, operator.mul), rows))
        return [prod[a:b] for a, b in zip(self.ends, self.ends[1:])]

    def f_vector(self, branches: list[Branch]) -> list[int]:
        """f^0..f^(n-1) of the centre-rooted tree whose root has these branches, in canonical order.

        The diameter d is the sum of the heights of the two tallest
        branches, since every longest path passes through the centre. In
        canonical order a taller branch has the larger level sequence, so
        those are the first two. F^k for k < d is the weighted sum
        (_half_weights) of the entrywise product of the branches' rows at
        k. One running sum over all those rows at once reads F^0 + ... + F^k
        at the end of row k, so F and f are two successive differences.
        From d on, f^k is s^(n-1). Every branch of the tree has rows up to
        k = d - 1.
        """
        if len(branches) > 1:
            d = branches[0].height + branches[1].height
        else:  # a root with one branch or none: n <= 2
            d = sum(b.height for b in branches)
        prod = self.weight_rows[d]
        for b in branches:
            prod = map(operator.mul, prod, b.rows)
        totals = self.picks[d](list(accumulate(prod)))
        bounded = list(map(operator.sub, totals, [0, *totals]))
        return [*map(operator.sub, bounded, [0, *bounded]), *self.pads[d]]


def branch_keys(rt: RootedTree) -> list[bytes]:
    """The keys of rt's root branches, as split reads them from a level sequence.

    A key lists its children, in the decreasing order of level sequences,
    each as a byte 2 followed by the child's own key one level lower.
    """
    keys: dict[int, bytes] = {}
    for v in rt.postorder()[:-1]:  # children first, without the root
        below = sorted([keys.pop(c) for c in rt.children[v]], reverse=True)
        keys[v] = b"".join([b"\x02" + key.translate(_LOWER) for key in below])
    return sorted([keys[c] for c in rt.children[rt.root]], reverse=True)


def is_spider(branches: list[Branch]) -> bool:
    """Whether the tree whose root has these branches has at most one vertex of degree > 2.

    The root has degree > 2 with three branches or more, and any other
    vertex with two children or more.
    """
    return (len(branches) > 2) + sum(b.forks for b in branches) <= 1


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
            "tail": {str(k): fraction_text(p) for k, p in enumerate(tails)},
        }


def range_distribution(t: Tree, m: WalkModel) -> RangeDistribution:
    """Exact range distribution: f^0..f^D from F^(-1)..F^D (bounded_counts)."""
    f = range_classes_from(bounded_counts(t, range(-1, t.diameter() + 1), m))
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
    """F_i^k(P_a) for i = 0..k, path rooted at an endpoint: the profile of make_path(a)."""
    return profile(make_path(a), k, m)


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
