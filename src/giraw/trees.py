"""Tree representation, parsing, constructors, and free-tree generation.

Trees use dense 0-based vertex ids so downstream dynamic programming can be
array-indexed. Trees are immutable after construction; a tree keeps what it
derives from its edges (adjacency, a longest path, its rootings at vertex 0
and at a centre).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

# Known counts of non-isomorphic free trees, n = 1, 2, 3, ... (OEIS A000055).
FREE_TREE_COUNTS = (
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159,
    7741, 19320, 48629, 123867, 317955, 823065, 2144505, 5623756,
)

DEFAULT_MAX_N = len(FREE_TREE_COUNTS)  # free_level_sequences stops at the last known count

# x -> x - 1 on every byte: depths one level up, as counted from a branch's top
_LIFT = bytes([0, *range(255)])


class TreeError(ValueError):
    """Raised for structurally invalid tree inputs."""


class TreeParseError(TreeError):
    """Raised when edge-list text cannot be parsed; carries line context."""


@dataclass(frozen=True)
class Tree:
    """Undirected tree on vertices 0..n-1, stored as an edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TreeError(f"vertex count must be >= 1, got {self.n}")
        if len(self.edges) != self.n - 1:
            raise TreeError(
                f"a tree on {self.n} vertices needs {self.n - 1} edges, got {len(self.edges)}"
            )
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise TreeError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TreeError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        # n-1 distinct edges on n vertices form a tree iff the graph is connected
        if len(self._walk_from_0[0]) != self.n:
            raise TreeError("graph is not connected")

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> Tree:
        """A tree from edges that are known to form one, without validating them again."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "edges", edges)
        return t

    def _walk(self, root: int) -> tuple[list[int], list[int]]:
        """The vertices reachable from root, breadth first, and every vertex's parent.

        Each vertex comes after its parent, so the last is one farthest from
        root. parent[root] is -1 and parent[v] is -2 for a vertex not
        reached; on a tree a vertex's children are its other neighbours.
        """
        adj = self.adjacency
        parent = [-2] * self.n
        parent[root] = -1
        order = [root]
        for v in order:  # reads the vertices it appends
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
        return order, parent

    @cached_property
    def _walk_from_0(self) -> tuple[list[int], list[int]]:
        """The walk from vertex 0, made once: validation, the rooting at 0 and the longest path read it."""
        return self._walk(0)

    @cached_property
    def _longest_path(self) -> list[int]:
        """A longest path, end to end: from the farthest vertex from 0 to the farthest from it."""
        order, parent = self._walk(self._walk_from_0[0][-1])
        path = [order[-1]]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of every vertex, built once per tree."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def rooted(self) -> RootedTree:
        """This tree oriented away from vertex 0, built once: the sampler reads it."""
        return reroot(self, 0)

    @cached_property
    def centred(self) -> RootedTree:
        """This tree oriented away from a centre, built once: counting.bounded_counts reads it.

        At a centre every branch is at most half the diameter high, so the
        DP's one-wall rows (counting._half_profiles) take over soonest, and a
        path's two arms are one class.
        """
        path = self._longest_path
        return reroot(self, path[len(path) // 2])

    def distance(self, u: int, v: int) -> int:
        """Edge distance between u and v: v's depth below u."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TreeError(f"vertex out of range: ({u}, {v})")
        parent = self._walk(u)[1]
        d = 0
        while v != u:
            v = parent[v]
            d += 1
        return d

    def diameter(self) -> int:
        """Edges on a longest path, found once per tree."""
        return len(self._longest_path) - 1


@dataclass(frozen=True)
class RootedTree:
    """Tree with an orientation away from a chosen root."""

    tree: Tree
    root: int
    children: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def n(self) -> int:
        return self.tree.n

    def postorder(self) -> list[int]:
        """Vertices ordered so every child precedes its parent."""
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        order.reverse()
        return order

    def preorder_with_parent(self) -> list[tuple[int, int]]:
        """(vertex, parent) pairs, root first with parent -1."""
        out = [(self.root, -1)]
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                out.append((c, v))
                stack.append(c)
        return out


def reroot(t: Tree, root: int) -> RootedTree:
    if not (0 <= root < t.n):
        raise TreeError(f"root {root} out of range for n={t.n}")
    children = []
    for adj, p in zip(t.adjacency, (t._walk_from_0 if root == 0 else t._walk(root))[1]):
        if p >= 0:  # every neighbour but the parent, in adjacency order
            i = adj.index(p)
            adj = adj[:i] + adj[i + 1:]
        children.append(adj)
    return RootedTree(tree=t, root=root, children=tuple(children))


def make_path(a: int) -> RootedTree:
    """Path with a edges, rooted at endpoint vertex 0."""
    return _path_tree(a).rooted


def make_spider(legs: list[int]) -> RootedTree:
    """Spider with the given leg lengths, rooted at the branch vertex 0."""
    return _spider_tree(legs).rooted


def make_star(leaves: int) -> RootedTree:
    return make_spider([1] * leaves)


def _path_tree(a: int) -> Tree:
    """The path of make_path, not yet rooted: vertex i is i edges from vertex 0."""
    if a < 0:
        raise TreeError(f"path length must be >= 0, got {a}")
    return Tree(n=a + 1, edges=tuple((i, i + 1) for i in range(a)))


def _spider_tree(legs: list[int]) -> Tree:
    """The spider of make_spider, not yet rooted: vertex 0 is the branch vertex."""
    if not legs:
        raise TreeError("spider needs at least one leg")
    if any(a < 1 for a in legs):
        raise TreeError(f"leg lengths must be >= 1, got {legs}")
    edges = []
    nxt = 1
    for a in legs:
        prev = 0
        for _ in range(a):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(n=nxt, edges=tuple(edges))


def parse_tree(text: str) -> Tree:
    """Parse edge-list text: one `u v` pair per line, `#` comments allowed.

    Empty input parses as the single-vertex tree.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TreeParseError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise TreeParseError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise TreeParseError(f"line {lineno}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise TreeParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if not edges:
        return Tree(n=1, edges=())
    n = max_id + 1
    try:
        return Tree(n=n, edges=tuple(edges))
    except TreeError as exc:
        raise TreeParseError(str(exc)) from None


def generate_free_trees(n: int) -> Iterator[Tree]:
    """Yield one representative per isomorphism class of free trees on n vertices.

    Each is the level_tree of a sequence of free_level_sequences(n), so its
    vertex i is the i-th entry and its edges are the sorted (parent, child)
    pairs.
    """
    for levels in free_level_sequences(n):
        yield level_tree(levels).tree


def free_level_sequences(n: int) -> Iterator[bytes]:
    """Level sequences of the free trees on n vertices, one per class, each rooted at a centre.

    The generator of Wright, Richmond, Odlyzko and McKay ("Constant time
    generation of free trees", SIAM J. Comput. 1986). A rooted tree's level
    sequence lists the depths of its vertices in preorder, children in
    decreasing order of their own sequences, here one byte a depth. The walk
    starts at the path rooted at its centre and steps through rooted trees
    in decreasing order of level sequence (Beyer and Hedetniemi), keeping
    only the canonical centre-rooted ones and jumping over runs of
    non-canonical ones. Every step slices, repeats and joins bytes, with no
    per-entry Python loop. Supports n from 1 to DEFAULT_MAX_N, checked
    before the first sequence is asked for.
    """
    if not (1 <= n <= DEFAULT_MAX_N):
        raise TreeError(f"n must be in [1, {DEFAULT_MAX_N}], got {n}")
    return _wrom_walk(n)


def _wrom_walk(n: int) -> Iterator[bytes]:
    if n == 1:
        yield b"\x00"
        return
    seq: bytes | None = bytes([*range(n // 2 + 1), *range(1, (n + 1) // 2)])
    while seq is not None:
        seq = _canonical_from(seq)
        yield seq
        seq = _next_rooted(seq)


def level_tree(levels: Sequence[int]) -> RootedTree:
    """The rooted tree of a level sequence: vertex i is entry i, the root is 0.

    A list of depths is the preorder level sequence of a rooted tree iff it
    starts at depth 0 and every later depth is between 1 and one more than
    the depth before it; vertex v's parent is then the last vertex before v
    one level up. That O(n) check, which raises TreeError, stands in for
    the validation of the edges, which are the sorted (parent, child) pairs.
    """
    n = len(levels)
    if not levels or levels[0] != 0:
        raise TreeError(f"a level sequence starts at depth 0, got {levels[:1]}")
    children: list[list[int]] = [[] for _ in range(n)]
    last_at = [0] * n  # last_at[d]: latest vertex seen at depth d
    for v in range(1, n):
        d = levels[v]
        if not 1 <= d <= levels[v - 1] + 1:
            raise TreeError(f"depth {d} at position {v} cannot follow depth {levels[v - 1]}")
        children[last_at[d - 1]].append(v)
        last_at[d] = v
    edges = tuple((v, c) for v, kids in enumerate(children) for c in kids)
    tree = Tree._unchecked(n, edges)
    return RootedTree(tree, 0, tuple(map(tuple, children)))


def _next_rooted(seq: bytes, p: int | None = None) -> bytes | None:
    """Successor of a rooted level sequence (Beyer-Hedetniemi), or None at the star.

    p is the position to decrease: by default the last entry above depth 1.
    Its new parent q is the last entry before it one level up, and the
    suffix from p repeats the subtree block seq[q:p].
    """
    if p is None:
        p = len(seq.rstrip(b"\x01")) - 1
    if p == 0:
        return None
    q = seq.rindex(seq[p] - 1, 0, p)
    tail = len(seq) - p
    return seq[:p] + (seq[q:p] * (tail // (p - q) + 1))[:tail]


def _canonical_from(seq: bytes) -> bytes:
    """seq if it is the canonical centre-rooted form of a free tree, else the next one.

    The first branch under the root is seq[1:end], and the rest of the tree
    is the root with seq[end:]. Canonical: the first branch is no higher
    than the rest and, at equal height, no larger, and at equal size not
    lexicographically after (with the first branch's depths counted from
    its top). Otherwise one successor step at the end of the first branch,
    followed, when the step cut below depth 2, by resetting the suffix to a
    path one higher than the new first branch, jumps over the whole run of
    non-canonical sequences to the next canonical one. Such a step leaves
    no depth 1 after the first branch's top, so that branch is all of the
    new sequence but its root.
    """
    end = seq.find(1, 2)
    if end < 0:
        end = len(seq)
    h_first, h_rest = max(seq[1:end]) - 1, max(seq[end:], default=0)
    if h_rest > h_first or (
        h_rest == h_first
        and (end - 1, seq[1:end].translate(_LIFT)) <= (len(seq) - end + 1, b"\x00" + seq[end:])
    ):
        return seq
    p = end - 1
    out = _next_rooted(seq, p)
    if seq[p] > 2:
        tail = bytes(range(1, max(out) + 1))
        out = out[: len(out) - len(tail)] + tail
    return out
