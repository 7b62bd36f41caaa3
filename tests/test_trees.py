import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw.counting import branch_keys
from giraw.trees import (
    DEFAULT_MAX_N,
    FREE_TREE_COUNTS,
    Tree,
    TreeError,
    TreeParseError,
    free_level_sequences,
    generate_free_trees,
    level_tree,
    make_path,
    make_spider,
    make_star,
    parse_tree,
    reroot,
)

from oracles import (
    canonical_form,
    centres,
    degrees,
    free_tree_classes_by_prufer,
    oracle_distances,
    oracle_is_spider,
    tree_from_prufer,
)


def labeled_trees(max_n: int = 8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)
        ).map(tree_from_prufer)
        if n > 2
        else st.just(Tree(n, tuple((i, i + 1) for i in range(n - 1))))
    )


class TestParse:
    def test_path_on_3(self):
        t = parse_tree("0 1\n1 2")
        assert t.n == 3
        assert t.diameter() == 2

    def test_star(self):
        t = parse_tree("0 1\n0 2\n0 3")
        assert degrees(t)[0] == 3

    def test_double_broom(self):
        t = parse_tree("0 1\n1 2\n2 3\n0 4\n0 5\n3 6\n3 7")
        assert t.n == 8
        assert sorted(degrees(t), reverse=True)[:2] == [3, 3]
        assert t.diameter() == 5

    def test_comments_and_blank_lines(self):
        t = parse_tree("# a path\n0 1\n\n1 2  # tail edge\n")
        assert t.edges == ((0, 1), (1, 2))

    def test_single_vertex_from_empty_input(self):
        assert parse_tree("").n == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 1\n2 3\n3 4\n4 2", "not connected"),
            ("0 1\n1 2\n2 0\n3 4", "not connected"),  # the cycle holds vertex 0
            ("0 1\n1 2\n2 0", "edges"),
            ("0 1\n0 1", "line 2"),
            ("0 0", "line 1"),
            ("0 x", "line 1"),
            ("0 1 2", "line 1"),
            ("0 -1", "line 1"),
        ],
    )
    def test_bad_input(self, text, fragment):
        with pytest.raises(TreeParseError) as exc:
            parse_tree(text)
        assert fragment in str(exc.value)

    def test_missing_vertex_id_is_disconnected(self):
        # ids 0 and 2 only: vertex 1 never appears, so 0..n-1 is not covered
        with pytest.raises(TreeParseError):
            parse_tree("0 2")

    @given(labeled_trees())
    def test_roundtrip(self, t):
        back = parse_tree("".join(f"{u} {v}\n" for u, v in t.edges))
        assert {frozenset(e) for e in back.edges} == {frozenset(e) for e in t.edges}


class TestConstructors:
    @pytest.mark.parametrize("a,n", [(0, 1), (1, 2), (3, 4)])
    def test_make_path(self, a, n):
        rt = make_path(a)
        assert rt.n == n
        assert rt.root == 0
        if a > 0:
            assert degrees(rt.tree)[rt.root] == 1

    def test_make_path_negative(self):
        with pytest.raises(TreeError):
            make_path(-1)

    def test_one_leg_spider_is_path(self):
        assert canonical_form(make_spider([3]).tree) == canonical_form(make_path(3).tree)

    def test_star(self):
        rt = make_star(3)
        assert rt.tree.n == 4
        assert degrees(rt.tree)[rt.root] == 3

    def test_spider_21_is_path_rooted_inside(self):
        rt = make_spider([2, 1])
        assert canonical_form(rt.tree) == canonical_form(make_path(3).tree)
        assert degrees(rt.tree)[rt.root] == 2

    def test_spider_rejects_empty_and_zero_legs(self):
        with pytest.raises(TreeError):
            make_spider([])
        with pytest.raises(TreeError):
            make_spider([2, 0])

    def test_spider_degree_shape(self):
        rt = make_spider([3, 2, 2])
        deg = degrees(rt.tree)
        assert deg[rt.root] == 3
        assert all(d <= 2 for v, d in enumerate(deg) if v != rt.root)


class TestGeneration:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_counts_match_known_sequence(self, n):
        assert sum(1 for _ in generate_free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sequences_are_bytes_in_strictly_decreasing_order(self, n):
        # the walk steps through level sequences in decreasing order and
        # keeps one per class, so the stream has no repeat and no step back
        seqs = list(free_level_sequences(n))
        assert all(type(s) is bytes and len(s) == n for s in seqs)
        assert all(a > b for a, b in zip(seqs, seqs[1:]))
        assert len(seqs) == FREE_TREE_COUNTS[n - 1]

    def test_default_cap_is_the_last_known_count(self):
        assert DEFAULT_MAX_N == len(FREE_TREE_COUNTS) == 22

    @pytest.mark.parametrize("n", range(2, 13))
    def test_same_trees_in_same_order_as_networkx(self, n):
        nx = pytest.importorskip("networkx")
        want = [
            tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
            for g in nx.nonisomorphic_trees(n)
        ]
        assert [t.edges for t in generate_free_trees(n)] == want

    def test_edges_are_sorted_parent_child_pairs_of_the_level_sequence(self):
        for levels, t in zip(free_level_sequences(9), generate_free_trees(9)):
            assert levels[0] == 0 and list(t.edges) == sorted(t.edges)
            for parent, child in t.edges:
                assert parent < child and levels[child] == levels[parent] + 1

    @pytest.mark.parametrize("n", [4, 7])
    def test_classes_match_prufer_oracle(self, n):
        generated = {canonical_form(t) for t in generate_free_trees(n)}
        assert generated == free_tree_classes_by_prufer(n)

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 10):
            forms = [canonical_form(t) for t in generate_free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_canonical_form_of_deep_path(self):
        path = make_path(3000).tree
        perm = list(range(path.n))
        random.Random(3).shuffle(perm)
        relabeled = Tree(path.n, tuple((perm[u], perm[v]) for u, v in path.edges))
        forms = {canonical_form(path), canonical_form(relabeled)}
        assert len(forms) == 1
        assert canonical_form(make_spider([1500, 1499, 1]).tree) not in forms

    def test_n_1(self):
        trees = list(generate_free_trees(1))
        assert len(trees) == 1 and trees[0].n == 1

    def test_out_of_range(self):
        with pytest.raises(TreeError):
            list(generate_free_trees(0))
        with pytest.raises(TreeError):
            list(generate_free_trees(99))

    def test_sequences_check_n_before_the_first_is_asked_for(self):
        with pytest.raises(TreeError, match=r"n must be in \[1, 22\], got 0"):
            free_level_sequences(0)


class TestClassIds:
    def test_isomorphic_subtrees_share_an_id(self):
        # spider legs 2, 2, 1 rooted at the branch vertex: the two long legs
        # match, each a top with one leaf below it, and the short leg is a leaf
        assert branch_keys(make_spider([2, 2, 1])) == [b"\x02", b"\x02", b""]

    @staticmethod
    def assert_keys_agree(edges, other_edges, perm):
        """Two edge lists of one tree, vertex v of the first being perm[v] of the
        second, give the same branch keys at every root."""
        n = len(edges) + 1
        a, b = Tree(n, tuple(edges)), Tree(n, tuple(other_edges))
        for root in range(n):
            assert branch_keys(reroot(b, perm[root])) == branch_keys(reroot(a, root))

    @given(labeled_trees(), st.data())
    @settings(max_examples=50)
    def test_keys_agree_across_trees_and_relabelings(self, t, data):
        perm = data.draw(st.permutations(range(t.n)))
        relabeled = data.draw(st.permutations([(perm[u], perm[v]) for u, v in t.edges]))
        self.assert_keys_agree(t.edges, relabeled, perm)

    def test_keys_agree_when_branches_are_visited_in_another_order(self):
        # root 0 with a 3-vertex path branch 1-2-3 and a cherry branch 4-{5,6}:
        # listing the cherry first makes it the first branch visited, and
        # both lists give the path's key first, the canonical order
        path, cherry = [(0, 1), (1, 2), (2, 3)], [(0, 4), (4, 5), (4, 6)]
        self.assert_keys_agree(path + cherry, cherry + path, range(7))
        assert branch_keys(reroot(Tree(7, tuple(cherry + path)), 0)) == [b"\x02\x03", b"\x02\x02"]

    def test_ids_do_not_depend_on_other_rootings(self):
        # a rooting's keys are its own, so they are the same before and
        # after other trees are rooted
        want = branch_keys(reroot(make_star(3).tree, 1))
        for t in generate_free_trees(7):
            for r in range(t.n):
                branch_keys(reroot(t, r))
        assert branch_keys(reroot(make_star(3).tree, 1)) == want == [b"\x02\x02"]


class TestLevelTree:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_agrees_with_the_validated_tree(self, n):
        for levels, t in zip(free_level_sequences(n), generate_free_trees(n)):
            rt = level_tree(levels)
            assert rt.root == 0 and rt.tree == t
            assert rt.children == reroot(t, 0).children
            assert branch_keys(rt) == branch_keys(reroot(t, 0))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_branch_keys_are_the_keys_split_reads(self, n):
        # RootBranches.split keys a root's branches by the bytes between the
        # depth-1 entries of the level sequence
        for levels in free_level_sequences(n):
            assert branch_keys(level_tree(levels)) == levels.split(b"\x01")[1:]

    @pytest.mark.parametrize(
        "levels", [[], [1], [0, 0], [0, 2], [0, 1, 3], [0, 1, 2, 1, 3], [0, 1, -1]]
    )
    def test_malformed_sequence_rejected(self, levels):
        with pytest.raises(TreeError):
            level_tree(levels)


class TestRooting:
    def test_reroot_out_of_range(self):
        with pytest.raises(TreeError):
            reroot(make_path(2).tree, 5)

    @given(labeled_trees(), st.data())
    @settings(max_examples=50)
    def test_every_nonroot_has_one_parent(self, t, data):
        root = data.draw(st.integers(0, t.n - 1))
        rt = reroot(t, root)
        parents = {}
        for v, kids in enumerate(rt.children):
            for c in kids:
                assert c not in parents
                parents[c] = v
        assert set(parents) == set(range(t.n)) - {root}

    @given(labeled_trees())
    def test_postorder_children_first(self, t):
        rt = reroot(t, 0)
        pos = {v: i for i, v in enumerate(rt.postorder())}
        for v, kids in enumerate(rt.children):
            for c in kids:
                assert pos[c] < pos[v]


class TestWalk:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_agrees_with_all_pairs_bfs_under_relabelling(self, n):
        # every free tree on n vertices, its vertices and edges shuffled
        rng = random.Random(n)
        for t in generate_free_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in t.edges]
            rng.shuffle(edges)
            relabeled = Tree(n, tuple(edges))
            dist = oracle_distances(n, relabeled.edges)
            assert [[relabeled.distance(u, v) for v in range(n)] for u in range(n)] == dist
            ecc = [max(row) for row in dist]
            assert relabeled.diameter() == max(ecc)
            assert centres(relabeled) == {v for v in range(n) if ecc[v] == min(ecc)}
            assert canonical_form(relabeled) == canonical_form(t)


class TestShapePredicates:
    def test_paths_and_stars_are_spiders(self):
        assert oracle_is_spider(make_path(5).tree)
        assert oracle_is_spider(make_star(4).tree)

    def test_double_broom_is_not_spider(self):
        t = parse_tree("0 1\n1 2\n2 3\n0 4\n0 5\n3 6\n3 7")
        assert not oracle_is_spider(t)

    def test_diameter(self):
        assert make_path(6).tree.diameter() == 6
        assert make_star(5).tree.diameter() == 2
        assert make_spider([2, 3]).tree.diameter() == 5
