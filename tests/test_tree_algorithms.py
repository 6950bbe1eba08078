"""Tests for the sequential reference algorithms: traversals, Euler tours,
treefix sums, LCA, heavy-light decomposition (papers §II-C, §V, §VI)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import brute_lca, brute_path_sum, brute_subtree_sum

from repro.trees import (
    BinaryLiftingLCA,
    bottom_up_treefix,
    dfs_postorder,
    dfs_preorder,
    euler_tour,
    first_last_occurrence,
    heavy_children,
    heavy_light_decomposition,
    offline_tarjan_lca,
    path_tree,
    position_of,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
    subtree_sizes_from_tour,
    top_down_treefix,
)


class TestTraversal:
    def test_preorder_parent_before_child(self, zoo_tree):
        order = dfs_preorder(zoo_tree)
        pos = position_of(order)
        for v in range(zoo_tree.n):
            p = zoo_tree.parents[v]
            if p >= 0:
                assert pos[p] < pos[v]

    def test_preorder_subtrees_contiguous(self, zoo_tree):
        order = dfs_preorder(zoo_tree)
        pos = position_of(order)
        sizes = zoo_tree.subtree_sizes()
        for v in range(zoo_tree.n):
            block = pos[v] + np.arange(sizes[v])
            members = order[block]
            assert all(zoo_tree.is_ancestor(v, int(u)) for u in members[:10])

    def test_postorder_children_before_parent(self, zoo_tree):
        order = dfs_postorder(zoo_tree)
        pos = position_of(order)
        for v in range(zoo_tree.n):
            p = zoo_tree.parents[v]
            if p >= 0:
                assert pos[v] < pos[p]

    def test_child_key_reorders(self):
        t = star_tree(5)
        key = np.array([0, 3, 1, 4, 2])
        order = dfs_preorder(t, child_key=key)
        assert list(order) == [0, 2, 4, 1, 3]

    def test_position_of_inverts(self, zoo_tree):
        order = dfs_preorder(zoo_tree)
        pos = position_of(order)
        assert np.array_equal(order[pos], np.arange(zoo_tree.n))


class TestEulerTour:
    def test_length_and_endpoints(self, zoo_tree):
        tour = euler_tour(zoo_tree)
        assert len(tour) == 2 * zoo_tree.n - 1
        assert tour[0] == zoo_tree.root
        assert tour[-1] == zoo_tree.root

    def test_consecutive_visits_are_tree_edges(self, zoo_tree):
        tour = euler_tour(zoo_tree)
        for a, b in zip(tour[:-1], tour[1:]):
            assert zoo_tree.parents[b] == a or zoo_tree.parents[a] == b

    def test_each_vertex_appears_child_count_plus_one_times(self, zoo_tree):
        # exact law: entered once from above (or at the start, for the
        # root), and revisited once after each child's subtree
        tour = euler_tour(zoo_tree)
        counts = np.bincount(tour, minlength=zoo_tree.n)
        assert np.array_equal(counts, zoo_tree.num_children() + 1)

    def test_subtree_sizes_from_tour(self, zoo_tree):
        tour = euler_tour(zoo_tree)
        assert np.array_equal(
            subtree_sizes_from_tour(tour, zoo_tree.n), zoo_tree.subtree_sizes()
        )

    def test_first_last_occurrence(self):
        t = path_tree(3)
        tour = euler_tour(t)  # 0 1 2 1 0
        first, last = first_last_occurrence(tour, 3)
        assert list(first) == [0, 1, 2]
        assert list(last) == [4, 3, 2]


class TestTreefixReferences:
    def test_bottom_up_matches_brute_force(self, zoo_tree, rng):
        vals = rng.integers(-20, 20, size=zoo_tree.n)
        assert np.array_equal(
            bottom_up_treefix(zoo_tree, vals), brute_subtree_sum(zoo_tree, vals)
        )

    def test_top_down_matches_brute_force(self, zoo_tree, rng):
        vals = rng.integers(-20, 20, size=zoo_tree.n)
        assert np.array_equal(
            top_down_treefix(zoo_tree, vals), brute_path_sum(zoo_tree, vals)
        )

    def test_bottom_up_max_operator(self, rng):
        t = random_attachment_tree(120, seed=7)
        vals = rng.integers(-100, 100, size=120)
        got = bottom_up_treefix(t, vals, op=np.maximum)
        for v in (0, 3, 50):
            desc = [u for u in range(120) if t.is_ancestor(v, u)]
            assert got[v] == vals[desc].max()

    def test_value_length_checked(self):
        t = path_tree(3)
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            bottom_up_treefix(t, np.zeros(4))

    def test_subtree_size_via_ones(self, zoo_tree):
        ones = np.ones(zoo_tree.n, dtype=np.int64)
        assert np.array_equal(
            bottom_up_treefix(zoo_tree, ones), zoo_tree.subtree_sizes()
        )

    def test_depth_via_top_down_ones(self, zoo_tree):
        ones = np.ones(zoo_tree.n, dtype=np.int64)
        assert np.array_equal(
            top_down_treefix(zoo_tree, ones), zoo_tree.depths() + 1
        )


class TestLCAReferences:
    def test_binary_lifting_vs_brute(self, zoo_tree, rng):
        oracle = BinaryLiftingLCA(zoo_tree)
        for _ in range(30):
            u, v = rng.integers(0, zoo_tree.n, size=2)
            assert oracle.query(int(u), int(v)) == brute_lca(zoo_tree, int(u), int(v))

    def test_tarjan_vs_binary_lifting(self, zoo_tree, rng):
        oracle = BinaryLiftingLCA(zoo_tree)
        qs = rng.integers(0, zoo_tree.n, size=(50, 2))
        expect = oracle.query_batch(qs[:, 0], qs[:, 1])
        got = offline_tarjan_lca(zoo_tree, qs)
        assert np.array_equal(got, expect)
        # any iterable of pairs, self-queries and repeats included
        pairs = [(int(u), int(v)) for u, v in qs] + [(3 % zoo_tree.n,) * 2] * 2
        got = offline_tarjan_lca(zoo_tree, iter(pairs))
        assert np.array_equal(got[:50], expect) and list(got[50:]) == [3 % zoo_tree.n] * 2

    def test_lca_identities(self, zoo_tree):
        oracle = BinaryLiftingLCA(zoo_tree)
        r = zoo_tree.root
        assert oracle.query(r, r) == r
        v = zoo_tree.n - 1
        assert oracle.query(v, v) == v
        assert oracle.query(r, v) == r

    def test_tarjan_empty_batch(self, zoo_tree):
        assert len(offline_tarjan_lca(zoo_tree, [])) == 0

    def test_query_range_checked(self):
        t = path_tree(4)
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            BinaryLiftingLCA(t).query(0, 9)


class TestHeavyLight:
    def test_heavy_child_is_largest(self, zoo_tree):
        heavy = heavy_children(zoo_tree)
        sizes = zoo_tree.subtree_sizes()
        for v in range(zoo_tree.n):
            kids = zoo_tree.children(v)
            if len(kids) == 0:
                assert heavy[v] == -1
            else:
                assert sizes[heavy[v]] == sizes[kids].max()

    def test_layer_count_logarithmic(self, zoo_tree):
        hl = heavy_light_decomposition(zoo_tree)
        assert hl.num_layers <= int(np.ceil(np.log2(max(2, zoo_tree.n)))) + 1

    def test_paths_partition_vertices(self, zoo_tree):
        hl = heavy_light_decomposition(zoo_tree)
        seen = np.concatenate(hl.paths())
        assert np.array_equal(np.sort(seen), np.arange(zoo_tree.n))

    def test_paths_follow_heavy_edges(self, zoo_tree):
        hl = heavy_light_decomposition(zoo_tree)
        for path in hl.paths():
            for a, b in zip(path[:-1], path[1:]):
                assert hl.heavy[a] == b

    def test_layers_increase_on_light_edges(self, zoo_tree):
        hl = heavy_light_decomposition(zoo_tree)
        for v in range(zoo_tree.n):
            p = zoo_tree.parents[v]
            if p < 0:
                continue
            if hl.heavy[p] == v:
                assert hl.layer[v] == hl.layer[p]
            else:
                assert hl.layer[v] == hl.layer[p] + 1

    def test_path_tree_single_layer(self):
        hl = heavy_light_decomposition(path_tree(40))
        assert hl.num_layers == 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=120), seed=st.integers(0, 1000))
def test_property_treefix_sum_of_root_is_total(n, seed):
    t = prufer_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 50, size=n)
    sums = bottom_up_treefix(t, vals)
    assert sums[t.root] == vals.sum()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=100), seed=st.integers(0, 1000))
def test_property_lca_depth_bound(n, seed):
    """depth(LCA(u,v)) <= min(depth(u), depth(v)) and LCA is an ancestor."""
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    oracle = BinaryLiftingLCA(t)
    depths = t.depths()
    for _ in range(10):
        u, v = rng.integers(0, n, size=2)
        w = oracle.query(int(u), int(v))
        assert depths[w] <= min(depths[u], depths[v])
        assert t.is_ancestor(w, int(u)) and t.is_ancestor(w, int(v))
