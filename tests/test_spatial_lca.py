"""Tests for the §VI batched LCA: subtree cover structure, range
broadcasts (Lemma 13), full-algorithm correctness on every shape, and the
Theorem 6 cost envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.machine import SpatialMachine, allreduce
from repro.spatial import SpatialTree, build_cover, compute_ranges, lca_batch, prepare_lca
from repro.spatial.subtree_cover import range_broadcast, range_broadcast_rounds
from repro.trees import (
    BinaryLiftingLCA,
    heavy_light_decomposition,
    path_tree,
    perfect_kary_tree,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
)


class TestSpatialRanges:
    def test_ranges_match_layout(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        ranges = compute_ranges(st_, seed=1)
        lo, hi = st_.layout.subtree_range()
        assert np.array_equal(ranges.lo, lo)
        assert np.array_equal(ranges.hi, hi)

    def test_contains(self):
        t = path_tree(5)
        st_ = SpatialTree.build(t)
        r = compute_ranges(st_, seed=0)
        # vertex 0's subtree is everything
        assert r.contains(np.array([0]), np.array([4]))[0]
        assert not r.contains(np.array([4]), np.array([0]))[0]

    def test_rejects_non_preorder_layout(self):
        t = random_attachment_tree(40, seed=2)
        st_ = SpatialTree.build(t, order="bfs")
        with pytest.raises(ValidationError):
            compute_ranges(st_, seed=0)


class TestSpatialCover:
    def test_layers_match_sequential_decomposition(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        ranges = compute_ranges(st_, seed=3)
        cover = build_cover(st_, ranges, seed=3)
        hl = heavy_light_decomposition(zoo_tree)
        assert np.array_equal(cover.layer, hl.layer)
        assert cover.num_layers == hl.num_layers

    def test_heads_match_sequential(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        cover = build_cover(st_, compute_ranges(st_, seed=4), seed=4)
        hl = heavy_light_decomposition(zoo_tree)
        expected_heads = np.array(
            [hl.head[v] == v for v in range(zoo_tree.n)]
        )
        assert np.array_equal(cover.is_head, expected_heads)

    def test_num_layers_logarithmic(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        cover = build_cover(st_, compute_ranges(st_, seed=5), seed=5)
        assert cover.num_layers <= np.ceil(np.log2(max(2, zoo_tree.n))) + 1


def _levels(length: int) -> list[np.ndarray]:
    """One range's broadcast-tree rounds as ``(k, 2)`` edge arrays."""
    src, dst, offsets = range_broadcast_rounds(np.array([0]), np.array([length]))
    return [
        np.stack([src[a:b], dst[a:b]], axis=1)
        for a, b in zip(offsets[:-1], offsets[1:])
    ]


class TestRangeBroadcastTree:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 17, 100])
    def test_covers_every_index(self, length):
        levels = _levels(length)
        reached = {0}
        for edges in levels:
            for a, b in edges:
                assert int(a) in reached  # sender already has the value
                reached.add(int(b))
        assert reached == set(range(length))

    def test_depth_logarithmic(self):
        assert len(_levels(1024)) <= 11

    def test_edge_gaps_geometric(self):
        # each edge jumps at most the child interval size
        for edges in _levels(64):
            for a, b in edges:
                assert b - a <= 33

    def test_left_child_message_first(self):
        # the clock kernels charge a sender's second message one step later,
        # so the larger (left) half must be sent to first
        for edges in _levels(100):
            for (a, b), (c, d) in zip(edges[:-1], edges[1:]):
                if a == c:
                    assert b < d

    def test_matches_per_range_trees(self):
        # several ranges at once are the union of their trees, round by round
        starts, lengths = np.array([0, 10, 13, 40]), np.array([10, 3, 27, 1])
        src, dst, offsets = range_broadcast_rounds(starts, lengths)
        for r in range(len(offsets) - 1):
            got = set(zip(src[offsets[r]:offsets[r + 1]], dst[offsets[r]:offsets[r + 1]]))
            want = set()
            for s0, length in zip(starts, lengths):
                levels = _levels(int(length))
                if r < len(levels):
                    want |= {(int(a) + s0, int(b) + s0) for a, b in levels[r]}
            assert got == want

    def test_range_broadcast_costs(self):
        m = SpatialMachine(256)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([0]), np.array([256]))
        assert m.messages == 255
        assert m.energy <= 8 * 256  # O(length) energy (Lemma 13)
        assert m.depth <= 3 * np.log2(256)

    def test_disjoint_ranges_parallel(self):
        m = SpatialMachine(64)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([0, 32]), np.array([32, 32]))
        assert m.messages == 62
        assert m.depth <= 3 * np.log2(32)

    def test_empty_and_unit_ranges(self):
        m = SpatialMachine(8)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        range_broadcast(Fake(), np.array([3]), np.array([1]))
        assert m.messages == 0


class TestLCABatch:
    def test_matches_reference_zoo(self, zoo_tree, rng):
        oracle = BinaryLiftingLCA(zoo_tree)
        qs = rng.integers(0, zoo_tree.n, size=(60, 2))
        st_ = SpatialTree.build(zoo_tree)
        got = lca_batch(st_, qs[:, 0], qs[:, 1], seed=6)
        assert np.array_equal(got, oracle.query_batch(qs[:, 0], qs[:, 1]))

    def test_ancestor_descendant_queries(self):
        t = path_tree(30)
        st_ = SpatialTree.build(t)
        us = np.array([0, 5, 29, 7, 7])
        vs = np.array([29, 10, 0, 7, 3])
        got = lca_batch(st_, us, vs, seed=7)
        assert list(got) == [0, 5, 0, 7, 3]

    def test_sibling_queries_on_star(self):
        t = star_tree(50)
        st_ = SpatialTree.build(t)
        got = lca_batch(st_, np.array([1, 2, 0]), np.array([2, 49, 10]), seed=8)
        assert list(got) == [0, 0, 0]

    def test_empty_batch(self):
        st_ = SpatialTree.build(path_tree(4))
        got = lca_batch(st_, np.array([], dtype=np.int64), np.array([], dtype=np.int64), seed=0)
        assert len(got) == 0

    def test_query_validation(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError):
            lca_batch(st_, np.array([0]), np.array([4]))
        with pytest.raises(ValidationError):
            lca_batch(st_, np.array([0, 1]), np.array([2]))

    def test_cover_returned(self):
        t = perfect_kary_tree(4)
        st_ = SpatialTree.build(t)
        answers, cover = lca_batch(
            st_, np.array([7]), np.array([8]), seed=9, return_cover=True
        )
        assert cover.num_layers >= 1

    def test_energy_n_log_n_envelope(self):
        per = []
        for n in (1024, 8192):
            t = prufer_random_tree(n, seed=10)
            rng = np.random.default_rng(n)
            qs = np.stack([rng.permutation(n), rng.permutation(n)], axis=1)
            st_ = SpatialTree.build(t)
            lca_batch(st_, qs[:, 0], qs[:, 1], seed=11)
            per.append(st_.machine.energy / (n * np.log2(n)))
        assert per[1] <= per[0] * 1.6

    def test_depth_polylog(self):
        n = 8192
        t = prufer_random_tree(n, seed=12)
        st_ = SpatialTree.build(t)
        rng = np.random.default_rng(0)
        lca_batch(st_, rng.permutation(n), rng.permutation(n), seed=13)
        assert st_.machine.depth <= 16 * np.log2(n) ** 2


def _reference_layer_sweep(st_, cover, ranges):
    """The §VI-C layer sweep built independently of the compiled plans:
    each cover subtree's preorder broadcast tree by a per-range BFS, sent
    with ``send_batch``, and the barrier as a plain all-reduce."""
    m = st_.machine
    with m.phase("lca_layers"):
        for layer_i in range(cover.num_layers):
            heads = np.flatnonzero(
                cover.is_head & (cover.layer == layer_i) & (st_.tree.parents >= 0)
            )
            rounds: list[list[tuple[int, int]]] = []
            for h in heads:
                frontier = [(int(ranges.lo[h]), int(ranges.hi[h] - ranges.lo[h] + 1))]
                depth = 0
                while frontier:
                    nxt = []
                    for start, size in frontier:
                        left = size // 2
                        right = size - 1 - left
                        if left:
                            if len(rounds) <= depth:
                                rounds.append([])
                            rounds[depth].append((start, start + 1))
                            nxt.append((start + 1, left))
                        if right:
                            rounds[depth].append((start, start + 1 + left))
                            nxt.append((start + 1 + left, right))
                    frontier = nxt
                    depth += 1
            if rounds:
                edges = np.array([e for r in rounds for e in r], dtype=np.int64)
                offsets = np.cumsum([0] + [len(r) for r in rounds])
                m.send_batch(edges[:, 0], edges[:, 1], rounds=offsets)
            allreduce(m, np.zeros(m.n, dtype=np.int64))
            m.clock[:] = m.clock.max()


class TestCompiledSweep:
    """The compiled layer sweep against an independent reference, from
    uneven clocks: a treefix first leaves the processors' clocks apart, so
    the message order inside each round shows in depth and clocks."""

    @staticmethod
    def _uneven(tree, engine):
        st_ = SpatialTree.build(tree, engine=engine)
        st_.treefix_sum(np.arange(tree.n), seed=3)
        assert len(np.unique(st_.machine.clock)) > 1
        return st_

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("n,seed", [(300, 1), (517, 2), (1024, 3)])
    def test_matches_reference_from_uneven_clocks(self, engine, n, seed):
        tree = random_attachment_tree(n, seed=seed)
        rng = np.random.default_rng(seed)
        us, vs = rng.integers(0, n, size=200), rng.integers(0, n, size=200)
        machines, answers = {}, {}
        for how in ("cold", "prepared", "reference"):
            st_ = self._uneven(tree, engine)
            if how == "cold":
                answers[how] = lca_batch(st_, us, vs, seed=seed)
            elif how == "prepared":
                prepared = prepare_lca(st_, seed=seed)
                answers[how] = lca_batch(st_, us, vs, seed=seed, prepared=prepared)
            else:
                prepared = prepare_lca(st_, seed=seed)
                _reference_layer_sweep(st_, prepared.cover, prepared.ranges)
            machines[how] = st_.machine
        oracle = BinaryLiftingLCA(tree).query_batch(us, vs)
        assert np.array_equal(answers["cold"], oracle)
        assert np.array_equal(answers["prepared"], oracle)
        ref = machines["reference"]
        for how in ("cold", "prepared"):
            m = machines[how]
            assert m.snapshot() == ref.snapshot()
            assert m.steps == ref.steps
            assert np.array_equal(m.clock, ref.clock)
            assert m.ledger.summary() == ref.ledger.summary()

    def test_engines_agree_on_every_clock(self):
        tree = prufer_random_tree(700, seed=4)
        rng = np.random.default_rng(4)
        us, vs = rng.integers(0, 700, size=300), rng.integers(0, 700, size=300)
        runs = {}
        for engine in ("scalar", "batched"):
            st_ = self._uneven(tree, engine)
            prepared = prepare_lca(st_, seed=4)
            for _ in range(2):  # a second window replays the cached plans
                got = lca_batch(st_, us, vs, seed=4, prepared=prepared)
            runs[engine] = (got, st_.machine)
        (a_s, m_s), (a_b, m_b) = runs["scalar"], runs["batched"]
        assert np.array_equal(a_s, a_b)
        assert m_s.snapshot() == m_b.snapshot() and m_s.steps == m_b.steps
        assert np.array_equal(m_s.clock, m_b.clock)
        assert m_b.plan_cache.hits.get("barrier", 0) > 0

    def test_sweep_retains_little_memory(self):
        st_ = SpatialTree.build(random_attachment_tree(4096, seed=5), engine="batched")
        prepared = prepare_lca(st_, seed=5)
        assert len(prepared.layers) == prepared.cover.num_layers
        retained = sum(
            a.nbytes
            for s in prepared.layers
            for a in (s.heads, s.lo, s.hi, s.broadcast.src, s.broadcast.dst,
                      s.broadcast.rounds, s.broadcast.dist)
        )
        assert retained <= 1 << 20


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=150), seed=st.integers(0, 500))
def test_property_lca_batch_matches_brute(n, seed):
    from tests.conftest import brute_lca

    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    us = rng.integers(0, n, size=8)
    vs = rng.integers(0, n, size=8)
    st_ = SpatialTree.build(t)
    got = lca_batch(st_, us, vs, seed=seed)
    for g, u, v in zip(got, us, vs):
        assert g == brute_lca(t, int(u), int(v))
