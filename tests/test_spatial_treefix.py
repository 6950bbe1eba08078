"""Tests for the §V contraction-based treefix sums: correctness against the
sequential references on every zoo shape, both directions, both messaging
modes, alternative operators, cost envelopes, and memory discipline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.spatial import SpatialTree
from repro.spatial.treefix import top_down_treefix, treefix_sum
from repro.trees import (
    bottom_up_treefix as ref_bottom_up,
    path_tree,
    prufer_random_tree,
    random_attachment_tree,
    random_binary_tree,
    star_tree,
    top_down_treefix as ref_top_down,
)


@pytest.mark.parametrize("mode", ["direct", "virtual"])
class TestCorrectness:
    def test_bottom_up_zoo(self, zoo_tree, rng, mode):
        vals = rng.integers(-100, 100, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = treefix_sum(st_, vals, seed=1)
        assert np.array_equal(got, ref_bottom_up(zoo_tree, vals))

    def test_top_down_zoo(self, zoo_tree, rng, mode):
        vals = rng.integers(-100, 100, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = top_down_treefix(st_, vals, seed=1)
        assert np.array_equal(got, ref_top_down(zoo_tree, vals))

    def test_different_seeds_same_answer(self, mode):
        """Las Vegas: randomness affects cost, never the result."""
        t = prufer_random_tree(200, seed=5)
        vals = np.arange(200)
        results = [
            treefix_sum(SpatialTree.build(t, mode=mode), vals, seed=s)
            for s in (1, 2, 3)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])


class TestOperators:
    def test_max(self, rng):
        t = random_attachment_tree(150, seed=2)
        vals = rng.integers(-1000, 1000, size=150)
        st_ = SpatialTree.build(t)
        lo = np.int64(np.iinfo(np.int64).min)
        got = treefix_sum(st_, vals, op=np.maximum, identity=lo, seed=4)
        assert np.array_equal(got, ref_bottom_up(t, vals, op=np.maximum))

    def test_min_top_down(self, rng):
        t = random_attachment_tree(150, seed=3)
        vals = rng.integers(-1000, 1000, size=150)
        st_ = SpatialTree.build(t)
        hi = np.int64(np.iinfo(np.int64).max)
        got = top_down_treefix(st_, vals, op=np.minimum, identity=hi, seed=4)
        assert np.array_equal(got, ref_top_down(t, vals, op=np.minimum))

    def test_bitwise_or(self, rng):
        t = random_binary_tree(100, seed=4)
        vals = rng.integers(0, 2**20, size=100)
        st_ = SpatialTree.build(t)
        got = treefix_sum(st_, vals, op=np.bitwise_or, identity=0, seed=5)
        assert np.array_equal(got, ref_bottom_up(t, vals, op=np.bitwise_or))

    def test_float_values_sum(self, rng):
        t = random_attachment_tree(200, seed=21)
        vals = rng.random(200) * 10 - 5
        st_ = SpatialTree.build(t)
        got = treefix_sum(st_, vals, identity=0.0, seed=22)
        # float accumulation order differs between spatial and sequential
        assert np.allclose(got, ref_bottom_up(t, vals))
        assert got.dtype == np.float64

    def test_float_values_max_and_top_down(self, rng):
        t = random_attachment_tree(150, seed=23)
        vals = rng.random(150)
        got = treefix_sum(
            SpatialTree.build(t), vals, op=np.maximum, identity=-np.inf, seed=24
        )
        assert np.allclose(got, ref_bottom_up(t, vals, op=np.maximum))
        td = top_down_treefix(SpatialTree.build(t), vals, identity=0.0, seed=25)
        assert np.allclose(td, ref_top_down(t, vals))

    def test_unsupported_dtype_rejected(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError, match="values"):
            treefix_sum(st_, np.zeros(4, dtype=complex))

    def test_subtree_sizes_via_ones(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        got = treefix_sum(st_, np.ones(zoo_tree.n, dtype=np.int64), seed=6)
        assert np.array_equal(got, zoo_tree.subtree_sizes())

    def test_depths_via_top_down_ones(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        got = top_down_treefix(st_, np.ones(zoo_tree.n, dtype=np.int64), seed=6)
        assert np.array_equal(got, zoo_tree.depths() + 1)


class TestCosts:
    def test_energy_n_log_n_envelope(self):
        """Lemma 11/12: energy / (n log n) stays bounded across sizes."""
        per = []
        for n in (1024, 8192):
            t = prufer_random_tree(n, seed=7)
            st_ = SpatialTree.build(t, mode="virtual")
            treefix_sum(st_, np.ones(n, dtype=np.int64), seed=8)
            per.append(st_.machine.energy / (n * np.log2(n)))
        assert per[1] <= per[0] * 1.5

    def test_depth_polylog_unbounded(self):
        n = 8192
        t = prufer_random_tree(n, seed=9)
        st_ = SpatialTree.build(t, mode="virtual")
        treefix_sum(st_, np.ones(n, dtype=np.int64), seed=10)
        assert st_.machine.depth <= 10 * np.log2(n) ** 2

    def test_depth_near_log_bounded_degree(self):
        n = 8192
        t = random_binary_tree(n, seed=11)
        st_ = SpatialTree.build(t, mode="direct")
        treefix_sum(st_, np.ones(n, dtype=np.int64), seed=12)
        # Lemma 11: O(log n) — generous constant for random-mate rounds
        assert st_.machine.depth <= 40 * np.log2(n)

    def test_memory_budget_respected(self):
        """The contraction state must fit the constant register budget."""
        t = prufer_random_tree(300, seed=13)
        st_ = SpatialTree.build(t)
        treefix_sum(st_, np.ones(300, dtype=np.int64), seed=14)
        assert st_.machine.registers.peak <= st_.machine.registers.budget
        assert st_.machine.registers.live == 0  # all registers released

    def test_registers_released_on_error(self):
        t = path_tree(5)
        st_ = SpatialTree.build(t)
        with pytest.raises(ValidationError):
            treefix_sum(st_, np.ones(6, dtype=np.int64))
        # a second run must not collide with leaked registers
        treefix_sum(st_, np.ones(5, dtype=np.int64), seed=1)

    def test_phase_attribution(self):
        t = random_attachment_tree(100, seed=15)
        st_ = SpatialTree.build(t)
        treefix_sum(st_, np.ones(100, dtype=np.int64), seed=16)
        phases = st_.machine.ledger.summary()
        assert "treefix_bottom_up_contract" in phases
        assert "treefix_bottom_up_expand" in phases
        assert phases["treefix_bottom_up_contract"]["energy"] > 0


class TestEdgeCases:
    def test_single_vertex(self):
        st_ = SpatialTree.build(path_tree(1))
        assert treefix_sum(st_, np.array([42]), seed=0)[0] == 42
        st2 = SpatialTree.build(path_tree(1))
        assert top_down_treefix(st2, np.array([42]), seed=0)[0] == 42

    def test_two_vertices(self):
        st_ = SpatialTree.build(path_tree(2))
        got = treefix_sum(st_, np.array([10, 5]), seed=0)
        assert list(got) == [15, 5]

    def test_pure_path_compress_only(self):
        n = 257
        st_ = SpatialTree.build(path_tree(n))
        got = treefix_sum(st_, np.ones(n, dtype=np.int64), seed=3)
        assert np.array_equal(got, np.arange(n, 0, -1))

    def test_pure_star_rake_only(self):
        n = 257
        st_ = SpatialTree.build(star_tree(n), mode="virtual")
        vals = np.arange(n)
        got = treefix_sum(st_, vals, seed=3)
        assert got[0] == vals.sum()
        assert np.array_equal(got[1:], vals[1:])

    def test_values_shape_checked(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError):
            treefix_sum(st_, np.zeros(5))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=120), seed=st.integers(0, 400))
def test_property_spatial_matches_reference(n, seed):
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 50, size=n)
    st_ = SpatialTree.build(t)
    assert np.array_equal(treefix_sum(st_, vals, seed=seed), ref_bottom_up(t, vals))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=100), seed=st.integers(0, 400))
def test_property_top_down_plus_bottom_up_identity(n, seed):
    """sum(root path) + sum(subtree) - val(v) = sum over (ancestors ∪
    descendants) — a cross-check tying the two directions together."""
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    vals = rng.integers(-20, 20, size=n)
    bu = treefix_sum(SpatialTree.build(t), vals, seed=seed)
    td = top_down_treefix(SpatialTree.build(t), vals, seed=seed)
    combined = bu + td - vals
    # verify on a few vertices against brute force
    check = np.random.default_rng(seed + 2).integers(0, n, size=min(5, n))
    for v in check:
        manual = sum(
            vals[u]
            for u in range(n)
            if t.is_ancestor(int(v), u) or t.is_ancestor(u, int(v))
        )
        assert combined[v] == manual


class TestInt64Overflow:
    """Integer sums that could wrap int64 are a typed error (§V assumes
    exact arithmetic), never a silently wrong answer."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("fn", [treefix_sum, top_down_treefix])
    def test_binary_tree_of_huge_values_rejected(self, engine, fn):
        t = random_binary_tree(64, seed=3)
        st_ = SpatialTree.build(t, engine=engine)
        with pytest.raises(ValidationError, match="overflow"):
            fn(st_, np.full(64, 2**62, dtype=np.int64), seed=1)
        assert st_.machine.energy == 0  # rejected before any message

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_bound_is_exact(self, engine):
        n = 8
        t = path_tree(n)
        peak = (2**63 - 1) // n  # n * peak < 2**63: the root's sum fits
        got = treefix_sum(SpatialTree.build(t, engine=engine), np.full(n, peak), seed=2)
        assert int(got[0]) == n * peak
        with pytest.raises(ValidationError):
            treefix_sum(SpatialTree.build(t, engine=engine), np.full(n, peak + 1), seed=2)

    def test_int64_min_does_not_wrap_the_bound(self):
        vals = np.zeros(4, dtype=np.int64)
        vals[2] = np.iinfo(np.int64).min
        with pytest.raises(ValidationError):
            treefix_sum(SpatialTree.build(path_tree(4)), vals, seed=0)

    def test_other_ops_unchecked(self):
        vals = np.full(16, 2**62, dtype=np.int64)
        got = treefix_sum(SpatialTree.build(path_tree(16)), vals, op=np.maximum, seed=0)
        assert (got == 2**62).all()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(0, 2**16),
    bits=st.integers(min_value=54, max_value=63),
    pin_min=st.booleans(),
    top_down=st.booleans(),
)
def test_property_extreme_magnitudes(n, seed, bits, pin_min, top_down):
    """Exact sums while n * max|v| < 2**63, ValidationError otherwise, on
    both engines."""
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=n, dtype=np.int64, endpoint=True) >> (63 - bits)
    if pin_min:
        vals[rng.integers(n)] = np.iinfo(np.int64).min
    ref, fn = (ref_top_down, top_down_treefix) if top_down else (ref_bottom_up, treefix_sum)
    exact = ref(t, vals.astype(object))
    fits = n * max(abs(int(v)) for v in vals) < 2**63
    for engine in ("scalar", "batched"):
        st_ = SpatialTree.build(t, engine=engine)
        if fits:
            got = fn(st_, vals, seed=seed)
            assert [int(x) for x in got] == [int(x) for x in exact]
        else:
            with pytest.raises(ValidationError):
                fn(st_, vals, seed=seed)
