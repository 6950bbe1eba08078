"""Differential tests for the compiled clock kernel behind the batched engine.

:func:`~repro.machine.machine.advance_clocks_batch` must leave exactly the
clocks, round count and max clock that per-round
:func:`~repro.machine.machine.advance_clocks` (the numpy oracle) leaves —
from uneven starting clocks, across fan-in (the kernel's sort branch),
fan-out, processors that send and receive in one round, empty rounds and
read-only input views. Every case also runs with the kernel forced off
(``clock_kernel._kernel = None``), the path taken where no C compiler is
available.
"""

from __future__ import annotations

import contextlib
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineStateError
from repro.machine import clock_kernel
from repro.machine.machine import (
    ClockScratch,
    SpatialMachine,
    advance_clocks,
    advance_clocks_batch,
)
from repro.plans import record, replay

KERNELS = ["compiled", "fallback"]


@contextlib.contextmanager
def kernel_mode(mode):
    """Run with the compiled kernel, or with it forced off."""
    if mode == "fallback":
        with mock.patch.object(clock_kernel, "_kernel", None):
            yield
        return
    if clock_kernel.kernel() is None:
        pytest.skip("no C compiler: the compiled kernel cannot be built here")
    yield


def _round(kind, n, k, rng):
    if kind == "empty":
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if kind == "fan_in":  # one receiver, k > 16 chains to sort
        return rng.integers(0, n, 17 + k), np.full(17 + k, rng.integers(n))
    if kind == "fan_out":  # one sender, k serialized sends
        return np.full(k, rng.integers(n)), rng.integers(0, n, k)
    if kind == "exchange":  # every endpoint sends and receives
        a, b = rng.integers(0, n, k), rng.integers(0, n, k)
        return np.concatenate([a, b]), np.concatenate([b, a])
    return rng.integers(0, n, k), rng.integers(0, n, k)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(st.lists(
        st.sampled_from(["empty", "fan_in", "fan_out", "exchange", "random"]),
        max_size=8,
    ))
    rng = np.random.default_rng(seed)
    clock = rng.integers(0, 50, n) * rng.integers(0, 2, n)  # uneven, some zero
    rounds = [_round(kind, n, int(rng.integers(1, 40)), rng) for kind in kinds]
    return clock.astype(np.int64), rounds


def _frozen(parts):
    """Concatenate into a padded buffer and hand out a read-only interior
    view, as the plan store does."""
    flat = np.concatenate([np.zeros(3, np.int64), *parts, np.zeros(3, np.int64)])
    view = flat[3 : len(flat) - 3]
    view.setflags(write=False)
    return view


def _oracle(clock, rounds):
    rounds_run = top = 0
    for s, d in rounds:
        if len(s):
            rounds_run += 1
            top = max(top, advance_clocks(clock, s, d).max_clock)
    return rounds_run, top


@pytest.mark.parametrize("mode", KERNELS)
@settings(max_examples=150, deadline=None)
@given(case=batches())
def test_batch_matches_per_round_oracle(mode, case):
    clock0, rounds = case
    src = _frozen([s for s, _ in rounds])
    dst = _frozen([d for _, d in rounds])
    offsets = _frozen([np.cumsum([0] + [len(s) for s, _ in rounds])])
    want = clock0.copy()
    want_rounds, want_top = _oracle(want, rounds)
    got = clock0.copy()
    scratch = ClockScratch(len(clock0))
    with kernel_mode(mode):
        adv = advance_clocks_batch(got, src, dst, offsets, scratch)
    np.testing.assert_array_equal(got, want)
    assert (adv.rounds, adv.max_clock) == (want_rounds, want_top)
    # the scratch is left clean for the next call
    assert not scratch.count.any() and (scratch.head == -1).all()


@pytest.mark.parametrize("src,dst,offsets", [
    pytest.param([0, 4], [1, 2], [0, 2], id="id-past-n"),
    pytest.param([0, 1], [-1, 2], [0, 2], id="negative-id"),
    pytest.param([0, 1], [2, 3], [0, 3], id="offset-past-end"),
    pytest.param([0, 1], [2, 3], [0, 2, 1], id="offsets-decrease"),
])
def test_kernel_rejects_out_of_range_input(src, dst, offsets):
    # a trusted plan with bad ids or offsets must not write outside the
    # clock array: the kernel refuses the batch before touching any clock
    clock = np.arange(4, dtype=np.int64)
    with kernel_mode("compiled"), pytest.raises(MachineStateError, match="rejected"):
        advance_clocks_batch(
            clock, np.array(src), np.array(dst), np.array(offsets), ClockScratch(4)
        )
    np.testing.assert_array_equal(clock, np.arange(4))


@pytest.mark.parametrize("mode", KERNELS)
def test_machine_depth_matches_scalar_engine(mode):
    rng = np.random.default_rng(0)
    n, k = 64, 600
    src, dst = rng.integers(0, n, k), rng.integers(0, n, k)
    rounds = np.array([0, 0, 17, 200, 200, 450, k])
    machines = {}
    for engine in ("scalar", "batched"):
        m = machines[engine] = SpatialMachine(n, engine=engine)
        with kernel_mode(mode):
            m.send_batch(src, dst, rounds=rounds)
    a, b = machines["scalar"], machines["batched"]
    np.testing.assert_array_equal(a.clock, b.clock)
    assert (a.depth, a.energy, a.steps) == (b.depth, b.energy, b.steps)


def test_machines_on_threads_keep_their_own_scratch():
    # the compiled kernel runs without the GIL: machines advancing clocks
    # on concurrent threads must each get exactly the sequential result
    rng = np.random.default_rng(1)
    n, k = 1024, 100_000  # rounds long enough for kernel calls to overlap
    src, dst = rng.integers(0, n, k), rng.integers(0, n, k)
    rounds = np.linspace(0, k, 9).astype(np.int64)

    def run():
        m = SpatialMachine(n, engine="batched")
        for _ in range(10):
            m.send_batch(src, dst, rounds=rounds)
        return m.clock.copy(), m.depth

    want_clock, want_depth = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(run) for _ in range(12)]]
    finally:
        sys.setswitchinterval(interval)
    for clock, depth in results:
        np.testing.assert_array_equal(clock, want_clock)
        assert depth == want_depth


WORKLOAD_SHAPES = [
    ("treefix", "star"),
    ("treefix_top_down", "prufer"),
    ("layout_creation", "prufer"),
    ("lca", "star"),
    ("sort", "uniform"),
    ("list_rank", "chain"),
]


@pytest.mark.parametrize("workload,shape", WORKLOAD_SHAPES)
def test_workloads_replay_on_the_fallback(workload, shape):
    res = record(workload, n=96, seed=5, shape=shape)
    with kernel_mode("fallback"):
        for engine in ("scalar", "batched"):
            rep = replay(res.plan, engine=engine, fallback=False)
            assert rep.totals == res.plan.totals
            assert sorted(rep.results) == sorted(res.results)
            for name, want in res.results.items():
                np.testing.assert_array_equal(rep.results[name], want)
