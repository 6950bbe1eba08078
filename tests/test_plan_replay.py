"""Replay-equivalence battery for the whole-workload plan compiler.

The property under test: for every workload × curve × tree-shape × seed,
``record`` (live batched run) → persist → reload into a fresh machine →
``replay`` (straight-line ``send_plan``) produces *bit-identical* results
and identical energy / depth / messages / steps to a fresh scalar-engine
run of the same seed-derived instance. ``replay(..., verify=True)`` runs
that scalar oracle internally and raises
:class:`~repro.errors.PlanDivergenceError` on any disagreement, so every
case here exercises the full differential chain.

Speculative workloads (random-mate list ranking, standalone and embedded
twice in layout creation) additionally validate every recorded RNG epoch
against a redrawn coin trace; the divergence-injection tests check the
fallback path re-records and converges.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MachineStateError, PlanKeyError, PlanSpeculationError
from repro.machine import KernelWallProfiler, StepLog
from repro.machine.machine import SpatialMachine
from repro.plans import (
    WORKLOADS,
    EpochOp,
    PlanRefOp,
    PlanStore,
    StepOp,
    WorkloadPlanRecorder,
    execute_plan,
    get_workload,
    load_plan,
    record,
    replay,
)
from repro.telemetry import DivergenceWatchdog, SpanTracer

CURVES = ("hilbert", "zorder", "rowmajor", "boustrophedon")
TREE_SHAPES = ("path", "star", "caterpillar", "binary", "random", "prufer", "decision")

BATTERY_SETTINGS = settings(
    max_examples=35,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def roundtrip(workload, shape, n, seed, curve, tmp_path, *, strict_replay=False):
    """record → persist → reload fresh → replay → scalar-oracle verify."""
    store = PlanStore(tmp_path / "plans", capacity=4)
    res = record(workload, n=n, seed=seed, shape=shape, curve=curve, store=store)
    # decode the on-disk artifact from scratch: nothing of the recording
    # machine survives into the replay
    loaded = load_plan(res.path, expected_key=res.plan.key)
    rep = replay(loaded, verify=True, strict=strict_replay)
    assert not rep.fallback
    assert rep.verified
    assert rep.totals == res.plan.totals
    assert sorted(rep.results) == sorted(res.results)
    for name in res.results:
        np.testing.assert_array_equal(rep.results[name], res.results[name])
    return res, rep


# --------------------------------------------------------------------------- #
# the hypothesis battery: 6 workloads × 35 generated cases = 210 differential
# record/replay/oracle chains across curves, shapes, sizes and seeds
# --------------------------------------------------------------------------- #


tree_case = st.tuples(
    st.sampled_from(TREE_SHAPES),
    st.sampled_from(CURVES),
    st.integers(min_value=6, max_value=40),
    st.integers(min_value=0, max_value=2**20),
)


@BATTERY_SETTINGS
@given(case=tree_case)
def test_battery_treefix(case, tmp_path):
    shape, curve, n, seed = case
    roundtrip("treefix", shape, n, seed, curve, tmp_path)


@BATTERY_SETTINGS
@given(case=tree_case)
def test_battery_treefix_top_down(case, tmp_path):
    shape, curve, n, seed = case
    roundtrip("treefix_top_down", shape, n, seed, curve, tmp_path)


@BATTERY_SETTINGS
@given(case=tree_case)
def test_battery_layout_creation(case, tmp_path):
    shape, curve, n, seed = case
    res, _ = roundtrip("layout_creation", shape, n, seed, curve, tmp_path)
    # the pipeline embeds list ranking twice → speculative phases recorded,
    # and the two passes get distinct epoch-oracle contexts
    assert "list_rank_contract" in res.plan.speculative
    contexts = {op.context for op in res.plan.ops if isinstance(op, EpochOp)}
    assert contexts <= {"euler_tour_1", "euler_tour_2"}


@BATTERY_SETTINGS
@given(case=tree_case)
def test_battery_lca(case, tmp_path):
    shape, curve, n, seed = case
    roundtrip("lca", shape, n, seed, curve, tmp_path)


@BATTERY_SETTINGS
@given(
    shape=st.sampled_from(("uniform", "sorted", "reverse")),
    curve=st.sampled_from(CURVES),
    n=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_battery_sort(shape, curve, n, seed, tmp_path):
    roundtrip("sort", shape, n, seed, curve, tmp_path)


@BATTERY_SETTINGS
@given(
    curve=st.sampled_from(CURVES),
    n=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_battery_list_rank(curve, n, seed, tmp_path):
    res, _ = roundtrip("list_rank", "chain", n, seed, curve, tmp_path)
    assert res.plan.epoch_count > 0
    assert res.plan.speculative == (
        "list_rank_base", "list_rank_contract", "list_rank_expand",
    )


# --------------------------------------------------------------------------- #
# engines, sanitizers, and the recording engine itself
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("workload,shape", [
    ("treefix", "prufer"),
    ("treefix_top_down", "caterpillar"),
    ("lca", "binary"),
    ("list_rank", "chain"),
    ("sort", "uniform"),
])
def test_replay_under_strict_sanitizers(workload, shape, tmp_path):
    """Replays run clean under the write-race + determinism sanitizers."""
    roundtrip(workload, shape, 32, 5, "hilbert", tmp_path, strict_replay=True)


def test_strict_replay_is_payload_free():
    """layout_creation's compact phase is (known, pre-existing) not
    crew-clean *with payloads*: a strict live run raises. Replay re-issues
    the same message sets payload-free — accounting-identical, but with no
    values for the write-race sanitizer to flag — so a strict replay of
    the same plan completes with the recorded totals. This pins the
    documented asymmetry (plans replay accounting, not payload traffic)."""
    from repro.errors import SanitizerError

    with pytest.raises(SanitizerError):
        record("layout_creation", n=32, seed=5, shape="caterpillar", strict=True)
    res = record("layout_creation", n=32, seed=5, shape="caterpillar")
    m = SpatialMachine(res.plan.n, curve=res.plan.curve, side=res.plan.side,
                       engine="batched", strict=True)
    totals = execute_plan(res.plan, m)
    assert totals == res.plan.totals


@pytest.mark.parametrize("workload,shape", [
    ("treefix", "random"),
    ("lca", "binary"),
    ("list_rank", "chain"),
])
def test_scalar_recorded_plans_replay_identically(workload, shape, tmp_path):
    """Plans recorded on the scalar engine replay on the batched engine
    (and vice versa) with identical totals — accounting is engine-free."""
    store = PlanStore(tmp_path / "plans")
    res = record(workload, n=24, seed=11, shape=shape, engine="scalar", store=store)
    for engine in ("batched", "scalar"):
        rep = replay(res.plan, engine=engine, verify=True)
        assert rep.totals == res.plan.totals
        for name in res.results:
            np.testing.assert_array_equal(rep.results[name], res.results[name])


def test_replay_on_scalar_engine_machine(tmp_path):
    res = record("treefix", n=30, seed=2, shape="prufer")
    m = SpatialMachine(30, curve="hilbert", engine="scalar")
    totals = execute_plan(res.plan, m)
    assert totals == res.plan.totals


def test_replay_geometry_mismatch_rejected(tmp_path):
    res = record("sort", n=16, seed=1, shape="uniform")
    wrong = SpatialMachine(17, curve="hilbert", engine="batched")
    with pytest.raises(PlanKeyError):
        execute_plan(res.plan, wrong)
    wrong_curve = SpatialMachine(16, curve="zorder", engine="batched")
    with pytest.raises(PlanKeyError):
        execute_plan(res.plan, wrong_curve)


def test_recorder_is_exclusive_per_machine():
    m = SpatialMachine(4, engine="batched")
    with WorkloadPlanRecorder(m):
        with pytest.raises(MachineStateError):
            with WorkloadPlanRecorder(m):
                pass  # pragma: no cover
    assert m.plan_recorder is None  # detached even after the nested failure
    assert m.instruments == ()


def test_recorder_failure_yields_no_plan(tmp_path, monkeypatch):
    """The machine isolates a raising instrument, so a recorder hook that
    fails would leave a short op stream; ``build`` refuses it instead."""
    original = WorkloadPlanRecorder.on_step
    calls = {"n": 0}

    def flaky(self, event):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("recorder hook failed")
        original(self, event)

    monkeypatch.setattr(WorkloadPlanRecorder, "on_step", flaky)
    store = PlanStore(tmp_path / "plans")
    with pytest.warns(RuntimeWarning, match="WorkloadPlanRecorder.on_step"):
        with pytest.raises(MachineStateError, match="on_step"):
            record("treefix", n=64, seed=3, shape="prufer", store=store)
    assert calls["n"] > 3  # the run went on past the failed hook
    assert list((tmp_path / "plans").rglob("*.plan")) == []


def _record_ops(workload, engine, observers=()):
    spec = get_workload(workload)
    prep = spec.prepare(shape=spec.default_shape, n=256, seed=5, engine=engine)
    for obs in observers:
        prep.machine.attach(obs)
    with WorkloadPlanRecorder(prep.machine) as rec:
        prep.execute()
    assert not prep.machine.instrument_errors
    return rec.ops


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recording_is_independent_of_other_observers(workload, engine):
    """A plan is the same whether the recorder observes alone or next to
    the watchdog, a span tracer, a step log and the wall profiler."""
    alone = _record_ops(workload, engine)
    observed = _record_ops(workload, engine, observers=(
        DivergenceWatchdog(sample=1), SpanTracer(), StepLog(), KernelWallProfiler(),
    ))
    assert [type(op) for op in observed] == [type(op) for op in alone]
    assert any(isinstance(op, (StepOp, PlanRefOp)) for op in alone)
    for a, b in zip(alone, observed):
        if isinstance(a, StepOp):
            for name in ("src", "dst", "rounds", "dist"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert a.combiner == b.combiner
        else:  # phase, epoch and plan-reference ops compare by value
            assert a == b
    if workload == "sort" and engine == "batched":
        assert any(isinstance(op, PlanRefOp) for op in alone)


# --------------------------------------------------------------------------- #
# epoch-bounded speculation: injected divergence must trip the oracle and
# fall back to verified live execution
# --------------------------------------------------------------------------- #


def _tamper_first_epoch(plan):
    ops, done = [], False
    for op in plan.ops:
        if not done and isinstance(op, EpochOp):
            op = dataclasses.replace(op, digest="0" * 64)
            done = True
        ops.append(op)
    assert done, "plan has no epochs to tamper with"
    return dataclasses.replace(plan, ops=ops)


@pytest.mark.parametrize("workload,shape", [
    ("list_rank", "chain"),
    ("layout_creation", "prufer"),
])
def test_injected_coin_divergence_falls_back(workload, shape, tmp_path):
    store = PlanStore(tmp_path / "plans")
    res = record(workload, n=32, seed=9, shape=shape, store=store)
    bad = _tamper_first_epoch(res.plan)
    store.put(bad)  # overwrite the artifact with the diverging plan

    with pytest.raises(PlanSpeculationError):
        replay(bad, fallback=False)

    # fallback: live re-execution, verified against the scalar oracle,
    # and the store healed with a re-recorded plan
    rep = replay(res.plan.key, store=store, verify=True)
    assert rep.fallback and rep.verified
    assert rep.totals == res.plan.totals
    for name in res.results:
        np.testing.assert_array_equal(rep.results[name], res.results[name])

    again = replay(res.plan.key, store=store, verify=True)
    assert not again.fallback  # the healed artifact replays cleanly


def test_wrong_seed_epochs_diverge():
    """A plan replayed with a different seed in its epochs must not
    silently succeed — the oracle catches it."""
    res = record("list_rank", n=32, seed=9, shape="chain")
    lying = dataclasses.replace(res.plan, seed=10)
    with pytest.raises(PlanSpeculationError):
        replay(lying, fallback=False)


def test_replay_spans_emitted(tmp_path):
    """A SpanTracer attached to the replay machine sees a ``replay`` span
    wrapping the re-driven phase spans."""
    from repro.telemetry.spans import SpanTracer

    res = record("treefix", n=24, seed=4, shape="prufer")
    m = SpatialMachine(res.plan.n, curve=res.plan.curve, side=res.plan.side,
                       engine="batched")
    tracer = SpanTracer()
    m.attach(tracer)
    execute_plan(res.plan, m)
    tracer.close()
    spans = list(tracer.completed)
    kinds = {s.kind for s in spans}
    assert "replay" in kinds
    assert "phase" in kinds
    replay_spans = [s for s in spans if s.kind == "replay"]
    assert replay_spans[0].name == "replay:treefix"
