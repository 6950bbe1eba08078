"""Tests for the machine's instrument protocol (observer subscription API)."""

import numpy as np
import pytest

from repro.machine import (
    CostLedger,
    Instrument,
    SpatialMachine,
    SpatialProfiler,
    StepLog,
    TracerInstrument,
    allreduce,
    attach_tracer,
    broadcast,
    exclusive_scan,
    reduce,
)
from repro.machine.tracing import CongestionTracer


class Collector(Instrument):
    """Records every hook invocation for assertions."""

    def __init__(self):
        self.events = []
        self.phases = []
        self.attached = 0
        self.detached = 0

    def on_attach(self, machine):
        self.attached += 1

    def on_detach(self, machine):
        self.detached += 1

    def on_step(self, event):
        self.events.append(event)

    def on_phase_enter(self, name, depth):
        self.phases.append(("enter", name, depth))

    def on_phase_exit(self, name, depth):
        self.phases.append(("exit", name, depth))


class Exploder(Instrument):
    """An instrument that raises on every step."""

    def on_step(self, event):
        raise RuntimeError("boom")


class TestSubscription:
    def test_attach_returns_instrument_and_fires_lifecycle(self):
        m = SpatialMachine(16)
        c = m.attach(Collector())
        assert c in m.instruments
        assert c.attached == 1
        m.detach(c)
        assert c not in m.instruments
        assert c.detached == 1

    def test_attach_twice_is_noop(self):
        m = SpatialMachine(16)
        c = Collector()
        m.attach(c)
        m.attach(c)
        assert list(m.instruments).count(c) == 1
        assert c.attached == 1

    def test_detach_never_attached_is_safe(self):
        m = SpatialMachine(16)
        m.detach(Collector())  # must not raise

    def test_fresh_machine_has_no_instruments(self):
        # the ledger is the machine's own state, not a subscriber
        m = SpatialMachine(16)
        assert m.instruments == ()
        m.send(0, 1)
        assert m.messages == 1 and m.energy > 0

    def test_detach_mid_run_stops_event_flow(self):
        m = SpatialMachine(16)
        c = m.attach(Collector())
        m.send(0, 1)
        assert len(c.events) == 1
        m.detach(c)
        m.send(1, 2)
        assert len(c.events) == 1  # no longer observing
        # the machine itself keeps accounting
        assert m.messages == 2

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_raising_instrument_cannot_change_snapshot(self, engine):
        # the ledger is charged before any observer runs, so no observer
        # failure (on a step or a phase boundary) can move the bill
        class AllHooksExplode(Instrument):
            def on_step(self, event):
                raise RuntimeError("step boom")

            def on_phase_enter(self, name, depth):
                raise RuntimeError("enter boom")

            def on_phase_exit(self, name, depth):
                raise RuntimeError("exit boom")

        def run(m):
            with m.phase("p"):
                m.send_batch(np.arange(8), np.arange(8, 16)[::-1], rounds=[0, 3, 8])
            return m.snapshot(), m.steps, m.ledger.summary()

        m = SpatialMachine(32, engine=engine)
        m.attach(AllHooksExplode())
        with pytest.warns(RuntimeWarning):
            observed = run(m)
        assert observed == run(SpatialMachine(32, engine=engine))
        assert {hook for _, hook, _ in m.instrument_errors} == {
            "on_step", "on_phase_enter", "on_phase_exit"
        }


class TestStepEvents:
    def test_two_instruments_observe_identical_streams(self):
        m = SpatialMachine(64)
        a, b = m.attach(Collector()), m.attach(StepLog())
        with m.phase("p"):
            m.send(np.arange(16), np.arange(16, 32))
        m.send([0, 0, 5], [9, 3, 5])  # includes a free self-message
        assert len(a.events) == len(b.events) == 2
        for ea, eb in zip(a.events, b.events):
            assert ea is eb  # one event object per step, shared by observers
        assert a.events[0].phases == ("p",)
        assert a.events[1].phases == ()

    def test_event_fields_consistent(self):
        for engine in ("scalar", "batched"):
            self._check_event_fields(engine)

    @staticmethod
    def _check_event_fields(engine):
        m = SpatialMachine(64, engine=engine)
        log = m.attach(StepLog())
        m.send([0, 0, 1, 7], [9, 3, 1, 2])  # 1->1 is free
        # a multi-round batch with repeated endpoints and a free self-message
        m.send_batch(
            [4, 4, 5, 6, 6, 6, 9, 12], [20, 21, 20, 6, 30, 31, 20, 40],
            rounds=[0, 3, 6, 8],
        )
        ev = log.events[0]
        assert ev.step == 0
        assert ev.messages == 3 == len(ev.src) == len(ev.dst) == len(ev.distances)
        assert ev.src_count == 2  # senders 0 and 7
        assert ev.dst_count == 3
        assert ev.depth_before == 0
        assert ev.metric == "manhattan"
        assert log.events[-1].depth_after == m.depth
        assert sum(e.energy for e in log.events) == m.energy
        assert sum(e.messages for e in log.events) == m.messages == 10
        for ev in log.events:
            assert ev.energy == int(ev.distances.sum())
            assert ev.messages == len(ev.src) == len(ev.dst) == len(ev.distances)
            hist = ev.distance_histogram
            assert np.array_equal(hist, np.bincount(ev.distances))
            with pytest.raises(ValueError):
                hist[0] = 1
            assert ev.src_count == len(np.unique(ev.src))
            assert ev.dst_count == len(np.unique(ev.dst))
            # computed once, then cached on the event
            assert ev.distance_histogram is hist
            assert ev.max_distance == int(ev.distances.max()) == len(hist) - 1
        if engine == "batched":
            (_, batch) = log.events
            assert batch.n_rounds == 3 and batch.messages == 7
            assert (batch.src_count, batch.dst_count) == (5, 5)
        else:
            assert len(log.events) == 4  # one event per non-empty round

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_unobserved_machine_builds_no_events(self, engine, monkeypatch):
        import repro.machine.machine as machine_mod
        from repro.spatial import SpatialTree, treefix_sum
        from repro.trees import prufer_random_tree

        tree = prufer_random_tree(200, seed=3)
        values = np.random.default_rng(3).integers(0, 100, size=tree.n)

        def run():
            st = SpatialTree.build(tree, seed=0, engine=engine)
            assert st.machine.instruments == ()
            out = treefix_sum(st, values, seed=1)
            m = st.machine
            return out, (m.energy, m.depth, m.messages, m.steps, m.ledger.summary())

        ref_out, ref_costs = run()

        def refuse(*args, **kwargs):
            raise AssertionError("an unobserved machine built a StepEvent")

        monkeypatch.setattr(machine_mod, "StepEvent", refuse)
        out, costs = run()
        assert np.array_equal(out, ref_out)
        assert costs == ref_costs

    def test_event_arrays_are_readonly(self):
        m = SpatialMachine(16)
        log = m.attach(StepLog())
        m.send([0, 1], [2, 3])
        (ev,) = log.events
        with pytest.raises(ValueError):
            ev.src[0] = 5
        with pytest.raises(ValueError):
            ev.distances[0] = 5

    def test_self_only_send_fires_no_event(self):
        m = SpatialMachine(16)
        log = m.attach(StepLog())
        m.send([3, 4], [3, 4])
        assert len(log.events) == 0
        assert m.steps == 0

    def test_step_indices_are_sequential(self):
        m = SpatialMachine(32)
        log = m.attach(StepLog())
        for i in range(4):
            m.send(i, i + 1)
        assert [e.step for e in log.events] == [0, 1, 2, 3]
        assert m.steps == 4

    def test_collectives_flow_through_events(self):
        m = SpatialMachine(64)
        log = m.attach(StepLog())
        broadcast(m, 1)
        assert sum(e.energy for e in log.events) == m.energy
        assert sum(e.messages for e in log.events) == m.messages

    def test_phase_stack_recorded_on_events(self):
        m = SpatialMachine(32)
        log = m.attach(StepLog())
        with m.phase("outer"):
            m.send(0, 1)
            with m.phase("inner"):
                m.send(1, 2)
        assert log.events[0].phases == ("outer",)
        assert log.events[1].phases == ("outer", "inner")

    def test_phase_notifications_paired(self):
        m = SpatialMachine(32)
        c = m.attach(Collector())
        with m.phase("a"):
            with m.phase("b"):
                m.send(0, 4)
        kinds = [(k, n) for k, n, _ in c.phases]
        assert kinds == [("enter", "a"), ("enter", "b"), ("exit", "b"), ("exit", "a")]


class TestOpenPhaseLifecycle:
    """Attach/detach while a phase is open: late subscribers see a
    consistent (if partial) view and never corrupt anyone else's."""

    def test_attach_mid_phase_sees_remaining_events_only(self):
        m = SpatialMachine(32)
        c = Collector()
        with m.phase("p"):
            m.send(0, 1)
            m.attach(c)
            m.send(1, 2)
        assert len(c.events) == 1
        assert c.events[0].phases == ("p",)
        # the exit of a phase entered before attachment is still delivered
        assert ("exit", "p") in [(k, n) for k, n, _ in c.phases]
        assert ("enter", "p") not in [(k, n) for k, n, _ in c.phases]

    def test_detach_mid_phase_stops_event_flow_cleanly(self):
        m = SpatialMachine(32)
        c = m.attach(Collector())
        with m.phase("p"):
            m.send(0, 1)
            m.detach(c)
            m.send(1, 2)
        assert len(c.events) == 1
        assert ("exit", "p") not in [(k, n) for k, n, _ in c.phases]
        # machine-side accounting is unaffected
        assert m.ledger.phases["p"].messages == 2

    def test_recorder_attached_mid_phase_exports_wellformed_spans(self):
        from repro.analysis.report import RunRecorder, chrome_trace_events

        m = SpatialMachine(32)
        with m.phase("outer"):
            m.send(0, 1)
            rec = m.attach(RunRecorder())
            with m.phase("inner"):
                m.send(1, 2)
        # the unmatched outer exit is dropped, the inner span is complete
        assert [s["name"] for s in rec.finished_spans()] == ["inner"]
        chrome_trace_events(rec)  # must not raise

    def test_profiler_detached_mid_phase_flushes(self):
        m = SpatialMachine(64)
        prof = m.attach(SpatialProfiler(window=1024))
        with m.phase("p"):
            m.send(np.arange(8), np.arange(8, 16))
            m.detach(prof)
        assert len(prof.windows) == 1
        assert sum(w.energy for w in prof.windows) == prof.energy


class TestCollectivesUnderProfiler:
    """Collectives must emit StepEvents that a profiler can account exactly."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda m: broadcast(m, 3),
            lambda m: reduce(m, np.arange(m.n)),
            lambda m: allreduce(m, np.arange(m.n)),
            lambda m: exclusive_scan(m, np.arange(m.n)),
        ],
        ids=["broadcast", "reduce", "allreduce", "exclusive_scan"],
    )
    def test_events_account_for_all_charges(self, run):
        m = SpatialMachine(64)
        prof = m.attach(SpatialProfiler(window=8))
        log = m.attach(StepLog())
        run(m)
        prof.flush()
        assert m.energy > 0 and m.steps == len(log.events)
        assert sum(e.energy for e in log.events) == m.energy
        assert sum(e.messages for e in log.events) == m.messages
        assert prof.energy == m.energy
        assert int(prof.cells["energy_sent"].sum()) == m.energy
        assert int(prof.cells["energy_received"].sum()) == m.energy
        assert int(prof.link_h.sum() + prof.link_v.sum()) == m.energy
        assert sum(w.energy for w in prof.windows) == m.energy

    def test_collective_depth_covered_by_windows(self):
        m = SpatialMachine(64)
        prof = m.attach(SpatialProfiler(window=4))
        allreduce(m, np.arange(m.n))
        windows = prof.link_windows()
        assert windows[0].depth_start == 0
        assert windows[-1].depth_end >= m.depth - 4  # last window spans the tail
        assert all(b.index > a.index for a, b in zip(windows, windows[1:]))

    def test_profiler_and_tracer_agree_on_collective(self):
        m = SpatialMachine(64)
        tracer = attach_tracer(m)
        prof = m.attach(SpatialProfiler())
        reduce(m, np.arange(m.n))
        prof.flush()
        assert tracer.total_traversals == m.energy + m.messages
        assert int(prof.link_h.sum() + prof.link_v.sum()) == m.energy


class TestFailureIsolation:
    def test_raising_instrument_does_not_corrupt_ledger(self):
        m = SpatialMachine(32)
        m.attach(Exploder())
        ref = SpatialMachine(32)
        with pytest.warns(RuntimeWarning):
            m.send(np.arange(8), np.arange(8, 16))
        ref.send(np.arange(8), np.arange(8, 16))
        assert m.snapshot() == ref.snapshot()
        assert m.instrument_errors
        inst, hook, exc = m.instrument_errors[0]
        assert hook == "on_step" and isinstance(exc, RuntimeError)

    def test_raising_instrument_does_not_starve_later_instruments(self):
        m = SpatialMachine(32)
        m.attach(Exploder())
        log = m.attach(StepLog())  # attached after the exploder
        with pytest.warns(RuntimeWarning):
            m.send(0, 1)
        assert len(log.events) == 1

    def test_raising_instrument_preserves_profiler_counts(self):
        # a profiler attached alongside a faulty instrument stays exact
        m = SpatialMachine(32)
        prof = m.attach(SpatialProfiler(window=8))
        m.attach(Exploder())
        with pytest.warns(RuntimeWarning):
            m.send(np.arange(8), np.arange(8, 16))
        prof.flush()
        assert prof.energy == m.energy
        assert int(prof.cells["energy_sent"].sum()) == m.energy
        assert sum(w.energy for w in prof.windows) == m.energy

    def test_raising_phase_hook_is_isolated(self):
        class PhaseExploder(Instrument):
            def on_phase_enter(self, name, depth):
                raise RuntimeError("phase boom")

        m = SpatialMachine(32)
        m.attach(PhaseExploder())
        c = m.attach(Collector())
        with pytest.warns(RuntimeWarning):
            with m.phase("p"):
                m.send(0, 1)
        assert [(k, n) for k, n, _ in c.phases] == [("enter", "p"), ("exit", "p")]
        assert m.ledger.phases["p"].energy == m.energy
        assert any(hook == "on_phase_enter" for _, hook, _ in m.instrument_errors)

    def test_raising_instrument_keeps_payload_delivery(self):
        m = SpatialMachine(32)
        m.attach(Exploder())
        vals = np.array([7, 8])
        with pytest.warns(RuntimeWarning):
            out = m.send([0, 1], [2, 3], vals)
        assert out is vals


class TestTracerCompat:
    def test_attach_tracer_via_property(self):
        m = SpatialMachine(64)
        tr = attach_tracer(m)
        assert m.tracer is tr
        m.send(0, 5)
        assert tr.total_traversals == m.energy + m.messages

    def test_tracer_none_detaches(self):
        m = SpatialMachine(64)
        tr = attach_tracer(m)
        m.send(0, 5)
        before = tr.total_traversals
        m.tracer = None
        assert m.tracer is None
        assert not any(isinstance(i, TracerInstrument) for i in m.instruments)
        m.send(5, 9)
        assert tr.total_traversals == before

    def test_tracer_instrument_direct_attach(self):
        m = SpatialMachine(64)
        inst = m.attach(TracerInstrument(CongestionTracer(m.side)))
        assert m.tracer is inst.tracer
        m.send(0, 9)
        assert inst.tracer.messages == 1

    def test_replacing_tracer_detaches_old(self):
        m = SpatialMachine(64)
        old = attach_tracer(m)
        new = attach_tracer(m)
        assert m.tracer is new
        m.send(0, 9)
        assert old.messages == 0 and new.messages == 1


class TestLedgerCompat:
    def test_ledger_property_setter(self):
        m = SpatialMachine(16)
        m.send(0, 1)
        fresh = CostLedger()
        m.ledger = fresh
        assert m.energy == 0
        m.send(1, 2)
        assert m.ledger is fresh and m.messages == 1

    def test_reset_costs_keeps_instruments(self):
        m = SpatialMachine(16)
        log = m.attach(StepLog())
        m.send(0, 1)
        m.reset_costs()
        assert m.snapshot() == {"energy": 0, "messages": 0, "depth": 0}
        assert m.steps == 0
        assert log in m.instruments
        m.send(1, 2)
        assert log.events[-1].step == 0  # step counter restarted
