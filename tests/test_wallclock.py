"""Tests for the wall-clock kernel profiler (machine/wallclock.py)."""

import numpy as np
import pytest

from repro.machine import Instrument, KernelWallProfiler, SpatialMachine
from repro.machine.wallclock import NULL_SCOPE, PERF_SCHEMA
from repro.spatial import SpatialTree, treefix_sum
from repro.trees import bottom_up_treefix, prufer_random_tree


class FakeClock:
    """Deterministic ns clock: each read advances by ``step``."""

    def __init__(self, step=10):
        self.t = 0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestScopes:
    def test_self_time_excludes_children(self):
        p = KernelWallProfiler(clock_ns=FakeClock(10))
        with p.kernel("outer"):
            with p.kernel("inner"):
                pass
        rows = {k: s for k, s in p.rows.items()}
        inner = rows[("inner", "")]
        outer = rows[("outer", "")]
        # FakeClock advances 10ns per read: outer enter reads 10, inner
        # enter 20, inner exit 30 (elapsed 10), outer exit 40 (elapsed 30,
        # minus the child's 10)
        assert inner.ns == 10
        assert outer.ns == 20
        assert inner.calls == outer.calls == 1
        # self times sum to the outermost elapsed time, no double count
        assert p.kernel_wall_ns() == 30

    def test_rec_counts_as_child_of_open_scope(self):
        p = KernelWallProfiler(clock_ns=FakeClock(10))
        with p.kernel("outer"):
            p.rec("section", 15, messages=3, energy=7)
        assert p.rows[("section", "")].ns == 15
        assert p.rows[("section", "")].messages == 3
        assert p.rows[("section", "")].energy == 7
        # outer elapsed 30 (enter/rec-less exit + one tick inside) minus 15
        assert p.rows[("outer", "")].ns == p.kernel_wall_ns() - 15

    def test_negative_self_time_clamped(self):
        p = KernelWallProfiler(clock_ns=FakeClock(10))
        with p.kernel("outer"):
            p.rec("big_child", 10**9)
        assert p.rows[("outer", "")].ns == 0

    def test_null_scope_reused(self):
        m = SpatialMachine(16)
        scope = m.profile_kernel("anything")
        assert scope is NULL_SCOPE
        with scope:
            pass  # no-op, no state

    def test_alloc_counters(self):
        p = KernelWallProfiler()
        p.alloc("site", 128)
        p.alloc("site", 64)
        p.alloc("other")
        assert p.allocations["site"] == [2, 192]
        assert p.allocations["other"] == [1, 0]


class TestMachineIntegration:
    def test_phase_attribution_and_coverage(self):
        m = SpatialMachine(64)
        p = m.attach(KernelWallProfiler())
        assert m.wall_profiler is p
        rng = np.random.default_rng(0)
        with m.phase("alpha"):
            m.send(rng.integers(0, 64, 32), rng.integers(0, 64, 32))
        with m.phase("beta"):
            m.send(rng.integers(0, 64, 32), rng.integers(0, 64, 32))
        phases = {phase for (_, phase) in p.rows}
        assert phases == {"alpha", "beta"}
        assert p.phase_level == {"alpha": 0, "beta": 0}
        assert p.top_wall_ns > 0
        cov = p.coverage()
        assert cov is not None and 0 < cov <= 1.0

    def test_detach_clears_profiler(self):
        m = SpatialMachine(16)
        p = m.attach(KernelWallProfiler())
        m.detach(p)
        assert m.wall_profiler is None
        assert m.profile_kernel("x") is NULL_SCOPE
        assert p.attached_ns >= 0

    def test_profiled_batched_run_attributes_engine_rows(self):
        # a profiled batched run takes the one observed send path: the
        # clock advance and the event assembly each report their own row
        tree = prufer_random_tree(256, seed=0)
        st = SpatialTree.build(tree, engine="batched")
        p = st.machine.attach(KernelWallProfiler())
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=tree.n)
        out = treefix_sum(st, values, seed=0)
        assert np.array_equal(out, bottom_up_treefix(tree, values))
        kernels = {k for (k, _) in p.rows}
        assert "batch.clock_advance" in kernels
        assert "batch.event_assembly" in kernels

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_profiled_run_costs_identical(self, engine):
        # attaching the profiler must not change model costs
        tree = prufer_random_tree(300, seed=1)
        rng = np.random.default_rng(1)
        values = rng.integers(0, 100, size=tree.n)

        st_plain = SpatialTree.build(tree, seed=0, engine=engine)
        treefix_sum(st_plain, values, seed=1)

        st_prof = SpatialTree.build(tree, seed=0, engine=engine)
        st_prof.machine.attach(KernelWallProfiler())
        treefix_sum(st_prof, values, seed=1)

        assert st_prof.machine.energy == st_plain.machine.energy
        assert st_prof.machine.depth == st_plain.machine.depth
        assert st_prof.machine.messages == st_plain.machine.messages
        assert st_prof.machine.steps == st_plain.machine.steps

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_coverage_acceptance(self, engine):
        # acceptance: per-kernel wall sums to within 20% of phase wall
        tree = prufer_random_tree(512, seed=2)
        st = SpatialTree.build(tree, seed=0, engine=engine)
        p = st.machine.attach(KernelWallProfiler())
        rng = np.random.default_rng(2)
        values = rng.integers(0, 100, size=tree.n)
        treefix_sum(st, values, seed=2)
        cov = p.coverage()
        assert cov is not None
        assert cov >= 0.8, f"kernel rows cover only {100 * cov:.1f}% of phase wall"
        assert cov <= 1.0 + 1e-9

    def test_report_joins_ledger(self):
        tree = prufer_random_tree(256, seed=0)
        st = SpatialTree.build(tree, engine="batched")
        p = st.machine.attach(KernelWallProfiler())
        rng = np.random.default_rng(0)
        treefix_sum(st, rng.integers(0, 100, size=tree.n), seed=0)
        report = p.report(st.machine)
        assert report["schema"] == PERF_SCHEMA
        assert report["kernels"] == sorted(
            report["kernels"], key=lambda r: -r["wall_ns"]
        )
        top = [r for r in report["phases"] if r["level"] == 0]
        assert top, "no top-level phase rows"
        for row in top:
            assert row["kernel_wall_ns"] <= row["wall_ns"]
            assert row["energy"] > 0
            assert row["ns_per_energy"] > 0
        totals = report["totals"]
        assert totals["energy"] == st.machine.energy
        assert totals["depth"] == st.machine.depth
        assert totals["kernel_wall_ns"] == p.kernel_wall_ns()

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_observer_time_lands_in_its_own_row(self, engine):
        # a slow instrument's hook time is billed to observe.<type>, not to
        # the spatial kernel whose scope is open when the step fires
        clock = FakeClock(step=0)

        class SlowObserver(Instrument):
            def on_step(self, event):
                clock.t += 1000

        m = SpatialMachine(16, engine=engine)
        p = m.attach(KernelWallProfiler(clock_ns=clock))
        m.attach(SlowObserver())
        with m.phase("work"), m.profile_kernel("outer"):
            m.send_batch(np.array([0, 1]), np.array([2, 3]), rounds=[0, 1, 2])
        events = 1 if engine == "batched" else 2
        assert p.rows[("observe.SlowObserver", "work")].ns == 1000 * events
        assert p.rows[("outer", "work")].ns == 0
        assert p.kernel_wall_ns() == 1000 * events

    def test_step_events_carry_wall_ns_only_when_profiled(self):
        from repro.machine.instrumentation import StepLog

        m = SpatialMachine(64)
        log = m.attach(StepLog())
        rng = np.random.default_rng(0)
        m.send(rng.integers(0, 64, 8), rng.integers(0, 64, 8))
        assert log.events[-1].wall_ns is None
        m.attach(KernelWallProfiler())
        m.send(rng.integers(0, 64, 8), rng.integers(0, 64, 8))
        assert log.events[-1].wall_ns is not None
        assert log.events[-1].wall_ns > 0


class TestPublisher:
    def test_publish_kernel_profiler(self):
        from repro.analysis.metrics import MetricsRegistry, publish_kernel_profiler

        m = SpatialMachine(64)
        p = m.attach(KernelWallProfiler())
        rng = np.random.default_rng(0)
        with m.phase("ph"):
            m.send(rng.integers(0, 64, 16), rng.integers(0, 64, 16))
        registry = MetricsRegistry()
        publish_kernel_profiler(registry, p)
        text = registry.render_prometheus()
        assert "repro_kernel_wall_seconds_total" in text
        assert 'phase="ph"' in text
        assert "repro_phase_wall_seconds_total" in text
        assert "repro_kernel_wall_coverage" in text

    def test_metrics_endpoint_autopublishes(self):
        import urllib.request

        from repro.telemetry import TelemetryServer

        m = SpatialMachine(64)
        m.attach(KernelWallProfiler())
        rng = np.random.default_rng(0)
        with m.phase("ph"):
            m.send(rng.integers(0, 64, 16), rng.integers(0, 64, 16))
        with TelemetryServer(m, port=0) as server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
                body = r.read().decode()
        assert "repro_kernel_wall_seconds_total" in body
