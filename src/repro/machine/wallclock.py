"""Wall-clock kernel profiler for the spatial machine's hot paths.

Every other observability layer in this repo measures *model* costs —
energy and depth from the spatial-computer cost model. This module
measures the one thing the model deliberately abstracts away: **host
wall-clock time**, attributed per kernel × phase, so "which numpy kernel
is the wall-time bottleneck?" has an answer below the whole-benchmark
level.

Design:

* :class:`KernelWallProfiler` is an :class:`~repro.machine.instrumentation.Instrument`.
  Attaching it to a machine (``machine.attach(profiler)``) flips on a set
  of ``perf_counter_ns`` timing sections inside the engine hot paths
  (:meth:`~repro.machine.SpatialMachine.send` /
  :meth:`~repro.machine.SpatialMachine.send_batch` /
  :meth:`~repro.machine.SpatialMachine.send_plan`) — when no profiler is
  attached those sections cost one attribute load and a branch.
* Spatial kernels (local/family messaging, sort-network replay, plan
  builds, the treefix round bodies) wrap themselves in
  ``machine.profile_kernel("name")`` scopes. Scopes nest; each scope is
  charged its **self time** (elapsed minus time spent in nested scopes and
  in the machine's own timed sections), so summing every row never double
  counts and the per-phase sum is directly comparable to the phase's wall
  clock.
* Rows are keyed ``(kernel, phase)`` where *phase* is the innermost
  machine phase active when the scope closed — joining against the cost
  ledger's per-phase energy yields the wall-vs-energy "efficiency" view.
* Allocation counters (:meth:`KernelWallProfiler.alloc`) count the batched
  engine's buffer growth (clock scratch, plan builds) — cheap
  evidence for "is this phase allocating or reusing?".

Wall-clock numbers are **host-dependent**: they never participate in the
differential equivalence suites, which pin only model costs (energy,
depth, messages, steps).
"""

from __future__ import annotations

import time

from repro.machine.instrumentation import Instrument

#: schema tag for :meth:`KernelWallProfiler.report` / ``repro perf`` bundles
PERF_SCHEMA = "repro.perf/v1"


class KernelStat:
    """Accumulated wall-clock totals for one (kernel, phase) row."""

    __slots__ = ("ns", "calls", "messages", "energy")

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0
        self.messages = 0
        self.energy = 0

    def add(self, ns: int, calls: int, messages: int, energy: int) -> None:
        self.ns += ns
        self.calls += calls
        self.messages += messages
        self.energy += energy


class _Frame:
    """One open :meth:`KernelWallProfiler.kernel` scope."""

    __slots__ = ("kernel", "start", "child_ns")

    def __init__(self, kernel: str, start: int) -> None:
        self.kernel = kernel
        self.start = start
        self.child_ns = 0


class _KernelScope:
    """Context manager charging self time to a named kernel on exit."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "KernelWallProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_KernelScope":
        p = self._profiler
        p._frames.append(_Frame(self._name, p.clock()))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        p = self._profiler
        now = p.clock()
        frame = p._frames.pop()
        elapsed = now - frame.start
        self_ns = elapsed - frame.child_ns
        if self_ns < 0:  # clock skew paranoia; never attribute negative time
            self_ns = 0
        p._add(frame.kernel, self_ns, 1, 0, 0)
        if p._frames:
            p._frames[-1].child_ns += elapsed


class _NullScope:
    """Shared no-op scope returned by ``machine.profile_kernel`` when no
    profiler is attached (one allocation for the whole process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SCOPE = _NullScope()


class KernelWallProfiler(Instrument):
    """Per-kernel × per-phase wall-clock profiler (see module docstring).

    Parameters
    ----------
    clock_ns:
        Nanosecond monotonic clock (injectable for deterministic tests);
        defaults to :func:`time.perf_counter_ns`.
    """

    def __init__(self, *, clock_ns=time.perf_counter_ns) -> None:
        self.clock = clock_ns
        #: (kernel, phase) -> :class:`KernelStat`
        self.rows: dict[tuple[str, str], KernelStat] = {}
        #: phase name -> accumulated wall ns across (re-)entries
        self.phase_wall: dict[str, int] = {}
        #: phase name -> smallest nesting level observed (0 = top-level)
        self.phase_level: dict[str, int] = {}
        #: wall ns spent inside top-level phases (the coverage denominator)
        self.top_wall_ns = 0
        #: allocation counters: name -> [count, bytes]
        self.allocations: dict[str, list[int]] = {}
        self._frames: list[_Frame] = []
        self._phase_starts: list[tuple[str, int]] = []
        self._machine = None
        self._attached_ns = 0
        self._t_attach: int | None = None

    # ------------------------------------------------------------------ #
    # instrument hooks
    # ------------------------------------------------------------------ #

    def on_attach(self, machine) -> None:
        self._machine = machine
        self._t_attach = self.clock()

    def on_detach(self, machine) -> None:
        if self._t_attach is not None:
            self._attached_ns += self.clock() - self._t_attach
            self._t_attach = None
        self._machine = None

    def on_phase_enter(self, name: str, depth: int) -> None:
        self._phase_starts.append((name, self.clock()))

    def on_phase_exit(self, name: str, depth: int) -> None:
        if not self._phase_starts:
            return
        pname, t0 = self._phase_starts.pop()
        elapsed = self.clock() - t0
        level = len(self._phase_starts)
        self.phase_wall[pname] = self.phase_wall.get(pname, 0) + elapsed
        prev = self.phase_level.get(pname)
        if prev is None or level < prev:
            self.phase_level[pname] = level
        if level == 0:
            self.top_wall_ns += elapsed

    # ------------------------------------------------------------------ #
    # recording API (machine + spatial kernels)
    # ------------------------------------------------------------------ #

    def _phase_key(self) -> str:
        m = self._machine
        if m is not None and m._phase_stack:
            return m._phase_stack[-1]
        return ""

    def _add(self, kernel: str, ns: int, calls: int, messages: int, energy: int) -> None:
        key = (kernel, self._phase_key())
        stat = self.rows.get(key)
        if stat is None:
            stat = self.rows[key] = KernelStat()
        stat.add(ns, calls, messages, energy)

    def rec(self, kernel: str, ns: int, *, messages: int = 0, energy: int = 0) -> None:
        """Charge ``ns`` of machine-internal section time to ``kernel``.

        The time also counts as *child* time of the innermost open
        :meth:`kernel` scope, so enclosing spatial-kernel rows report pure
        self time.
        """
        self._add(kernel, ns, 1, messages, energy)
        if self._frames:
            self._frames[-1].child_ns += ns

    def kernel(self, name: str) -> _KernelScope:
        """Open a named kernel scope (use as a context manager)."""
        return _KernelScope(self, name)

    def alloc(self, name: str, nbytes: int = 0) -> None:
        """Count one allocation event under ``name`` (plus optional bytes)."""
        entry = self.allocations.get(name)
        if entry is None:
            entry = self.allocations[name] = [0, 0]
        entry[0] += 1
        entry[1] += int(nbytes)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @property
    def attached_ns(self) -> int:
        """Total wall ns this profiler has been attached to a machine."""
        total = self._attached_ns
        if self._t_attach is not None:
            total += self.clock() - self._t_attach
        return total

    def kernel_wall_ns(self, phase: str | None = None) -> int:
        """Sum of attributed kernel self time (optionally one phase's)."""
        if phase is None:
            return sum(s.ns for s in self.rows.values())
        return sum(s.ns for (_, p), s in self.rows.items() if p == phase)

    def coverage(self) -> float | None:
        """Attributed kernel time over top-level phase wall time.

        ``None`` when no top-level phase has closed yet. Values near 1.0
        mean the kernel rows explain (almost) all the phase wall clock;
        the gap is un-instrumented orchestration.
        """
        if self.top_wall_ns <= 0:
            return None
        return self.kernel_wall_ns() / self.top_wall_ns

    def report(self, machine=None) -> dict:
        """Structured ``repro.perf/v1`` summary (kernels, phases, allocs).

        When ``machine`` (or the attached machine) is available, each
        phase row joins the cost ledger's energy/messages/depth so the
        wall-vs-energy efficiency view (`ns_per_energy`) is explicit.
        """
        m = machine if machine is not None else self._machine
        kernels = [
            {
                "kernel": kernel,
                "phase": phase,
                "wall_ns": stat.ns,
                "calls": stat.calls,
                "messages": stat.messages,
                "energy": stat.energy,
            }
            for (kernel, phase), stat in self.rows.items()
        ]
        kernels.sort(key=lambda r: -r["wall_ns"])
        ledger_phases = m.ledger.phases if m is not None else {}
        phases = []
        for name, wall in sorted(self.phase_wall.items(), key=lambda kv: -kv[1]):
            attributed = self.kernel_wall_ns(name)
            row = {
                "phase": name,
                "level": self.phase_level.get(name, 0),
                "wall_ns": wall,
                "kernel_wall_ns": attributed,
                "coverage": (attributed / wall) if wall > 0 else None,
            }
            cost = ledger_phases.get(name)
            if cost is not None:
                row["energy"] = cost.energy
                row["messages"] = cost.messages
                row["depth"] = cost.depth
                row["ns_per_energy"] = (wall / cost.energy) if cost.energy else None
            phases.append(row)
        out = {
            "schema": PERF_SCHEMA,
            "kernels": kernels,
            "phases": phases,
            "allocations": {
                name: {"count": c, "bytes": b}
                for name, (c, b) in sorted(self.allocations.items())
            },
            "totals": {
                "kernel_wall_ns": self.kernel_wall_ns(),
                "top_phase_wall_ns": self.top_wall_ns,
                "coverage": self.coverage(),
                "attached_ns": self.attached_ns,
            },
        }
        if m is not None:
            out["totals"].update(
                {"energy": m.energy, "depth": m.depth, "messages": m.messages}
            )
        return out
