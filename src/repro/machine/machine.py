"""The spatial computer (paper §II-A) as a deterministic simulator.

A :class:`SpatialMachine` is a ``side × side`` grid holding ``n`` logical
processors, placed on the grid along a space-filling curve (processor ``i``
sits at the curve's ``i``-th cell — the layouts of §III then reduce to
choosing *which vertex is processor i*). It executes *bulk message steps*:
a vectorized ``send`` moves one value per (src, dst) pair, charging

* energy = Σ Manhattan(src, dst) to the ledger, and
* depth via per-processor dependency clocks (see
  :mod:`repro.machine.ledger`).

The simulator is a measurement instrument: it computes the model's cost
terms exactly while the payload arithmetic runs as ordinary numpy. Python
never parallelises anything — it doesn't need to, because energy and depth
are schedule-independent properties of the message DAG.

The machine charges its own :class:`~repro.machine.ledger.CostLedger`
inline. Everything else observes one stream: every charged bulk send emits
exactly one :class:`~repro.machine.instrumentation.StepEvent` to the
attached :class:`~repro.machine.instrumentation.Instrument` subscribers —
the congestion tracer, reports and trace exporters
(:mod:`repro.analysis.report`) and the workload-plan recorder alike. With
no subscriber attached no event is built at all.
"""

from __future__ import annotations

import ctypes
import itertools
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.curves import resolve_curve
from repro.errors import MachineStateError, SanitizerError, ValidationError
from repro.machine import clock_kernel
from repro.machine.instrumentation import Instrument, StepEvent, TracerInstrument
from repro.machine.ledger import CostLedger, PhaseCost
from repro.machine.registers import DEFAULT_BUDGET, RegisterFile
from repro.machine.wallclock import NULL_SCOPE, KernelWallProfiler
from repro.utils import as_index_array, check_in_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.curves.base import SpaceFillingCurve
    from repro.machine.tracing import CongestionTracer
    from repro.plans.recorder import WorkloadPlanRecorder


@dataclass(frozen=True)
class ClockAdvance:
    """Result of one bulk-step clock update (see :func:`advance_clocks`)."""

    max_clock: int


def advance_clocks(clock: np.ndarray, src: np.ndarray, dst: np.ndarray) -> ClockAdvance:
    """Advance per-processor dependency clocks for one bulk step, in place.

    This is the machine's 1-port depth model as a pure function of
    ``(clock, src, dst)`` so it can be *replayed* — the determinism
    sanitizer re-runs it under permuted delivery orders and asserts the
    resulting clock state is identical (energy and depth must be
    schedule-independent properties of the message DAG).

    Sends serialize: a processor's k-th send in the step departs at
    ``clock + k`` and its clock advances by its send count. Receives
    serialize too: processing incoming chains ``m_1 <= .. <= m_k`` from
    start clock ``t0`` gives ``t_i = max(t_{i-1} + 1, m_i)``, i.e.
    ``t_k = max(t0 + k, max_i(m_i + k - i))``.
    """
    order = np.argsort(src, kind="stable")
    sorted_src = src[order]
    boundaries = np.flatnonzero(np.diff(sorted_src)) + 1
    group_starts = np.concatenate([[0], boundaries])
    group_lens = np.diff(np.concatenate([group_starts, [len(sorted_src)]]))
    occ_sorted = np.arange(len(sorted_src)) - np.repeat(group_starts, group_lens)
    occ = np.empty(len(src), dtype=np.int64)
    occ[order] = occ_sorted
    chain = clock[src] + occ + 1
    np.add.at(clock, src, 1)
    rorder = np.lexsort((chain, dst))
    rd_s = dst[rorder]
    m_s = chain[rorder]
    rb = np.flatnonzero(np.diff(rd_s)) + 1
    rstarts = np.concatenate([[0], rb])
    rlens = np.diff(np.concatenate([rstarts, [len(rd_s)]]))
    pos_in_group = np.arange(len(rd_s)) - np.repeat(rstarts, rlens)
    remaining = np.repeat(rlens, rlens) - 1 - pos_in_group  # k - i (0-based)
    vals_adj = m_s + remaining
    group_max = np.maximum.reduceat(vals_adj, rstarts)
    dst_unique = rd_s[rstarts]
    clock[dst_unique] = np.maximum(clock[dst_unique] + rlens, group_max)
    return ClockAdvance(
        max_clock=max(int(clock[src].max()), int(clock[dst_unique].max())),
    )


@dataclass(frozen=True)
class BatchClockAdvance:
    """Result of a multi-round batched clock update (:func:`advance_clocks_batch`)."""

    rounds: int
    max_clock: int


class ClockScratch:
    """Work buffers for :func:`advance_clocks_batch`, one set per machine.

    ``count`` and ``head`` are n-sized and read 0 and -1 between calls (the
    compiled kernel restores every entry it touches before the next round);
    ``work`` grows to three entries per message of the largest round seen.
    The kernel runs without the GIL, so a set must never be shared between
    machines that may run on different threads.
    """

    __slots__ = ("count", "head", "work")

    def __init__(self, n: int) -> None:
        self.count = np.zeros(n, dtype=np.int64)
        self.head = np.full(n, -1, dtype=np.int64)
        self.work = np.empty(0, dtype=np.int64)

    def reserve(self, k: int) -> np.ndarray:
        """The work buffer, grown (never shrunk) to cover a round of ``k`` messages."""
        if len(self.work) < 3 * k:
            self.work = np.empty(3 * max(k, 1024), dtype=np.int64)
        return self.work


def advance_clocks_batch(
    clock: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    offsets: np.ndarray,
    scratch: ClockScratch,
) -> BatchClockAdvance:
    """Advance clocks for a batch of dependency rounds, in place.

    ``offsets`` are CSR-style round boundaries ``[0, ..., len(src)]``:
    messages ``offsets[r]:offsets[r+1]`` form round ``r``, and round
    ``r+1``'s chains are computed against the clock state left by round
    ``r`` — exactly as if each round were its own :meth:`SpatialMachine.send`
    call. Empty rounds are skipped and not counted.

    All rounds run in one call of the compiled kernel (``_clock.c``, see
    :mod:`repro.machine.clock_kernel`), which applies the
    :func:`advance_clocks` recurrence in O(k) per round of k messages.
    Where the kernel cannot be built this loops :func:`advance_clocks`
    per round instead, with bit-identical results.
    """
    fn = clock_kernel.kernel()
    if fn is None:
        rounds = max_clock = 0
        for a, b in itertools.pairwise(offsets.tolist()):
            if b > a:
                rounds += 1
                adv = advance_clocks(clock, src[a:b], dst[a:b])
                max_clock = max(max_clock, adv.max_clock)
        return BatchClockAdvance(rounds=rounds, max_clock=max_clock)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n = len(clock)
    if (
        clock.dtype != np.int64
        or not (clock.flags.c_contiguous and clock.flags.writeable)
        or len(dst) != len(src)
        or len(scratch.head) < n
    ):
        raise MachineStateError(
            "clock kernel needs a writeable int64 clock, aligned endpoints "
            "and scratch for every processor"
        )
    work = scratch.reserve(int(np.diff(offsets).max(initial=0)))
    rounds = ctypes.c_int64(0)
    max_clock = fn(
        n, clock.ctypes.data, len(src), src.ctypes.data, dst.ctypes.data,
        offsets.ctypes.data, len(offsets) - 1, scratch.count.ctypes.data,
        scratch.head.ctypes.data, work.ctypes.data, ctypes.byref(rounds),
    )
    if max_clock < 0:
        raise MachineStateError(
            f"clock kernel rejected the batch: round offsets or processor ids "
            f"outside [0, {len(src)}] / [0, {n})"
        )
    return BatchClockAdvance(rounds=rounds.value, max_clock=max_clock)


@dataclass(frozen=True)
class RoundPlan:
    """A cached, query-independent message plan for :meth:`SpatialMachine.send_plan`.

    ``rounds`` are CSR offsets over ``src``/``dst`` (as for
    :meth:`SpatialMachine.send_batch`); ``dist`` holds the per-message
    distances under the building machine's metric, so a plan is only valid
    on the machine (or an identically placed one) it was built for.
    """

    src: np.ndarray
    dst: np.ndarray
    rounds: np.ndarray
    dist: np.ndarray

    @classmethod
    def build(
        cls, machine: SpatialMachine, src: np.ndarray, dst: np.ndarray, rounds: np.ndarray
    ) -> RoundPlan:
        return cls(src, dst, rounds, machine.manhattan(src, dst))


#: sentinel distinguishing a stored ``None`` plan from a cache miss
_PLAN_MISS = object()


class PlanCache(dict):
    """The machine's memoized-plan store, with hit/miss accounting.

    A plain ``dict`` plus per-family counters: a :meth:`lookup` is
    classified as a hit or a miss under the plan *family* — the first
    element of a tuple key (``("sort_network", m, desc)`` → family
    ``"sort_network"``), or the key itself for string keys. Consumers
    that memoize plans elsewhere (e.g. batched messaging's
    tree-attribute plans) can report their lookups with :meth:`count`
    so one surface covers every plan cache. ``repro_plan_cache_*``
    metrics expose the counters
    (:func:`repro.analysis.metrics.publish_plan_cache`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    @staticmethod
    def _family(key: object) -> str:
        if isinstance(key, tuple) and key:
            return str(key[0])
        return str(key)

    def count(self, family: str, *, hit: bool) -> None:
        """Record an externally-memoized plan lookup under ``family``."""
        book = self.hits if hit else self.misses
        book[family] = book.get(family, 0) + 1

    def lookup(self, key: object) -> object | None:
        """Counted :meth:`dict.get`: classifies the lookup under the
        key's family before returning the plan (or ``None``)."""
        found = self.get(key, _PLAN_MISS)
        if found is _PLAN_MISS:
            self.count(self._family(key), hit=False)
            return None
        self.count(self._family(key), hit=True)
        return found


class SpatialMachine:
    """A √n×√n-style grid of constant-memory processors with cost accounting.

    Parameters
    ----------
    n:
        Number of logical processors (one tree vertex / list element each).
    curve:
        Space-filling curve (name or instance) that places processor ``i``
        on the grid. Defaults to ``"hilbert"``. The curve choice here is the
        machine's *address map*; the paper's layout theorems are about which
        data lives at which address.
    side:
        Grid side; defaults to the curve's minimal canonical side covering
        ``n`` cells (so up to a constant factor more cells than processors,
        as in the model's √n×√n statement).
    budget:
        Per-processor word budget for the register file.
    metric:
        Distance metric charged per message: ``"manhattan"`` (the paper's
        model — mesh interconnects) or ``"chebyshev"`` (L∞ — meshes with
        diagonal links). The spatial computer is *network-oblivious*
        (§I-B): the algorithms are metric-agnostic, and since
        ``L∞ ≤ L1 ≤ 2·L∞`` every energy bound transfers within a factor
        of 2 — which the tests verify empirically.
    strict:
        Model-discipline sanitizers (see :mod:`repro.machine.sanitizer`).
        ``False`` (default) runs unchecked; ``True`` attaches a write-race
        sanitizer under the ``"crew"`` policy plus a determinism checker,
        both raising :class:`~repro.errors.SanitizerError` on the first
        violation; a policy string (``"erew"``/``"crew"``/``"crcw"``)
        selects the write-race policy explicitly.
    permute_delivery:
        Delivery-order fuzzing seed. When set, the payload returned by
        :meth:`send` is permuted *within groups of messages addressed to
        the same destination* — exactly the arrival-order ambiguity a real
        spatial machine exhibits. Algorithms whose results change under
        this permutation depend on simulator delivery order (see
        :func:`repro.machine.sanitizer.check_determinism`).
    engine:
        Bulk-messaging engine behind :meth:`send_batch`. ``"scalar"``
        (default) replays each dependency round through :meth:`send` — the
        reference path, whose accounting is definitionally correct.
        ``"batched"`` runs a vectorized path that validates once, charges
        energy once, advances all rounds' clocks in one compiled-kernel call
        (:func:`advance_clocks_batch`) and emits a
        *single* aggregated :class:`StepEvent` per batch. Both engines
        produce identical results, ledger totals, depth clocks and step
        counts (pinned by the differential suite in
        ``tests/test_engine_equivalence.py``); only the granularity of the
        event stream differs.
    """

    def __init__(
        self,
        n: int,
        *,
        curve: str | SpaceFillingCurve = "hilbert",
        side: int | None = None,
        budget: int = DEFAULT_BUDGET,
        metric: str = "manhattan",
        strict: bool | str = False,
        permute_delivery: int | None = None,
        engine: str = "scalar",
    ) -> None:
        if n < 1:
            raise ValidationError(f"machine needs n >= 1 processors, got {n}")
        if metric not in ("manhattan", "chebyshev"):
            raise ValidationError(f"metric must be manhattan|chebyshev, got {metric!r}")
        if engine not in ("scalar", "batched"):
            raise ValidationError(f"engine must be scalar|batched, got {engine!r}")
        self.metric = metric
        self.engine = engine
        self._clock_scratch: ClockScratch | None = None
        #: memoized replay plans (e.g. sort networks) keyed by the caller;
        #: depends only on the placement, so it survives :meth:`reset_costs`
        self.plan_cache = PlanCache()
        #: the active :class:`repro.plans.WorkloadPlanRecorder`, set and
        #: cleared by the recorder itself; the machine never calls it —
        #: data-dependent kernels report their coin epochs through it
        self.plan_recorder: WorkloadPlanRecorder | None = None
        self.n = int(n)
        self.curve = resolve_curve(curve)
        self.side = self.curve.validate_side(side) if side else self.curve.min_side(n)
        if self.side * self.side < n:
            raise ValidationError(
                f"grid {self.side}x{self.side} cannot hold {n} processors"
            )
        pos = self.curve.positions(self.n, self.side)
        self._x = pos[:, 0].copy()
        self._y = pos[:, 1].copy()
        self._x.setflags(write=False)
        self._y.setflags(write=False)
        self.clock = np.zeros(self.n, dtype=np.int64)
        self._max_clock = 0
        self.registers = RegisterFile(self.n, budget=budget)
        self._ledger = CostLedger()
        # --- instrumentation -------------------------------------------
        self._instruments: list[Instrument] = []
        self._phase_stack: list[str] = []
        self._step_index = 0
        #: (instrument, hook-name, exception) triples from raising instruments
        self.instrument_errors: list[tuple[Instrument, str, Exception]] = []
        self._tracer_instrument: TracerInstrument | None = None
        self._wall_profiler: KernelWallProfiler | None = None
        self._delivery_rng = (
            np.random.default_rng(permute_delivery)
            if permute_delivery is not None
            else None
        )
        if strict:
            from repro.machine.sanitizer import DeterminismSanitizer, WriteRaceSanitizer

            policy = strict if isinstance(strict, str) else "crew"
            self.attach(WriteRaceSanitizer(policy=policy, strict=True))
            self.attach(DeterminismSanitizer(strict=True))

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    @property
    def instruments(self) -> tuple[Instrument, ...]:
        """Currently attached instruments, in dispatch order."""
        return tuple(self._instruments)

    def attach(self, instrument: Instrument) -> Instrument:
        """Subscribe ``instrument`` to this machine's step/phase events.

        Returns the instrument (attach-and-keep idiom:
        ``log = machine.attach(StepLog())``). Attaching twice is a no-op.
        """
        if instrument not in self._instruments:
            self._instruments.append(instrument)
            if isinstance(instrument, TracerInstrument):
                self._tracer_instrument = instrument
            if isinstance(instrument, KernelWallProfiler):
                self._wall_profiler = instrument
            self._call(instrument, "on_attach", self)
        return instrument

    def detach(self, instrument: Instrument) -> Instrument:
        """Unsubscribe ``instrument``; safe mid-run and if never attached."""
        if instrument in self._instruments:
            self._instruments.remove(instrument)
            self._call(instrument, "on_detach", self)
        if instrument is self._tracer_instrument:
            self._tracer_instrument = None
        if instrument is self._wall_profiler:
            self._wall_profiler = None
        return instrument

    def _call(self, instrument: Instrument, hook: str, *args) -> None:
        """Run one instrument hook, isolating failures from the simulation
        (and from the other instruments — cost accounting must survive a
        buggy observer). :class:`~repro.errors.SanitizerError` is exempt:
        a strict-mode sanitizer's whole job is to abort the run."""
        try:
            getattr(instrument, hook)(*args)
        except SanitizerError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self.instrument_errors.append((instrument, hook, exc))
            warnings.warn(
                f"instrument {type(instrument).__name__}.{hook} raised "
                f"{type(exc).__name__}: {exc}; detached from event stream "
                "for this call (see machine.instrument_errors)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _emit(self, hook: str, *args) -> None:
        """Dispatch ``hook`` to every instrument. Under a wall profiler each
        observer runs in its own ``observe.<type>`` scope, so its time is
        reported as its own row instead of inside the enclosing kernel."""
        wp = self._wall_profiler
        for instrument in list(self._instruments):
            if wp is None or instrument is wp:
                self._call(instrument, hook, *args)
            else:
                with wp.kernel(f"observe.{type(instrument).__name__}"):
                    self._call(instrument, hook, *args)

    @property
    def sanitizers(self) -> tuple[Instrument, ...]:
        """Attached sanitizer instruments (empty unless ``strict=`` or an
        explicit :mod:`repro.machine.sanitizer` attach)."""
        from repro.machine.sanitizer import SanitizerInstrument

        return tuple(
            i for i in self._instruments if isinstance(i, SanitizerInstrument)
        )

    @property
    def ledger(self) -> CostLedger:
        """The machine's cost ledger, charged inline by every send."""
        return self._ledger

    @ledger.setter
    def ledger(self, value: CostLedger) -> None:
        self._ledger = value

    @property
    def tracer(self) -> CongestionTracer | None:
        """The attached :class:`CongestionTracer`, or ``None``.

        Assigning a tracer wraps it in a
        :class:`~repro.machine.instrumentation.TracerInstrument` and
        attaches it; assigning ``None`` detaches. (Kept for backwards
        compatibility with ``attach_tracer`` — new code can attach any
        instrument directly.)
        """
        return self._tracer_instrument.tracer if self._tracer_instrument else None

    @tracer.setter
    def tracer(self, tracer: CongestionTracer | None) -> None:
        if self._tracer_instrument is not None:
            self.detach(self._tracer_instrument)
        if tracer is not None:
            self.attach(TracerInstrument(tracer))

    @property
    def wall_profiler(self) -> KernelWallProfiler | None:
        """The attached :class:`~repro.machine.wallclock.KernelWallProfiler`,
        or ``None`` (attach one with ``machine.attach(profiler)``)."""
        return self._wall_profiler

    def profile_kernel(self, name: str):
        """Scope for spatial kernels to attribute wall time under ``name``.

        Returns a context manager: a real timing scope when a
        :class:`~repro.machine.wallclock.KernelWallProfiler` is attached, a
        shared no-op otherwise — so kernels can wrap their hot bodies
        unconditionally at the cost of one attribute load.
        """
        wp = self._wall_profiler
        if wp is None:
            return NULL_SCOPE
        return wp.kernel(name)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def positions(self) -> np.ndarray:
        """``(n, 2)`` grid coordinates of each processor."""
        return np.stack([self._x, self._y], axis=1)

    def manhattan(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Distances between processor id arrays under the machine's metric
        (no charging). Named after the model's default; ``metric`` may
        select L∞ instead."""
        dx = np.abs(self._x[src] - self._x[dst])
        dy = np.abs(self._y[src] - self._y[dst])
        if self.metric == "chebyshev":
            return np.maximum(dx, dy)
        return dx + dy

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #

    def send(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        combiner: str | None = None,
    ) -> np.ndarray | None:
        """Deliver one message per (src[i], dst[i]) pair; returns the payload.

        ``values`` (optional) is the per-message payload, one entry per
        pair; it is returned unchanged so call sites read naturally
        (``received = m.send(src, dst, vals[src])``). Payload movement is
        the caller's job — the machine only does the accounting. (Under
        delivery-order fuzzing — ``permute_delivery=`` — the returned
        payload is instead permuted within same-destination groups.)

        ``combiner`` (optional) declares that multiple deliveries to one
        destination in this step are reduced with the named associative
        operator (``"sum"``, ``"max"``, …). It changes no accounting; it is
        metadata on the emitted :class:`StepEvent` that whitelists the step
        for the write-race sanitizer's EREW/CREW policies.

        Self-messages (``src == dst``) are local work: free and depth-less,
        consistent with energy being a property of *communication*.

        Depth accounting honours the model's O(1)-messages-per-round rule
        (see :func:`advance_clocks`): sends and receives both serialize, so
        a vertex talking to Θ(Δ) neighbours directly costs Θ(Δ) depth —
        which is precisely why the paper's §III-D virtual trees exist.

        Each call that charges at least one remote message charges the
        ledger and, when instruments are attached, emits exactly one
        :class:`StepEvent` to each of them — the single hook point on this
        hot path.
        """
        src = as_index_array(np.atleast_1d(src), name="src")
        dst = as_index_array(np.atleast_1d(dst), name="dst")
        if src.shape != dst.shape:
            raise MachineStateError(
                f"send endpoints must align: {src.shape} vs {dst.shape}"
            )
        check_in_range(src, 0, self.n, name="src")
        check_in_range(dst, 0, self.n, name="dst")
        if values is not None and len(np.atleast_1d(values)) != len(src):
            raise MachineStateError("payload length must match endpoint count")
        remote = src != dst
        if remote.any():
            wp = self._wall_profiler
            t0 = wp.clock() if wp is not None else 0
            rs, rd = src[remote], dst[remote]
            dist = self.manhattan(rs, rd)
            depth_before = self._max_clock
            if wp is not None:
                t1 = wp.clock()
                wp.rec("send.distances", t1 - t0, messages=len(rs))
            adv = advance_clocks(self.clock, rs, rd)
            # clocks only grow in this method, so the max is maintainable
            # incrementally from the entries just touched (O(k), not O(n))
            self._max_clock = max(self._max_clock, adv.max_clock)
            energy = int(dist.sum())
            self._ledger.charge(energy, len(rs))
            if wp is not None:
                t2 = wp.clock()
                wp.rec("send.clock_advance", t2 - t1)
            if self._instruments:
                rs.setflags(write=False)
                rd.setflags(write=False)
                dist.setflags(write=False)
                payload = None
                if values is not None:
                    payload = np.atleast_1d(np.asarray(values))[remote]
                    payload.setflags(write=False)
                event = StepEvent(
                    step=self._step_index,
                    phases=tuple(self._phase_stack),
                    src=rs,
                    dst=rd,
                    distances=dist,
                    energy=energy,
                    messages=len(rs),
                    depth_before=depth_before,
                    depth_after=self._max_clock,
                    metric=self.metric,
                    payload=payload,
                    combiner=combiner,
                    wall_ns=(wp.clock() - t0) if wp is not None else None,
                )
                if wp is not None:
                    wp.rec("send.event_assembly", wp.clock() - t2)
                self._emit("on_step", event)
            self._step_index += 1
            if self._delivery_rng is not None and values is not None:
                values = self._permute_delivery(dst, remote, values)
        return values

    def _permute_delivery(
        self, dst: np.ndarray, remote: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Permute the returned payload within equal-destination groups.

        A receiver of k messages sees them in arbitrary order on a real
        spatial machine; this reproduces that ambiguity for the *caller*
        (accounting is untouched — it is order-independent by construction).
        """
        vals = np.array(np.atleast_1d(values), copy=True)
        ridx = np.flatnonzero(remote)
        rd = dst[ridx]
        det = np.argsort(rd, kind="stable")
        rnd = np.lexsort((self._delivery_rng.random(len(rd)), rd))
        vals[ridx[det]] = np.asarray(np.atleast_1d(values))[ridx[rnd]]
        return vals

    # -- batched messaging --------------------------------------------- #

    def send_batch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        rounds: np.ndarray | list[int] | None = None,
        combiner: str | None = None,
        dist: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Deliver a batch of messages spanning one or more dependency rounds.

        ``src``/``dst``/``values`` are laid out exactly as for :meth:`send`.
        ``rounds`` (optional) is a CSR-style offset array ``[0, ..., k]``
        partitioning the batch into *sequential* dependency rounds: round
        ``r`` is the slice ``rounds[r]:rounds[r+1]``, and round ``r+1``
        depends on round ``r`` (its chains are computed against the clocks
        round ``r`` left behind). Omitting ``rounds`` means one round — the
        whole batch is concurrent. Empty rounds are legal and free.

        ``dist`` (optional) is the caller-precomputed per-message distance
        under this machine's metric, aligned with ``src``/``dst``. It is a
        pure wall-clock optimization for callers that replay cached message
        plans (the kernels in :mod:`repro.spatial.batched_messaging`): the
        batched engine charges the given distances instead of recomputing
        them, the scalar engine ignores it. Callers are trusted to pass
        ``self.manhattan(src, dst)`` exactly — anything else corrupts the
        energy ledger.

        The accounting contract is engine-independent: ``send_batch`` is
        *defined* as performing one :meth:`send` per non-empty round, in
        order. Under ``engine="scalar"`` that is literally what runs. Under
        ``engine="batched"`` a vectorized path produces the same ledger
        totals, clock state and step count while emitting a single
        aggregated :class:`StepEvent` (with its ``rounds`` field set)
        instead of one event per round — so instruments see batches without
        per-round Python callbacks.

        Returns the payload (permuted within per-round same-destination
        groups under delivery fuzzing), or ``None`` for valueless sends.
        """
        src = as_index_array(np.atleast_1d(src), name="src")
        dst = as_index_array(np.atleast_1d(dst), name="dst")
        if src.shape != dst.shape:
            raise MachineStateError(
                f"send endpoints must align: {src.shape} vs {dst.shape}"
            )
        k = len(src)
        if rounds is None:
            offsets = np.array([0, k], dtype=np.int64)
        else:
            offsets = np.asarray(rounds, dtype=np.int64)
            if (
                offsets.ndim != 1
                or len(offsets) < 2
                or offsets[0] != 0
                or offsets[-1] != k
                or bool(np.any(np.diff(offsets) < 0))
            ):
                raise MachineStateError(
                    f"rounds must be monotone offsets [0, ..., {k}], got {rounds!r}"
                )
        if dist is not None and len(dist) != k:
            raise MachineStateError("dist length must match endpoint count")
        if self.engine == "batched":
            check_in_range(src, 0, self.n, name="src")
            check_in_range(dst, 0, self.n, name="dst")
            return self._send_batched(src, dst, values, offsets, combiner, dist)
        # scalar reference path: one send() per non-empty round
        if values is None:
            for i in range(len(offsets) - 1):
                a, b = int(offsets[i]), int(offsets[i + 1])
                if b > a:
                    self.send(src[a:b], dst[a:b], None, combiner=combiner)
            return None
        vals = np.atleast_1d(np.asarray(values))
        if len(vals) != k:
            raise MachineStateError("payload length must match endpoint count")
        if len(offsets) == 2:
            return self.send(src, dst, vals, combiner=combiner)
        out = np.array(vals, copy=True)
        for i in range(len(offsets) - 1):
            a, b = int(offsets[i]), int(offsets[i + 1])
            if b > a:
                out[a:b] = self.send(src[a:b], dst[a:b], vals[a:b], combiner=combiner)
        return out

    def send_plan(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        rounds: np.ndarray,
        dist: np.ndarray | None = None,
        combiner: str | None = None,
        plan_ref: tuple[object, ...] | None = None,
    ) -> np.ndarray | None:
        """Trusted replay of a cached, pre-validated message plan.

        Identical accounting to :meth:`send_batch`, but skips the per-call
        endpoint validation: callers (the plan caches in
        :mod:`repro.spatial.batched_messaging` and the treefix frontier
        hops) guarantee ``src``/``dst`` are aligned int64 processor ids in
        range with ``src[i] != dst[i]`` everywhere, and ``rounds`` is a
        monotone CSR offset array ``[0, ..., len(src)]``. Under the scalar
        engine this falls back to the validated :meth:`send_batch` path.

        ``plan_ref`` (optional) names the *cached* plan these arrays came
        from — e.g. ``("sort_network", m, descending)``. It rides on the
        emitted :class:`StepEvent` as metadata for the workload-plan
        recorder, which stores the reference instead of materializing the
        (potentially huge) message arrays; replay resolves it through the
        machine's plan cache. It changes no accounting.
        """
        if self.engine != "batched":
            return self.send_batch(
                src, dst, values, rounds=rounds, combiner=combiner, dist=dist
            )
        return self._send_batched(
            src, dst, values, rounds, combiner, dist, all_remote=True, plan_ref=plan_ref
        )

    def _send_batched(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None,
        offsets: np.ndarray,
        combiner: str | None,
        dist: np.ndarray | None = None,
        *,
        all_remote: bool = False,
        plan_ref: tuple[object, ...] | None = None,
    ) -> np.ndarray | None:
        """Vectorized engine behind :meth:`send_batch` (``engine="batched"``).

        ``all_remote=True`` (the :meth:`send_plan` contract) asserts every
        message has distinct endpoints, skipping the self-message scan.
        """
        wp = self._wall_profiler
        t0 = wp.clock() if wp is not None else 0
        vals: np.ndarray | None = None
        if values is not None:
            vals = np.atleast_1d(np.asarray(values))
            if len(vals) != len(src):
                raise MachineStateError("payload length must match endpoint count")
        if all_remote:
            remote = None
            n_remote = len(src)
            rs, rd = src, dst
            roffsets = offsets
        else:
            remote = src != dst
            n_remote = int(np.count_nonzero(remote))
            if n_remote == len(src):
                rs, rd = src, dst
                roffsets = offsets
            else:
                rs, rd = src[remote], dst[remote]
                keep = np.concatenate([[0], np.cumsum(remote, dtype=np.int64)])
                roffsets = keep[offsets]
                if dist is not None:
                    dist = dist[remote]
        if n_remote == 0:
            return values
        nonempty = np.diff(roffsets) > 0
        if not nonempty.all():
            roffsets = np.concatenate([roffsets[:1], roffsets[1:][nonempty]])
        if wp is not None:
            t1 = wp.clock()
            wp.rec("batch.remote_filter", t1 - t0, messages=n_remote)
        if dist is None:
            dist = self.manhattan(rs, rd)
            if wp is not None:
                t2 = wp.clock()
                wp.rec("batch.distances", t2 - t1)
                t1 = t2
        depth_before = self._max_clock
        # called through the module global, so it can be wrapped there
        adv = advance_clocks_batch(self.clock, rs, rd, roffsets, self._clock_buffers())
        self._max_clock = max(self._max_clock, adv.max_clock)
        energy = int(dist.sum())
        self._ledger.charge(energy, n_remote)
        if wp is not None:
            t2 = wp.clock()
            wp.rec("batch.clock_advance", t2 - t1)
            t1 = t2
        if self._instruments:
            # freeze *views* — in the all-remote case rs/rd/dist/vals/roffsets
            # can alias caller-owned arrays whose writeability must survive
            ev_src, ev_dst, ev_off = rs.view(), rd.view(), roffsets.view()
            ev_dist = dist.view()
            ev_src.setflags(write=False)
            ev_dst.setflags(write=False)
            ev_off.setflags(write=False)
            ev_dist.setflags(write=False)
            payload = None
            if vals is not None:
                payload = (vals[remote] if n_remote != len(src) else vals).view()
                payload.setflags(write=False)
            event = StepEvent(
                step=self._step_index,
                phases=tuple(self._phase_stack),
                src=ev_src,
                dst=ev_dst,
                distances=ev_dist,
                energy=energy,
                messages=n_remote,
                depth_before=depth_before,
                depth_after=self._max_clock,
                metric=self.metric,
                payload=payload,
                combiner=combiner,
                rounds=ev_off,
                plan_ref=plan_ref,
                wall_ns=(wp.clock() - t0) if wp is not None else None,
            )
            if wp is not None:
                wp.rec(
                    "batch.event_assembly", wp.clock() - t1,
                    messages=n_remote, energy=energy,
                )
            self._emit("on_step", event)
        self._step_index += adv.rounds
        if self._delivery_rng is not None and vals is not None:
            if remote is None:
                remote = np.ones(len(src), dtype=bool)
            out = np.array(vals, copy=True)
            for i in range(len(offsets) - 1):
                a, b = int(offsets[i]), int(offsets[i + 1])
                if b <= a:
                    continue
                seg_remote = remote[a:b]
                if seg_remote.any():
                    out[a:b] = self._permute_delivery(dst[a:b], seg_remote, vals[a:b])
            return out
        return values

    def _clock_buffers(self) -> ClockScratch:
        """The machine's own :class:`ClockScratch`, allocated on first use."""
        buf = self._clock_scratch
        if buf is None:
            buf = self._clock_scratch = ClockScratch(self.n)
            if self._wall_profiler is not None:
                self._wall_profiler.alloc(
                    "machine.clock_scratch", buf.count.nbytes + buf.head.nbytes
                )
        return buf

    def charge_external(self, energy: int, messages: int) -> None:
        """Fold a bill from outside this machine's event stream into the
        ledger (e.g. a subroutine that ran on its own machine, charged by
        proxy). This is the *sanctioned* way to add external costs — lint
        rule REPRO005 flags direct ``ledger`` mutation outside the machine
        package.
        """
        if energy < 0 or messages < 0:
            raise ValidationError(
                f"external charges must be non-negative, got energy={energy}, "
                f"messages={messages}"
            )
        self._ledger.charge(int(energy), int(messages))

    def gather_from(self, dst: np.ndarray, src: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Convenience: ``dst[i]`` receives ``values[src[i]]`` (charged send)."""
        src = as_index_array(np.atleast_1d(src), name="src")
        payload = values[src]
        self.send(src, dst, payload)
        return payload

    @property
    def depth(self) -> int:
        """Current computation depth: the longest dependent message chain."""
        return self._max_clock

    @property
    def energy(self) -> int:
        """Total energy charged so far."""
        return self._ledger.energy

    @property
    def messages(self) -> int:
        """Total number of (remote) messages charged so far."""
        return self._ledger.messages

    @property
    def steps(self) -> int:
        """Number of charged bulk sends so far (the step-event count)."""
        return self._step_index

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseCost]:
        """Phase context manager: attributes costs and notifies instruments.

        Yields the ledger's :class:`PhaseCost` bucket for ``name``, so
        ``with m.phase("x") as p`` reads the phase's bill. The ledger opens
        and closes the phase before any instrument hears of it.
        """
        self._phase_stack.append(name)
        bucket = self._ledger.begin_phase(name, self._max_clock)
        self._emit("on_phase_enter", name, self._max_clock)
        try:
            yield bucket
        finally:
            self._phase_stack.pop()
            self._ledger.end_phase(name, self._max_clock)
            self._emit("on_phase_exit", name, self._max_clock)

    @property
    def phase_stack(self) -> tuple[str, ...]:
        """The currently active phase names, outermost first."""
        return tuple(self._phase_stack)

    def snapshot(self) -> dict[str, int]:
        """Current (energy, messages, depth) triple as a dict."""
        return {"energy": self.energy, "messages": self.messages, "depth": self.depth}

    def reset_costs(self) -> None:
        """Zero the ledger, clocks and step counter (keeps placement,
        registers and attached instruments)."""
        self.clock[:] = 0
        self._max_clock = 0
        self._step_index = 0
        self.ledger = CostLedger()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpatialMachine(n={self.n}, side={self.side}, curve={self.curve.name!r}, "
            f"energy={self.energy}, depth={self.depth})"
        )
