"""Whole-workload plan recording (``repro.workload-plan/v3``).

The paper's workloads are structurally fixed once ``(workload, n, curve,
tree-shape class)`` is fixed: treefix, layout creation, batched LCA and the
sort network always exchange the same message sets for the same instance.
:class:`WorkloadPlanRecorder` exploits this by capturing one execution —
the ordered phase sequence, every CSR dependency round, the pre-gathered
distances, and the results — into a
:class:`WorkloadPlan` artifact that :func:`repro.plans.replay.replay`
re-executes as a straight-line sequence of vectorized
:meth:`~repro.machine.SpatialMachine.send_plan` calls.

Data-dependent phases (random-mate list ranking) are handled by
*epoch-bounded speculation*: every per-round RNG draw is recorded as an
:class:`EpochOp` carrying a digest of the coin-flip trace. Replay redraws
the coins from the plan's seed and validates each epoch *before* issuing
that round's message steps — the recorded rounds are exactly the rounds a
live run would take iff every digest matches, because all data dependence
in the ranking flows from the coins. On a mismatch the replay aborts with
:class:`~repro.errors.PlanSpeculationError` and the caller falls back to
live execution (and re-records).

The recorder is an ordinary :class:`~repro.machine.instrumentation.Instrument`:
it reads the same :class:`~repro.machine.instrumentation.StepEvent` stream
as every other observer, so a plan does not depend on who else is
watching. ``machine.plan_recorder`` points at the active recorder only so
the data-dependent kernels can report their coin epochs.

A plan's arrays are immutable once recorded: :mod:`repro.plans.store`
persists them as raw 64-byte-aligned columns and a load hands every
:class:`StepOp` back as read-only views into one payload buffer, so
nothing downstream of replay may write into ``src``/``dst``/``dist``/
``rounds``. Results are the exception — a load copies them out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import MachineStateError, ValidationError
from repro.machine.instrumentation import Instrument, StepEvent
from repro.machine.machine import SpatialMachine

PLAN_SCHEMA = "repro.workload-plan/v3"


def coin_digest(coins: np.ndarray) -> str:
    """Canonical digest of one epoch's coin-flip trace (bool array)."""
    return hashlib.sha256(np.ascontiguousarray(coins, dtype=bool).tobytes()).hexdigest()


def array_digest(*arrays: np.ndarray | None, scalars: tuple[Any, ...] = ()) -> str:
    """Order-sensitive digest over arrays + scalar context (dtype included)."""
    h = hashlib.sha256()
    for s in scalars:
        h.update(repr(s).encode())
        h.update(b"\x00")
    for a in arrays:
        if a is None:
            h.update(b"<none>")
            continue
        arr = np.ascontiguousarray(a)
        h.update(arr.dtype.str.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
        h.update(b"\x01")
    return h.hexdigest()


@dataclass(frozen=True)
class PhaseEnterOp:
    """Replay re-enters ``machine.phase(name)`` here."""

    name: str


@dataclass(frozen=True)
class PhaseExitOp:
    """Replay closes the matching phase context here."""

    name: str


@dataclass(frozen=True)
class StepOp:
    """One charged bulk send, materialized: replay issues it verbatim
    through :meth:`~repro.machine.SpatialMachine.send_plan`."""

    src: np.ndarray
    dst: np.ndarray
    rounds: np.ndarray  # CSR offsets [0, ..., len(src)], all rounds non-empty
    dist: np.ndarray
    combiner: str | None

    @property
    def messages(self) -> int:
        return int(len(self.src))

    @property
    def energy(self) -> int:
        return int(self.dist.sum())


@dataclass(frozen=True)
class PlanRefOp:
    """A charged send backed by a *machine-cached* plan, stored by
    reference: replay rebuilds the cached plan (deterministic, placement-
    only) instead of materializing its arrays into the artifact. The
    recorded totals double as a consistency check at replay time."""

    family: str  # e.g. "sort_network"
    params: tuple[Any, ...]  # remaining cache-key components, e.g. (m, descending)
    rounds: int
    messages: int
    energy: int


@dataclass(frozen=True)
class EpochOp:
    """One data-dependent RNG epoch: ``k`` coins at ``bias`` drawn under
    phase-stack context ``context``; replay must redraw the same trace."""

    context: str
    k: int
    bias: float
    digest: str


PlanOp = PhaseEnterOp | PhaseExitOp | StepOp | PlanRefOp | EpochOp


@dataclass
class WorkloadPlan:
    """A recorded whole-workload execution, ready for storage and replay.

    ``key`` — ``(workload, n, curve, shape)`` — names the structural class;
    ``tree_digest``/``input_digest`` pin the exact instance (replaying
    against different inputs raises :class:`~repro.errors.PlanKeyError`
    rather than silently returning the wrong results).
    """

    workload: str
    n: int
    curve: str
    side: int
    metric: str
    mode: str
    engine: str
    shape: str
    seed: int
    tree_digest: str
    input_digest: str
    totals: dict[str, int]  # energy, depth, messages, steps
    speculative: tuple[str, ...]  # phases flagged data-dependent at record time
    ops: list[PlanOp]
    results: dict[str, np.ndarray]
    result_scalars: dict[str, Any] = field(default_factory=dict)
    schema: str = PLAN_SCHEMA

    @property
    def key(self) -> tuple[str, int, str, str]:
        return (self.workload, self.n, self.curve, self.shape)

    @property
    def step_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, (StepOp, PlanRefOp)))

    @property
    def epoch_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, EpochOp))

    @property
    def messages(self) -> int:
        return sum(
            op.messages for op in self.ops if isinstance(op, (StepOp, PlanRefOp))
        )

    def nbytes(self) -> int:
        """Rough in-memory footprint of the materialized arrays."""
        total = 0
        for op in self.ops:
            if isinstance(op, StepOp):
                total += op.src.nbytes + op.dst.nbytes + op.dist.nbytes + op.rounds.nbytes
        for arr in self.results.values():
            total += arr.nbytes
        return total

    def describe(self) -> dict[str, Any]:
        """Summary row for ``repro plan ls`` and the store listing."""
        return {
            "workload": self.workload,
            "n": self.n,
            "curve": self.curve,
            "shape": self.shape,
            "seed": self.seed,
            "mode": self.mode,
            "step_ops": self.step_count,
            "epochs": self.epoch_count,
            "messages": self.messages,
            "energy": self.totals.get("energy", 0),
            "depth": self.totals.get("depth", 0),
            "speculative": list(self.speculative),
        }


class WorkloadPlanRecorder(Instrument):
    """Capture one workload execution on ``machine`` into a plan.

    Use as a context manager around the workload call::

        with WorkloadPlanRecorder(machine) as rec:
            result = treefix_sum(st, values, seed=seed)
        plan = rec.build(workload="treefix", ..., results={"out": result})

    Entering attaches the recorder to the machine's event stream (and
    claims ``machine.plan_recorder``, one recorder per machine); exiting
    detaches it. The algorithm-side hooks (:meth:`epoch`,
    :meth:`mark_speculative`) are called by the data-dependent kernels via
    ``machine.plan_recorder``.
    """

    def __init__(self, machine: SpatialMachine) -> None:
        self.machine = machine
        self.ops: list[PlanOp] = []
        self.speculative: set[str] = set()

    # -- lifecycle ----------------------------------------------------- #

    def __enter__(self) -> WorkloadPlanRecorder:
        if self.machine.plan_recorder is not None:
            raise MachineStateError("machine already has a plan recorder attached")
        self.machine.plan_recorder = self
        self.machine.attach(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.machine.detach(self)
        self.machine.plan_recorder = None

    # -- event stream --------------------------------------------------- #

    def on_phase_enter(self, name: str, depth: int) -> None:
        self.ops.append(PhaseEnterOp(name))

    def on_phase_exit(self, name: str, depth: int) -> None:
        self.ops.append(PhaseExitOp(name))

    def on_step(self, event: StepEvent) -> None:
        if event.plan_ref is not None:
            family, *params = event.plan_ref
            self.ops.append(
                PlanRefOp(
                    family=str(family),
                    params=tuple(params),
                    rounds=event.n_rounds,
                    messages=event.messages,
                    energy=event.energy,
                )
            )
            return
        offs = (
            np.array([0, event.messages], dtype=np.int64)
            if event.rounds is None
            else np.array(event.rounds, dtype=np.int64, copy=True)
        )
        self.ops.append(
            StepOp(
                src=np.array(event.src, dtype=np.int64, copy=True),
                dst=np.array(event.dst, dtype=np.int64, copy=True),
                rounds=offs,
                dist=np.array(event.distances, dtype=np.int64, copy=True),
                combiner=event.combiner,
            )
        )

    # -- algorithm hooks ------------------------------------------------ #

    def epoch(self, coins: np.ndarray, *, bias: float) -> None:
        """Record one data-dependent RNG epoch (a per-round coin draw).

        The context is the phase stack *above* the drawing phase, so the
        two embedded list-ranking passes of layout creation get independent
        replay oracles (each re-seeds from the workload seed).
        """
        stack = self.machine.phase_stack
        context = "/".join(stack[:-1]) if len(stack) > 1 else ""
        self.ops.append(
            EpochOp(
                context=context,
                k=int(len(coins)),
                bias=float(bias),
                digest=coin_digest(coins),
            )
        )

    def mark_speculative(self) -> None:
        """Flag the innermost active phase as data-dependent (speculative)."""
        stack = self.machine.phase_stack
        if not stack:
            raise MachineStateError("mark_speculative called outside any phase")
        self.speculative.add(stack[-1])

    # -- assembly ------------------------------------------------------- #

    def build(
        self,
        *,
        workload: str,
        shape: str,
        seed: int,
        mode: str,
        tree_digest: str,
        input_digest: str,
        results: dict[str, np.ndarray],
        result_scalars: dict[str, Any] | None = None,
    ) -> WorkloadPlan:
        """Assemble the plan from the recorded ops + the machine's totals.

        Raises :class:`~repro.errors.MachineStateError` if any of this
        recorder's hooks raised: the machine isolates instrument failures,
        so the op stream would be short of what the machine charged.
        """
        failed = [hook for inst, hook, _ in self.machine.instrument_errors if inst is self]
        if failed:
            raise MachineStateError(
                f"plan recorder hook(s) {sorted(set(failed))} raised during "
                "recording; the op stream is incomplete (see machine.instrument_errors)"
            )
        if not isinstance(seed, (int, np.integer)):
            raise ValidationError(
                f"plan recording needs an explicit integer seed, got {seed!r} "
                "(replay must be able to redraw speculative epochs)"
            )
        m = self.machine
        snap = m.snapshot()
        return WorkloadPlan(
            workload=workload,
            n=m.n,
            curve=m.curve.name,
            side=m.side,
            metric=m.metric,
            mode=mode,
            engine=m.engine,
            shape=shape,
            seed=int(seed),
            tree_digest=tree_digest,
            input_digest=input_digest,
            totals={
                "energy": snap["energy"],
                "depth": snap["depth"],
                "messages": snap["messages"],
                "steps": m.steps,
            },
            speculative=tuple(sorted(self.speculative)),
            ops=list(self.ops),
            results={k: np.array(v, copy=True) for k, v in results.items()},
            result_scalars=dict(result_scalars or {}),
        )
