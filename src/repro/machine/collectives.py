"""Foundational spatial collectives (paper §II-A).

Broadcast, reduce, all-reduce, and parallel prefix sum with the bounds the
paper quotes: **O(n) energy and O(log n) depth** (the scan is O(log n) here
rather than generic poly-log because the tree is laid out along the
machine's space-filling curve).

All collectives run over a *doubling tree in curve-index space*: at level
``k`` partners are ``2^k`` apart in curve order, hence ``O(sqrt(2^k))``
apart on the grid, so level energy is ``n / 2^k * O(sqrt(2^k))`` and the
geometric series sums to O(n). This is exactly why the machine places
processors along a distance-bound curve.

The scan is a Blelloch up/down-sweep in *right-edge* layout (partial sums
live at the last index of their block) so every processor stores O(1)
words; non-power-of-two sizes use the last real index of a block as a
surrogate right edge, which only shortens messages.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import cast

import numpy as np

from repro.errors import ValidationError
from repro.machine.machine import RoundPlan, SpatialMachine

Op = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check_values(machine: SpatialMachine, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != (machine.n,):
        raise ValidationError(
            f"collective values must be one word per processor ({machine.n}), "
            f"got shape {values.shape}"
        )
    return values.copy()


def _doubling_levels(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The doubling tree's levels, leaves first, as ``(left, right)`` pairs.

    At level ``k`` (half-block ``2^k``) ``left`` is the right edge of each
    block's full left half and ``right`` the block's surrogate right edge
    (its last real index). The up-sweeps send left → right level by level;
    the down-sweeps walk the same levels in reverse, right → left.
    """
    half = 1
    while half < n:
        starts = np.arange(0, n - half, 2 * half, dtype=np.int64)
        yield starts + half - 1, np.minimum(starts + 2 * half - 1, n - 1)
        half *= 2


def _upsweep(machine: SpatialMachine, acc: np.ndarray, op: Op) -> None:
    """Fold block sums to surrogate right edges; leaves left-half sums intact."""
    for left, right in _doubling_levels(machine.n):
        machine.send_batch(left, right, acc[left])
        acc[right] = op(acc[left], acc[right])


def reduce(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, root: int = 0) -> np.generic:
    """Reduce ``values`` with ``op``; the scalar result ends at ``root``.

    O(n) energy, O(log n) depth (§II-A). Returns the reduced scalar.
    """
    acc = _check_values(machine, values)
    _upsweep(machine, acc, op)
    total = acc[machine.n - 1]
    if root != machine.n - 1:
        machine.send_batch(machine.n - 1, root, total)
    return total


def broadcast(machine: SpatialMachine, value: int | np.generic, *, root: int = 0) -> np.ndarray:
    """Broadcast a scalar from ``root`` to every processor.

    O(n) energy, O(log n) depth (§II-A). Returns the length-``n`` array of
    received copies.
    """
    n = machine.n
    if not 0 <= root < n:
        raise ValidationError(f"root must be a processor id in [0, {n})")
    out = np.full(n, value)
    if n == 1:
        return out
    if root != n - 1:
        machine.send_batch(root, n - 1, value)
    # Downsweep of the reduce tree: each surrogate right edge forwards the
    # value to the right edge of its block's left half. Level k moves
    # n / 2^k messages of curve gap <= 2^k, i.e. O(sqrt(2^k)) grid distance,
    # so the level energies form a geometric O(n) series.
    for left, right in reversed(list(_doubling_levels(n))):
        machine.send_batch(right, left, out[right])
    return out


def allreduce(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add) -> np.ndarray:
    """Reduce then broadcast: every processor ends with the total.

    O(n) energy, O(log n) depth (§II-A: "an all-reduce ... has the same
    energy and depth bounds").
    """
    total = reduce(machine, values, op=op, root=0)
    return broadcast(machine, total, root=0)


def exclusive_scan(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, identity: int = 0) -> np.ndarray:
    """Exclusive parallel prefix: ``out[i] = values[0] ⊕ ... ⊕ values[i-1]``.

    Blelloch two-sweep scan over the curve-order doubling tree:
    O(n) energy, O(log n) depth.
    """
    acc = _check_values(machine, values)
    n = machine.n
    if n == 1:
        acc[0] = identity
        return acc
    _upsweep(machine, acc, op)
    # downsweep: replace the total with the identity, then push exclusive
    # prefixes down; left-half sums were preserved at left edges.
    acc[n - 1] = identity
    for left, right in reversed(list(_doubling_levels(n))):
        # swap-and-combine: left gets the block prefix, right gets
        # block-prefix ⊕ left-half-sum (two dependency rounds, batched)
        k = len(left)
        machine.send_batch(
            np.concatenate([right, left]),
            np.concatenate([left, right]),
            np.concatenate([acc[right], acc[left]]),
            rounds=np.array([0, k, 2 * k]),
        )
        block_prefix = acc[right].copy()
        left_sum = acc[left].copy()
        acc[left] = block_prefix
        acc[right] = op(block_prefix, left_sum)
    return acc


def inclusive_scan(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, identity: int = 0) -> np.ndarray:
    """Inclusive parallel prefix: ``out[i] = values[0] ⊕ ... ⊕ values[i]``."""
    values = np.asarray(values)
    ex = exclusive_scan(machine, values, op=op, identity=identity)
    return op(ex, values)


def _barrier_plan(machine: SpatialMachine) -> RoundPlan:
    """The all-reduce of :func:`allreduce` with root 0 as one round plan:
    the up-sweep, the two root sends and the down-sweep (``n > 1``)."""
    levels = list(_doubling_levels(machine.n))
    last, root = np.array([machine.n - 1]), np.array([0])
    rounds = [*levels, (last, root), (root, last)]
    rounds += [(right, left) for left, right in reversed(levels)]
    offsets = np.cumsum([0] + [len(s) for s, _ in rounds], dtype=np.int64)
    return RoundPlan.build(
        machine,
        np.concatenate([s for s, _ in rounds]),
        np.concatenate([d for _, d in rounds]),
        offsets,
    )


def barrier(machine: SpatialMachine) -> None:
    """Global synchronization (paper §VI-C): an all-reduce of a token.

    After the barrier every processor's dependency clock is at least the
    pre-barrier maximum, so later messages from any processor are ordered
    after everything before the barrier. O(n) energy, O(log n) depth.

    The token's rounds depend only on ``n``, so they are compiled once per
    machine into its plan cache and replayed with one
    :meth:`~repro.machine.SpatialMachine.send_plan`.
    """
    if machine.n > 1:
        plan = machine.plan_cache.lookup(("barrier",))
        if plan is None:
            plan = machine.plan_cache[("barrier",)] = _barrier_plan(machine)
        plan = cast(RoundPlan, plan)
        machine.send_plan(plan.src, plan.dst, rounds=plan.rounds, dist=plan.dist)
    # the broadcast already raised every clock to the root's chain; make the
    # semantics explicit and exact:
    machine.clock[:] = machine.clock.max()
