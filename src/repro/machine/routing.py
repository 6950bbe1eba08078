"""Permutation routing and spatial sorting (paper §II-A).

* :func:`permute` — a global permutation: every processor sends its word
  directly to its destination. One message per word, depth 1, energy
  bounded by ``n * 2 * side = Θ(n^{3/2})``; the paper cites the matching
  ``Ω(n^{3/2})`` lower bound for worst-case permutations on a √n×√n grid.
* :func:`bitonic_sort` — Batcher's bitonic network over curve order:
  ``Θ(n^{3/2})`` energy and ``O(log² n)`` depth, matching the paper's
  "sorting takes Θ(n^{3/2}) energy and poly-logarithmic depth".

Sorting is deliberately *not* used by the light-first layout pipeline
(§IV), which the paper stresses must avoid sorting to reach near-linear
energy for its message kernels — but the pipeline's final embedding step is
a permutation, and the PRAM baselines lean on sort, so both live here.

Engine coverage: all three entry points route their bulk data movement
through :meth:`~repro.machine.SpatialMachine.send_batch` /
:meth:`~repro.machine.SpatialMachine.send_plan`, so under
``engine="batched"`` the Θ(n^{3/2}) sort/permute pipeline runs fully
vectorized. The compare-exchange rounds of Batcher's network depend only on
``(m, descending)`` (and the lane count ``n`` fixed by the machine), so
:func:`sort_network_plan` precomputes the whole round structure — partners,
directions, real-lane message endpoints and pre-gathered distances — once
per size and replays it as a multi-round :class:`SortNetworkPlan` with one
clock/energy pass per round. The scalar engine keeps the original
per-round ``send`` loop as the differential reference
(``tests/test_routing_equivalence.py`` pins identical results, ledger
totals, per-phase bills, depth clocks and step counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ValidationError
from repro.machine.machine import SpatialMachine
from repro.utils import as_index_array, check_in_range, next_power_of_two


@cost_contract(energy="sort_network_energy", depth="sort_network_depth", phase="permute", plan_safe=True)
def permute(machine: SpatialMachine, values: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    """Send ``values[i]`` from processor ``i`` to processor ``destinations[i]``.

    ``destinations`` must be a permutation of ``0..n-1`` (every processor
    receives exactly one word, respecting the O(1) in/out degree of a
    round). Returns the received array: ``out[destinations[i]] = values[i]``.
    """
    values = np.asarray(values)
    dest = as_index_array(destinations, name="destinations")
    n = machine.n
    if values.shape != (n,) or dest.shape != (n,):
        raise ValidationError("permute needs one value and one destination per processor")
    check_in_range(dest, 0, n, name="destinations")
    counts = np.bincount(dest, minlength=n)
    if counts.max() != 1:
        raise ValidationError("destinations must form a permutation (duplicate target)")
    src = np.arange(n, dtype=np.int64)
    machine.send_batch(src, dest, values)
    out = np.empty_like(values)
    out[dest] = values
    return out


def scatter(machine: SpatialMachine, src_ids: np.ndarray, dst_ids: np.ndarray,
            values: np.ndarray | None = None) -> None:
    """Arbitrary point-to-point round (thin charged wrapper over the engine).

    Unlike :func:`permute` this allows partial sends; the caller is
    responsible for keeping per-processor message counts O(1) per round.
    """
    machine.send_batch(src_ids, dst_ids, values)


# --------------------------------------------------------------------- #
# cached sort-network plans
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SortNetworkPlan:
    """Precomputed replay of Batcher's bitonic network for one lane count.

    The network's compare-exchange structure is a pure function of
    ``(m, descending)``: round ``(k, j)`` pairs lane ``i`` with ``i ^ j``
    and compares ascending iff bit ``k`` of the lower lane is clear. The
    *local* exchange arithmetic needs no stored arrays at all — partners
    are bit-``j`` neighbours, so each round's lanes fold into a strided
    ``(m/2j, 2, j)`` view and the comparator direction is a per-block
    pattern (see :func:`_run_network_batched`); virtual sentinel lanes
    resolve locally like any other. What the plan stores is the *charged*
    message replay — ``msg_src``/``msg_dst`` with pre-gathered per-message
    distances ``msg_dist`` and CSR round offsets ``msg_rounds``: two
    dependency rounds per network round (lower→upper, then upper→lower),
    restricted to exchanges whose both lanes are real processors (``< n``).
    Virtual exchanges charge nothing, exactly like the scalar reference
    path.

    Each message round is EREW by construction (a lane sits in exactly one
    comparator per round), so the batched engine replays the whole plan
    with one :meth:`~repro.machine.SpatialMachine.send_plan` call.
    """

    m: int
    n: int
    descending: bool
    rounds: int
    msg_src: np.ndarray
    msg_dst: np.ndarray
    msg_dist: np.ndarray
    msg_rounds: np.ndarray

    @property
    def messages(self) -> int:
        """Total charged messages of one full network replay."""
        return int(len(self.msg_src))


def sort_network_plan(machine: SpatialMachine, *, descending: bool = False) -> SortNetworkPlan:
    """The machine's cached :class:`SortNetworkPlan` for its lane count.

    Built on first use and memoized in the machine's plan cache under
    ``("sort_network", m, descending)`` — a second sort of the same size
    (and direction) skips network construction entirely and replays the
    cached structure. The cache survives :meth:`SpatialMachine.reset_costs`
    (plans depend only on the placement, which reset keeps).
    """
    m = next_power_of_two(machine.n)
    key = ("sort_network", m, descending)
    plan = machine.plan_cache.lookup(key)
    if plan is None:
        wp = machine.wall_profiler
        t0 = wp.clock() if wp is not None else 0
        plan = _build_sort_network_plan(machine, m, descending)
        machine.plan_cache[key] = plan
        if wp is not None:
            wp.rec("plan_build.sort_network", wp.clock() - t0, messages=plan.messages)
            wp.alloc(
                "plan.sort_network",
                plan.msg_src.nbytes + plan.msg_dst.nbytes
                + plan.msg_dist.nbytes + plan.msg_rounds.nbytes,
            )
    return cast(SortNetworkPlan, plan)


def _build_sort_network_plan(machine: SpatialMachine, m: int, descending: bool) -> SortNetworkPlan:
    """Materialize the full round structure (see :class:`SortNetworkPlan`)."""
    n = machine.n
    i = np.arange(m, dtype=np.int64)
    msg_src: list[np.ndarray] = []
    msg_dst: list[np.ndarray] = []
    msg_dist: list[np.ndarray] = []
    msg_sizes: list[int] = []
    rounds = 0
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            rounds += 1
            lo = i[(i & j) == 0]  # lower lane of each comparator (i < i ^ j)
            hi = lo | j
            # charge only exchanges where both lanes are real processors;
            # lo < hi, so the upper lane decides
            rl, rh = (lo, hi) if n == m else (lo[hi < n], hi[hi < n])
            if len(rl):
                d = machine.manhattan(rl, rh)
                msg_src.extend((rl, rh))
                msg_dst.extend((rh, rl))
                msg_dist.extend((d, d))
                msg_sizes.extend((len(rl), len(rl)))
            j //= 2
        k *= 2
    empty = np.empty(0, dtype=np.int64)
    return SortNetworkPlan(
        m=m,
        n=n,
        descending=descending,
        rounds=rounds,
        msg_src=np.concatenate(msg_src) if msg_src else empty,
        msg_dst=np.concatenate(msg_dst) if msg_dst else empty,
        msg_dist=np.concatenate(msg_dist) if msg_dist else empty,
        msg_rounds=np.concatenate([[0], np.cumsum(msg_sizes)]).astype(np.int64),
    )


def _run_network_batched(
    machine: SpatialMachine,
    plan: SortNetworkPlan,
    ext: np.ndarray,
    idx_payload: np.ndarray,
) -> None:
    """Replay a cached plan: charge every round in one vectorized batch,
    then run the (charge-free) compare-exchange arithmetic per round.

    The charged messages are payload-free — the scalar reference sends the
    evolving lane values, but accounting never depends on the payload (the
    same convention as the batched virtual reduce).

    The local exchange exploits the network's structure instead of gather
    arrays: round ``(k, j)`` pairs lane ``i`` with ``i ^ j``, so folding
    the lanes into a ``(m/2j, 2, j)`` view puts every comparator's lower
    lane at ``[:, 0, :]`` and upper lane at ``[:, 1, :]`` (bit ``j`` of
    the lane index is exactly the middle axis), and the direction bit
    ``(lo & k) == 0`` is constant per block row. All reads/writes are
    strided views — no index arrays at all.
    """
    if plan.messages:
        # the plan_ref lets a workload-plan recorder store this replay as a
        # reference into the machine's plan cache instead of materializing
        # the Θ(n log² n)-message arrays into the artifact
        machine.send_plan(
            plan.msg_src,
            plan.msg_dst,
            None,
            rounds=plan.msg_rounds,
            dist=plan.msg_dist,
            plan_ref=("sort_network", plan.m, plan.descending),
        )
    m = plan.m
    descending = plan.descending
    with machine.profile_kernel("sort_network.exchange"):
        k = 2
        while k <= m:
            j = k // 2
            while j >= 1:
                ev = ext.reshape(m // (2 * j), 2, j)
                pv = idx_payload.reshape(m // (2 * j), 2, j)
                a, b = ev[:, 0, :], ev[:, 1, :]
                # lower-lane index of block row g is g·2j + t with t < j ≤ k/2,
                # so (lo & k) == 0 depends on the row alone
                up = (np.arange(m // (2 * j), dtype=np.int64) * (2 * j) & k) == 0
                if descending:
                    up = ~up
                swap = np.where(up[:, None], a > b, a < b)
                ta = np.where(swap, b, a)
                b[...] = np.where(swap, a, b)
                a[...] = ta
                pa, pb = pv[:, 0, :], pv[:, 1, :]
                tp = np.where(swap, pb, pa)
                pb[...] = np.where(swap, pa, pb)
                pa[...] = tp
                j //= 2
            k *= 2


def _run_network_scalar(
    machine: SpatialMachine,
    ext: np.ndarray,
    idx_payload: np.ndarray,
    m: int,
    n: int,
    descending: bool,
) -> None:
    """The scalar reference: recompute each round and pay one ``send`` per
    direction — kept verbatim (independent of the plan cache) so the
    differential suite can catch plan-construction bugs."""
    with machine.profile_kernel("sort_network.scalar"):
        k = 2
        while k <= m:
            j = k // 2
            while j >= 1:
                i = np.arange(m, dtype=np.int64)
                partner = i ^ j
                lower = i < partner
                # direction of each comparator: ascending iff bit k of i is 0
                up = (i & k) == 0
                if descending:
                    up = ~up
                lo = i[lower]
                hi = partner[lower]
                # charge only exchanges where both lanes are real processors
                real = (lo < n) & (hi < n)
                if real.any():
                    rl, rh = lo[real], hi[real]
                    machine.send(rl, rh, ext[rl])
                    machine.send(rh, rl, ext[rh])
                a = ext[lo]
                b = ext[hi]
                pa = idx_payload[lo]
                pb = idx_payload[hi]
                swap = np.where(up[lower], a > b, a < b)
                ext[lo] = np.where(swap, b, a)
                ext[hi] = np.where(swap, a, b)
                idx_payload[lo] = np.where(swap, pb, pa)
                idx_payload[hi] = np.where(swap, pa, pb)
                j //= 2
            k *= 2


@cost_contract(energy="sort_network_energy", depth="sort_network_depth", phase="bitonic_sort", plan_safe=True)
def bitonic_sort(
    machine: SpatialMachine,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    *,
    descending: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort ``keys`` (with optional same-shape ``payload``) across processors.

    Batcher's bitonic sorting network executed over curve-index space.
    Every compare-exchange is two messages between the partners, so the
    measured energy is ``Θ(n^{3/2})`` and the depth ``O(log² n)``.

    Non-power-of-two sizes are handled by virtual padding with sentinel
    keys: exchanges with a virtual partner are resolved locally (the
    sentinel always loses/wins deterministically) and charge nothing, which
    matches running the network on the next power of two with the padded
    lanes optimized out.

    Under ``engine="batched"`` the network replays a cached
    :class:`SortNetworkPlan` through one multi-round
    :meth:`~repro.machine.SpatialMachine.send_plan`; the scalar engine runs
    the original per-round ``send`` loop. Both produce identical sorted
    output, payload provenance, energy, depth, messages and step counts.
    """
    keys = np.asarray(keys)
    n = machine.n
    if keys.shape != (n,):
        raise ValidationError(f"keys must be one word per processor, got {keys.shape}")
    if payload is not None:
        payload = np.asarray(payload)
        if payload.shape[0] != n:
            raise ValidationError("payload must have one row per processor")
    m = next_power_of_two(n)
    if not np.issubdtype(keys.dtype, np.integer):
        raise ValidationError("bitonic_sort sorts integer keys (the library's use case)")
    sentinel = np.iinfo(keys.dtype).max if not descending else np.iinfo(keys.dtype).min
    ext = np.full(m, sentinel, dtype=keys.dtype)
    ext[:n] = keys
    idx_payload = np.arange(m, dtype=np.int64)  # track provenance for payload

    if machine.engine == "batched":
        plan = sort_network_plan(machine, descending=descending)
        _run_network_batched(machine, plan, ext, idx_payload)
    else:
        _run_network_scalar(machine, ext, idx_payload, m, n, descending)

    sorted_keys = ext[:n]
    if payload is None:
        return sorted_keys, None
    src = idx_payload[:n]
    if (src >= n).any():  # pragma: no cover - sentinels sort past real keys
        raise ValidationError("internal: sentinel lane leaked into the real prefix")
    return sorted_keys, payload[src]
