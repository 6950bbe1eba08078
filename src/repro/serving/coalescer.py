"""Cross-user LCA query coalescing: windows, dedup, demultiplexing.

The paper's batched LCA (§VI-C) answers a query batch with per-layer
range broadcasts over the heavy-light subtree cover. Those sweeps are a
function of the *layout*, not of the batch: a layer's cover subtrees
broadcast whether one query or ten thousand ride on them. Merging every
user's queries arriving in a time window into **one** ``lca_batch`` pass
therefore pays the sweep energy once instead of once per user — a
model-level (energy/depth) win, not just wall-clock amortization.

This module holds the two halves of that mechanism:

* the **pure batch algebra** — :func:`plan_window` merges per-request
  query arrays, canonicalizes ``(u, v)`` (LCA is symmetric), dedupes
  repeated pairs across users via one packed ``np.unique``, and splits
  oversized merged batches into ``max_batch``-sized chunks;
  :func:`scatter_answers` demultiplexes the unique answers back into one
  array per request. Pure functions over arrays — no threads — so the
  edge cases (empty window, duplicates, oversize splits) are unit-testable
  without timing.
* the **windowed queue** — :class:`WindowedQueue` is the admission-
  controlled request queue the serving worker drains: bounded size
  (overflow sheds with :class:`~repro.errors.ServeQueueFullError`, the
  HTTP 429), a time/size window collector for LCA requests, FIFO for
  non-coalescable ops, and a graceful drain that flushes everything
  already admitted while refusing newcomers
  (:class:`~repro.errors.ServeDrainingError`, the HTTP 503).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ServeDrainingError, ServeQueueFullError, ValidationError

#: ops the window collector coalesces (everything else runs FIFO, solo)
COALESCABLE_OPS = ("lca",)


# --------------------------------------------------------------------------- #
# pure batch algebra
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CoalescePlan:
    """One window's merged, deduplicated, chunked query batch.

    ``us``/``vs`` hold the unique canonical pairs of the whole window;
    ``chunk_offsets`` is a CSR table splitting them into ``<= max_batch``
    slices (one ``lca_batch`` call each); ``inverse`` maps every original
    query (requests concatenated in submission order) to its unique-pair
    index; ``request_offsets`` is the CSR table of that concatenation.
    """

    us: np.ndarray
    vs: np.ndarray
    chunk_offsets: np.ndarray
    inverse: np.ndarray
    request_offsets: np.ndarray

    @property
    def num_unique(self) -> int:
        return len(self.us)

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_offsets) - 1

    @property
    def total_queries(self) -> int:
        return len(self.inverse)

    @property
    def duplicates_saved(self) -> int:
        """Queries answered by another pair's (identical) answer."""
        return self.total_queries - self.num_unique

    def chunks(self):
        """Yield the per-call ``(us, vs)`` slices, in order."""
        for i in range(self.num_chunks):
            a, b = int(self.chunk_offsets[i]), int(self.chunk_offsets[i + 1])
            yield self.us[a:b], self.vs[a:b]


def plan_window(
    queries: list[tuple[np.ndarray, np.ndarray]], *, max_batch: int
) -> CoalescePlan:
    """Merge per-request ``(us, vs)`` arrays into one deduplicated plan.

    ``LCA(u, v) = LCA(v, u)``, so pairs are canonicalized endpoint-sorted
    before dedup — two users asking the same question in either order
    share one answer. An empty ``queries`` list (or all-empty arrays)
    yields a zero-chunk plan; a merged batch larger than ``max_batch``
    unique pairs splits into multiple chunks so one window never exceeds
    the configured per-call ceiling.
    """
    if max_batch < 1:
        raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
    sizes = [len(u) for u, _ in queries]
    request_offsets = np.cumsum([0] + sizes, dtype=np.int64)
    if sum(sizes) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return CoalescePlan(
            us=empty, vs=empty,
            chunk_offsets=np.zeros(1, dtype=np.int64),
            inverse=empty, request_offsets=request_offsets,
        )
    all_us = np.concatenate([np.asarray(u, dtype=np.int64) for u, _ in queries])
    all_vs = np.concatenate([np.asarray(v, dtype=np.int64) for _, v in queries])
    lo = np.minimum(all_us, all_vs)
    hi = np.maximum(all_us, all_vs)
    # pack the canonical pair into one int64 key: hi < 2^31 always holds
    # (a grid of n processors), so (lo << 31) | hi is collision-free
    if hi.size and int(hi.max()) >= (1 << 31):  # pragma: no cover - 2^31 vertices
        raise ValidationError("coalescer supports vertex ids < 2^31")
    keys = (lo << np.int64(31)) | hi
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    us = (unique_keys >> np.int64(31)).astype(np.int64)
    vs = (unique_keys & np.int64((1 << 31) - 1)).astype(np.int64)
    bounds = list(range(0, len(us), max_batch)) + [len(us)]
    return CoalescePlan(
        us=us, vs=vs,
        chunk_offsets=np.asarray(bounds, dtype=np.int64),
        inverse=inverse.astype(np.int64),
        request_offsets=request_offsets,
    )


def scatter_answers(plan: CoalescePlan, unique_answers: np.ndarray) -> list[np.ndarray]:
    """Demultiplex the unique-pair answers into one array per request."""
    unique_answers = np.asarray(unique_answers, dtype=np.int64)
    if len(unique_answers) != plan.num_unique:
        raise ValidationError(
            f"expected {plan.num_unique} unique answers, got {len(unique_answers)}"
        )
    per_query = unique_answers[plan.inverse] if plan.total_queries else unique_answers
    off = plan.request_offsets
    return [per_query[int(off[i]):int(off[i + 1])] for i in range(len(off) - 1)]


# --------------------------------------------------------------------------- #
# requests and the windowed queue
# --------------------------------------------------------------------------- #


@dataclass
class PendingRequest:
    """One client request in flight: payload in, result/error + latency out."""

    op: str
    payload: dict[str, Any]
    enqueued: float = field(default_factory=time.monotonic)
    done: threading.Event = field(default_factory=threading.Event)
    result: Any = None
    error: Exception | None = None
    latency_s: float = 0.0

    @property
    def num_queries(self) -> int:
        us = self.payload.get("us")
        return len(us) if us is not None else 1

    def finish(self, result: Any = None, error: Exception | None = None) -> None:
        """Complete the request (worker side); stamps the queue+service latency."""
        self.result = result
        self.error = error
        self.latency_s = time.monotonic() - self.enqueued
        self.done.set()

    def wait(self, timeout: float | None = None) -> Any:
        """Block for the answer (client side); re-raises the worker's error."""
        if not self.done.wait(timeout):
            raise TimeoutError(f"{self.op} request not answered within {timeout}s")
        if self.error is not None:
            raise self.error
        return self.result


class WindowedQueue:
    """Bounded request queue with time/size-windowed LCA collection.

    ``submit`` is called from many client threads; ``next_work`` from the
    single worker that owns the machine. Coalescable requests (``lca``)
    gather into windows closed by whichever comes first — ``window_s``
    elapsing since the oldest request was enqueued, or ``max_batch``
    queries collected; other ops dispatch FIFO one at a time. Between the
    two classes arrival order decides: the head misc request runs first
    only if it was enqueued no later than the oldest LCA request, so a
    stream of treefix/cuts submissions can delay an already-queued LCA
    window by the misc ops ahead of it, never by the ones behind it.
    ``window_s=0`` disables coalescing: every window holds exactly one
    request.
    """

    def __init__(self, *, window_s: float, max_batch: int, max_queue: int) -> None:
        if max_queue < 1:
            raise ValidationError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self._cond = threading.Condition()
        self._lca: deque[PendingRequest] = deque()
        self._misc: deque[PendingRequest] = deque()
        self._draining = False
        self.shed_total = 0
        self.rejected_draining_total = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._lca) + len(self._misc)

    @property
    def draining(self) -> bool:
        return self._draining

    def submit(self, request: PendingRequest) -> None:
        """Admit a request, or shed it (full → 429, draining → 503)."""
        with self._cond:
            if self._draining:
                self.rejected_draining_total += 1
                raise ServeDrainingError(
                    "service is draining for shutdown; request rejected"
                )
            if len(self._lca) + len(self._misc) >= self.max_queue:
                self.shed_total += 1
                raise ServeQueueFullError(
                    f"request queue is full ({self.max_queue}); request shed"
                )
            if request.op in COALESCABLE_OPS:
                self._lca.append(request)
            else:
                self._misc.append(request)
            self._cond.notify_all()

    def next_work(
        self, *, poll_s: float = 0.05
    ) -> tuple[str, list[PendingRequest]] | None:
        """Block for the next unit of work; ``None`` once drained and empty.

        Returns ``("misc", [one request])`` or ``("lca", window)`` where
        the window holds every coalescable request collected before the
        time/size limit closed it. During a drain, pending requests still
        flow out (windows close immediately — nothing new is coming).
        """
        with self._cond:
            while not (self._lca or self._misc):
                if self._draining:
                    return None
                self._cond.wait(timeout=poll_s)
            if self._misc and (
                not self._lca or self._misc[0].enqueued <= self._lca[0].enqueued
            ):
                return "misc", [self._misc.popleft()]
            window = [self._lca.popleft()]
            collected = window[0].num_queries
            # the window closes window_s after its oldest request *arrived*;
            # whatever is already queued joins without waiting (a backlog
            # lands in one window), and a drain takes the queue as it is
            deadline = window[0].enqueued + self.window_s
            while collected < self.max_batch and (self.window_s > 0 or self._draining):
                if self._lca:
                    request = self._lca.popleft()
                    window.append(request)
                    collected += request.num_queries
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._draining:
                    break
                self._cond.wait(timeout=remaining)
            return "lca", window

    def drain(self) -> None:
        """Refuse new submissions; wake the worker to flush what remains."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def flush_errors(self, error: Exception) -> int:
        """Fail every still-queued request (worker died / hard stop)."""
        with self._cond:
            pending = list(self._lca) + list(self._misc)
            self._lca.clear()
            self._misc.clear()
        for request in pending:
            request.finish(error=error)
        return len(pending)
