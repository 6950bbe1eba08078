"""In-memory spans around the public entry points of repro's layers.

The benchmark never edits the program: :func:`install_layer_spans` swaps
module, class and instance attributes for timing wrappers and
:meth:`Tracer.uninstall` puts the originals back. Each span records its
name, start, end, parent span and (for serving) a request id; spans stay
in memory until :meth:`Tracer.write` dumps them when the run ends.

A span's *self* time is its duration minus the time its direct children
cover, so nested wrappers (the clock kernel inside ``send_plan`` inside
``execute_plan``) are never counted twice. A name's *inclusive* time only
sums its outermost occurrences, for the same reason.
"""

from __future__ import annotations

import importlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# span fields, stored as plain lists to keep the per-call cost low
ID, NAME, START, END, PARENT, RID, NESTED = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.boundary = 0
        self.active = False  # counters only count while the wrappers are in
        self.setup_counts: dict[str, float] = {}

    # -- spans ------------------------------------------------------------ #

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids), name, time.monotonic(), 0.0,
            stack[-1][ID] if stack else -1, None,
            any(s[NAME] == name for s in stack),
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.monotonic()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, rid=None) -> None:
        """A span measured elsewhere (e.g. a request's time in the queue)."""
        self.spans.append([next(self._ids), name, start, end, -1, rid, False])

    # -- wrapping --------------------------------------------------------- #

    def wrap(self, owner, attr: str, name: str | None, *, after=None, target=None):
        """Replace ``owner.attr`` by a wrapper that opens span ``name``.

        ``after(args, result)`` runs once the call returns (for counters);
        ``name=None`` skips the span and keeps only ``after``. ``target``
        overrides the callable the wrapper forwards to.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = target or (original.__func__ if is_classmethod else original)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name) if name is not None else None
            try:
                result = func(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if after is not None and tracer.active:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original, had_own))
        return wrapper

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -------------------------------------------------------- #

    def split(self) -> None:
        """End the set-up: later spans and counts belong to the measurement."""
        self.boundary = next(self._ids)
        self.setup_counts = dict(self.counts)

    def phase_spans(self, setup: bool) -> list[list]:
        return [s for s in self.spans if (s[ID] < self.boundary) == setup]

    def measured_count(self, key: str) -> float:
        return self.counts.get(key, 0.0) - self.setup_counts.get(key, 0.0)

    @staticmethod
    def self_times(spans: list[list]) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return {s[ID]: (s[END] - s[START]) - covered[s[ID]] for s in spans}

    @staticmethod
    def by_name(spans: list[list]) -> dict[str, list[float]]:
        """Durations per name, outermost occurrences only."""
        out: dict[str, list[float]] = defaultdict(list)
        for s in spans:
            if not s[NESTED]:
                out[s[NAME]].append(s[END] - s[START])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[START]):
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "rid": s[RID],
                }) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the entry points of machine, spatial, plans, serving, trees
    and layout. The watchdog instance is wrapped by :func:`wrap_watchdog`."""
    import repro.machine.machine as machine_mod
    # the package re-exports a function named `replay`, hiding the module
    replay_mod = importlib.import_module("repro.plans.replay")
    import repro.plans.workloads as plan_workloads
    import repro.serving.service as service_mod
    import repro.spatial.graph as graph_mod
    import repro.spatial.layout_creation as layout_creation_mod
    import repro.spatial.lca as lca_mod
    import repro.spatial.treefix as treefix_mod
    import repro.trees.generators as generators_mod
    from repro.layout.embedding import TreeLayout
    from repro.plans.store import PlanStore
    from repro.serving.coalescer import WindowedQueue
    from repro.serving.service import QueryService

    counts, samples = tracer.counts, tracer.samples
    w = tracer.wrap

    # machine: the three send paths, the clock kernel, construction
    m = machine_mod.SpatialMachine
    w(m, "__init__", "machine.init")
    w(m, "send", "machine.send")
    w(m, "send_batch", "machine.send_batch")
    w(m, "send_plan", "machine.send_plan")

    def after_clock(args, result):
        counts["machine.clock.rounds"] += result.rounds

    w(machine_mod, "advance_clocks_batch", "machine.clock", after=after_clock)
    w(layout_creation_mod, "bitonic_sort", "machine.routing.bitonic_sort")

    # trees / layout: instance generation
    for owner in (generators_mod, plan_workloads):
        w(owner, "prufer_random_tree", "trees.generate")
        w(owner, "random_attachment_tree", "trees.generate")
    w(TreeLayout, "build", "layout.build")

    # spatial: the algorithms, wrapped wherever another layer imported them
    spatial_sites = {
        "create_light_first_layout": (layout_creation_mod, plan_workloads, service_mod),
        "treefix_sum": (treefix_mod, plan_workloads, graph_mod),
        "lca_batch": (lca_mod, plan_workloads, graph_mod),
    }
    for attr, owners in spatial_sites.items():
        for owner in owners:
            w(owner, attr, f"spatial.{attr}")
    w(lca_mod, "prepare_lca", "spatial.prepare_lca")
    w(layout_creation_mod, "list_rank", "spatial.list_rank")

    # plans: record, store loads, execution, replay outcome
    def after_replay(args, result):
        counts["plans.replays"] += 1
        counts["plans.fallbacks"] += int(result.fallback)

    w(replay_mod, "record", "plans.record")
    w(replay_mod, "execute_plan", "plans.execute_plan")
    for owner in (replay_mod, service_mod):
        w(owner, "replay", "plans.replay", after=after_replay)
    original_get = PlanStore.get

    def store_get(store, key):
        cached = key in store.memory
        result = original_get(store, key)
        if not cached:
            counts["plans.store_bytes"] += store.path_for(key).stat().st_size
        return result

    w(PlanStore, "get", "plans.store_get", target=store_get)

    # serving: queue wait (read from what next_work hands out), the window
    # and its phases, the solo misc path
    def after_next_work(args, result):
        if result is None:
            return
        now = time.monotonic()
        for request in result[1]:
            samples["serving.queue_wait"].append(now - request.enqueued)
            tracer.record("serving.queue_wait", request.enqueued, now,
                          rid=getattr(request, "rid", None))
        samples["serving.window_requests"].append(len(result[1]))

    def after_plan_window(args, plan):
        counts["serving.unique_queries"] += plan.num_unique
        counts["serving.total_queries"] += plan.total_queries
        samples["serving.window_queries"].append(plan.total_queries)

    w(WindowedQueue, "next_work", None, after=after_next_work)
    w(QueryService, "_run_window", "serving.window")
    w(QueryService, "_run_misc", "serving.misc")
    w(service_mod, "plan_window", "serving.plan_window", after=after_plan_window)
    w(service_mod, "scatter_answers", "serving.scatter")
    w(service_mod, "lca_batch", "serving.window_compute", target=lca_mod.lca_batch)
    tracer.active = True


def wrap_watchdog(tracer: Tracer, watchdog) -> None:
    for hook in ("on_phase_enter", "on_step", "on_phase_exit"):
        tracer.wrap(watchdog, hook, "telemetry.watchdog")
