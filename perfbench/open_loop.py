"""The open-loop workload ``serve``.

Independent users send LCA requests on a seeded Poisson schedule to warm
:class:`~repro.serving.QueryService` instances at n = 4096, driven at the
``submit`` boundary (just below the HTTP front) from one thread; each
service's one worker owns its machine. Every request is timed from the
moment it was *due*, so a stall in the generator or the service charges
every request it delays. A shed or failed request misses every limit.
"""

from __future__ import annotations

import importlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import repro.serving.service as service_mod
from repro.errors import ServingError
from repro.plans import PlanStore
from repro.telemetry import DivergenceWatchdog
from repro.trees.lca import offline_tarjan_lca
from repro.trees.treefix import bottom_up_treefix

from common import Outcome, derive_seeds, median, percentile, timed_setups
from tracing import Tracer, install_layer_spans, wrap_watchdog

# the package re-exports a function named `replay`, hiding the module
plan_replay = importlib.import_module("repro.plans.replay")

N = 1 << 12
SHAPE = "random"
# the `repro serve` defaults
WINDOW_S, MAX_BATCH, MAX_QUEUE, WATCHDOG_SAMPLE = 0.002, 65536, 1024, 8
RATE = 200.0  # offered LCA requests per second
PAIRS, HOT_PAIRS, HOT_SET = 32, 16, 256  # per request; of them from the hot set
LIMIT_S = 1.0  # the p99 latency limit of max_rps
TREES = 4  # services per run, each on its own seeded tree
BOOTS = 2  # warm boots per tree timed for setup_s
PROBES_PER_TREE = 16  # idle treefix requests that time the misc path
FIXED_SHARE, RAMP_SHARE = 0.8, 0.16  # of the run at RATE, and ramping for max_rps
RAMP_START, RAMP_SPAN, RAMP_WINDOW_S = 8 * RATE, 32.0, 0.25
RAMP_HOLD_DEPTH, RAMP_GIVE_UP_S = 3 * MAX_QUEUE // 4, 2.0
FAILED = float("inf")


@dataclass
class Phase:
    """What one stretch of offered load produced."""

    wall: float
    lags: list[float]
    # per op: due time (from the phase start) and latency from due, inf
    # when the request was shed or failed
    due: dict[str, list[float]] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)
    in_service: list[float] = field(default_factory=list)  # lca, enqueue → answer
    done: list[tuple[str, dict, object]] = field(default_factory=list)
    failed: int = 0

    def merge(self, other: Phase) -> None:
        """Pool another stretch's samples into this one."""
        self.wall += other.wall
        self.lags += other.lags
        for op in other.latency:
            self.due.setdefault(op, []).extend(other.due[op])
            self.latency.setdefault(op, []).extend(other.latency[op])
        self.in_service += other.in_service
        self.failed += other.failed

    def p(self, op: str, q: float) -> float:
        return percentile(self.latency[op], q) if self.latency.get(op) else 0.0


class Traffic:
    """Seeded request payloads: LCA pairs half from a hot set, treefix values."""

    def __init__(self, seed: int, n: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.hot = self.rng.integers(0, n, size=(HOT_SET, 2), dtype=np.int64)

    def lca(self) -> dict:
        pairs = np.concatenate([
            self.hot[self.rng.integers(0, HOT_SET, size=HOT_PAIRS)],
            self.rng.integers(0, self.n, size=(PAIRS - HOT_PAIRS, 2), dtype=np.int64),
        ])
        return {"us": pairs[:, 0].copy(), "vs": pairs[:, 1].copy()}

    def treefix(self) -> dict:
        return {"values": self.rng.integers(0, 1 << 20, size=self.n, dtype=np.int64)}

    def schedule(self, rate: float, seconds: float, growth: float = 1.0):
        """LCA requests as a Poisson process of rate ``rate * growth**t``."""
        # time-rescaling of a unit-rate process through the integrated rate
        # L(t) = rate * (growth**t - 1) / ln(growth)
        k = np.log(growth)
        total = rate * seconds if k == 0 else rate * np.expm1(k * seconds) / k
        points = np.cumsum(self.rng.exponential(size=int(total + 6 * total**0.5) + 16))
        points = points[points < total]
        times = points / rate if k == 0 else np.log1p(points * k / rate) / k
        return [(t, "lca", self.lca()) for t in times]


def offer(service, schedule, *, hold_depth: int | None = None) -> Phase:
    """Submit every request at its due time; wait for all answers.

    With ``hold_depth``, hold back while that many requests wait in the
    queue, so the service never has to shed; held requests stay timed from
    their due time. Give up once the generator is RAMP_GIVE_UP_S behind.
    """
    sent = []
    lags = []
    start = time.monotonic() + 0.01
    for rid, (offset, op, payload) in enumerate(schedule):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if hold_depth is not None:
            while len(service.queue) >= hold_depth and time.monotonic() - due < RAMP_GIVE_UP_S:
                time.sleep(0.001)
            if time.monotonic() - due >= RAMP_GIVE_UP_S:
                break
        lags.append(time.monotonic() - due)
        try:
            request = service.submit(op, payload)
            request.rid = rid  # read by the traced queue-wait spans
        except ServingError:  # shed (queue full) or draining
            request = None
        sent.append((due, op, payload, request))
    phase = Phase(wall=time.monotonic() - start, lags=lags)
    for due, op, payload, request in sent:
        answered = request is not None and request.done.wait(60.0) and request.error is None
        phase.due.setdefault(op, []).append(due - start)
        latency = phase.latency.setdefault(op, [])
        if not answered:
            phase.failed += 1
            latency.append(FAILED)
            continue
        latency.append(request.enqueued + request.latency_s - due)
        if op == "lca":
            phase.in_service.append(request.latency_s)
        phase.done.append((op, payload, request.result))
    return phase


def wrong_answers(tree, done) -> int:
    """Requests whose served answer differs from the sequential oracle."""
    wrong = 0
    lca = [(p, r) for op, p, r in done if op == "lca"]
    if lca:
        us = np.concatenate([p["us"] for p, _ in lca])
        vs = np.concatenate([p["vs"] for p, _ in lca])
        keys = np.minimum(us, vs) * tree.n + np.maximum(us, vs)
        unique, inverse = np.unique(keys, return_inverse=True)
        want = offline_tarjan_lca(tree, np.stack([unique // tree.n, unique % tree.n], axis=1))
        bad = want[inverse] != np.concatenate([r for _, r in lca])
        owner = np.repeat(np.arange(len(lca)), [len(p["us"]) for p, _ in lca])
        wrong += len(np.unique(owner[bad]))
    for op, payload, result in done:
        if op == "treefix":
            wrong += not np.array_equal(result, bottom_up_treefix(tree, payload["values"]))
    return wrong


@dataclass
class Served:
    """One booted service on one seeded tree, with its own worker thread."""

    booted: object
    worker: threading.Thread
    watchdog: object = None

    @property
    def service(self):
        return self.booted.service

    def cpu_s(self) -> float:
        return time.clock_gettime(time.pthread_getcpuclockid(self.worker.ident))


def search_max_rps(s: Served, traffic: Traffic, seconds: float, check) -> float:
    """Highest offered LCA rate at which the p99 latency meets the limit.

    One open-loop ramp: the rate grows geometrically from RAMP_START by
    RAMP_SPAN over ``seconds``; the generator holds back while the queue is
    three quarters full (see :func:`offer`), so a transient stall delays
    requests instead of ending the ramp. Requests are then grouped by due
    time into sliding windows; max_rps is the offered rate at the centre of
    the last window whose p99 latency (shed requests counting as infinite)
    meets LIMIT_S. A continuous ramp gives a continuous answer where a
    stepped search would quantize it to its step.
    """
    growth = RAMP_SPAN ** (1.0 / seconds)
    phase = check(s, offer(s.service, traffic.schedule(RAMP_START, seconds, growth),
                           hold_depth=RAMP_HOLD_DEPTH))
    due, latency = np.asarray(phase.due["lca"]), np.asarray(phase.latency["lca"])
    best = 0.0
    for centre in np.arange(RAMP_WINDOW_S / 2, due.max(), RAMP_WINDOW_S / 5):
        window = latency[np.abs(due - centre) <= RAMP_WINDOW_S / 2]
        if len(window) >= 100 and np.percentile(window, 99, method="higher") <= LIMIT_S:
            best = RAMP_START * growth**centre
    return best


def serve(seed: int, seconds: float, tracer: Tracer | None, scratch: Path) -> tuple[Outcome, dict]:
    """Pooled over TREES services, one per seeded tree, measured in turn:
    the tree's shape moves window cost by tens of percent, so with one tree
    per run every latency would mostly be a function of the seed."""
    *tree_seeds, traffic_seed = derive_seeds(seed, TREES + 1)
    outcome = Outcome()
    root = Path(tempfile.mkdtemp(prefix="plans-", dir=scratch))
    served: list[Served] = []
    try:
        # populate the stores first, so every timed boot takes the warm path;
        # a store holds one plan per (n, curve, shape), so one store per tree
        for i, tree_seed in enumerate(tree_seeds):
            plan_replay.record("layout_creation", n=N, seed=tree_seed, shape=SHAPE,
                               store=PlanStore(root / str(i)))

        def set_up(i: int) -> Served:
            before = set(threading.enumerate())
            booted = service_mod.boot_service(
                shape=SHAPE, n=N, seed=tree_seeds[i % TREES],
                store=PlanStore(root / str(i % TREES)),
                window_s=WINDOW_S, max_batch=MAX_BATCH, max_queue=MAX_QUEUE,
            )
            (worker,) = set(threading.enumerate()) - before
            served.append(Served(booted, worker))
            return served[-1]

        setup_s, boots = timed_setups(set_up, tracer, repeats=BOOTS * TREES,
                                      traced_repeats=TREES)
        keep = boots[-TREES:]  # the last boot of every tree
        for other in boots[:-TREES]:
            other.service.drain()
        outcome.attempt(len(boots))
        cold = sum(b.booted.boot.mode != "warm" for b in boots)
        if cold:
            outcome.fail(cold, "a boot did not take the warm path")
        for s in keep:
            s.watchdog = s.service.st.machine.attach(
                DivergenceWatchdog(sample=WATCHDOG_SAMPLE))
        result = _measure(keep, Traffic(traffic_seed, N), seconds, tracer, outcome)
        result["metrics"]["setup_s"] = setup_s
        alerts = sum(s.watchdog.alerts_total for s in keep)
        if alerts:
            outcome.fail(alerts, "the divergence watchdog raised alerts")
        return outcome, result
    finally:
        for s in served:
            s.service.drain()
        shutil.rmtree(root, ignore_errors=True)


def _measure(served: list[Served], traffic: Traffic, seconds: float,
             tracer: Tracer | None, outcome: Outcome) -> dict:
    def check(s: Served, phase: Phase) -> Phase:
        outcome.attempt(sum(len(v) for v in phase.latency.values()))
        if phase.failed:
            outcome.fail(phase.failed, "requests shed or failed")
        wrong = wrong_answers(s.booted.tree, phase.done)
        if wrong:
            outcome.fail(wrong, "served answers differ from the oracle")
        return phase

    fixed_s = seconds * FIXED_SHARE / len(served)
    cost = np.zeros(4, dtype=np.int64)
    pooled = Phase(wall=0.0, lags=[])
    tree_p99: list[float] = []
    traced = Phase(wall=0.0, lags=[])
    cpu = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [worker CPU s, queries]
    misc: list[float] = []
    traced_wall = 0.0
    checks0 = sum(s.watchdog.checks_total for s in served)
    for s in served:
        # model cost: one hot-set window on the idle service, three times
        hot = {"us": traffic.hot[:, 0], "vs": traffic.hot[:, 1]}
        probes = []
        for _ in range(3):
            m = s.service.st.machine
            before = np.array([m.energy, m.depth, m.messages, m.steps])
            answers = s.service.lca(hot["us"], hot["vs"])
            probes.append(np.array([m.energy, m.depth, m.messages, m.steps]) - before)
        outcome.attempt(len(probes))
        wrong = wrong_answers(s.booted.tree, [("lca", hot, answers)])
        if wrong or any((c != probes[0]).any() for c in probes):
            outcome.fail(len(probes), f"hot-set windows differ: {probes}")
        cost += probes[0]

        # at the base rate, then the misc probes: untraced, and again traced
        # when tracing
        halves = (False, True) if tracer is not None else (False,)
        for trace in halves:
            if trace:
                install_layer_spans(tracer)
                wrap_watchdog(tracer, s.watchdog)
                t0 = time.monotonic()
            try:
                cpu0 = s.cpu_s()
                phase = check(s, offer(s.service, traffic.schedule(RATE, fixed_s / len(halves))))
                cpu[trace][0] += s.cpu_s() - cpu0
                cpu[trace][1] += sum(len(p["us"]) for _, p, _ in phase.done)
                probes = _misc_probes(s, traffic, check)
                (traced if trace else pooled).merge(phase)
                if not trace:
                    tree_p99.append(phase.p("lca", 99))
                    misc += probes
            finally:
                if trace:
                    tracer.uninstall()
                    traced_wall += time.monotonic() - t0

    result: dict = {}
    if tracer is None:
        max_rps = search_max_rps(served[-1], traffic, seconds * RAMP_SHARE, check)
    else:
        result.update(
            traced_units=traced_wall,
            traced_wall=traced_wall,
            overhead_ratio=(cpu[True][0] / cpu[True][1]) / (cpu[False][0] / cpu[False][1]),
            watchdog_checks=sum(s.watchdog.checks_total for s in served) - checks0,
            loadgen_lag_p99_ms=percentile(traced.lags, 99) * 1e3,
            loadgen_offered_rps=len(traced.lags) / traced.wall,
        )
        max_rps = 0.0
    energy, depth, messages, steps = (int(c) for c in cost)
    result["samples"] = {"trees": len(served), "lca_requests": len(pooled.latency["lca"]),
                         "treefix_probes": len(misc)}
    result["metrics"] = {
        "wall_p50_ms": median(pooled.in_service) * 1e3,
        "vertices_per_s": cpu[False][1] / cpu[False][0],
        "lca_p50_ms": pooled.p("lca", 50) * 1e3,
        # a host stall of a few hundred ms sets the p99 of the stretch it
        # hits; the median over the trees keeps one such stall from setting it
        "lca_p99_ms": median(tree_p99) * 1e3,
        "misc_p90_ms": percentile(misc, 90) * 1e3,
        "max_rps": max_rps,
        "energy": energy,
        "depth": depth,
        "messages": messages,
        "steps": steps,
    }
    return result


def _misc_probes(s: Served, traffic: Traffic, check) -> list[float]:
    """Latencies of treefix requests sent one at a time to the idle service
    (the solo misc path, with the watchdog on a heavy op), after one that
    warms the service's treefix path."""
    out = []
    for _ in range(PROBES_PER_TREE + 1):
        out += check(s, offer(s.service, [(0.0, "treefix", traffic.treefix())])).latency["treefix"]
    return out[1:]
