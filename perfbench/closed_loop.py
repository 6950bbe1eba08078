"""The closed-loop workloads: ``cold`` and ``replay``.

One caller runs iterations back to back. Each iteration runs all three of
the paper's building blocks at n = 2^16: light-first layout creation
(§IV), a bottom-up treefix sum (§V) and batched LCA over n random pairs
(§VI). ``cold`` executes them live on a fresh batched machine; ``replay``
re-executes plans recorded once into a temporary plan store.
"""

from __future__ import annotations

import importlib
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import repro.spatial.layout_creation as layout_creation
import repro.trees.generators as generators
from repro.layout.orders import is_light_first
from repro.machine.machine import SpatialMachine
from repro.plans import PlanStore, get_workload
from repro.spatial.context import SpatialTree
from repro.trees.lca import offline_tarjan_lca
from repro.trees.treefix import bottom_up_treefix

from common import Outcome, derive_seeds, median, percentile, timed_setups
from tracing import Tracer, install_layer_spans

# the package re-exports a function named `replay`, hiding the module
plan_replay = importlib.import_module("repro.plans.replay")

N = 1 << 16
SHAPE = "prufer"
# pinned so that the random tree's maximum degree (8 or 9 for Prüfer trees
# at this n) cannot flip the messaging path between seeds
MODE = "virtual"
PLAN_WORKLOADS = ("layout_creation", "treefix", "lca")


def _loop(outcome: Outcome, iterate, seconds: float, tracer: Tracer | None) -> dict:
    """Run ``iterate`` until ``seconds`` pass; alternate traced iterations.

    ``iterate()`` returns ``(stage_walls, cost, ok)``; stage walls are
    ``(layout, treefix, lca)`` seconds and ``cost`` the model cost tuple.
    """
    walls = {False: [], True: []}
    stages: list[tuple[float, float, float]] = []
    costs = {False: [], True: []}
    traced_wall = 0.0
    minimum = 4 if tracer is not None else 3
    deadline = time.monotonic() + seconds
    i = 0
    while i < minimum or time.monotonic() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            install_layer_spans(tracer)
            t_install = time.monotonic()
        try:
            stage_walls, cost, ok = iterate()
        except Exception as exc:  # an operation that raises counts as failed
            outcome.fail(3, f"iteration {i} raised {exc!r}")
            stage_walls, cost, ok = None, None, True
        finally:
            if traced:
                traced_wall += time.monotonic() - t_install
                tracer.uninstall()
        i += 1
        if stage_walls is None:
            continue
        outcome.attempt(3)
        if not ok:
            outcome.fail(3, f"iteration {i - 1}: answers differ from the oracle")
        walls[traced].append(sum(stage_walls))
        costs[traced].append(cost)
        if not traced:
            stages.append(stage_walls)
    all_costs = costs[False] + costs[True]
    if any(c != all_costs[0] for c in all_costs):
        outcome.fail(1, f"model cost differs between iterations: {set(all_costs)}")
    # a run holds 8-14 iterations: too few for a tail percentile, so the
    # stage "tails" read the upper quartile and the rates use the median
    wall = median(walls[False])
    energy, depth, messages, steps = all_costs[0]
    return {
        "metrics": {
            "wall_p50_ms": wall * 1e3,
            "vertices_per_s": 3 * N / wall,
            "lca_p50_ms": median([s[2] for s in stages]) * 1e3,
            "lca_p99_ms": percentile([s[2] for s in stages], 75) * 1e3,
            "misc_p90_ms": percentile([s[1] for s in stages], 75) * 1e3,
            "max_rps": 3 / wall,
            "energy": energy,
            "depth": depth,
            "messages": messages,
            "steps": steps,
        },
        "samples": {"iterations": len(walls[False]), "traced_iterations": len(walls[True])},
        "traced_units": len(walls[True]),
        "traced_wall": traced_wall,
        "overhead_ratio": (
            median(walls[True]) / median(walls[False]) if walls[True] else None
        ),
    }


def cold(seed: int, seconds: float, tracer: Tracer | None, scratch: Path) -> tuple[Outcome, dict]:
    """Live §IV → §V → §VI on a fresh machine with empty plan caches."""
    tree_seed, algo_seed, input_seed = derive_seeds(seed, 3)

    def set_up(_):
        tree = generators.prufer_random_tree(N, seed=tree_seed)
        rng = np.random.default_rng(input_seed)
        values = rng.integers(0, 1 << 20, size=N, dtype=np.int64)
        us = rng.integers(0, N, size=N, dtype=np.int64)
        vs = rng.integers(0, N, size=N, dtype=np.int64)
        return tree, values, us, vs, SpatialMachine(N, engine="batched")

    outcome = Outcome()
    setup_s, setups = timed_setups(set_up, tracer, repeats=5)
    tree, values, us, vs, machine = setups[-1]
    want_sums = bottom_up_treefix(tree, values)
    want_lca = offline_tarjan_lca(tree, np.stack([us, vs], axis=1))
    machines = [machine]

    def iterate():
        m = machines.pop() if machines else SpatialMachine(N, engine="batched")
        t0 = time.monotonic()
        created = layout_creation.create_light_first_layout(
            tree, seed=algo_seed, machine=m
        )
        st = SpatialTree(created.layout, machine=created.machine, mode=MODE)
        t1 = time.monotonic()
        sums = st.treefix_sum(values, seed=algo_seed)
        t2 = time.monotonic()
        prepared = st.prepare_lca(seed=algo_seed)
        answers = st.lca_batch(us, vs, seed=algo_seed, prepared=prepared)
        t3 = time.monotonic()
        ok = (
            is_light_first(tree, created.layout.order)
            and np.array_equal(sums, want_sums)
            and np.array_equal(answers, want_lca)
        )
        cost = (m.energy, m.depth, m.messages, m.steps)
        return (t1 - t0, t2 - t1, t3 - t2), cost, ok

    result = _loop(outcome, iterate, seconds, tracer)
    result["metrics"]["setup_s"] = setup_s
    return outcome, result


def replay(seed: int, seconds: float, tracer: Tracer | None, scratch: Path) -> tuple[Outcome, dict]:
    """Straight-line replay of the three stored plans (``repro plan replay``)."""
    (plan_seed,) = derive_seeds(seed, 1)
    stores: list[Path] = []

    def set_up(_):
        root = Path(tempfile.mkdtemp(prefix="plans-", dir=scratch))
        stores.append(root)
        store = PlanStore(root)
        return [
            plan_replay.record(
                w, n=N, seed=plan_seed, shape=SHAPE, mode=MODE, store=store
            ).plan
            for w in PLAN_WORKLOADS
        ]

    outcome = Outcome()
    try:
        setup_s, setups = timed_setups(set_up, tracer, repeats=2)
        plans = setups[-1]
        for root in stores[:-1]:
            shutil.rmtree(root)
        root = stores[-1]
        outcome.attempt(len(plans))
        bad = _check_recorded(plans, plan_seed)
        if bad:
            outcome.fail(len(bad), f"recorded plans disagree with the oracle: {bad}")

        def iterate():
            store = PlanStore(root)  # fresh: every plan loads from disk
            walls, ok = [], True
            energy = depth = messages = steps = 0
            for plan in plans:
                t0 = time.monotonic()
                rep = plan_replay.replay(plan.key, store=store, engine="batched")
                walls.append(time.monotonic() - t0)
                ok = ok and not rep.fallback and rep.totals == plan.totals and all(
                    np.array_equal(rep.results[k], v) for k, v in plan.results.items()
                )
                energy += rep.totals["energy"]
                depth += rep.totals["depth"]
                messages += rep.totals["messages"]
                steps += rep.totals["steps"]
            return tuple(walls), (energy, depth, messages, steps), ok

        result = _loop(outcome, iterate, seconds, tracer)
    finally:
        for root in stores:
            shutil.rmtree(root, ignore_errors=True)
    result["metrics"]["setup_s"] = setup_s
    return outcome, result


def _check_recorded(plans, plan_seed: int) -> list[str]:
    """Names of recorded plans whose stored results fail the oracle."""
    bad = []
    for plan in plans:
        prep = get_workload(plan.workload).prepare(
            shape=SHAPE, n=N, seed=plan_seed, mode=MODE
        )
        tree = prep.tree
        if plan.workload == "layout_creation":
            order = np.argsort(plan.results["position"], kind="stable")
            ok = is_light_first(tree, order)
        elif plan.workload == "treefix":
            ok = np.array_equal(
                plan.results["out"], bottom_up_treefix(tree, prep.inputs["values"])
            )
        else:
            pairs = np.stack([prep.inputs["us"], prep.inputs["vs"]], axis=1)
            ok = np.array_equal(plan.results["answers"], offline_tarjan_lca(tree, pairs))
        if not ok:
            bad.append(plan.workload)
    return bad
