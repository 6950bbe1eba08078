"""Adversarial tests for the persistent plan store.

Every way an artifact can be wrong maps to a *typed* error — truncation
and bit-flips to :class:`PlanIntegrityError`, format drift to
:class:`PlanSchemaError`, renamed/mismatched artifacts to
:class:`PlanKeyError`, absence to :class:`PlanNotFoundError` — and a
half-written artifact is never observable (writes are temp-file +
``os.replace`` atomic). The LRU memory layer extends the machine's
plan-cache counting surface; its hit/miss/eviction books and the
machine-level :class:`PlanCache` family accounting get regression
coverage here.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import threading

import numpy as np
import pytest

from repro.errors import (
    PlanIntegrityError,
    PlanKeyError,
    PlanNotFoundError,
    PlanSchemaError,
)
from repro.machine.machine import PlanCache, SpatialMachine
from repro.machine.routing import bitonic_sort
from repro.plans import (
    MAGIC,
    PLAN_SCHEMA,
    LRUPlanCache,
    PlanStore,
    StepOp,
    load_plan,
    read_plan_header,
    record,
    replay,
    save_plan,
)


@pytest.fixture
def plan():
    return record("sort", n=12, seed=3, shape="uniform").plan


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "plans", capacity=2)


# --------------------------------------------------------------------------- #
# artifact integrity
# --------------------------------------------------------------------------- #


def test_roundtrip_identity(plan, store):
    path = store.put(plan)
    loaded = load_plan(path, expected_key=plan.key)
    assert loaded.key == plan.key
    assert loaded.totals == plan.totals
    assert loaded.seed == plan.seed
    assert loaded.speculative == plan.speculative
    assert len(loaded.ops) == len(plan.ops)
    for name in plan.results:
        np.testing.assert_array_equal(loaded.results[name], plan.results[name])


def test_missing_artifact(store, plan):
    with pytest.raises(PlanNotFoundError):
        store.get(("sort", 999, "hilbert", "uniform"))


def test_truncated_artifact_rejected(plan, store):
    path = store.put(plan)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(PlanIntegrityError):
        load_plan(path)


def test_truncated_header_rejected(plan, store):
    path = store.put(plan)
    path.write_bytes(path.read_bytes()[: len(MAGIC) + 10])
    with pytest.raises(PlanIntegrityError):
        load_plan(path)


def test_bad_magic_rejected(plan, store):
    path = store.put(plan)
    data = bytearray(path.read_bytes())
    data[:4] = b"EVIL"
    path.write_bytes(bytes(data))
    with pytest.raises(PlanIntegrityError):
        load_plan(path)


@pytest.mark.parametrize("offset_frac", [0.3, 0.6, 0.9])
def test_bitflipped_payload_rejected(plan, store, offset_frac):
    path = store.put(plan)
    data = bytearray(path.read_bytes())
    header_end = data.index(b"\n", len(MAGIC)) + 1
    pos = header_end + int((len(data) - header_end) * offset_frac)
    data[pos] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(PlanIntegrityError):
        load_plan(path)


def test_trailing_garbage_rejected(plan, store):
    path = store.put(plan)
    path.write_bytes(path.read_bytes() + b"\x00garbage")
    with pytest.raises(PlanIntegrityError):
        load_plan(path)


def _rewrite_header(path, mutate):
    data = path.read_bytes()
    header_end = data.index(b"\n", len(MAGIC))
    header = json.loads(data[len(MAGIC):header_end].decode())
    mutate(header)
    path.write_bytes(
        MAGIC + json.dumps(header, sort_keys=True).encode() + data[header_end:]
    )


def test_schema_bump_rejected(plan, store):
    path = store.put(plan)
    _rewrite_header(path, lambda h: h.update(schema="repro.workload-plan/v999"))
    with pytest.raises(PlanSchemaError):
        load_plan(path)


def test_wrong_key_rejected(plan, store):
    path = store.put(plan)
    other = ("treefix", plan.n, plan.curve, "prufer")
    # renamed onto the wrong slot: the embedded key defends the lookup
    target = store.path_for(other)
    target.write_bytes(path.read_bytes())
    with pytest.raises(PlanKeyError):
        load_plan(target, expected_key=other)
    with pytest.raises(PlanKeyError):
        store.get(other)


def test_header_payload_key_disagreement_rejected(plan, store):
    path = store.put(plan)
    # forge the *header* key while keeping the payload (and its hash) intact:
    # the decoded plan's own key must still betray the forgery
    forged = ("sort", plan.n, plan.curve, "sorted")
    _rewrite_header(path, lambda h: h.update(key=list(forged)))
    with pytest.raises(PlanIntegrityError):
        load_plan(path, expected_key=forged)


def test_headers_listable_without_decoding(plan, store):
    store.put(plan)
    rows = store.ls()
    assert len(rows) == 1
    assert rows[0]["key"] == plan.key
    assert rows[0]["nbytes"] > 0
    header = read_plan_header(store.path_for(plan.key))
    assert header["schema"] == plan.schema


def test_corrupt_artifact_listed_not_fatal(plan, store):
    store.put(plan)
    bad = store.root / "zz-bad.plan"
    bad.write_bytes(b"not a plan at all")
    rows = store.ls()
    assert len(rows) == 2
    assert any("error" in r for r in rows)


# --------------------------------------------------------------------------- #
# the container: raw arrays behind a JSON table, loaded as views
# --------------------------------------------------------------------------- #


def _split_artifact(path):
    data = path.read_bytes()
    header_end = data.index(b"\n", len(MAGIC))
    header = json.loads(data[len(MAGIC):header_end].decode())
    return header, data[header_end + 1:]


def _write_artifact(path, header, payload):
    """Write ``payload`` with a header whose hash and size match it, so
    only the payload's own structure can betray a forgery."""
    header = dict(header, sha256=hashlib.sha256(payload).hexdigest(), nbytes=len(payload))
    path.write_bytes(MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def _forge_table(path, mutate):
    header, payload = _split_artifact(path)
    (tlen,) = struct.unpack("<Q", payload[:8])
    data = payload[-(-(8 + tlen) // 64) * 64:]
    table = json.loads(payload[8:8 + tlen])
    mutate(table)
    blob = json.dumps(table).encode()
    head = struct.pack("<Q", len(blob)) + blob
    _write_artifact(path, header, head + bytes(-len(head) % 64) + data)


@pytest.mark.parametrize("schema", [
    pytest.param("repro.workload-plan/v1", id="v1"),
    pytest.param("repro.workload-plan/v2", id="v2"),
])
def test_v1_npz_artifact_asks_for_rerecord(plan, tmp_path, schema):
    buf = io.BytesIO()
    np.savez(buf, meta=np.zeros(4, dtype=np.uint8))
    path = tmp_path / "old.plan"
    _write_artifact(path, {"schema": schema, "key": list(plan.key)}, buf.getvalue())
    with pytest.raises(PlanSchemaError, match="re-record"):
        load_plan(path)


def _entry(name, field, value):
    """A forgery setting one field of one array-table entry."""
    return lambda table: table["arrays"][name].__setitem__(field, value)


@pytest.mark.parametrize("forgery", [
    pytest.param(_entry("step_src", 0, "|O"), id="object-dtype"),
    pytest.param(_entry("ops_kind", 0, "<U8"), id="string-dtype"),
    pytest.param(_entry("result_0", 1, [10**6]), id="shape-overrun"),
    pytest.param(_entry("result_0", 2, 10**9), id="offset-overrun"),
    pytest.param(_entry("result_0", 2, 8), id="misaligned-offset"),
    pytest.param(_entry("result_0", 2, -64), id="negative-offset"),
    pytest.param(_entry("step_dist", 0, "<i4"), id="column-dtype"),
    pytest.param(lambda table: table["arrays"].pop("step_rounds_offsets"), id="missing-column"),
    pytest.param(lambda table: table["meta"].pop("phase_names"), id="meta-field"),
    pytest.param(lambda table: table.update(arrays=[]), id="table-shape"),
])
def test_forged_table_rejected_despite_matching_hash(plan, store, forgery):
    path = store.put(plan)
    _forge_table(path, forgery)
    with pytest.raises(PlanIntegrityError):
        load_plan(path, expected_key=plan.key)


def test_step_arrays_are_aligned_readonly_views(store):
    plan = record("treefix", n=48, seed=3, shape="star").plan
    loaded = load_plan(store.put(plan), expected_key=plan.key)
    steps = [op for op in loaded.ops if isinstance(op, StepOp)]
    first = steps[0]
    for arr in (first.src, first.dst, first.dist, first.rounds):
        assert arr.ctypes.data % 64 == 0  # each column starts on a cache line
    for op in steps:
        for arr in (op.src, op.dst, op.dist, op.rounds):
            assert arr.flags.aligned and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
    for name, arr in loaded.results.items():
        assert arr.flags.writeable and arr.flags.owndata  # copied out
        arr[...] = 0
        # the caller's copy is its own: the next load is unaffected
        np.testing.assert_array_equal(
            load_plan(store.path_for(plan.key)).results[name], plan.results[name]
        )


WORKLOAD_SHAPES = [
    ("treefix", "star"),  # virtual messaging: senders with two messages a round
    ("treefix_top_down", "prufer"),
    ("layout_creation", "prufer"),
    ("lca", "star"),
    ("sort", "uniform"),  # plan refs only: every step column is empty
    ("list_rank", "chain"),
]


@pytest.mark.parametrize("workload,shape", WORKLOAD_SHAPES)
def test_every_workload_roundtrips_and_replays(workload, shape, tmp_path):
    store = PlanStore(tmp_path / "plans")
    res = record(workload, n=48, seed=3, shape=shape, store=store)
    loaded = load_plan(res.path, expected_key=res.plan.key)
    assert loaded.schema == PLAN_SCHEMA
    assert [type(op) for op in loaded.ops] == [type(op) for op in res.plan.ops]
    for got, want in zip(loaded.ops, res.plan.ops):
        if isinstance(want, StepOp):
            assert got.combiner == want.combiner
            for field in ("src", "dst", "dist", "rounds"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        else:
            assert got == want
    for engine in ("scalar", "batched"):
        rep = replay(loaded, engine=engine, fallback=False)
        assert rep.totals == res.plan.totals
        assert sorted(rep.results) == sorted(res.results)
        for name, want in res.results.items():
            np.testing.assert_array_equal(rep.results[name], want)


# --------------------------------------------------------------------------- #
# atomicity and gc
# --------------------------------------------------------------------------- #


def test_concurrent_writers_never_expose_partial_artifacts(store):
    """Hammer one slot from several writer threads while a reader loads:
    every load sees a complete, integrity-clean artifact."""
    plans = [record("sort", n=12, seed=s, shape="uniform").plan for s in range(3)]
    key = plans[0].key
    save_plan(plans[0], store.path_for(key))  # slot exists before readers start
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(p):
        while not stop.is_set():
            try:
                save_plan(p, store.path_for(key))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                return

    threads = [threading.Thread(target=writer, args=(p,)) for p in plans]
    for t in threads:
        t.start()
    try:
        seeds = set()
        for _ in range(50):
            loaded = load_plan(store.path_for(key), expected_key=key)
            seeds.add(loaded.seed)
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors
    assert seeds <= {0, 1, 2}
    assert not list(store.root.glob("*.tmp"))  # no temp droppings left behind


def test_gc_respects_size_budget(tmp_path):
    store = PlanStore(tmp_path / "plans", capacity=8)
    import time

    paths = []
    for n in (8, 12, 16):
        res = record("sort", n=n, seed=1, shape="uniform", store=store)
        paths.append(res.path)
        time.sleep(0.02)  # distinct mtimes → deterministic oldest-first order
    total = store.total_bytes()
    smallest_two = sum(p.stat().st_size for p in paths[1:])
    deleted = store.gc(max_bytes=smallest_two)
    assert deleted == [paths[0]]  # oldest goes first
    assert store.total_bytes() <= smallest_two
    with pytest.raises(PlanNotFoundError):
        store.get(("sort", 8, "hilbert", "uniform"))
    assert store.gc(max_bytes=total) == []  # already under budget: no-op
    store.gc(max_bytes=0)
    assert store.total_bytes() == 0


# --------------------------------------------------------------------------- #
# the LRU memory layer and the machine PlanCache counting surface
# --------------------------------------------------------------------------- #


def test_store_memory_layer_counts_hits_misses(store, plan):
    store.put(plan)
    key = plan.key
    assert store.get(key) is plan  # memory hit
    assert store.memory.hits.get("sort") == 1
    fresh = PlanStore(store.root, capacity=2)
    loaded = fresh.get(key)  # disk hit = memory miss
    assert fresh.memory.misses.get("sort") == 1
    assert loaded.totals == plan.totals
    fresh.get(key)
    assert fresh.memory.hits.get("sort") == 1


def test_lru_eviction_counts_per_family(tmp_path):
    store = PlanStore(tmp_path / "plans", capacity=2)
    for n in (8, 12, 16):
        record("sort", n=n, seed=1, shape="uniform", store=store)
    assert len(store.memory) == 2
    assert store.memory.evictions.get("sort") == 1
    # the evicted plan reloads from disk (an honest miss), evicting again
    store.get(("sort", 8, "hilbert", "uniform"))
    assert store.memory.misses.get("sort") == 1
    assert store.memory.evictions.get("sort") == 2


def test_lru_recency_refresh_on_lookup(tmp_path):
    cache = LRUPlanCache(capacity=2)
    cache[("a", 1)] = "A"
    cache[("b", 1)] = "B"
    assert cache.lookup(("a", 1)) == "A"  # refreshes a's recency
    cache[("c", 1)] = "C"
    assert ("a", 1) in cache and ("b", 1) not in cache
    assert cache.evictions == {"b": 1}


def test_plan_cache_family_accounting_regression():
    """The machine's PlanCache counts a miss on first build, hits only on
    genuine reuse, and the books survive reset_costs (the cache itself is
    placement-keyed, not cost-keyed)."""
    m = SpatialMachine(12, engine="batched")
    keys = np.arange(12, dtype=np.int64)[::-1].copy()
    bitonic_sort(m, keys)
    assert m.plan_cache.misses.get("sort_network") == 1
    assert m.plan_cache.hits.get("sort_network") is None
    m.reset_costs()
    bitonic_sort(m, keys)
    assert m.plan_cache.hits.get("sort_network") == 1
    assert m.plan_cache.misses.get("sort_network") == 1
    # a different machine must not inherit the plan or the books
    m2 = SpatialMachine(12, engine="batched")
    bitonic_sort(m2, keys)
    assert m2.plan_cache.misses.get("sort_network") == 1
    assert m2.plan_cache.hits.get("sort_network") is None


def test_plan_cache_count_and_lookup_families():
    cache = PlanCache()
    assert cache.lookup(("fam", 1, 2)) is None
    cache[("fam", 1, 2)] = object()
    assert cache.lookup(("fam", 1, 2)) is not None
    cache.count("external", hit=True)
    assert cache.misses == {"fam": 1}
    assert cache.hits == {"fam": 1, "external": 1}
    # string keys are their own family; a stored None counts as a hit
    cache["plain"] = None
    assert cache.lookup("plain") is None  # indistinguishable from miss by value…
    assert cache.hits.get("plain") == 1  # …but counted as the hit it is


# --------------------------------------------------------------------------- #
# gc --dry-run and warm-boot preloading
# --------------------------------------------------------------------------- #


def test_gc_dry_run_lists_without_deleting(tmp_path):
    store = PlanStore(tmp_path / "plans", capacity=8)
    import time

    paths = []
    for n in (8, 12, 16):
        res = record("sort", n=n, seed=1, shape="uniform", store=store)
        paths.append(res.path)
        time.sleep(0.02)
    before = store.total_bytes()
    smallest_two = sum(p.stat().st_size for p in paths[1:])
    would_delete = store.gc(max_bytes=smallest_two, dry_run=True)
    # same eviction decision as a real gc (oldest-first)…
    assert would_delete == [paths[0]]
    # …but nothing was touched: bytes, files, and the memory layer survive
    assert store.total_bytes() == before
    assert all(p.exists() for p in paths)
    assert store.get(("sort", 8, "hilbert", "uniform")) is not None
    # the real gc then deletes exactly what the dry run promised
    assert store.gc(max_bytes=smallest_two) == would_delete
    assert not paths[0].exists()


def test_gc_dry_run_under_budget_is_empty(tmp_path):
    store = PlanStore(tmp_path / "plans")
    record("sort", n=8, seed=1, shape="uniform", store=store)
    assert store.gc(max_bytes=store.total_bytes(), dry_run=True) == []


def test_preload_warms_memory_newest_first(tmp_path):
    store = PlanStore(tmp_path / "plans", capacity=8)
    import time

    for n in (8, 12, 16):
        record("sort", n=n, seed=1, shape="uniform", store=store)
        time.sleep(0.02)
    fresh = PlanStore(tmp_path / "plans", capacity=8)
    assert len(fresh.memory) == 0
    loaded = fresh.preload(limit=2)
    assert len(loaded) == 2
    # newest artifacts first, so a bounded LRU keeps the hottest plans
    assert loaded[0] == ("sort", 16, "hilbert", "uniform")
    assert loaded[1] == ("sort", 12, "hilbert", "uniform")
    # preloaded keys hit memory, not disk
    fresh.get(("sort", 16, "hilbert", "uniform"))
    assert fresh.memory.hits.get("sort") == 1


def test_preload_by_key_skips_missing_and_corrupt(tmp_path):
    store = PlanStore(tmp_path / "plans", capacity=8)
    res = record("sort", n=8, seed=1, shape="uniform", store=store)
    # corrupt a second artifact on disk
    res2 = record("sort", n=12, seed=1, shape="uniform", store=store)
    res2.path.write_bytes(b"garbage")
    fresh = PlanStore(tmp_path / "plans", capacity=8)
    loaded = fresh.preload([
        ("sort", 8, "hilbert", "uniform"),      # fine
        ("sort", 12, "hilbert", "uniform"),     # corrupt -> skipped
        ("sort", 999, "hilbert", "uniform"),    # missing -> skipped
    ])
    assert loaded == [("sort", 8, "hilbert", "uniform")]
    assert res.path.exists()
