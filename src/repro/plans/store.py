"""Persistent, integrity-checked storage for workload plans.

Artifact container (``*.plan``, schema ``repro.workload-plan/v3``)::

    REPROPLAN1\\n                      ← magic
    {"schema": ..., "key": [...],     ← one JSON header line
     "sha256": ..., "nbytes": ...}\\n
    <payload, exactly nbytes>

    payload = <u64 LE table length L>
              <JSON table, L bytes>   ← {"meta": {...}, "arrays":
                                          {name: [dtype, shape, offset]}}
              <zero pad to 64>
              <data region>           ← each array at a 64-byte-aligned
                                        offset from the region's start

The header is readable without touching the (potentially large) payload,
so listing a store is cheap. The payload hash makes truncation and
bit-flips detectable (:class:`~repro.errors.PlanIntegrityError`) before
any array is trusted, the schema string gates format evolution
(:class:`~repro.errors.PlanSchemaError`), and the embedded key lets a
load reject an artifact that was renamed onto the wrong slot
(:class:`~repro.errors.PlanKeyError`). Writes go through a temp file +
``os.replace`` so concurrent recorders can never expose a half-written
artifact.

Loading costs one read and one hash: the payload is read into a single
64-byte-aligned buffer, hashed in place, frozen read-only, and the step
arrays are decoded as views into it (results are copied out, so a caller
keeping only an answer array does not pin the payload). Table dtypes come
from a numeric/bool whitelist and every entry is bounds-checked, so even
a payload whose hash matches can only ever decode to plain arrays.

:class:`PlanStore` fronts a directory of such artifacts with an LRU
in-memory layer (:class:`LRUPlanCache`) that extends the machine's
:class:`~repro.machine.machine.PlanCache` counting surface — the same
hit/miss bookkeeping, plus evictions — published as
``repro_plan_store_{hits,misses,evictions}_total``
(:func:`repro.analysis.metrics.publish_plan_store`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from repro.errors import (
    PlanIntegrityError,
    PlanKeyError,
    PlanNotFoundError,
    PlanSchemaError,
    PlanStoreError,
)
from repro.machine.machine import PlanCache
from repro.plans.recorder import (
    PLAN_SCHEMA,
    EpochOp,
    PhaseEnterOp,
    PhaseExitOp,
    PlanOp,
    PlanRefOp,
    StepOp,
    WorkloadPlan,
)

MAGIC = b"REPROPLAN1\n"

#: payload arrays start on this boundary, and loads read into a buffer
#: aligned the same way, so decoded arrays are cache-line aligned
ALIGN = 64
#: the dtypes a payload may declare: bools and plain numbers, never objects
_DTYPES = frozenset(np.dtype(c).str for c in "?bBhHiIqQefd")
#: a header line is a few hundred bytes; anything this long is not one
_MAX_HEADER = 1 << 16

#: ops_kind codes in the serialized op stream
_K_PHASE_ENTER = 0
_K_PHASE_EXIT = 1
_K_STEP = 2
_K_PLANREF = 3
_K_EPOCH = 4

#: the op-stream columns every payload carries, with their decoded dtypes
_COLUMNS = {
    "ops_kind": np.int8,
    "ops_arg": np.int64,
    "step_src": np.int64,
    "step_dst": np.int64,
    "step_dist": np.int64,
    "step_offsets": np.int64,
    "step_rounds": np.int64,
    "step_rounds_offsets": np.int64,
}


# --------------------------------------------------------------------------- #
# plan <-> named arrays
# --------------------------------------------------------------------------- #


def _encode_plan(plan: WorkloadPlan) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Flatten a plan into a JSON-able meta dict and named arrays.

    Variable-length per-step arrays are concatenated with CSR-style offset
    tables; everything non-array (phase names, epochs, plan refs, scalars)
    rides in the meta dict.
    """
    ops_kind: list[int] = []
    ops_arg: list[int] = []
    phase_names: list[str] = []
    epochs: list[dict[str, Any]] = []
    planrefs: list[dict[str, Any]] = []
    steps: list[StepOp] = []
    combiners: list[str | None] = []

    for op in plan.ops:
        if isinstance(op, PhaseEnterOp):
            ops_kind.append(_K_PHASE_ENTER)
            ops_arg.append(len(phase_names))
            phase_names.append(op.name)
        elif isinstance(op, PhaseExitOp):
            ops_kind.append(_K_PHASE_EXIT)
            ops_arg.append(len(phase_names))
            phase_names.append(op.name)
        elif isinstance(op, StepOp):
            ops_kind.append(_K_STEP)
            ops_arg.append(len(steps))
            steps.append(op)
            combiners.append(op.combiner)
        elif isinstance(op, PlanRefOp):
            ops_kind.append(_K_PLANREF)
            ops_arg.append(len(planrefs))
            planrefs.append(
                {
                    "family": op.family,
                    "params": list(op.params),
                    "rounds": op.rounds,
                    "messages": op.messages,
                    "energy": op.energy,
                }
            )
        elif isinstance(op, EpochOp):
            ops_kind.append(_K_EPOCH)
            ops_arg.append(len(epochs))
            epochs.append(
                {"context": op.context, "k": op.k, "bias": op.bias, "digest": op.digest}
            )
        else:  # pragma: no cover - exhaustive over PlanOp
            raise PlanStoreError(f"cannot serialize op of type {type(op).__name__}")

    empty = np.zeros(0, dtype=np.int64)
    arrays: dict[str, np.ndarray] = {
        "ops_kind": np.asarray(ops_kind, dtype=np.int8),
        "ops_arg": np.asarray(ops_arg, dtype=np.int64),
        "step_src": np.concatenate([s.src for s in steps]) if steps else empty,
        "step_dst": np.concatenate([s.dst for s in steps]) if steps else empty,
        "step_dist": np.concatenate([s.dist for s in steps]) if steps else empty,
        "step_offsets": np.cumsum([0] + [len(s.src) for s in steps], dtype=np.int64),
        "step_rounds": np.concatenate([s.rounds for s in steps]) if steps else empty,
        "step_rounds_offsets": np.cumsum(
            [0] + [len(s.rounds) for s in steps], dtype=np.int64
        ),
    }
    for i, (name, arr) in enumerate(sorted(plan.results.items())):
        arrays[f"result_{i}"] = arr

    meta = {
        "schema": plan.schema,
        "workload": plan.workload,
        "n": plan.n,
        "curve": plan.curve,
        "side": plan.side,
        "metric": plan.metric,
        "mode": plan.mode,
        "engine": plan.engine,
        "shape": plan.shape,
        "seed": plan.seed,
        "tree_digest": plan.tree_digest,
        "input_digest": plan.input_digest,
        "totals": plan.totals,
        "speculative": list(plan.speculative),
        "phase_names": phase_names,
        "combiners": combiners,
        "epochs": epochs,
        "planrefs": planrefs,
        "result_names": [name for name, _ in sorted(plan.results.items())],
        "result_scalars": plan.result_scalars,
    }
    return meta, arrays


def _csr_offsets(values: np.ndarray, offsets: np.ndarray, steps: int, name: str) -> list[int]:
    """``offsets`` as a list, checked to partition ``values`` into ``steps``
    slices (a slice past the end would silently come back short)."""
    bounds = offsets.tolist()
    if (
        len(bounds) != steps + 1
        or bounds[0] != 0
        or bounds[-1] != len(values)
        or np.any(np.diff(offsets) < 0)
    ):
        raise PlanIntegrityError(f"plan payload {name} offsets do not partition the column")
    return bounds


def _decode_plan(meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> WorkloadPlan:
    """Inverse of :func:`_encode_plan`; raises on structural nonsense.

    Step arrays stay views into ``arrays`` (read-only when those are);
    results are copied so they outlive the payload on their own.
    """
    for name, dtype in _COLUMNS.items():
        if name not in arrays:
            raise PlanIntegrityError(f"plan payload is missing array {name!r}")
        col = arrays[name]
        if col.dtype != dtype or col.ndim != 1:
            raise PlanIntegrityError(
                f"plan payload array {name!r} is {col.dtype}{list(col.shape)}, "
                f"expected a {np.dtype(dtype)} vector"
            )
    step_src = arrays["step_src"]
    step_dst = arrays["step_dst"]
    step_dist = arrays["step_dist"]
    step_rounds = arrays["step_rounds"]
    combiners = meta["combiners"]
    if not len(step_src) == len(step_dst) == len(step_dist):
        raise PlanIntegrityError("plan payload step_src/dst/dist lengths disagree")
    offs = _csr_offsets(step_src, arrays["step_offsets"], len(combiners), "step")
    roffs = _csr_offsets(
        step_rounds, arrays["step_rounds_offsets"], len(combiners), "step_rounds"
    )

    phase_names = meta["phase_names"]
    epochs = meta["epochs"]
    planrefs = meta["planrefs"]

    ops: list[PlanOp] = []
    try:
        for kind, arg in zip(arrays["ops_kind"].tolist(), arrays["ops_arg"].tolist()):
            if kind == _K_PHASE_ENTER:
                ops.append(PhaseEnterOp(phase_names[arg]))
            elif kind == _K_PHASE_EXIT:
                ops.append(PhaseExitOp(phase_names[arg]))
            elif kind == _K_STEP:
                a, b = offs[arg], offs[arg + 1]
                ops.append(
                    StepOp(
                        src=step_src[a:b],
                        dst=step_dst[a:b],
                        rounds=step_rounds[roffs[arg] : roffs[arg + 1]],
                        dist=step_dist[a:b],
                        combiner=combiners[arg],
                    )
                )
            elif kind == _K_PLANREF:
                pr = planrefs[arg]
                ops.append(
                    PlanRefOp(
                        family=pr["family"],
                        params=tuple(pr["params"]),
                        rounds=int(pr["rounds"]),
                        messages=int(pr["messages"]),
                        energy=int(pr["energy"]),
                    )
                )
            elif kind == _K_EPOCH:
                ep = epochs[arg]
                ops.append(
                    EpochOp(
                        context=ep["context"],
                        k=int(ep["k"]),
                        bias=float(ep["bias"]),
                        digest=ep["digest"],
                    )
                )
            else:
                raise PlanIntegrityError(f"unknown op kind {kind} in plan payload")
    except (IndexError, KeyError) as exc:
        raise PlanIntegrityError(f"plan op stream is inconsistent: {exc}") from exc

    results = {
        name: np.array(arrays[f"result_{i}"], copy=True)
        for i, name in enumerate(meta["result_names"])
    }
    return WorkloadPlan(
        workload=meta["workload"],
        n=int(meta["n"]),
        curve=meta["curve"],
        side=int(meta["side"]),
        metric=meta["metric"],
        mode=meta["mode"],
        engine=meta["engine"],
        shape=meta["shape"],
        seed=int(meta["seed"]),
        tree_digest=meta["tree_digest"],
        input_digest=meta["input_digest"],
        totals={k: int(v) for k, v in meta["totals"].items()},
        speculative=tuple(meta["speculative"]),
        ops=ops,
        results=results,
        result_scalars=meta["result_scalars"],
        schema=meta["schema"],
    )


# --------------------------------------------------------------------------- #
# payload container
# --------------------------------------------------------------------------- #


def _aligned(nbytes: int) -> int:
    return -(-nbytes // ALIGN) * ALIGN


def _pack(meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> list[Any]:
    """The payload as a list of buffers to hash and write in order: the
    table (padded to :data:`ALIGN`), then each array's raw bytes + pad.
    No array is copied unless it is not C-contiguous already."""
    table: dict[str, list[Any]] = {}
    raws: list[np.ndarray] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")
        if arr.dtype.str not in _DTYPES:
            raise PlanStoreError(f"cannot store plan array {name!r} of dtype {arr.dtype}")
        table[name] = [arr.dtype.str, list(arr.shape), offset]
        raws.append(arr.reshape(-1).view(np.uint8))
        offset = _aligned(offset + arr.nbytes)
    blob = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode()
    head = struct.pack("<Q", len(blob)) + blob
    chunks: list[Any] = [head + bytes(_aligned(len(head)) - len(head))]
    for raw in raws:
        chunks.append(raw)
        if raw.nbytes % ALIGN:
            chunks.append(bytes(_aligned(raw.nbytes) - raw.nbytes))
    return chunks


def _unpack(buf: np.ndarray) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Parse a payload buffer into (meta, arrays); arrays are views of
    ``buf``. Every table entry is checked against the dtype whitelist and
    the buffer bounds before it is viewed."""
    nbytes = len(buf)
    if nbytes < 8:
        raise PlanIntegrityError("payload is too short to hold its array table")
    (tlen,) = struct.unpack("<Q", buf[:8].tobytes())
    start = _aligned(8 + tlen)
    if start > nbytes:
        raise PlanIntegrityError(f"array table of {tlen} bytes overruns the payload")
    table = json.loads(buf[8 : 8 + tlen].tobytes())
    arrays: dict[str, np.ndarray] = {}
    for name, (dtype, shape, offset) in table["arrays"].items():
        if dtype not in _DTYPES:
            raise PlanIntegrityError(f"payload array {name!r} has disallowed dtype {dtype!r}")
        dims = [*shape, offset]
        if not all(type(d) is int and d >= 0 for d in dims) or offset % ALIGN:
            raise PlanIntegrityError(
                f"payload array {name!r} has a malformed entry {[dtype, shape, offset]}"
            )
        dt = np.dtype(dtype)
        count = math.prod(shape)
        if start + offset + count * dt.itemsize > nbytes:
            raise PlanIntegrityError(f"payload array {name!r} overruns the payload")
        arrays[name] = np.frombuffer(
            buf, dtype=dt, count=count, offset=start + offset
        ).reshape(shape)
    return table["meta"], arrays


def _read_header(fh: BinaryIO, path: Path) -> dict[str, Any]:
    """Read and validate the magic + header line at ``fh``'s start."""
    magic = fh.readline(len(MAGIC))  # the magic is a line of its own
    if magic != MAGIC:
        raise PlanIntegrityError(f"{path}: bad magic {magic!r}")
    line = fh.readline(_MAX_HEADER)
    if not line.endswith(b"\n"):
        raise PlanIntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(line.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise PlanIntegrityError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise PlanIntegrityError(f"{path}: header is not a JSON object")
    for field in ("schema", "key", "sha256", "nbytes"):
        if field not in header:
            raise PlanIntegrityError(f"{path}: header missing {field!r}")
    return header


def _read_payload(fh: BinaryIO, nbytes: int, path: Path) -> np.ndarray:
    """Read exactly ``nbytes`` from ``fh`` into one fresh buffer that starts
    on an :data:`ALIGN` boundary (its own buffer, so every array offset in
    the payload is aligned in memory too)."""
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % ALIGN
    buf = raw[skip : skip + nbytes]
    with memoryview(buf) as view:
        got = 0
        while got < nbytes:
            n = fh.readinto(view[got:])
            if not n:
                raise PlanIntegrityError(
                    f"{path}: payload ends after {got} of {nbytes} bytes (truncated)"
                )
            got += n
    return buf


def save_plan(plan: WorkloadPlan, path: str | os.PathLike[str]) -> Path:
    """Serialize ``plan`` to ``path`` atomically; returns the final path."""
    path = Path(path)
    chunks = _pack(*_encode_plan(plan))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    header = {
        "schema": plan.schema,
        "key": list(plan.key),
        "sha256": digest.hexdigest(),
        "nbytes": sum(memoryview(chunk).nbytes for chunk in chunks),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic: readers see old or new, never half
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # repro: noqa[REPRO009] - best-effort cleanup; original error propagates
            pass
        raise
    return path


def read_plan_header(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and validate just the magic + header line (cheap listing)."""
    path = Path(path)
    if not path.exists():
        raise PlanNotFoundError(f"no plan artifact at {path}")
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_plan(
    path: str | os.PathLike[str],
    *,
    expected_key: tuple[str, int, str, str] | None = None,
) -> WorkloadPlan:
    """Load, integrity-check and decode a plan artifact.

    Raises :class:`~repro.errors.PlanIntegrityError` on truncation,
    content-hash mismatch or a malformed array table,
    :class:`~repro.errors.PlanSchemaError` on an unsupported schema, and
    :class:`~repro.errors.PlanKeyError` when the artifact's key does not
    match ``expected_key``. The returned plan's step arrays are read-only
    views into one payload buffer.
    """
    path = Path(path)
    if not path.exists():
        raise PlanNotFoundError(f"no plan artifact at {path}")
    # header and payload come through one fd, so they are one snapshot:
    # a concurrent re-record os.replace()s a new inode and never touches
    # the file this fd has open
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if header["schema"] != PLAN_SCHEMA:
            raise PlanSchemaError(
                f"{path}: schema {header['schema']!r} is not supported "
                f"(expected {PLAN_SCHEMA!r}); re-record the plan"
            )
        nbytes = header["nbytes"]
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if type(nbytes) is not int or nbytes != available:
            raise PlanIntegrityError(
                f"{path}: payload is {available} bytes, header says {nbytes!r} "
                "(truncated or trailing garbage)"
            )
        buf = _read_payload(fh, nbytes, path)
    with memoryview(buf) as view:
        digest = hashlib.sha256(view).hexdigest()
    if digest != header["sha256"]:
        raise PlanIntegrityError(f"{path}: payload hash mismatch (bit rot or tampering)")
    buf.flags.writeable = False
    key = tuple(header["key"])
    if expected_key is not None and key != tuple(expected_key):
        raise PlanKeyError(
            f"{path}: artifact is keyed {key}, expected {tuple(expected_key)}"
        )
    try:
        plan = _decode_plan(*_unpack(buf))
    except (PlanIntegrityError, AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:  # the Python errors: a table or meta of the wrong JSON shape
        raise PlanIntegrityError(f"{path}: payload does not decode: {exc}") from exc
    if plan.key != key:
        raise PlanIntegrityError(
            f"{path}: header key {key} disagrees with payload key {plan.key}"
        )
    return plan


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #


class LRUPlanCache(PlanCache):
    """A bounded :class:`~repro.machine.machine.PlanCache` with LRU
    eviction and an ``evictions`` counter per family (published as
    ``repro_plan_store_evictions_total``)."""

    def __init__(self, capacity: int = 8) -> None:
        super().__init__()
        if capacity < 1:
            raise PlanStoreError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.evictions: dict[str, int] = {}

    def lookup(self, key: object) -> object | None:
        found = super().lookup(key)
        if key in self:  # refresh recency (dicts preserve insertion order)
            value = super().__getitem__(key)
            super().__delitem__(key)
            super().__setitem__(key, value)
        return found

    def __setitem__(self, key: object, value: object) -> None:
        if key in self:
            super().__delitem__(key)
        super().__setitem__(key, value)
        while len(self) > self.capacity:
            victim = next(iter(self))
            book = self.evictions
            fam = self._family(victim)
            book[fam] = book.get(fam, 0) + 1
            super().__delitem__(victim)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in text)


class PlanStore:
    """Disk-backed plan store with an LRU memory layer.

    Artifacts live under ``root`` as ``<workload>-n<n>-<curve>-<shape>.plan``
    — one slot per structural key; recording the same key twice atomically
    replaces the artifact. The memory layer counts hits/misses/evictions
    per workload family on the same surface as the machine's plan cache.
    """

    def __init__(self, root: str | os.PathLike[str], *, capacity: int = 8) -> None:
        self.root = Path(root)
        self.memory = LRUPlanCache(capacity)

    def path_for(self, key: tuple[str, int, str, str]) -> Path:
        workload, n, curve, shape = key
        return self.root / f"{_slug(workload)}-n{int(n)}-{_slug(curve)}-{_slug(shape)}.plan"

    def put(self, plan: WorkloadPlan) -> Path:
        """Persist ``plan`` (atomic) and install it in the memory layer."""
        path = save_plan(plan, self.path_for(plan.key))
        self.memory[plan.key] = plan
        return path

    def get(self, key: tuple[str, int, str, str]) -> WorkloadPlan:
        """Fetch a plan by key: memory first, then disk (counted).

        Raises :class:`~repro.errors.PlanNotFoundError` when no artifact
        exists; storage errors from a corrupt artifact propagate.
        """
        cached = self.memory.lookup(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        path = self.path_for(key)
        if not path.exists():
            raise PlanNotFoundError(f"no stored plan for key {key} under {self.root}")
        plan = load_plan(path, expected_key=key)
        self.memory[key] = plan
        return plan

    def contains(self, key: tuple[str, int, str, str]) -> bool:
        return key in self.memory or self.path_for(key).exists()

    def ls(self) -> list[dict[str, Any]]:
        """Header summaries of every artifact on disk, sorted by path."""
        rows = []
        for path in sorted(self.root.glob("*.plan")):
            try:
                header = read_plan_header(path)
            except PlanStoreError as exc:
                rows.append({"path": str(path), "error": str(exc)})
                continue
            rows.append(
                {
                    "path": str(path),
                    "key": tuple(header["key"]),
                    "schema": header["schema"],
                    "nbytes": int(header["nbytes"]),
                    "mtime": path.stat().st_mtime,
                }
            )
        return rows

    def gc(self, *, max_bytes: int, dry_run: bool = False) -> list[Path]:
        """Delete oldest artifacts until the store fits ``max_bytes``.

        Returns the deleted paths (oldest first). The memory layer drops
        the corresponding keys so a later :meth:`get` misses honestly.
        ``dry_run`` only *lists* what eviction would delete — nothing is
        unlinked and the memory layer keeps every key.
        """
        entries = []
        for path in self.root.glob("*.plan"):
            st = path.stat()
            entries.append((st.st_mtime, st.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        deleted: list[Path] = []
        for _, size, path in entries:
            if total <= max_bytes:
                break
            if not dry_run:
                try:
                    header = read_plan_header(path)
                    key = tuple(header["key"])
                except PlanStoreError:
                    key = None
                path.unlink()
                if key is not None and key in self.memory:
                    del self.memory[key]
            total -= size
            deleted.append(path)
        return deleted

    def preload(self, keys=None, *, limit: int | None = None) -> list[tuple]:
        """Warm the memory layer from disk before serving traffic.

        ``keys`` selects which artifacts to load (missing ones are
        skipped silently — warm-up is best-effort); by default every
        readable artifact on disk loads, newest first, so under a small
        LRU the most recently recorded plans win. ``limit`` caps the
        number of loads. Returns the keys actually brought into memory.
        Corrupt artifacts are skipped, never raised — a bad plan on disk
        must not stop a server boot.
        """
        loaded: list[tuple] = []
        if keys is None:
            rows = [r for r in self.ls() if "error" not in r]
            rows.sort(key=lambda r: -r["mtime"])
            keys = [r["key"] for r in rows]
        for key in keys:
            key = tuple(key)
            if limit is not None and len(loaded) >= limit:
                break
            if key in self.memory:
                continue
            path = self.path_for(key)  # type: ignore[arg-type]
            if not path.exists():
                continue
            try:
                self.memory[key] = load_plan(path, expected_key=key)  # type: ignore[arg-type]
            except PlanStoreError:  # repro: noqa[REPRO009] - best-effort warm-up; corrupt plan must not stop boot
                continue
            loaded.append(key)
        return loaded

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.glob("*.plan"))
