"""Build and load the compiled clock kernel (``_clock.c``) behind the batched engine.

The kernel is compiled lazily, on the first batched send of the process,
with the system C compiler (``gcc -O2 -shared -fPIC``) and loaded through
:mod:`ctypes` — no dependency beyond the standard library. The shared
object is cached in ``~/.cache/repro`` (created mode 0700) under the
sha256 of the source plus the compile command, written to a temp file
and ``os.replace``-d into place, so concurrent first calls never load a
half-written library.

Without a compiler, or when the build fails, :func:`kernel` returns
``None`` after one :class:`RuntimeWarning`, and
:func:`~repro.machine.machine.advance_clocks_batch` loops the numpy
oracle :func:`~repro.machine.machine.advance_clocks` per round instead —
slower, bit-identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from collections.abc import Callable
from pathlib import Path

SOURCE = Path(__file__).with_name("_clock.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_UNLOADED = object()
#: the loaded ``advance_rounds`` function, ``None`` when unavailable
_kernel: object = _UNLOADED
_lock = threading.Lock()


def kernel() -> Callable[..., int] | None:
    """The compiled ``advance_rounds`` entry point, building it on first use."""
    global _kernel
    if _kernel is _UNLOADED:
        with _lock:
            if _kernel is _UNLOADED:
                try:
                    _kernel = _load()
                except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                    warnings.warn(
                        f"compiled clock kernel unavailable ({exc}); the batched "
                        "engine advances clocks with the numpy oracle instead",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    _kernel = None
    return _kernel  # type: ignore[return-value]


def _load() -> Callable[..., int]:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    source = SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join((Path(cc).name, *CFLAGS)).encode()).hexdigest()
    cache = Path.home() / ".cache" / "repro"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    lib = cache / f"clock-{tag[:16]}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            subprocess.run(
                [cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    fn = ctypes.CDLL(str(lib)).advance_rounds
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    return fn
