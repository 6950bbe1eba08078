"""Shared helpers: seeds, order statistics, set-up timing, pass/fail tally."""

from __future__ import annotations

import time

import numpy as np

from tracing import Tracer, install_layer_spans


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent seeds for the program, all from ``seed``."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def median(values) -> float:
    return float(np.median(values))


def percentile(values, q: float) -> float:
    """The sample at or just above the q-th percentile (inf stays inf)."""
    return float(np.percentile(values, q, method="higher"))


class Outcome:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def attempt(self, count: int) -> None:
        self.attempted += count

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 8:
            self.notes.append(note)


def timed_setups(set_up, tracer: Tracer | None, *, repeats: int, traced_repeats: int = 1):
    """Call ``set_up(i)`` for i < ``repeats`` (``traced_repeats`` when tracing).

    Returns the median wall of one call and every call's result. A traced
    set-up ends with :meth:`Tracer.split`, so its spans can be told apart
    from those of the measurement that follows.
    """
    if tracer is not None:
        install_layer_spans(tracer)
        repeats = traced_repeats
    walls, results = [], []
    try:
        for i in range(repeats):
            t0 = time.monotonic()
            results.append(set_up(i))
            walls.append(time.monotonic() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.split()
    return median(walls), results
