"""Calibration against a fixed pure-Python reference computation.

On a shared machine the speed at which one core runs Python drifts by tens
of percent over seconds and minutes, and CPU time drifts with it.  The
benchmark therefore times `reference()` next to every measured pass and scales
the pass by NOMINAL_S / (reference time), the mean of the reference runs just
before and just after it.  A calibrated time reads as the seconds the work
would take on a core that runs the reference in NOMINAL_S.  The reference
never calls fillperm, so no change to the package can move it.

This module must not import fillperm: set-up probes time the import after it.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.02


def reference() -> int:
    """Label conjugation and dictionary work of the kind fillperm's hot loops do."""
    acc = 0
    sigma = tuple((i * 7) % 60 + 1 for i in range(60))
    t = tuple(range(60, 0, -1))
    for _ in range(1500):
        out = [0] * 60
        for e0, v in enumerate(sigma):
            out[t[e0] - 1] = t[v - 1]
        sigma = tuple(out)
        where = {v: i for i, v in enumerate(sigma)}
        acc += where[1] + len(str(sigma))
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two reference runs into calibrated seconds."""
    return NOMINAL_S / ((before + after) / 2)
