"""Op times normalized to a reference core speed.

Other tenants of a shared machine slow a core down by up to 70 % for seconds
to minutes at a time, which moved un-normalized medians between runs by more
than any usable bound.  A probe of about 1 ms, small numpy calls and Python
arithmetic like the library's per-quad code, says how fast the core is right
now; the library's code slows with it far more closely than with a
pure-Python loop.  Every stage of an op is timed on its own and its wall
time multiplied by PROBE_REF_S over the mean of the probes run right before
and right after it, so a contention change inside a long op is caught at the
next stage boundary.  The probe runs no library code, so a slower library
still shows in normalized times.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# probe time on an idle core of the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs, numpy 2.4 with OpenBLAS 0.3.31)
PROBE_REF_S = 0.9e-3

_QUADS = np.random.default_rng(0).standard_normal((32, 4, 3))


def _probe_once() -> float:
    t0 = perf_counter()
    acc = 0.0
    for q in _QUADS:
        c = q - q.mean(axis=0)
        acc += float(np.linalg.svd(c, compute_uv=False)[-1])
        acc += float(np.linalg.det(np.column_stack([c[:, 0], c[:, 1], (c * c).sum(axis=1), np.ones(4)])))
        acc += abs(complex(c[0, 0], c[0, 1]) / complex(c[1, 0], c[1, 1] + 2.0))
    return perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes now: the fastest of three runs, because a
    garbage collection or an interrupt inflates one run while a slow core
    slows all three."""
    return min(_probe_once(), _probe_once(), _probe_once())


def scale(before: float, after: float) -> float:
    """Factor that rescales a task's wall time to a core on which the probe
    takes PROBE_REF_S, from probes run right before and right after it."""
    return PROBE_REF_S / (0.5 * (before + after))


def normalized(seconds: float, before: float, after: float) -> float:
    return seconds * scale(before, after)


class OpTimer:
    """Times the stages of one op; ``wall`` and ``norm`` are their sums.

    With a tracer, each stage is a root span ``op`` of the op's id, so the
    probes between stages stay out of every span, and the stage's factor
    goes to the tracer's ``scales`` for the self times under it.
    """

    def __init__(self, tracer=None, op_id: int = -1):
        self.tracer = tracer
        self.op_id = op_id
        self.wall = 0.0
        self.norm = 0.0
        self._last = probe()

    def time(self, fn, *args, **kwargs):
        root = self.tracer.begin("op", self.op_id) if self.tracer else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            if root is not None:
                self.tracer.finish(root)
            after = probe()
            factor = scale(self._last, after)
            if root is not None:
                self.tracer.scales[root] = factor
            self.wall += dt
            self.norm += dt * factor
            self._last = after
