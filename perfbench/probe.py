"""A fixed piece of CPU work that measures how fast the host runs right now.

On a shared host, co-tenant load changes the speed of this process by up to
2x for minutes at a time, and the guest cannot see it: CPU time grows with
wall time. The worker runs `speed_probe` just before and just after the timed
invocation, and the runner scales each invocation's times by
`REFERENCE_PROBE_S / probe_s`, giving seconds at the host's reference speed.

The probe is the benchmark's own code, never irsvlc's, so a change to the
program cannot move it. It mixes what the simulator spends its time on:
interpreted float arithmetic, small-object method calls, numpy calls on
3-vectors and vectorised numpy over a 2500-row array. The garbage collector
is off while it runs, so objects the program left alive do not slow it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# two probes (the pair around one invocation) on a quiet 2-vCPU 2.0 GHz Xeon
# VM; it only sets the scale of the normalised times
REFERENCE_PROBE_S = 0.21


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x, self.y, self.z = x, y, z

    def dot(self, other: "_Vec") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def _interpreted(n: int) -> float:
    acc = 0.0
    table = {}
    for i in range(n):
        a = _Vec(i * 0.1, 1.0, 2.0)
        b = _Vec(0.5, i % 7, 3.0)
        s = a.dot(b)
        if s > 0.0:
            acc += math.sqrt(s)
        table[i & 255] = (s, i)
        acc -= min(s, acc, i) * 1e-9
        acc += (i * 0.5) % 7.0
    return acc


def _small_numpy(n: int) -> float:
    acc = 0.0
    a = np.array([1.0, 2.0, 3.0])
    for i in range(n):
        b = a * (i % 5) + 1.0
        acc += float(np.dot(a, b)) + float(np.linalg.norm(b))
    return acc


def _vector_numpy(n: int) -> float:
    acc = 0.0
    cells = np.linspace(0.0, 1.0, 7500).reshape(2500, 3)
    for i in range(n):
        acc += float((np.sqrt((cells * cells).sum(axis=1) + i) - cells[:, 0]).sum())
    return acc


def speed_probe() -> float:
    """Seconds this host takes now for the fixed probe work (~0.1 s when quiet)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _interpreted(40000)
        _small_numpy(7000)
        _vector_numpy(600)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
