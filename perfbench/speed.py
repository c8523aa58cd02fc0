"""Machine-speed probe: makes op times comparable across host states.

The shared host this benchmark targets changes speed by up to 2.5x
for seconds at a time (other tenants, clock changes), which moves a
run's raw op latencies far more than most code changes would.  A
fixed probe, timed next to every op, measures the host's current
speed; each op time is divided by the local probe time and multiplied
by :data:`REFERENCE_S`, giving *seconds at reference speed*: the time
the op would take on a host where the probe takes ``REFERENCE_S``.
The probe does not call the matching package, so a code change cannot
move it.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: Probe time, in seconds, at reference speed (about the probe's time
#: on the 2-vCPU development host in its fast state).
REFERENCE_S = 6.0e-4

#: Probes on each side of an op that set its local speed; their
#: median also discards a probe slowed by an interrupt.
NEIGHBOURS = 2

_KEYS = np.random.default_rng(0).random(1 << 16)


def probe() -> float:
    """Seconds the probe takes now."""
    t0 = time.perf_counter()
    # Interpreter work and a numpy sort, the two kinds of work the
    # workloads' ops mix.
    table = {}
    for i in range(4000):
        table[i] = i * i
    np.sort(_KEYS)
    return time.perf_counter() - t0


def local_speed(probes: Sequence[float], i: int) -> float:
    """Probe time around op ``i``, where ``probes[i]`` was taken just
    before op ``i`` and ``probes[i + 1]`` just after it."""
    lo = max(0, i + 1 - NEIGHBOURS)
    hi = min(len(probes), i + 1 + NEIGHBOURS)
    return float(np.median(probes[lo:hi]))


def scale(times: Sequence[float], probes: Sequence[float]) -> list[float]:
    """Each op time in seconds at reference speed."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each op and one after "
                         "the last")
    return [t * REFERENCE_S / local_speed(probes, i)
            for i, t in enumerate(times)]
