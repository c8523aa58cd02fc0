"""NCCL-style collectives: cost models and exact per-buffer combines.

LD-GPU calls ``ncclAllReduce`` on the ``pointers`` array after the pointing
phase and on the ``mate`` array after the matching phase (Algorithm 2).
Because the vertex partition is disjoint, only the owning device holds a
live value for each slot and everyone else holds the sentinel ``-1``, so a
MAX reduction reconstructs the global array unambiguously (the argument in
the paper's Lemma III.1 proof).  LD-GPU therefore keeps one host array
and charges only the modeled time; :func:`allreduce_max` below reduces
real per-device buffers, which the tests use to check that argument.

Cost model — the textbook ring allreduce NCCL uses for large messages:
``2·(N−1) steps``, each moving ``bytes/N`` at the link bandwidth plus a
per-step latency:  ``t = 2·(N−1)·(bytes/N)/bw + 2·(N−1)·α``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.topology import Interconnect

__all__ = ["allreduce_max", "ring_allreduce_time"]


def ring_allreduce_time(nbytes: int, num_devices: int,
                        link: Interconnect) -> float:
    """Seconds for a ring allreduce of ``nbytes`` across ``num_devices``.

    Bandwidth is the link's *collective* (NCCL-sustained) bandwidth, which
    also degrades with device count on shared fabrics — see
    :meth:`Interconnect.collective_bandwidth_bps`.
    """
    if num_devices <= 1:
        return 0.0
    steps = 2 * (num_devices - 1)
    chunk = nbytes / num_devices
    bw = link.collective_bandwidth_bps(num_devices)
    return steps * (chunk / bw + link.latency_s)


def allreduce_max(buffers: Sequence[np.ndarray],
                  link: Interconnect) -> float:
    """Elementwise MAX allreduce, in place on every buffer.

    Returns the modeled time in seconds.
    """
    if not buffers:
        raise ValueError("allreduce needs at least one buffer")
    shape, dtype = buffers[0].shape, buffers[0].dtype
    for b in buffers[1:]:
        if b.shape != shape or b.dtype != dtype:
            raise ValueError("allreduce buffers must share shape and dtype")
    out = buffers[0].copy()
    for b in buffers[1:]:
        np.maximum(out, b, out=out)
    for b in buffers:
        b[...] = out
    return ring_allreduce_time(out.nbytes, len(buffers), link)
