"""Seeded op schedules: which work each workload does, in which order.

Everything here is a pure function of the workload seed, so the same
seed gives the same cell order and job schedule in any process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

#: The four full-size analogs the sweep runs on: Kronecker, the
#: hub-skewed graph that auto-batches, a sparse k-mer graph with few
#: rounds, and a hub-heavy social graph.
SWEEP_GRAPHS = ("GAP-kron", "AGATHA-2015", "kmer_U1a", "com-Orkut")

#: ``(algorithm, devices)`` cells per sweep graph.
SWEEP_ALGORITHMS = (("ld_seq", 1), ("ld_gpu", 1), ("ld_gpu", 2),
                    ("ld_gpu", 4), ("ld_gpu", 8), ("greedy", 1),
                    ("suitor_seq", 1))

#: Algorithms whose mate arrays must be byte-identical (Lemma III.1).
LD_ALGORITHMS = ("ld_seq", "ld_gpu")

#: ``(algorithm, devices)`` of service jobs.
SERVICE_ALGORITHMS = (("ld_seq", 1), ("ld_gpu", 2), ("greedy", 1))

#: Service jobs come in blocks; this many per block resubmit a job
#: that already finished, at seed-chosen positions.
SERVICE_BLOCK = 8
SERVICE_RESUBMITS_PER_BLOCK = 2

#: Ops per stream update batch.
STREAM_BATCH_OPS = 64


@dataclass(frozen=True)
class Cell:
    """One in-process ``api.run`` of the sweep."""

    dataset: str
    algorithm: str
    devices: int


@dataclass(frozen=True)
class Job:
    """One submit→result job of the service workload.

    ``seed`` is part of the job's content fingerprint, so every fresh
    job is new work; a resubmission repeats an earlier job exactly.
    """

    dataset: str
    algorithm: str
    devices: int
    seed: int
    resubmit: bool


def sweep_grid() -> list[Cell]:
    return [Cell(d, a, n) for d in SWEEP_GRAPHS for a, n in SWEEP_ALGORITHMS]


def sweep_order(seed: int) -> Iterator[Cell]:
    """Endless grid passes, each in its own seed-shuffled order."""
    rng = random.Random(seed)
    while True:
        cells = sweep_grid()
        rng.shuffle(cells)
        yield from cells


def job_schedule(seed: int, datasets: tuple[str, ...]) -> Iterator[Job]:
    """Endless service jobs for one closed-loop client.

    Fresh jobs cycle through seed-shuffled decks of every
    ``dataset x algorithm`` combination, so the mix stays balanced in
    any prefix; each block of :data:`SERVICE_BLOCK` jobs holds exactly
    :data:`SERVICE_RESUBMITS_PER_BLOCK` resubmissions of finished jobs.
    """
    rng = random.Random(seed)
    combos = [(d, a, n) for d in datasets for a, n in SERVICE_ALGORITHMS]
    deck: list[tuple[str, str, int]] = []
    finished: list[Job] = []
    fresh = 0
    while True:
        hits = set(rng.sample(range(SERVICE_BLOCK),
                              SERVICE_RESUBMITS_PER_BLOCK))
        for slot in range(SERVICE_BLOCK):
            if slot in hits and finished:
                old = rng.choice(finished)
                yield Job(old.dataset, old.algorithm, old.devices,
                          old.seed, resubmit=True)
                continue
            if not deck:
                deck = list(combos)
                rng.shuffle(deck)
            d, a, n = deck.pop()
            job = Job(d, a, n, (seed % 1_000_000) * 1_000_000 + fresh,
                      resubmit=False)
            fresh += 1
            finished.append(job)
            yield job


def take(it: Iterator, n: int) -> list:
    return list(islice(it, n))
