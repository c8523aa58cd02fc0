"""The benchmark's three workloads, driven through the public surface.

Each workload follows one protocol, used by both the timed and the
traced run:

* ``prepare()`` makes inputs and reference outputs (not timed);
* ``setup()`` is the timed set-up: graph generation, engine or daemon
  start, and one warm-up op per graph so lazy set-up is not op latency;
* ``ops()`` yields the seeded op schedule; ``run_op(spec)`` runs one op
  and returns ``(latency_s, work, output)``, timing only the op;
* ``check(spec, output)`` checks an op's output outside the timed
  interval; ``finish()`` runs end-of-run checks, adding to
  ``late_failed`` the ops they prove wrong;
* ``teardown()`` releases everything ``setup()`` made.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Iterator

import numpy as np

from perfbench import schedule as sch
from perfbench.tracing import Tracer


class Workload:
    name = "?"
    #: Ops in one traced run (fixed, so per-layer totals compare).
    trace_ops = 0
    #: The timed loop stops only at a multiple of this many ops.
    pass_len = 1
    #: What ``work`` counts, and the name ``work_per_s`` has on this
    #: workload.
    work_unit = "ops"
    rate_name = "ops_per_s"

    def __init__(self, seed: int, tracer: Tracer, tmp: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.late_failed = 0

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Any]:
        raise NotImplementedError

    def run_op(self, spec: Any) -> tuple[float, float, Any]:
        raise NotImplementedError

    def check(self, spec: Any, output: Any) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def teardown(self) -> None:
        pass


def _valid_and_maximal(graph, mate) -> bool:
    from repro.matching.validate import (is_maximal_matching,
                                         is_valid_matching)

    return is_valid_matching(graph, mate) and \
        is_maximal_matching(graph, mate)


class Sweep(Workload):
    """In-process ``api.run`` cells over four full-size analogs."""

    name = "sweep"
    pass_len = len(sch.sweep_grid())
    trace_ops = pass_len
    work_unit = "directed adjacency entries matched"
    rate_name = "entries_per_s"

    def setup(self) -> None:
        import repro.api as api
        from repro.harness.datasets import load_dataset

        load_dataset.cache_clear()
        self.graphs, self.reference = {}, {}
        for d in sch.SWEEP_GRAPHS:
            with self.tracer.span("graph.build"):
                self.graphs[d] = load_dataset(d)
            # Warm-up: memoised edge ids and first-call imports.
            self.reference[d] = api.run("ld_seq", dataset=d).result.mate
        self.checked: dict[tuple[str, bytes], bool] = {}

    def ops(self) -> Iterator[sch.Cell]:
        return sch.sweep_order(self.seed)

    def run_op(self, cell: sch.Cell):
        import repro.api as api

        t0 = time.perf_counter()
        rec = api.run(cell.algorithm, dataset=cell.dataset,
                      devices=cell.devices)
        return time.perf_counter() - t0, rec.num_directed_edges, rec

    def check(self, cell: sch.Cell, rec) -> bool:
        mate = rec.result.mate
        if cell.algorithm in sch.LD_ALGORITHMS and \
                not np.array_equal(mate, self.reference[cell.dataset]):
            return False  # Lemma III.1: one mate array for every LD run
        # Identical mate arrays need validating once per graph.
        key = (cell.dataset, hashlib.sha1(mate.tobytes()).digest())
        if key not in self.checked:
            self.checked[key] = _valid_and_maximal(
                self.graphs[cell.dataset], mate)
        return rec.ok and self.checked[key]

    def teardown(self) -> None:
        self.graphs = self.reference = self.checked = None


class Stream(Workload):
    """``IncrementalLD`` on GAP-kron, fed 64-op update batches.

    Every pass replays the same seeded batches on a fresh engine over
    the base graph: batch cost grows as edits pile up on hub rows, so
    only whole, identical passes keep runs of any length comparable.
    """

    name = "stream"
    trace_ops = 300
    pass_len = 500
    work_unit = "edge update ops applied"
    rate_name = "updates_per_s"
    graph = "GAP-kron"

    def prepare(self) -> None:
        from repro.harness.datasets import load_dataset
        from repro.streaming import EdgeStream

        # Batch 0 is each engine's warm-up op.
        self.batches = EdgeStream.generate(
            load_dataset(self.graph), num_batches=self.pass_len + 1,
            batch_size=sch.STREAM_BATCH_OPS, seed=self.seed).batches

    def _fresh_engine(self) -> None:
        from repro.streaming import IncrementalLD

        self.engine = IncrementalLD(self.base)
        self.engine.apply(self.batches[0])

    def setup(self) -> None:
        from repro.harness.datasets import load_dataset

        load_dataset.cache_clear()
        with self.tracer.span("graph.build"):
            self.base = load_dataset(self.graph)
        self._fresh_engine()
        self.unverified = 0
        self.pass_digest = None

    def ops(self) -> Iterator[Any]:
        while True:
            yield from self.batches[1:]
            # Pass end: the first pass is checked in full, later ones
            # must land on the same mate array.
            digest = hashlib.sha1(self.engine.mate.tobytes()).digest()
            if self.pass_digest is None:
                self.pass_digest = digest
                self._verify()
            elif digest != self.pass_digest:
                self.late_failed += self.unverified
            self.unverified = 0
            self._fresh_engine()

    def _verify(self) -> None:
        """Mate array vs a from-scratch ``ld_seq`` on the snapshot; a
        mismatch fails every op since the last check."""
        from repro.matching.ld_seq import ld_seq

        snap = self.engine.snapshot()
        mate = self.engine.mate
        ok = np.array_equal(mate, ld_seq(snap, collect_stats=False).mate) \
            and _valid_and_maximal(snap, mate)
        if not ok:
            self.late_failed += self.unverified
        self.unverified = 0

    def run_op(self, batch):
        t0 = time.perf_counter()
        res = self.engine.apply(batch)
        return time.perf_counter() - t0, batch.num_ops, res

    def check(self, batch, res) -> bool:
        self.unverified += 1
        return res.num_ops == batch.num_ops

    def finish(self) -> None:
        self._verify()

    def teardown(self) -> None:
        self.engine = self.base = None


class Service(Workload):
    """A ``repro serve`` daemon thread and one closed-loop client."""

    name = "service"
    trace_ops = 200
    pass_len = sch.SERVICE_BLOCK
    work_unit = "jobs completed"
    rate_name = "jobs_per_s"

    def prepare(self) -> None:
        import repro.api as api
        from repro.harness.datasets import DATASETS

        self.datasets = tuple(DATASETS)
        # The weight an in-process run of each job gives.
        self.expected = {
            (d, a, n): api.run(a, dataset=d, quality=True, devices=n).weight
            for d in self.datasets for a, n in sch.SERVICE_ALGORITHMS}
        self.server = None

    def setup(self) -> None:
        from repro.harness.datasets import quality_instance
        from repro.service.daemon import build_server

        quality_instance.cache_clear()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
        self.store_path = os.path.join(self.store_dir, "runs.db")
        with self.tracer.span("service.start"):
            self.server = build_server(self.store_path, port=0, quiet=True)
            self.thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": 0.05}, daemon=True)
            self.thread.start()
        self.url = "http://%s:%d" % self.server.server_address[:2]
        for d in self.datasets:
            with self.tracer.span("graph.build"):
                quality_instance(d)
            # Warm-up job (seed None is never scheduled).
            self.run_op(sch.Job(d, "ld_seq", 1, None, resubmit=False))

    def ops(self) -> Iterator[sch.Job]:
        return sch.job_schedule(self.seed, self.datasets)

    def run_op(self, job: sch.Job):
        import repro.api as api

        span = self.tracer.span
        t0 = time.perf_counter()
        with span("service.http_submit"):
            fp = api.submit(job.algorithm, dataset=job.dataset,
                            quality=True, devices=job.devices,
                            seed=job.seed, store=self.url)
        with span("service.drain"):
            executed = api.process(store=self.store_path, idle_exit_s=0)
        with span("service.http_result"):
            rec = api.result(fp, store=self.url)
        latency = time.perf_counter() - t0
        self.tracer.add("store.jobs")
        if executed == 0:
            self.tracer.add("store.hits")
        return latency, 1, (executed, rec)

    def check(self, job: sch.Job, output) -> bool:
        executed, rec = output
        return (rec is not None and rec.ok
                and executed == (0 if job.resubmit else 1)
                and rec.weight == self.expected[
                    (job.dataset, job.algorithm, job.devices)])

    def finish(self) -> None:
        """Leftover shm segments or leased rows are failures."""
        from repro.store.db import RunStore

        leftover = len(glob.glob(f"/dev/shm/repro_graph_{os.getpid()}_*"))
        with RunStore(self.store_path) as store:
            leftover += store.counts()["leased"]
        self.late_failed += leftover

    def teardown(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.server = None
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Stream, Service)}
