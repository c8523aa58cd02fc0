"""Wall-clock benchmark of the LD matching reproduction.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs a fixed, seed-chosen list of ops twice,
untraced and then with spans around calls into each layer, and prints
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports and the
chrome://tracing file go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Metric name, unit and description of every end-to-end metric.
END_TO_END = (
    ("op_p50_s", "s", "median op latency"),
    ("op_p90_s", "s", "90th-percentile op latency"),
    ("setup_s", "s", "median set-up time"),
    ("peak_rss_mb", "MB", "peak resident memory of the process"),
    ("work_per_s", "1/s", "work units per second of op time"),
)


def isolate(tmp: Path) -> dict[str, str | None]:
    """Clear every inherited ``REPRO_*`` variable, then pin the ones
    that change behaviour.  Returns the effective values."""
    pinned: dict[str, str | None] = {
        # A set store turns api.run into a store hit.
        "REPRO_RUN_STORE": None,
        "REPRO_RUN_STORE_LEASE_S": None,
        "REPRO_POINTING_ENGINE": "index",
        "REPRO_SHM": "on",
        "REPRO_GRAPH_CACHE": str(tmp / "graph-cache"),
        "REPRO_GRAPH_CACHE_ENTRIES": None,
        "REPRO_PARALLEL_START_METHOD": "spawn",
    }
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key, value in pinned.items():
        if value is not None:
            os.environ[key] = value
    return pinned


def stop_helper_processes() -> None:
    """Unlink the shared-memory segments this process still owns, then
    stop and reap multiprocessing's resource tracker.

    Publishing a graph segment starts the tracker, a helper process
    meant to outlive its parent; left alone it would still be running
    when the benchmark exits.  Segments go first, so that unlinking
    them does not start the tracker again."""
    shm = sys.modules.get("repro.harness.shm")
    if shm is not None:
        shm.default_registry().unlink_all()
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops, with each op's latency and work."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed: list[bool] = []
        self.work = 0.0

    def op(self, wl, spec) -> float:
        """Run, time and check one op; returns its wall time."""
        t0 = time.perf_counter()
        try:
            latency, work, output = wl.run_op(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.latencies.append(time.perf_counter() - t0)
            self.failed.append(True)
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self.latencies.append(latency)
        self.work += work
        try:
            ok = wl.check(spec, output)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed.append(not ok)
        return wall

    def counts(self, wl) -> tuple[int, int]:
        attempted = len(self.failed)
        return attempted, min(attempted, sum(self.failed) + wl.late_failed)


def timed_run(wl, seconds: float) -> tuple[dict, Tally]:
    """Ops until ``seconds`` have passed and a p90 has ten samples
    beyond it, stopping at a pass boundary.  A speed probe before each
    set-up and op and after each op scales times to reference speed
    (``speed.py``); raw times are reported beside them."""
    from perfbench import speed, stats

    wl.prepare()
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        wl.teardown()
        before = speed.probe()
        t0 = time.perf_counter()
        wl.setup()
        setups_raw.append(time.perf_counter() - t0)
        setups.append(speed.scale(setups_raw[-1:],
                                  [before, speed.probe()])[0])
    tally = Tally()
    probes = [speed.probe()]
    min_ops = stats.min_samples_for(90.0)
    t_start = time.perf_counter()
    for spec in wl.ops():
        tally.op(wl, spec)
        probes.append(speed.probe())
        n = len(tally.failed)
        if n % wl.pass_len == 0 and n >= min_ops and \
                time.perf_counter() - t_start >= seconds:
            break
    measured = time.perf_counter() - t_start
    wl.finish()
    wl.teardown()
    attempted, failed = tally.counts(wl)
    if stats.tail_percentile(attempted) < 90.0:
        raise RuntimeError(f"{attempted} ops are too few for a p90")

    def summary(times: list[float], setup: list[float]) -> dict:
        lat = stats.op_latencies(times, tally.failed)
        ok_time = sum(t for t, bad in zip(times, tally.failed) if not bad)
        return {
            "op_p50_s": stats.percentile(lat, 50.0),
            "op_p90_s": stats.percentile(lat, 90.0),
            "setup_s": stats.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "work_per_s": tally.work / ok_time if ok_time else 0.0,
        }

    extra = {"failed_frac": stats.failed_frac(attempted, failed),
             "work_unit": wl.work_unit,
             "measured_s": measured,
             "probe_median_s": stats.median(probes),
             "raw": summary(tally.latencies, setups_raw)}
    return {"metrics": summary(speed.scale(tally.latencies, probes),
                               setups),
            "extra": extra}, tally


def traced_run(wl, out_stem: Path) -> tuple[dict, Tally]:
    from perfbench import layers
    from perfbench.tracing import SETUP, Patcher, write_chrome_trace

    wl.prepare()
    tally = Tally()
    # The same set-up and ops untraced; the ops' wall gives the
    # tracing overhead (the first set-up in a process pays one-off
    # costs, so set-up is left out of that comparison).
    wl.setup()
    untraced = 0.0
    for spec in islice(wl.ops(), wl.trace_ops):
        untraced += tally.op(wl, spec)
    wl.finish()
    wl.teardown()

    tracer = wl.tracer
    patcher = Patcher(tracer)
    layers.install(patcher)
    try:
        with tracer.window(SETUP), tracer.span("setup"):
            wl.setup()
        setup_wall = tracer.wall
        for i, spec in enumerate(islice(wl.ops(), wl.trace_ops)):
            with tracer.window(i), tracer.span("op"):
                latency, work, output = wl.run_op(spec)
            ok = wl.check(spec, output)
            tally.latencies.append(latency)
            tally.failed.append(not ok)
        wl.finish()
    finally:
        patcher.undo()
        wl.teardown()
    metrics = layers.per_layer_metrics(tracer, wl.trace_ops,
                                       (tracer.wall - setup_wall) / untraced)
    write_chrome_trace(tracer.spans, f"{out_stem}.trace.json")
    units = {m.name: m.unit for m in layers.METRICS}
    moves = {m.name: m.moves for m in layers.METRICS}
    table = [{"metric": k, "value": v, "unit": units[k], "moves": moves[k]}
             for k, v in metrics.items()]
    with open(f"{out_stem}.layers.json", "w") as fh:
        json.dump({"workload": wl.name, "ops": wl.trace_ops,
                   "untraced_ops_wall_s": untraced, "layers": table},
                  fh, indent=1)
    return {"metrics": metrics,
            "extra": {"traced_ops": wl.trace_ops,
                      "untraced_ops_wall_s": untraced,
                      "spans": len(tracer.spans)}}, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "stream", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    env = isolate(tmp)

    from perfbench import layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Tracer(), str(tmp))
    stem = OUT / f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            report, tally = traced_run(wl, stem)
            units = {m.name: m.unit for m in layers.METRICS}
        else:
            report, tally = timed_run(wl, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        wl.teardown()
        stop_helper_processes()
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed = tally.counts(wl)
    report.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, attempted=attempted, failed=failed,
                  env=env)
    with open(f"{stem}.trace{args.trace}.report.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.4g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in report["extra"].items():
        print(f"  {key}: {value}")
    for name, value in report["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {wl.rate_name:36s} "
              f"{report['metrics']['work_per_s']:14.6g} 1/s "
              f"(work_per_s: {wl.work_unit} per second)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
