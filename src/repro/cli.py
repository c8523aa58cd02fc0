"""Command-line interface.

Fifteen subcommands::

    repro-matching run --algorithm ld_gpu --dataset GAP-kron --devices 4
    repro-matching sweep --dataset GAP-kron --devices 1 2 4 8 --parallel 4
    repro-matching stream --dataset mouse_gene --engine incremental
    repro-matching bench --suite smoke --baseline benchmarks/baseline_smoke.json
    repro-matching experiment table1 [--quick] [--parallel N]
    repro-matching stats record.json
    repro-matching report --store runs.db --out report/ [--format html|md|json]
    repro-matching analysis query [filters...] [--metric M --group-by K...]
    repro-matching store ls|show FP|resume|export|gc [--store PATH]
    repro-matching serve --store runs.db [--port P] [--quota N]
    repro-matching worker --store runs.db [--max-cells N] [--idle-exit S]
    repro-matching submit -a ld_gpu -d GAP-kron [--priority N] [--wait]
    repro-matching job status|result|cancel FP [--store PATH|URL]
    repro-matching cache ls|clear|evict
    repro-matching list [datasets|algorithms|experiments]

Each flag is defined once and attached only where it applies:
``--platform``, ``--seed``, ``--json``, ``--metrics-out``, ``--store``
and the rest spell and behave the same on every subcommand that takes
them, ``run``/``submit`` take one ``--devices/-n`` and
``--batches/-b`` value and ``sweep`` a grid, and a flag a subcommand
cannot honour is not on it (argparse's usage error).  Subcommands only
parse and format; the rules live in :mod:`repro.api` and the modules
it calls.  Exit codes are uniform: **0** success, **1** runtime
failure or benchmark regression, **2** usage error (argparse's own
convention).

``run`` executes one algorithm on one dataset analog synchronously
(through :func:`repro.api.run`); ``sweep`` maps an LD-GPU
configuration grid through :func:`repro.api.sweep` (``--parallel N``
fans it out over worker processes, bit-identical to serial);
``stream`` drives the batch-dynamic plane (:mod:`repro.streaming`):
seeded or event-log-fed update batches through the incremental-repair
or from-scratch-recompute engine, verified against ``ld_seq`` on the
mutated graph unless ``--no-verify``;
``bench`` runs a fixed workload suite, writes ``BENCH_<suite>.json``
and gates against a committed baseline; ``experiment`` regenerates a
paper table/figure; ``stats`` prints the paper-claim metrics of a
stored RunRecord; ``report`` renders the analysis plane's one-command
story — recomputed paper tables, significance tests, bench
trajectories with the gate's verdict, provenance — as a standalone
no-JS HTML page (or markdown/JSON); ``analysis query`` is its
composable little sibling: typed filters over the store with optional
grouped aggregation; ``store`` inspects, resumes and maintains the
persistent run store (``--store PATH`` / ``REPRO_RUN_STORE`` on
``run``/``sweep``/``bench`` make those commands record into — and
serve finished cells from — the same store).

The service plane rides on the same store: ``serve`` runs the HTTP
daemon (:mod:`repro.service.daemon`), ``worker`` drains claimable
cells priority-first (any number of worker processes against one
store), ``submit`` registers a job without executing it, and ``job
status|result|cancel`` follow it through its lifecycle — their
``--store`` also accepts an ``http://`` daemon URL, making the CLI a
full remote client via :mod:`repro.api`.

``cache`` inspects the on-disk graph cache (``REPRO_GRAPH_CACHE*``);
``list algorithms`` includes each algorithm's capability tags
(``parallel-safe``/``serial-only`` among them).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.engine import MetricsSink, TraceSink, algorithm_names
from repro.harness import experiments as exp
from repro.harness.datasets import (
    DATASETS,
    PLATFORMS,
    load_dataset,
    quality_instance,
)
from repro.harness.report import format_table
from repro.store.db import FINAL_ERROR

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_FAILURE",
           "EXIT_USAGE"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag; subcommands that honour the
    flag attach it with ``parents=[...]``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    # Each flag is defined once here and attached only where it
    # applies, so a flag a subcommand cannot honour is argparse's own
    # usage error (exit 2).
    platform = _flag("--platform", choices=sorted(PLATFORMS),
                     default=None,
                     help="simulated platform (default: the dataset's "
                          "bandwidth-scaled DGX-A100)")
    devices = _flag("--devices", "-n", type=int, default=1, metavar="N",
                    help="simulated GPU count (default 1)")
    batches = _flag("--batches", "-b", type=int, default=None,
                    metavar="B", help="batches per device (default auto)")
    device_grid = _flag("--devices", "-n", type=int, nargs="+",
                        default=None, metavar="N",
                        help="simulated GPU counts (default 1 2 4 8)")
    batch_grid = _flag("--batches", "-b", type=int, nargs="+",
                       default=None, metavar="B",
                       help="batches per device (default auto)")
    seed = _flag("--seed", type=int, default=None,
                 help="base RNG seed for randomised algorithms (grids "
                      "derive per-cell seeds from it)")
    json_ = _flag("--json", action="store_true",
                  help="machine-readable JSON instead of the "
                       "human-readable rendering")
    metrics_out = _flag("--metrics-out", metavar="PATH", default=None,
                        help="export telemetry; .prom writes Prometheus "
                             "text, anything else a JSON metrics "
                             "document")
    store = _flag("--store", metavar="PATH", default=None,
                  help="persistent run store (SQLite; default "
                       "$REPRO_RUN_STORE when set): finished cells are "
                       "served from it with zero recompute and new "
                       "records are persisted; submit and job also "
                       "take an http:// daemon URL")
    algorithm = _flag("--algorithm", "-a", required=True,
                      choices=algorithm_names())
    dataset = _flag("--dataset", "-d", required=True,
                    choices=sorted(DATASETS))
    quality = _flag("--quality", action="store_true",
                    help="use the dataset's tiny blossom-tractable "
                         "quality instance instead of the full analog")
    parallel = _flag("--parallel", type=int, default=0, metavar="N",
                     help="worker processes for the command's cells, "
                          "bit-identical to serial (run: coreset shard "
                          "cells only)")
    tolerance = _flag("--tolerance", type=float, default=0.05,
                      help="relative regression allowed before a gated "
                           "bench metric fails (default 0.05)")
    since = _flag("--since", metavar="SHA|DATE", default=None,
                  help="only runs since an ISO date (YYYY-MM-DD, on "
                       "created_at) or whose provenance git describe "
                       "starts with SHA")
    run_filters = (
        _flag("--algorithm", "-a", nargs="+", default=None,
              help="only cells of these algorithm(s)"),
        _flag("--dataset", "-d", nargs="+", default=None,
              help="only cells on these dataset(s)"),
    )
    lease_seconds = _flag("--lease-seconds", type=float, default=None,
                          metavar="S",
                          help="lease duration of claims made through "
                               "this store connection (default "
                               "$REPRO_RUN_STORE_LEASE_S, else 300)")
    wait = _flag("--wait", action="store_true",
                 help="block until the job is terminal and print its "
                      "result")
    timeout = _flag("--timeout", type=float, default=None, metavar="S",
                    help="give up --wait after S seconds (exit 1)")

    p = argparse.ArgumentParser(
        prog="repro-matching",
        description="Multi-GPU locally dominant weighted matching "
                    "(SC'24 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one algorithm on one dataset",
        parents=[algorithm, dataset, quality, platform, devices, batches,
                 seed, json_, metrics_out, store, parallel])
    runp.add_argument("--profile", action="store_true",
                      help="print the per-iteration profiler table "
                           "(simulator-backed algorithms)")
    runp.add_argument("--trace", metavar="PATH", default=None,
                      help="write a chrome://tracing JSON of the run")
    runp.add_argument("--shards", type=int, default=None, metavar="K",
                      help="coreset algorithms only: partition edges "
                           "across K shards (default 4)")

    sub.add_parser(
        "sweep", help="sweep LD-GPU over device/batch configurations",
        parents=[dataset, platform, device_grid, batch_grid, seed, json_,
                 metrics_out, store, parallel])

    from repro.streaming.engine import STREAM_ENGINES

    streamp = sub.add_parser(
        "stream",
        help="stream update batches into a dataset and repair the "
             "matching incrementally",
        parents=[dataset, quality, seed, json_, metrics_out])
    streamp.add_argument("--num-batches", type=int, default=8,
                         metavar="K", dest="num_batches",
                         help="generated update batches (default 8; "
                              "ignored with --events)")
    streamp.add_argument("--batch-size", type=int, default=32,
                         metavar="K", dest="batch_size",
                         help="ops per generated batch (default 32; "
                              "ignored with --events)")
    streamp.add_argument("--engine", choices=STREAM_ENGINES,
                         default="incremental", dest="stream_engine",
                         help="'incremental' repairs locally from the "
                              "affected frontier; 'recompute' reruns "
                              "ld_seq from scratch per batch. "
                              "Bit-identical matchings either way")
    streamp.add_argument("--events", metavar="PATH", default=None,
                         help="replay a recorded JSONL event log "
                              "instead of generating a stream")
    streamp.add_argument("--record", metavar="PATH", default=None,
                         help="save the applied stream as a JSONL "
                              "event log (replayable via --events)")
    streamp.add_argument("--no-verify", action="store_true",
                         dest="no_verify",
                         help="skip the final bit-identity check "
                              "against from-scratch ld_seq on the "
                              "mutated graph")

    from repro.harness.bench import SUITES

    benchp = sub.add_parser(
        "bench", help="run a benchmark suite and gate against a baseline",
        parents=[json_, store, parallel, tolerance])
    benchp.add_argument("--suite", choices=sorted(SUITES),
                        default="smoke")
    benchp.add_argument("--repeats", type=int, default=3,
                        help="runs per workload; medians are reported")
    benchp.add_argument("--out", metavar="PATH", default=None,
                        help="report path (default BENCH_<suite>.json "
                             "in the current directory)")
    benchp.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline report to gate against (default "
                             "benchmarks/baseline_<suite>.json when "
                             "present)")

    statp = sub.add_parser(
        "stats", help="print paper-claim metrics of a stored RunRecord",
        parents=[json_])
    statp.add_argument("record", metavar="RECORD_JSON",
                       help="path to a RunRecord written by run --json")
    statp.add_argument("--threshold", type=float, default=0.2,
                       help="edges-accessed threshold for the Fig. 8 "
                            "iteration fraction (default 0.2)")

    expp = sub.add_parser("experiment",
                          help="regenerate a paper table/figure",
                          parents=[json_, store, parallel])
    expp.add_argument("name", choices=sorted(exp.EXPERIMENTS))
    expp.add_argument("--quick", action="store_true",
                      help="reduced sweep (seconds instead of minutes)")

    reportp = sub.add_parser(
        "report",
        help="render the analysis report (paper tables, significance, "
             "bench trajectories, provenance) from a run store",
        parents=[store, since, tolerance])
    reportp.add_argument("--out", metavar="DIR", default="report",
                         help="output directory (default report/)")
    reportp.add_argument("--format", choices=["html", "md", "json"],
                         default="html",
                         help="html: standalone no-JS page "
                              "(index.html); md/json: the same data "
                              "for terminals/machines")
    reportp.add_argument("--suite", action="append", default=None,
                         metavar="NAME",
                         help="restrict bench trajectories to this "
                              "suite (repeatable; default all found)")
    reportp.add_argument("--bench-dir", metavar="DIR", default=None,
                         help="committed baseline directory (default "
                              "benchmarks/)")
    reportp.add_argument("--gate", action="store_true",
                         help="exit 1 when any gated bench metric "
                              "regressed (CI mode)")

    analysisp = sub.add_parser(
        "analysis",
        help="typed queries over the run store (the report's "
             "building blocks)",
    )
    asub = analysisp.add_subparsers(dest="analysis_action",
                                    required=True)
    aquery = asub.add_parser(
        "query",
        help="filter stored runs; optionally aggregate a metric by "
             "group keys",
        parents=[store, *run_filters, since, json_])
    aquery.add_argument("--status", nargs="+", default=None,
                        choices=["pending", "leased", "done", "error"])
    aquery.add_argument("--platform", default=None,
                        help="simulated platform name filter")
    aquery.add_argument("--devices", "-n", type=int, nargs="+",
                        default=None, metavar="N")
    aquery.add_argument("--batches", "-b", type=int, default=None,
                        metavar="B")
    aquery.add_argument("--label-prefix", default=None,
                        help="cell label prefix (bench cells are "
                             "'<suite>:<workload>')")
    aquery.add_argument("--metric", default=None,
                        help="aggregate this metric (sim_time, "
                             "wall_time_s, duration_s, weight, "
                             "matched_edges, iterations, "
                             "host_entries_scanned) instead of "
                             "listing rows")
    aquery.add_argument("--group-by", nargs="+", default=None,
                        metavar="KEY",
                        help="grouping keys for --metric (default "
                             "algorithm dataset)")

    storep = sub.add_parser(
        "store",
        help="inspect, resume and maintain the persistent run store",
    )
    ssub = storep.add_subparsers(dest="store_action", required=True)
    sls = ssub.add_parser("ls", parents=[store, *run_filters, json_],
                          help="list stored cells and their lifecycle "
                               "status")
    sls.add_argument("--status", default=None,
                     choices=["pending", "leased", "done", "error"],
                     help="only cells in this state")
    sshow = ssub.add_parser("show", parents=[store],
                            help="full config + stored record of one "
                                 "cell")
    sshow.add_argument("fingerprint", metavar="FINGERPRINT",
                       help="cell fingerprint (unique prefix accepted; "
                            "the 'cell:' prefix may be omitted)")
    ssub.add_parser(
        "resume", parents=[store, parallel],
        help="re-run every pending/failed/stale cell; finished cells "
             "are never recomputed",
    )
    sexport = ssub.add_parser("export", parents=[store, json_],
                              help="dump the whole store as JSON (it "
                                   "always is; --json is accepted)")
    sexport.add_argument("--out", metavar="PATH", default=None,
                         help="write to PATH instead of stdout")
    sgc = ssub.add_parser("gc", parents=[store],
                          help="reclaim stale leases (and optionally "
                               "drop error rows)")
    sgc.add_argument("--prune-errors", action="store_true",
                     help="delete error rows so their cells re-register "
                          "from scratch")

    # service plane: daemon, worker fleet, remote-capable job verbs.
    servep = sub.add_parser(
        "serve", parents=[store, lease_seconds],
        help="run the matching-as-a-service HTTP daemon over a store",
    )
    servep.add_argument("--host", default=None,
                        help="bind address (default 127.0.0.1)")
    servep.add_argument("--port", type=int, default=None,
                        help="bind port (default 8787; 0 = ephemeral)")
    servep.add_argument("--quota", type=int, default=None, metavar="N",
                        help="per-client cap on unfinished jobs; over "
                             "it new submissions get HTTP 429 "
                             "(default: unlimited)")
    servep.add_argument("--quiet", action="store_true",
                        help="suppress per-request access log lines")

    workerp = sub.add_parser(
        "worker", parents=[store, lease_seconds, json_],
        help="claim and execute store cells priority-first (run any "
             "number of these against one store)",
    )
    workerp.add_argument("--max-cells", type=int, default=None,
                         metavar="N",
                         help="exit after executing N cells "
                              "(default: unbounded)")
    workerp.add_argument("--idle-exit", type=float, default=None,
                         metavar="S", dest="idle_exit",
                         help="exit after S seconds with an empty "
                              "queue; 0 drains and returns "
                              "(default: run until interrupted)")
    workerp.add_argument("--poll", type=float, default=0.5, metavar="S",
                         help="sleep between empty polls "
                              "(default 0.5)")
    workerp.add_argument("--algorithm", "-a", nargs="+", default=None,
                         choices=algorithm_names(),
                         help="only claim cells of these algorithm(s)")

    submitp = sub.add_parser(
        "submit",
        help="register a job for the worker fleet (no local execution; "
             "--store takes a path or an http:// daemon URL)",
        parents=[algorithm, dataset, quality, platform, devices, batches,
                 seed, json_, store, wait, timeout])
    submitp.add_argument("--priority", type=int, default=0,
                         help="queue priority; higher claims first "
                              "(default 0)")
    submitp.add_argument("--client", default=None,
                         help="client name recorded on the job (quota "
                              "attribution)")
    submitp.add_argument("--label", default=None,
                         help="free-form tag recorded on the record")

    jobp = sub.add_parser(
        "job",
        help="follow a submitted job (--store takes a path or an "
             "http:// daemon URL)",
    )
    jsub = jobp.add_subparsers(dest="job_action", required=True)
    for action, blurb in (("status", "lifecycle state of one job"),
                          ("result", "stored RunRecord of one job"),
                          ("cancel", "request cancellation of one "
                                     "job")):
        waits = [wait, timeout] if action == "result" else []
        ap = jsub.add_parser(action, parents=[store, json_, *waits],
                             help=blurb)
        ap.add_argument("fingerprint", metavar="FINGERPRINT")

    cachep = sub.add_parser(
        "cache",
        help="inspect the on-disk graph cache (REPRO_GRAPH_CACHE*)",
    )
    csub = cachep.add_subparsers(dest="cache_action", required=True)
    csub.add_parser("ls", parents=[json_],
                    help="list cached graph snapshots")
    csub.add_parser("clear", help="remove every cached snapshot")
    cevict = csub.add_parser(
        "evict",
        help="drop oldest-used snapshots beyond the entry budget",
    )
    cevict.add_argument("--max-entries", type=int, default=None,
                        metavar="N",
                        help="keep at most N snapshots (default "
                             "$REPRO_GRAPH_CACHE_ENTRIES, else 64)")

    listp = sub.add_parser("list", help="list registered entities")
    listp.add_argument("what", choices=["datasets", "algorithms",
                                        "experiments"])
    return p


def _store_from(args: argparse.Namespace):
    """The :class:`~repro.store.db.RunStore` named by ``--store`` or
    ``REPRO_RUN_STORE`` (None when neither is set)."""
    from repro.store import resolve_store

    return resolve_store(args.store)


def _record_summary(record) -> str:
    """``weight=…, matched_edges=…, iterations=…[, sim_time=…]`` of a
    record whose in-memory result is gone (store-served or remote)."""
    bits = [f"weight={record.weight:.6g}",
            f"matched_edges={record.matched_edges}",
            f"iterations={record.iterations}"]
    if record.sim_time is not None:
        bits.append(f"sim_time={record.sim_time:.4g}s")
    return ", ".join(bits)


def _cmd_run(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    import repro.api as api
    from repro.engine import get_spec

    overrides = {}
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    if args.parallel:
        overrides["shard_parallel"] = args.parallel
    if overrides and not api._is_coreset_coordinator(
            get_spec(args.algorithm)):
        parser.error("--shards/--parallel apply only to coreset "
                     "algorithms (coreset_greedy, coreset_ld)")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    g = quality_instance(args.dataset) if args.quality \
        else load_dataset(args.dataset)
    sinks: list = []
    trace_sink = metrics_sink = None
    if args.trace:
        trace_sink = TraceSink(path=args.trace)
        sinks.append(trace_sink)
    if args.metrics_out:
        metrics_sink = MetricsSink()
        sinks.append(metrics_sink)
    # Through the facade: with a store a previously stored run is
    # served without recompute (its record is bit-identical to a fresh
    # one, minus the never-serialised in-memory result).
    record = api.run(
        args.algorithm, args.dataset, quality=args.quality,
        platform=args.platform, devices=args.devices,
        batches=args.batches, seed=args.seed, overrides=overrides,
        sinks=tuple(sinks), store=_store_from(args))
    fmt = None
    if metrics_sink is not None and \
            metrics_sink.last_snapshot is not None:
        from repro.telemetry import write_metrics

        fmt = write_metrics(args.metrics_out,
                            metrics_sink.last_snapshot, record)
    if args.json:
        print(record.to_json(indent=1), end="")
        return EXIT_OK
    result = record.result
    print(f"{g!r}")
    if result is not None:
        print(result.summary())
    else:
        print(f"{record.algorithm} (served from store): "
              + _record_summary(record))
    if record.extra.get("peak_shard_edges") is not None:
        print(f"coreset: shards={len(record.extra['shard_edges'])}, "
              f"peak_shard_edges={record.extra['peak_shard_edges']}, "
              f"merge_edges={record.extra['merge_edges']}")
    totals = record.timeline_totals
    if totals:
        if args.profile and result is not None:
            from repro.gpusim.report import profile_report

            print(profile_report(record))
        elif args.profile:
            print("per-iteration profile unavailable for store-served "
                  "records (re-run without --store to collect one)")
        else:
            from repro.gpusim.timeline import fractions_from_totals

            frac = fractions_from_totals(totals)
            rows = [[k, 100.0 * v] for k, v in frac.items() if v > 0]
            print(format_table(["component", "% time"], rows,
                               floatfmt=".1f"))
    if trace_sink is not None and trace_sink.saved_paths:
        print(f"trace written to {trace_sink.saved_paths[0]}")
    if fmt is not None:
        print(f"metrics ({fmt}) written to {args.metrics_out}")
    elif metrics_sink is not None:
        print("no metrics collected (record served from store)")
    return EXIT_OK


def _cmd_sweep(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    import repro.api as api

    result = api.sweep(
        args.dataset, platform=args.platform,
        devices=tuple(args.devices) if args.devices else (1, 2, 4, 8),
        batches=tuple(args.batches) if args.batches else (None,),
        parallel=args.parallel,
        collect_metrics=args.metrics_out is not None,
        seed=args.seed, store=_store_from(args),
    )
    if args.metrics_out:
        from repro.telemetry import write_metrics

        fmt = write_metrics(args.metrics_out, result.metrics)
    fits = any(p.ok for p in result.points)
    if args.json:
        print(json.dumps({
            "graph": result.graph_name,
            "points": [vars(p).copy() for p in result.points],
            "records": [r.to_dict() for r in result.records],
            "best": vars(result.best).copy() if fits else None,
        }, indent=1))
        return EXIT_OK
    print(result.render())
    for r in result.records:
        if not r.ok and r.error["type"] != FINAL_ERROR:
            print(f"cell error [{r.num_devices} GPUs x "
                  f"{r.num_batches or 'auto'} batches]: "
                  f"{r.error['type']}: {r.error['message']}")
    if not fits:
        print("\nno configuration fit device memory")
        return EXIT_FAILURE
    best = result.best
    print(f"\nbest: {best.num_devices} GPUs x "
          f"{best.num_batches} batches -> {best.time_s:.4f}s")
    if args.metrics_out:
        print(f"metrics ({fmt}) written to {args.metrics_out}")
    return EXIT_OK


def _cmd_stream(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    import numpy as np

    from repro.engine import RunContext, execute
    from repro.graph.overlay import OverlayGraph
    from repro.matching.ld_seq import ld_seq
    from repro.streaming import EdgeStream

    g = quality_instance(args.dataset) if args.quality \
        else load_dataset(args.dataset)
    if args.events is not None:
        try:
            stream = EdgeStream.load(args.events)
        except ValueError as exc:
            parser.error(str(exc))
        if stream.num_vertices != g.num_vertices:
            parser.error(
                f"--events log is over {stream.num_vertices} vertices "
                f"but '{args.dataset}' has {g.num_vertices}")
    else:
        stream = EdgeStream.generate(
            g, num_batches=args.num_batches,
            batch_size=args.batch_size,
            seed=args.seed if args.seed is not None else 0)
    # Replay the structural mutations alone: an op the graph cannot
    # take (say, deleting an absent edge) is a usage error, reported
    # before any engine runs, and the final graph is what the engine's
    # mate array is verified against.
    replay = OverlayGraph(g)
    for i, batch in enumerate(stream):
        try:
            replay.apply_batch(batch.ops)
        except (KeyError, ValueError) as exc:
            parser.error(f"batch {i} {exc.args[0]}")
    if args.record:
        stream.save(args.record)

    sinks: list = []
    metrics_sink = None
    if args.metrics_out:
        metrics_sink = MetricsSink()
        sinks.append(metrics_sink)
    ctx = RunContext(seed=stream.seed, dataset=args.dataset,
                     sinks=tuple(sinks))
    record = execute("dynamic_ld", g, ctx, events=stream,
                     stream_engine=args.stream_engine,
                     batch_size=args.batch_size)

    verified = None
    if not args.no_verify:
        # Re-match the replayed graph from scratch: the engine's mate
        # array must be byte-for-byte its LD fixed point.
        oracle = ld_seq(replay.to_csr(), collect_stats=False)
        verified = bool(np.array_equal(record.result.mate, oracle.mate))

    fmt = None
    if metrics_sink is not None and \
            metrics_sink.last_snapshot is not None:
        from repro.telemetry import write_metrics

        fmt = write_metrics(args.metrics_out,
                            metrics_sink.last_snapshot, record)
    if args.json:
        doc = record.to_dict()
        if verified is not None:
            doc["verified_vs_ld_seq"] = verified
        print(json.dumps(doc, indent=1))
        return EXIT_FAILURE if verified is False else EXIT_OK

    print(f"{g!r}")
    extra = record.extra
    affected = extra.get("affected_per_batch") or []
    host = extra.get("host_entries_per_batch") or []
    latency = extra.get("update_latency_s") or []
    rows = [[i, a, h, 1e3 * t]
            for i, (a, h, t) in enumerate(zip(affected, host, latency))]
    if rows:
        print(format_table(
            ["batch", "affected", "host entries", "latency (ms)"],
            rows, floatfmt=".3f",
            title=f"dynamic_ld ({extra.get('stream_engine')}) — "
                  f"{extra.get('stream_ops')} ops in "
                  f"{extra.get('stream_batches')} batches"))
    modeled = extra.get("stream_recompute_entries_modeled")
    total_host = extra.get("host_entries_scanned")
    line = (f"final: weight={record.weight:.6g}, "
            f"matched_edges={record.matched_edges}, "
            f"repairs={extra.get('stream_repairs')}, "
            f"affected_vertices={extra.get('affected_vertices')}")
    print(line)
    if total_host is not None and modeled:
        print(f"host entries: {total_host} vs {modeled} modeled "
              f"recompute floor "
              f"({100.0 * total_host / modeled:.1f}%)")
    if args.record:
        print(f"event log written to {args.record}")
    if fmt is not None:
        print(f"metrics ({fmt}) written to {args.metrics_out}")
    if verified is not None:
        if not verified:
            print("VERIFICATION FAILED: mate array differs from "
                  "from-scratch ld_seq on the mutated graph",
                  file=sys.stderr)
            return EXIT_FAILURE
        print("verified: mate array bit-identical to from-scratch "
              "ld_seq on the mutated graph")
    return EXIT_OK


def _cmd_bench(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    from repro.harness.bench import (
        baseline_report_path,
        bench_report_path,
        compare_reports,
        run_bench,
        validate_bench_report,
        write_bench_report,
    )

    report = run_bench(args.suite, repeats=args.repeats,
                       parallel=args.parallel, store=_store_from(args))
    out = args.out or bench_report_path(args.suite)
    write_bench_report(report, out)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        rows = [[w["name"], w["algorithm"], w["dataset"], w["status"],
                 w["median_sim_time_s"], w["median_wall_time_s"]]
                for w in report["workloads"]]
        print(format_table(
            ["workload", "algorithm", "dataset", "status",
             "median sim (s)", "median wall (s)"],
            rows, floatfmt=".3g",
            title=f"bench suite '{args.suite}' x{args.repeats}",
        ))
        staging = report.get("staging")
        if staging:
            shm_s = staging.get("median_shm_attach_s")
            speedup = staging.get("speedup")
            if shm_s is None:
                print(f"staging ({staging['graph']}): npz reload "
                      f"{staging['median_npz_load_s']:.3g}s; "
                      "shared-memory plane unavailable")
            else:
                print(f"staging ({staging['graph']}): shm attach "
                      f"{shm_s:.3g}s vs npz reload "
                      f"{staging['median_npz_load_s']:.3g}s "
                      f"({speedup:.3g}x)")
        print(f"report written to {out}")

    baseline_path = args.baseline
    if baseline_path is None:
        default = baseline_report_path(args.suite)
        baseline_path = default if default.is_file() else None
    if baseline_path is None:
        print("no baseline to compare against "
              "(--baseline to provide one)")
        return EXIT_OK
    with open(baseline_path, "rt") as fh:
        baseline = json.load(fh)
    validate_bench_report(baseline)
    problems = compare_reports(report, baseline,
                               tolerance=args.tolerance)
    if problems:
        print(f"\nREGRESSION vs {baseline_path}:")
        for line in problems:
            print(f"  {line}")
        return EXIT_FAILURE
    print(f"within {100 * args.tolerance:.1f}% of {baseline_path}")
    return EXIT_OK


def _cmd_stats(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    """Paper-claim metrics of a stored RunRecord (``run --json``
    output)."""
    import numpy as np

    from repro.engine import RunRecord
    from repro.gpusim.timeline import (
        COMPONENTS,
        comm_fraction_from_totals,
        fractions_from_totals,
    )
    from repro.metrics.workstats import (
        edges_accessed_fraction,
        iterations_below_fraction,
    )

    with open(args.record, "rt") as fh:
        record = RunRecord.from_json(fh.read())

    doc: dict = {"algorithm": record.algorithm, "graph": record.graph,
                 "status": record.status}
    totals = record.timeline_totals
    if totals:
        doc["communication_fraction"] = comm_fraction_from_totals(totals)
    scanned = record.extra.get("edges_scanned")
    host_scanned = record.extra.get("host_entries_scanned")
    streaming = record.extra.get("stream_batches") is not None
    if host_scanned is not None and not streaming:
        modeled = int(sum(scanned)) if scanned else None
        doc["pointing"] = {
            "host_entries_scanned": int(host_scanned),
            "modeled_edges_scanned": modeled,
            "host_fraction_of_modeled":
                host_scanned / modeled if modeled else None,
        }
        for key in ("host_entries_scanned_pointing",
                    "host_entries_scanned_matching"):
            val = record.extra.get(key)
            if val is not None:
                doc["pointing"][key] = int(val)
    if streaming:
        modeled = record.extra.get("stream_recompute_entries_modeled")
        host = record.extra.get("host_entries_scanned")
        latencies = record.extra.get("update_latency_s") or []
        doc["streaming"] = {
            "engine": record.extra.get("stream_engine"),
            "batches": int(record.extra["stream_batches"]),
            "ops": record.extra.get("stream_ops"),
            "repairs": record.extra.get("stream_repairs"),
            "affected_vertices": record.extra.get("affected_vertices"),
            "host_entries_scanned":
                int(host) if host is not None else None,
            "modeled_recompute_entries":
                int(modeled) if modeled is not None else None,
            "host_fraction_of_recompute":
                host / modeled if host is not None and modeled else None,
            "median_update_latency_s":
                record.extra.get("median_update_latency_s"),
        }
    if scanned and record.num_directed_edges:
        frac = edges_accessed_fraction(np.asarray(scanned),
                                       record.num_directed_edges)
        doc["edges_accessed"] = {
            "min": float(frac.min()),
            "median": float(np.median(frac)),
            "max": float(frac.max()),
            "iterations_below_threshold": iterations_below_fraction(
                np.asarray(scanned), record.num_directed_edges,
                args.threshold),
            "threshold": args.threshold,
        }
    if args.json:
        print(json.dumps(doc, indent=1))
        return EXIT_OK

    print(f"{record.algorithm} on {record.graph}"
          f" ({record.num_vertices} vertices, "
          f"{record.num_directed_edges} directed edges)")
    if record.provenance:
        prov = record.provenance
        bits = [f"{k}={prov[k]}" for k in
                ("git", "python", "numpy", "seed",
                 "dataset_fingerprint") if prov.get(k) is not None]
        print("provenance: " + ", ".join(bits))

    if totals:
        frac = fractions_from_totals(totals)
        rows = [[c, 1e3 * totals[c], 100.0 * frac[c]]
                for c in COMPONENTS if c in totals]
        print(format_table(["component", "time (ms)", "% time"], rows,
                           floatfmt=".3f"))
        print(f"communication fraction: "
              f"{100.0 * doc['communication_fraction']:.1f}% "
              f"(paper: ~90% for multi-GPU runs)")
    else:
        print("no timeline — not a simulator-backed run")

    if "edges_accessed" in doc:
        ea = doc["edges_accessed"]
        print(f"edges accessed per iteration: "
              f"min {100.0 * ea['min']:.1f}%, "
              f"median {100.0 * ea['median']:.1f}%, "
              f"max {100.0 * ea['max']:.1f}%")
        print(f"iterations touching <{100.0 * args.threshold:.0f}% of "
              f"edges: {100.0 * ea['iterations_below_threshold']:.1f}% "
              f"(paper: ~90% of iterations under 20%)")
    else:
        print("no edges_scanned series — run with collect_stats "
              "(the default) to record Fig. 8 statistics")

    if "pointing" in doc:
        pt = doc["pointing"]
        line = (f"host work: {pt['host_entries_scanned']} adjacency "
                f"entries examined on the host")
        if pt.get("host_entries_scanned_pointing") is not None and \
                pt.get("host_entries_scanned_matching") is not None:
            line += (f" (pointing {pt['host_entries_scanned_pointing']}, "
                     f"matching {pt['host_entries_scanned_matching']})")
        if pt["modeled_edges_scanned"]:
            line += (f" vs {pt['modeled_edges_scanned']} modeled "
                     f"({100.0 * pt['host_fraction_of_modeled']:.1f}%)")
        print(line)

    if "streaming" in doc:
        st_ = doc["streaming"]
        print(f"streaming engine '{st_['engine']}': {st_['batches']} "
              f"batches ({st_['ops']} ops), {st_['repairs']} repairs, "
              f"{st_['affected_vertices']} affected vertices")
        if st_["host_entries_scanned"] is not None and \
                st_["modeled_recompute_entries"]:
            print(f"streaming host work: "
                  f"{st_['host_entries_scanned']} entries vs "
                  f"{st_['modeled_recompute_entries']} modeled "
                  f"from-scratch recompute floor "
                  f"({100.0 * st_['host_fraction_of_recompute']:.1f}%)")
        if st_["median_update_latency_s"] is not None:
            print(f"median update latency: "
                  f"{1e3 * st_['median_update_latency_s']:.3f} ms")
    return EXIT_OK


def _cmd_experiment(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> int:
    result = exp.EXPERIMENTS[args.name](quick=args.quick,
                                        parallel=args.parallel,
                                        store=_store_from(args))
    if args.json:
        print(json.dumps(result.to_json(), indent=1))
    else:
        print(result.render())
    return EXIT_OK


def _require_store(parser: argparse.ArgumentParser,
                   args: argparse.Namespace):
    store = _store_from(args)
    if store is None:
        parser.error("no run store: pass --store PATH or set "
                     "REPRO_RUN_STORE")
    return store


def _print_runs(rs, as_json: bool, title: str) -> None:
    """A :class:`~repro.analysis.queries.ResultSet` as JSON documents
    or as the one-row-per-cell listing table."""
    if as_json:
        print(json.dumps(rs.to_documents(), indent=1))
        return
    print(format_table(
        ["fingerprint", "algorithm", "dataset", "status", "attempts",
         "worker"],
        rs.summary_rows(), title=title))


def _cmd_report(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    store = _require_store(parser, args)
    from repro.analysis.report import resolve_since, write_report

    path, data = write_report(
        store, out_dir=args.out, fmt=args.format,
        suites=args.suite, tolerance=args.tolerance,
        bench_dir=args.bench_dir, **resolve_since(args.since))
    n_flag = data["regressions_flagged"]
    print(f"report ({args.format}) written to {path}")
    print(f"runs analysed: {data['overview']['n_records']}; "
          f"bench series: "
          f"{sum(len(e) for e in data['trajectories'].values())}; "
          f"gated regressions: {n_flag}")
    if n_flag:
        for f in data["regressions"]:
            if f["flagged"]:
                print(f"  REGRESSION {f['suite']}:{f['entry']} "
                      f"{f['metric']}: {f['ratio']:.3f}x vs "
                      f"{f['reference_source']}")
        if args.gate:
            return EXIT_FAILURE
    return EXIT_OK


def _cmd_analysis(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> int:
    store = _require_store(parser, args)
    from repro.analysis.queries import METRICS, ResultSet, RunQuery
    from repro.analysis.report import resolve_since

    when = resolve_since(args.since)
    query = RunQuery(
        algorithm=args.algorithm, dataset=args.dataset,
        status=args.status, platform=args.platform,
        num_devices=args.devices, num_batches=args.batches,
        label_prefix=args.label_prefix,
        since=when.get("since"), git=when.get("git"))
    rs = ResultSet(store, query)

    if args.metric:
        if args.metric not in METRICS:
            parser.error(f"unknown metric {args.metric!r}; have "
                         f"{', '.join(sorted(METRICS))}")
        by = tuple(args.group_by) if args.group_by \
            else ("algorithm", "dataset")
        try:
            aggs = rs.aggregate(args.metric, by=by)
        except KeyError as exc:
            parser.error(str(exc))
        if args.json:
            doc = [dict(zip(by, [str(k) for k in key]),
                        **agg.to_dict())
                   for key, agg in aggs.items()]
            print(json.dumps(doc, indent=1))
            return EXIT_OK
        rows = [list(map(str, key))
                + [agg.n, agg.median, agg.mean, agg.ci_lo, agg.ci_hi]
                for key, agg in sorted(aggs.items(),
                                       key=lambda kv: kv[0])]
        print(format_table(
            list(by) + ["n", "median", "mean", "ci_lo", "ci_hi"],
            rows, floatfmt=".4g",
            title=f"{args.metric} ({query.describe()})"))
        return EXIT_OK

    _print_runs(rs, args.json,
                f"{len(rs.rows)} run(s) matching {query.describe()}")
    return EXIT_OK


def _cmd_store(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    store = _require_store(parser, args)
    action = args.store_action

    if action == "ls":
        # The analysis query layer is the read path: the same SQL
        # narrowing + listing shape `analysis query` uses.
        from repro.analysis.queries import ResultSet, RunQuery

        rs = ResultSet(store, RunQuery(algorithm=args.algorithm,
                                       dataset=args.dataset,
                                       status=args.status))
        _print_runs(rs, args.json, f"run store {store.path}")
        if not args.json:
            print(", ".join(f"{s}: {n}"
                            for s, n in store.counts().items()))
        return EXIT_OK

    if action == "show":
        matches = store.find(args.fingerprint)
        if not matches:
            print(f"no stored cell matches {args.fingerprint!r}")
            return EXIT_FAILURE
        if len(matches) > 1:
            print(f"{args.fingerprint!r} is ambiguous "
                  f"({len(matches)} matches):")
            for r in matches:
                print(f"  {r.fingerprint}")
            return EXIT_FAILURE
        r = matches[0]
        doc = {
            "fingerprint": r.fingerprint,
            "algorithm": r.algorithm,
            "dataset": r.dataset,
            "graph_fingerprint": r.graph_fingerprint,
            "status": r.status,
            "attempts": r.attempts,
            "seed": r.seed,
            "record_schema": r.record_schema,
            "worker": r.worker,
            "error_type": r.error_type,
            "error_message": r.error_message,
            "config": r.config,
            "record": json.loads(r.record_json)
            if r.record_json is not None else None,
        }
        print(json.dumps(doc, indent=1))
        return EXIT_OK

    if action == "export":
        doc = store.export()
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "wt") as fh:
                fh.write(text)
            print(f"{doc['counts']['done']} done / "
                  f"{len(doc['runs'])} cells exported to {args.out}")
        else:
            print(text, end="")
        return EXIT_OK

    if action == "gc":
        out = store.gc(prune_errors=args.prune_errors)
        print(f"stale leases reclaimed: {out['stale_reclaimed']}, "
              f"error rows pruned: {out['errors_pruned']}")
        return EXIT_OK

    # resume: reclaim dead leases, rebuild every unfinished cell from
    # its stored config, and run them back through the same store —
    # cells that finished in the meantime are served, not recomputed.
    # Cells are grouped by the shared graph they need (None for cells
    # with their own dataset or builder).
    from repro.engine.cells import run_cells
    from repro.store.fingerprint import (
        cell_from_config,
        shared_graph_dataset,
    )

    reclaimed = store.reclaim_stale()
    todo = store.runs(("pending", "error"))
    groups: dict[str | None, list] = {}
    skipped = []
    for row in todo:
        try:
            cell = cell_from_config(row.config)
        except ValueError as exc:
            skipped.append((row.fingerprint, str(exc)))
            continue
        groups.setdefault(shared_graph_dataset(cell), []).append(cell)
    if reclaimed:
        print(f"reclaimed {reclaimed} stale lease(s)")
    if not groups and not skipped:
        print("nothing to resume: every cell is done")
        return EXIT_OK
    records = []
    for key, cells in groups.items():
        if key is not None:
            try:
                shared = load_dataset(key)
            except KeyError:
                skipped.extend(
                    (f"(ctx dataset {key!r})",
                     f"unknown context dataset {key!r}")
                    for _ in cells)
                continue
        else:
            shared = None
        records.extend(run_cells(cells, graph=shared,
                                 parallel=args.parallel, store=store))
    ok = sum(1 for r in records if r.ok)
    print(f"resumed {len(records)} cell(s): {ok} ok, "
          f"{len(records) - ok} error")
    for fp, why in skipped:
        print(f"cannot resume {fp}: {why}")
    counts = store.counts()
    print("store now: " + ", ".join(f"{s}: {n}"
                                    for s, n in counts.items()))
    return EXIT_FAILURE if skipped or ok < len(records) else EXIT_OK


def _service_store(parser: argparse.ArgumentParser,
                   args: argparse.Namespace, url_ok: bool = True):
    """``--store`` for the service verbs: an ``http://`` daemon URL
    passes through to :mod:`repro.api` untouched for ``submit``/``job``
    (``url_ok``); ``serve``/``worker`` attach to the database itself.
    Anything else resolves like every other subcommand."""
    from repro.api import _is_url

    if _is_url(args.store):
        if not url_ok:
            parser.error(f"'{args.command}' attaches to the store "
                         "database, not a daemon URL")
        return args.store
    return _require_store(parser, args)


def _render_job_record(record, as_json: bool) -> None:
    if as_json:
        print(record.to_json(indent=1), end="")
        return
    state = "ok" if record.ok else (
        f"error ({record.error['type']}: {record.error['message']})")
    print(f"{record.algorithm} on {record.graph}: {state}")
    print(_record_summary(record))


def _cmd_serve(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    store = _service_store(parser, args, url_ok=False)
    from repro.service.daemon import DEFAULT_HOST, DEFAULT_PORT, serve

    def ready(host: str, port: int) -> None:
        print(f"serving {store.path} on http://{host}:{port} "
              f"(submit with repro.api / 'submit --store "
              f"http://{host}:{port}'; Ctrl-C stops)",
              flush=True)

    serve(store.path,
          host=args.host or DEFAULT_HOST,
          port=DEFAULT_PORT if args.port is None else args.port,
          quota=args.quota, lease_seconds=args.lease_seconds,
          quiet=args.quiet, ready=ready)
    return EXIT_OK


def _cmd_worker(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    store = _service_store(parser, args, url_ok=False)
    if args.lease_seconds is not None:
        store.lease_seconds = float(args.lease_seconds)
    from repro.service.worker import worker_loop

    def on_cell(fp: str, record) -> None:
        if not args.json:
            state = "ok" if record.ok else "error"
            print(f"[{store.worker_id}] {fp[:17]} {record.algorithm} "
                  f"on {record.graph}: {state}", flush=True)

    summary = worker_loop(
        store, poll_s=args.poll, max_cells=args.max_cells,
        idle_exit_s=args.idle_exit, algorithm=args.algorithm,
        on_cell=on_cell)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=1))
    else:
        print(f"worker {summary.worker_id}: {summary.executed} cell(s) "
              f"in {summary.wall_s:.1f}s — {summary.ok} ok, "
              f"{summary.errors} error, {summary.cancelled} released "
              f"on cancel, {summary.stale_reclaims} stale reclaim(s)")
    return EXIT_OK if summary.errors == 0 else EXIT_FAILURE


def _cmd_submit(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    import repro.api as api

    store = _service_store(parser, args)
    try:
        fp = api.submit(
            args.algorithm, args.dataset, quality=args.quality,
            platform=args.platform, devices=args.devices,
            batches=args.batches, seed=args.seed, label=args.label,
            priority=args.priority, client=args.client, store=store)
    except (api.JobError, ValueError) as exc:
        print(f"submission rejected: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if not args.wait:
        if args.json:
            print(json.dumps(
                {"fingerprint": fp,
                 "state": api.status(fp, store=store).state}, indent=1))
        else:
            print(fp)
        return EXIT_OK
    try:
        record = api.result(fp, store=store, wait=True,
                            timeout=args.timeout)
    except api.JobCancelled:
        print(f"job {fp} was cancelled", file=sys.stderr)
        return EXIT_FAILURE
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAILURE
    _render_job_record(record, args.json)
    return EXIT_OK if record.ok else EXIT_FAILURE


def _cmd_job(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    import repro.api as api

    store = _service_store(parser, args)
    fp = args.fingerprint
    if not fp.startswith("cell:"):
        fp = f"cell:{fp}"
    try:
        if args.job_action == "status":
            st = api.status(fp, store=store)
            if args.json:
                print(json.dumps(st.to_dict(), indent=1))
            else:
                bits = [f"state={st.state}",
                        f"priority={st.priority}",
                        f"attempts={st.attempts}"]
                if st.client:
                    bits.append(f"client={st.client}")
                if st.worker:
                    bits.append(f"worker={st.worker}")
                if st.error_type:
                    bits.append(f"error={st.error_type}: "
                                f"{st.error_message}")
                print(f"{st.fingerprint} {st.algorithm} "
                      f"on {st.dataset or '-'}: " + ", ".join(bits))
            return EXIT_OK
        if args.job_action == "result":
            record = api.result(fp, store=store, wait=args.wait,
                                timeout=args.timeout)
            if record is None:
                state = api.status(fp, store=store).state
                print(f"job {fp} is still {state} "
                      "(--wait blocks until it finishes)",
                      file=sys.stderr)
                return EXIT_FAILURE
            _render_job_record(record, args.json)
            return EXIT_OK if record.ok else EXIT_FAILURE
        cancelled = api.cancel(fp, store=store)
        if args.json:
            print(json.dumps({"fingerprint": fp,
                              "cancelled": cancelled}, indent=1))
        elif cancelled:
            print(f"cancellation requested for {fp}")
        else:
            print(f"{fp} is already done; nothing to cancel")
        return EXIT_OK if cancelled else EXIT_FAILURE
    except api.JobNotFound:
        print(f"no job {fp} in {store if isinstance(store, str) else store.path}",
              file=sys.stderr)
        return EXIT_FAILURE
    except api.JobCancelled:
        print(f"job {fp} was cancelled", file=sys.stderr)
        return EXIT_FAILURE
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAILURE


def _cmd_cache(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    """Disk snapshots plus the shared-memory graph plane.

    ``ls`` lists both; ``clear`` removes both (any ``repro_graph_*``
    segment still in ``/dev/shm`` at clear time is either a live grid's
    — which will fall back to rebuilding — or an orphan from a hard
    crash); ``evict`` applies the entry cap to disk snapshots only, as
    segments are released by their owning process.
    """
    import os

    from repro.harness.cache import GraphCache, cache_disabled
    from repro.harness.shm import list_orphan_segments, unlink_segment

    if cache_disabled():
        print(f"graph cache is disabled (REPRO_GRAPH_CACHE="
              f"{os.environ.get('REPRO_GRAPH_CACHE', '')})")
        return EXIT_FAILURE
    action = args.cache_action
    if action == "evict":
        cache = GraphCache(max_entries=args.max_entries)
    else:
        cache = GraphCache()

    if action == "ls":
        entries = cache.entries()
        segments = list_orphan_segments()
        if args.json:
            doc = [{"path": str(p), "bytes": p.stat().st_size}
                   for p in entries]
            shm_doc = [{"name": name, "bytes": nbytes}
                       for name, nbytes in segments]
            print(json.dumps({"root": str(cache.root),
                              "entries": doc,
                              "shm_segments": shm_doc}, indent=1))
            return EXIT_OK
        if not entries:
            print(f"graph cache {cache.root}: empty")
        else:
            rows = [[p.name, p.stat().st_size] for p in entries]
            print(format_table(["snapshot", "bytes"], rows,
                               title=f"graph cache {cache.root} "
                                     f"({len(entries)} entries)"))
        if segments:
            rows = [[name, nbytes] for name, nbytes in segments]
            print(format_table(
                ["shm segment", "bytes"], rows,
                title=f"shared-memory graph plane "
                      f"({len(segments)} segment(s); live grids or "
                      f"orphans — 'cache clear' unlinks them)"))
        return EXIT_OK

    if action == "clear":
        n = len(cache.entries())
        cache.clear()
        print(f"removed {n} snapshot(s) from {cache.root}")
        freed = sum(1 for name, _ in list_orphan_segments()
                    if unlink_segment(name))
        if freed:
            print(f"unlinked {freed} shared-memory segment(s)")
        return EXIT_OK

    removed = cache.evict()
    print(f"evicted {removed} snapshot(s) "
          f"(keeping at most {cache.max_entries}) from {cache.root}")
    return EXIT_OK


def _cmd_list(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    if args.what == "datasets":
        rows = [
            [s.name, s.group, s.paper_vertices, s.paper_edges, s.notes]
            for s in DATASETS.values()
        ]
        print(format_table(
            ["name", "group", "paper |V|", "paper |E|", "notes"], rows
        ))
    elif args.what == "algorithms":
        from repro.engine import algorithm_specs

        rows = [
            [s.name, ", ".join(s.capability_tags), s.summary]
            for s in algorithm_specs()
        ]
        print(format_table(["algorithm", "capabilities", "summary"],
                           rows))
    else:
        for name in sorted(exp.EXPERIMENTS):
            print(name)
    return EXIT_OK


_COMMANDS: dict[str, Callable[[argparse.ArgumentParser,
                               argparse.Namespace], int]] = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "stream": _cmd_stream,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "analysis": _cmd_analysis,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "job": _cmd_job,
    "cache": _cmd_cache,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-matching`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
