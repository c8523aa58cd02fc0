"""The CLI's parse layer: each flag is attached only to the subcommands
that honour it, and every inapplicable flag is argparse's exit 2."""

import json
import re

import pytest

from repro.cli import EXIT_USAGE, main

D = ["-d", "mouse_gene"]

# Each argv exits 2: a grid where one value is taken, a flag the
# subcommand cannot honour, a bad value, or no store to act on.
USAGE_ERRORS = [
    ["run", "-a", "ld_gpu", *D, "-n", "1", "2"],
    ["run", "-a", "ld_gpu", *D, "-b", "1", "2"],
    ["run", "-a", "greedy", *D, "--shards", "4"],
    ["run", "-a", "greedy", *D, "--parallel", "2"],
    ["run", "-a", "coreset_shard", *D, "--shards", "2"],
    ["run", "-a", "coreset_greedy", *D, "--quality", "--shards", "0"],
    ["run", "-a", "nope", *D],
    ["submit", "-a", "ld_gpu", *D, "-n", "1", "2", "--store", "x.db"],
    ["submit", "-a", "ld_gpu", *D, "-b", "1", "2", "--store", "x.db"],
    ["submit", "-a", "ld_gpu", *D, "--metrics-out", "m.prom",
     "--store", "x.db"],
    ["stream", *D, "--platform", "DGX-2"],
    ["stream", *D, "-n", "2"],
    ["stream", *D, "-b", "2"],
    ["stream", *D, "--store", "x.db"],
    ["bench", "--platform", "DGX-2"],
    ["bench", "-n", "2"],
    ["bench", "-b", "2"],
    ["bench", "--seed", "3"],
    ["bench", "--metrics-out", "m.prom"],
    ["stats", "r.json", "--platform", "DGX-2"],
    ["stats", "r.json", "--devices", "2"],
    ["stats", "r.json", "-b", "2"],
    ["stats", "r.json", "--seed", "3"],
    ["stats", "r.json", "--metrics-out", "m.prom"],
    ["stats", "r.json", "--store", "x.db"],
    ["sweep", "-d", "nope"],
    ["serve", "--store", "http://127.0.0.1:1/"],
    ["worker", "--store", "http://127.0.0.1:1/"],
    ["store", "ls"],
    ["analysis", "query"],
    ["report"],
    ["job", "status", "abc"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


_EXECUTION = {"--platform", "--seed", "--json", "--metrics-out",
              "--store"}
HONOURED = {
    "run": _EXECUTION | {"--algorithm", "--dataset", "--quality",
                         "--devices", "--batches", "--parallel",
                         "--profile", "--trace", "--shards"},
    "sweep": _EXECUTION | {"--dataset", "--devices", "--batches",
                           "--parallel"},
    "stream": {"--dataset", "--quality", "--seed", "--json",
               "--metrics-out", "--num-batches", "--batch-size",
               "--engine", "--events", "--record", "--no-verify"},
    "bench": {"--json", "--store", "--parallel", "--tolerance",
              "--suite", "--repeats", "--out", "--baseline"},
    "stats": {"--json", "--threshold"},
    "submit": (_EXECUTION - {"--metrics-out"})
    | {"--algorithm", "--dataset", "--quality", "--devices", "--batches",
       "--wait", "--timeout", "--priority", "--client", "--label"},
}


def _help_flags(command: str, capsys) -> set[str]:
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags: set[str] = set()
    for line in capsys.readouterr().out.splitlines():
        # option rows start at a two-space indent; help text is wider
        m = re.match(r"  (-\S.*)", line)
        if m:
            flags.update(re.findall(r"--[\w-]+",
                                    m.group(1).split("  ")[0]))
    return flags - {"--help"}


@pytest.mark.parametrize("command", sorted(HONOURED))
def test_help_lists_only_honoured_flags(command, capsys):
    assert _help_flags(command, capsys) == HONOURED[command]


def test_stats_communication_fraction_matches_sweep(tmp_path, capsys):
    from repro.engine import RunRecord
    from repro.gpusim.timeline import comm_fraction_from_totals

    assert main(["run", "-a", "ld_gpu", *D, "-n", "4", "--json"]) == 0
    path = tmp_path / "r.json"
    path.write_text(capsys.readouterr().out)
    assert main(["stats", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    record = RunRecord.from_json(path.read_text())
    # sweep's SweepPoint reads the same function off the same totals
    assert doc["communication_fraction"] \
        == comm_fraction_from_totals(record.timeline_totals)
