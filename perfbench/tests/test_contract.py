import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import layers
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(name, unit) for name, unit, _ in END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.METRICS]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_span_feeds_a_declared_metric():
    names = {m.name for m in layers.METRICS}
    assert set(layers.SPAN_METRICS.values()) <= names
    assert set(layers.PER_OP_COUNTS) <= names


def test_readme_maps_every_layer_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for m in layers.METRICS:
        assert f"`{m.name}`" in readme, m.name


def test_stops_the_resource_tracker_shared_memory_starts():
    code = (
        "import os\n"
        "from repro.graph.builders import from_edges\n"
        "from repro.harness.shm import default_registry\n"
        "from perfbench.run import stop_helper_processes\n"
        "default_registry().publish(from_edges([(0, 1, 1.0)]))\n"
        "assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # tracker running\n"
        "stop_helper_processes()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child processes')\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "no child processes"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
