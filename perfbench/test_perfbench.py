"""Self-test of the benchmark: every workload at a tiny size, schema only.

Timings are never checked; they vary from run to run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# paper-case3 runs on demand; BENCHMARK.json gates the other two
WORKLOADS = ("paper-case3", "accept-32", "cli-real-case4")


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_wrapped_function():
    sys.path.insert(0, str(HERE))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(HERE))
    import hsidenoise.solver as solver

    originals = (solver.diff_forward, solver.update_x, solver.solve)
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.diff_forward.__wrapped__ is originals[0]
    finally:
        tracer.restore()
    assert (solver.diff_forward, solver.update_x, solver.solve) == originals
