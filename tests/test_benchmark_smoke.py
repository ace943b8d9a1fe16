"""The benchmark stays runnable: one short untraced run of a workload
through ``benchmarks/run.py`` must check every answer correct.  Every
workload is run: the higher-order checks and the fine-grid report pass the
order-2 and order-3 folded integrals and the 15-segment report through the
benchmark's closed-form oracles."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["op_s.p50"]["value"] > 0
    return result


def test_solve_workload_runs_and_is_correct():
    run_workload("solve-o1")


def test_report_workload_runs_and_is_correct():
    run_workload("report-bundle")


def test_higher_order_check_workload_runs_and_is_correct():
    run_workload("check-high")


def test_fine_report_workload_runs_and_is_correct():
    run_workload("report-fine")


def test_tracer_resolves_every_target():
    # A traced run wraps every name listed in tracing.TARGETS; installing
    # the tracer raises on the first one the package no longer has.  It
    # patches module globals, so it runs in its own interpreter.
    code = (
        "import sys; sys.path.insert(0, 'benchmarks'); "
        "import tracing; tracing.Tracer().install()"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
