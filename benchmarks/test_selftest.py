"""Self-test of the benchmark: every oracle rejects a corrupted answer, a
tiny run of every workload ends correct, and BENCHMARK.json keeps its shape.

    python3 -m pytest benchmarks/test_selftest.py    # or
    python3 benchmarks/test_selftest.py

Takes a minute or two: each tiny run times set-up and one whole round.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

SCRATCH = HERE / "work" / "selftest"


def _ops(workload: str, seed: int = 7) -> list[dict]:
    manifest = inputs.build(workload, seed, SCRATCH / workload,
                            ROOT / "src" / "delay_noether" / "data" / "frederico_section3.json")
    return manifest["round"]


def _op(workload: str, op_id: str) -> dict:
    return next(op for op in _ops(workload) if op["id"] == op_id)


def _rejects(op: dict, rc: int, payload: dict) -> bool:
    try:
        oracles.check(op, rc, payload)
    except oracles.Mismatch:
        return True
    return False


def test_order1_oracle_rejects_corrupted_report():
    op = _op("report-bundle", "report:el_only")
    rc, payload = worker.run_op(op["argv"])
    oracles.check(op, rc, payload)
    constants = [seg["constant"] for seg in payload["dbr"]["segments"]]
    assert constants == [-4.0, 0.0, 0.0]

    def corrupt(edit):
        bad = copy.deepcopy(payload)
        edit(bad)
        return _rejects(op, rc, bad)

    assert corrupt(lambda p: p["dbr"]["segments"][0].update(constant=-4.0 + 1e-3))
    assert corrupt(lambda p: p["noether"]["segments"][2].update(constant=1e-3))
    assert corrupt(lambda p: p["el_integral"]["segments"][1].update(constant=-4.001))
    assert corrupt(lambda p: p.update(action=4.001))
    assert corrupt(lambda p: p["dbr"].update(verdict=True))
    assert corrupt(lambda p: p["noether"].update(junction_gap=4.001))


def test_order1_oracle_on_a_fine_random_curve():
    op = _op("report-fine", "report:random0")
    rc, payload = worker.run_op(op["argv"])
    oracles.check(op, rc, payload)
    assert len(payload["dbr"]["segments"]) == 3 * inputs.FINE_STEPS
    payload["dbr"]["segments"][5]["constant"] += 1e-3
    assert _rejects(op, rc, payload)


def test_higher_order_oracle_rejects_corrupted_constant():
    op = _op("check-high", "check-dbr:sawtooth-o2")
    rc, payload = worker.run_op(op["argv"])
    oracles.check(op, rc, payload)
    payload["segments"][1]["constant"] = 1e-3
    assert _rejects(op, rc, payload)


def test_known_faults_fail_their_oracle():
    op = _op("check-high", "check-el:cubic-o2")
    assert op["known_fault"]
    rc, payload = worker.run_op(op["argv"])
    assert _rejects(op, rc, payload)


def test_solver_oracle_rejects_node_off_the_sawtooth():
    op = _ops("solve-o1")[0]
    rc, payload = worker.run_op(op["argv"])
    oracles.check(op, rc, payload)
    moved = copy.deepcopy(payload)
    moved["nodes"][30][0] += 1e-3
    assert _rejects(op, rc, moved)
    payload["action"] = 1e-3
    assert _rejects(op, rc, payload)


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def _metric_names(section: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[section]}


def test_tiny_run_of_every_workload():
    expected_failures = {"check-high": len(inputs.KNOWN_FAULTS)}
    for workload in inputs.WORKLOADS:
        done = _run(workload, 0)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], done.stderr
        assert result["attempted"] == len(_ops(workload, 3))
        assert result["failed"] == expected_failures.get(workload, 0)
        assert set(result["metrics"]) == _metric_names("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run():
    done = _run("solve-o1", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == _metric_names("per_layer")
    assert metrics["solver.iterations"] > 50
    assert metrics["solver.gradient_calls"] >= metrics["solver.iterations"]
    assert metrics["conditions.psi_calls"] == 0
    assert metrics["document.load_calls"] == 1


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run("report-bundle", 0, bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_shape():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
