"""Benchmark for delay-noether: one workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  Builds the
workload's documents from the seed, times set-up as the median of several
fresh interpreters (``probe.py``), runs the timed phase in one more fresh
interpreter (``worker.py``) with a pinned environment, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The line before it records the interpreter, numpy and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BUNDLE = SOURCE / "delay_noether" / "data" / "frederico_section3.json"
WORK = HERE / "work"

SETUP_PROBES = 11  # timed fresh interpreters; one more runs first, untimed
PROBE_TIMEOUT = 30.0
WORKER_TIMEOUT = 150.0

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def pinned_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DELAY_NOETHER_TOL", None)  # would change the verdicts
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def time_setup(manifest: Path, env: dict) -> float:
    """Median seconds from starting a fresh interpreter to its ``ready``."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(manifest)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "delay_noether" / "__init__.py").is_file():
        print(f"error: no delay_noether sources under {SOURCE}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    manifest = inputs.build(args.workload, args.seed, workdir, BUNDLE)
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    env = pinned_environment()

    setup_s = time_setup(manifest_path, env)
    command = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT)
    if done.returncode != 0:
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    for error in worker["errors"]:
        print(f"wrong output: {error}", file=sys.stderr)

    phase = worker["phase"]
    if args.trace:
        units = metric_units("per_layer")
        values = worker["per_layer"]
    else:
        units = metric_units("end_to_end")
        values = {
            "op_s.p50": phase["p50"],
            "ops_per_s": phase["ops"] / phase["elapsed"],
            "setup_s": setup_s,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    result = {
        "correct": not worker["errors"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    environment = {key: worker[key] for key in ("python", "numpy", "nproc")}
    environment.update(workload=args.workload, seed=args.seed, trace=args.trace,
                       timed_ops=phase["ops"], timed_s=phase["elapsed"], setup_s=setup_s)
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"environment": environment, **result}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
