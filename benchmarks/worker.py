"""One workload's timed phase, in a fresh interpreter started by run.py.

Reads a manifest written by ``inputs.build``, runs one untimed warm-up
operation, then repeats whole rounds of the manifest's operations through
``delay_noether.cli.main`` (in-process, ``--json``) until ``--seconds`` have
passed, checking every output against its oracle.  With ``--trace 1`` it
first times one untraced round, then installs the per-layer tracer for the
timed rounds and writes its spans next to the manifest.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import delay_noether.cli
import oracles
from tracing import Tracer

# No run holds 40 operations, the fewest for which a tail percentile would
# have ten samples beyond it; the median is the only percentile reported.
MAX_OPS = 39


def run_op(argv: list[str]) -> tuple[int, dict | None]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = delay_noether.cli.main(argv)
    text = buffer.getvalue()
    return rc, json.loads(text) if text else None


def attempt(op: dict, tracer=None, label: str = ""):
    """Run one operation; return (rc, payload), or the exception it raised."""
    try:
        if tracer is None:
            return run_op(op["argv"])
        return tracer.op(label, run_op, op["argv"])
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return exc


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, op: dict, outcome) -> None:
        """Record one operation; ``outcome`` is (rc, payload) or an exception."""
        try:
            if isinstance(outcome, Exception):
                raise oracles.Mismatch(f"{type(outcome).__name__}: {outcome}")
            rc, payload = outcome
            if payload is None:
                raise oracles.Mismatch(f"no output, exit code {rc}")
            oracles.check(op, rc, payload)
        except oracles.Mismatch as exc:
            self.failed += 1
            if op.get("known_fault") is None:
                self.errors.append(f"{op['id']}: {exc}")


def timed_rounds(ops: list[dict], seconds: float, tally: Tally, tracer=None) -> dict:
    """The whole number of rounds of ``ops`` whose total time comes nearest
    to ``seconds`` (at least one), within MAX_OPS operations."""
    durations = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            begin = time.perf_counter()
            outcome = attempt(op, tracer, f"{tally.attempted}:{op['id']}")
            durations.append(time.perf_counter() - begin)
            tally.attempted += 1
            tally.check(op, outcome)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds or len(durations) + len(ops) > MAX_OPS:
            break
    return {"ops": len(durations), "elapsed": elapsed,
            "p50": statistics.median(durations), "durations": durations}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    ops = manifest["round"]
    tally = Tally()

    warmup = Tally()
    warmup.check(ops[0], attempt(ops[0]))

    result = {}
    if args.trace:
        plain = timed_rounds(ops, 0.0, tally)
        tracer = Tracer()
        tracer.install()
        traced = timed_rounds(ops, args.seconds, tally, tracer)
        result["per_layer"] = tracer.per_op(traced["ops"])
        result["per_layer"]["trace.overhead"] = traced["p50"] / plain["p50"]
        result["phase"] = traced
        tracer.write_spans(Path(args.manifest).with_name("spans.jsonl"))
    else:
        result["phase"] = timed_rounds(ops, args.seconds, tally)

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=warmup.errors + tally.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=np.__version__,
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
