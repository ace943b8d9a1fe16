"""Set-up probe: a fresh interpreter imports delay_noether and loads every
document of a workload (parsing, Problem with its symbolic partials,
trajectories, SymmetryCandidate), then prints ``ready``.  run.py times
the interval from start to that line."""

import json
import sys

from delay_noether import load_document

with open(sys.argv[1], encoding="utf-8") as handle:
    for path in json.load(handle)["docs"]:
        load_document(path)
print("ready", flush=True)
