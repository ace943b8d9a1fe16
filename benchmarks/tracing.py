"""Per-layer tracing for the benchmark's traced runs.

``Tracer.install`` wraps the public functions and methods of each module of
``delay_noether`` (one module is one layer).  A wrapped call is a span; a
layer's self time is the duration of its spans minus the time their child
spans cover.  Counts and self times are accumulated as the program runs;
spans down to ``KEEP_DEPTH`` levels below an operation are kept in memory
and written out when the run ends.

A module that imports a function by name holds its own reference, so a
wrapper is put in every module namespace that holds the original.
``expr.evaluate`` and ``expr.diff`` recurse through their own module
globals; their wrappers count and time only the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

KEEP_DEPTH = 2  # op -> cli.main -> document load, a check or a solve

# layer -> [(owner, attribute, counter name or None, timer name or None)].
# A counter counts calls, a timer sums their inclusive duration; the owner
# is a module name or "module.Class".
TARGETS = {
    "expr": [
        ("expr", "evaluate", "expr.evaluate_calls", "expr.evaluate_s"),
        ("expr", "diff", "expr.diff_calls", None),
        ("expr", "parse", None, None),
        ("expr", "canonicalize", None, None),
    ],
    "trajectory": [
        ("trajectory.PiecewiseTrajectory", "eval_derivative", "trajectory.eval_calls", None),
        ("trajectory.PiecewiseTrajectory", "segment_interval", None, None),
        ("trajectory.PiecewiseTrajectory", "__init__", None, None),
        ("trajectory.DelayedArgs", "bindings", None, None),
        ("trajectory", "delayed_args", "trajectory.delayed_args_calls", None),
        ("trajectory", "effective_breakpoints",
         "trajectory.effective_breakpoints_calls", None),
        ("trajectory", "subsegments", None, None),
    ],
    "functional": [
        ("functional.Problem", "__init__", None, "functional.problem_build_s"),
        ("functional.Problem", "args", "functional.args_calls", None),
        ("functional.Problem", "partial", "functional.partial_calls", None),
        ("functional.Problem", "lagrangian_value", None, None),
        ("functional.Problem", "check_trajectory", None, None),
        ("functional.Problem", "prehistory_value", None, None),
        ("functional", "integrate", "functional.integrate_calls", None),
        ("functional", "action", None, None),
    ],
    "conditions": [
        ("conditions", "psi", "conditions.psi_calls", None),
        ("conditions", "total_derivative", "conditions.stencil_calls", None),
        ("conditions", "block_term", None, None),
        ("conditions", "region_of", None, None),
        ("conditions", "effective_segment", None, None),
        ("conditions", "sample_times", None, None),
        ("conditions", "el_residual_differential", None, None),
        ("conditions", "check_el_differential", None, None),
        ("conditions", "el_first_integral", None, None),
        ("conditions", "dbr_first_integral", None, None),
    ],
    "noether": [
        ("noether", "noether_charge", "noether.charge_calls", None),
        ("noether", "rho", "noether.rho_calls", None),
        ("noether", "eta_value", None, None),
        ("noether", "xi_value", None, None),
        ("noether", "invariance_residual", None, None),
        ("noether", "check_invariance", None, None),
        ("noether", "check_conservation", None, None),
        ("noether.SymmetryCandidate", "__init__", None, None),
    ],
    "solver": [
        ("solver", "minimize", None, None),
        ("solver", "discrete_gradient", "solver.gradient_calls", None),
        ("solver", "discrete_action", "solver.action_calls", None),
        ("solver.GridSpec", "from_step", None, None),
    ],
    "document": [
        ("document", "load_document", "document.load_calls", "document.load_s"),
        ("document", "parse_document", None, None),
    ],
    "cli": [
        ("cli", "main", None, None),
    ],
}
LAYERS = tuple(TARGETS)
RECURSIVE = {("expr", "evaluate"), ("expr", "diff")}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [layer, name, start, child time, span id]
        self._next_id = 0
        self._op = None
        self._inside: set[str] = set()

    # -- spans ---------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        frame = [layer, name, time.perf_counter(), 0.0, None]
        if len(self._stack) <= KEEP_DEPTH:
            self._next_id += 1
            frame[4] = self._next_id
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        layer, name, start, child, span_id = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if span_id is not None:
            parent = self._stack[-1][4] if self._stack else None
            self.spans.append({"op": self._op, "id": span_id, "parent": parent,
                               "name": name, "start": start, "end": end})
        return duration

    def op(self, op_id: str, fn, *args):
        """Run one benchmark operation as the root span of its trace."""
        self._op = op_id
        frame = self._enter("bench", op_id)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def wrap(self, layer: str, name: str, fn, counter=None, timer=None,
             outermost=False):
        tracer = self
        iterations = name == "solver.minimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost:
                if name in tracer._inside:
                    return fn(*args, **kwargs)
                tracer._inside.add(name)
            if counter:
                tracer.counts[counter] += 1
            frame = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
                if timer:
                    tracer.timers[timer] += duration
                if outermost:
                    tracer._inside.discard(name)
            if iterations:
                tracer.counts["solver.iterations"] += result.iterations
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("delay_noether")
        modules = [package] + [
            importlib.import_module(f"delay_noether.{layer}") for layer in LAYERS
        ]
        for layer, targets in TARGETS.items():
            for owner, attribute, counter, timer in targets:
                module_name, _, class_name = owner.partition(".")
                module = importlib.import_module(f"delay_noether.{module_name}")
                name = f"{layer}.{attribute}"
                if class_name:
                    cls = getattr(module, class_name)
                    raw = cls.__dict__[attribute]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self.wrap(layer, name, raw.__func__, counter, timer))
                    else:
                        wrapped = self.wrap(layer, name, raw, counter, timer)
                    setattr(cls, attribute, wrapped)
                    continue
                original = getattr(module, attribute)
                wrapped = self.wrap(layer, name, original, counter, timer,
                                    outermost=(module_name, attribute) in RECURSIVE)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)

    # -- results -------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """Counts and times per operation, over ``ops`` traced operations."""
        names = [counter for targets in TARGETS.values()
                 for _, _, counter, _ in targets if counter]
        names.append("solver.iterations")
        values = {name: self.counts[name] / ops for name in names}
        timers = [timer for targets in TARGETS.values()
                  for _, _, _, timer in targets if timer]
        values.update({name: self.timers[name] / ops for name in timers})
        values.update({f"{layer}.self_s": self.self_s[layer] / ops for layer in LAYERS})
        iterations = self.counts["solver.iterations"]
        values["solver.action_calls_per_iteration"] = (
            self.counts["solver.action_calls"] / iterations if iterations else 0.0)
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
