"""Command line interface.

Subcommands:

* ``action``    evaluate the action along a document trajectory
* ``check``     run one verifier: el, el-integral, dbr, invariance, noether
* ``minimize``  direct-transcription minimization (order-1 problems)
* ``report``    all checks at once plus a one-line classification

Exit codes: 0 on success (and a holding verdict for ``check``), 1 when a
check's verdict fails (or the solver does not converge), 2 for usage,
schema or data errors.  ``--json`` output is deterministic: keys sorted,
floats rendered by ``repr``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Sequence

import numpy as np

from .conditions import (
    FirstIntegralReport,
    ResidualReport,
    Samples,
    check_el_differential,
    dbr_first_integral,
    el_first_integral,
)
from .document import DocumentError, ProblemDocument, load_document
from .functional import action
from .noether import check_conservation, check_invariance
from .solver import DEFAULT_GRAD_TOL, GridSpec, NewtonStep, minimize
from .trajectory import PiecewiseTrajectory


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _scalar_or_list(values: np.ndarray):
    flat = [float(v) for v in np.atleast_1d(values)]
    return flat[0] if len(flat) == 1 else flat


def _first_integral_json(report: FirstIntegralReport) -> dict:
    regions = []
    for fit in report.regions:
        entry = {
            "region": fit.region,
            "polynomial": [_scalar_or_list(row) for row in fit.polynomial],
            "max_dev": fit.max_dev,
            "holds": fit.holds,
        }
        if fit.constant is not None:
            entry["constant"] = _scalar_or_list(fit.constant)
        regions.append(entry)
    payload = {
        "quantity": report.quantity,
        "mode": report.mode,
        "tol": report.tol,
        "scale": report.scale,
        "max_dev": report.max_dev,
        "verdict": report.verdict,
        "regions": regions,
        "segments": [
            {
                "interval": [seg.interval[0], seg.interval[1]],
                "constant": _scalar_or_list(seg.constant),
                "max_dev": seg.max_dev,
            }
            for seg in report.segments
        ],
        "failing_segments": [[a, b] for a, b in report.failing_segments],
    }
    if report.junction_gap is not None:
        payload["junction_gap"] = report.junction_gap
    return payload


def _residual_json(report: ResidualReport) -> dict:
    return {
        "quantity": report.quantity,
        "samples": int(report.times.size),
        "max_abs": report.max_abs,
        "tol": report.tol,
        "verdict": report.verdict,
    }


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    """Floats by ``repr``; Python ints (counts) stay ints."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(
                ",".join(
                    repr(cell) if isinstance(cell, int) else repr(float(cell))
                    for cell in row
                )
                + "\n"
            )


def _samples_csv(path: str, times: np.ndarray, values: np.ndarray) -> None:
    if values.ndim == 1:
        values = values[:, None]
    width = values.shape[1]
    header = ["t"] + (["value"] if width == 1 else [f"value{i}" for i in range(width)])
    rows = [[t, *values[i]] for i, t in enumerate(times)]
    _write_csv(path, header, rows)


def _print_first_integral(report: FirstIntegralReport) -> None:
    label = {"el-integral": "integral-form quantity", "dbr": "first integral",
             "noether": "charge"}[report.quantity]
    for fit in report.regions:
        where = f"region {fit.region}" if fit.region is not None else "global"
        if fit.constant is not None:
            summary = f"constant {_scalar_or_list(fit.constant)!r}"
        else:
            summary = f"polynomial {[_scalar_or_list(c) for c in fit.polynomial]!r}"
        status = "holds" if fit.holds else "FAILS"
        print(f"{where}: {label} {summary}, max deviation {fit.max_dev:.3e} ({status})")
    for seg in report.segments:
        print(
            f"  segment [{seg.interval[0]:g}, {seg.interval[1]:g}]: "
            f"constant {_scalar_or_list(seg.constant)!r}, "
            f"max dev {seg.max_dev:.3e}"
        )
    print(f"verdict: {'holds' if report.verdict else 'fails'} "
          f"(tol {report.tol:g}, scale {report.scale:g})")
    if report.junction_gap is not None:
        print(f"junction gap: {report.junction_gap:.3e} (not part of verdict)")


def _pick_trajectory(args, doc: ProblemDocument) -> PiecewiseTrajectory:
    if getattr(args, "from_solver", False):
        if args.trajectory is not None:
            raise DocumentError("--from-solver and --trajectory are exclusive")
        if args.h is None:
            raise DocumentError("--from-solver needs --h")
        grid = GridSpec.from_step(doc.problem, args.h)
        grad_tol = doc.tolerances.gradient or DEFAULT_GRAD_TOL
        result = minimize(doc.problem, grid, grad_tol=grad_tol)
        if not result.converged:
            raise DocumentError(f"solver did not converge: {result.message}")
        return result.trajectory
    return doc.trajectory(args.trajectory)


def cmd_action(args) -> int:
    doc = load_document(args.file)
    traj = doc.trajectory(args.trajectory)
    result = action(doc.problem, traj, doc.quadrature)
    if args.json:
        _print_json({"action": result.value, "warnings": list(result.warnings)})
    else:
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"action = {result.value!r}")
    return 0


def cmd_check(args) -> int:
    doc = load_document(args.file)
    traj = _pick_trajectory(args, doc)
    samples = Samples(doc.problem, traj, args.grid, doc.quadrature)
    tol = doc.first_integral_tol()
    if args.which in ("invariance", "noether") and doc.symmetry is None:
        raise DocumentError("document has no symmetry block")

    if args.which == "el":
        report = check_el_differential(samples, tol)
    elif args.which == "el-integral":
        report = el_first_integral(samples, args.mode, tol)
    elif args.which == "dbr":
        report = dbr_first_integral(samples, tol)
    elif args.which == "invariance":
        report = check_invariance(samples, doc.symmetry, tol)
    else:  # noether
        report = check_conservation(samples, doc.symmetry, tol)
    pointwise = isinstance(report, ResidualReport)

    if args.csv:
        _samples_csv(args.csv, report.times, report.values)
    if args.json:
        _print_json(_residual_json(report) if pointwise else _first_integral_json(report))
    elif pointwise:
        label = "Euler-Lagrange" if args.which == "el" else "invariance"
        print(
            f"{label} residual: max |r| = {report.max_abs:.3e} over "
            f"{report.times.size} samples (tol {report.tol:g}): "
            f"{'holds' if report.verdict else 'FAILS'}"
        )
    else:
        _print_first_integral(report)
    return 0 if report.verdict else 1


def cmd_minimize(args) -> int:
    doc = load_document(args.file)
    problem = doc.problem
    grid = GridSpec.from_step(problem, args.h)
    grad_tol = doc.tolerances.gradient or DEFAULT_GRAD_TOL
    result = minimize(problem, grid, max_iter=args.max_iter, grad_tol=grad_tol)
    times = grid.node_times(problem)
    payload = {
        "action": result.action,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "message": result.message,
        "times": [float(t) for t in times],
        "nodes": [[float(v) for v in row] for row in result.nodes],
        "trajectory": result.trajectory.to_json_dict(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.csv:
        header = ["t"] + [f"q{i}" for i in range(problem.dim)]
        rows = [[t, *result.nodes[i]] for i, t in enumerate(times)]
        _write_csv(args.csv, header, rows)
    if args.trace:
        header = ["iteration"] + [f.name for f in dataclasses.fields(NewtonStep)]
        rows = [
            [number, *dataclasses.astuple(step)]
            for number, step in enumerate(result.history, start=1)
        ]
        _write_csv(args.trace, header, rows)
    if args.json:
        _print_json(payload)
    else:
        print(
            f"action = {result.action!r} after {result.iterations} iterations "
            f"(grad sup-norm {result.grad_norm:.3e}, {result.message})"
        )
    return 0 if result.converged else 1


def cmd_report(args) -> int:
    doc = load_document(args.file)
    if doc.symmetry is None:
        raise DocumentError("document has no symmetry block; report needs one")
    traj = doc.trajectory(args.trajectory)
    # One record shared by every check.
    samples = Samples(doc.problem, traj, args.grid, doc.quadrature)
    tol = doc.first_integral_tol()
    el = check_el_differential(samples, tol)
    el_integral = el_first_integral(samples, "regional", tol)
    dbr = dbr_first_integral(samples, tol)
    conservation = check_conservation(samples, doc.symmetry, tol)
    the_action = action(doc.problem, traj, doc.quadrature)

    def yesno(flag: bool) -> str:
        return "yes" if flag else "no"

    line = (
        f"EL-extremal (regional): {yesno(el.verdict)}; "
        f"DBR-extremal: {yesno(dbr.verdict)}; "
        f"Noether charge conserved: {yesno(conservation.verdict)}"
    )
    payload = {
        "action": the_action.value,
        "warnings": list(the_action.warnings),
        "el": _residual_json(el),
        "el_integral": _first_integral_json(el_integral),
        "dbr": _first_integral_json(dbr),
        "noether": _first_integral_json(conservation),
        "classification": line,
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"action = {the_action.value!r}")
        for warning in the_action.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="delay-noether",
        description="Verify necessary conditions and conservation laws for "
        "variational problems with time delay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trajectory=True, grid=False):
        p.add_argument("file", help="problem document (JSON)")
        if trajectory:
            p.add_argument(
                "--trajectory",
                metavar="NAME",
                help="trajectory variant to use (default: the document's default)",
            )
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if grid:
            p.add_argument(
                "--grid", type=int, default=200, metavar="N",
                help="sample budget, at least one per effective segment (default 200)",
            )

    p_action = sub.add_parser("action", help="evaluate the action functional")
    add_common(p_action)
    p_action.set_defaults(func=cmd_action)

    p_check = sub.add_parser("check", help="run one verifier")
    p_check.add_argument(
        "which", choices=["el", "el-integral", "dbr", "invariance", "noether"]
    )
    add_common(p_check, grid=True)
    p_check.add_argument(
        "--mode",
        choices=["regional", "global"],
        default="regional",
        help="integral-form fit: per region or across the junction",
    )
    p_check.add_argument("--csv", metavar="PATH", help="write sampled values as CSV")
    p_check.add_argument(
        "--from-solver",
        action="store_true",
        help="check the solver's minimizer instead of a document trajectory",
    )
    p_check.add_argument(
        "--h", type=float, default=None, help="grid step for --from-solver"
    )
    p_check.set_defaults(func=cmd_check)

    p_min = sub.add_parser("minimize", help="minimize the action by direct transcription")
    add_common(p_min, trajectory=False)
    p_min.add_argument("--h", type=float, required=True, help="grid step; tau/h must be whole")
    p_min.add_argument("--max-iter", type=int, default=10000, metavar="N")
    p_min.add_argument("--out", metavar="PATH", help="write full result JSON to a file")
    p_min.add_argument("--csv", metavar="PATH", help="write solution nodes as CSV")
    p_min.add_argument(
        "--trace", metavar="PATH", help="write the per-iteration history as CSV"
    )
    p_min.set_defaults(func=cmd_minimize)

    p_report = sub.add_parser("report", help="all checks plus a classification line")
    add_common(p_report, grid=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
