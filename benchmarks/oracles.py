"""Closed-form oracles for the benchmark's operations.

Each oracle recomputes what an operation must print from the raw document
with plain float arithmetic, never from the package and never from a saved
copy of earlier output, and raises ``Mismatch`` on the first disagreement.

* Order 1, L = (q' + q'_tau)^2, piecewise-linear q.  On an effective segment
  (between points of B, B + tau and B - tau) let a = q'(t), b = q'(t - tau)
  and c = q'(t + tau).  Then psi^1 = 2(a + b) + 2(c + a) in region 1 and
  2(a + b) in region 2; L - psi^1 a is both the DuBois-Reymond value and the
  time-shift charge; the integral-form EL quantity is -psi^1; the pointwise
  EL residual is 0; the action is the sum of (a + b)^2 times segment length.
* Higher order: on an exact extremal EL holds, and the DuBois-Reymond value
  and the time-shift charge are constant 0.
* Solver: the minimizer of the s-scaled Section 3 problem is s times the
  sawtooth, with action 0.
"""

from __future__ import annotations

import json
import math

from inputs import SECTION3, sawtooth

DEFAULT_TOL = 1e-7  # the package default; the benchmark unsets DELAY_NOETHER_TOL
VALUE_RTOL = 1e-9  # closed-form values against the printed ones
NODE_RTOL = 1e-8  # solver nodes against s * sawtooth
ACTION_ATOL = 1e-10  # solver action against 0


class Mismatch(Exception):
    """An operation's output disagrees with the oracle."""


def _require(flag: bool, message: str) -> None:
    if not flag:
        raise Mismatch(message)


def _close(actual: float, expected: float, scale: float, what: str) -> None:
    _require(
        abs(actual - expected) <= VALUE_RTOL * max(1.0, scale),
        f"{what}: got {actual!r}, expected {expected!r}",
    )


def _scalar(value) -> float:
    if isinstance(value, list):
        _require(len(value) == 1, f"expected one coordinate, got {value!r}")
        value = value[0]
    return float(value)


def _select(doc: dict, name: str | None) -> dict:
    if name is None:
        return doc["trajectory"]
    return doc["trajectories"][name]


def order1_segments(doc: dict, name: str | None = None) -> list[dict]:
    """Closed-form quantities on every effective segment of [t1, t2]."""
    for key in ("order", "t1", "t2", "tau", "lagrangian", "symmetry"):
        _require(doc[key] == SECTION3[key], f"document {key} is not Section 3's")
    traj = _select(doc, name)
    bp = [float(b) for b in traj["breakpoints"]]
    slopes = []
    for block in traj["segments"]:
        coeffs = block[0]
        _require(len(coeffs) <= 2 or not any(coeffs[2:]), "trajectory is not linear")
        slopes.append(float(coeffs[1]) if len(coeffs) > 1 else 0.0)
    t1, t2, tau = float(doc["t1"]), float(doc["t2"]), float(doc["tau"])

    def slope(t: float) -> float:
        for j in range(len(slopes)):
            if bp[j] < t < bp[j + 1]:
                return slopes[j]
        raise Mismatch(f"no trajectory segment holds t={t!r}")

    candidates = sorted(
        p for b in bp for p in (b, b + tau, b - tau) if t1 - 1e-12 <= p <= t2 + 1e-12
    )
    cuts: list[float] = []
    for p in candidates:
        if not cuts or p - cuts[-1] > 1e-9:
            cuts.append(min(max(p, t1), t2))
    junction = t2 - tau
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        a, b = slope(mid), slope(mid - tau)
        region = 1 if mid < junction else 2
        psi1 = 2.0 * (a + b) + (2.0 * (slope(mid + tau) + a) if region == 1 else 0.0)
        segments.append({
            "interval": (lo, hi),
            "region": region,
            "psi1": psi1,
            "first_integral": (a + b) ** 2 - psi1 * a,
            "action": (a + b) ** 2 * (hi - lo),
        })
    return segments


def _region_holds(values: list[float], tol: float, scale: float) -> bool:
    """Whether a degree-0 fit of samples taking these values holds.  The
    fit's deviation lies between half the spread and the spread, so a
    spread between tol * scale and twice that cannot be decided here."""
    spread = max(values) - min(values)
    if spread <= tol * scale:
        return True
    if spread > 2.0 * tol * scale:
        return False
    raise Mismatch(f"spread {spread:.3e} too close to tol * scale to judge")


def _check_first_integral(payload: dict, segments: list[dict], expected: list[float]) -> None:
    what = payload["quantity"]
    scale = max([1.0] + [abs(v) for v in expected])
    printed = payload["segments"]
    _require(len(printed) == len(segments),
             f"{what}: {len(printed)} segments printed, {len(segments)} expected")
    for seg, row, value in zip(segments, printed, expected):
        lo, hi = seg["interval"]
        _close(row["interval"][0], lo, 1.0, f"{what} segment start")
        _close(row["interval"][1], hi, 1.0, f"{what} segment end")
        _close(_scalar(row["constant"]), value, scale, f"{what} constant on [{lo:g}, {hi:g}]")
    tol = payload["tol"]
    _require(tol == DEFAULT_TOL, f"{what}: tol {tol!r} is not the default")
    verdicts = []
    for fit in payload["regions"]:
        values = [v for seg, v in zip(segments, expected) if seg["region"] == fit["region"]]
        holds = _region_holds(values, tol, scale)
        _require(fit["holds"] == holds, f"{what} region {fit['region']}: holds={fit['holds']}")
        if holds and "constant" in fit:
            slack = VALUE_RTOL * scale
            _require(min(values) - slack <= _scalar(fit["constant"]) <= max(values) + slack,
                     f"{what} region {fit['region']} constant {fit['constant']!r}")
        verdicts.append(holds)
    _require(len(verdicts) == 2, f"{what}: {len(verdicts)} regions printed")
    _require(payload["verdict"] == all(verdicts), f"{what}: verdict {payload['verdict']}")


def check_order1_report(payload: dict, doc: dict, name: str | None) -> None:
    segments = order1_segments(doc, name)
    total = sum(seg["action"] for seg in segments)
    _close(payload["action"], total, abs(total), "action")
    _require(payload["warnings"] == [], f"warnings {payload['warnings']!r}")
    el = payload["el"]
    _require(el["tol"] == DEFAULT_TOL and el["verdict"] and el["max_abs"] <= DEFAULT_TOL,
             f"pointwise EL: max_abs {el['max_abs']!r}, verdict {el['verdict']}")
    first_integral = [seg["first_integral"] for seg in segments]
    _check_first_integral(payload["el_integral"], segments, [-seg["psi1"] for seg in segments])
    _check_first_integral(payload["dbr"], segments, first_integral)
    _check_first_integral(payload["noether"], segments, first_integral)
    junction = float(doc["t2"]) - float(doc["tau"])
    left = next(s for s in segments if abs(s["interval"][1] - junction) < 1e-9)
    right = next(s for s in segments if abs(s["interval"][0] - junction) < 1e-9)
    gap = abs(left["first_integral"] - right["first_integral"])
    _close(payload["noether"]["junction_gap"], gap, gap, "junction gap")
    yes = {True: "yes", False: "no"}
    line = (f"EL-extremal (regional): {yes[el['verdict']]}; "
            f"DBR-extremal: {yes[payload['dbr']['verdict']]}; "
            f"Noether charge conserved: {yes[payload['noether']['verdict']]}")
    _require(payload["classification"] == line, f"classification {payload['classification']!r}")


def check_zero_extremal(payload: dict, which: str) -> None:
    tol = payload["tol"]
    _require(tol == DEFAULT_TOL, f"tol {tol!r} is not the default")
    if which == "el":
        _require(payload["verdict"] and payload["max_abs"] <= tol,
                 f"EL residual max |r| = {payload['max_abs']:.3e} > tol {tol:g}")
        return
    bound = tol * payload["scale"]
    _require(payload["verdict"] and payload["max_dev"] <= bound,
             f"{which}: max dev {payload['max_dev']:.3e} > {bound:.3e}")
    if which == "el-integral":
        return
    for fit in payload["regions"]:
        _require(abs(_scalar(fit["constant"])) <= bound,
                 f"{which} region {fit['region']} constant {fit['constant']!r} is not 0")
    for seg in payload["segments"]:
        _require(abs(_scalar(seg["constant"])) <= bound,
                 f"{which} segment constant {seg['constant']!r} is not 0")
    if which == "noether":
        _require(payload["junction_gap"] <= bound,
                 f"junction gap {payload['junction_gap']:.3e} > {bound:.3e}")


def check_sawtooth_solve(payload: dict, s: float, step: float) -> None:
    _require(payload["converged"] and payload["message"] == "converged",
             f"solver: {payload['message']!r}")
    _require(abs(payload["action"]) <= ACTION_ATOL, f"action {payload['action']!r} is not 0")
    times, nodes = payload["times"], payload["nodes"]
    count = round(4.0 / step) + 1
    _require(len(times) == count == len(nodes), f"{len(times)} nodes, expected {count}")
    for j, (t, row) in enumerate(zip(times, nodes)):
        _close(t, -1.0 + j * step, 1.0, f"node time {j}")
        expected = s * sawtooth(t)
        _require(abs(_scalar(row) - expected) <= NODE_RTOL * max(1.0, s),
                 f"node at t={t:g}: got {_scalar(row)!r}, expected {expected!r}")


def check(op: dict, rc: int, payload: dict) -> None:
    """Raise ``Mismatch`` unless ``payload`` (the parsed ``--json`` output)
    and the exit code ``rc`` are right for ``op``."""
    oracle = op["oracle"]
    kind = oracle["kind"]
    if kind == "order1-report":
        _require(rc == 0, f"exit code {rc}")
        with open(oracle["doc"], encoding="utf-8") as handle:
            doc = json.load(handle)
        check_order1_report(payload, doc, oracle["trajectory"])
    elif kind == "zero-extremal":
        _require(rc == (0 if payload["verdict"] else 1), f"exit code {rc}")
        check_zero_extremal(payload, oracle["check"])
    elif kind == "sawtooth-solve":
        _require(rc == 0, f"exit code {rc}")
        check_sawtooth_solve(payload, oracle["scale"], oracle["step"])
    else:
        raise ValueError(f"unknown oracle {kind!r}")
    _require(all(math.isfinite(v) for v in _numbers(payload)), "non-finite number printed")


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
