"""Necessary-condition checks for delayed variational problems.

The delay splits [t1, t2] at the junction t2 - tau into region 1 (where
conditions carry advanced terms evaluated at t + tau) and region 2 (where
they do not).  This module evaluates, along a candidate trajectory:

* psi^j quantities and the pointwise Euler-Lagrange residual (psi^0),
* the Euler-Lagrange condition in integral form, where a nested-integral
  quantity must match a polynomial of degree m - 1 (per region, or globally
  across the junction),
* the DuBois-Reymond first integral, constant per region.

The integral-form and DuBois-Reymond checks each integrate on one Gauss
table (``functional.gauss_nodes``) whose panels end at the effective
breakpoints and at the sample times, evaluating integrands once per node.

Time derivatives are exact: trajectories are piecewise polynomials and L
is symbolic, so the total derivatives inside psi^j are expressions
(``expr.total_derivative``) evaluated one-sided at the sample time, never
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import evaluate
# Re-exported: benchmarks/tracing.py wraps conditions.total_derivative by name.
from .expr import total_derivative  # noqa: F401
from .functional import (
    FunctionalError,
    Problem,
    QuadratureSpec,
    gauss_nodes,
)
from .trajectory import (
    _SNAP_FRACTION,
    PiecewiseTrajectory,
    delayed_args,
    effective_breakpoints,
    locate,
    subsegments,
)


def region_of(problem: Problem, t: float, side: str = "right") -> int:
    """1 on [t1, t2 - tau), 2 on (t2 - tau, t2]; the side picks the limit
    taken exactly at the junction."""
    snap = _SNAP_FRACTION * (problem.t2 - (problem.t1 - problem.tau))
    if t < problem.junction - snap:
        return 1
    if t > problem.junction + snap:
        return 2
    return 1 if side == "left" else 2


def effective_segment(
    problem: Problem,
    traj: PiecewiseTrajectory,
    t: float,
    side: str = "right",
) -> tuple[float, float]:
    """Effective segment of [t1, t2] containing t (one-sided at cuts)."""
    cuts = effective_breakpoints(traj, problem.tau, (problem.t1, problem.t2))
    snap = traj.snap
    if t < cuts[0] - snap or t > cuts[-1] + snap:
        raise FunctionalError(f"t={t!r} outside [t1, t2]")
    index = locate(cuts, t, side, snap)
    return float(cuts[index]), float(cuts[index + 1])


def block_terms(
    problem: Problem,
    traj: PiecewiseTrajectory,
    ks: Sequence[int],
    t: float,
    region: int,
    side: str = "right",
) -> np.ndarray:
    """The region-dependent coefficients of the conditions for each k in
    ``ks``, shape (len(ks), dim): dL/dq^(k)(t) plus, in region 1, the
    advanced term dL/dq^(k)_tau(t + tau).  Arguments are assembled once at
    t and once at t + tau for all of them."""
    m = problem.order
    args = problem.args(traj, t, side)
    value = np.array([problem.partial(k + 2, args) for k in ks])
    if region == 1:
        advanced = problem.args(traj, t + problem.tau, side)
        value = value + np.array([problem.partial(k + m + 3, advanced) for k in ks])
    return value


def block_term(
    problem: Problem,
    traj: PiecewiseTrajectory,
    k: int,
    t: float,
    region: int,
    side: str = "right",
) -> np.ndarray:
    """The coefficient of index k alone (see ``block_terms``)."""
    return block_terms(problem, traj, (k,), t, region, side)[0]


def psi(
    problem: Problem,
    traj: PiecewiseTrajectory,
    j: int,
    t: float,
    region: int | None = None,
    side: str = "right",
) -> np.ndarray:
    """psi^j at time t:  sum_{i=0}^{m-j} (-1)^i (d/dt)^i of the block term
    of index i + j.  j = 0 gives the pointwise Euler-Lagrange residual;
    j = 1..m are the momentum-like quantities entering the DuBois-Reymond
    and Noether expressions.

    Evaluates the exact expressions ``problem.psi_current[j]`` at args(t)
    and, in region 1, ``problem.psi_advanced[j]`` at args(t + tau), with
    derivatives up to order 2m - j taken as the ``side`` limit.
    """
    m = problem.order
    if not 0 <= j <= m:
        raise ValueError(f"j must be in 0..{m}, got {j}")
    if region is None:
        region = region_of(problem, t, side)
    depth = 2 * m - j
    bindings = delayed_args(traj, t, problem.tau, depth, side).bindings()
    value = np.array([evaluate(node, bindings) for node in problem.psi_current[j]])
    if region == 1:
        bindings = delayed_args(
            traj, t + problem.tau, problem.tau, depth, side
        ).bindings()
        value = value + np.array(
            [evaluate(node, bindings) for node in problem.psi_advanced[j]]
        )
    return value


def el_residual_differential(
    problem: Problem,
    traj: PiecewiseTrajectory,
    t: float,
    side: str = "right",
) -> np.ndarray:
    """Pointwise Euler-Lagrange residual (zero along regional extremals)."""
    region = region_of(problem, t, side)
    return psi(problem, traj, 0, t, region, side)


@dataclass(frozen=True)
class SampleGrid:
    """Sampling plan: a budget of ``points`` samples apportioned over the
    effective segments of the window by length, with at least one sample in
    every segment (so a window with more segments than ``points`` yields
    more samples), each kept ``margin`` (a fraction of the segment length)
    away from segment ends."""

    points: int = 200
    margin: float = 0.05

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if not 0.0 < self.margin < 0.5:
            raise ValueError("margin must be in (0, 0.5)")


def sample_times(
    problem: Problem,
    traj: PiecewiseTrajectory,
    window: tuple[float, float] | None = None,
    grid: SampleGrid | None = None,
) -> list[tuple[float, tuple[float, float]]]:
    """Sample times paired with their effective segment, margins applied."""
    problem.check_trajectory(traj)
    grid = grid or SampleGrid()
    lo, hi = window if window is not None else (problem.t1, problem.t2)
    cuts = effective_breakpoints(traj, problem.tau, (lo, hi))
    spans = subsegments(cuts, lo, hi, traj.snap)
    total = sum(b - a for a, b in spans)

    # Largest-remainder apportionment of the sample budget.
    raw = [grid.points * (b - a) / total for a, b in spans]
    counts = [max(1, int(r)) for r in raw]
    leftovers = sorted(
        range(len(spans)), key=lambda i: raw[i] - int(raw[i]), reverse=True
    )
    shortfall = grid.points - sum(counts)
    for i in range(max(0, shortfall)):
        counts[leftovers[i % len(spans)]] += 1

    samples: list[tuple[float, tuple[float, float]]] = []
    for (a, b), count in zip(spans, counts):
        margin = grid.margin * (b - a)
        for t in np.linspace(a + margin, b - margin, count):
            samples.append((float(t), (a, b)))
    return samples


@dataclass(frozen=True)
class SegmentFit:
    """Diagnostic for one effective segment: the mean of the sampled
    quantity there and the worst deviation of the samples from it."""

    interval: tuple[float, float]
    constant: np.ndarray
    max_dev: float


@dataclass(frozen=True)
class RegionFit:
    """Fit of the sampled quantity on one region (or globally when region
    is None) by a polynomial of the admissible degree."""

    region: int | None
    polynomial: np.ndarray  # ascending coefficients, shape (deg + 1, width)
    max_dev: float
    holds: bool

    @property
    def constant(self) -> np.ndarray | None:
        """The fitted value when the admissible polynomial is a constant."""
        if self.polynomial.shape[0] == 1:
            return self.polynomial[0]
        return None


@dataclass(frozen=True)
class FirstIntegralReport:
    quantity: str  # "el-integral" | "dbr"
    mode: str  # "regional" | "global"
    times: np.ndarray
    values: np.ndarray  # shape (samples, width)
    regions: tuple[RegionFit, ...]
    segments: tuple[SegmentFit, ...]
    scale: float
    tol: float
    max_dev: float
    verdict: bool
    failing_segments: tuple[tuple[float, float], ...]


def _fit_polynomial(
    times: np.ndarray, values: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit; returns (coefficients, residuals)."""
    if times.size <= degree:
        degree = max(0, times.size - 1)
    coeffs = np.polynomial.polynomial.polyfit(times, values, degree)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    fitted = np.polynomial.polynomial.polyval(times, coeffs).T
    return coeffs, values - fitted


DEFAULT_FIRST_INTEGRAL_TOL = 1e-7


def _analyze_samples(
    quantity: str,
    mode: str,
    samples: list[tuple[float, tuple[float, float]]],
    values: np.ndarray,
    regions: list[int | None],
    degree: int,
    tol: float | None,
    junction: float,
) -> FirstIntegralReport:
    """Shared fit/verdict assembly for first-integral style checks: the
    deviation from the fit against ``tol`` times the values' scale."""
    tol = DEFAULT_FIRST_INTEGRAL_TOL if tol is None else tol
    times = np.array([t for t, _ in samples])
    if values.ndim == 1:
        values = values[:, None]
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)

    region_fits = []
    max_dev = 0.0
    deviations = np.zeros(times.size)
    for region in regions:
        if region is None:
            mask = np.ones(times.size, dtype=bool)
        else:
            mask = (
                (times <= junction) if region == 1 else (times >= junction)
            )
        if not np.any(mask):
            continue
        coeffs, resid = _fit_polynomial(times[mask], values[mask], degree)
        dev = float(np.max(np.abs(resid)))
        deviations[mask] = np.max(np.abs(resid), axis=1)
        region_fits.append(RegionFit(region, coeffs, dev, dev <= tol * scale))
        max_dev = max(max_dev, dev)

    segment_fits = []
    failing = []
    seen: list[tuple[float, float]] = []
    for interval in [interval for _, interval in samples]:
        if interval in seen:
            continue
        seen.append(interval)
        mask = np.array([iv == interval for _, iv in samples])
        segment_values = values[mask]
        constant = segment_values.mean(axis=0)
        seg_dev = float(np.max(np.abs(segment_values - constant)))
        segment_fits.append(SegmentFit(interval, constant, seg_dev))
        if float(np.max(deviations[mask])) > tol * scale:
            failing.append(interval)

    verdict = all(fit.holds for fit in region_fits)
    return FirstIntegralReport(
        quantity=quantity,
        mode=mode,
        times=times,
        values=values,
        regions=tuple(region_fits),
        segments=tuple(segment_fits),
        scale=scale,
        tol=tol,
        max_dev=max_dev,
        verdict=verdict,
        failing_segments=tuple(failing),
    )


def _folded_integral(
    nodes: np.ndarray,
    weights: np.ndarray,
    table: np.ndarray,
    bases: np.ndarray | float,
    times: np.ndarray,
    k: int,
) -> np.ndarray:
    """k-fold nested integral, from each base to its time, of the function
    tabulated at the Gauss ``nodes`` (one row of ``table`` per node).

    Cauchy's formula collapses it to 1/(k-1)! int_base^t (t - s)^(k-1) f(s) ds,
    a weighted sum over the nodes between base and t; both must be panel
    ends of the rule, so no panel straddles them.
    """
    bases = np.broadcast_to(bases, times.shape)
    scale = 1.0 / math.factorial(k - 1)
    out = np.zeros((times.size,) + table.shape[1:])
    for row, (t, base) in enumerate(zip(times, bases)):
        lo, hi = np.searchsorted(nodes, (min(t, base), max(t, base)))
        kernel = weights[lo:hi] * scale * (t - nodes[lo:hi]) ** (k - 1)
        out[row] = (1.0 if t >= base else -1.0) * (kernel @ table[lo:hi])
    return out


def el_first_integral(
    problem: Problem,
    traj: PiecewiseTrajectory,
    mode: str = "regional",
    grid: SampleGrid | None = None,
    quad: QuadratureSpec | None = None,
    tol: float | None = None,
) -> FirstIntegralReport:
    """Euler-Lagrange condition in integral form.

    The quantity sum_i (-1)^(m-i-1) [(m-i)-fold nested integral from the
    junction of the block term of index i] must equal a polynomial of
    degree m - 1: one polynomial per region in ``regional`` mode, a single
    polynomial across [t1, t2] in ``global`` mode.
    """
    if mode not in ("regional", "global"):
        raise ValueError(f"mode must be 'regional' or 'global', got {mode!r}")
    m = problem.order

    def terms(ks: range, ts: np.ndarray) -> np.ndarray:  # (len(ks), len(ts), dim)
        rows = [block_terms(problem, traj, ks, t, region_of(problem, t)) for t in ts]
        return np.ascontiguousarray(np.swapaxes(rows, 0, 1))

    samples = sample_times(problem, traj, None, grid)
    times = np.array([t for t, _ in samples])
    nodes, weights = gauss_nodes(problem, traj, (problem.t1, problem.t2), quad, times)
    node_terms = terms(range(m), nodes)
    values = np.zeros((times.size, problem.dim))
    for i in range(m + 1):
        sign = -1.0 if (m - i - 1) % 2 else 1.0
        if i == m:
            term = terms(range(m, m + 1), times)[0]
        else:
            term = _folded_integral(
                nodes, weights, node_terms[i], problem.junction, times, m - i
            )
        values = values + sign * term

    regions: list[int | None] = [1, 2] if mode == "regional" else [None]
    return _analyze_samples(
        "el-integral", mode, samples, values, regions, m - 1, tol, problem.junction
    )


def dbr_first_integral(
    problem: Problem,
    traj: PiecewiseTrajectory,
    grid: SampleGrid | None = None,
    quad: QuadratureSpec | None = None,
    tol: float | None = None,
) -> FirstIntegralReport:
    """DuBois-Reymond first integral, constant on each region:
    L - sum_j psi^j . q^(j) - int d/dt-partial of L from the region start."""
    m = problem.order

    samples = sample_times(problem, traj, None, grid)
    times = np.array([t for t, _ in samples])
    regions = [region_of(problem, t) for t in times]
    nodes, weights = gauss_nodes(problem, traj, (problem.t1, problem.t2), quad, times)
    rates = np.array([problem.partial(1, problem.args(traj, s)) for s in nodes])
    starts = np.where(np.array(regions) == 1, problem.t1, problem.junction)
    explicit = _folded_integral(nodes, weights, rates, starts, times, 1)
    values = np.zeros(times.size)
    for row, (t, region) in enumerate(zip(times, regions)):
        args = problem.args(traj, t)
        total = problem.lagrangian_value(args)
        for j in range(1, m + 1):
            momentum = psi(problem, traj, j, t, region)
            total -= float(momentum @ args.current[j])
        values[row] = total - explicit[row]

    return _analyze_samples(
        "dbr", "regional", samples, values, [1, 2], 0, tol, problem.junction
    )


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual check (Euler-Lagrange or invariance)."""

    quantity: str
    times: np.ndarray
    values: np.ndarray
    tol: float
    max_abs: float
    verdict: bool


def _residual_report(
    quantity: str,
    samples: list[tuple[float, tuple[float, float]]],
    values: np.ndarray,
    tol: float | None,
) -> ResidualReport:
    """Pointwise verdict: max|r| against the absolute threshold ``tol``."""
    tol = DEFAULT_FIRST_INTEGRAL_TOL if tol is None else tol
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    times = np.array([t for t, _ in samples])
    return ResidualReport(quantity, times, values, tol, max_abs, max_abs <= tol)


def check_el_differential(
    problem: Problem,
    traj: PiecewiseTrajectory,
    grid: SampleGrid | None = None,
    tol: float | None = None,
) -> ResidualReport:
    samples = sample_times(problem, traj, None, grid)
    values = np.array(
        [el_residual_differential(problem, traj, t) for t, _ in samples]
    )
    return _residual_report("el-differential", samples, values, tol)
