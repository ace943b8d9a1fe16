"""Necessary-condition checks for delayed variational problems.

The delay splits [t1, t2] at the junction t2 - tau into region 1 (where
conditions carry advanced terms evaluated at t + tau) and region 2 (where
they do not).  This module evaluates, along a candidate trajectory:

* psi^j quantities and the pointwise Euler-Lagrange residual (psi^0),
* the Euler-Lagrange condition in integral form, where a nested-integral
  quantity must match a polynomial of degree m - 1 (per region, or globally
  across the junction),
* the DuBois-Reymond first integral, constant per region.

Every sampled check (here ``check_el_differential``, ``el_first_integral``
and ``dbr_first_integral``; ``noether.check_invariance`` and
``check_conservation``) is one function that takes a ``Samples`` record,
``Samples(problem, traj, points=200, quad=None)``: the times and effective
segments of ``sample_times`` for a budget of ``points`` samples, their
regions (``region_of``), the Gauss table (``functional.gauss_nodes``) whose
panels end at the effective breakpoints and at the samples, and the
arguments at both.  ``report`` shares one record among its checks.  Nested
integrals are running sums over the panels of moments about a fixed centre.

Time derivatives are exact: trajectories are piecewise polynomials and L
is symbolic, so the total derivatives inside psi^j are expressions
(``expr.total_derivative``), never finite differences.  Every check
evaluates them batched: the arguments at all its sample times (or Gauss
nodes) are assembled at once, and at t + tau for those in region 1, and
each compiled expression runs once over them.  ``psi``, ``block_term``
and ``el_residual_differential`` are one-point forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Re-exported: benchmarks/tracing.py wraps conditions.total_derivative by name.
from .expr import coordinate_name, total_derivative  # noqa: F401
from .functional import (
    FunctionalError,
    Problem,
    QuadratureSpec,
    columns,
    gauss_nodes,
)
from .trajectory import (
    _SNAP_FRACTION,
    PiecewiseTrajectory,
    effective_breakpoints,
    locate,
    subsegments,
)


def region_of(problem: Problem, t, side="right"):
    """1 on [t1, t2 - tau), 2 on (t2 - tau, t2]; the side (one, or one per
    time) picks the limit taken exactly at the junction.  An array of
    regions for an array t."""
    snap = _SNAP_FRACTION * (problem.t2 - (problem.t1 - problem.tau))
    t, junction = np.asarray(t, dtype=float), problem.junction
    left = side == "left" if isinstance(side, str) else np.asarray(side) == "left"
    first = np.where(left, t <= junction + snap, t < junction - snap)
    region = np.where(first, 1, 2)
    return region if region.ndim else int(region)


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
        raise FunctionalError(f"t={float(t)!r} outside [t1, t2]")
    index = int(locate(cuts, t, side, snap))
    return float(cuts[index]), float(cuts[index + 1])


class _Arguments:
    """The arguments at the times ``ts`` and, on the rows in region 1
    (``regions``, by default ``region_of`` each time), at ts + tau, with
    derivatives up to ``depth``, as ``side`` limits (one, or one per row).
    The methods evaluate compiled expressions at all rows at once."""

    def __init__(self, problem, traj, ts, depth, side="right", regions=None):
        ts = np.asarray(ts, dtype=float)
        if regions is None:
            regions = region_of(problem, ts, side)
        self.problem = problem
        self.regions = np.broadcast_to(regions, ts.shape)
        self.first = self.regions == 1
        self.here = problem.bindings(traj, ts, depth, side)
        ahead = side if isinstance(side, str) else np.asarray(side)[self.first]
        self.ahead = problem.bindings(traj, ts[self.first] + problem.tau, depth, ahead)

    def value(self, function) -> np.ndarray:
        return columns([function], self.here)[:, 0]

    def total(self, current, advanced) -> np.ndarray:
        """``current`` at args(t) plus, on the region-1 rows, ``advanced``
        at args(t + tau), one column per function."""
        value = columns(current, self.here)
        value[self.first] += columns(advanced, self.ahead)
        return value

    def derivative(self, k: int) -> np.ndarray:
        """q^(k)(t), shape (rows, dim)."""
        dim = self.problem.dim
        return np.column_stack([self.here[coordinate_name(i, k)] for i in range(dim)])

    def block_terms(self, ks: Sequence[int]) -> np.ndarray:
        """dL/dq^(k)(t) plus, in region 1, dL/dq^(k)_tau(t + tau) for each
        k in ``ks``, shape (len(ks), rows, dim); needs depth >= m."""
        u, v = self.problem.compiled_partial_u, self.problem.compiled_partial_v
        return np.array([self.total(u[k], v[k]) for k in ks])

    def psi(self, j: int) -> np.ndarray:
        """psi^j, shape (rows, dim); needs depth >= 2m - j."""
        p = self.problem
        return self.total(p.compiled_psi_current[j], p.compiled_psi_advanced[j])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product.  A stack of vector products runs numpy's dot
    kernel on each row, so every row equals ``a[row] @ b[row]`` bit for
    bit (an index-order sum or ``einsum`` may round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def block_term(
    problem: Problem,
    traj: PiecewiseTrajectory,
    k: int,
    t: float,
    region: int,
    side: str = "right",
) -> np.ndarray:
    """The coefficient of index k of the conditions at the one time t, shape
    (dim,): dL/dq^(k)(t) plus, in region 1, dL/dq^(k)_tau(t + tau)."""
    args = _Arguments(problem, traj, [t], problem.order, side, region)
    return args.block_terms([k])[0, 0]


def psi(
    problem: Problem,
    traj: PiecewiseTrajectory,
    j: int,
    t: float,
    region: int | None = None,
    side: str = "right",
) -> np.ndarray:
    """psi^j at the one time t:  sum_{i=0}^{m-j} (-1)^i (d/dt)^i of the
    block term of index i + j.  j = 0 gives the pointwise Euler-Lagrange
    residual; j = 1..m are the momentum-like quantities entering the
    DuBois-Reymond and Noether expressions.

    Evaluates the exact expressions ``problem.psi_current[j]`` at args(t)
    and, in region 1, ``problem.psi_advanced[j]`` at args(t + tau), with
    derivatives up to order 2m - j taken as the ``side`` limit.
    """
    m = problem.order
    if not 0 <= j <= m:
        raise ValueError(f"j must be in 0..{m}, got {j}")
    return _Arguments(problem, traj, [t], 2 * m - j, side, region).psi(j)[0]


def el_residual_differential(
    problem: Problem,
    traj: PiecewiseTrajectory,
    t: float,
    side: str = "right",
) -> np.ndarray:
    """Pointwise Euler-Lagrange residual (zero along regional extremals)."""
    return psi(problem, traj, 0, t, None, side)


# Samples keep this fraction of their segment's length clear of its ends.
_MARGIN = 0.05


def sample_times(
    problem: Problem, traj: PiecewiseTrajectory, points: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Sample times, shape (n,), and the effective segment (a, b) of each,
    shape (n, 2).  A budget of ``points`` samples is apportioned over the
    effective segments of [t1, t2] by length, with at least one in every
    segment (so more segments than ``points`` give more samples), and
    every time ``_MARGIN`` of its segment away from the segment's ends."""
    if points < 1:
        raise ValueError("points must be >= 1")
    problem.check_trajectory(traj)
    lo, hi = problem.t1, problem.t2
    cuts = effective_breakpoints(traj, problem.tau, (lo, hi))
    spans = subsegments(cuts, lo, hi, traj.snap)
    total = sum(b - a for a, b in spans)

    # Largest-remainder apportionment of the sample budget.
    raw = [points * (b - a) / total for a, b in spans]
    counts = [max(1, int(r)) for r in raw]
    leftovers = sorted(
        range(len(spans)), key=lambda i: raw[i] - int(raw[i]), reverse=True
    )
    shortfall = points - sum(counts)
    for i in range(max(0, shortfall)):
        counts[leftovers[i % len(spans)]] += 1

    times = [
        np.linspace(a + _MARGIN * (b - a), b - _MARGIN * (b - a), count)
        for (a, b), count in zip(spans, counts)
    ]
    return np.concatenate(times), np.repeat(spans, counts, axis=0)


class Samples:
    """The inputs the sampled checks share: the sample times, effective
    segments and regions and, built on first use, the samples grouped by
    segment, the Gauss table cut at the samples, and the arguments at the
    samples (depth 2m, enough for every check) and at the nodes (depth m)."""

    def __init__(self, problem, traj, points=200, quad=None):
        self.problem, self.traj, self.quad = problem, traj, quad or QuadratureSpec()
        self.times, self.intervals = sample_times(problem, traj, points)
        self.regions = region_of(problem, self.times)

    @cached_property
    def segments(self) -> list[tuple[tuple[float, float], slice]]:
        """Each segment (Python floats) with the slice of its adjacent samples."""
        edges = np.flatnonzero(np.any(np.diff(self.intervals, axis=0), axis=1)) + 1
        edges = [0, *edges.tolist(), self.times.size]
        return [
            (tuple(self.intervals[a].tolist()), slice(a, b))
            for a, b in zip(edges, edges[1:])
        ]

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.problem
        return gauss_nodes(p, self.traj, (p.t1, p.t2), self.quad, self.times)

    @cached_property
    def at_samples(self) -> _Arguments:
        depth = 2 * self.problem.order
        return _Arguments(self.problem, self.traj, self.times, depth, regions=self.regions)

    @cached_property
    def at_nodes(self) -> _Arguments:
        return _Arguments(self.problem, self.traj, self.table[0], self.problem.order)

    def fold(self, table: np.ndarray, bases, k: int) -> np.ndarray:
        """``_folded_integral`` of ``table`` at the nodes, at the samples."""
        points = self.quad.gauss_points
        return _folded_integral(*self.table, table, bases, self.times, k, points)


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
    # |C(junction-) - C(junction+)| of the Noether charge, not judged.
    junction_gap: float | None = None


def _fit_polynomial(
    times: np.ndarray, values: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit; returns (coefficients, residuals)."""
    degree = min(degree, times.size - 1)
    coeffs = np.polynomial.polynomial.polyfit(times, values, degree)
    fitted = np.polynomial.polynomial.polyval(times, coeffs).T
    return coeffs, values - fitted


DEFAULT_FIRST_INTEGRAL_TOL = 1e-7


def _analyze_samples(
    quantity: str,
    mode: str,
    samples: Samples,
    values: np.ndarray,
    degree: int,
    tol: float | None,
) -> FirstIntegralReport:
    """Shared fit/verdict assembly for first-integral style checks: the
    deviation from the fit, per region (``regional`` mode) or across
    [t1, t2] (``global``), against ``tol`` times the values' scale."""
    tol = DEFAULT_FIRST_INTEGRAL_TOL if tol is None else tol
    times = samples.times
    if values.ndim == 1:
        values = values[:, None]
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)

    region_fits = []
    max_dev = 0.0
    deviations = np.zeros(times.size)
    for region in (1, 2) if mode == "regional" else (None,):
        mask = np.ones(times.size, bool) if region is None else samples.regions == region
        if not np.any(mask):
            continue
        coeffs, resid = _fit_polynomial(times[mask], values[mask], degree)
        dev = float(np.max(np.abs(resid)))
        deviations[mask] = np.max(np.abs(resid), axis=1)
        region_fits.append(RegionFit(region, coeffs, dev, dev <= tol * scale))
        max_dev = max(max_dev, dev)

    segment_fits = []
    failing = []
    for interval, rows in samples.segments:
        segment_values = values[rows]
        constant = segment_values.mean(axis=0)
        seg_dev = float(np.max(np.abs(segment_values - constant)))
        segment_fits.append(SegmentFit(interval, constant, seg_dev))
        if float(np.max(deviations[rows])) > tol * scale:
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
    points: int,
) -> np.ndarray:
    """k-fold nested integral, from each base to its time, of the function
    tabulated at the Gauss ``nodes`` (one row of ``table`` per node), where
    every panel of the rule holds ``points`` consecutive nodes.

    Cauchy's formula collapses it to 1/(k-1)! int_base^t (t - s)^(k-1) f(s) ds.
    Expanding the kernel about a fixed centre z gives
    sum_j C(k-1, j) (t - z)^(k-1-j) [S_j(t) - S_j(base)], where S_j is the
    running sum over panels of the moments sum_i w_i (z - s_i)^j f(s_i).
    Each base and time must be a panel end, so no panel straddles them.
    """
    bases = np.broadcast_to(bases, times.shape)
    flat = table.reshape(nodes.size, -1)
    width = flat.shape[1]
    centre = 0.5 * (nodes[0] + nodes[-1])
    lo = np.searchsorted(nodes, np.minimum(times, bases)) // points
    hi = np.searchsorted(nodes, np.maximum(times, bases)) // points
    moment = weights[:, None] * flat  # j = 0
    out = np.zeros((times.size, width))
    for j in range(k):
        panels = moment.reshape(-1, points, width).sum(axis=1)
        running = np.concatenate([np.zeros((1, width)), np.cumsum(panels, axis=0)])
        power = math.comb(k - 1, j) * (times - centre) ** (k - 1 - j)
        out += power[:, None] * (running[hi] - running[lo])
        moment = moment * (centre - nodes)[:, None]
    sign = np.where(times >= bases, 1.0, -1.0) / math.factorial(k - 1)
    return (sign[:, None] * out).reshape(times.shape + table.shape[1:])


def el_first_integral(
    samples: Samples, mode: str = "regional", tol: float | None = None
) -> FirstIntegralReport:
    """Euler-Lagrange condition in integral form.

    The quantity sum_i (-1)^(m-i-1) [(m-i)-fold nested integral from the
    junction of the block term of index i] must equal a polynomial of
    degree m - 1: one polynomial per region in ``regional`` mode, a single
    polynomial across [t1, t2] in ``global`` mode.
    """
    if mode not in ("regional", "global"):
        raise ValueError(f"mode must be 'regional' or 'global', got {mode!r}")
    problem, m = samples.problem, samples.problem.order
    node_terms = samples.at_nodes.block_terms(range(m))
    values = np.zeros((samples.times.size, problem.dim))
    for i in range(m + 1):
        sign = -1.0 if (m - i - 1) % 2 else 1.0
        if i == m:
            term = samples.at_samples.block_terms([m])[0]
        else:
            term = samples.fold(node_terms[i], problem.junction, m - i)
        values = values + sign * term
    return _analyze_samples("el-integral", mode, samples, values, m - 1, tol)


def dbr_first_integral(
    samples: Samples, tol: float | None = None
) -> FirstIntegralReport:
    """DuBois-Reymond first integral, constant on each region:
    L - sum_j psi^j . q^(j) - int d/dt-partial of L from the region start."""
    problem, args = samples.problem, samples.at_samples
    rates = samples.at_nodes.value(problem.compiled_partial_t)
    starts = np.where(args.regions == 1, problem.t1, problem.junction)
    explicit = samples.fold(rates, starts, 1)
    values = args.value(problem.compiled_lagrangian)
    for j in range(1, problem.order + 1):
        values = values - _dot(args.psi(j), args.derivative(j))
    values = values - explicit
    return _analyze_samples("dbr", "regional", samples, values, 0, tol)


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
    quantity: str, times: np.ndarray, values: np.ndarray, tol: float | None
) -> ResidualReport:
    """Pointwise verdict: max|r| against the absolute threshold ``tol``."""
    tol = DEFAULT_FIRST_INTEGRAL_TOL if tol is None else tol
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    return ResidualReport(quantity, times, values, tol, max_abs, max_abs <= tol)


def check_el_differential(samples: Samples, tol: float | None = None) -> ResidualReport:
    """The pointwise Euler-Lagrange residual psi^0 at the samples."""
    values = samples.at_samples.psi(0)
    return _residual_report("el-differential", samples.times, values, tol)
