"""Vector-valued piecewise polynomial trajectories with one-sided evaluation.

A trajectory lives on [b_0, b_K] with breakpoints b_0 < ... < b_K; on each
interval every coordinate is a polynomial in the local variable u = t - b_j.
Trajectories back delayed variational problems, so b_0 is conventionally
t1 - tau and b_K is t2, and evaluation is explicitly one-sided: at a
breakpoint the left and right polynomials may disagree in derivatives of
order >= the smoothness class, and callers must say which limit they want.
Values are never averaged across a breakpoint.

Evaluation is batched: ``PiecewiseTrajectory.eval`` locates the segments
of an array of times with one ``searchsorted`` and runs Horner over them;
``bindings`` names every derivative up to a depth for compiled expressions.
``eval_derivative`` and ``delayed_args`` are its one-point forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import coordinate_name


class TrajectoryError(ValueError):
    """Invalid trajectory data or evaluation request."""


_SNAP_FRACTION = 1e-12  # breakpoint identification tolerance, relative to span
_DEFAULT_DEGREE_CAP = 5


def _horner(coeffs: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """k-th derivatives of the polynomials ``coeffs`` (shape (n, dim, L),
    ascending in the local coordinate) at the local coordinates ``u``
    (shape (n,)), as an (n, dim) array; zero for k >= L."""
    # Derived coefficients c[p] * p! / (p - k)!, evaluated by Horner.
    result = np.zeros(coeffs.shape[:2])
    for p in range(coeffs.shape[2] - 1, k - 1, -1):
        factor = 1.0
        for r in range(p, p - k, -1):
            factor *= r
        result = result * u[:, None] + coeffs[:, :, p] * factor
    return result


def locate(points: np.ndarray, ts, side, snap: float) -> np.ndarray:
    """Index j of the interval [points[j], points[j + 1]] whose ``side``
    limit (one side, or one per t) governs each t of ``ts``, for t in
    [points[0] - snap, points[-1] + snap]; an array of the shape of ``ts``.

    A t within ``snap`` of a point counts as that point; at the two ends
    only the inward limit exists.
    """
    ts = np.asarray(ts, dtype=float)
    n = points.size
    i = np.searchsorted(points, ts)  # points[i - 1] < t <= points[i]
    below, above = points[np.maximum(i - 1, 0)], points[np.minimum(i, n - 1)]
    nearer_left = (i == n) | ((i > 0) & (ts - below <= above - ts))
    hit = np.where(nearer_left, i - 1, i)
    if isinstance(side, str):
        snapped = np.minimum(hit, n - 2) if side == "right" else np.maximum(hit - 1, 0)
    else:  # one side per t
        left = np.asarray(side) == "left"
        snapped = np.where(left, np.maximum(hit - 1, 0), np.minimum(hit, n - 2))
    return np.where(np.abs(points[hit] - ts) <= snap, snapped, i - 1)


class PiecewiseTrajectory:
    """Piecewise polynomial curve q: [b_0, b_K] -> R^dim.

    Parameters
    ----------
    breakpoints : increasing sequence of K+1 floats.
    coefficients : per-interval, per-coordinate coefficient lists
        (``coefficients[j][i][c]`` multiplies ``(t - b_j)**c``).
    order : smoothness class m; the curve must be C^{m-1} at interior
        breakpoints.  Derivatives of every order k >= 0 are available;
        those of order >= m may jump at breakpoints.
    degree_cap : maximum polynomial degree (default 5).
    continuity_tol : override for the continuity tolerance, which defaults
        to ``1e-9 * (1 + max |coefficient|)``.
    """

    def __init__(
        self,
        breakpoints: Sequence[float],
        coefficients: Sequence[Sequence[Sequence[float]]],
        order: int,
        *,
        degree_cap: int = _DEFAULT_DEGREE_CAP,
        continuity_tol: float | None = None,
    ):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise TrajectoryError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise TrajectoryError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise TrajectoryError("breakpoints must be strictly increasing")
        if order < 1:
            raise TrajectoryError("order must be >= 1")
        if len(coefficients) != bp.size - 1:
            raise TrajectoryError(
                f"expected {bp.size - 1} coefficient blocks, got {len(coefficients)}"
            )
        dims = {len(block) for block in coefficients}
        if len(dims) != 1 or 0 in dims:
            raise TrajectoryError("every interval needs the same nonzero dim")
        lengths = np.array([[len(coords) for coords in block] for block in coefficients])
        bad = (lengths == 0) | (lengths - 1 > degree_cap)
        if bad.any():
            length = int(lengths.flat[np.argmax(bad)])
            if length == 0:
                raise TrajectoryError("empty coefficient list")
            raise TrajectoryError(f"degree {length - 1} exceeds cap {degree_cap}")
        flat = [c for block in coefficients for coords in block for c in coords]
        packed = np.zeros(lengths.shape + (int(lengths.max()),))
        packed[np.arange(packed.shape[2]) < lengths[..., None]] = np.array(flat, float)
        if not np.all(np.isfinite(packed)):
            raise TrajectoryError("coefficients must be finite")

        self.breakpoints = bp
        self.coefficients = packed
        self.order = int(order)
        self.dim = lengths.shape[1]
        self.degree_cap = int(degree_cap)

        scale = float(np.max(np.abs(packed))) if packed.size else 0.0
        tol = continuity_tol if continuity_tol is not None else 1e-9 * (1.0 + scale)
        self.continuity_tol = float(tol)
        self._check_continuity(self.continuity_tol)

    def _check_continuity(self, tol: float) -> None:
        """Raise for the first interior breakpoint, then the lowest order
        below the class, where the two sides differ by more than ``tol``."""
        widths = np.diff(self.breakpoints)[:-1]
        ends, starts = self.coefficients[:-1], self.coefficients[1:]
        jumps = [
            _horner(ends, widths, k) - _horner(starts, np.zeros_like(widths), k)
            for k in range(self.order)
        ]
        gaps = np.max(np.abs(jumps), axis=2)  # (order, interior breakpoints)
        failing = np.argwhere(gaps.T > tol)
        if failing.size:
            j, k = failing[0]
            raise TrajectoryError(
                f"derivative {k} jumps by {float(gaps[k, j]):.3e} at "
                f"breakpoint {float(self.breakpoints[j + 1])!r} (tol {tol:.3e})"
            )

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def snap(self) -> float:
        """Distance within which two times count as the same point."""
        return _SNAP_FRACTION * (self.breakpoints[-1] - self.breakpoints[0])

    def segment_index(self, t, side="right"):
        """Index of the interval whose polynomial governs the ``side`` limit
        (one, or one per time) at t; an array of indices for an array t."""
        for one in [side] if isinstance(side, str) else np.ravel(side).tolist():
            if one not in ("left", "right"):
                raise TrajectoryError(f"side must be 'left' or 'right', got {one!r}")
        bp, snap = self.breakpoints, self.snap
        ts = np.asarray(t, dtype=float)
        outside = ~((ts >= bp[0] - snap) & (ts <= bp[-1] + snap))
        if outside.any():
            bad = float(ts.flat[np.argmax(outside)])
            raise TrajectoryError(f"t={bad!r} outside domain {list(self.domain)!r}")
        index = locate(bp, ts, side, snap)
        return index if index.ndim else int(index)

    def segment_interval(self, t: float, side: str = "right") -> tuple[float, float]:
        j = self.segment_index(t, side)
        return float(self.breakpoints[j]), float(self.breakpoints[j + 1])

    def eval(self, ts, k: int = 0, side="right") -> np.ndarray:
        """k-th derivative at each of the times ``ts`` (1-D) as the one-sided
        limit ``side``, shape (len(ts), dim); zero above the degree of the
        governing segment."""
        if k < 0:
            raise TrajectoryError(f"derivative order {k} is negative")
        ts = np.asarray(ts, dtype=float)
        j = self.segment_index(ts, side)
        return _horner(self.coefficients[j], ts - self.breakpoints[j], k)

    def eval_derivative(self, t: float, k: int = 0, side: str = "right") -> np.ndarray:
        """k-th derivative vector at the one time t (see ``eval``)."""
        return self.eval([t], k, side)[0]

    def bindings(
        self, ts, depth: int, side="right", delayed: bool = False
    ) -> dict[str, np.ndarray]:
        """q{i}^(k)(t) for k = 0..depth at the times ``ts``, one array per
        canonical name (``q{i}_d{k}``, or ``q{i}_d{k}_tau`` when
        ``delayed``), from one segment lookup."""
        ts = np.asarray(ts, dtype=float)
        j = self.segment_index(ts, side)
        coeffs, u = self.coefficients[j], ts - self.breakpoints[j]
        out = {}
        for k in range(depth + 1):
            values = _horner(coeffs, u, k)
            for i in range(self.dim):
                out[coordinate_name(i, k, delayed)] = values[:, i]
        return out

    @classmethod
    def from_nodes(
        cls,
        times: Sequence[float],
        values: Sequence[Sequence[float]] | Sequence[float] | np.ndarray,
        order: int = 1,
        **kwargs,
    ) -> "PiecewiseTrajectory":
        """Piecewise-linear interpolant of ``values`` at ``times``."""
        ts = np.asarray(times, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if ts.ndim != 1 or vals.shape[0] != ts.size:
            raise TrajectoryError("times and values must have matching length")
        slopes = (vals[1:] - vals[:-1]) / np.diff(ts)[:, None]
        coeffs = np.stack([vals[:-1], slopes], axis=-1).tolist()
        return cls(ts, coeffs, order, **kwargs)

    def to_json_dict(self) -> dict:
        """Breakpoints and coefficient lists, trailing zeros trimmed."""
        nonzero = self.coefficients[..., ::-1] != 0  # the last nonzero first
        keep = np.where(nonzero.any(-1), nonzero.shape[-1] - nonzero.argmax(-1), 1)
        segments = [
            [coords[:n] for coords, n in zip(block, sizes)]
            for block, sizes in zip(self.coefficients.tolist(), keep.tolist())
        ]
        return {"breakpoints": self.breakpoints.tolist(), "segments": segments}

    @classmethod
    def from_json_dict(cls, doc: Mapping, order: int, **kwargs) -> "PiecewiseTrajectory":
        if not isinstance(doc, Mapping):
            raise TrajectoryError("trajectory document must be an object")
        unknown = set(doc) - {"breakpoints", "segments"}
        if unknown:
            raise TrajectoryError(
                f"unknown trajectory keys: {', '.join(sorted(unknown))}"
            )
        if "breakpoints" not in doc or "segments" not in doc:
            raise TrajectoryError("trajectory document needs breakpoints and segments")
        return cls(doc["breakpoints"], doc["segments"], order, **kwargs)


@dataclass(frozen=True)
class DelayedArgs:
    """Arguments of a delayed Lagrangian at one time: t, then the derivative
    stacks q^(k)(t) and q^(k)(t - tau) for k = 0..order."""

    t: float
    current: np.ndarray  # shape (order + 1, dim)
    delayed: np.ndarray  # shape (order + 1, dim)

    @property
    def order(self) -> int:
        return self.current.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.current.shape[1]

    def bindings(self) -> dict[str, float]:
        out = {"t": self.t}
        for k in range(self.current.shape[0]):
            for i in range(self.dim):
                out[coordinate_name(i, k)] = float(self.current[k, i])
                out[coordinate_name(i, k, delayed=True)] = float(self.delayed[k, i])
        return out


def delayed_args(
    traj: PiecewiseTrajectory,
    t: float,
    tau: float,
    order: int | None = None,
    side: str = "right",
) -> DelayedArgs:
    """Assemble ``DelayedArgs`` from ``traj`` at time t with delay tau,
    holding derivatives up to ``order`` (default: the trajectory's class).

    Both t and t - tau must lie in the trajectory domain; the same one-sided
    limit is used at both times.
    """
    m = traj.order if order is None else order
    if m < 1:
        raise TrajectoryError(f"order {m} is below 1")
    if tau <= 0:
        raise TrajectoryError("tau must be positive")
    times = [t, t - tau]
    stacks = np.stack([traj.eval(times, k, side) for k in range(m + 1)], axis=1)
    return DelayedArgs(float(t), stacks[0], stacks[1])


def effective_breakpoints(
    traj: PiecewiseTrajectory,
    tau: float,
    window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Sorted deduplicated union of B, B + tau and B - tau inside ``window``.

    These are the points where any quantity built from args(t) and
    args(t +- tau) may lose smoothness; b_K - tau (the junction between the
    two regions of a delayed problem) is always among them.
    """
    bp = traj.breakpoints
    lo, hi = window if window is not None else traj.domain
    if hi <= lo:
        raise TrajectoryError("window must have positive length")
    candidates = np.concatenate([bp, bp + tau, bp - tau])
    snap = traj.snap
    candidates = candidates[(candidates >= lo - snap) & (candidates <= hi + snap)]
    candidates = np.clip(np.sort(candidates), lo, hi)
    kept: list[float] = []
    for value in candidates:
        if not kept or value - kept[-1] > snap:
            kept.append(float(value))
    return np.asarray(kept)


def subsegments(
    points: Iterable[float], lo: float, hi: float, snap: float
) -> list[tuple[float, float]]:
    """Partition [lo, hi] at the given interior points (used for quadrature
    and sample-grid construction)."""
    interior = sorted(float(p) for p in points if lo + snap < p < hi - snap)
    edges = [float(lo), *interior, float(hi)]
    return [
        (edges[j], edges[j + 1])
        for j in range(len(edges) - 1)
        if edges[j + 1] - edges[j] > snap
    ]
