"""Delayed variational problems and their action functional.

A problem of order m and dimension n on [t1, t2] with delay tau consists of
a Lagrangian L(t, q(t), ..., q^(m)(t), q(t-tau), ..., q^(m)(t-tau)), a
prehistory curve pinning q on [t1 - tau, t1], and terminal data pinning
q(t2) and q^(i)(t2) for i = 1..m-1.  The action is the integral of L along
a trajectory over [t1, t2], computed by composite Gauss-Legendre quadrature
split at the trajectory's effective breakpoints so every panel integrates a
smooth function.

Evaluation is batched: ``Problem.bindings`` assembles the arguments of L at
many times at once (one array per canonical name), and the compiled forms
of L, its partials and the momenta psi^j (``Problem.compiled_*``) evaluate
over those arrays with values equal to the scalar ``expr.evaluate`` bit for
bit.  ``Problem.args``, ``partial`` and ``lagrangian_value`` are the
one-point forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .trajectory import (
    DelayedArgs,
    PiecewiseTrajectory,
    delayed_args,
    effective_breakpoints,
    subsegments,
)


class FunctionalError(ValueError):
    """Invalid problem data or incompatible trajectory."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: ``gauss_points`` nodes per panel."""

    gauss_points: int = 8

    def __post_init__(self):
        if not 1 <= self.gauss_points <= 128:
            raise FunctionalError("gauss_points must be in 1..128")


@lru_cache(maxsize=None)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(points)


@dataclass(frozen=True)
class ActionResult:
    value: float
    warnings: tuple[str, ...] = ()


def _fold_momenta(
    partials: list[list[ex.Expression]],
) -> list[list[ex.Expression]]:
    """psi^m = P^m and psi^j = P^j - D_t psi^(j+1), per coordinate, where
    P^k are the partials in q^(k); this is the alternating sum
    psi^j = sum_i (-1)^i D_t^i P^(i+j) without repeated differentiation."""
    folded = [partials[-1]]
    for block in reversed(partials[:-1]):
        folded.append(
            [ex._sub(p, ex.total_derivative(f)) for p, f in zip(block, folded[-1])]
        )
    return folded[::-1]


def compiled_property(name: str) -> cached_property:
    """A cached property holding ``expr.compile`` of the expression in the
    attribute ``name``, or lists of them for (nested) lists of expressions."""

    def compile_nested(tree):
        if isinstance(tree, (list, tuple)):
            return [compile_nested(item) for item in tree]
        return ex.compile(tree)

    return cached_property(lambda self: compile_nested(getattr(self, name)))


class Problem:
    """Delayed variational problem with cached symbolic Lagrangian partials
    and momenta, and their compiled array forms.

    ``lagrangian`` and ``prehistory`` are expression trees over the
    canonical vocabulary (t, q{i}_d{k}, q{i}_d{k}_tau); use ``from_sources``
    to build one from strings with alias rewriting and vocabulary checks.

    ``psi_current[j][i]`` is sum_k (-1)^k D_t^k dL/dq{i}^(k+j), the part of
    the momentum psi^j evaluated at args(t); ``psi_advanced[j][i]`` is the
    same sum over the partials in q{i}^(k+j)(t - tau), which region 1 adds
    at args(t + tau).  Both use derivatives up to order 2m - j.
    """

    def __init__(
        self,
        order: int,
        dim: int,
        t1: float,
        t2: float,
        tau: float,
        lagrangian: ex.Expression,
        prehistory: Sequence[ex.Expression],
        terminal_position: Sequence[float],
        terminal_derivatives: Sequence[Sequence[float]] = (),
    ):
        if order < 1:
            raise FunctionalError("order must be >= 1")
        if dim < 1:
            raise FunctionalError("dim must be >= 1")
        if not (math.isfinite(t1) and math.isfinite(t2) and t1 < t2):
            raise FunctionalError("need finite t1 < t2")
        if not (0.0 < tau < t2 - t1):
            raise FunctionalError("need 0 < tau < t2 - t1")
        if len(prehistory) != dim:
            raise FunctionalError(f"prehistory needs {dim} component(s)")

        vocab = ex.lagrangian_vocabulary(dim, order)
        ex.check_vocabulary(lagrangian, vocab, "lagrangian")
        for i, component in enumerate(prehistory):
            ex.check_vocabulary(
                component, frozenset({"t"}), f"prehistory component {i}"
            )

        position = np.asarray(terminal_position, dtype=float)
        if position.shape != (dim,):
            raise FunctionalError(f"terminal position must have {dim} entries")
        derivs = np.asarray(terminal_derivatives, dtype=float)
        if derivs.size == 0:
            derivs = np.zeros((0, dim))
        if derivs.shape != (order - 1, dim):
            raise FunctionalError(
                f"terminal derivatives must be {order - 1} vectors of length {dim}"
            )

        self.order = int(order)
        self.dim = int(dim)
        self.t1 = float(t1)
        self.t2 = float(t2)
        self.tau = float(tau)
        self.lagrangian = lagrangian
        self.prehistory = tuple(prehistory)
        self.terminal_position = position
        self.terminal_derivatives = derivs

        self._partial_t = ex.diff(lagrangian, "t")
        self._partial_u = [
            [ex.diff(lagrangian, ex.coordinate_name(i, k)) for i in range(dim)]
            for k in range(order + 1)
        ]
        self._partial_v = [
            [
                ex.diff(lagrangian, ex.coordinate_name(i, k, delayed=True))
                for i in range(dim)
            ]
            for k in range(order + 1)
        ]
        self.psi_current = _fold_momenta(self._partial_u)
        self.psi_advanced = _fold_momenta(self._partial_v)

    @classmethod
    def from_sources(
        cls,
        order: int,
        dim: int,
        t1: float,
        t2: float,
        tau: float,
        lagrangian: str,
        prehistory: Sequence[str],
        terminal_position: Sequence[float],
        terminal_derivatives: Sequence[Sequence[float]] = (),
    ) -> "Problem":
        lag = ex.canonicalize(ex.parse(lagrangian))
        pre = [ex.canonicalize(ex.parse(src)) for src in prehistory]
        return cls(
            order, dim, t1, t2, tau, lag, pre, terminal_position, terminal_derivatives
        )

    @property
    def junction(self) -> float:
        """t2 - tau, the boundary between region 1 and region 2."""
        return self.t2 - self.tau

    def prehistory_value(self, t: float) -> np.ndarray:
        return np.array(
            [ex.evaluate(component, {"t": t}) for component in self.prehistory]
        )

    def check_trajectory(self, traj: PiecewiseTrajectory) -> None:
        if traj.dim != self.dim:
            raise FunctionalError(f"trajectory dim {traj.dim} != problem dim {self.dim}")
        if traj.order != self.order:
            raise FunctionalError(
                f"trajectory order {traj.order} != problem order {self.order}"
            )
        lo, hi = traj.domain
        span = self.t2 - (self.t1 - self.tau)
        tol = 1e-9 * max(1.0, span)
        if abs(lo - (self.t1 - self.tau)) > tol or abs(hi - self.t2) > tol:
            raise FunctionalError(
                f"trajectory domain [{lo!r}, {hi!r}] does not match "
                f"[{self.t1 - self.tau!r}, {self.t2!r}]"
            )

    def args(
        self, traj: PiecewiseTrajectory, t: float, side: str = "right"
    ) -> DelayedArgs:
        return delayed_args(traj, t, self.tau, self.order, side)

    def partial(self, block: int, args: DelayedArgs):
        """Evaluate a first-order partial of L at ``args``.

        Block 1 is the t-partial (a float).  Blocks 2..m+2 are the partials
        with respect to q^(k)(t) for k = block - 2, blocks m+3..2m+3 with
        respect to q^(k)(t - tau) for k = block - m - 3 (vectors over
        coordinates).
        """
        m = self.order
        if not 1 <= block <= 2 * m + 3:
            raise FunctionalError(
                f"block must be in 1..{2 * m + 3} for order {m}, got {block}"
            )
        bindings = args.bindings()
        if block == 1:
            return ex.evaluate(self._partial_t, bindings)
        exprs = [*self._partial_u, *self._partial_v][block - 2]
        return np.array([ex.evaluate(node, bindings) for node in exprs])

    def lagrangian_value(self, args: DelayedArgs) -> float:
        return ex.evaluate(self.lagrangian, args.bindings())

    def bindings(
        self, traj: PiecewiseTrajectory, ts, depth: int, side="right"
    ) -> dict[str, np.ndarray]:
        """Arguments at the times ``ts`` as ``side`` limits, one array per
        name: t, q{i}_d{k} at ts and q{i}_d{k}_tau at ts - tau, k <= depth."""
        ts = np.asarray(ts, dtype=float)
        return {
            "t": ts,
            **traj.bindings(ts, depth, side),
            **traj.bindings(ts - self.tau, depth, side, delayed=True),
        }

    # Array forms of L, its partials, the momenta and the prehistory, for
    # many times at once (they take ``bindings``), compiled on first use.
    compiled_lagrangian = compiled_property("lagrangian")
    compiled_partial_t = compiled_property("_partial_t")
    compiled_partial_u = compiled_property("_partial_u")
    compiled_partial_v = compiled_property("_partial_v")
    compiled_psi_current = compiled_property("psi_current")
    compiled_psi_advanced = compiled_property("psi_advanced")
    compiled_prehistory = compiled_property("prehistory")

    @cached_property
    def compiled_second_partials(self) -> dict[tuple[str, str], Callable]:
        """d^2 L / da db over the values and first derivatives of every
        coordinate, current and delayed (q{i}_d0, q{i}_d1, q{i}_d0_tau,
        q{i}_d1_tau), keyed by (a, b).  Each unordered pair appears once,
        as a d/db of the cached first partial in a; pairs whose second
        partial is the constant 0 are left out."""
        firsts = [
            (ex.coordinate_name(i, k, delayed), block[k][i])
            for block, delayed in ((self._partial_u, False), (self._partial_v, True))
            for i in range(self.dim)
            for k in range(2)
        ]
        seconds = {}
        for index, (a, first) in enumerate(firsts):
            for b, _ in firsts[index:]:
                second = ex.diff(first, b)
                if not ex._is_const(second, 0.0):
                    seconds[a, b] = ex.compile(second)
        return seconds


def gauss_nodes(
    problem: Problem,
    traj: PiecewiseTrajectory,
    window: tuple[float, float],
    quad: QuadratureSpec | None = None,
    cuts: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the composite Gauss-Legendre rule
    on ``window``, with panels ending at the effective breakpoints and at
    ``cuts``, so every panel integrates a smooth function."""
    points = np.concatenate(
        [effective_breakpoints(traj, problem.tau, window), np.asarray(cuts, float)]
    )
    panels = np.array(subsegments(points, *window, traj.snap)).reshape(-1, 2)
    mid = 0.5 * (panels[:, :1] + panels[:, 1:])
    half = 0.5 * (panels[:, 1:] - panels[:, :1])
    x, w = _leggauss((quad or QuadratureSpec()).gauss_points)
    return (mid + half * x).ravel(), (half * w).ravel()


def columns(functions: Sequence[Callable], bindings: dict) -> np.ndarray:
    """Compiled expressions on ``bindings`` (whose "t" has one entry per
    point) as columns of a (points, len(functions)) array, constants broadcast."""
    shape = np.shape(bindings["t"])
    return np.column_stack([np.broadcast_to(f(bindings), shape) for f in functions])


def integrate(
    problem: Problem,
    traj: PiecewiseTrajectory,
    integrand: Callable,
    window: tuple[float, float] | None = None,
    quad: QuadratureSpec | None = None,
) -> float:
    """Integrate a compiled ``integrand`` (such as ``compiled_lagrangian``),
    evaluated at all nodes at once on ``problem.bindings`` of depth m, over
    ``window`` (default [t1, t2]) with the composite rule of ``gauss_nodes``."""
    problem.check_trajectory(traj)
    lo, hi = window if window is not None else (problem.t1, problem.t2)
    snap = traj.snap
    if lo < problem.t1 - snap or hi > problem.t2 + snap:
        raise FunctionalError(f"window [{float(lo)!r}, {float(hi)!r}] outside [t1, t2]")
    if hi <= lo:
        return 0.0
    nodes, weights = gauss_nodes(problem, traj, (lo, hi), quad)
    values = columns([integrand], problem.bindings(traj, nodes, problem.order))
    return math.fsum(weights * values[:, 0])


def action(
    problem: Problem,
    traj: PiecewiseTrajectory,
    quad: QuadratureSpec | None = None,
) -> ActionResult:
    """Action integral of the Lagrangian along ``traj``.

    Prehistory or terminal mismatches do not fail the computation; they are
    reported as warnings so exploratory trajectories remain usable.
    """
    problem.check_trajectory(traj)
    warnings = []

    # Prehistory match on [t1 - tau, t1], sampled at 9 points per
    # overlapping segment: the last one is the segment end, taken from the left.
    pre_tol = traj.continuity_tol
    spans = subsegments(traj.breakpoints, problem.t1 - problem.tau, problem.t1, traj.snap)
    probes = np.array([np.linspace(a, b, 9) for a, b in spans])
    worst = 0.0
    for ts, side in ((probes[:, :-1].ravel(), "right"), (probes[:, -1], "left")):
        target = columns(problem.compiled_prehistory, {"t": ts})
        worst = max(worst, float(np.max(np.abs(traj.eval(ts, 0, side) - target))))
    if worst > pre_tol:
        warnings.append(
            f"trajectory deviates from prehistory by {worst:.3e} on "
            f"[t1 - tau, t1] (tol {pre_tol:.3e})"
        )

    targets = [problem.terminal_position, *problem.terminal_derivatives]
    for i, target in enumerate(targets):
        gap = float(np.max(np.abs(traj.eval([problem.t2], i, "left")[0] - target)))
        if gap > 1e-8:
            what = f"derivative {i}" if i else "position"
            warnings.append(f"terminal {what} misses target by {gap:.3e}")

    value = integrate(problem, traj, problem.compiled_lagrangian, quad=quad)
    return ActionResult(value, tuple(warnings))
