"""Direct transcription and minimization for first-order delayed problems.

The trajectory is discretized on a uniform grid of step h with the delay
an exact multiple tau = k h, nodes running from t1 - tau to t2.  The action
is approximated by the midpoint rule per cell, with derivatives replaced by
forward differences; delayed values come from the node k cells back, so the
discrete problem needs no interpolation.  Prehistory nodes and the terminal
node are pinned; the free interior nodes are optimized by Polak-Ribiere+
nonlinear conjugate gradients with an Armijo backtracking line search whose
trial step comes from a directional curvature probe (exact minimizer when
the action is quadratic, as for quadratic Lagrangians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .functional import Problem
from .trajectory import PiecewiseTrajectory


class SolverError(ValueError):
    """Invalid grid, incompatible problem, or failed line search."""


_COMMENSURATE_TOL = 1e-12
DEFAULT_GRAD_TOL = 1e-9  # stopping tolerance on the gradient's sup-norm


@dataclass(frozen=True)
class GridSpec:
    """Uniform transcription grid: step h, delay k cells, horizon N cells."""

    step: float
    delay_steps: int
    cells: int

    def __post_init__(self):
        if self.step <= 0:
            raise SolverError("step must be positive")
        if self.delay_steps < 1:
            raise SolverError("delay must span at least one cell")
        if self.cells < self.delay_steps + 1:
            raise SolverError("horizon must exceed the delay by at least one cell")

    @classmethod
    def from_step(cls, problem: Problem, h: float) -> "GridSpec":
        if problem.order != 1:
            raise SolverError("direct transcription supports order 1 only")
        if h <= 0:
            raise SolverError("step must be positive")
        k = round(problem.tau / h)
        if k < 1 or abs(problem.tau - k * h) > _COMMENSURATE_TOL * max(1.0, problem.tau):
            raise SolverError(
                f"delay {problem.tau!r} is not a whole number of steps of {h!r}"
            )
        horizon = problem.t2 - problem.t1
        n = round(horizon / h)
        if abs(horizon - n * h) > _COMMENSURATE_TOL * max(1.0, horizon):
            raise SolverError(
                f"horizon {horizon!r} is not a whole number of steps of {h!r}"
            )
        return cls(h, k, n)

    @property
    def num_nodes(self) -> int:
        return self.cells + self.delay_steps + 1

    def node_times(self, problem: Problem) -> np.ndarray:
        return np.linspace(
            problem.t1 - problem.tau, problem.t2, self.num_nodes
        )


def _check_nodes(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> np.ndarray:
    arr = np.asarray(nodes, dtype=float)
    if arr.shape != (grid.num_nodes, problem.dim):
        raise SolverError(
            f"nodes must have shape {(grid.num_nodes, problem.dim)}, got {arr.shape}"
        )
    return arr


def _cell_bindings(
    problem: Problem,
    times: np.ndarray,
    nodes: np.ndarray,
    grid: GridSpec,
    cell: int,
) -> dict[str, float]:
    h, k = grid.step, grid.delay_steps
    bindings = {"t": float(times[cell] + 0.5 * h)}
    for i in range(problem.dim):
        bindings[ex.coordinate_name(i, 0)] = 0.5 * float(nodes[cell, i] + nodes[cell + 1, i])
        bindings[ex.coordinate_name(i, 1)] = float(nodes[cell + 1, i] - nodes[cell, i]) / h
        bindings[ex.coordinate_name(i, 0, True)] = 0.5 * float(
            nodes[cell - k, i] + nodes[cell - k + 1, i]
        )
        bindings[ex.coordinate_name(i, 1, True)] = (
            float(nodes[cell - k + 1, i] - nodes[cell - k, i]) / h
        )
    return bindings


def discrete_action(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> float:
    """Midpoint-rule action of the piecewise-linear interpolant of ``nodes``."""
    if problem.order != 1:
        raise SolverError("direct transcription supports order 1 only")
    nodes = _check_nodes(problem, nodes, grid)
    times = grid.node_times(problem)
    k, n = grid.delay_steps, grid.cells
    terms = []
    for cell in range(k, k + n):
        bindings = _cell_bindings(problem, times, nodes, grid, cell)
        terms.append(grid.step * ex.evaluate(problem.lagrangian, bindings))
    return math.fsum(terms)


def _pinned_mask(grid: GridSpec) -> np.ndarray:
    mask = np.zeros(grid.num_nodes, dtype=bool)
    mask[: grid.delay_steps + 1] = True
    mask[-1] = True
    return mask


def discrete_gradient(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact gradient of the discrete action; pinned rows are zero."""
    nodes = _check_nodes(problem, nodes, grid)
    times = grid.node_times(problem)
    h, k, n = grid.step, grid.delay_steps, grid.cells
    gradient = np.zeros_like(nodes)
    for cell in range(k, k + n):
        bindings = _cell_bindings(problem, times, nodes, grid, cell)
        du0 = np.array(
            [ex.evaluate(node, bindings) for node in problem._partial_u[0]]
        )
        du1 = np.array(
            [ex.evaluate(node, bindings) for node in problem._partial_u[1]]
        )
        dv0 = np.array(
            [ex.evaluate(node, bindings) for node in problem._partial_v[0]]
        )
        dv1 = np.array(
            [ex.evaluate(node, bindings) for node in problem._partial_v[1]]
        )
        gradient[cell] += h * (0.5 * du0 - du1 / h)
        gradient[cell + 1] += h * (0.5 * du0 + du1 / h)
        gradient[cell - k] += h * (0.5 * dv0 - dv1 / h)
        gradient[cell - k + 1] += h * (0.5 * dv0 + dv1 / h)
    gradient[_pinned_mask(grid)] = 0.0
    return gradient


@dataclass
class SolveResult:
    nodes: np.ndarray
    trajectory: PiecewiseTrajectory
    action: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""


def _initial_nodes(problem: Problem, grid: GridSpec) -> np.ndarray:
    times = grid.node_times(problem)
    nodes = np.zeros((grid.num_nodes, problem.dim))
    k = grid.delay_steps
    for j in range(k + 1):
        nodes[j] = problem.prehistory_value(float(times[j]))
    anchor = nodes[k]
    target = problem.terminal_position
    horizon = problem.t2 - problem.t1
    for j in range(k + 1, grid.num_nodes):
        fraction = (times[j] - problem.t1) / horizon
        nodes[j] = anchor + fraction * (target - anchor)
    return nodes


def minimize(
    problem: Problem,
    grid: GridSpec,
    init: np.ndarray | None = None,
    max_iter: int = 10000,
    grad_tol: float = DEFAULT_GRAD_TOL,
) -> SolveResult:
    """Minimize the discrete action over the free interior nodes."""
    if problem.order != 1:
        raise SolverError("direct transcription supports order 1 only")
    nodes = _initial_nodes(problem, grid)
    if init is not None:
        supplied = _check_nodes(problem, init, grid)
        free_rows = ~_pinned_mask(grid)
        nodes[free_rows] = supplied[free_rows]

    def value(current: np.ndarray) -> float:
        return discrete_action(problem, current, grid)

    def gradient(current: np.ndarray) -> np.ndarray:
        return discrete_gradient(problem, current, grid)

    def sup_norm(array: np.ndarray) -> float:
        return float(np.max(np.abs(array))) if array.size else 0.0

    g = gradient(nodes)
    iterations = 0
    converged = sup_norm(g) <= grad_tol
    message = "gradient already below tolerance" if converged else ""
    direction = -g
    alpha_prev = 1.0

    while not converged and iterations < max_iter:
        slope = float(np.vdot(g, direction))
        if slope >= 0:
            direction = -g
            slope = float(np.vdot(g, direction))
        # Curvature probe along the direction seeds the trial step; for a
        # quadratic action this lands on the exact line minimizer.
        sigma = 1e-4 * (1.0 + sup_norm(nodes)) / (1.0 + sup_norm(direction))
        probe = gradient(nodes + sigma * direction)
        curvature = float(np.vdot(probe - g, direction)) / sigma
        if curvature > 0:
            alpha = -slope / curvature
        else:
            alpha = alpha_prev
        phi0 = value(nodes)
        for _ in range(60):
            trial = nodes + alpha * direction
            if value(trial) <= phi0 + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            return SolveResult(
                nodes,
                _reconstruct(problem, grid, nodes),
                phi0,
                sup_norm(g),
                iterations,
                False,
                "line search failed to satisfy the Armijo condition",
            )
        alpha_prev = alpha
        nodes = nodes + alpha * direction
        g_new = gradient(nodes)
        iterations += 1
        if sup_norm(g_new) <= grad_tol:
            g = g_new
            converged = True
            break
        beta = max(
            0.0,
            float(np.vdot(g_new, g_new - g)) / float(np.vdot(g, g)),
        )
        direction = -g_new + beta * direction
        g = g_new

    if not message:
        message = "converged" if converged else "iteration limit reached"
    return SolveResult(
        nodes,
        _reconstruct(problem, grid, nodes),
        value(nodes),
        sup_norm(g),
        iterations,
        converged,
        message,
    )


def _reconstruct(
    problem: Problem, grid: GridSpec, nodes: np.ndarray
) -> PiecewiseTrajectory:
    return PiecewiseTrajectory.from_nodes(grid.node_times(problem), nodes, order=1)


def discrete_first_variation(
    problem: Problem,
    nodes: np.ndarray,
    grid: GridSpec,
    direction: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Central-difference directional derivative of the discrete action.

    The direction must vanish on prehistory and terminal nodes (those are
    boundary data, not variations)."""
    nodes = _check_nodes(problem, nodes, grid)
    direction = _check_nodes(problem, direction, grid)
    pinned = _pinned_mask(grid)
    if np.any(direction[pinned] != 0.0):
        raise SolverError("direction must vanish on prehistory and terminal nodes")
    plus = discrete_action(problem, nodes + epsilon * direction, grid)
    minus = discrete_action(problem, nodes - epsilon * direction, grid)
    return (plus - minus) / (2.0 * epsilon)
