"""Direct transcription and minimization for first-order delayed problems.

The trajectory is discretized on a uniform grid of step h with the delay
an exact multiple tau = k h, nodes running from t1 - tau to t2.  The action
is approximated by the midpoint rule per cell, with derivatives replaced by
forward differences; delayed values come from the node k cells back, so the
discrete problem needs no interpolation.  The action and its gradient are
evaluated on the whole grid at once: each argument of L is one array over
all N cells (midpoints and forward differences of node slices, the same
slices k rows back for the delayed arguments), fed to the compiled forms of
L and its partials (``Problem.compiled_lagrangian`` and friends).
Prehistory nodes and the terminal node are pinned; the free interior nodes
are optimized by Polak-Ribiere+ nonlinear conjugate gradients with an
Armijo backtracking line search whose trial step comes from a directional
curvature probe (exact minimizer when the action is quadratic, as for
quadratic Lagrangians).
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
        _check_order(problem)
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


def _check_order(problem: Problem) -> None:
    if problem.order != 1:
        raise SolverError("direct transcription supports order 1 only")


def _check_nodes(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> np.ndarray:
    _check_order(problem)
    arr = np.asarray(nodes, dtype=float)
    if arr.shape != (grid.num_nodes, problem.dim):
        raise SolverError(
            f"nodes must have shape {(grid.num_nodes, problem.dim)}, got {arr.shape}"
        )
    return arr


def _grid_bindings(
    problem: Problem, nodes: np.ndarray, grid: GridSpec
) -> dict[str, np.ndarray]:
    """Arguments of L at the midpoints of all N cells, one array per name.

    Cell j (j = k..k+N-1) spans nodes j and j + 1: midpoint values and
    forward differences of those rows, and for the ``_tau`` names the same
    of the rows k back."""
    h, k, n = grid.step, grid.delay_steps, grid.cells
    bindings = {"t": grid.node_times(problem)[k : k + n] + 0.5 * h}
    for i in range(problem.dim):
        for first, delayed in ((k, False), (0, True)):
            left = nodes[first : first + n, i]
            right = nodes[first + 1 : first + n + 1, i]
            bindings[ex.coordinate_name(i, 0, delayed)] = 0.5 * (left + right)
            bindings[ex.coordinate_name(i, 1, delayed)] = (right - left) / h
    return bindings


def _per_cell(functions, bindings: dict[str, np.ndarray], cells: int) -> np.ndarray:
    """Compiled expressions, one per coordinate, as a (cells, dim) array."""
    return np.column_stack(
        [np.broadcast_to(function(bindings), (cells,)) for function in functions]
    )


def discrete_action(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> float:
    """Midpoint-rule action of the piecewise-linear interpolant of ``nodes``."""
    nodes = _check_nodes(problem, nodes, grid)
    values = problem.compiled_lagrangian(_grid_bindings(problem, nodes, grid))
    return math.fsum(np.broadcast_to(grid.step * values, (grid.cells,)))


def _pinned_mask(grid: GridSpec) -> np.ndarray:
    mask = np.zeros(grid.num_nodes, dtype=bool)
    mask[: grid.delay_steps + 1] = True
    mask[-1] = True
    return mask


def discrete_gradient(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact gradient of the discrete action; pinned rows are zero.

    Cell j adds its L-partials to nodes j and j + 1 (through q, q') and to
    nodes j - k and j - k + 1 (through q_tau, q'_tau).  The four slice
    passes run in the order in which a loop over cells reaches each node,
    so every row is summed in that order."""
    nodes = _check_nodes(problem, nodes, grid)
    h, k, n = grid.step, grid.delay_steps, grid.cells
    bindings = _grid_bindings(problem, nodes, grid)
    du0, du1 = (_per_cell(fns, bindings, n) for fns in problem.compiled_partial_u[:2])
    dv0, dv1 = (_per_cell(fns, bindings, n) for fns in problem.compiled_partial_v[:2])
    gradient = np.zeros_like(nodes)
    gradient[k + 1 : k + n + 1] += h * (0.5 * du0 + du1 / h)
    gradient[k : k + n] += h * (0.5 * du0 - du1 / h)
    gradient[1 : n + 1] += h * (0.5 * dv0 + dv1 / h)
    gradient[:n] += h * (0.5 * dv0 - dv1 / h)
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
