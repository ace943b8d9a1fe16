"""Direct transcription and minimization for first-order delayed problems.

The trajectory is discretized on a uniform grid of step h with the delay
an exact multiple tau = k h, nodes running from t1 - tau to t2.  The action
is approximated by the midpoint rule per cell, with derivatives replaced by
forward differences; delayed values come from the node k cells back, so the
discrete problem needs no interpolation.  The action, its gradient and its
Hessian are evaluated on the whole grid at once: each argument of L is one
array over all N cells (midpoints and forward differences of node slices,
the same slices k rows back for the delayed arguments), fed to the compiled
forms of L and its first and second partials (``Problem.compiled_lagrangian``
and friends).  Prehistory nodes and the terminal node are pinned; the free
interior nodes are optimized by Newton's method with the exact Hessian (a
Levenberg shift is added while dense Cholesky fails to factor it, then one
dense solve gives the step), damped by Armijo backtracking from the full
step.  A quadratic Lagrangian gives a quadratic action, which one full step
minimizes.  The Hessian is dense in effect: a cell couples nodes k apart, so
its half-bandwidth k + 1 grows as h shrinks, and its memory grows as the
square of the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .functional import Problem, columns
from .trajectory import PiecewiseTrajectory


class SolverError(ValueError):
    """Invalid grid, incompatible problem, or failed line search."""


_COMMENSURATE_TOL = 1e-12
DEFAULT_GRAD_TOL = 1e-9  # stopping tolerance on the gradient's sup-norm
MAX_NEWTON_UNKNOWNS = 4096  # node coordinates; a dense Hessian is 128 MiB here


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
    du0, du1 = (columns(fns, bindings) for fns in problem.compiled_partial_u[:2])
    dv0, dv1 = (columns(fns, bindings) for fns in problem.compiled_partial_v[:2])
    gradient = np.zeros_like(nodes)
    gradient[k + 1 : k + n + 1] += h * (0.5 * du0 + du1 / h)
    gradient[k : k + n] += h * (0.5 * du0 - du1 / h)
    gradient[1 : n + 1] += h * (0.5 * dv0 + dv1 / h)
    gradient[:n] += h * (0.5 * dv0 - dv1 / h)
    gradient[_pinned_mask(grid)] = 0.0
    return gradient


def discrete_hessian(problem: Problem, nodes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact Hessian of the discrete action, indexed like ``nodes.ravel()``;
    pinned rows and columns are zero.  It is symmetric bit for bit.

    In cell c (c = 0..N-1) each argument a of L is w_a0 x[o + c] +
    w_a1 x[o + c + 1], with o = k for the current names and 0 for the
    ``_tau`` ones, w = (1/2, 1/2) for values and (-1/h, 1/h) for forward
    differences.  A pair (a, b) therefore adds h w_as w_bs' L_ab to the
    entries (o_a + c + s, o_b + c + s') of all cells in one pass over a
    diagonal, in which no entry repeats; its mirror pass follows it."""
    nodes = _check_nodes(problem, nodes, grid)
    h, k, n, dim = grid.step, grid.delay_steps, grid.cells, problem.dim
    bindings = _grid_bindings(problem, nodes, grid)
    cells = np.arange(n)
    slots = {}
    for i in range(dim):
        for delayed, first in ((False, k), (True, 0)):
            for order, weights in ((0, (0.5, 0.5)), (1, (-1.0 / h, 1.0 / h))):
                slots[ex.coordinate_name(i, order, delayed)] = [
                    ((first + side + cells) * dim + i, weight)
                    for side, weight in enumerate(weights)
                ]
    hessian = np.zeros((nodes.size, nodes.size))
    for (a, b), second in problem.compiled_second_partials.items():
        values = h * np.broadcast_to(second(bindings), (n,))
        for side_a, (rows, weight_a) in enumerate(slots[a]):
            for side_b, (cols, weight_b) in enumerate(slots[b]):
                if a == b and side_b < side_a:
                    continue  # the mirror of the (0, 1) pass
                contribution = (weight_a * weight_b) * values
                hessian[rows, cols] += contribution
                if a != b or side_a != side_b:
                    hessian[cols, rows] += contribution
    pinned = np.repeat(_pinned_mask(grid), dim)
    hessian[pinned] = 0.0
    hessian[:, pinned] = 0.0
    return hessian


@dataclass(frozen=True)
class NewtonStep:
    """One iteration of ``minimize``: the action and gradient sup-norm after
    the step, the accepted step length and the halvings that found it, and
    the Newton decrement sqrt(g . H^-1 g) and Levenberg shift of the shifted
    Hessian H the step solved with."""

    action: float
    grad_norm: float
    alpha: float
    backtracks: int
    decrement: float
    shift: float


@dataclass
class SolveResult:
    nodes: np.ndarray
    trajectory: PiecewiseTrajectory
    action: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""
    history: list[NewtonStep] = field(default_factory=list)


def _initial_nodes(problem: Problem, grid: GridSpec) -> np.ndarray:
    """The prehistory on the pinned nodes up to t1, then the straight line
    from there to the terminal position."""
    times, k = grid.node_times(problem), grid.delay_steps
    pinned = columns(problem.compiled_prehistory, {"t": times[: k + 1]})
    fraction = (times[k + 1 :, None] - problem.t1) / (problem.t2 - problem.t1)
    anchor, target = pinned[k], problem.terminal_position
    return np.vstack([pinned, anchor + fraction * (target - anchor)])


def _levenberg_shift(hessian: np.ndarray) -> float:
    """Shift ``hessian`` in place by shift I until Cholesky factors it, and
    return the shift: 0 when it factors as given, else the first of
    1e-3 max|diag|, doubled, that factors (Nocedal & Wright, Alg. 3.3)."""
    if not np.all(np.isfinite(hessian)):
        raise SolverError("Hessian of the discrete action is not finite")
    diagonal = hessian.reshape(-1)[:: len(hessian) + 1]  # a writable view
    floor = 1e-3 * (float(np.max(np.abs(diagonal))) or 1.0)
    shift = 0.0
    while True:
        try:
            np.linalg.cholesky(hessian)
            return shift
        except np.linalg.LinAlgError:
            grown = max(2.0 * shift, floor)
            diagonal += grown - shift
            shift = grown


def minimize(
    problem: Problem,
    grid: GridSpec,
    init: np.ndarray | None = None,
    max_iter: int = 10000,
    grad_tol: float = DEFAULT_GRAD_TOL,
) -> SolveResult:
    """Minimize the discrete action over the free interior nodes by damped
    Newton steps; ``history`` holds one ``NewtonStep`` per iteration.

    Each step holds a few dense Hessians of num_nodes * dim squared floats,
    so grids with more than ``MAX_NEWTON_UNKNOWNS`` node coordinates are
    refused with ``SolverError``."""
    if max_iter < 0:
        raise SolverError(f"max_iter must be non-negative, got {max_iter}")
    unknowns = grid.num_nodes * problem.dim
    if unknowns > MAX_NEWTON_UNKNOWNS:
        raise SolverError(
            f"grid has {unknowns} node coordinates; the dense Newton Hessian "
            f"allows at most {MAX_NEWTON_UNKNOWNS} (use a larger step)"
        )
    nodes = _initial_nodes(problem, grid)
    free_rows = ~_pinned_mask(grid)
    if init is not None:
        supplied = _check_nodes(problem, init, grid)
        nodes[free_rows] = supplied[free_rows]
    free = np.repeat(free_rows, problem.dim)

    def sup_norm(array: np.ndarray) -> float:
        return float(np.max(np.abs(array))) if array.size else 0.0

    phi = discrete_action(problem, nodes, grid)
    g = discrete_gradient(problem, nodes, grid)
    history = []
    converged = sup_norm(g) <= grad_tol
    message = "gradient already below tolerance" if converged else ""

    while not converged and len(history) < max_iter:
        hessian = discrete_hessian(problem, nodes, grid)[np.ix_(free, free)]
        shift = _levenberg_shift(hessian)
        direction = np.zeros_like(nodes)
        direction.reshape(-1)[free] = -np.linalg.solve(hessian, g.reshape(-1)[free])
        slope = float(np.vdot(g, direction))
        alpha = 1.0
        for backtracks in range(60):
            trial = nodes + alpha * direction
            trial_phi = discrete_action(problem, trial, grid)
            if trial_phi <= phi + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            message = "line search failed to satisfy the Armijo condition"
            break
        nodes, phi = trial, trial_phi
        g = discrete_gradient(problem, nodes, grid)
        history.append(
            NewtonStep(phi, sup_norm(g), alpha, backtracks, math.sqrt(-slope), shift)
        )
        converged = sup_norm(g) <= grad_tol

    if not message:
        message = "converged" if converged else "iteration limit reached"
    return SolveResult(
        nodes,
        PiecewiseTrajectory.from_nodes(grid.node_times(problem), nodes, order=1),
        phi,
        sup_norm(g),
        len(history),
        converged,
        message,
        history,
    )


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
