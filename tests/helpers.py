"""Shared test utilities: random expression/trajectory generators, finite
difference oracles, a per-cell transcription oracle, small fixture problems
built by hand, and the acceptance-criteria result registry."""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from delay_noether import (
    PiecewiseTrajectory,
    Problem,
    block_term,
    delayed_args,
    effective_segment,
    evaluate,
    psi,
    region_of,
)
from delay_noether.expr import (
    Binary,
    Constant,
    Expression,
    Unary,
    Variable,
    coordinate_name,
)

ACCEPTANCE_LINES: list[str] = []


def acceptance(number: int, description: str):
    """Record one PASS/FAIL line per acceptance criterion; the conftest
    terminal-summary hook prints the collected lines after the run."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"FAIL  criterion {number}: {description}")
                raise
            ACCEPTANCE_LINES.append(f"PASS  criterion {number}: {description}")

        return wrapper

    return decorator

UNARY_OPS = ["neg", "sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh"]
BINARY_OPS = ["add", "sub", "mul", "div"]


def random_tree(rng: random.Random, names: list[str], depth: int) -> Expression:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Constant(round(rng.uniform(-3.0, 3.0), 4))
        return Variable(rng.choice(names))
    roll = rng.random()
    if roll < 0.35:
        return Unary(rng.choice(UNARY_OPS), random_tree(rng, names, depth - 1))
    if roll < 0.45:
        return Binary(
            "pow",
            random_tree(rng, names, depth - 1),
            Constant(float(rng.choice([2, 3]))),
        )
    return Binary(
        rng.choice(BINARY_OPS),
        random_tree(rng, names, depth - 1),
        random_tree(rng, names, depth - 1),
    )


# Pseudo-variable naming the direction of the exact total derivative: t
# moves at rate 1 and each q{i}_d{k}[_tau] at the value bound to its
# successor q{i}_d{k+1}[_tau].
TOTAL = "d/dt"


def successor(name: str) -> str:
    """q{i}_d{k}[_tau] -> q{i}_d{k+1}[_tau]."""
    head, _, rest = name.partition("_d")
    deriv, _, delayed = rest.partition("_")
    return f"{head}_d{int(deriv) + 1}" + (f"_{delayed}" if delayed else "")


def shifted(bindings: dict, var: str, delta: float) -> dict:
    """``bindings`` moved by ``delta`` along ``var`` (or along TOTAL)."""
    if var != TOTAL:
        return {**bindings, var: bindings[var] + delta}
    moved = dict(bindings)
    for name in bindings:
        if name == "t":
            moved[name] += delta
        elif successor(name) in bindings:
            moved[name] += delta * bindings[successor(name)]
    return moved


def fd_derivative(expr: Expression, var: str, bindings: dict, h: float = 1e-5) -> float:
    """Richardson-improved central difference, the oracle for symbolic diff
    and, with ``var=TOTAL``, for the total derivative."""

    def central(step: float) -> float:
        ahead = evaluate(expr, shifted(bindings, var, step))
        behind = evaluate(expr, shifted(bindings, var, -step))
        return (ahead - behind) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def random_diff_pairs(
    seed: int, count: int, names: list[str] | None = None, total: bool = False
):
    """Yield ``count`` (expr, var, bindings) triples where the expression is
    finite and numerically tame around the binding point.  With ``total``
    the direction may also be TOTAL; the bindings then also hold the rates,
    the successors of the coordinate names."""
    rng = random.Random(seed)
    names = names or ["t", "q0_d0", "q0_d1", "q0_d0_tau", "q0_d1_tau"]
    rates = sorted({successor(n) for n in names if n != "t"} - set(names))
    produced = 0
    while produced < count:
        tree = random_tree(rng, names, 4)
        var = rng.choice(names + [TOTAL] if total else names)
        bindings = {n: rng.uniform(0.4, 1.6) for n in names}
        if total:
            bindings.update({n: rng.uniform(-1.0, 1.0) for n in rates})
        try:
            value = evaluate(tree, bindings)
            probes = [
                evaluate(tree, shifted(bindings, var, delta))
                for delta in (-2e-5, -1e-5, 1e-5, 2e-5)
            ]
        except Exception:
            continue
        if not all(math.isfinite(p) and abs(p) < 1e6 for p in [value, *probes]):
            continue
        yield tree, var, bindings
        produced += 1


def random_lipschitz_trajectory(
    rng: np.random.Generator,
    lo: float,
    hi: float,
    dim: int = 1,
    kinks: int = 5,
    scale: float = 1.0,
    min_gap: float = 0.15,
) -> PiecewiseTrajectory:
    """Random piecewise-linear curve on [lo, hi] with well-separated kinks."""
    times = [lo, hi]
    attempts = 0
    while len(times) < kinks + 2 and attempts < 200:
        attempts += 1
        candidate = float(rng.uniform(lo + min_gap, hi - min_gap))
        if all(abs(candidate - t) >= min_gap for t in times):
            times.append(candidate)
    times.sort()
    values = rng.uniform(-scale, scale, size=(len(times), dim))
    return PiecewiseTrajectory.from_nodes(times, values, order=1)


def taylor_sin_coefficients(center: float, degree: int) -> list[float]:
    return [
        math.sin(center + 0.5 * math.pi * k) / math.factorial(k)
        for k in range(degree + 1)
    ]


def oscillator(tau: float = 1e-3):
    """Harmonic oscillator with a tiny, irrelevant delay: L = q'^2 - q^2 on
    [0, 3], trajectory sin t as piecewise Taylor polynomials of degree 13."""
    t1, t2 = 0.0, 3.0
    breakpoints = [-tau, 0.75, 1.5, 2.25, 3.0]
    coeffs = [
        [taylor_sin_coefficients(breakpoints[j], 13)]
        for j in range(len(breakpoints) - 1)
    ]
    traj = PiecewiseTrajectory(breakpoints, coeffs, order=1, degree_cap=13)
    problem = Problem.from_sources(
        1, 1, t1, t2, tau,
        "q0_d1^2 - q0_d0^2",
        ["sin(t)"],
        [math.sin(3.0)],
    )
    return problem, traj


def cubic_order2():
    """Order-2, delay-independent L = q''^2 / 2 along q = t^3 on [0, 2]."""
    t1, t2, tau = 0.0, 2.0, 0.5
    # t^3 in the local variable u = t + 0.5.
    coeffs = [[[-0.125, 0.75, -1.5, 1.0]]]
    traj = PiecewiseTrajectory([t1 - tau, t2], coeffs, order=2)
    problem = Problem.from_sources(
        2, 1, t1, t2, tau,
        "q0_d2^2 / 2",
        ["t^3"],
        [8.0],
        [[12.0]],
    )
    return problem, traj


def quintic_order3():
    """Order-3, delay-independent L = q'''^2 / 2 along q = t^5 on [0, 2]."""
    t1, t2, tau = 0.0, 2.0, 0.5
    # t^5 in the local variable u = t + 0.5.
    coeffs = [[[math.comb(5, k) * (-tau) ** (5 - k) for k in range(6)]]]
    traj = PiecewiseTrajectory([t1 - tau, t2], coeffs, order=3)
    problem = Problem.from_sources(
        3, 1, t1, t2, tau,
        "q0_d3^2 / 2",
        ["t^5"],
        [32.0],
        [[80.0], [320.0]],
    )
    return problem, traj


def richardson_derivative(f, t: float, interval: tuple[float, float], step=None):
    """d/dt f at t: a 5-point central stencil plus one Richardson step.

    The stencil reaches 2 * step on each side of t and must stay inside
    ``interval`` (the smooth piece of f around t), otherwise ``ValueError``.
    The default step is 1e-3 of the interval length.
    """
    a, b = interval
    h = 1e-3 * (b - a) if step is None else step
    if t - 2 * h < a or t + 2 * h > b:
        raise ValueError(
            f"stencil [{t - 2 * h!r}, {t + 2 * h!r}] leaves segment [{a!r}, {b!r}]"
        )

    def at(s: float) -> np.ndarray:
        return np.asarray(f(s), dtype=float)

    def stencil(step: float) -> np.ndarray:
        near = at(t + step) - at(t - step)
        far = at(t + 2 * step) - at(t - 2 * step)
        return (8.0 * near - far) / (12.0 * step)

    return (16.0 * stencil(h / 2.0) - stencil(h)) / 15.0


def psi_identity_residual(problem, traj, j: int, t: float, side: str = "right"):
    """Residual of the recurrence d/dt psi^j = block_term(j-1) - psi^(j-1),
    which holds along any admissible trajectory (not only extremals).  The
    derivative is a finite difference kept inside the effective segment, an
    oracle independent of the exact expressions behind ``psi``."""
    m = problem.order
    if not 1 <= j <= m:
        raise ValueError(f"j must be in 1..{m}, got {j}")
    region = region_of(problem, t, side)
    interval = effective_segment(problem, traj, t, side)
    lhs = richardson_derivative(
        lambda s: psi(problem, traj, j, s, region, side), t, interval
    )
    rhs = block_term(problem, traj, j - 1, t, region, side) - psi(
        problem, traj, j - 1, t, region, side
    )
    return lhs - rhs


def _cell_bindings(problem, times, nodes, grid, cell: int) -> dict[str, float]:
    """Scalar arguments of L at the midpoint of one transcription cell."""
    h, k = grid.step, grid.delay_steps
    bindings = {"t": float(times[cell] + 0.5 * h)}
    for i in range(problem.dim):
        bindings[coordinate_name(i, 0)] = 0.5 * float(nodes[cell, i] + nodes[cell + 1, i])
        bindings[coordinate_name(i, 1)] = float(nodes[cell + 1, i] - nodes[cell, i]) / h
        bindings[coordinate_name(i, 0, True)] = 0.5 * float(
            nodes[cell - k, i] + nodes[cell - k + 1, i]
        )
        bindings[coordinate_name(i, 1, True)] = (
            float(nodes[cell - k + 1, i] - nodes[cell - k, i]) / h
        )
    return bindings


def reference_action(problem, nodes, grid) -> float:
    """Discrete action by a scalar loop over cells: the oracle for the
    whole-grid ``solver.discrete_action``."""
    times = grid.node_times(problem)
    k, n = grid.delay_steps, grid.cells
    terms = []
    for cell in range(k, k + n):
        bindings = _cell_bindings(problem, times, nodes, grid, cell)
        terms.append(grid.step * evaluate(problem.lagrangian, bindings))
    return math.fsum(terms)


def reference_gradient(problem, nodes, grid) -> np.ndarray:
    """Discrete gradient by a scalar loop over cells, each cell adding its
    partials to its four nodes: the oracle for ``solver.discrete_gradient``."""
    times = grid.node_times(problem)
    h, k, n = grid.step, grid.delay_steps, grid.cells
    gradient = np.zeros_like(nodes)

    def block(exprs, bindings):
        return np.array([evaluate(node, bindings) for node in exprs])

    for cell in range(k, k + n):
        bindings = _cell_bindings(problem, times, nodes, grid, cell)
        du0 = block(problem._partial_u[0], bindings)
        du1 = block(problem._partial_u[1], bindings)
        dv0 = block(problem._partial_v[0], bindings)
        dv1 = block(problem._partial_v[1], bindings)
        gradient[cell] += h * (0.5 * du0 - du1 / h)
        gradient[cell + 1] += h * (0.5 * du0 + du1 / h)
        gradient[cell - k] += h * (0.5 * dv0 - dv1 / h)
        gradient[cell - k + 1] += h * (0.5 * dv0 + dv1 / h)
    gradient[: k + 1] = 0.0
    gradient[-1] = 0.0
    return gradient


def scalar_eval(
    traj: PiecewiseTrajectory, t: float, k: int, side: str
) -> np.ndarray:
    """Reference one-point evaluation in scalar Python: the nearer-point
    snap rule of ``trajectory.locate`` on one time, then Horner over the
    governing segment's coefficients in the order of
    ``PiecewiseTrajectory.eval``."""
    points, snap = traj.breakpoints, traj.snap
    i = int(np.searchsorted(points, t))
    nearer_left = i == points.size or (i > 0 and t - points[i - 1] <= points[i] - t)
    hit = i - 1 if nearer_left else i
    if abs(points[hit] - t) <= snap:
        if side == "right":
            j = hit if hit < points.size - 1 else hit - 1
        else:
            j = hit - 1 if hit > 0 else 0
    else:
        j = i - 1
    coeffs, u = traj.coefficients[j], t - points[j]
    result = np.zeros(coeffs.shape[0])
    for p in range(coeffs.shape[1] - 1, k - 1, -1):
        factor = 1.0
        for r in range(p, p - k, -1):
            factor *= r
        result = result * u + coeffs[:, p] * factor
    return result


def random_piecewise(rng: np.random.Generator, dim: int) -> PiecewiseTrajectory:
    """Random piecewise polynomial of dimension ``dim`` with 2-6 segments of
    degree 0-4 (ragged per coordinate); evaluation does not depend on
    continuity, so none is imposed."""
    segments = int(rng.integers(2, 7))
    breakpoints = np.cumsum(rng.uniform(0.1, 1.0, segments + 1)) - 1.0
    coefficients = [
        [list(rng.uniform(-2.0, 2.0, int(rng.integers(1, 6)))) for _ in range(dim)]
        for _ in range(segments)
    ]
    return PiecewiseTrajectory(
        breakpoints, coefficients, order=1, continuity_tol=math.inf
    )


def scalar_charge(problem, traj, sym, t: float, side: str = "right") -> float:
    """Reference Noether charge at one time in scalar Python:
    sum_j psi^j . rho^(j-1) + (L - sum_j psi^j . q^(j)) eta - Phi, each
    expression run through ``evaluate`` and each dot product taken by
    ``@`` on the coordinate vectors."""
    m = problem.order
    args = delayed_args(traj, t, problem.tau, 2 * m - 1, side)
    here = args.bindings()
    first = region_of(problem, t, side) == 1
    total = 0.0
    kinetic = evaluate(problem.lagrangian, here)
    for j in range(1, m + 1):
        momentum = np.array([evaluate(e, here) for e in problem.psi_current[j]])
        if first:
            ahead = delayed_args(traj, t + problem.tau, problem.tau, 2 * m - 1, side)
            momentum = momentum + np.array(
                [evaluate(e, ahead.bindings()) for e in problem.psi_advanced[j]]
            )
        rho = np.array([evaluate(e, here) for e in sym.rho[j - 1]])
        total += float(momentum @ rho)
        kinetic -= float(momentum @ args.current[j])
    total += kinetic * evaluate(sym.eta, here)
    total -= evaluate(sym.gauge, here)
    return total


def reference_folded_integral(
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
    starts = np.searchsorted(nodes, np.minimum(times, bases))
    ends = np.searchsorted(nodes, np.maximum(times, bases))
    for row, (t, base, lo, hi) in enumerate(zip(times, bases, starts, ends)):
        kernel = weights[lo:hi] * scale * (t - nodes[lo:hi]) ** (k - 1)
        out[row] = (1.0 if t >= base else -1.0) * (kernel @ table[lo:hi])
    return out
