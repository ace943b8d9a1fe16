import numpy as np
import pytest

import helpers
from delay_noether import (
    GridSpec,
    Problem,
    SolverError,
    discrete_action,
    discrete_first_variation,
    discrete_gradient,
    discrete_hessian,
    minimize,
)
from delay_noether.solver import MAX_NEWTON_UNKNOWNS, _initial_nodes, _pinned_mask


def nodes_from(traj, problem, grid):
    times = grid.node_times(problem)
    return np.array([traj.eval_derivative(float(t), 0) for t in times])


def free_rows(grid):
    return ~_pinned_mask(grid)


class TestGridSpec:
    def test_from_step_golden(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        assert grid == GridSpec(0.25, 4, 12)
        assert grid.num_nodes == 17
        times = grid.node_times(problem)
        assert times[0] == -1.0 and times[-1] == 3.0
        assert np.diff(times) == pytest.approx(np.full(16, 0.25))

    def test_delay_must_be_commensurate(self, problem):
        with pytest.raises(SolverError, match="not a whole number"):
            GridSpec.from_step(problem, 0.07)

    def test_horizon_must_be_commensurate(self):
        prob = Problem.from_sources(
            order=1,
            dim=1,
            t1=0.0,
            t2=2.5,
            tau=1.0,
            lagrangian="q0_d1^2",
            prehistory=["0"],
            terminal_position=[1.0],
        )
        with pytest.raises(SolverError, match="horizon"):
            GridSpec.from_step(prob, 1.0)

    def test_order_one_only(self):
        prob, _ = helpers.cubic_order2()
        with pytest.raises(SolverError, match="order 1"):
            GridSpec.from_step(prob, 0.25)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 4, 12), "step"),
            ((0.25, 0, 12), "delay"),
            ((0.25, 4, 4), "horizon"),
        ],
    )
    def test_direct_validation(self, args, message):
        with pytest.raises(SolverError, match=message):
            GridSpec(*args)


class TestDiscreteAction:
    def test_golden_value_on_the_kinked_extremal(self, problem, traj_el_only):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_only, problem, grid)
        assert discrete_action(problem, nodes, grid) == pytest.approx(4.0, abs=1e-12)

    def test_zero_at_the_discrete_minimizer(self, problem, traj_el_dbr):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_dbr, problem, grid)
        assert discrete_action(problem, nodes, grid) == pytest.approx(0.0, abs=1e-12)

    def test_node_shape_is_checked(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        with pytest.raises(SolverError, match="shape"):
            discrete_action(problem, np.zeros((5, 1)), grid)


class TestDiscreteGradient:
    def test_matches_a_finite_difference_oracle(self, problem, traj_el_only):
        grid = GridSpec.from_step(problem, 0.5)
        rng = np.random.default_rng(5)
        nodes = nodes_from(traj_el_only, problem, grid)
        nodes[free_rows(grid)] += rng.uniform(-0.3, 0.3, (np.sum(free_rows(grid)), 1))
        grad = discrete_gradient(problem, nodes, grid)
        eps = 1e-6
        for row in range(grid.num_nodes):
            probe = np.zeros_like(nodes)
            probe[row, 0] = 1.0
            plus = discrete_action(problem, nodes + eps * probe, grid)
            minus = discrete_action(problem, nodes - eps * probe, grid)
            fd = (plus - minus) / (2 * eps)
            if _pinned_mask(grid)[row]:
                assert grad[row, 0] == 0.0
            else:
                assert grad[row, 0] == pytest.approx(fd, abs=1e-7)

    def test_gradient_vanishes_at_the_discrete_minimizer(self, problem, traj_el_dbr):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_dbr, problem, grid)
        grad = discrete_gradient(problem, nodes, grid)
        assert np.max(np.abs(grad)) <= 1e-12

    @pytest.mark.parametrize(
        "call",
        [
            lambda prob, nodes, grid: discrete_action(prob, nodes, grid),
            lambda prob, nodes, grid: discrete_gradient(prob, nodes, grid),
            lambda prob, nodes, grid: discrete_hessian(prob, nodes, grid),
            lambda prob, nodes, grid: discrete_first_variation(
                prob, nodes, grid, np.zeros_like(nodes)
            ),
        ],
        ids=["action", "gradient", "hessian", "first-variation"],
    )
    def test_order_one_only(self, call):
        # The gradient used to return zeros here while the action raised.
        prob, _ = helpers.cubic_order2()
        grid = GridSpec(0.25, 2, 8)
        with pytest.raises(SolverError, match="order 1"):
            call(prob, np.zeros((grid.num_nodes, 1)), grid)


def coupled_problem():
    """dim 2, one cell of delay (k = 1): L couples the coordinates through
    sin and exp, so every block of partials is a non-trivial expression."""
    prob = Problem.from_sources(
        order=1,
        dim=2,
        t1=0.0,
        t2=2.0,
        tau=0.2,
        lagrangian=(
            "q0_d1^2 + sin(q1_d0) * q0_d1_tau + exp(q0_d0 * q1_d1_tau) / 4"
            " + t * q1_d1^2 - q0_d0_tau * q1_d0_tau"
        ),
        prehistory=["sin(t)", "t^2"],
        terminal_position=[1.0, -0.5],
    )
    return prob, GridSpec.from_step(prob, 0.2)


class TestWholeGrid:
    """The whole-grid action and gradient against the per-cell oracle."""

    @pytest.mark.parametrize("h", [0.25, 0.05])
    def test_bit_identical_on_the_bundle(self, problem, traj_el_only, traj_el_dbr, h):
        grid = GridSpec.from_step(problem, h)
        rng = np.random.default_rng(31)
        free = free_rows(grid)
        candidates = [
            nodes_from(traj, problem, grid) for traj in (traj_el_only, traj_el_dbr)
        ]
        for _ in range(3):
            nodes = candidates[0].copy()
            nodes[free] += rng.uniform(-0.5, 0.5, (np.sum(free), 1))
            candidates.append(nodes)
        for nodes in candidates:
            assert discrete_action(problem, nodes, grid) == helpers.reference_action(
                problem, nodes, grid
            )
            assert np.array_equal(
                discrete_gradient(problem, nodes, grid),
                helpers.reference_gradient(problem, nodes, grid),
            )

    def test_coupled_two_dimensional_problem(self):
        prob, grid = coupled_problem()
        assert grid.delay_steps == 1
        rng = np.random.default_rng(7)
        for _ in range(3):
            nodes = rng.uniform(-1.0, 1.0, (grid.num_nodes, 2))
            assert discrete_action(prob, nodes, grid) == helpers.reference_action(
                prob, nodes, grid
            )
            assert np.array_equal(
                discrete_gradient(prob, nodes, grid),
                helpers.reference_gradient(prob, nodes, grid),
            )


def section3_problem(lagrangian):
    """The bundle's Section 3 data (prehistory -t, q(3) = 1, tau = 1) with
    another Lagrangian."""
    return Problem.from_sources(
        order=1,
        dim=1,
        t1=0.0,
        t2=3.0,
        tau=1.0,
        lagrangian=lagrangian,
        prehistory=["-t"],
        terminal_position=[1.0],
    )


def free_block(matrix, grid, dim=1):
    free = np.repeat(free_rows(grid), dim)
    return matrix[np.ix_(free, free)]


class TestDiscreteHessian:
    def test_matches_the_gradient_difference_hessian(self, problem):
        # The unit-probe Hessian of test_matches_a_normal_equations_oracle;
        # the action is quadratic, so the differences are exact.
        grid = GridSpec.from_step(problem, 0.25)
        free = free_rows(grid)
        x0_nodes = minimize(problem, grid, max_iter=0).nodes
        g0 = discrete_gradient(problem, x0_nodes, grid)[free].ravel()
        n_free = g0.size
        oracle = np.zeros((n_free, n_free))
        for j in range(n_free):
            probe = x0_nodes.copy()
            probe[free] += np.eye(n_free)[j].reshape(-1, 1)
            oracle[:, j] = discrete_gradient(problem, probe, grid)[free].ravel() - g0
        hessian = discrete_hessian(problem, x0_nodes, grid)
        assert np.max(np.abs(free_block(hessian, grid) - oracle)) <= 1e-12

    def test_symmetric_bit_for_bit_with_zero_pinned_rows(self, problem):
        double_well = section3_problem("(q0_d1^2 - 1)^2 + q0_d1_tau^2")
        rng = np.random.default_rng(17)
        for prob, grid in (
            (problem, GridSpec.from_step(problem, 0.05)),
            coupled_problem(),
            (double_well, GridSpec.from_step(double_well, 0.25)),
        ):
            nodes = rng.uniform(-1.0, 1.0, (grid.num_nodes, prob.dim))
            hessian = discrete_hessian(prob, nodes, grid)
            assert hessian.shape == (nodes.size, nodes.size)
            assert np.array_equal(hessian, hessian.T)
            pinned = np.repeat(_pinned_mask(grid), prob.dim)
            assert not np.any(hessian[pinned]) and not np.any(hessian[:, pinned])

    def test_matches_central_differences_on_the_coupled_problem(self):
        prob, grid = coupled_problem()
        rng = np.random.default_rng(3)
        nodes = rng.uniform(-1.0, 1.0, (grid.num_nodes, 2))
        free = np.repeat(free_rows(grid), 2)
        eps = 1e-5
        columns = []
        for index in np.flatnonzero(free):
            probe = np.zeros_like(nodes)
            probe.flat[index] = eps
            plus = discrete_gradient(prob, nodes + probe, grid).ravel()
            minus = discrete_gradient(prob, nodes - probe, grid).ravel()
            columns.append((plus - minus)[free] / (2 * eps))
        central = np.column_stack(columns)
        hessian = free_block(discrete_hessian(prob, nodes, grid), grid, 2)
        assert np.max(np.abs(hessian - central)) <= 1e-6 * np.max(np.abs(hessian))


class TestMinimize:
    def test_reaches_the_zero_action_minimizer(self, problem, traj_el_dbr):
        grid = GridSpec.from_step(problem, 0.25)
        result = minimize(problem, grid)
        assert result.converged
        assert result.message == "converged"
        assert result.action == pytest.approx(0.0, abs=1e-12)
        assert result.grad_norm <= 1e-9
        expected = nodes_from(traj_el_dbr, problem, grid)
        assert np.max(np.abs(result.nodes - expected)) <= 1e-7

    def test_matches_a_normal_equations_oracle(self, problem):
        # The action is quadratic in the free nodes, so one Newton solve
        # built from gradient differences gives the exact minimizer.
        grid = GridSpec.from_step(problem, 0.25)
        free = free_rows(grid)
        x0_nodes = minimize(problem, grid, max_iter=0).nodes  # initial guess
        g0 = discrete_gradient(problem, x0_nodes, grid)[free].ravel()
        n_free = g0.size
        hessian = np.zeros((n_free, n_free))
        for j in range(n_free):
            probe = x0_nodes.copy()
            probe[free] += np.eye(n_free)[j].reshape(-1, 1)
            hessian[:, j] = (
                discrete_gradient(problem, probe, grid)[free].ravel() - g0
            )
        exact = x0_nodes[free].ravel() - np.linalg.solve(hessian, g0)
        result = minimize(problem, grid)
        assert result.nodes[free].ravel() == pytest.approx(exact, abs=1e-7)

    def test_already_optimal_start(self, problem, traj_el_dbr):
        grid = GridSpec.from_step(problem, 0.25)
        init = nodes_from(traj_el_dbr, problem, grid)
        result = minimize(problem, grid, init=init)
        assert result.converged
        assert result.iterations == 0
        assert result.message == "gradient already below tolerance"

    def test_iteration_limit(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        result = minimize(problem, grid, max_iter=0)
        assert not result.converged
        assert result.iterations == 0
        assert result.message == "iteration limit reached"

    def test_result_trajectory_is_admissible(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        result = minimize(problem, grid)
        problem.check_trajectory(result.trajectory)
        assert result.trajectory.domain == (-1.0, 3.0)
        assert result.trajectory.eval_derivative(3.0, 0) == pytest.approx([1.0])
        assert result.trajectory.eval_derivative(-0.5, 0) == pytest.approx([0.5])

    def test_init_only_sets_free_rows(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        init = np.full((grid.num_nodes, 1), 9.0)
        result = minimize(problem, grid, init=init, max_iter=0)
        # Prehistory and terminal rows come from the problem data.
        assert result.nodes[0, 0] == pytest.approx(1.0)  # delta(-1) = 1
        assert result.nodes[4, 0] == pytest.approx(0.0)  # delta(0) = 0
        assert result.nodes[-1, 0] == pytest.approx(1.0)  # terminal
        assert result.nodes[5, 0] == 9.0

    def test_order_one_only(self):
        prob, _ = helpers.cubic_order2()
        with pytest.raises(SolverError, match="order 1"):
            minimize(prob, GridSpec(0.25, 2, 8))

    def test_negative_iteration_limit_is_rejected(self, problem):
        grid = GridSpec.from_step(problem, 0.25)
        with pytest.raises(SolverError, match="max_iter"):
            minimize(problem, grid, max_iter=-3)

    def test_grid_past_the_dense_hessian_limit_is_rejected(self, problem):
        grid = GridSpec.from_step(problem, 0.0005)  # 8001 nodes on [-1, 3]
        assert grid.num_nodes * problem.dim > MAX_NEWTON_UNKNOWNS
        with pytest.raises(SolverError, match="8001 node coordinates"):
            minimize(problem, grid)
        edge = GridSpec.from_step(problem, 0.001)  # 4001 nodes: still allowed
        assert edge.num_nodes * problem.dim <= MAX_NEWTON_UNKNOWNS

    @pytest.mark.parametrize("h", [0.25, 0.05, 0.01, 0.0025])
    def test_quadratic_action_takes_at_most_two_steps(self, problem, traj_el_dbr, h):
        # Conjugate gradients took 13, 104, 626 and 2,590 iterations here.
        grid = GridSpec.from_step(problem, h)
        result = minimize(problem, grid)
        assert result.converged
        assert result.iterations <= 2
        sawtooth = nodes_from(traj_el_dbr, problem, grid)
        assert np.max(np.abs(result.nodes - sawtooth)) <= 1e-10

    def test_history_records_every_iteration(self, problem):
        grid = GridSpec.from_step(problem, 0.05)
        result = minimize(problem, grid)
        assert len(result.history) == result.iterations == 1
        (step,) = result.history
        assert (step.action, step.grad_norm) == (result.action, result.grad_norm)
        assert (step.alpha, step.backtracks, step.shift) == (1.0, 0, 0.0)
        # The action is quadratic with minimum 0, so it starts at lambda^2 / 2.
        start = discrete_action(problem, _initial_nodes(problem, grid), grid)
        assert step.decrement**2 / 2 == pytest.approx(start, rel=1e-12)

    def test_levenberg_shift_on_an_indefinite_hessian(self):
        prob = section3_problem("(q0_d1^2 - 1)^2 + q0_d1_tau^2")
        grid = GridSpec.from_step(prob, 0.25)
        start = _initial_nodes(prob, grid)
        hessian = free_block(discrete_hessian(prob, start, grid), grid)
        assert np.linalg.eigvalsh(hessian)[0] == pytest.approx(-37.8444, abs=1e-4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hessian)
        result = minimize(prob, grid)
        assert result.converged and result.grad_norm <= 1e-9
        actions = [discrete_action(prob, start, grid)]
        actions += [step.action for step in result.history]
        assert all(later <= earlier for earlier, later in zip(actions, actions[1:]))
        assert result.history[0].shift > 0.0
        assert result.history[-1].shift == 0.0

    def test_non_finite_hessian_is_an_error(self):
        # 2e308 overflows: no shift could make the factorization succeed.
        prob = section3_problem("1e308 * q0_d1^2 + q0_d1_tau^2")
        with np.errstate(all="ignore"), pytest.raises(SolverError, match="not finite"):
            minimize(prob, GridSpec.from_step(prob, 0.25))

    def test_convex_non_quadratic_lagrangian(self, traj_el_dbr):
        # cosh(q' + q'_tau) >= 1 with equality on the sawtooth: action 3.
        prob = section3_problem("cosh(q0_d1 + q0_d1_tau)")
        grid = GridSpec.from_step(prob, 0.25)
        result = minimize(prob, grid)
        assert result.converged
        assert result.iterations == 3
        assert all(step.shift == 0.0 for step in result.history)
        assert result.action == pytest.approx(3.0, abs=1e-12)
        sawtooth = nodes_from(traj_el_dbr, prob, grid)
        assert np.max(np.abs(result.nodes - sawtooth)) <= 1e-10


class TestFirstVariation:
    def test_vanishes_at_the_discrete_minimizer(self, problem, traj_el_dbr):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_dbr, problem, grid)
        rng = np.random.default_rng(12)
        for _ in range(10):
            direction = np.zeros_like(nodes)
            direction[free_rows(grid)] = rng.uniform(
                -1.0, 1.0, (np.sum(free_rows(grid)), 1)
            )
            fv = discrete_first_variation(problem, nodes, grid, direction)
            assert abs(fv) <= 1e-9

    def test_detects_the_kinked_extremal_defect(self, problem, traj_el_only):
        # A bump at the t = 2 kink probes the jump of the momentum-like
        # quantity there; the directional derivative equals that jump.
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_only, problem, grid)
        direction = np.zeros_like(nodes)
        index = int(np.argmin(np.abs(grid.node_times(problem) - 2.0)))
        direction[index, 0] = 1.0
        fv = discrete_first_variation(problem, nodes, grid, direction)
        assert fv == pytest.approx(4.0, abs=1e-9)

    def test_agrees_with_the_gradient(self, problem, traj_el_only):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_only, problem, grid)
        rng = np.random.default_rng(4)
        direction = np.zeros_like(nodes)
        direction[free_rows(grid)] = rng.uniform(
            -1.0, 1.0, (np.sum(free_rows(grid)), 1)
        )
        fv = discrete_first_variation(problem, nodes, grid, direction)
        grad = discrete_gradient(problem, nodes, grid)
        assert fv == pytest.approx(float(np.vdot(grad, direction)), abs=1e-8)

    def test_direction_must_vanish_on_pinned_rows(self, problem, traj_el_only):
        grid = GridSpec.from_step(problem, 0.25)
        nodes = nodes_from(traj_el_only, problem, grid)
        direction = np.zeros_like(nodes)
        direction[0, 0] = 1.0
        with pytest.raises(SolverError, match="must vanish"):
            discrete_first_variation(problem, nodes, grid, direction)
