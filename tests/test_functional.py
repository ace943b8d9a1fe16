import math

import numpy as np
import pytest

import helpers
from delay_noether import (
    ActionResult,
    FunctionalError,
    PiecewiseTrajectory,
    Problem,
    QuadratureSpec,
    VocabularyError,
    action,
    gauss_nodes,
    integrate,
    parse,
)
from delay_noether.functional import columns
from delay_noether.trajectory import DelayedArgs, delayed_args


def make_args(t, current, delayed):
    return DelayedArgs(t, np.asarray(current, dtype=float), np.asarray(delayed, float))


class TestProblemValidation:
    def base_kwargs(self):
        return dict(
            order=1,
            dim=1,
            t1=0.0,
            t2=3.0,
            tau=1.0,
            lagrangian="(q0_d1 + q0_d1_tau)^2",
            prehistory=["-t"],
            terminal_position=[1.0],
        )

    def test_from_sources_builds_the_bundled_problem(self, problem):
        assert problem.order == 1
        assert problem.dim == 1
        assert problem.junction == 2.0
        assert problem.prehistory_value(-0.25) == pytest.approx([0.25])

    @pytest.mark.parametrize(
        "override, message",
        [
            (dict(order=0), "order"),
            (dict(dim=0), "dim"),
            (dict(t2=0.0), "t1 < t2"),
            (dict(tau=0.0), "0 < tau"),
            (dict(tau=3.5), "0 < tau"),
            (dict(prehistory=["-t", "t"]), "prehistory"),
            (dict(terminal_position=[1.0, 2.0]), "terminal position"),
            (dict(terminal_derivatives=[[1.0]]), "terminal derivatives"),
        ],
    )
    def test_invalid_data(self, override, message):
        kwargs = self.base_kwargs()
        kwargs.update(override)
        with pytest.raises(FunctionalError, match=message):
            Problem.from_sources(**kwargs)

    def test_lagrangian_vocabulary_is_enforced(self):
        kwargs = self.base_kwargs()
        kwargs["lagrangian"] = "q0_d2^2"  # second derivative, but order is 1
        with pytest.raises(VocabularyError, match="q0_d2"):
            Problem.from_sources(**kwargs)

    def test_prehistory_may_only_use_t(self):
        kwargs = self.base_kwargs()
        kwargs["prehistory"] = ["q0_d0 + t"]
        with pytest.raises(VocabularyError, match="prehistory component 0"):
            Problem.from_sources(**kwargs)

    def test_plain_coordinate_alias_is_rewritten(self):
        kwargs = self.base_kwargs()
        kwargs["lagrangian"] = "q0^2 + q0_d1_tau"
        prob = Problem.from_sources(**kwargs)
        assert "q0_d0" in str(prob.lagrangian)

    def test_order_two_needs_one_terminal_derivative_vector(self):
        kwargs = self.base_kwargs()
        kwargs.update(order=2, lagrangian="q0_d2^2", terminal_derivatives=[[1.0]])
        prob = Problem.from_sources(**kwargs)
        assert prob.terminal_derivatives.shape == (1, 1)
        kwargs["terminal_derivatives"] = []
        with pytest.raises(FunctionalError, match="terminal derivatives"):
            Problem.from_sources(**kwargs)


class TestTrajectoryCompatibility:
    def test_bundled_pair_is_accepted(self, problem, traj_el_only, traj_el_dbr):
        problem.check_trajectory(traj_el_only)
        problem.check_trajectory(traj_el_dbr)

    def test_wrong_domain(self, problem):
        traj = PiecewiseTrajectory.from_nodes([0.0, 3.0], [0.0, 1.0])
        with pytest.raises(FunctionalError, match="domain"):
            problem.check_trajectory(traj)

    def test_wrong_dim(self, problem):
        traj = PiecewiseTrajectory.from_nodes(
            [-1.0, 3.0], [[0.0, 0.0], [1.0, 1.0]]
        )
        with pytest.raises(FunctionalError, match="dim"):
            problem.check_trajectory(traj)

    def test_wrong_order(self, problem):
        traj = PiecewiseTrajectory([-1.0, 3.0], [[[1.0, 0.5]]], order=2)
        with pytest.raises(FunctionalError, match="order"):
            problem.check_trajectory(traj)


class TestPartials:
    def test_partial_blocks_on_the_bundled_problem(self, problem, traj_el_only):
        # L = (u1 + v1)^2 depends on nothing else, so blocks 1, 2, 4 vanish.
        args = problem.args(traj_el_only, 1.5)
        assert problem.partial(1, args) == 0.0
        assert problem.partial(2, args) == pytest.approx([0.0])
        assert problem.partial(4, args) == pytest.approx([0.0])
        # At t = 1.5 both slopes are +1, so d/du1 = d/dv1 = 2 * 2 = 4.
        assert problem.partial(3, args) == pytest.approx([4.0])
        assert problem.partial(5, args) == pytest.approx([4.0])

    def test_partials_cancel_where_slopes_are_opposite(self, problem, traj_el_only):
        args = problem.args(traj_el_only, 0.5)
        assert problem.partial(3, args) == pytest.approx([0.0])
        args_shifted = problem.args(traj_el_only, 1.5)
        assert problem.partial(5, args_shifted) == pytest.approx([4.0])

    def test_block_range(self, problem, traj_el_only):
        args = problem.args(traj_el_only, 1.5)
        for block in (0, 6, -1):
            with pytest.raises(FunctionalError, match="block"):
                problem.partial(block, args)

    def test_module_level_partial_delegates(self, problem, traj_el_only):
        # Problem.partial is the single entry point for Lagrangian partials.
        args = problem.args(traj_el_only, 1.5)
        assert problem.partial(3, args) == pytest.approx([4.0])

    def test_symmetric_lagrangian_has_equal_current_and_delayed_blocks(self, problem):
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = rng.uniform(-2.0, 2.0, size=(2, 1))
            v = rng.uniform(-2.0, 2.0, size=(2, 1))
            args = make_args(float(rng.uniform(0.0, 3.0)), u, v)
            left = problem.partial(3, args)
            right = problem.partial(5, args)
            assert left == pytest.approx(right)
            assert left == pytest.approx(2.0 * (u[1] + v[1]))

    def test_vector_problem_partials(self):
        prob = Problem.from_sources(
            order=1,
            dim=2,
            t1=0.0,
            t2=2.0,
            tau=0.5,
            lagrangian="q0_d1 * q1_d0_tau + q1_d1^2",
            prehistory=["t", "1"],
            terminal_position=[0.0, 0.0],
        )
        args = make_args(
            1.0, [[0.3, -0.2], [0.7, 1.5]], [[0.9, 2.0], [-0.4, 0.1]]
        )
        assert prob.partial(2, args) == pytest.approx([0.0, 0.0])
        assert prob.partial(3, args) == pytest.approx([2.0, 3.0])  # [v for q1, 2u]
        assert prob.partial(4, args) == pytest.approx([0.0, 0.7])
        assert prob.partial(5, args) == pytest.approx([0.0, 0.0])

    def test_lagrangian_value(self, problem, traj_el_only):
        assert problem.lagrangian_value(problem.args(traj_el_only, 1.5)) == (
            pytest.approx(4.0)
        )
        assert problem.lagrangian_value(problem.args(traj_el_only, 0.5)) == (
            pytest.approx(0.0)
        )


class TestBindings:
    @staticmethod
    def cases(problem, traj_el_dbr):
        rng = np.random.default_rng(5)
        coupled = Problem.from_sources(
            order=1,
            dim=3,
            t1=0.0,
            t2=2.0,
            tau=0.5,
            lagrangian="q0_d1 * q1_d0_tau + q2_d1^2",
            prehistory=["t", "1", "0"],
            terminal_position=[0.0, 0.0, 0.0],
        )
        lipschitz = helpers.random_lipschitz_trajectory(rng, -0.5, 2.0, dim=3)
        return [
            (problem, traj_el_dbr),
            helpers.cubic_order2(),
            helpers.quintic_order3(),
            (coupled, lipschitz),
        ]

    def test_matches_one_point_arguments(self, problem, traj_el_dbr):
        rng = np.random.default_rng(11)
        for prob, traj in self.cases(problem, traj_el_dbr):
            bp = traj.breakpoints
            ts = np.concatenate(
                [rng.uniform(prob.t1, prob.t2, 25), bp[bp >= prob.t1], [prob.junction]]
            )
            for depth in (prob.order, 2 * prob.order):
                for side in ("left", "right"):
                    batch = prob.bindings(traj, ts, depth, side)
                    for row, t in enumerate(ts):
                        args = delayed_args(traj, t, prob.tau, depth, side)
                        expected = args.bindings()
                        assert batch.keys() == expected.keys()
                        for name, value in expected.items():
                            assert batch[name][row] == value, (name, t, side)

    def test_compiled_partials_on_bindings_match_the_scalar_path(
        self, problem, traj_el_dbr
    ):
        for prob, traj in self.cases(problem, traj_el_dbr):
            ts = np.linspace(prob.t1, prob.t2, 17)
            batch = prob.bindings(traj, ts, prob.order)
            for block, functions in enumerate(prob.compiled_partial_u):
                values = columns(functions, batch)
                for row, t in enumerate(ts):
                    scalar = prob.partial(block + 2, prob.args(traj, t))
                    assert np.array_equal(values[row], scalar)


class TestQuadrature:
    def test_gauss_points_bounds(self):
        QuadratureSpec(1)
        QuadratureSpec(128)
        for bad in (0, 129, -3):
            with pytest.raises(FunctionalError, match="gauss_points"):
                QuadratureSpec(bad)

    def test_action_golden_values(self, problem, traj_el_only, traj_el_dbr):
        assert action(problem, traj_el_only).value == pytest.approx(4.0, abs=1e-10)
        assert action(problem, traj_el_dbr).value == pytest.approx(0.0, abs=1e-10)

    def test_action_matches_a_riemann_oracle(self, problem, traj_el_only):
        n = 3000
        h = (problem.t2 - problem.t1) / n
        total = 0.0
        for j in range(n):
            t = problem.t1 + (j + 0.5) * h
            total += h * problem.lagrangian_value(problem.args(traj_el_only, t))
        assert action(problem, traj_el_only).value == pytest.approx(total, abs=1e-9)

    def test_windows_are_additive(self, problem, traj_el_only):
        full = integrate(problem, traj_el_only, problem.compiled_lagrangian)
        left = integrate(
            problem, traj_el_only, problem.compiled_lagrangian, window=(0.0, 1.3)
        )
        right = integrate(
            problem, traj_el_only, problem.compiled_lagrangian, window=(1.3, 3.0)
        )
        assert left + right == pytest.approx(full, abs=1e-12)
        assert left == pytest.approx(0.3 * 4.0, abs=1e-10)  # only (1, 1.3) contributes

    def test_low_order_rule_is_exact_for_piecewise_quadratic(self, problem, traj_el_only):
        fine = action(problem, traj_el_only, QuadratureSpec(8)).value
        coarse = action(problem, traj_el_only, QuadratureSpec(2)).value
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_window_outside_integration_range(self, problem, traj_el_only):
        with pytest.raises(FunctionalError, match="window"):
            integrate(
                problem,
                traj_el_only,
                problem.compiled_lagrangian,
                window=(-0.5, 3.0),
            )

    def test_empty_window_integrates_to_zero(self, problem, traj_el_only):
        assert (
            integrate(
                problem, traj_el_only, problem.compiled_lagrangian, window=(1.0, 1.0)
            )
            == 0.0
        )

    def test_gauss_nodes_split_panels_at_breakpoints_and_cuts(
        self, problem, traj_el_only
    ):
        quad = QuadratureSpec(4)
        nodes, weights = gauss_nodes(problem, traj_el_only, (0.5, 3.0), quad, (2.5,))
        # Panels [0.5, 1], [1, 2], [2, 2.5], [2.5, 3]: four nodes in each.
        assert nodes.size == weights.size == 16
        assert np.all(np.diff(nodes) > 0)
        edges = (0.5, 1.0, 2.0, 2.5, 3.0)
        for a, b in zip(edges, edges[1:]):
            inside = (nodes > a) & (nodes < b)
            assert np.count_nonzero(inside) == 4
            assert math.fsum(weights[inside]) == pytest.approx(b - a, abs=1e-15)

    def test_integrate_sums_over_the_gauss_nodes(self, problem, traj_el_only):
        nodes, weights = gauss_nodes(
            problem, traj_el_only, (problem.t1, problem.t2), QuadratureSpec()
        )
        expected = math.fsum(
            w * problem.lagrangian_value(problem.args(traj_el_only, t))
            for t, w in zip(nodes, weights)
        )
        assert integrate(problem, traj_el_only, problem.compiled_lagrangian) == expected

    def test_oscillating_integrand_against_closed_form(self):
        # L = sin(q'(t - tau)) with q = t^2 on [0, 2], tau = 1/2:
        # integral of sin(2t - 1) over [1/2, 2] plus prehistory part.
        prob = Problem.from_sources(
            order=1,
            dim=1,
            t1=0.0,
            t2=2.0,
            tau=0.5,
            lagrangian="sin(q0_d1_tau)",
            prehistory=["t^2"],
            terminal_position=[4.0],
        )
        traj = PiecewiseTrajectory(
            [-0.5, 2.0], [[[0.25, -1.0, 1.0]]], order=1
        )  # (t)^2 in local u = t + 1/2
        expected = -0.5 * (math.cos(3.0) - math.cos(-1.0))
        assert action(prob, traj).value == pytest.approx(expected, abs=1e-12)


class TestActionWarnings:
    def test_clean_trajectory_has_no_warnings(self, problem, traj_el_only):
        result = action(problem, traj_el_only)
        assert isinstance(result, ActionResult)
        assert result.warnings == ()

    def test_prehistory_mismatch_warns(self, problem):
        traj = PiecewiseTrajectory.from_nodes(
            [-1.0, 0.0, 2.0, 3.0], [0.9, 0.0, 2.0, 1.0]
        )
        result = action(problem, traj)
        assert any("prehistory" in w for w in result.warnings)

    def test_terminal_mismatch_warns(self, problem):
        traj = PiecewiseTrajectory.from_nodes(
            [-1.0, 0.0, 2.0, 3.0], [1.0, 0.0, 2.0, 1.5]
        )
        result = action(problem, traj)
        assert any("terminal position" in w for w in result.warnings)

    def test_warnings_do_not_change_the_value(self, problem, traj_el_only):
        shifted = PiecewiseTrajectory(
            traj_el_only.breakpoints,
            [[[1.5, -1.0]], [[0.5, 1.0]], [[2.5, -1.0]]],
            order=1,
        )
        result = action(problem, shifted)
        assert result.warnings  # both prehistory and terminal are off by 0.5
        assert result.value == pytest.approx(4.0, abs=1e-10)
