import json

import numpy as np
import pytest

import helpers
from delay_noether import (
    PiecewiseTrajectory,
    TrajectoryError,
    delayed_args,
    effective_breakpoints,
)
from delay_noether.trajectory import subsegments


def quadratic_on_two_pieces():
    # q(t) = t^2 written on [0, 1] and [1, 2] in local coordinates.
    return PiecewiseTrajectory(
        [0.0, 1.0, 2.0],
        [[[0.0, 0.0, 1.0]], [[1.0, 2.0, 1.0]]],
        order=2,
    )


class TestConstruction:
    def test_basic_attributes(self, traj_el_only):
        assert traj_el_only.dim == 1
        assert traj_el_only.order == 1
        assert traj_el_only.domain == (-1.0, 3.0)
        assert traj_el_only.coefficients.shape == (3, 1, 2)

    @pytest.mark.parametrize(
        "breakpoints, message",
        [
            ([0.0], "two breakpoints"),
            ([0.0, 0.0, 1.0], "increasing"),
            ([0.0, float("nan")], "finite"),
        ],
    )
    def test_bad_breakpoints(self, breakpoints, message):
        coeffs = [[[0.0]] for _ in range(max(len(breakpoints) - 1, 1))]
        with pytest.raises(TrajectoryError, match=message):
            PiecewiseTrajectory(breakpoints, coeffs, order=1)

    def test_block_count_must_match(self):
        with pytest.raises(TrajectoryError, match="coefficient blocks"):
            PiecewiseTrajectory([0.0, 1.0, 2.0], [[[0.0]]], order=1)

    def test_dim_must_be_consistent(self):
        with pytest.raises(TrajectoryError, match="same nonzero dim"):
            PiecewiseTrajectory(
                [0.0, 1.0, 2.0], [[[0.0]], [[0.0], [0.0]]], order=1
            )

    def test_coefficients_must_be_finite(self):
        with pytest.raises(TrajectoryError, match="finite"):
            PiecewiseTrajectory([0.0, 1.0], [[[0.0, float("inf")]]], order=1)

    def test_continuity_enforced_up_to_order_minus_one(self):
        # q jumps from 0 to 1 at the interior breakpoint.
        with pytest.raises(TrajectoryError, match="derivative 0 jumps"):
            PiecewiseTrajectory([0.0, 1.0, 2.0], [[[0.0]], [[1.0]]], order=1)
        # Derivative kinks are fine for order 1 ...
        PiecewiseTrajectory([0.0, 1.0, 2.0], [[[0.0, 1.0]], [[1.0, -1.0]]], order=1)
        # ... but not for order 2.
        with pytest.raises(TrajectoryError, match="derivative 1 jumps"):
            PiecewiseTrajectory(
                [0.0, 1.0, 2.0], [[[0.0, 1.0]], [[1.0, -1.0]]], order=2
            )

    def test_continuity_tol_override_accepts_a_small_jump(self):
        coeffs = [[[0.0, 1.0]], [[1.0 + 1e-6, 1.0]]]
        with pytest.raises(TrajectoryError):
            PiecewiseTrajectory([0.0, 1.0, 2.0], coeffs, order=1)
        loose = PiecewiseTrajectory(
            [0.0, 1.0, 2.0], coeffs, order=1, continuity_tol=1e-5
        )
        assert loose.continuity_tol == 1e-5

    def test_degree_cap(self):
        septic = [[[0.0] * 7 + [1.0]]]
        with pytest.raises(TrajectoryError, match="degree 7 exceeds cap 5"):
            PiecewiseTrajectory([0.0, 1.0], septic, order=1)
        raised = PiecewiseTrajectory([0.0, 1.0], septic, order=1, degree_cap=9)
        assert raised.eval_derivative(1.0, 0) == pytest.approx([1.0])

    def test_order_must_be_positive(self):
        with pytest.raises(TrajectoryError, match="order"):
            PiecewiseTrajectory([0.0, 1.0], [[[0.0]]], order=0)


class TestEvaluation:
    def test_values_on_the_kinked_example(self, traj_el_only):
        # -t on [-1, 0], t on [0, 2], 4 - t on [2, 3]
        assert traj_el_only.eval_derivative(-0.5, 0) == pytest.approx([0.5])
        assert traj_el_only.eval_derivative(0.5, 0) == pytest.approx([0.5])
        assert traj_el_only.eval_derivative(2.5, 0) == pytest.approx([1.5])
        assert traj_el_only.eval_derivative(3.0, 0) == pytest.approx([1.0])

    def test_one_sided_limits_at_a_kink(self, traj_el_only):
        assert traj_el_only.eval_derivative(2.0, 1, side="left") == pytest.approx([1.0])
        assert traj_el_only.eval_derivative(2.0, 1, side="right") == pytest.approx(
            [-1.0]
        )
        # The position itself is continuous, so both limits agree.
        assert traj_el_only.eval_derivative(2.0, 0, side="left") == pytest.approx([2.0])
        assert traj_el_only.eval_derivative(2.0, 0, side="right") == pytest.approx(
            [2.0]
        )

    def test_one_side_per_time(self, traj_el_only):
        ts = [-1.0, 0.0, 2.0, 2.0, 2.0 + 1e-13, 3.0]
        sides = ["left", "right", "left", "right", "left", "right"]
        rows = [traj_el_only.eval([t], 1, side)[0] for t, side in zip(ts, sides)]
        assert np.array_equal(traj_el_only.eval(ts, 1, sides), rows)
        with pytest.raises(TrajectoryError, match="got 'middle'"):
            traj_el_only.eval(ts, 1, [*sides[:-1], "middle"])

    def test_domain_endpoints_fall_back_to_the_inner_limit(self, traj_el_only):
        assert traj_el_only.eval_derivative(-1.0, 1, side="left") == pytest.approx(
            [-1.0]
        )
        assert traj_el_only.eval_derivative(3.0, 1, side="right") == pytest.approx(
            [-1.0]
        )

    def test_times_snap_to_nearby_breakpoints(self, traj_el_only):
        eps = 1e-13
        assert traj_el_only.eval_derivative(2.0 + eps, 1, side="left") == pytest.approx(
            [1.0]
        )
        assert traj_el_only.eval_derivative(2.0 - eps, 1, side="right") == (
            pytest.approx([-1.0])
        )

    def test_out_of_domain(self, traj_el_only):
        with pytest.raises(TrajectoryError, match="outside domain"):
            traj_el_only.eval_derivative(3.5, 0)
        with pytest.raises(TrajectoryError, match="outside domain"):
            traj_el_only.eval_derivative(-1.5, 0)

    def test_derivatives_above_the_class_are_one_sided_zeros(self, traj_el_only):
        # The piecewise-linear curve has a kink at t = 2: its second
        # derivative is 0 on either side there and inside every segment.
        for side in ("left", "right"):
            assert traj_el_only.eval_derivative(2.0, 2, side) == pytest.approx([0.0])
        assert traj_el_only.eval_derivative(0.5, 2) == pytest.approx([0.0])
        assert traj_el_only.eval_derivative(0.5, 5) == pytest.approx([0.0])
        with pytest.raises(TrajectoryError, match="derivative order -1"):
            traj_el_only.eval_derivative(0.5, -1)

    def test_higher_derivatives_of_a_quadratic(self):
        traj = quadratic_on_two_pieces()
        for t in (0.25, 1.0, 1.75):
            assert traj.eval_derivative(t, 0) == pytest.approx([t * t])
            assert traj.eval_derivative(t, 1) == pytest.approx([2 * t])
            assert traj.eval_derivative(t, 2) == pytest.approx([2.0])

    def test_second_derivative_beyond_stored_degree_is_zero(self):
        line = PiecewiseTrajectory([0.0, 1.0], [[[0.0, 1.0]]], order=2)
        assert line.eval_derivative(0.5, 2) == pytest.approx([0.0])

    def test_random_piecewise_linear_matches_interpolation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            traj = helpers.random_lipschitz_trajectory(rng, -1.0, 3.0, dim=2)
            bp = traj.breakpoints
            for _ in range(20):
                t = float(rng.uniform(-1.0, 3.0))
                j = np.searchsorted(bp, t) - 1
                j = min(max(j, 0), len(bp) - 2)
                lam = (t - bp[j]) / (bp[j + 1] - bp[j])
                left = traj.coefficients[j, :, 0]
                right = left + traj.coefficients[j, :, 1] * (bp[j + 1] - bp[j])
                expected = (1 - lam) * left + lam * right
                assert traj.eval_derivative(t, 0) == pytest.approx(expected)


class TestBatchedEvaluation:
    @staticmethod
    def probe_times(traj):
        bp, snap = traj.breakpoints, traj.snap
        rng = np.random.default_rng(bp.size)
        inner = bp[1:-1]
        return np.concatenate(
            [
                rng.uniform(bp[0], bp[-1], 40),
                bp,
                inner + 0.5 * snap,
                inner - 0.5 * snap,
                [bp[0] - 0.5 * snap, bp[-1] + 0.5 * snap],
            ]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_point_evaluation_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        traj = helpers.random_piecewise(rng, dim=1 + seed % 3)
        ts = self.probe_times(traj)
        degree = traj.coefficients.shape[2] - 1
        for side in ("left", "right"):
            for k in range(degree + 2):
                batch = traj.eval(ts, k, side)
                assert batch.shape == (ts.size, traj.dim)
                for t, row in zip(ts, batch):
                    assert np.array_equal(row, traj.eval_derivative(t, k, side))
                    assert np.array_equal(row, helpers.scalar_eval(traj, t, k, side))

    def test_errors(self, traj_el_only):
        with pytest.raises(TrajectoryError, match=r"t=3\.5 outside domain"):
            traj_el_only.eval([0.5, 3.5, -2.0], 0)
        with pytest.raises(TrajectoryError, match="outside domain"):
            traj_el_only.eval([float("nan")], 0)
        with pytest.raises(TrajectoryError, match="derivative order -1 is negative"):
            traj_el_only.eval([0.5], -1)
        with pytest.raises(TrajectoryError, match="side"):
            traj_el_only.eval([0.5], 0, "middle")

    def test_continuity_error_names_the_first_jump(self):
        # Jumps at both interior breakpoints, in the slope at 1 and the
        # value at 2: the breakpoint at 1 comes first.
        with pytest.raises(TrajectoryError, match="derivative 1 jumps by 2.000e"):
            PiecewiseTrajectory(
                [0.0, 1.0, 2.0, 3.0],
                [[[0.0, 1.0]], [[1.0, -1.0]], [[5.0, 0.0]]],
                order=2,
            )


class TestFromNodes:
    def test_linear_interpolant(self):
        traj = PiecewiseTrajectory.from_nodes([0.0, 1.0, 3.0], [2.0, 4.0, 0.0])
        assert traj.eval_derivative(0.5, 0) == pytest.approx([3.0])
        assert traj.eval_derivative(2.0, 0) == pytest.approx([2.0])
        assert traj.eval_derivative(2.0, 1) == pytest.approx([-2.0])

    def test_vector_values(self):
        traj = PiecewiseTrajectory.from_nodes(
            [0.0, 2.0], [[1.0, 0.0], [3.0, -4.0]]
        )
        assert traj.dim == 2
        assert traj.eval_derivative(1.0, 0) == pytest.approx([2.0, -2.0])
        assert traj.eval_derivative(1.0, 1) == pytest.approx([1.0, -2.0])

    def test_length_mismatch(self):
        with pytest.raises(TrajectoryError, match="matching length"):
            PiecewiseTrajectory.from_nodes([0.0, 1.0, 2.0], [1.0, 2.0])


class TestJson:
    def test_round_trip(self, traj_el_dbr):
        doc = traj_el_dbr.to_json_dict()
        json.dumps(doc)  # must be plain JSON types
        back = PiecewiseTrajectory.from_json_dict(doc, order=traj_el_dbr.order)
        assert np.array_equal(back.breakpoints, traj_el_dbr.breakpoints)
        assert np.array_equal(back.coefficients, traj_el_dbr.coefficients)

    def test_trailing_zero_coefficients_are_trimmed(self):
        traj = PiecewiseTrajectory([0.0, 1.0], [[[2.0, 0.0, 0.0]]], order=1)
        assert traj.to_json_dict()["segments"] == [[[2.0]]]

    def test_unknown_keys_are_rejected(self):
        doc = {"breakpoints": [0.0, 1.0], "segments": [[[0.0]]], "color": "red"}
        with pytest.raises(TrajectoryError, match="color"):
            PiecewiseTrajectory.from_json_dict(doc, order=1)

    def test_missing_keys_are_rejected(self):
        with pytest.raises(TrajectoryError, match="breakpoints and segments"):
            PiecewiseTrajectory.from_json_dict({"segments": [[[0.0]]]}, order=1)
        with pytest.raises(TrajectoryError, match="must be an object"):
            PiecewiseTrajectory.from_json_dict([0.0, 1.0], order=1)


class TestDelayedArgs:
    def test_golden_values(self, traj_el_only):
        args = delayed_args(traj_el_only, 0.5, 1.0)
        assert args.t == 0.5
        assert args.order == 1
        assert args.dim == 1
        assert args.current == pytest.approx(np.array([[0.5], [1.0]]))
        assert args.delayed == pytest.approx(np.array([[0.5], [-1.0]]))

    def test_bindings_names(self, traj_el_only):
        names = set(delayed_args(traj_el_only, 0.5, 1.0).bindings())
        assert names == {"t", "q0_d0", "q0_d1", "q0_d0_tau", "q0_d1_tau"}

    def test_side_applies_at_both_times(self, traj_el_dbr):
        # t = 2 is a kink and t - tau = 1 is one as well.
        left = delayed_args(traj_el_dbr, 2.0, 1.0, side="left")
        right = delayed_args(traj_el_dbr, 2.0, 1.0, side="right")
        assert left.current[1] == pytest.approx([-1.0])
        assert right.current[1] == pytest.approx([1.0])
        assert left.delayed[1] == pytest.approx([1.0])
        assert right.delayed[1] == pytest.approx([-1.0])

    def test_delayed_time_must_be_inside_the_domain(self, traj_el_only):
        with pytest.raises(TrajectoryError, match="outside domain"):
            delayed_args(traj_el_only, 0.5, 2.0)

    def test_tau_and_order_validation(self, traj_el_only):
        with pytest.raises(TrajectoryError, match="tau"):
            delayed_args(traj_el_only, 0.5, -1.0)
        with pytest.raises(TrajectoryError, match="order 0"):
            delayed_args(traj_el_only, 0.5, 1.0, order=0)

    def test_depth_may_exceed_the_class(self, traj_el_only):
        args = delayed_args(traj_el_only, 0.5, 1.0, order=2)
        assert args.order == 2
        assert args.current == pytest.approx(np.array([[0.5], [1.0], [0.0]]))
        assert "q0_d2_tau" in args.bindings()


class TestEffectiveBreakpoints:
    def test_golden_full_domain(self, traj_el_only):
        pts = effective_breakpoints(traj_el_only, 1.0)
        assert pts == pytest.approx([-1.0, 0.0, 1.0, 2.0, 3.0])

    def test_golden_integration_window(self, traj_el_only):
        pts = effective_breakpoints(traj_el_only, 1.0, window=(0.0, 3.0))
        assert pts == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_irrational_delay_dedupes_nothing_spurious(self):
        traj = PiecewiseTrajectory.from_nodes([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        tau = 1 / 3
        pts = effective_breakpoints(traj, tau, window=(0.0, 2.0))
        expected = sorted({0.0, 1 / 3, 2 / 3, 1.0, 1 + 1 / 3, 1 + 2 / 3, 2.0})
        assert pts == pytest.approx(expected)

    def test_window_must_have_positive_length(self, traj_el_only):
        with pytest.raises(TrajectoryError, match="positive length"):
            effective_breakpoints(traj_el_only, 1.0, window=(1.0, 1.0))


class TestSubsegments:
    def test_interior_points_split_the_interval(self):
        pieces = subsegments([1.0, 2.0], 0.0, 3.0, snap=1e-12)
        assert pieces == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert all(isinstance(edge, float) for piece in pieces for edge in piece)

    def test_points_at_or_outside_the_edges_are_ignored(self):
        assert subsegments([0.0, 3.0, -1.0, 5.0], 0.0, 3.0, snap=1e-12) == [(0.0, 3.0)]

    def test_near_duplicate_points_do_not_create_slivers(self):
        pieces = subsegments([1.0, 1.0 + 1e-15], 0.0, 2.0, snap=1e-12)
        assert len(pieces) == 2
        assert all(b - a > 1e-12 for a, b in pieces)
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 2.0
        assert pieces[0][1] == pytest.approx(1.0) == pieces[1][0]
