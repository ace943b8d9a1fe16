import numpy as np
import pytest

import helpers
from delay_noether import (
    PiecewiseTrajectory,
    Problem,
    Samples,
    SymmetryCandidate,
    SymmetryError,
    VocabularyError,
    check_conservation,
    check_invariance,
    invariance_residual,
    noether_charge,
    rho,
    to_source,
)
from delay_noether.noether import eta_value, xi_value


def parabola_trajectory():
    """q(t) = t^2 on [0, 2], twice differentiable."""
    return PiecewiseTrajectory([0.0, 2.0], [[[0.0, 0.0, 1.0]]], order=2)


def linear_lagrangian_problem():
    return Problem.from_sources(
        order=1,
        dim=1,
        t1=0.0,
        t2=3.0,
        tau=1.0,
        lagrangian="q0_d0",
        prehistory=["-t"],
        terminal_position=[1.0],
    )


class TestSymmetryCandidate:
    def test_from_sources_and_aliases(self):
        sym = SymmetryCandidate.from_sources(1, 1, "t", ["q0"], "q0_d1_tau")
        assert to_source(sym.xi[0]) == "q0_d0"  # alias rewritten
        traj = parabola_trajectory()
        assert eta_value(sym, traj, 1.5) == 1.5
        assert xi_value(sym, traj, 1.5) == pytest.approx([2.25])

    def test_xi_count_must_match_dim(self):
        with pytest.raises(SymmetryError, match="xi needs 2"):
            SymmetryCandidate.from_sources(2, 1, "1", ["0"])

    def test_eta_and_xi_are_point_functions(self):
        with pytest.raises(VocabularyError, match="eta"):
            SymmetryCandidate.from_sources(1, 1, "q0_d1", ["0"])
        with pytest.raises(VocabularyError, match="xi component 0"):
            SymmetryCandidate.from_sources(1, 1, "0", ["q0_d0_tau"])

    def test_gauge_may_use_the_full_vocabulary(self):
        SymmetryCandidate.from_sources(1, 1, "0", ["0"], "q0_d1 * q0_d0_tau")
        with pytest.raises(VocabularyError, match="gauge"):
            SymmetryCandidate.from_sources(1, 1, "0", ["0"], "q0_d2")

    def test_check_against_rejects_mismatched_problems(self, problem):
        sym = SymmetryCandidate.from_sources(1, 2, "1", ["0"])
        with pytest.raises(SymmetryError, match="dim 1 order 2"):
            sym.check_against(problem)


class TestRho:
    def test_rho_zero_is_xi(self):
        sym = SymmetryCandidate.from_sources(1, 2, "t", ["q0"])
        traj = parabola_trajectory()
        assert rho(sym, traj, 0, 1.2) == pytest.approx([1.44])

    def test_rho_one_cancels_for_matched_shifts(self):
        # eta = t, xi = q along q = t^2: d(q)/dt - q' * d(eta)/dt = 0.
        sym = SymmetryCandidate.from_sources(1, 2, "t", ["q0"])
        traj = parabola_trajectory()
        for t in (0.5, 1.0, 1.5):
            assert rho(sym, traj, 1, t) == pytest.approx([0.0], abs=1e-12)

    def test_rho_one_closed_form(self):
        # xi = t q = t^3 along q = t^2: rho^1 = 3 t^2 - 2 t.
        sym = SymmetryCandidate.from_sources(1, 2, "t", ["t * q0"])
        traj = parabola_trajectory()
        for t in (0.5, 1.0, 1.5):
            assert rho(sym, traj, 1, t) == pytest.approx([3 * t * t - 2 * t], abs=1e-12)

    def test_rho_two_closed_form(self):
        # rho^2 = d(rho^1)/dt - q'' * d(eta)/dt = 0 - 2 for eta = t, xi = q.
        sym = SymmetryCandidate.from_sources(1, 2, "t", ["q0"])
        traj = parabola_trajectory()
        assert rho(sym, traj, 2, 1.0) == pytest.approx([-2.0], abs=1e-12)

    def test_index_validation(self):
        sym = SymmetryCandidate.from_sources(1, 2, "t", ["q0"])
        traj = parabola_trajectory()
        with pytest.raises(SymmetryError, match="rho index 3"):
            rho(sym, traj, 3, 1.0)


class TestInvariance:
    def test_time_shift_invariance_of_the_bundled_problem(
        self, problem, symmetry, traj_el_only, traj_el_dbr
    ):
        # L depends only on velocities, so shifting time changes nothing.
        for traj in (traj_el_only, traj_el_dbr):
            for t in (0.25, 1.4, 2.7):
                assert invariance_residual(problem, traj, symmetry, t) == (
                    pytest.approx(0.0, abs=1e-12)
                )

    def test_invariance_holds_on_arbitrary_trajectories(self, problem, symmetry):
        rng = np.random.default_rng(11)
        from delay_noether import sample_times

        for _ in range(5):
            traj = helpers.random_lipschitz_trajectory(rng, -1.0, 3.0)
            for t in sample_times(problem, traj, points=30)[0]:
                assert abs(invariance_residual(problem, traj, symmetry, t)) <= 1e-8

    def test_non_invariant_candidate_is_detected(self, problem, traj_el_only):
        # eta = t rescales time; the defect is L + block(1) . (-q') which is
        # -4 on (0, 1) for the kinked extremal, 0 elsewhere.
        sym = SymmetryCandidate.from_sources(1, 1, "t", ["0"])
        assert invariance_residual(problem, traj_el_only, sym, 0.5) == (
            pytest.approx(-4.0, abs=1e-8)
        )
        assert invariance_residual(problem, traj_el_only, sym, 1.5) == (
            pytest.approx(0.0, abs=1e-8)
        )
        report = check_invariance(Samples(problem, traj_el_only), sym)
        assert report.quantity == "invariance"
        assert not report.verdict
        assert report.max_abs == pytest.approx(4.0, abs=1e-7)

    def test_gauge_term_enters_with_the_right_sign(self, traj_el_only):
        # L = q: a pure state shift xi = 1 changes L at rate 1, which the
        # gauge Phi = t absorbs exactly.
        prob = linear_lagrangian_problem()
        gauged = SymmetryCandidate.from_sources(1, 1, "0", ["1"], "t")
        ungauged = SymmetryCandidate.from_sources(1, 1, "0", ["1"], "0")
        for t in (0.5, 1.5, 2.5):
            assert invariance_residual(prob, traj_el_only, gauged, t) == (
                pytest.approx(0.0, abs=1e-9)
            )
            assert invariance_residual(prob, traj_el_only, ungauged, t) == (
                pytest.approx(1.0, abs=1e-9)
            )

    def test_gauge_derivative_reaches_one_order_above_the_problem(self):
        # Phi = q q' along q = (t + 1)^2: D_t Phi = q'^2 + q q'' = 13.5 at
        # t = 0.5, which needs q'' on an order-1 problem.
        prob = linear_lagrangian_problem()
        traj = PiecewiseTrajectory([-1.0, 3.0], [[[0.0, 0.0, 1.0]]], order=1)
        gauged = SymmetryCandidate.from_sources(1, 1, "0", ["0"], "q0_d0 * q0_d1")
        assert invariance_residual(prob, traj, gauged, 0.5) == pytest.approx(
            -13.5, abs=1e-12
        )

    def test_check_invariance_passes_for_the_bundled_symmetry(
        self, problem, symmetry, traj_el_only
    ):
        report = check_invariance(Samples(problem, traj_el_only), symmetry)
        assert report.verdict
        assert report.max_abs <= 1e-12


class TestNoetherCharge:
    def test_charge_golden_values_on_the_kinked_extremal(
        self, problem, symmetry, traj_el_only
    ):
        # C = L - psi^1 q' for the pure time shift.
        assert noether_charge(problem, traj_el_only, symmetry, 0.5) == (
            pytest.approx(-4.0, abs=1e-12)
        )
        assert noether_charge(problem, traj_el_only, symmetry, 1.5) == (
            pytest.approx(0.0, abs=1e-12)
        )
        assert noether_charge(problem, traj_el_only, symmetry, 2.5) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_conservation_fails_on_the_kinked_extremal(
        self, problem, symmetry, traj_el_only
    ):
        report = check_conservation(Samples(problem, traj_el_only), symmetry)
        assert not report.verdict
        assert report.quantity == "noether"
        constants = {seg.interval: seg.constant for seg in report.segments}
        assert constants[(0.0, 1.0)] == pytest.approx([-4.0], abs=1e-9)
        assert constants[(1.0, 2.0)] == pytest.approx([0.0], abs=1e-9)
        assert constants[(2.0, 3.0)] == pytest.approx([0.0], abs=1e-9)
        # The charge is continuous across the junction here; the failure is
        # the jump inside region 1.
        assert report.junction_gap <= 1e-9

    def test_conservation_holds_on_the_fully_extremal_variant(
        self, problem, symmetry, traj_el_dbr
    ):
        report = check_conservation(Samples(problem, traj_el_dbr), symmetry)
        assert report.verdict
        for fit in report.regions:
            assert fit.constant == pytest.approx([0.0], abs=1e-9)
        assert report.junction_gap <= 1e-9

    def test_junction_gap_is_reported_but_not_judged(self, problem, traj_el_only):
        # A pure state shift conserves psi^1 on each region separately, but
        # psi^1 jumps from 4 to 0 across the junction.
        shift = SymmetryCandidate.from_sources(1, 1, "0", ["1"])
        report = check_conservation(Samples(problem, traj_el_only), shift)
        assert report.verdict
        by_region = {fit.region: fit for fit in report.regions}
        assert by_region[1].constant == pytest.approx([4.0], abs=1e-9)
        assert by_region[2].constant == pytest.approx([0.0], abs=1e-9)
        assert report.junction_gap == pytest.approx(4.0, abs=1e-9)

    def test_quintic_charge_is_conserved_at_the_defaults(self):
        # Finite-difference noise once broke this verdict on the exact
        # order-3 extremal.
        prob, traj = helpers.quintic_order3()
        sym = SymmetryCandidate.from_sources(1, 3, "1", ["0"])
        report = check_conservation(Samples(prob, traj), sym)
        assert report.verdict
        for fit in report.regions:
            assert fit.constant == pytest.approx([0.0], abs=1e-9)
        assert report.junction_gap <= 1e-9

    def test_oscillator_energy(self):
        prob, traj = helpers.oscillator()
        sym = SymmetryCandidate.from_sources(1, 1, "1", ["0"])
        report = check_conservation(Samples(prob, traj, points=40), sym)
        assert report.verdict
        for fit in report.regions:
            assert fit.constant == pytest.approx([-1.0], abs=1e-6)

    def test_batched_charge_matches_a_scalar_oracle_bit_for_bit(self):
        # Three coordinates, so the momentum products are genuine dot
        # products; coupled delayed terms, a rotation-like xi and an
        # explicit gauge.
        prob = Problem.from_sources(
            order=1,
            dim=3,
            t1=0.0,
            t2=3.0,
            tau=1.0,
            lagrangian=" + ".join(
                f"(q{i}_d1 + 0.3 * q{(i + 1) % 3}_d1_tau)^2"
                f" + 0.7 * q{i} * q{(i + 1) % 3}_d0_tau + sin(q{i}_d1) * q{i}_d1_tau"
                for i in range(3)
            ),
            prehistory=["1", "1", "1"],
            terminal_position=[0.0, 0.0, 0.0],
        )
        sym = SymmetryCandidate.from_sources(
            3, 1, "1", [f"q{(i + 1) % 3} - 2 * q{i}" for i in range(3)], "t * q0"
        )
        rng = np.random.default_rng(4)
        traj = helpers.random_lipschitz_trajectory(rng, -1.0, 3.0, dim=3)
        ts = np.concatenate([rng.uniform(0.0, 3.0, 40), [prob.junction]])
        for side in ("left", "right"):
            batch = noether_charge(prob, traj, sym, ts, side)
            for t, value in zip(ts, batch):
                assert value == helpers.scalar_charge(prob, traj, sym, t, side)

    def test_gauge_shifts_the_charge(self, problem, traj_el_only):
        plain = SymmetryCandidate.from_sources(1, 1, "1", ["0"], "0")
        gauged = SymmetryCandidate.from_sources(1, 1, "1", ["0"], "q0_d0")
        t = 1.5
        q = traj_el_only.eval_derivative(t, 0)[0]
        assert noether_charge(problem, traj_el_only, gauged, t) == pytest.approx(
            noether_charge(problem, traj_el_only, plain, t) - q, abs=1e-12
        )
