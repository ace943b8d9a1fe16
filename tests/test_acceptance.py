"""Acceptance gate: every criterion below runs at its stated tolerance and
contributes one PASS/FAIL line to the terminal summary (see conftest)."""

import numpy as np
import pytest

import helpers
from delay_noether import (
    GridSpec,
    PiecewiseTrajectory,
    Problem,
    Samples,
    SymmetryCandidate,
    action,
    block_term,
    check_conservation,
    check_el_differential,
    dbr_first_integral,
    diff,
    discrete_first_variation,
    el_first_integral,
    evaluate,
    invariance_residual,
    minimize,
    noether_charge,
    parse,
    psi,
    sample_times,
    to_source,
    total_derivative,
)
from delay_noether.solver import _pinned_mask


def region_constants(report):
    return {fit.region: fit.constant for fit in report.regions}


def segment_constants(report):
    return {seg.interval: seg.constant for seg in report.segments}


@helpers.acceptance(
    1,
    "kinked candidate: pointwise and regional integral-form EL hold, "
    "DuBois-Reymond and charge conservation fail with constants -4 / 0",
)
def test_criterion_1_kinked_extremal(problem, traj_el_only, symmetry):
    el = check_el_differential(Samples(problem, traj_el_only))
    assert el.verdict and el.max_abs <= 1e-7

    integral = el_first_integral(Samples(problem, traj_el_only), "regional")
    assert integral.verdict
    constants = region_constants(integral)
    assert constants[1] == pytest.approx([-4.0], abs=1e-9)
    assert constants[2] == pytest.approx([0.0], abs=1e-9)

    dbr = dbr_first_integral(Samples(problem, traj_el_only))
    assert not dbr.verdict
    segments = segment_constants(dbr)
    assert segments[(0.0, 1.0)] == pytest.approx([-4.0], abs=1e-9)
    assert segments[(1.0, 2.0)] == pytest.approx([0.0], abs=1e-9)

    conservation = check_conservation(Samples(problem, traj_el_only), symmetry)
    assert not conservation.verdict
    segments = segment_constants(conservation)
    assert segments[(0.0, 1.0)] == pytest.approx([-4.0], abs=1e-9)
    assert segments[(1.0, 2.0)] == pytest.approx([0.0], abs=1e-9)


@helpers.acceptance(
    2,
    "fully extremal candidate: EL and DuBois-Reymond hold and the time-shift "
    "charge is conserved (constant 0, junction gap below 1e-9)",
)
def test_criterion_2_fully_extremal_candidate(problem, traj_el_dbr, symmetry):
    el = check_el_differential(Samples(problem, traj_el_dbr))
    assert el.verdict and el.max_abs <= 1e-7

    dbr = dbr_first_integral(Samples(problem, traj_el_dbr))
    assert dbr.verdict
    for constant in region_constants(dbr).values():
        assert constant == pytest.approx([0.0], abs=1e-9)

    conservation = check_conservation(Samples(problem, traj_el_dbr), symmetry)
    assert conservation.verdict
    for constant in region_constants(conservation).values():
        assert constant == pytest.approx([0.0], abs=1e-9)
    assert conservation.junction_gap <= 1e-9


@helpers.acceptance(3, "action equals 4 on the kinked and 0 on the fully extremal candidate")
def test_criterion_3_action_values(problem, traj_el_only, traj_el_dbr):
    assert action(problem, traj_el_only).value == pytest.approx(4.0, abs=1e-10)
    assert action(problem, traj_el_dbr).value == pytest.approx(0.0, abs=1e-10)


@helpers.acceptance(
    4,
    "time-shift invariance residual vanishes along 20 random Lipschitz "
    "trajectories at every sample point (|r| <= 1e-8)",
)
def test_criterion_4_invariance_on_arbitrary_trajectories(problem, symmetry):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        traj = helpers.random_lipschitz_trajectory(rng, -1.0, 3.0)
        for t in sample_times(problem, traj)[0]:
            assert abs(invariance_residual(problem, traj, symmetry, t)) <= 1e-8


def smooth_problem(order):
    sources = {
        1: "(q0_d1 + q0_d1_tau)^2 + q0_d0 * q0_d0_tau",
        2: "(q0_d2 + q0_d2_tau)^2 + q0_d1 * q0_d0_tau + q0_d0^2",
        3: "(q0_d3 + q0_d3_tau)^2 + q0_d2 * q0_d1_tau + q0_d0 * q0_d0_tau",
    }
    return Problem.from_sources(
        order,
        1,
        0.0,
        3.0,
        1.0,
        sources[order],
        ["0"],
        [0.0],
        [[0.0]] * (order - 1),
    )


@helpers.acceptance(
    5,
    "general-order momenta: recurrence identity on random smooth "
    "trajectories (orders 1-3), order-1 closed form, order-2 closed form",
)
def test_criterion_5_momenta(problem, symmetry):
    # (a) d/dt psi^j = block(j-1) - psi^(j-1) along arbitrary smooth curves,
    # with d/dt taken by finite differences, independently of the exact psi.
    rng = np.random.default_rng(20240825)
    # Keep coefficient j ~ 4^-j so the curve and its derivatives stay O(1)
    # over the 4-wide domain; the tolerance model assumes that scaling.
    powers = 4.0 ** np.arange(6)
    for order in (1, 2, 3):
        prob = smooth_problem(order)
        for _ in range(2):
            coeffs = [[list(rng.uniform(-1.0, 1.0, 6) / powers)]]
            traj = PiecewiseTrajectory([-1.0, 3.0], coeffs, order=order)
            for t in sample_times(prob, traj, points=4)[0]:
                for j in range(1, order + 1):
                    residual = helpers.psi_identity_residual(prob, traj, j, t)
                    scale = max(
                        1.0,
                        float(np.max(np.abs(psi(prob, traj, j - 1, t)))),
                        float(
                            np.max(
                                np.abs(
                                    block_term(
                                        prob, traj, j - 1, t,
                                        1 if t < prob.junction else 2,
                                    )
                                )
                            )
                        ),
                    )
                    assert float(np.max(np.abs(residual))) <= 1e-5 * scale

    # (b) order 1: the general-order code path agrees with the hand-written
    # first-integral and charge formulas on random Lipschitz trajectories.
    def direct_first_integral(prob, traj, t):
        args = prob.args(traj, t)
        p = prob.partial(3, args)
        if t < prob.junction:
            p = p + prob.partial(5, prob.args(traj, t + prob.tau))
        return prob.lagrangian_value(args) - float(p @ args.current[1])

    rng = np.random.default_rng(7)
    for _ in range(5):
        traj = helpers.random_lipschitz_trajectory(rng, -1.0, 3.0)
        report = dbr_first_integral(Samples(problem, traj, points=40))
        for t, value in zip(report.times, report.values[:, 0]):
            direct = direct_first_integral(problem, traj, float(t))
            assert abs(value - direct) <= 1e-9
            charge = noether_charge(problem, traj, symmetry, float(t))
            assert abs(charge - direct) <= 1e-9

    # (c) order 2: along q = t^3 under L = q''^2/2 the first integral and
    # the time-shift charge vanish identically.
    prob2, traj2 = helpers.cubic_order2()
    report = dbr_first_integral(Samples(prob2, traj2, points=40))
    assert report.verdict
    for constant in region_constants(report).values():
        assert constant == pytest.approx([0.0], abs=1e-12)
    sym2 = SymmetryCandidate.from_sources(1, 2, "1", ["0"])
    conservation = check_conservation(Samples(prob2, traj2, points=40), sym2)
    assert conservation.verdict
    for constant in region_constants(conservation).values():
        assert constant == pytest.approx([0.0], abs=1e-12)


@helpers.acceptance(
    6,
    "direct transcription (h = 0.05) reaches the zero-action minimizer; the "
    "discrete first variation vanishes there and equals the jump 4 when "
    "probing the kink",
)
def test_criterion_6_solver(problem, traj_el_only, traj_el_dbr):
    grid = GridSpec.from_step(problem, 0.05)
    result = minimize(problem, grid, max_iter=10000)
    assert result.converged
    assert result.action <= 1e-6

    times = grid.node_times(problem)
    expected = np.array([traj_el_dbr.eval_derivative(float(t), 0) for t in times])
    assert float(np.max(np.abs(result.nodes - expected))) <= 1e-4

    free = ~_pinned_mask(grid)
    rng = np.random.default_rng(99)
    for _ in range(20):
        direction = np.zeros_like(result.nodes)
        direction[free] = rng.uniform(-1.0, 1.0, (int(np.sum(free)), 1))
        variation = discrete_first_variation(problem, result.nodes, grid, direction)
        assert abs(variation) <= 1e-6

    kinked = np.array([traj_el_only.eval_derivative(float(t), 0) for t in times])
    bump = np.zeros_like(kinked)
    bump[int(np.argmin(np.abs(times - 2.0))), 0] = 1.0
    variation = discrete_first_variation(problem, kinked, grid, bump)
    assert variation == pytest.approx(4.0, abs=1e-6)


@helpers.acceptance(
    7,
    "smooth oscillatory benchmark with a tiny delay: EL holds and both the "
    "first integral and the time-shift charge are constant -1",
)
def test_criterion_7_oscillator():
    prob, traj = helpers.oscillator()
    el = check_el_differential(Samples(prob, traj))
    assert el.verdict and el.max_abs <= 1e-6

    dbr = dbr_first_integral(Samples(prob, traj))
    assert dbr.verdict
    for constant in region_constants(dbr).values():
        assert constant == pytest.approx([-1.0], abs=1e-6)

    sym = SymmetryCandidate.from_sources(1, 1, "1", ["0"])
    conservation = check_conservation(Samples(prob, traj), sym)
    assert conservation.verdict
    for constant in region_constants(conservation).values():
        assert constant == pytest.approx([-1.0], abs=1e-6)


@helpers.acceptance(
    8,
    "symbolic partial and total derivatives of 100 random expressions match "
    "finite differences; printed expressions re-parse to equal values",
)
def test_criterion_8_expression_calculus():
    for tree, var, bindings in helpers.random_diff_pairs(831, 100, total=True):
        derivative = total_derivative(tree) if var == helpers.TOTAL else diff(tree, var)
        symbolic = evaluate(derivative, bindings)
        numeric = helpers.fd_derivative(tree, var, bindings)
        assert abs(symbolic - numeric) <= 1e-6 * max(1.0, abs(symbolic))

        value = evaluate(tree, bindings)
        reparsed = evaluate(parse(to_source(tree)), bindings)
        assert abs(reparsed - value) <= 1e-12 * max(1.0, abs(value))
