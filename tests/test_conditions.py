import functools
import math

import numpy as np
import pytest

import helpers
from delay_noether import (
    FirstIntegralReport,
    FunctionalError,
    Problem,
    QuadratureSpec,
    ResidualReport,
    Samples,
    block_term,
    check_el_differential,
    dbr_first_integral,
    effective_segment,
    el_first_integral,
    el_residual_differential,
    evaluate,
    gauss_nodes,
    parse,
    psi,
    region_of,
    sample_times,
    total_derivative,
)
from delay_noether import conditions, functional
from delay_noether.conditions import _Arguments, _folded_integral


def modified_problem():
    """Same data as the bundled problem but with a position term added, so
    the trajectory with kinks at 0 and 2 is no longer an extremal."""
    return Problem.from_sources(
        order=1,
        dim=1,
        t1=0.0,
        t2=3.0,
        tau=1.0,
        lagrangian="(q0_d1 + q0_d1_tau)^2 + q0_d0^2",
        prehistory=["-t"],
        terminal_position=[1.0],
    )


def along(expr_source: str, times: int):
    """D_t applied ``times`` times to the parsed expression."""
    node = parse(expr_source)
    for _ in range(times):
        node = total_derivative(node)
    return node


class TestTotalDerivative:
    @pytest.mark.parametrize("order, expected", [(1, 6.0), (2, 30.0), (3, 120.0), (4, 360.0)])
    def test_exact_for_a_sextic(self, order, expected):
        assert evaluate(along("t^6", order), {"t": 1.0}) == expected

    def test_default_step_low_orders(self):
        # The finite-difference oracle of the tests, at its default step.
        def sextic(t):
            return t**6

        first = helpers.richardson_derivative(sextic, 1.0, (0.0, 2.0))
        second = helpers.richardson_derivative(
            lambda s: helpers.richardson_derivative(sextic, s, (0.0, 2.0)),
            1.0,
            (0.0, 2.0),
        )
        assert first == pytest.approx(6.0, abs=1e-9)
        assert second == pytest.approx(30.0, abs=1e-7)

    @pytest.mark.parametrize(
        "order, expected, fd_tol",
        [(1, math.cos(1.0), 1e-10), (2, -math.sin(1.0), 1e-8),
         (3, -math.cos(1.0), 1e-5), (4, math.sin(1.0), 1e-3)],
    )
    def test_sine(self, order, expected, fd_tol):
        # Exact to rounding; nested finite differences only reach fd_tol.
        assert evaluate(along("sin(t)", order), {"t": 1.0}) == pytest.approx(
            expected, abs=1e-15
        )
        nested = math.sin
        for _ in range(order):
            nested = functools.partial(
                helpers.richardson_derivative, nested, interval=(0.0, 2.0)
            )
        assert nested(1.0) == pytest.approx(expected, abs=fd_tol)

    def test_vector_valued(self):
        value = helpers.richardson_derivative(
            lambda t: np.array([t**2, math.sin(t)]), 1.0, (0.0, 2.0)
        )
        assert value == pytest.approx([2.0, math.cos(1.0)], abs=1e-9)

    def test_stencil_must_fit_the_segment(self):
        with pytest.raises(ValueError, match="leaves segment"):
            helpers.richardson_derivative(lambda t: t, 0.001, (0.0, 2.0))
        with pytest.raises(ValueError, match="leaves segment"):
            helpers.richardson_derivative(lambda t: t, 1.999, (0.0, 2.0))
        with pytest.raises(ValueError, match="leaves segment"):
            helpers.richardson_derivative(lambda t: t, 1.0, (0.0, 2.0), step=0.6)


class TestRegions:
    def test_region_of(self, problem):
        assert region_of(problem, 0.5) == 1
        assert region_of(problem, 1.999) == 1
        assert region_of(problem, 2.001) == 2
        assert region_of(problem, 3.0) == 2
        assert region_of(problem, 2.0, side="left") == 1
        assert region_of(problem, 2.0, side="right") == 2
        sides = ["left", "right", "right", "left"]
        assert region_of(problem, [2.0, 2.0, 0.5, 2.5], sides).tolist() == [1, 2, 1, 2]

    def test_effective_segment(self, problem, traj_el_only):
        assert effective_segment(problem, traj_el_only, 0.5) == (0.0, 1.0)
        assert effective_segment(problem, traj_el_only, 1.0, "right") == (1.0, 2.0)
        assert effective_segment(problem, traj_el_only, 1.0, "left") == (0.0, 1.0)
        assert effective_segment(problem, traj_el_only, 3.0) == (2.0, 3.0)
        assert effective_segment(problem, traj_el_only, 0.0, "left") == (0.0, 1.0)

    def test_effective_segment_outside_window(self, problem, traj_el_only):
        with pytest.raises(FunctionalError, match="outside"):
            effective_segment(problem, traj_el_only, -0.5)

    def test_outside_messages_print_plain_floats(self, problem, traj_el_only):
        with pytest.raises(FunctionalError, match=r"^t=-0\.5 outside \[t1, t2\]$"):
            effective_segment(problem, traj_el_only, np.float64(-0.5))
        with pytest.raises(ValueError, match=r"^t=5\.0 outside domain \[-1\.0, 3\.0\]$"):
            traj_el_only.eval([5.0])


class TestPsi:
    def test_block_term_is_a_row_of_block_terms(self, problem, traj_el_only):
        for t, region in ((0.5, 1), (2.5, 2)):
            args = _Arguments(problem, traj_el_only, [t], problem.order, "right", region)
            rows = args.block_terms(range(2))[:, 0]
            assert rows.shape == (2, 1)
            for k in range(2):
                assert np.array_equal(
                    rows[k], block_term(problem, traj_el_only, k, t, region)
                )

    def test_block_term_golden_values(self, problem, traj_el_only):
        # d/du1 is zero in region 1 before the kink, the advanced d/dv1 is 4.
        assert block_term(problem, traj_el_only, 1, 0.5, 1) == pytest.approx([4.0])
        assert block_term(problem, traj_el_only, 1, 1.5, 1) == pytest.approx([4.0])
        assert block_term(problem, traj_el_only, 1, 2.5, 2) == pytest.approx([0.0])
        assert block_term(problem, traj_el_only, 0, 1.5, 1) == pytest.approx([0.0])

    def test_psi_one_golden_values(self, problem, traj_el_only):
        assert psi(problem, traj_el_only, 1, 0.5) == pytest.approx([4.0])
        assert psi(problem, traj_el_only, 1, 1.5) == pytest.approx([4.0])
        assert psi(problem, traj_el_only, 1, 2.5) == pytest.approx([0.0])

    def test_el_residual_vanishes_along_the_extremal(self, problem, traj_el_only):
        for t in (0.3, 0.9, 1.5, 2.4, 2.9):
            assert el_residual_differential(problem, traj_el_only, t) == (
                pytest.approx([0.0], abs=1e-9)
            )

    def test_el_residual_detects_a_non_extremal(self, traj_el_only):
        prob = modified_problem()
        # The extra q^2 term contributes 2 q(t) to the residual and nothing
        # else changes, so at t = 0.5 the residual is 2 * 0.5 = 1.
        assert el_residual_differential(prob, traj_el_only, 0.5) == (
            pytest.approx([1.0], abs=1e-8)
        )

    def test_j_range_validation(self, problem, traj_el_only):
        with pytest.raises(ValueError, match="j must be"):
            psi(problem, traj_el_only, -1, 0.5)
        with pytest.raises(ValueError, match="j must be"):
            psi(problem, traj_el_only, 2, 0.5)

    def test_order_two_psi_closed_forms(self):
        prob, traj = helpers.cubic_order2()
        # L = (q'')^2 / 2 along q = t^3: psi^2 = q'' = 6t, psi^1 = -6.
        for t in (0.3, 0.9, 1.7):
            assert psi(prob, traj, 2, t) == pytest.approx([6.0 * t], abs=1e-12)
            assert psi(prob, traj, 1, t) == pytest.approx([-6.0], abs=1e-12)
            assert psi(prob, traj, 0, t) == pytest.approx([0.0], abs=1e-12)

    def test_order_three_psi_closed_forms(self):
        prob, traj = helpers.quintic_order3()
        # L = (q''')^2 / 2 along q = t^5: psi^3 = 60 t^2, psi^2 = -120 t,
        # psi^1 = 120, and psi^0 = -q^(6) vanishes on the degree-5 curve.
        for t in (0.3, 0.9, 1.7):
            assert psi(prob, traj, 3, t) == pytest.approx([60.0 * t * t], abs=1e-12)
            assert psi(prob, traj, 2, t) == pytest.approx([-120.0 * t], abs=1e-12)
            assert psi(prob, traj, 1, t) == pytest.approx([120.0], abs=1e-12)
            assert psi(prob, traj, 0, t) == pytest.approx([0.0], abs=1e-12)

    def test_psi_identity_on_the_piecewise_extremal(self, problem, traj_el_only):
        for t in (0.4, 1.5, 2.5):
            assert helpers.psi_identity_residual(problem, traj_el_only, 1, t) == (
                pytest.approx([0.0], abs=1e-8)
            )

    def test_psi_identity_holds_off_extremals_too(self, traj_el_only):
        prob = modified_problem()
        for t in (0.4, 1.5, 2.5):
            assert helpers.psi_identity_residual(prob, traj_el_only, 1, t) == (
                pytest.approx([0.0], abs=1e-7)
            )

    def test_psi_identity_j_validation(self, problem, traj_el_only):
        with pytest.raises(ValueError, match="j must be"):
            helpers.psi_identity_residual(problem, traj_el_only, 0, 0.5)


class TestSampleGrid:
    def test_budget_is_respected(self, problem, traj_el_only):
        times, intervals = sample_times(problem, traj_el_only, points=7)
        assert times.shape == (7,) and intervals.shape == (7, 2)
        times, intervals = sample_times(problem, traj_el_only)
        assert times.shape == (200,) and intervals.shape == (200, 2)

    def test_margins_keep_clear_of_effective_breakpoints(self, problem, traj_el_only):
        cuts = [0.0, 1.0, 2.0, 3.0]
        for t, (a, b) in zip(*sample_times(problem, traj_el_only)):
            assert min(abs(t - c) for c in cuts) >= 0.05 - 1e-12
            assert a + 0.05 - 1e-12 <= t <= b - 0.05 + 1e-12

    def test_sliver_segments_get_interior_samples(self):
        prob, traj = helpers.oscillator()
        times, intervals = sample_times(prob, traj, points=40)
        widths = {round(b - a, 9) for a, b in intervals}
        assert min(widths) <= 2e-3  # slivers created by the tiny delay
        for t, (a, b) in zip(times, intervals):
            assert a < t < b

    def test_grid_validation(self, problem, traj_el_only):
        with pytest.raises(ValueError, match="points"):
            sample_times(problem, traj_el_only, points=0)

    @pytest.mark.parametrize("case", ["bundle", "oscillator", "random"])
    def test_regions_of_samples_split_at_the_junction(self, case, problem, traj_el_only):
        # The first-integral fits take each sample's region from region_of;
        # on samples that agrees with the plain rule t <= junction, because
        # the junction is a segment end and samples keep clear of it.
        if case == "oscillator":
            problem, traj = helpers.oscillator()
        elif case == "random":
            traj = helpers.random_lipschitz_trajectory(
                np.random.default_rng(7), -1.0, 3.0
            )
        else:
            traj = traj_el_only
        junction = problem.junction
        times, intervals = sample_times(problem, traj)
        assert np.any(intervals == junction)
        expected = np.where(times <= junction, 1, 2)
        assert np.array_equal(region_of(problem, times), expected)
        margin = conditions._MARGIN * (intervals[:, 1] - intervals[:, 0])
        assert np.all(np.abs(times - junction) >= margin * (1 - 1e-9))


class TestElDifferentialCheck:
    def test_extremal_passes(self, problem, traj_el_only):
        report = check_el_differential(Samples(problem, traj_el_only))
        assert isinstance(report, ResidualReport)
        assert report.quantity == "el-differential"
        assert report.verdict
        assert report.max_abs <= 1e-9
        assert report.times.size == 200

    def test_non_extremal_fails(self, traj_el_only):
        report = check_el_differential(Samples(modified_problem(), traj_el_only))
        assert not report.verdict
        assert report.max_abs > 0.1

    def test_exact_higher_order_extremals_pass_at_the_defaults(self):
        # Finite-difference noise once pushed the cubic past 1e-7.
        for build in (helpers.cubic_order2, helpers.quintic_order3):
            prob, traj = build()
            report = check_el_differential(Samples(prob, traj))
            assert report.verdict
            assert report.max_abs <= 1e-12


class TestElIntegralCheck:
    def test_regional_golden_constants(self, problem, traj_el_only):
        report = el_first_integral(Samples(problem, traj_el_only))
        assert isinstance(report, FirstIntegralReport)
        assert report.quantity == "el-integral"
        assert report.mode == "regional"
        assert report.verdict
        by_region = {fit.region: fit for fit in report.regions}
        assert by_region[1].constant == pytest.approx([-4.0], abs=1e-9)
        assert by_region[2].constant == pytest.approx([0.0], abs=1e-9)
        assert report.max_dev <= 1e-9

    def test_global_fit_fails_across_the_junction(self, problem, traj_el_only):
        report = el_first_integral(Samples(problem, traj_el_only), mode="global")
        assert not report.verdict
        assert report.regions[0].region is None
        assert report.max_dev > 1.0

    def test_fully_extremal_variant_passes_globally(self, problem, traj_el_dbr):
        for mode in ("regional", "global"):
            report = el_first_integral(Samples(problem, traj_el_dbr), mode=mode)
            assert report.verdict
            for fit in report.regions:
                assert fit.constant == pytest.approx([0.0], abs=1e-9)

    def test_order_two_fit_is_linear(self):
        prob, traj = helpers.cubic_order2()
        report = el_first_integral(Samples(prob, traj, points=60))
        assert report.verdict
        for fit in report.regions:
            assert fit.constant is None  # degree-1 model, not a constant
            assert fit.polynomial[:, 0] == pytest.approx([0.0, -6.0], abs=1e-6)

    def test_order_three_fit_is_quadratic(self):
        # Order 3 folds block terms up to three times from the junction.
        prob, traj = helpers.quintic_order3()
        report = el_first_integral(Samples(prob, traj))
        assert report.verdict
        assert [fit.region for fit in report.regions] == [1, 2]
        for fit in report.regions:
            assert fit.polynomial[:, 0] == pytest.approx([0.0, 0.0, -60.0], abs=1e-6)

    def test_mode_validation(self, problem, traj_el_only):
        with pytest.raises(ValueError, match="mode"):
            el_first_integral(Samples(problem, traj_el_only), mode="piecewise")

    @pytest.mark.parametrize("fixture", ["cubic_order2", "quintic_order3"])
    def test_arguments_are_assembled_once_per_point(self, fixture, monkeypatch):
        # One batch of args(s) over the Gauss nodes and one over the samples,
        # each followed by a batch of args(s + tau) over its region-1 points,
        # whatever the order: all m + 1 block terms share them, and no
        # argument is assembled one point at a time.
        prob, traj = getattr(helpers, fixture)()
        batches = []
        original = Problem.bindings

        def counted(self, traj, ts, *args, **kwargs):
            batches.append(len(ts))
            return original(self, traj, ts, *args, **kwargs)

        def per_point(*args, **kwargs):
            raise AssertionError("Problem.args called")

        monkeypatch.setattr(Problem, "bindings", counted)
        monkeypatch.setattr(Problem, "args", per_point)
        el_first_integral(Samples(prob, traj))
        times, _ = sample_times(prob, traj)
        nodes, _ = gauss_nodes(prob, traj, (prob.t1, prob.t2), None, times)
        points = np.concatenate([nodes, times])
        expected = sum(1 + (region_of(prob, float(t)) == 1) for t in points)
        assert len(batches) == 4
        assert sum(batches) == expected == 3174


POINTS = QuadratureSpec().gauss_points


def random_rule(rng: np.random.Generator, points: int):
    """A composite Gauss rule on random panels of a random window: its
    nodes, weights and panel ends."""
    lo = rng.uniform(-2.0, 1.0)
    ends = np.concatenate([[lo], lo + np.cumsum(rng.uniform(0.01, 0.6, 24))])
    x, w = np.polynomial.legendre.leggauss(points)
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * np.diff(ends)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return nodes, weights, ends


class TestFoldedIntegral:
    @pytest.mark.parametrize("points", [1, 3, 8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_running_sums_match_the_per_sample_loop(self, points, dim, k):
        # Random tables, every time and base a random panel end, so bases
        # lie on both sides of their times (and on them).
        rng = np.random.default_rng(100 * points + 10 * dim + k)
        nodes, weights, ends = random_rule(rng, points)
        table = rng.normal(size=(nodes.size, dim)) * rng.uniform(0.1, 10.0)
        times = rng.choice(ends, 40)
        for bases in (rng.choice(ends, 40), float(rng.choice(ends))):
            expected = helpers.reference_folded_integral(
                nodes, weights, table, bases, times, k
            )
            folded = _folded_integral(nodes, weights, table, bases, times, k, points)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
            assert folded.shape == expected.shape
            assert np.max(np.abs(folded - expected)) <= bound

    def test_a_one_dimensional_table_gives_one_value_per_time(self):
        rng = np.random.default_rng(7)
        nodes, weights, ends = random_rule(rng, 3)
        table, times = rng.normal(size=nodes.size), ends[::5]
        expected = helpers.reference_folded_integral(
            nodes, weights, table, ends[0], times, 1
        )
        folded = _folded_integral(nodes, weights, table, ends[0], times, 1, 3)
        assert folded.shape == times.shape
        assert folded == pytest.approx(expected, abs=1e-12)

    def test_folds_of_one_are_oriented_powers(self, problem, traj_el_only):
        # k-fold integral of 1 from base to t is (t - base)^k / k!, on both
        # sides of base; the sign for odd k pins the orientation.
        base = problem.junction
        times = np.array([0.3, 1.7, 2.4, 2.95])
        nodes, weights = gauss_nodes(
            problem, traj_el_only, (problem.t1, problem.t2), QuadratureSpec(), times
        )
        ones = np.ones((nodes.size, 1))
        for k in (1, 2, 3):
            folded = _folded_integral(nodes, weights, ones, base, times, k, POINTS)
            expected = (times - base) ** k / math.factorial(k)
            assert folded[:, 0] == pytest.approx(expected, abs=1e-14)

    def test_each_time_may_have_its_own_base(self, problem, traj_el_only):
        times = np.array([0.5, 2.5])
        bases = np.array([problem.t1, problem.junction])
        nodes, weights = gauss_nodes(
            problem, traj_el_only, (problem.t1, problem.t2), QuadratureSpec(), times
        )
        folded = _folded_integral(nodes, weights, nodes, bases, times, 1, POINTS)
        # integral of s from base to t
        assert folded == pytest.approx((times**2 - bases**2) / 2, abs=1e-14)

    def test_quadrature_setup_does_not_grow_with_the_samples(
        self, problem, traj_el_only, monkeypatch
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = functional.effective_breakpoints
        monkeypatch.setattr(functional, "effective_breakpoints", counted)
        monkeypatch.setattr(conditions, "effective_breakpoints", counted)
        for check in (el_first_integral, dbr_first_integral):
            counts = []
            for points in (20, 200):
                calls.clear()
                check(Samples(problem, traj_el_only, points=points))
                counts.append(len(calls))
            assert counts[0] == counts[1], check.__name__


class TestDbrCheck:
    def test_kinked_extremal_fails_with_the_documented_constants(
        self, problem, traj_el_only
    ):
        report = dbr_first_integral(Samples(problem, traj_el_only))
        assert report.quantity == "dbr"
        assert not report.verdict
        constants = {seg.interval: seg.constant for seg in report.segments}
        assert constants[(0.0, 1.0)] == pytest.approx([-4.0], abs=1e-9)
        assert constants[(1.0, 2.0)] == pytest.approx([0.0], abs=1e-9)
        assert constants[(2.0, 3.0)] == pytest.approx([0.0], abs=1e-9)
        # Region 1 mixes -4 and 0, so both of its segments violate the fit.
        assert (0.0, 1.0) in report.failing_segments
        assert (1.0, 2.0) in report.failing_segments
        assert (2.0, 3.0) not in report.failing_segments

    def test_fully_extremal_variant_passes(self, problem, traj_el_dbr):
        report = dbr_first_integral(Samples(problem, traj_el_dbr))
        assert report.verdict
        for fit in report.regions:
            assert fit.constant == pytest.approx([0.0], abs=1e-9)
        assert report.failing_segments == ()

    def test_quintic_extremal_passes_at_the_defaults(self):
        prob, traj = helpers.quintic_order3()
        report = dbr_first_integral(Samples(prob, traj))
        assert report.verdict
        for fit in report.regions:
            assert fit.constant == pytest.approx([0.0], abs=1e-9)

    def test_loose_tolerance_turns_the_verdict(self, problem, traj_el_only):
        report = dbr_first_integral(Samples(problem, traj_el_only), tol=10.0)
        assert report.verdict

    def test_segment_means_are_per_segment_diagnostics(self, problem, traj_el_only):
        report = dbr_first_integral(Samples(problem, traj_el_only, points=30))
        for seg in report.segments:
            assert seg.max_dev <= 1e-9  # constant within each segment
