"""Symmetries, invariance checking and Noether-type conservation laws.

A symmetry candidate is a one-parameter family generator: a scalar time
shift eta(t, q), a state shift xi(t, q) per coordinate, and an optional
gauge term Phi over the full delayed vocabulary.  Along a trajectory the
package can evaluate the pointwise invariance residual (zero everywhere,
for every admissible trajectory, iff the family leaves the functional
invariant up to the gauge term) and the conserved charge that invariance
buys on extremals, region by region.  ``check_conservation`` judges the
charge like any first integral (a ``conditions.FirstIntegralReport``) and
adds its junction gap |C(junction-) - C(junction+)|, which is reported for
diagnosis but deliberately excluded from the verdict: the charge is only
guaranteed constant per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import expr as ex
from .conditions import (
    FirstIntegralReport,
    ResidualReport,
    Samples,
    _analyze_samples,
    _Arguments,
    _dot,
    _residual_report,
)
from .functional import Problem, columns, compiled_property
from .trajectory import PiecewiseTrajectory


class SymmetryError(ValueError):
    """Invalid symmetry candidate."""


@dataclass(frozen=True)
class SymmetryCandidate:
    """Generators of a candidate symmetry family.

    ``eta`` and every component of ``xi`` may use only t and current
    positions q{i}; ``gauge`` may use the full vocabulary of the problem
    it will be checked against.

    Construction derives the exact expressions ``eta_dot`` (D_t eta),
    ``gauge_dot`` (D_t Phi) and ``rho[i]`` for i = 0..order, the
    transformed-derivative generators rho^0 = xi and
    rho^i = D_t rho^(i-1) - q^(i) D_t eta, per coordinate.
    """

    eta: ex.Expression
    xi: tuple[ex.Expression, ...]
    gauge: ex.Expression
    dim: int
    order: int
    eta_dot: ex.Expression = field(init=False, repr=False, compare=False)
    gauge_dot: ex.Expression = field(init=False, repr=False, compare=False)
    rho: tuple[tuple[ex.Expression, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.xi) != self.dim:
            raise SymmetryError(f"xi needs {self.dim} component(s)")
        point = ex.point_vocabulary(self.dim)
        ex.check_vocabulary(self.eta, point, "eta")
        for i, component in enumerate(self.xi):
            ex.check_vocabulary(component, point, f"xi component {i}")
        ex.check_vocabulary(
            self.gauge, ex.lagrangian_vocabulary(self.dim, self.order), "gauge"
        )
        eta_dot = ex.total_derivative(self.eta)
        rho = [tuple(self.xi)]
        for i in range(1, self.order + 1):
            rho.append(
                tuple(
                    ex._sub(
                        ex.total_derivative(previous),
                        ex._mul(ex.Variable(ex.coordinate_name(c, i)), eta_dot),
                    )
                    for c, previous in enumerate(rho[-1])
                )
            )
        object.__setattr__(self, "eta_dot", eta_dot)
        object.__setattr__(self, "gauge_dot", ex.total_derivative(self.gauge))
        object.__setattr__(self, "rho", tuple(rho))

    @classmethod
    def from_sources(
        cls,
        dim: int,
        order: int,
        eta: str,
        xi: Sequence[str],
        gauge: str = "0",
    ) -> "SymmetryCandidate":
        return cls(
            ex.canonicalize(ex.parse(eta)),
            tuple(ex.canonicalize(ex.parse(src)) for src in xi),
            ex.canonicalize(ex.parse(gauge)),
            dim,
            order,
        )

    # Array forms (see ``expr.compile``), compiled on first use.
    compiled_eta = compiled_property("eta")
    compiled_eta_dot = compiled_property("eta_dot")
    compiled_xi = compiled_property("xi")
    compiled_rho = compiled_property("rho")
    compiled_gauge = compiled_property("gauge")
    compiled_gauge_dot = compiled_property("gauge_dot")

    def check_against(self, problem: Problem) -> None:
        if self.dim != problem.dim or self.order != problem.order:
            raise SymmetryError(
                f"symmetry built for dim {self.dim} order {self.order}, "
                f"problem has dim {problem.dim} order {problem.order}"
            )


def _point(traj: PiecewiseTrajectory, t: float, side: str, depth: int = 0) -> dict:
    """t and the current derivatives q^(k)(t), k = 0..depth, at the one time t."""
    ts = np.array([t], dtype=float)
    return {"t": ts, **traj.bindings(ts, depth, side)}


def eta_value(
    sym: SymmetryCandidate, traj: PiecewiseTrajectory, t: float, side: str = "right"
) -> float:
    return float(columns([sym.compiled_eta], _point(traj, t, side))[0, 0])


def xi_value(
    sym: SymmetryCandidate, traj: PiecewiseTrajectory, t: float, side: str = "right"
) -> np.ndarray:
    return columns(sym.compiled_xi, _point(traj, t, side))[0]


def rho(
    sym: SymmetryCandidate,
    traj: PiecewiseTrajectory,
    i: int,
    t: float,
    side: str = "right",
) -> np.ndarray:
    """Transformed-derivative generators: rho^0 = xi(t, q),
    rho^i = d/dt rho^(i-1) - q^(i)(t) * d/dt eta."""
    if not 0 <= i <= sym.order:
        raise SymmetryError(f"rho index {i} not in 0..{sym.order}")
    return columns(sym.compiled_rho[i], _point(traj, t, side, i))[0]


def _invariance(problem: Problem, sym: SymmetryCandidate, args: _Arguments):
    """The invariance defect at the rows of ``args`` (depth >= m + 1)."""
    m = problem.order
    value = args.value
    total = -value(sym.compiled_gauge_dot)
    total = total + value(problem.compiled_partial_t) * value(sym.compiled_eta)
    total = total + value(problem.compiled_lagrangian) * value(sym.compiled_eta_dot)
    coeffs = args.block_terms(range(m + 1))
    for i in range(m + 1):
        total = total + _dot(coeffs[i], columns(sym.compiled_rho[i], args.here))
    return total


def invariance_residual(
    problem: Problem,
    traj: PiecewiseTrajectory,
    sym: SymmetryCandidate,
    t,
    side: str = "right",
):
    """Pointwise invariance defect (region-aware) at t: a float for one
    time, an array for an array of times.

    Zero at every t along every admissible trajectory iff the candidate is
    an invariance family of the functional up to the gauge term.
    """
    sym.check_against(problem)
    # D_t Phi reaches one derivative order above the problem's.
    args = _Arguments(problem, traj, np.atleast_1d(t), problem.order + 1, side)
    total = _invariance(problem, sym, args)
    return total if np.ndim(t) else float(total[0])


def _charge(problem: Problem, sym: SymmetryCandidate, args: _Arguments):
    """The Noether charge at the rows of ``args`` (depth >= 2m - 1)."""
    total = np.zeros(args.regions.shape)
    kinetic = args.value(problem.compiled_lagrangian)
    for j in range(1, problem.order + 1):
        momentum = args.psi(j)
        total = total + _dot(momentum, columns(sym.compiled_rho[j - 1], args.here))
        kinetic = kinetic - _dot(momentum, args.derivative(j))
    total = total + kinetic * args.value(sym.compiled_eta)
    return total - args.value(sym.compiled_gauge)


def noether_charge(
    problem: Problem,
    traj: PiecewiseTrajectory,
    sym: SymmetryCandidate,
    t,
    side: str = "right",
):
    """Candidate conserved quantity
    sum_j psi^j . rho^(j-1) + (L - sum_j psi^j . q^(j)) eta - Phi at t: a
    float for one time, an array for an array of times."""
    sym.check_against(problem)
    args = _Arguments(problem, traj, np.atleast_1d(t), 2 * problem.order - 1, side)
    total = _charge(problem, sym, args)
    return total if np.ndim(t) else float(total[0])


def check_invariance(
    samples: Samples, sym: SymmetryCandidate, tol: float | None = None
) -> ResidualReport:
    """The invariance defect at the samples, against the absolute ``tol``."""
    sym.check_against(samples.problem)
    values = _invariance(samples.problem, sym, samples.at_samples)
    return _residual_report("invariance", samples.times, values, tol)


def check_conservation(
    samples: Samples, sym: SymmetryCandidate, tol: float | None = None
) -> FirstIntegralReport:
    """Sample the Noether charge, decide per-region constancy, add the gap."""
    problem, traj = samples.problem, samples.traj
    sym.check_against(problem)
    values = _charge(problem, sym, samples.at_samples)
    report = _analyze_samples("noether", "regional", samples, values, 0, tol)
    junction = [problem.junction] * 2
    args = _Arguments(problem, traj, junction, 2 * problem.order - 1, ("left", "right"))
    left, right = _charge(problem, sym, args).tolist()
    return replace(report, junction_gap=abs(left - right))
