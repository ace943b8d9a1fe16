"""JSON problem documents.

A document bundles one delayed variational problem with optional candidate
trajectories (a default plus named variants), an optional symmetry
candidate, quadrature settings and tolerance overrides.  Validation is
strict: unknown keys anywhere are rejected, so typos fail loudly instead of
silently changing meaning.  Every block is checked by ``_object`` (its
keys), ``_list`` (each entry) and the scalar checks, which name the faulty
value's path; ``_build`` prefixes a constructor's error with its block.

The first-integral tolerance resolves in precedence order: document
``tolerances.first_integral``, then the ``DELAY_NOETHER_TOL`` environment
variable, then the built-in default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .conditions import DEFAULT_FIRST_INTEGRAL_TOL
from .expr import ExpressionError
from .functional import FunctionalError, Problem, QuadratureSpec
from .noether import SymmetryCandidate, SymmetryError
from .trajectory import PiecewiseTrajectory, TrajectoryError

ENV_TOL = "DELAY_NOETHER_TOL"


class DocumentError(ValueError):
    """Malformed problem document."""


@dataclass(frozen=True)
class Tolerances:
    first_integral: float | None = None
    continuity: float | None = None
    gradient: float | None = None


@dataclass
class ProblemDocument:
    problem: Problem
    default_trajectory: PiecewiseTrajectory | None
    trajectories: dict[str, PiecewiseTrajectory]
    symmetry: SymmetryCandidate | None
    quadrature: QuadratureSpec
    tolerances: Tolerances

    def trajectory(self, name: str | None = None) -> PiecewiseTrajectory:
        """Select a trajectory: by variant name, else the default, else the
        single variant if it is unambiguous."""
        if name is not None:
            if name not in self.trajectories:
                available = ", ".join(sorted(self.trajectories)) or "none"
                raise DocumentError(
                    f"no trajectory variant {name!r} (available: {available})"
                )
            return self.trajectories[name]
        if self.default_trajectory is not None:
            return self.default_trajectory
        if len(self.trajectories) == 1:
            return next(iter(self.trajectories.values()))
        raise DocumentError(
            "document has no default trajectory; pick a variant by name"
        )

    def first_integral_tol(self) -> float:
        return resolve_first_integral_tol(self.tolerances.first_integral)


def resolve_first_integral_tol(document_value: float | None) -> float:
    if document_value is not None:
        return document_value
    raw = os.environ.get(ENV_TOL)
    if raw is not None:
        try:
            value = float(raw)
        except ValueError:
            raise DocumentError(f"{ENV_TOL} must be a number, got {raw!r}") from None
        if value <= 0:
            raise DocumentError(f"{ENV_TOL} must be positive, got {raw!r}")
        return value
    return DEFAULT_FIRST_INTEGRAL_TOL


def _object(value: Any, where: str, allowed=None, required=(), kind="an object"):
    """``value`` if it is an object whose keys are among ``allowed`` (any
    keys when None) and include every ``required`` key."""
    if not isinstance(value, Mapping):
        raise DocumentError(f"{where}: expected {kind}")
    if allowed is not None:
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise DocumentError(f"{where}: unknown keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(value))
    if missing:
        raise DocumentError(f"{where}: missing keys: {', '.join(missing)}")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value: Any, where: str, item) -> list:
    """``item(entry, where[i])`` for each entry of the list ``value``."""
    if not isinstance(value, list):
        kind = {_string: " of strings", _number: " of numbers"}.get(item, "")
        raise DocumentError(f"{where}: expected a list{kind}")
    return [item(entry, f"{where}[{i}]") for i, entry in enumerate(value)]


_numbers = partial(_list, item=_number)


def _build(where: str, make, *args):
    """``make(*args)``, with a bad-data error re-raised as a ``DocumentError``."""
    try:
        return make(*args)
    except (ExpressionError, FunctionalError, SymmetryError, TrajectoryError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


_REQUIRED = ("order", "dim", "t1", "t2", "tau", "lagrangian", "prehistory", "terminal")
_OPTIONAL = ("trajectory", "trajectories", "symmetry", "quadrature", "tolerances")
_TOLERANCES = ("first_integral", "continuity", "gradient")


def parse_document(doc: Any, where: str = "document") -> ProblemDocument:
    _object(doc, where, _REQUIRED + _OPTIONAL, _REQUIRED, "a JSON object")
    order = _integer(doc["order"], f"{where}.order")
    dim = _integer(doc["dim"], f"{where}.dim")

    at = f"{where}.terminal"
    terminal = _object(doc["terminal"], at, ("q", "derivatives"), ("q",))
    terminal_q = _numbers(terminal["q"], f"{at}.q")
    derivatives = _list(terminal.get("derivatives", []), f"{at}.derivatives", _numbers)
    problem = _build(
        where,
        Problem.from_sources,
        order,
        dim,
        _number(doc["t1"], f"{where}.t1"),
        _number(doc["t2"], f"{where}.t2"),
        _number(doc["tau"], f"{where}.tau"),
        _string(doc["lagrangian"], f"{where}.lagrangian"),
        _list(doc["prehistory"], f"{where}.prehistory", _string),
        terminal_q,
        derivatives,
    )

    at = f"{where}.tolerances"
    tol_doc = _object(doc.get("tolerances", {}), at, _TOLERANCES)
    values = {}
    for key in _TOLERANCES:
        if key in tol_doc:
            values[key] = _number(tol_doc[key], f"{at}.{key}")
            if values[key] <= 0:
                raise DocumentError(f"{at}.{key}: must be positive")
    tolerances = Tolerances(**values)

    quadrature = QuadratureSpec()
    if "quadrature" in doc:
        at = f"{where}.quadrature"
        quad_doc = _object(doc["quadrature"], at, ("gauss_points",), ("gauss_points",))
        points = _integer(quad_doc["gauss_points"], f"{at}.gauss_points")
        quadrature = _build(at, QuadratureSpec, points)

    def trajectory(sub: Any) -> PiecewiseTrajectory:
        traj = PiecewiseTrajectory.from_json_dict(
            sub, order, continuity_tol=tolerances.continuity
        )
        problem.check_trajectory(traj)
        return traj

    default_trajectory = None
    if "trajectory" in doc:
        default_trajectory = _build(f"{where}.trajectory", trajectory, doc["trajectory"])

    trajectories: dict[str, PiecewiseTrajectory] = {}
    variants = _object(doc.get("trajectories", {}), f"{where}.trajectories")
    for name, sub in variants.items():
        # The variant is built before its name is checked.
        trajectories[_string(name, f"{where}.trajectories key")] = _build(
            f"{where}.trajectories.{name}", trajectory, sub
        )

    symmetry = None
    if "symmetry" in doc:
        at = f"{where}.symmetry"
        sym_doc = _object(doc["symmetry"], at, ("eta", "xi", "gauge"), ("eta", "xi"))
        symmetry = _build(
            at,
            SymmetryCandidate.from_sources,
            dim,
            order,
            _string(sym_doc["eta"], f"{at}.eta"),
            _list(sym_doc["xi"], f"{at}.xi", _string),
            _string(sym_doc.get("gauge", "0"), f"{at}.gauge"),
        )

    return ProblemDocument(
        problem=problem,
        default_trajectory=default_trajectory,
        trajectories=trajectories,
        symmetry=symmetry,
        quadrature=quadrature,
        tolerances=tolerances,
    )


def load_document(path: str | os.PathLike) -> ProblemDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    return parse_document(raw, where=str(path))


def bundled_problem_path(name: str = "frederico_section3.json") -> Path:
    """Filesystem path of a problem document shipped with the package."""
    path = resources.files("delay_noether").joinpath("data", name)
    return Path(str(path))


def load_bundled(name: str = "frederico_section3.json") -> ProblemDocument:
    return load_document(bundled_problem_path(name))
