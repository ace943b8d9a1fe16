import json

import pytest

from delay_noether import (
    DocumentError,
    QuadratureSpec,
    bundled_problem_path,
    load_bundled,
    load_document,
    to_source,
)
from delay_noether.document import (
    ENV_TOL,
    Tolerances,
    parse_document,
    resolve_first_integral_tol,
)


def base_doc():
    return {
        "order": 1,
        "dim": 1,
        "t1": 0.0,
        "t2": 3.0,
        "tau": 1.0,
        "lagrangian": "(q0_d1 + q0_d1_tau)^2",
        "prehistory": ["-t"],
        "terminal": {"q": [1.0]},
    }


def kinked_trajectory_doc():
    return {
        "breakpoints": [-1.0, 0.0, 2.0, 3.0],
        "segments": [[[1.0, -1.0]], [[0.0, 1.0]], [[2.0, -1.0]]],
    }


def with_changes(*removed, **changes):
    """``base_doc()`` without the keys ``removed`` and with ``changes``."""
    doc = {**base_doc(), **changes}
    for key in removed:
        del doc[key]
    return doc


SHORT_TRAJECTORY = {"breakpoints": [0.0, 3.0], "segments": [[[0.0, 0.3]]]}

# Each malformed document with the exact message it raises.  Where a
# document has several faults, the message names the first one checked.
MALFORMED = {
    "top-level list": ([1], "document: expected a JSON object"),
    "unknown before missing": (
        with_changes("tau", extra=1),
        "document: unknown keys: extra",
    ),
    "missing keys sorted": (
        with_changes("tau", "t1"),
        "document: missing keys: t1, tau",
    ),
    "order string": (with_changes(order="1"), "document.order: expected an integer, got '1'"),
    "order bool": (with_changes(order=True), "document.order: expected an integer, got True"),
    "dim float": (with_changes(dim=1.5), "document.dim: expected an integer, got 1.5"),
    "terminal before t1": (
        with_changes(t1="x", terminal={"q": ["a"]}),
        "document.terminal.q[0]: expected a number, got 'a'",
    ),
    "terminal q not a list": (
        with_changes(terminal={"q": 1}),
        "document.terminal.q: expected a list of numbers",
    ),
    "terminal derivatives not a list": (
        with_changes(terminal={"q": [1.0], "derivatives": 3}),
        "document.terminal.derivatives: expected a list",
    ),
    "terminal derivative row": (
        with_changes(terminal={"q": [1.0], "derivatives": [[0.0], "x"]}),
        "document.terminal.derivatives[1]: expected a list of numbers",
    ),
    "terminal not an object": (
        with_changes(terminal=[1.0]),
        "document.terminal: expected an object",
    ),
    "terminal unknown key": (
        with_changes(terminal={"q": [1.0], "speed": 0}),
        "document.terminal: unknown keys: speed",
    ),
    "terminal missing q": (
        with_changes(terminal={"derivatives": []}),
        "document.terminal: missing keys: q",
    ),
    "prehistory not a list": (
        with_changes(prehistory="-t"),
        "document.prehistory: expected a list of strings",
    ),
    "prehistory item": (
        with_changes(prehistory=["-t", 3]),
        "document.prehistory[1]: expected a string, got 3",
    ),
    "lagrangian not a string": (
        with_changes(lagrangian=5),
        "document.lagrangian: expected a string, got 5",
    ),
    "quadrature before symmetry": (
        with_changes(quadrature=3, symmetry=3),
        "document.quadrature: expected an object",
    ),
    "tolerances before quadrature": (
        with_changes(tolerances={"gradient": -1}, quadrature=3),
        "document.tolerances.gradient: must be positive",
    ),
    "tolerances not an object": (
        with_changes(tolerances=[1]),
        "document.tolerances: expected an object",
    ),
    "tolerance not a number": (
        with_changes(tolerances={"first_integral": "x"}),
        "document.tolerances.first_integral: expected a number, got 'x'",
    ),
    "tolerances unknown key": (
        with_changes(tolerances={"fit": 1}),
        "document.tolerances: unknown keys: fit",
    ),
    "trajectories not an object": (
        with_changes(trajectories=[1]),
        "document.trajectories: expected an object",
    ),
    "trajectories key not a string": (
        with_changes(trajectories={1: kinked_trajectory_doc()}),
        "document.trajectories key: expected a string, got 1",
    ),
    "trajectory before its key": (
        with_changes(trajectories={1: SHORT_TRAJECTORY}),
        "document.trajectories.1: trajectory domain [0.0, 3.0] does not match [-1.0, 3.0]",
    ),
    "symmetry xi not a list": (
        with_changes(symmetry={"eta": "1", "xi": "q0"}),
        "document.symmetry.xi: expected a list of strings",
    ),
    "symmetry missing xi": (
        with_changes(symmetry={"eta": "1"}),
        "document.symmetry: missing keys: xi",
    ),
    "symmetry unknown key": (
        with_changes(symmetry={"eta": "1", "xi": ["0"], "extra": 1}),
        "document.symmetry: unknown keys: extra",
    ),
    "symmetry gauge not a string": (
        with_changes(symmetry={"eta": "1", "xi": ["0"], "gauge": 0}),
        "document.symmetry.gauge: expected a string, got 0",
    ),
    "quadrature unknown key": (
        with_changes(quadrature={"points": 4}),
        "document.quadrature: unknown keys: points",
    ),
    "quadrature missing key": (
        with_changes(quadrature={}),
        "document.quadrature: missing keys: gauss_points",
    ),
    "gauss points not an integer": (
        with_changes(quadrature={"gauss_points": 2.0}),
        "document.quadrature.gauss_points: expected an integer, got 2.0",
    ),
    # Errors of the package's own constructors, prefixed with the block.
    "wrapped problem data": (with_changes(tau=5.0), "document: need 0 < tau < t2 - t1"),
    "wrapped problem expression": (
        with_changes(lagrangian="(q0_d1"),
        "document: expected ')' (offset 6)",
    ),
    "wrapped problem terminal": (
        with_changes(terminal={"q": [1.0, 2.0]}),
        "document: terminal position must have 1 entries",
    ),
    "wrapped quadrature": (
        with_changes(quadrature={"gauss_points": 0}),
        "document.quadrature: gauss_points must be in 1..128",
    ),
    "wrapped variant": (
        with_changes(trajectories={"bad": SHORT_TRAJECTORY}),
        "document.trajectories.bad: trajectory domain [0.0, 3.0] does not match [-1.0, 3.0]",
    ),
    "wrapped default trajectory": (
        with_changes(trajectory={**kinked_trajectory_doc(), "label": "x"}),
        "document.trajectory: unknown trajectory keys: label",
    ),
    "wrapped trajectory shape": (
        with_changes(trajectory=[1]),
        "document.trajectory: trajectory document must be an object",
    ),
    "wrapped symmetry vocabulary": (
        with_changes(symmetry={"eta": "q0_d1", "xi": ["0"]}),
        "document.symmetry: eta uses variables outside its vocabulary: q0_d1",
    ),
    "wrapped symmetry size": (
        with_changes(symmetry={"eta": "1", "xi": ["0", "0"]}),
        "document.symmetry: xi needs 1 component(s)",
    ),
}


@pytest.mark.parametrize("doc, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_raise_their_exact_message(doc, message):
    with pytest.raises(DocumentError) as raised:
        parse_document(doc)
    assert str(raised.value) == message


class TestBundledDocument:
    def test_path_exists(self):
        assert bundled_problem_path().is_file()

    def test_fields(self, bundle):
        prob = bundle.problem
        assert (prob.order, prob.dim) == (1, 1)
        assert (prob.t1, prob.t2, prob.tau) == (0.0, 3.0, 1.0)
        assert set(bundle.trajectories) == {"el_only", "el_dbr"}
        assert bundle.default_trajectory is not None
        assert bundle.symmetry is not None
        assert bundle.quadrature == QuadratureSpec()
        assert bundle.tolerances == Tolerances()

    def test_default_trajectory_is_the_kinked_variant(self, bundle):
        default = bundle.trajectory()
        named = bundle.trajectory("el_only")
        assert default.to_json_dict() == named.to_json_dict()

    def test_unknown_bundle_name(self):
        with pytest.raises(DocumentError, match="cannot read"):
            load_bundled("missing.json")


class TestParsing:
    def test_minimal_document(self):
        doc = parse_document(base_doc())
        assert doc.problem.junction == 2.0
        assert doc.trajectories == {}
        assert doc.symmetry is None

    def test_document_must_be_an_object(self):
        with pytest.raises(DocumentError, match="expected a JSON object"):
            parse_document([1, 2, 3])

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["Lagrangian"] = "t"
        with pytest.raises(DocumentError, match="unknown keys: Lagrangian"):
            parse_document(doc)

    def test_missing_top_level_key(self):
        doc = base_doc()
        del doc["tau"]
        with pytest.raises(DocumentError, match="missing keys: tau"):
            parse_document(doc)

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("order", "1", "expected an integer"),
            ("order", True, "expected an integer"),
            ("t1", "0", "expected a number"),
            ("lagrangian", 5, "expected a string"),
            ("prehistory", "-t", "list of strings"),
            ("prehistory", ["-t", 3], r"prehistory\[1\]"),
            ("terminal", [1.0], "expected an object"),
        ],
    )
    def test_type_errors_name_the_offending_path(self, key, value, fragment):
        doc = base_doc()
        doc[key] = value
        with pytest.raises(DocumentError, match=fragment):
            parse_document(doc)

    def test_terminal_validation(self):
        doc = base_doc()
        doc["terminal"] = {"q": [1.0], "speed": [0.0]}
        with pytest.raises(DocumentError, match="unknown keys: speed"):
            parse_document(doc)
        doc["terminal"] = {"derivatives": []}
        with pytest.raises(DocumentError, match="missing keys: q"):
            parse_document(doc)
        doc["terminal"] = {"q": [1.0], "derivatives": [[0.0], "x"]}
        with pytest.raises(DocumentError, match=r"derivatives\[1\]"):
            parse_document(doc)

    def test_bad_expression_is_wrapped(self):
        doc = base_doc()
        doc["lagrangian"] = "(q0_d1"
        with pytest.raises(DocumentError, match="document"):
            parse_document(doc)

    def test_inconsistent_problem_data_is_wrapped(self):
        doc = base_doc()
        doc["tau"] = 5.0
        with pytest.raises(DocumentError, match="tau"):
            parse_document(doc)

    def test_where_prefix_names_the_source(self):
        with pytest.raises(DocumentError, match="config.json"):
            parse_document({"order": 1}, where="config.json")


class TestTrajectoriesSection:
    def test_default_and_variants(self):
        doc = base_doc()
        doc["trajectory"] = kinked_trajectory_doc()
        doc["trajectories"] = {"named": kinked_trajectory_doc()}
        parsed = parse_document(doc)
        assert parsed.trajectory().domain == (-1.0, 3.0)
        assert parsed.trajectory("named").domain == (-1.0, 3.0)

    def test_selection_rules(self):
        doc = base_doc()
        doc["trajectories"] = {"only": kinked_trajectory_doc()}
        parsed = parse_document(doc)
        assert parsed.trajectory() is parsed.trajectories["only"]
        with pytest.raises(DocumentError, match="available: only"):
            parsed.trajectory("missing")

    def test_no_default_is_an_error(self):
        parsed = parse_document(base_doc())
        with pytest.raises(DocumentError, match="no default trajectory"):
            parsed.trajectory()
        doc = base_doc()
        doc["trajectories"] = {
            "a": kinked_trajectory_doc(),
            "b": kinked_trajectory_doc(),
        }
        with pytest.raises(DocumentError, match="pick a variant"):
            parse_document(doc).trajectory()

    def test_domain_mismatch_is_reported_with_its_path(self):
        doc = base_doc()
        bad = {"breakpoints": [0.0, 3.0], "segments": [[[0.0, 0.3]]]}
        doc["trajectories"] = {"bad": bad}
        with pytest.raises(DocumentError, match=r"trajectories\.bad.*domain"):
            parse_document(doc)

    def test_unknown_trajectory_key(self):
        doc = base_doc()
        bad = kinked_trajectory_doc()
        bad["label"] = "x"
        doc["trajectory"] = bad
        with pytest.raises(DocumentError, match="label"):
            parse_document(doc)

    def test_continuity_override_admits_a_small_jump(self):
        doc = base_doc()
        jumpy = {
            "breakpoints": [-1.0, 0.0, 3.0],
            "segments": [[[1.0, -1.0]], [[0.001, 0.333]]],
        }
        doc["trajectory"] = jumpy
        with pytest.raises(DocumentError, match="jumps"):
            parse_document(doc)
        doc["tolerances"] = {"continuity": 0.01}
        parsed = parse_document(doc)
        assert parsed.trajectory().continuity_tol == 0.01

    def test_jump_names_its_breakpoint_as_a_plain_float(self):
        doc = base_doc()
        doc["trajectory"] = {
            "breakpoints": [-1.0, 0.0, 1.0, 3.0],
            "segments": [[[1.0, -1.0]], [[0.0, 1.0]], [[5.0, 0.0]]],
        }
        with pytest.raises(DocumentError) as raised:
            parse_document(doc)
        assert "derivative 0 jumps by 4.000e+00 at breakpoint 1.0 " in str(raised.value)
        assert "np." not in str(raised.value)


class TestSymmetrySection:
    def test_gauge_defaults_to_zero(self):
        doc = base_doc()
        doc["symmetry"] = {"eta": "1", "xi": ["0"]}
        parsed = parse_document(doc)
        assert to_source(parsed.symmetry.gauge) == "0"

    def test_validation(self):
        doc = base_doc()
        doc["symmetry"] = {"eta": "1"}
        with pytest.raises(DocumentError, match="missing keys: xi"):
            parse_document(doc)
        doc["symmetry"] = {"eta": "1", "xi": ["0"], "extra": 1}
        with pytest.raises(DocumentError, match="unknown keys: extra"):
            parse_document(doc)
        doc["symmetry"] = {"eta": "q0_d1", "xi": ["0"]}
        with pytest.raises(DocumentError, match="symmetry"):
            parse_document(doc)


class TestQuadratureAndTolerances:
    def test_quadrature_section(self):
        doc = base_doc()
        doc["quadrature"] = {"gauss_points": 4}
        assert parse_document(doc).quadrature == QuadratureSpec(4)
        doc["quadrature"] = {"gauss_points": 0}
        with pytest.raises(DocumentError, match="gauss_points"):
            parse_document(doc)
        doc["quadrature"] = {"points": 4}
        with pytest.raises(DocumentError, match="unknown keys: points"):
            parse_document(doc)

    def test_tolerances_section(self):
        doc = base_doc()
        doc["tolerances"] = {"first_integral": 1e-5, "gradient": 1e-8}
        parsed = parse_document(doc)
        assert parsed.tolerances == Tolerances(first_integral=1e-5, gradient=1e-8)
        doc["tolerances"] = {"first_integral": -1.0}
        with pytest.raises(DocumentError, match="must be positive"):
            parse_document(doc)
        doc["tolerances"] = {"fit": 1e-5}
        with pytest.raises(DocumentError, match="unknown keys: fit"):
            parse_document(doc)


class TestToleranceResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_TOL, raising=False)
        assert resolve_first_integral_tol(None) == 1e-7

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "1e-3")
        assert resolve_first_integral_tol(None) == 1e-3

    def test_document_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "1e-3")
        doc = base_doc()
        doc["tolerances"] = {"first_integral": 1e-5}
        assert parse_document(doc).first_integral_tol() == 1e-5

    def test_invalid_environment_value(self, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "loose")
        with pytest.raises(DocumentError, match="must be a number"):
            resolve_first_integral_tol(None)
        monkeypatch.setenv(ENV_TOL, "-2")
        with pytest.raises(DocumentError, match="must be positive"):
            resolve_first_integral_tol(None)

    def test_document_accessor_uses_the_environment(self, monkeypatch, bundle):
        monkeypatch.delenv(ENV_TOL, raising=False)
        assert bundle.first_integral_tol() == 1e-7
        monkeypatch.setenv(ENV_TOL, "0.5")
        assert bundle.first_integral_tol() == 0.5


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_document(path)

    def test_round_trip_through_a_file(self, tmp_path):
        doc = base_doc()
        doc["trajectory"] = kinked_trajectory_doc()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        parsed = load_document(path)
        assert parsed.problem.tau == 1.0
        assert parsed.trajectory().domain == (-1.0, 3.0)

    def test_parse_errors_name_the_file(self, tmp_path):
        doc = base_doc()
        doc["extra"] = 1
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DocumentError, match="problem.json"):
            load_document(path)
