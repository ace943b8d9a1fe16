import functools
import json
from collections import Counter
from pathlib import Path

import pytest

from delay_noether import (
    DomainError,
    PiecewiseTrajectory,
    Problem,
    Samples,
    bundled_problem_path,
    check_conservation,
    check_el_differential,
    dbr_first_integral,
    el_first_integral,
    load_document,
)
from delay_noether import cli, conditions, functional, noether, trajectory
from delay_noether.cli import main

BUNDLE = str(bundled_problem_path())
DATA = Path(__file__).parent / "data"


def counting_into(calls, name, original):
    """``original``, counting each call in ``calls[name]``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAction:
    def test_json_output(self, capsys):
        code, out, err = run(capsys, "action", BUNDLE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["action"] == pytest.approx(4.0, abs=1e-10)
        assert payload["warnings"] == []

    def test_text_output(self, capsys):
        code, out, err = run(capsys, "action", BUNDLE)
        assert code == 0
        assert out.startswith("action = ")
        assert float(out.split("=")[1]) == pytest.approx(4.0, abs=1e-10)

    def test_trajectory_selection(self, capsys):
        code, out, _ = run(capsys, "action", BUNDLE, "--trajectory", "el_dbr", "--json")
        assert code == 0
        assert json.loads(out)["action"] == pytest.approx(0.0, abs=1e-10)

    def test_unknown_variant_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "action", BUNDLE, "--trajectory", "nope")
        assert code == 2
        assert "error:" in err and "nope" in err


class TestCheck:
    def test_el_holds_on_both_variants(self, capsys):
        for variant in ("el_only", "el_dbr"):
            code, out, _ = run(
                capsys, "check", "el", BUNDLE, "--trajectory", variant, "--grid", "60"
            )
            assert code == 0
            assert "holds" in out

    def test_dbr_verdict_drives_the_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "dbr", BUNDLE, "--grid", "60")
        assert code == 1
        assert "verdict: fails" in out
        code, out, _ = run(
            capsys, "check", "dbr", BUNDLE, "--trajectory", "el_dbr", "--grid", "60"
        )
        assert code == 0
        assert "verdict: holds" in out

    def test_el_integral_regional_versus_global(self, capsys):
        code, _, _ = run(capsys, "check", "el-integral", BUNDLE, "--grid", "60")
        assert code == 0
        code, _, _ = run(
            capsys, "check", "el-integral", BUNDLE, "--mode", "global", "--grid", "60"
        )
        assert code == 1

    def test_invariance_holds(self, capsys):
        code, out, _ = run(capsys, "check", "invariance", BUNDLE, "--grid", "60")
        assert code == 0
        assert "invariance residual" in out

    def test_noether_fails_then_holds(self, capsys):
        code, out, _ = run(capsys, "check", "noether", BUNDLE, "--grid", "60")
        assert code == 1
        assert "junction gap" in out
        code, _, _ = run(
            capsys, "check", "noether", BUNDLE, "--trajectory", "el_dbr", "--grid", "60"
        )
        assert code == 0

    def test_dbr_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "dbr", BUNDLE, "--json", "--grid", "60")
        assert code == 1
        payload = json.loads(out)
        assert payload["quantity"] == "dbr"
        assert payload["verdict"] is False
        constants = {
            tuple(seg["interval"]): seg["constant"] for seg in payload["segments"]
        }
        assert constants[(0.0, 1.0)] == pytest.approx(-4.0, abs=1e-9)
        assert constants[(1.0, 2.0)] == pytest.approx(0.0, abs=1e-9)
        assert [0.0, 1.0] in payload["failing_segments"]

    def test_json_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", "dbr", BUNDLE, "--json", "--grid", "60")
        _, second, _ = run(capsys, "check", "dbr", BUNDLE, "--json", "--grid", "60")
        assert first == second

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, _, _ = run(
            capsys, "check", "dbr", BUNDLE, "--grid", "30", "--csv", str(path)
        )
        assert code == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 31
        t, value = (float(x) for x in lines[1].split(","))
        assert 0.0 < t < 1.0
        assert value == pytest.approx(-4.0, abs=1e-9)

    def test_from_solver_passes_the_checks(self, capsys):
        code, _, _ = run(
            capsys,
            "check",
            "dbr",
            BUNDLE,
            "--from-solver",
            "--h",
            "0.25",
            "--grid",
            "40",
        )
        assert code == 0

    def test_from_solver_usage_errors(self, capsys):
        code, _, err = run(capsys, "check", "dbr", BUNDLE, "--from-solver")
        assert code == 2
        assert "--from-solver needs --h" in err
        code, _, err = run(
            capsys,
            "check",
            "dbr",
            BUNDLE,
            "--from-solver",
            "--h",
            "0.25",
            "--trajectory",
            "el_dbr",
        )
        assert code == 2
        assert "exclusive" in err

    def test_environment_tolerance_loosens_the_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("DELAY_NOETHER_TOL", "10")
        code, _, _ = run(capsys, "check", "dbr", BUNDLE, "--grid", "60")
        assert code == 0

    def test_unknown_subcommand_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "energy", BUNDLE])
        assert excinfo.value.code == 2


class TestMinimize:
    def test_json_result(self, capsys):
        code, out, _ = run(capsys, "minimize", BUNDLE, "--h", "0.25", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["action"] == pytest.approx(0.0, abs=1e-10)
        assert len(payload["times"]) == 17 == len(payload["nodes"])
        assert payload["trajectory"]["breakpoints"][0] == -1.0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "solution.json"
        code, out, _ = run(
            capsys, "minimize", BUNDLE, "--h", "0.25", "--json", "--out", str(path)
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_csv_nodes(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        code, _, _ = run(capsys, "minimize", BUNDLE, "--h", "0.25", "--csv", str(path))
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,q0"
        assert len(lines) == 18
        last_t, last_q = (float(x) for x in lines[-1].split(","))
        assert (last_t, last_q) == (3.0, pytest.approx(1.0, abs=1e-7))

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "minimize", BUNDLE, "--h", "0.25")
        assert code == 0
        assert "action = " in out and "converged" in out

    def test_incommensurate_step_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "minimize", BUNDLE, "--h", "0.07")
        assert code == 2
        assert "whole number" in err

    def test_negative_iteration_limit_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "minimize", BUNDLE, "--h", "0.25", "--max-iter", "-3"
        )
        assert code == 2
        assert out == ""
        assert "max_iter must be non-negative" in err

    def test_grid_too_fine_for_newton_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "minimize", BUNDLE, "--h", "0.0005")
        assert code == 2
        assert out == ""
        assert "8001 node coordinates" in err

    def test_trace_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "minimize", BUNDLE, "--h", "0.25", "--json", "--trace", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "action", "grad_norm", "iterations", "converged", "message",
            "times", "nodes", "trajectory",
        }
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,action,grad_norm,alpha,backtracks,decrement,shift"
        assert len(lines) == 1 + payload["iterations"]
        last = lines[-1].split(",")
        assert last[0] == str(payload["iterations"])
        assert float(last[1]) == payload["action"]
        assert float(last[2]) == payload["grad_norm"]
        assert last[4] == "0"


class TestReport:
    def test_classification_of_the_kinked_extremal(self, capsys):
        code, out, _ = run(capsys, "report", BUNDLE, "--grid", "60")
        assert code == 0
        assert (
            "EL-extremal (regional): yes; DBR-extremal: no; "
            "Noether charge conserved: no" in out
        )

    def test_classification_of_the_fully_extremal_variant(self, capsys):
        code, out, _ = run(
            capsys, "report", BUNDLE, "--trajectory", "el_dbr", "--grid", "60"
        )
        assert code == 0
        assert (
            "EL-extremal (regional): yes; DBR-extremal: yes; "
            "Noether charge conserved: yes" in out
        )

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "report", BUNDLE, "--json", "--grid", "60")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "action",
            "warnings",
            "el",
            "el_integral",
            "dbr",
            "noether",
            "classification",
        }
        assert payload["action"] == pytest.approx(4.0, abs=1e-10)
        assert payload["el"]["verdict"] is True
        assert payload["dbr"]["verdict"] is False
        assert payload["noether"]["junction_gap"] == pytest.approx(0.0, abs=1e-9)

    def test_checks_share_one_set_up(self, capsys, monkeypatch):
        # One sample grid, one Gauss table cut at the samples (the action
        # builds its own) and one argument batch per point set, each with
        # its batch at t + tau: 2 at the samples, 2 at the nodes, 2 for the
        # two one-sided charges at the junction and 1 for the action.
        calls = Counter()
        counting = functools.partial(counting_into, calls)
        originals = {
            "sample_times": conditions.sample_times,
            "gauss_nodes": functional.gauss_nodes,
        }
        for module in (functional, conditions, noether, cli):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        monkeypatch.setattr(Problem, "bindings", counting("bindings", Problem.bindings))
        code, _, _ = run(capsys, "report", BUNDLE, "--json")
        assert code == 0
        assert calls["sample_times"] == 1
        assert calls["gauss_nodes"] == 2
        assert calls["bindings"] <= 7

    def test_commands_never_reach_the_one_point_layer(self, capsys, monkeypatch):
        # The one-point forms, the per-time charge and the invariance
        # residual serve callers outside the commands, which run batched.
        calls = Counter()
        counting = functools.partial(counting_into, calls)
        originals = {
            "DelayedArgs": trajectory.DelayedArgs,
            "delayed_args": trajectory.delayed_args,
            "block_term": conditions.block_term,
            "psi": conditions.psi,
            "el_residual_differential": conditions.el_residual_differential,
            "effective_segment": conditions.effective_segment,
            "_point": noether._point,
            "eta_value": noether.eta_value,
            "xi_value": noether.xi_value,
            "rho": noether.rho,
            "noether_charge": noether.noether_charge,
            "invariance_residual": noether.invariance_residual,
        }
        for module in (trajectory, functional, conditions, noether, cli):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        methods = {
            PiecewiseTrajectory: ("eval_derivative", "segment_interval"),
            Problem: ("args", "partial", "lagrangian_value", "prehistory_value"),
        }
        for owner, names in methods.items():
            for name in names:
                original = getattr(owner, name)
                monkeypatch.setattr(owner, name, counting(name, original))
        variants = ("el_only", "el_dbr")
        checks = ("el", "el-integral", "dbr", "invariance", "noether")
        commands = [
            *(["report", BUNDLE, "--json", "--trajectory", v] for v in variants),
            ["action", BUNDLE],
            ["minimize", BUNDLE, "--h", "0.25"],
            *(["check", which, BUNDLE] for which in checks),
            ["check", "dbr", BUNDLE, "--from-solver", "--h", "0.25"],
        ]
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1), err
        assert calls == Counter()


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "action", "/nonexistent/problem.json")
        assert code == 2
        assert err.startswith("error:")

    def test_invariance_needs_a_symmetry_block(self, capsys, tmp_path):
        doc = json.loads(bundled_problem_path().read_text(encoding="utf-8"))
        del doc["symmetry"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "check", "invariance", str(path), "--grid", "30")
        assert code == 2
        assert "no symmetry block" in err
        code, _, err = run(capsys, "report", str(path))
        assert code == 2
        assert "no symmetry block" in err

    @pytest.mark.parametrize("argv", [["check", "el"], ["check", "noether"], ["report"]])
    def test_an_empty_sample_budget_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, BUNDLE, "--grid", "0")
        assert code == 2
        assert out == ""
        assert err == "error: points must be >= 1\n"

    def test_schema_errors_exit_2(self, capsys, tmp_path):
        doc = json.loads(bundled_problem_path().read_text(encoding="utf-8"))
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "action", str(path))
        assert code == 2
        assert "unknown keys: surprise" in err


class TestGoldenOutput:
    @pytest.mark.parametrize("variant", ["el_only", "el_dbr"])
    def test_report_json_is_byte_identical(self, capsys, variant):
        # Recorded from the one-point-at-a-time implementation that the
        # batched evaluation replaced.
        code, out, _ = run(capsys, "report", BUNDLE, "--json", "--trajectory", variant)
        assert code == 0
        assert out == (DATA / f"report_{variant}.json").read_text(encoding="utf-8")

    CHECKS = {
        "el": ["el"],
        "el_integral": ["el-integral"],
        "el_integral_global": ["el-integral", "--mode", "global"],
        "dbr": ["dbr"],
        "invariance": ["invariance"],
        "noether": ["noether"],
    }

    @pytest.mark.parametrize("variant", ["el_only", "el_dbr"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_check_json_is_byte_identical(self, capsys, name, variant):
        code, out, _ = run(
            capsys, "check", *self.CHECKS[name], BUNDLE, "--json", "--trajectory", variant
        )
        assert out == (DATA / f"check_{name}_{variant}.json").read_text(encoding="utf-8")
        assert code == (0 if json.loads(out)["verdict"] else 1)

    @pytest.mark.parametrize("variant", ["el_only", "el_dbr"])
    def test_check_noether_text_is_byte_identical(self, capsys, variant):
        code, out, _ = run(capsys, "check", "noether", BUNDLE, "--trajectory", variant)
        assert out == (DATA / f"check_noether_{variant}.txt").read_text(encoding="utf-8")
        assert code == (1 if variant == "el_only" else 0)


class TestDomainErrors:
    """L = log(q0) (q0' + q0'_tau)^2 along a curve that is negative on
    (0, 2): every check meets log of a non-positive value."""

    MESSAGE = "log of non-positive value in 'log(q0_d0)'"

    @pytest.fixture
    def path(self, tmp_path):
        doc = json.loads(bundled_problem_path().read_text(encoding="utf-8"))
        doc["lagrangian"] = "log(q0) * (q0_d1 + q0_d1_tau)^2"
        doc["trajectories"]["negative"] = {
            "breakpoints": [-1.0, 0.0, 1.0, 3.0],
            "segments": [[[1.0, -1.0]], [[0.0, -1.0]], [[-1.0, 1.0]]],
        }
        path = tmp_path / "log.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "el"],
            ["check", "el-integral"],
            ["check", "dbr"],
            ["check", "noether"],
            ["check", "invariance"],
            ["report"],
            ["action"],
        ],
    )
    def test_same_message_and_exit_2(self, capsys, path, argv):
        code, out, err = run(capsys, *argv, path, "--json", "--trajectory", "negative")
        assert code == 2
        assert out == ""
        assert err == f"error: {self.MESSAGE}\n"

    def test_the_api_raises_domain_error(self, path):
        doc = load_document(path)
        problem, traj = doc.problem, doc.trajectory("negative")
        checks = [
            lambda: check_el_differential(Samples(problem, traj)),
            lambda: el_first_integral(Samples(problem, traj)),
            lambda: dbr_first_integral(Samples(problem, traj)),
            lambda: check_conservation(Samples(problem, traj), doc.symmetry),
        ]
        for check in checks:
            with pytest.raises(DomainError) as info:
                check()
            assert str(info.value) == self.MESSAGE
