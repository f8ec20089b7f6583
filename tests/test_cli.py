"""Tests of config parsing and the command-line front-end."""

import os

import numpy as np
import pytest
import yaml

from projsd import SchemaError
from projsd.cli import TRACE_HEADER, main, parse_config

MINIMAL_SINGLE = """
mode: single
space: {dim: 2}
model:
  kind: linear
  matrix: [[2.0, 0.0], [0.0, 3.0]]
set: {kind: wholespace}
data:
  ydelta: [1.0, 1.0]
solver: {etaHat: 1.0e-8}
x0: [0.0, 0.0]
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_SINGLE)
        assert cfg.mode == "single"
        assert cfg.s == 2.0
        assert cfg.space.r == 2.0
        assert cfg.max_iterations == 10 ** 6
        assert cfg.eta == 0.0
        np.testing.assert_array_equal(cfg.space.weights, [1.0, 1.0])

    def test_unknown_keys_rejected(self):
        text = MINIMAL_SINGLE + "\nbogus: 1\n"
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("bogus" in m for m in exc.value.errors)

    def test_nested_unknown_key(self):
        text = MINIMAL_SINGLE.replace("space: {dim: 2}",
                                      "space: {dim: 2, color: red}")
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("space.color" in m for m in exc.value.errors)

    def test_all_errors_collected(self):
        text = """
mode: single
space: {dim: -1}
model: {kind: nosuch}
set: {kind: nosuch}
data: {}
solver: {etaHat: -1.0}
"""
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        msgs = "\n".join(exc.value.errors)
        assert "space.dim" in msgs
        assert "model.kind" in msgs
        assert "set.kind" in msgs
        assert "data" in msgs
        assert "x0" in msgs

    def test_threshold_boundary_rejected_with_citation(self):
        text = MINIMAL_SINGLE.replace(
            "solver: {etaHat: 1.0e-8}",
            "solver: {eta: 0.1, etaHat: 0.30000000000000004}")
        # etaHat == 3 * eta exactly (in floats) must be rejected.
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("etaHat > 3 * eta" in m for m in exc.value.errors)

    def test_non_nested_subspaces_rejected(self):
        text = """
mode: multilevel
space: {dim: 4}
epsilon: 1.0
levels:
  - {eta: 0.1, C: 1.0, L: 0.0, Lhat: 1.0,
     set: {kind: subspace, support: [0, 1]}}
  - {eta: 0.01, C: 2.0, L: 0.0, Lhat: 1.0,
     set: {kind: subspace, support: [0, 2]}}
solver: {etaHat: 0.05}
x0: [0.0, 0.0, 0.0, 0.0]
"""
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("nested" in m for m in exc.value.errors)

    def test_matrix_file_sidecar(self, tmp_path):
        np.savetxt(tmp_path / "A.csv", np.eye(2), delimiter=",")
        text = MINIMAL_SINGLE.replace(
            "matrix: [[2.0, 0.0], [0.0, 3.0]]", "matrixFile: A.csv")
        cfg = parse_config(text, base_dir=str(tmp_path))
        np.testing.assert_allclose(cfg.model.matrix, np.eye(2))

    def test_invalid_yaml(self):
        with pytest.raises(SchemaError):
            parse_config("mode: [unterminated")

    def test_bad_mode(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("mode: nosuch")
        assert any("mode" in m for m in exc.value.errors)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def single_config(tmp_path, **overrides):
    doc = yaml.safe_load(MINIMAL_SINGLE)
    doc["output"] = {"tracePath": str(tmp_path / "trace.csv"),
                     "summaryPath": str(tmp_path / "summary.yaml")}
    doc.update(overrides)
    return write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))


class TestExecuteSingle:
    def test_exit_zero_and_outputs(self, tmp_path):
        path = single_config(tmp_path)
        assert main(["run", path, "--quiet"]) == 0
        trace = (tmp_path / "trace.csv").read_text()
        assert trace.splitlines()[0] == TRACE_HEADER
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["stopReason"] == "DiscrepancyMet"

    def test_trace_determinism(self, tmp_path):
        path = single_config(tmp_path)
        assert main(["run", path, "--quiet"]) == 0
        first = (tmp_path / "trace.csv").read_bytes()
        assert main(["run", path, "--quiet"]) == 0
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_diagnostics_columns(self, tmp_path):
        doc = yaml.safe_load(MINIMAL_SINGLE)
        doc["diagnostics"] = {"referenceSolution": [0.5, 1.0 / 3.0],
                              "checkTheorems": True}
        doc["output"] = {"tracePath": str(tmp_path / "t.csv"),
                         "summaryPath": str(tmp_path / "s.yaml")}
        path = write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert row[-1] in ("true", "false")
        assert float(row[-2]) >= 0.0
        summary = yaml.safe_load((tmp_path / "s.yaml").read_text())
        assert summary["theoremChecks"]["monotonicityViolations"] == 0

    def test_empty_diag_columns_without_reference(self, tmp_path):
        path = single_config(tmp_path)
        main(["run", path, "--quiet"])
        row = (tmp_path / "trace.csv").read_text().splitlines()[1]
        assert row.endswith(",,")

    def test_exit_two_on_solver_abort(self, tmp_path):
        # An inconsistent system keeps the residual above the threshold.
        path = single_config(
            tmp_path,
            model={"kind": "linear",
                   "matrix": [[1.0, 0.0], [1.0, 0.0]]},
            data={"ydelta": [0.0, 1.0]},
            solver={"etaHat": 1e-8, "maxIterations": 50})
        assert main(["run", path, "--quiet"]) == 2

    def test_exit_three_on_schema_error(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "mode: nosuch\n")
        assert main(["run", path, "--quiet"]) == 3

    def test_exit_four_on_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml"), "--quiet"]) == 4

    def test_cli_flag_overrides(self, tmp_path):
        path = single_config(tmp_path)
        other = str(tmp_path / "other.csv")
        assert main(["run", path, "--trace", other, "--quiet"]) == 0
        assert os.path.exists(other)


class TestExecuteMultilevel:
    def make_config(self, tmp_path):
        dim = 8
        sigma = np.exp(-np.arange(dim))
        ydelta = sigma.tolist()
        levels = []
        for n, m in enumerate([2, 4, 6, 8]):
            sup = list(range(m))
            tail = np.array(ydelta)
            tail[:m] = 0.0
            eta = float(np.linalg.norm(tail))
            levels.append({
                "eta": eta,
                "C": float(2 ** -0.5 / sigma[m - 1]),
                "L": 0.0,
                "Lhat": 1.0,
                "set": {"kind": "subspace", "support": sup},
                "model": {"kind": "diagonal", "sigma": sigma.tolist()},
                "data": {"ydelta": ydelta, "eta": eta},
            })
        doc = {
            "mode": "multilevel",
            "space": {"dim": dim},
            "epsilon": 1.0,
            "levels": levels,
            "solver": {"etaHat": 5.0e-3},
            "x0": [0.0] * dim,
            "output": {"tracePath": str(tmp_path / "ml.csv"),
                       "summaryPath": str(tmp_path / "ml.yaml")},
        }
        return write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))

    def test_end_to_end(self, tmp_path):
        path = self.make_config(tmp_path)
        assert main(["run", path, "--quiet"]) == 0
        summary = yaml.safe_load((tmp_path / "ml.yaml").read_text())
        assert summary["stopReason"] == "DiscrepancyMet"
        assert summary["finalResidual"] <= 5.0e-3
        assert [lv["level"] for lv in summary["perLevel"]] == [0, 1, 2, 3]
        lines = (tmp_path / "ml.csv").read_text().splitlines()
        levels_seen = {line.split(",")[0] for line in lines[1:]}
        assert levels_seen == {"0", "1", "2", "3"}


class TestValidateAndExampleSchedule:
    def schedule_config(self, tmp_path, lam=0.1, eta_hat=1e-3):
        import math
        tau = 0.5 * (0.5 ** 1.5) / (16.0 * lam * (4.0 * math.e + 1.0))
        doc = {
            "mode": "example-schedule",
            "space": {"dim": 4},
            "schedule": {"lam": lam, "tau": tau, "etaHat": eta_hat},
            "output": {"schedulePath": str(tmp_path / "gen.yaml"),
                       "summaryPath": str(tmp_path / "gs.yaml")},
        }
        return write(tmp_path, "ex.yaml", yaml.safe_dump(doc))

    def test_example_schedule_round_trip(self, tmp_path):
        path = self.schedule_config(tmp_path)
        assert main(["run", path, "--quiet"]) == 0
        gen = str(tmp_path / "gen.yaml")
        # The generated document is itself a valid config.
        assert main(["run", gen, "--summary",
                     str(tmp_path / "vs.yaml"), "--quiet"]) == 0
        summary = yaml.safe_load((tmp_path / "vs.yaml").read_text())
        assert summary["valid"]
        assert all(t["ok"] for t in summary["transitions"])
        assert all(t["lhs"] < t["rhs"] for t in summary["transitions"])

    def test_validate_closed_form(self, tmp_path):
        import math
        lam = 0.1
        tau = 0.5 * (0.5 ** 1.5) / (16.0 * lam * (4.0 * math.e + 1.0))
        doc = {
            "mode": "validate",
            "space": {"dim": 4},
            "schedule": {"lam": lam, "tau": tau, "etaHat": 1e-3},
            "output": {"summaryPath": str(tmp_path / "v.yaml")},
        }
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 0

    def test_validate_bad_tau_exits_three(self, tmp_path):
        doc = {
            "mode": "validate",
            "space": {"dim": 4},
            "schedule": {"lam": 0.1, "tau": 100.0, "etaHat": 1e-3},
        }
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 3

    def test_validate_invalid_levels_exits_three(self, tmp_path):
        doc = {
            "mode": "validate",
            "space": {"dim": 2},
            "epsilon": 1.0,
            "levels": [
                {"eta": 10.0, "C": 1.0, "L": 0.5, "Lhat": 1.0},
                {"eta": 0.01, "C": 1.0, "L": 0.5, "Lhat": 1.0},
            ],
            "solver": {"etaHat": 0.05},
        }
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 3


class TestParseTimeInputContract:
    """Bad input is rejected while parsing, with exit code 3 and the path
    of the offending field, before any solver work."""

    def run_bad(self, tmp_path, capsys, path_prefix, **overrides):
        # A small iteration cap bounds the run if the input slips through.
        overrides.setdefault("solver", {"etaHat": 1.0e-8,
                                        "maxIterations": 50})
        path = single_config(tmp_path, **overrides)
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert f"config error: {path_prefix}" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_nonlinear_model_without_cstab(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "model.cstab:",
                     model={"kind": "quadratic", "eps": 0.1,
                            "matrix": [[2.0, 0.0], [0.0, 3.0]]})

    def test_x0_length(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "x0:", x0=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("ydelta", [[1.0], [1.0, 1.0, 1.0]])
    def test_ydelta_length(self, tmp_path, capsys, ydelta):
        self.run_bad(tmp_path, capsys, "data:", data={"ydelta": ydelta})

    def test_model_input_length(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "model:",
                     model={"kind": "linear",
                            "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})

    def test_non_finite_x0(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "x0:", x0=[float("nan"), 0.0])

    def test_non_finite_ydelta(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "data.ydelta:",
                     data={"ydelta": [float("inf"), 1.0]})

    def test_non_finite_reference(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "diagnostics.referenceSolution:",
                     diagnostics={"referenceSolution": [float("nan"), 0.0],
                                  "checkTheorems": True})

    def test_check_theorems_needs_reference(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "diagnostics.checkTheorems:",
                     diagnostics={"checkTheorems": True})

    def test_box_bounds_keep_infinity(self, tmp_path):
        path = single_config(tmp_path, set={"kind": "box",
                                            "lower": [float("-inf"), 0.0],
                                            "upper": [float("inf"), 1.0]})
        assert main(["run", path, "--quiet"]) == 0

    def test_multilevel_level_data_length(self, tmp_path, capsys):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][1]["data"]["ydelta"] = [1.0, 2.0]
        doc["levels"][2]["reference"] = [0.0]
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert "config error: levels[1].data:" in err
        assert "config error: levels[2].reference:" in err

    @pytest.mark.parametrize("cset, field", [
        ({"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3}, "lower"),
        ({"kind": "ball", "center": [0.0] * 3, "radius": 1.0}, "center"),
        ({"kind": "subspace", "support": [0, 5]}, "support"),
    ])
    def test_set_parameters_fit_space(self, tmp_path, capsys, cset, field):
        self.run_bad(tmp_path, capsys, f"set.{field}:", set=cset)

    def test_level_set_fits_space(self, tmp_path, capsys):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][3]["set"]["support"] = list(range(9))
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert "config error: levels[3].set.support:" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["multilevel", "validate"])
    @pytest.mark.parametrize("eta_hat", [-1.0, 0.0])
    def test_nonpositive_eta_hat(self, tmp_path, capsys, mode, eta_hat):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["mode"] = mode
        doc["solver"]["etaHat"] = eta_hat
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert "config error: solver.etaHat:" in capsys.readouterr().err
        assert not (tmp_path / "ml.csv").exists()


def test_step_identity_violation_exits_two(tmp_path, monkeypatch, capsys):
    # A negative tolerance makes the round-off check fail on any step.
    import projsd.solver
    monkeypatch.setattr(projsd.solver, "_SELF_CHECK_TOL", -1.0)
    path = single_config(tmp_path)
    assert main(["run", path]) == 2
    assert "solver abort: step-size identities" in capsys.readouterr().err
