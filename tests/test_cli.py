"""Tests of config parsing and the command-line front-end."""

import copy
import inspect
import math
import os
import types

import numpy as np
import pytest
import yaml

import projsd.cli as cli_module
from projsd import (Box, CoordinateSubspace, DiagonalLinearModel,
                    IterationState, Level, LinearModel, NonConvergence,
                    Schedule, SchemaError, SolverConfig, WholeSpace,
                    bregman_distance, lp_space, run_algorithm1,
                    run_multi_level, validate_transition)
from projsd.cli import TRACE_HEADER, main, parse_config

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                       "nonlinear_multilevel.yaml")
SINGLE_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE),
                              "quadratic_single.yaml")
BALL_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE), "offcentre_ball.yaml")
BALL_L3_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE),
                               "offcentre_ball_l3.yaml")
SUBSPACE_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE),
                                "subspace_linear_l3.yaml")
SUBSPACE_L15_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE),
                                    "subspace_l15.yaml")
CRITERION7_EXAMPLE = os.path.join(os.path.dirname(EXAMPLE),
                                  "criterion7_multilevel.yaml")

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
        assert cfg.model.s == 2.0
        assert cfg.space.r == 2.0
        assert cfg.max_iterations == 10 ** 6
        assert cfg.eta == 0.0
        assert cfg.space.weights is None       # unit weights

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

    def test_non_nested_boxes_rejected(self, tmp_path, capsys):
        # Level 1's box shrank inside level 0's; the config ran.
        text = """
mode: multilevel
space: {dim: 2}
epsilon: 1.0
levels:
  - {eta: 0.1, C: 1.0, L: 0.0, Lhat: 1.0,
     set: {kind: box, lower: [-1.0, 0.0], upper: [1.0, 0.0]},
     model: {kind: linear, matrix: [[1.0, 0.0], [0.0, 1.0]]},
     data: {ydelta: [0.5, 0.5]}}
  - {eta: 0.01, C: 2.0, L: 0.0, Lhat: 1.0,
     set: {kind: box, lower: [-0.5, -1.0], upper: [1.0, 1.0]},
     model: {kind: linear, matrix: [[1.0, 0.0], [0.0, 1.0]]},
     data: {ydelta: [0.5, 0.5]}}
solver: {etaHat: 0.05}
x0: [0.0, 0.0]
"""
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert exc.value.errors == [
            "levels[0].set: boxes must be nested, [lower, upper] of level 0 "
            "is not contained in level 1"]
        path = write(tmp_path, "shrinking.yaml", text)
        assert main(["run", path]) == 3
        assert "boxes must be nested" in capsys.readouterr().err
        parse_config(text.replace("lower: [-0.5, -1.0]",
                                  "lower: [-1.0, -1.0]"))
        with open(EXAMPLE) as fh:
            parse_config(fh.read())
        # Without a space the box lengths are not checked; boxes of two
        # lengths are not compared.
        with pytest.raises(SchemaError) as exc:
            parse_config(text.replace("dim: 2", "dim: 0").replace(
                "lower: [-0.5, -1.0], upper: [1.0, 1.0]",
                "lower: [-0.5, -1.0, 0.0], upper: [1.0, 1.0, 0.0]"))
        assert exc.value.errors == [
            "space.dim: dim = 0 must be an integer >= 1"]

    def test_subspace_and_box_levels_nest_by_one_rule(self, tmp_path,
                                                      capsys):
        # Level 0's subspace, the axis R x {0}, is not inside level 1's box;
        # the config validated.  A box inside the next subspace passes.
        text = """
mode: multilevel
space: {dim: 2}
epsilon: 1.0
levels:
  - {eta: 0.1, C: 1.0, L: 0.0, Lhat: 1.0,
     set: {kind: subspace, support: [0]},
     model: {kind: linear, matrix: [[1.0, 0.0], [0.0, 1.0]]},
     data: {ydelta: [0.5, 0.5]}}
  - {eta: 0.01, C: 2.0, L: 0.0, Lhat: 1.0,
     set: {kind: box, lower: [-1.0, -1.0], upper: [1.0, 1.0]},
     model: {kind: linear, matrix: [[1.0, 0.0], [0.0, 1.0]]},
     data: {ydelta: [0.5, 0.5]}}
solver: {etaHat: 0.05}
x0: [0.0, 0.0]
"""
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert exc.value.errors == [
            "levels[0].set: boxes must be nested, [lower, upper] of level 0 "
            "is not contained in level 1"]
        path = write(tmp_path, "subspace-then-box.yaml", text)
        assert main(["run", path]) == 3
        assert "boxes must be nested" in capsys.readouterr().err
        inside = (text.replace("subspace, support: [0]", "box, lower: "
                               "[-1.0, 0.0], upper: [1.0, 0.0]")
                  .replace("box, lower: [-1.0, -1.0], upper: [1.0, 1.0]",
                           "subspace, support: [0]"))
        levels = parse_config(inside).levels
        assert [type(lv.cset) for lv in levels] == [Box, CoordinateSubspace]

    @pytest.mark.parametrize("mode", ["multilevel", "validate"])
    @pytest.mark.parametrize("inner", ["box", "subspace"])
    def test_whole_space_levels_nest_by_the_same_rule(self, tmp_path,
                                                      capsys, mode, inner):
        # R^2 lies inside no box or subspace, yet a whole-space level before
        # one parsed.  A box or subspace before a whole-space level passes.
        sets = {"wholespace": {"kind": "wholespace"},
                "box": {"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]},
                "subspace": {"kind": "subspace", "support": [0]}}

        def doc(kinds):
            levels = [{"eta": eta, "C": C, "L": 0.0, "Lhat": 1.0,
                       "set": sets[kind],
                       "model": {"kind": "linear",
                                 "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                       "data": {"ydelta": [0.5, 0.5]}}
                      for kind, eta, C in zip(kinds, (0.1, 0.01), (1.0, 2.0))]
            return yaml.safe_dump(
                {"mode": mode, "space": {"dim": 2}, "epsilon": 1.0,
                 "levels": levels, "solver": {"etaHat": 0.05},
                 **({"x0": [0.0, 0.0]} if mode == "multilevel" else {})})

        text = doc(["wholespace", inner])
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert exc.value.errors == [
            "levels[0].set: boxes must be nested, [lower, upper] of level 0 "
            "is not contained in level 1"]
        assert main(["run", write(tmp_path, "whole-first.yaml", text)]) == 3
        assert capsys.readouterr().err == \
            f"config error: {exc.value.errors[0]}\n"
        levels = parse_config(doc([inner, "wholespace"])).levels
        assert isinstance(levels[1].cset, WholeSpace)

    def test_whole_space_levels_of_a_huge_space_build_no_array(self,
                                                               tmp_path,
                                                               capsys):
        # The whole space's bounds are scalars: nesting two whole-space
        # levels of R^(10**12) allocates nothing of that size.
        levels = [{"eta": eta, "C": C, "L": 0.0, "Lhat": 1.0,
                   "set": {"kind": "wholespace"}}
                  for eta, C in ((0.1, 1.0), (0.01, 2.0))]
        path = write(tmp_path, "huge.yaml", yaml.safe_dump(
            {"mode": "validate", "space": {"dim": 10 ** 12}, "epsilon": 1.0,
             "solver": {"etaHat": 0.05}, "levels": levels}))
        assert main(["run", path]) == 0
        assert capsys.readouterr() == ("schedule valid\n", "")

    def test_matrix_file_sidecar(self, tmp_path):
        np.savetxt(tmp_path / "A.csv", np.eye(2), delimiter=",")
        text = MINIMAL_SINGLE.replace(
            "matrix: [[2.0, 0.0], [0.0, 3.0]]", "matrixFile: A.csv")
        cfg = parse_config(text, base_dir=str(tmp_path))
        np.testing.assert_allclose(cfg.model.matrix, np.eye(2))

    def test_invalid_yaml(self):
        with pytest.raises(SchemaError):
            parse_config("mode: [unterminated")

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    def test_invalid_yaml_exits_three_under_both_loaders(
            self, tmp_path, monkeypatch, capsys, loader):
        use_loader(monkeypatch, loader)
        path = write(tmp_path, "bad.yaml", "mode: [unterminated\n")
        assert main(["run", path]) == 3
        assert "config error: config: invalid YAML" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize("scalar", ["1" + "0" * 5000, "2020-13-45"],
                             ids=["5001-digit-int", "bad-date"])
    def test_unconstructible_scalar_exits_three(self, tmp_path, monkeypatch,
                                                capsys, loader, scalar):
        # The constructor's ValueError ended in a traceback.
        use_loader(monkeypatch, loader)
        path = write(tmp_path, "bad.yaml", MINIMAL_SINGLE.replace(
            "etaHat: 1.0e-8", f"etaHat: {scalar}"))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: config: invalid YAML: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config", ["example", "minimal", "quadratic",
                                        "multilevel", "schedule"])
    def test_both_loaders_give_equal_configs(self, tmp_path, monkeypatch,
                                             config):
        text = loader_config_text(tmp_path, config)
        use_loader(monkeypatch, "libyaml")
        fast = parse_config(text, base_dir=str(tmp_path))
        monkeypatch.undo()
        use_loader(monkeypatch, "python")
        plain = parse_config(text, base_dir=str(tmp_path))
        assert structure(fast) == structure(plain)

    def test_bad_mode(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("mode: nosuch")
        assert any("mode" in m for m in exc.value.errors)


# Single-mode overrides of a quadratic run on a box; the reference is no
# solution, so the strict bound fails.
QUADRATIC_FLAGS_FAIL = {
    "model": {"kind": "quadratic", "eps": 0.05, "cstab": 0.5, "lhat": 3.5,
              "matrix": [[2.0, 0.0], [0.0, 3.0]]},
    "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "solver": {"etaHat": 1e-6},
    "diagnostics": {"referenceSolution": [0.45, 0.3],
                    "checkTheorems": True},
}


def use_loader(monkeypatch, loader):
    """Check that parse_config loads with libyaml's loader when PyYAML has
    it, or remove that loader so that PyYAML's own parser runs."""
    if loader == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        expected = yaml.SafeLoader
    elif hasattr(yaml, "CSafeLoader"):
        expected = yaml.CSafeLoader
    else:
        pytest.skip("PyYAML is built without libyaml")
    real_load = yaml.load

    def load(stream, Loader):
        assert Loader is expected
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)


def structure(obj):
    """Nested plain values of a parsed config: arrays as bytes, objects as
    their type name and attributes."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [structure(v) for v in obj]
    if isinstance(obj, dict):
        return {k: structure(v) for k, v in obj.items()}
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, structure(vars(obj)))
    return obj


def loader_config_text(tmp_path, config):
    if config == "example":
        with open(EXAMPLE) as fh:
            return fh.read()
    if config == "multilevel":
        path = TestExecuteMultilevel().make_config(tmp_path)
    elif config == "schedule":
        path = TestValidateAndExampleSchedule().schedule_config(tmp_path)
    elif config == "quadratic":
        path = single_config(tmp_path, **QUADRATIC_FLAGS_FAIL)
    else:
        return MINIMAL_SINGLE
    with open(path) as fh:
        return fh.read()


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

    def test_nonlinear_example_checks_theorems(self, tmp_path):
        # The committed single-level example: c~ > 0, so the radius is
        # finite, and every theorem check holds.
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", SINGLE_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        with open(SINGLE_EXAMPLE) as fh:
            cfg = parse_config(fh.read())
        assert cfg.model.lip > 0.0 and cfg.check_theorems
        summary = yaml.safe_load(outputs[0][1])
        assert 0.0 < summary["rho"] < float("inf")
        assert summary["theoremChecks"] == {
            "iterations": summary["stoppedAtK"], "monotonicityViolations": 0,
            "radiusOkAll": True, "strictBoundOkAll": True}

    def test_offcentre_ball_example(self, tmp_path, monkeypatch):
        # The committed off-centre ball example (r = 1.5, p = 2) runs to
        # exit 0 with repeatable bytes, and the joint search, not the
        # nested searches, projects each of the 40 points that leave the
        # ball.
        import projsd.sets
        joint = projsd.sets._joint_ball_search
        found = []

        def recording(*args):
            y = joint(*args)
            found.append(y is not None)
            return y

        monkeypatch.setattr(projsd.sets, "_joint_ball_search", recording)
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", BALL_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        assert yaml.safe_load(outputs[0][1])["stoppedAtK"] == 42
        assert found == [True] * 80

    def test_offcentre_ball_l3_example(self, tmp_path, monkeypatch):
        # The committed off-centre ball example at r = p = 3 runs to exit 0
        # with repeatable bytes, and the search for the multiplier
        # projects 28 of its 76 steps.
        import projsd.sets
        search = projsd.sets._ball_search
        calls = []

        def recording(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(projsd.sets, "_ball_search", recording)
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", BALL_L3_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        assert yaml.safe_load(outputs[0][1])["stoppedAtK"] == 76
        assert len(calls) == 2 * 28

    def test_subspace_linear_l3_example(self, tmp_path, monkeypatch):
        # The committed dense linear example on a coordinate subspace at
        # r = p = 3 runs to exit 0 with repeatable bytes and every theorem
        # check holding.  The projection truncates the start and each of
        # the 188 steps, and the model, a built-in one, is not called.
        import projsd.sets
        projector = projsd.sets.CoordinateSubspace._projector
        calls = []

        def recording(self, space):
            truncate = projector(self, space)

            def counted(x):
                calls.append(1)
                return truncate(x)
            return counted

        def not_called(*args):
            raise AssertionError("a built-in model was called")

        monkeypatch.setattr(projsd.sets.CoordinateSubspace, "_projector",
                            recording)
        for name in ("eval", "apply_adjoint"):
            monkeypatch.setattr(LinearModel, name, not_called)
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", SUBSPACE_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        summary = yaml.safe_load(outputs[0][1])
        assert summary["stopReason"] == "DiscrepancyMet"
        assert summary["stoppedAtK"] == 188
        assert summary["theoremChecks"] == {
            "iterations": 188, "monotonicityViolations": 0,
            "radiusOkAll": True, "strictBoundOkAll": True}
        assert len(calls) == 2 * (188 + 1)

    def test_subspace_l15_example(self, tmp_path, monkeypatch):
        # The committed subspace example at r = 1.5, p = 2 runs to exit 0
        # with repeatable bytes and every theorem check holding.  Each of
        # its 7 steps leaves the subspace, so each projection rescales the
        # truncation, in closed form: the root search is not called.
        import projsd.sets
        projector = projsd.sets.CoordinateSubspace._projector
        rescaled = []

        def recording(self, space):
            project = projector(self, space)

            def compared(x):
                y = project(x)
                truncated = np.where(np.isin(np.arange(x.size),
                                             self.support), x, 0.0)
                rescaled.append(not np.array_equal(y, truncated))
                return y
            return compared

        def not_called(*args):
            raise AssertionError("the root search was called")

        monkeypatch.setattr(projsd.sets.CoordinateSubspace, "_projector",
                            recording)
        monkeypatch.setattr(projsd.sets, "_gauge_p_projection", not_called)
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", SUBSPACE_L15_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        summary = yaml.safe_load(outputs[0][1])
        assert summary["stopReason"] == "DiscrepancyMet"
        assert summary["stoppedAtK"] == 7
        assert summary["theoremChecks"] == {
            "iterations": 7, "monotonicityViolations": 0,
            "radiusOkAll": True, "strictBoundOkAll": True}
        # The start, 0, is a member; each step's point is rescaled.
        assert rescaled == 2 * ([False] + [True] * 7)


class TestExecuteMultilevel:
    def make_config(self, tmp_path, dense=False):
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
                "model": ({"kind": "linear",
                           "matrix": np.diag(sigma).tolist()} if dense
                          else {"kind": "diagonal", "sigma": sigma.tolist()}),
                "data": {"ydelta": ydelta},
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

    def test_criterion7_example(self, tmp_path):
        # The committed criterion-7 schedule: its levels are those of
        # DiagonalLinearModel(sigma) as its header says, it runs to exit 0
        # with repeatable bytes, per-level K = [1, 18, 86, 4502] and one
        # trace row per step, each with a Bregman distance, and every
        # theorem check holds.  Its last subspace covers the space.
        with open(CRITERION7_EXAMPLE) as fh:
            cfg = parse_config(fh.read())
        sigma = np.exp(-np.arange(8))
        model = DiagonalLinearModel(sigma)
        assert cfg.eta_hat == 5e-3 and cfg.check_theorems
        for level, m in zip(cfg.levels, [2, 4, 6, 8], strict=True):
            support = list(range(m))
            ref, eta = model.best_subspace_solution(sigma, support)
            assert (level.eta, level.C, level.L, level.Lhat) == (
                eta, model.subspace_stability_constant(support), 0.0, 1.0)
            assert level.cset.support.tolist() == support
            assert np.array_equal(level.model.sigma, sigma)
            assert np.array_equal(level.ydelta, sigma)
            assert np.array_equal(level.reference, ref)
        outputs = []
        for n in range(2):
            trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
            assert main(["run", CRITERION7_EXAMPLE, "--quiet", "--trace",
                         str(trace), "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        summary = yaml.safe_load(outputs[0][1])
        ks = [lv["K"] for lv in summary["perLevel"]]
        assert summary["stopReason"] == "DiscrepancyMet"
        assert ks == [1, 18, 86, 4502]
        assert all(lv["theoremChecks"] == {
            "iterations": lv["K"], "monotonicityViolations": 0,
            "radiusOkAll": True, "strictBoundOkAll": True}
            for lv in summary["perLevel"])
        rows = outputs[0][0].decode().splitlines()[1:]
        assert len(rows) == sum(ks) == 4607
        assert all(row.split(",")[9] for row in rows)

    def test_example_reads_check_theorems(self, tmp_path):
        # checkTheorems adds each level's theoremChecks to the summary and
        # leaves the trace and every other summary value as they were.
        with open(EXAMPLE) as fh:
            text = fh.read()
        outputs = []
        checked = "diagnostics: {checkTheorems: true}\n"
        for name, extra in (("plain", ""), ("checked", checked)):
            path = write(tmp_path, f"{name}.yaml", text + extra)
            trace, summary = tmp_path / f"{name}.csv", tmp_path / "s.yaml"
            assert main(["run", path, "--quiet", "--trace", str(trace),
                         "--summary", str(summary)]) == 0
            outputs.append((trace.read_bytes(),
                            yaml.safe_load(summary.read_text())))
        (plain_trace, plain), (checked_trace, checked) = outputs
        assert checked_trace == plain_trace
        for lv in checked["perLevel"]:
            assert lv.pop("theoremChecks") == {
                "iterations": lv["K"], "monotonicityViolations": 0,
                "radiusOkAll": True, "strictBoundOkAll": True}
        assert checked == plain
        assert all("theoremChecks" not in lv for lv in plain["perLevel"])

    @pytest.mark.parametrize("mode", ["multilevel", "validate"])
    def test_eta_too_large_names_its_level(self, tmp_path, capsys, mode):
        # With level 1's C at 50, 8 * ctilde * eta = 3.6 >= 1, and the
        # message did not say at which level.
        with open(EXAMPLE) as fh:
            doc = yaml.safe_load(fh)
        doc["levels"][1]["C"] = 50.0
        if mode == "validate":
            doc["mode"] = "validate"
            del doc["x0"]
            for lv in doc["levels"]:
                del lv["reference"]
        path = write(tmp_path, "eta.yaml", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        # Validate mode prints its verdict on stdout, run mode on stderr.
        out, err = capsys.readouterr()
        assert (out + err).startswith(
            "schedule invalid: level 1: 8 * ctilde * eta = ")

    @pytest.mark.parametrize("mode", ["multilevel", "validate"])
    def test_invalid_transition_says_by_how_much(self, tmp_path, capsys,
                                                 mode):
        # With every L three times its value, pairs 5 and 6 fail; the
        # message named them without their lhs and rhs.
        with open(EXAMPLE) as fh:
            doc = yaml.safe_load(fh)
        for lv in doc["levels"]:
            lv["L"] *= 3.0
        doc["output"] = {"summaryPath": str(tmp_path / "s.yaml")}
        if mode == "validate":
            doc["mode"] = "validate"
            del doc["x0"]
            for lv in doc["levels"]:
                del lv["reference"]
        path = write(tmp_path, "bad.yaml", yaml.safe_dump(doc))
        space = lp_space(doc["space"]["dim"])
        levels = [Level(lv["eta"], lv["C"], lv["L"], lv["Lhat"])
                  for lv in doc["levels"]]
        pairs = [(n, *validate_transition(space, a, b, doc["epsilon"]))
                 for n, (a, b) in enumerate(zip(levels, levels[1:]))]
        assert [n for n, *_, ok in pairs if not ok] == [5, 6]
        reason = "transition check failed at levels [5, 6]: " + "; ".join(
            f"level {n}: lhs {lhs} is not below rhs {rhs}"
            for n, lhs, rhs, _ in pairs[5:])
        assert main(["run", path]) == 3
        out, err = capsys.readouterr()
        # Validate mode prints its verdict on stdout, run mode on stderr.
        assert out + err == f"schedule invalid: {reason}\n"
        if mode == "validate":
            summary = yaml.safe_load((tmp_path / "s.yaml").read_text())
            assert summary["reason"] == reason
            assert [(t["level"], t["lhs"], t["rhs"])
                    for t in summary["transitions"][5:]] == \
                [p[:3] for p in pairs[5:]]

    def test_diagonal_and_dense_models_give_the_same_bytes(self, tmp_path):
        outputs = []
        for dense in (False, True):
            path = self.make_config(tmp_path, dense=dense)
            assert main(["run", path, "--quiet"]) == 0
            outputs.append(((tmp_path / "ml.csv").read_bytes(),
                            (tmp_path / "ml.yaml").read_bytes()))
        assert outputs[0] == outputs[1]


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
        # The target needs 90 levels; a cap of 64 levels refused it.
        path = self.schedule_config(tmp_path, lam=1.0, eta_hat=1e-40)
        assert main(["run", path, "--quiet"]) == 0
        assert main(["run", str(tmp_path / "gen.yaml"), "--summary",
                     str(tmp_path / "vs.yaml"), "--quiet"]) == 0
        summary = yaml.safe_load((tmp_path / "vs.yaml").read_text())
        assert summary["valid"] and summary["finalLevel"] == 89
        assert len(summary["etas"]) == 90
        assert all(t["ok"] for t in summary["transitions"])

    def test_validate_bad_tau_exits_three(self, tmp_path, capsys):
        # The closed-form levels at tau = 100, which the generator refuses
        # (TauOutOfRange), fail validation too.
        assert main(["run", self.schedule_config(tmp_path), "--quiet"]) == 0
        doc = yaml.safe_load((tmp_path / "gen.yaml").read_text())
        tau = doc["levels"][0]["L"]  # L_a = tau * exp(-a)
        for lv in doc["levels"]:
            lv["L"] *= 100.0 / tau
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert capsys.readouterr().out.startswith(
            "schedule invalid: level 1: 8 * ctilde * eta = ")

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

    def test_validate_lists_every_pair_after_eta_too_large(self, tmp_path):
        # Level 1's 8 ctilde eta is 8, so pair 0 has no lhs or rhs; pair 1
        # is still evaluated and listed.
        doc = {
            "mode": "validate",
            "space": {"dim": 2},
            "epsilon": 1.0,
            "levels": [
                {"eta": 1.0, "C": 1.0, "L": 0.5, "Lhat": 1.0},
                {"eta": 0.01, "C": 1.0, "L": 100.0, "Lhat": 1.0},
                {"eta": 0.001, "C": 1.0, "L": 0.5, "Lhat": 1.0},
            ],
            "solver": {"etaHat": 0.005},
            "output": {"summaryPath": str(tmp_path / "v.yaml")},
        }
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 3
        summary = yaml.safe_load((tmp_path / "v.yaml").read_text())
        assert not summary["valid"]
        assert summary["reason"].startswith(
            "level 1: 8 * ctilde * eta = 8.0 >= 1")
        assert summary["finalLevel"] is None
        pair0, pair1 = summary["transitions"]
        assert pair0 == {"level": 0, "ok": False}
        assert pair1["level"] == 1 and pair1["ok"]
        assert pair1["lhs"] == pytest.approx(0.04)
        assert 0.04 < pair1["rhs"] < 3.0


# Stop reason and K of each committed example: one K for a single-level
# run, the per-level K for a multilevel one, where every level stops with
# the run's reason.  Unlike the trace and summary bytes, which CI compares
# with the base commit's on one runner, these are expected to hold on any
# platform, so a local run catches a drift too.
EXAMPLE_STOPS = {
    "box_l3.yaml": ("DiscrepancyMet", 116),
    "box_l3_weighted.yaml": ("DiscrepancyMet", 189),
    "criterion7_multilevel.yaml": ("DiscrepancyMet", [1, 18, 86, 4502]),
    "nonlinear_multilevel.yaml": ("DiscrepancyMet",
                                  [0, 1, 0, 2, 4, 4, 9, 99]),
    "offcentre_ball.yaml": ("DiscrepancyMet", 42),
    "offcentre_ball_l3.yaml": ("DiscrepancyMet", 76),
    "quadratic_single.yaml": ("DiscrepancyMet", 3),
    "subspace_l15.yaml": ("DiscrepancyMet", 7),
    "subspace_linear_l3.yaml": ("DiscrepancyMet", 188),
}


def test_every_example_has_a_pinned_stop():
    # A new example config needs its row in EXAMPLE_STOPS.
    names = sorted(name for name in os.listdir(os.path.dirname(EXAMPLE))
                   if name.endswith(".yaml"))
    assert names == sorted(EXAMPLE_STOPS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_STOPS))
def test_example_stop_reason_and_k(tmp_path, name):
    reason, k = EXAMPLE_STOPS[name]
    summary = tmp_path / "summary.yaml"
    assert main(["run", os.path.join(os.path.dirname(EXAMPLE), name),
                 "--quiet", "--summary", str(summary)]) == 0
    doc = yaml.safe_load(summary.read_text())
    assert doc["stopReason"] == reason
    if isinstance(k, list):
        assert [(lv["stopReason"], lv["K"]) for lv in doc["perLevel"]] == \
            [(reason, level_k) for level_k in k]
    else:
        assert doc["stoppedAtK"] == k


def mode_doc(tmp_path, mode):
    """A runnable config document of `mode`, with every output key the
    mode reads."""
    if mode in ("single", "multilevel"):
        path = single_config(tmp_path) if mode == "single" \
            else TestExecuteMultilevel().make_config(tmp_path)
        with open(path) as fh:
            return yaml.safe_load(fh)
    with open(TestValidateAndExampleSchedule().schedule_config(tmp_path)) \
            as fh:
        doc = yaml.safe_load(fh)
    if mode == "example-schedule":
        return doc
    doc["mode"] = "validate"
    del doc["output"]["schedulePath"]
    del doc["schedule"]
    doc.update(epsilon=1.0, solver={"etaHat": 0.05}, levels=[
        {"eta": 0.1, "C": 1.0, "L": 0.0, "Lhat": 1.0},
        {"eta": 0.01, "C": 2.0, "L": 0.0, "Lhat": 1.0}])
    return doc


@pytest.mark.parametrize("mode, key", [
    ("single", "tracePath"), ("single", "summaryPath"),
    ("multilevel", "tracePath"), ("multilevel", "summaryPath"),
    ("validate", "summaryPath"), ("example-schedule", "schedulePath"),
    ("example-schedule", "summaryPath")])
@pytest.mark.parametrize("value", [5, True, ["x"], {"a": "b"}],
                         ids=["int", "bool", "list", "mapping"])
def test_output_path_must_be_a_file_name(tmp_path, capsys, mode, key, value):
    # tracePath: 5 ended in a TypeError traceback, and summaryPath: [x]
    # in one at the write, after the whole solve.
    doc = mode_doc(tmp_path, mode)
    doc["output"][key] = value
    path = write(tmp_path, "out.cfg", yaml.safe_dump(doc))
    before = sorted(os.listdir(tmp_path))
    assert main(["run", path]) == 3
    assert capsys.readouterr().err == \
        f"config error: output.{key}: expected a file name\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("dim", [10 ** 12, 10 ** 400], ids=["1e12", "1e400"])
def test_huge_dim_builds_no_array(tmp_path, capsys, dim):
    # An unweighted space allocated np.ones(dim) while parsing: 10**12
    # ended in numpy's _ArrayMemoryError traceback (exit 1), and 10**400
    # was refused in numpy's words.  Validate mode reads no vector.
    doc = {"mode": "validate", "space": {"dim": dim},
           "solver": {"etaHat": 0.05},
           "levels": [{"eta": 0.01, "C": 1.0, "L": 0.0, "Lhat": 1.0}]}
    path = write(tmp_path, "dim.cfg", yaml.safe_dump(doc))
    assert main(["run", path]) == 0
    assert capsys.readouterr() == ("schedule valid\n", "")


def test_huge_dim_single_mode_reports_the_vectors(tmp_path, capsys):
    path = write(tmp_path, "dim.cfg", MINIMAL_SINGLE.replace(
        "space: {dim: 2}", "space: {dim: 1000000000000}"))
    assert main(["run", path]) == 3
    assert "config error: x0: expected 1000000000000 entries (space.dim), " \
        "got 2\n" in capsys.readouterr().err


def test_negative_seed_flag_exits_three(tmp_path, capsys):
    # solver.seed: -1 exited 3, while --seed -5 ran and wrote seed: -5.
    path = single_config(tmp_path)
    assert main(["run", path, "--seed", "-5"]) == 3
    assert capsys.readouterr().err == \
        "config error: --seed: --seed = -5 must be an integer >= 0\n"
    assert not (tmp_path / "summary.yaml").exists()
    assert main(["run", path, "--seed", "5", "--quiet"]) == 0
    summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
    assert summary["seed"] == 5


# An int that no float holds: float() of it raised OverflowError.
HUGE = 10 ** 400

# A single-mode config that states every scalar the mode reads.
SCALAR_SINGLE = {
    "mode": "single",
    "space": {"dim": 2, "r": 1.5, "p": 2.0, "Cp": 0.45, "Gq": 2.2},
    "dataSpace": {"s": 2.0},
    "model": {"kind": "quadratic", "eps": 0.05, "cstab": 0.5, "lhat": 3.5,
              "matrix": [[2.0, 0.0], [0.0, 3.0]]},
    "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 10.0},
    "data": {"ydelta": [1.0, 1.0]},
    "x0": [0.0, 0.0],
    "solver": {"eta": 0.0, "etaHat": 1e-6, "maxIterations": 50},
}

# Every scalar key of a config, its input rule, and the mode that reads it.
SCALAR_KEYS = [
    *[(key, rule, "single") for key, rule in [
        ("space.dim", "integer"), ("space.r", "exponent"),
        ("space.p", "exponent"), ("space.Cp", "positive"),
        ("space.Gq", "positive"), ("dataSpace.s", "exponent"),
        ("solver.eta", "nonnegative"), ("solver.etaHat", "positive"),
        ("solver.maxIterations", "integer"), ("set.radius", "positive"),
        ("model.cstab", "positive"), ("model.lhat", "positive"),
        ("model.eps", "nonnegative")]],
    *[(key, rule, "multilevel") for key, rule in [
        ("epsilon", "positive"), ("levels[1].eta", "nonnegative"),
        ("levels[1].C", "positive"), ("levels[1].L", "nonnegative"),
        ("levels[1].Lhat", "positive")]],
    *[(f"schedule.{key}", rule, "example-schedule") for key, rule in [
        ("lam", "positive"), ("tau", "positive"), ("etaHat", "positive")]],
]
SCALAR_OUT_OF_RANGE = {"positive": 0.0, "nonnegative": -1.0, "integer": 0,
                       "exponent": 1.0}


def scalar_cases():
    """(path, mode, value) for every scalar key and every value its rule
    refuses.  An integer rule takes HUGE: it is an int >= 1."""
    for path, rule, mode in SCALAR_KEYS:
        values = {"nan": float("nan"), "inf": float("inf"),
                  "-inf": float("-inf"),
                  "out-of-range": SCALAR_OUT_OF_RANGE[rule], "true": True,
                  "string": "1", "list": [1.0], "huge-int": HUGE}
        if rule == "integer":
            del values["huge-int"]
        for value_id, value in values.items():
            yield pytest.param(path, mode, value, id=f"{path}-{value_id}")


def put(doc, path, value):
    """Set the value at a dotted config path, ``levels[i]`` included."""
    *heads, last = path.split(".")
    node = doc
    for head in heads:
        name, _, index = head.partition("[")
        node = node[name] if not index else node[name][int(index[:-1])]
    node[last] = value


@pytest.mark.parametrize("path, mode, value", scalar_cases())
def test_every_config_number_follows_its_input_rule(tmp_path, capsys, path,
                                                    mode, value):
    # The rules of projsd.errors check every config number: one error
    # line in their wording, exit 3, no output written.
    if mode == "single":
        doc = dict(copy.deepcopy(SCALAR_SINGLE), output={
            "tracePath": str(tmp_path / "trace.csv"),
            "summaryPath": str(tmp_path / "summary.yaml")})
    else:
        doc = mode_doc(tmp_path, mode)
    parse_config(yaml.safe_dump(doc))
    put(doc, path, value)
    config = write(tmp_path, "scalar.cfg", yaml.safe_dump(doc))
    before = sorted(os.listdir(tmp_path))
    assert main(["run", config]) == 3
    out, err = capsys.readouterr()
    key = path.rpartition(".")[2]
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"config error: {path}: {key} = {value!r} "
                               "must "), err
    assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("message, overrides", [
    ("x0: expected a list of numbers", {"x0": [HUGE, 0.0]}),
    ("data.ydelta: expected a list of numbers",
     {"data": {"ydelta": [1.0, HUGE]}}),
    ("model.matrix: expected rows of numbers",
     {"model": {"kind": "linear", "matrix": [[2.0, 0.0], [0.0, HUGE]]}}),
    ("set.upper: expected a list of numbers",
     {"set": {"kind": "box", "lower": [0.0, 0.0], "upper": [HUGE, 1.0]}}),
], ids=["x0", "ydelta", "matrix", "box-upper"])
def test_int_beyond_float_range_in_a_vector(tmp_path, capsys, message,
                                            overrides):
    # np.asarray(..., dtype=float) raised OverflowError: a traceback.
    path = single_config(tmp_path, **overrides)
    assert main(["run", path]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "trace.csv").exists()


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
        return err

    def test_nonlinear_model_without_cstab(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "model.cstab:",
                     model={"kind": "quadratic", "eps": 0.1,
                            "matrix": [[2.0, 0.0], [0.0, 3.0]]})

    def test_nonlinear_model_without_lhat(self, tmp_path, capsys):
        # The theorem checks read the radius, which needs a stated lhat;
        # nothing derives one (||A|| = 0 here, not a bound once eps > 0).
        self.run_bad(tmp_path, capsys, "model.lhat:",
                     model={"kind": "quadratic", "eps": 0.1, "cstab": 1.0,
                            "matrix": [[0.0, 0.0], [0.0, 0.0]]},
                     diagnostics={"referenceSolution": [0.0, 0.0],
                                  "checkTheorems": True})

    @pytest.mark.parametrize("key", ["cstab", "lhat"])
    def test_rejected_constant_reported_once(self, tmp_path, capsys, key):
        # A constant the node holds but that was rejected is not also
        # reported as missing.
        model = {"kind": "quadratic", "eps": 0.1, "cstab": 1.0, "lhat": 3.0,
                 "matrix": [[2.0, 0.0], [0.0, 3.0]], key: np.inf}
        err = self.run_bad(tmp_path, capsys,
                           f"model.{key}: {key} = inf must be positive and "
                           "finite", model=model,
                           diagnostics={"referenceSolution": [0.0, 0.0],
                                        "checkTheorems": True})
        assert err.count("config error") == 1, err

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

    def test_non_finite_matrix(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "model.matrix:",
                     model={"kind": "linear",
                            "matrix": [[float("nan"), 0.0], [0.0, 1.0]]})

    def test_non_finite_matrix_file(self, tmp_path, capsys):
        (tmp_path / "A.csv").write_text("2.0,0.0\n0.0,inf\n")
        self.run_bad(tmp_path, capsys, "model.matrixFile:",
                     model={"kind": "quadratic", "eps": 0.1, "cstab": 1.0,
                            "matrixFile": str(tmp_path / "A.csv")})

    @pytest.mark.parametrize("where", ["single", "level"])
    @pytest.mark.parametrize("text, message", [
        ("1.0,0.0\n0.0,1.0\n", "expected a flat list of numbers"),
        ("1.0\nnan\n", "expected finite numbers")], ids=["2d", "nan"])
    def test_bad_ydelta_file_reported_at_its_key(self, tmp_path, capsys,
                                                 where, text, message):
        # Both were reported at data.ydelta, a key the config did not have.
        (tmp_path / "y.csv").write_text(text)
        data = {"ydeltaFile": str(tmp_path / "y.csv")}
        if where == "single":
            err = self.run_bad(tmp_path, capsys,
                               f"data.ydeltaFile: {message}\n", data=data)
            assert err.count("config error") == 1, err
            return

        def edit(doc):
            doc["levels"][1]["data"] = data
        errors = self.multilevel_bad(tmp_path, capsys, edit)
        assert errors == [f"config error: levels[1].data.ydeltaFile: "
                          f"{message}"], errors

    def test_non_finite_sigma(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "model.sigma:",
                     model={"kind": "diagonal",
                            "sigma": [float("inf"), 1.0]})

    def test_non_finite_level_sigma(self, tmp_path, capsys):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][2]["model"]["sigma"][3] = float("nan")
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert "config error: levels[2].model.sigma:" \
            in capsys.readouterr().err
        assert not (tmp_path / "ml.csv").exists()

    @pytest.mark.parametrize("message, overrides", [
        pytest.param("space.weights:",
                     {"space": {"dim": 2, "weights": [np.inf, 1.0],
                                "Cp": 1.0, "Gq": 1.0}}, id="weights"),
        pytest.param("set: box bounds must not be NaN",
                     {"set": {"kind": "box", "lower": [np.nan, 0.0],
                              "upper": [1.0, 1.0]}}, id="box-nan"),
        pytest.param("set: box has an empty coordinate",
                     {"set": {"kind": "box", "lower": [np.inf, 0.0],
                              "upper": [np.inf, 1.0]}}, id="box-empty"),
        pytest.param("set.center:",
                     {"set": {"kind": "ball", "center": [np.inf, 0.0],
                              "radius": 1.0}}, id="ball-center"),
        pytest.param("set.radius: radius = inf must be positive and finite",
                     {"set": {"kind": "ball", "center": [0.0, 0.0],
                              "radius": np.inf}}, id="ball-radius"),
        pytest.param("dataSpace.s: s = inf must lie in (1, inf)",
                     {"dataSpace": {"s": np.inf}}, id="scalar"),
        pytest.param("model.eps: eps = inf must be nonnegative and finite",
                     {"model": {"kind": "quadratic", "eps": np.inf,
                                "cstab": 1.0, "matrix": [[2.0, 0.0],
                                                         [0.0, 3.0]]}},
                     id="model-eps"),
        pytest.param("model.cstab: cstab = inf must be positive and finite",
                     {"model": {"kind": "quadratic", "eps": 0.1,
                                "cstab": np.inf, "matrix": [[2.0, 0.0],
                                                            [0.0, 3.0]]}},
                     id="model-cstab"),
    ])
    def test_non_finite_parameters(self, tmp_path, capsys, message,
                                   overrides):
        self.run_bad(tmp_path, capsys, message, **overrides)

    @pytest.mark.parametrize("message, overrides", [
        pytest.param("solver.eta: eta = -1.0 must be nonnegative and finite",
                     {"solver": {"eta": -1.0, "etaHat": 1.0e-8}},
                     id="solver-eta"),
        pytest.param("set.radius: radius = -1.0 must be positive and finite",
                     {"set": {"kind": "ball", "center": [0.0, 0.0],
                              "radius": -1.0}}, id="ball-radius"),
    ])
    def test_rejected_number_builds_nothing(self, tmp_path, capsys, message,
                                            overrides):
        # A rejected value must not reach a constructor, whose ValueError
        # would escape as a traceback.
        self.run_bad(tmp_path, capsys, message, **overrides)

    def test_data_eta_refused(self, tmp_path, capsys):
        # The run's noise level is solver.eta; data.eta was never read.
        self.run_bad(tmp_path, capsys, "data.eta:",
                     data={"ydelta": [1.0, 1.0], "eta": 0.4})

    @pytest.mark.parametrize("section, key, home", [
        ("data", "eta", None), ("model", "cstab", "C"),
        ("model", "lhat", "Lhat")])
    def test_level_keys_the_run_overrides(self, tmp_path, capsys, section,
                                          key, home):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][1][section][key] = 1000.0
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert f"config error: levels[1].{section}.{key}:" in err
        if section == "model":
            assert f"set levels[1].{home}" in err
        assert not (tmp_path / "ml.csv").exists()

    @pytest.mark.parametrize("where", ["single", "level"])
    def test_rho_domain_is_unknown(self, tmp_path, capsys, where):
        # The model states lhat; nothing derives it from a domain radius.
        if where == "single":
            self.run_bad(tmp_path, capsys, "model.rhoDomain: unknown key",
                         model={"kind": "quadratic", "eps": 0.1,
                                "cstab": 1.0, "rhoDomain": 0.5,
                                "matrix": [[2.0, 0.0], [0.0, 3.0]]})
            return
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][1]["model"]["rhoDomain"] = 0.5
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert "config error: levels[1].model.rhoDomain: unknown key" \
            in capsys.readouterr().err

    # A linear run never reads cstab: c-tilde is 0 at L = 0, whatever C.
    @pytest.mark.parametrize("kind, key, value", [
        ("linear", "eps", 0.3), ("linear", "lhat", 0.001),
        ("linear", "sigma", [2.0, 3.0]), ("linear", "cstab", 1.0),
        ("diagonal", "eps", 0.3), ("diagonal", "lhat", 0.001),
        ("diagonal", "matrix", [[1.0, 0.0], [0.0, 1.0]]),
        ("diagonal", "matrixFile", "A.csv"), ("diagonal", "cstab", 1.0),
        ("quadratic", "sigma", [2.0, 3.0])])
    def test_model_key_its_kind_does_not_read(self, tmp_path, capsys, kind,
                                              key, value):
        model = {"kind": kind, key: value}
        if kind == "diagonal":
            model.setdefault("sigma", [2.0, 3.0])
        else:
            model.setdefault("matrix", [[2.0, 0.0], [0.0, 3.0]])
        if kind == "quadratic":
            model.update(eps=0.1, cstab=1.0)
        err = self.run_bad(tmp_path, capsys,
                           f"model.{key}: a {kind} model does not read it",
                           model=model)
        assert err.count("config error") == 1, err

    def test_level_model_key_its_kind_does_not_read(self, tmp_path, capsys):
        # lhat has its own message on a level model, and only that one.
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][2]["model"].update(eps=0.3, lhat=2.0)
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert "config error: levels[2].model.eps: a diagonal model does " \
            "not read it" in err
        assert "config error: levels[2].model.lhat: a level's constants" \
            in err
        assert err.count("config error") == 2, err

    def test_aliased_level_model_reported_per_level(self, tmp_path, capsys):
        # Every level of the example shares one model through a YAML
        # alias; a constant under the anchor is a fault of each level.
        with open(EXAMPLE) as fh:
            text = fh.read()
        anchor = "    model: &model\n"
        assert text.count(anchor) == 1
        text = text.replace(anchor, anchor + "      cstab: 3.0\n")
        path = write(tmp_path, "aliased.yaml", text)
        assert main(["run", path, "--trace", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        for n in range(8):
            assert f"config error: levels[{n}].model.cstab:" in err, err
        assert err.count("config error") == 8, err
        assert not (tmp_path / "t.csv").exists()

    def test_check_theorems_needs_reference(self, tmp_path, capsys):
        self.run_bad(tmp_path, capsys, "diagnostics.checkTheorems:",
                     diagnostics={"checkTheorems": True})

    @pytest.mark.parametrize("diagnostics", [
        {"referenceSolution": [0.5, 1.0 / 3.0]},
        {"referenceSolution": [0.5, 1.0 / 3.0], "checkTheorems": False}])
    def test_reference_read_only_under_check_theorems(self, tmp_path, capsys,
                                                      diagnostics):
        err = self.run_bad(tmp_path, capsys, "diagnostics.referenceSolution:",
                           diagnostics=diagnostics)
        assert err.count("config error") == 1, err

    def multilevel_bad(self, tmp_path, capsys, edit):
        """Run the multilevel config after ``edit(doc)``: exit 3, no
        trace; returns the config errors."""
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        edit(doc)
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert not (tmp_path / "ml.csv").exists()
        return [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("config error: ")]

    @staticmethod
    def add_references(doc, skip=()):
        for n, lv in enumerate(doc["levels"]):
            if n not in skip:
                lv["reference"] = [0.0] * 8

    def test_multilevel_refuses_reference_solution(self, tmp_path, capsys):
        # Levels carry their own references; the top-level one is not read.
        def edit(doc):
            self.add_references(doc)
            doc["diagnostics"] = {"referenceSolution": [0.0] * 8,
                                  "checkTheorems": True}
        errors = self.multilevel_bad(tmp_path, capsys, edit)
        assert len(errors) == 1, errors
        assert errors[0].startswith(
            "config error: diagnostics.referenceSolution:")

    def test_multilevel_check_theorems_needs_every_reference(self, tmp_path,
                                                             capsys):
        def edit(doc):
            self.add_references(doc, skip=(0, 2))
            doc["diagnostics"] = {"checkTheorems": True}
        errors = self.multilevel_bad(tmp_path, capsys, edit)
        assert [e.split(":")[1] for e in errors] \
            == [" levels[0].reference", " levels[2].reference"], errors

    @pytest.mark.parametrize("mode", ["validate", "example-schedule"])
    @pytest.mark.parametrize("key, value", [
        ("checkTheorems", True), ("checkTheorems", False),
        ("referenceSolution", [0.0, 0.0])])
    def test_modes_without_a_run_refuse_diagnostics(self, tmp_path, capsys,
                                                    mode, key, value):
        doc = self.mode_config(tmp_path, mode)
        doc["diagnostics"] = {key: value}
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert f"config error: diagnostics.{key}:" in err
        assert err.count("config error") == 1, err

    def test_validate_refuses_level_reference(self, tmp_path, capsys):
        # Validate mode runs nothing, so it reads no level reference.
        doc = {
            "mode": "validate",
            "space": {"dim": 2},
            "levels": [{"eta": 0.01, "C": 1.0, "L": 0.0, "Lhat": 1.0,
                        "reference": [5.0, 5.0]}],
            "solver": {"etaHat": 0.05},
        }
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert "config error: levels[0].reference:" in err
        assert err.count("config error") == 1, err
        del doc["levels"][0]["reference"]
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 0

    @staticmethod
    def mode_config(tmp_path, base):
        """A config that runs to exit 0 in one mode."""
        if base == "single":
            return yaml.safe_load(MINIMAL_SINGLE)
        if base == "multilevel":
            TestExecuteMultilevel().make_config(tmp_path)
            return yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        if base == "validate":
            return {"mode": "validate", "space": {"dim": 2},
                    "solver": {"etaHat": 0.05},
                    "levels": [{"eta": 0.01, "C": 1.0, "L": 0.0,
                                "Lhat": 1.0}]}
        TestValidateAndExampleSchedule().schedule_config(tmp_path)
        return yaml.safe_load((tmp_path / "ex.yaml").read_text())

    @pytest.mark.parametrize("base, key", [
        ("single", "epsilon"), ("single", "levels"), ("single", "schedule"),
        ("single", "output.schedulePath"),
        ("multilevel", "data"), ("multilevel", "model"),
        ("multilevel", "schedule"), ("multilevel", "set"),
        ("multilevel", "solver.eta"), ("multilevel", "output.schedulePath"),
        ("validate", "data"), ("validate", "model"), ("validate", "schedule"),
        ("validate", "set"), ("validate", "x0"), ("validate", "solver.eta"),
        ("validate", "solver.maxIterations"), ("validate", "solver.seed"),
        ("validate", "output.tracePath"), ("validate", "output.schedulePath"),
        ("example-schedule", "data"), ("example-schedule", "dataSpace"),
        ("example-schedule", "epsilon"), ("example-schedule", "levels"),
        ("example-schedule", "model"), ("example-schedule", "set"),
        ("example-schedule", "solver.etaHat"), ("example-schedule", "x0"),
        ("example-schedule", "output.tracePath")])
    def test_key_the_mode_does_not_read(self, tmp_path, capsys, base, key):
        # Each used to pass silently, e.g. multilevel mode ran with a
        # solver.eta of 123 and a top-level model, set and data.
        values = {
            "data": {"ydelta": [1.0, 1.0]}, "dataSpace": {"s": 2.0},
            "epsilon": 1.0, "model": {"kind": "diagonal",
                                      "sigma": [2.0, 3.0]},
            "levels": [{"eta": 0.01, "C": 1.0, "L": 0.0, "Lhat": 1.0}],
            "schedule": {"lam": 0.1, "tau": 1e-3, "etaHat": 1e-3},
            "set": {"kind": "wholespace"}, "x0": [0.0, 0.0],
            "solver.eta": 123.0, "solver.etaHat": 0.05,
            "solver.maxIterations": 10, "solver.seed": 1,
            "output.tracePath": str(tmp_path / "t.csv"),
            "output.schedulePath": str(tmp_path / "s.yaml")}
        doc = self.mode_config(tmp_path, base)
        section, _, sub = key.partition(".")
        if sub:
            doc.setdefault(section, {})[sub] = values[key]
        else:
            doc[section] = values[key]
        path = write(tmp_path, "mode.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and "does not read it" in err
        assert err.count("config error") == 1, err

    def test_validate_reads_levels_only(self, tmp_path, capsys):
        # Validate mode also read a schedule section in place of levels,
        # which validated what example-schedule mode writes.  That config
        # is refused while parsing; the one example-schedule mode wrote
        # validates.
        doc = self.mode_config(tmp_path, "example-schedule")
        doc["mode"] = "validate"
        del doc["output"]["schedulePath"]
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "config error: schedule: validate mode does not read it",
            "config error: levels: validate mode needs it",
            "config error: solver: validate mode needs it"]
        assert not (tmp_path / "gs.yaml").exists()
        assert main(["run", str(tmp_path / "ex.yaml"), "--quiet"]) == 0
        assert main(["run", str(tmp_path / "gen.yaml"), "--quiet"]) == 0

    def test_validate_needs_space(self, tmp_path, capsys):
        # Without a space, validate mode with levels ended in a traceback.
        doc = self.mode_config(tmp_path, "validate")
        del doc["space"]
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert "config error: space: validate mode needs it" in err
        assert err.count("config error") == 1, err

    @pytest.mark.parametrize("cset, key", [
        ({"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0],
          "center": [0.0, 0.0]}, "center"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
          "lower": [0.0, 0.0]}, "lower"),
        ({"kind": "subspace", "support": [0, 1], "radius": 1.0}, "radius"),
        ({"kind": "wholespace", "lower": [0.0, 0.0]}, "lower")],
        ids=["box", "ball", "subspace", "wholespace"])
    def test_set_key_its_kind_does_not_read(self, tmp_path, capsys, cset,
                                            key):
        # Each ran with exit 0 and the key ignored.
        err = self.run_bad(tmp_path, capsys,
                           f"set.{key}: a {cset['kind']} set does not read "
                           "it", set=cset)
        assert err.count("config error") == 1, err

    def test_data_reads_one_of_ydelta_and_its_file(self, tmp_path, capsys):
        # With both, the run read ydelta and ignored the file.
        (tmp_path / "y.csv").write_text("5.0,5.0\n")
        err = self.run_bad(tmp_path, capsys, "data: the data needs exactly "
                           "one of ydelta and ydeltaFile",
                           data={"ydelta": [1.0, 1.0],
                                 "ydeltaFile": str(tmp_path / "y.csv")})
        assert err.count("config error") == 1, err

    @pytest.mark.parametrize("key", ["model", "set", "data"])
    def test_multilevel_level_needs_its_problem(self, tmp_path, capsys, key):
        # A level without one passed parsing and was refused only at run
        # time, as "schedule invalid".
        def edit(doc):
            del doc["levels"][1][key]
        errors = self.multilevel_bad(tmp_path, capsys, edit)
        assert errors == [f"config error: levels[1].{key}: multilevel mode "
                          "needs it"], errors

    @pytest.mark.parametrize("mode", ["multilevel", "validate"])
    @pytest.mark.parametrize("head", [0, 1])
    def test_null_level_is_refused(self, tmp_path, capsys, mode, head):
        # A null entry (a stray "-" in YAML) is one error at its own path,
        # never a level fewer or a run without levels.
        doc = self.mode_config(tmp_path, mode)
        doc["levels"] = doc["levels"][:head] + [None]
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error: ")]
        assert errors == [f"config error: levels[{head}]: expected a "
                          "mapping"], errors

    def test_space_checks_follow_other_errors(self, tmp_path, capsys):
        # An error found before the space was parsed hid the x0 length.
        doc = yaml.safe_load(MINIMAL_SINGLE)
        del doc["data"]
        doc["solver"]["etaHat"] = -1.0
        doc["x0"] = [0.0, 0.0, 0.0]
        path = write(tmp_path, "cfg.yaml", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error: ")]
        assert errors == [
            "config error: data: single mode needs it",
            "config error: solver.etaHat: etaHat = -1.0 must be positive and "
            "finite",
            "config error: x0: expected 2 entries (space.dim), got 3"], errors

    @pytest.mark.parametrize("section, node", [
        ("data", {"ydeltaFile": 5}),
        ("model", {"kind": "linear", "matrixFile": 5})])
    def test_file_name_is_a_string(self, tmp_path, capsys, section, node):
        # A number in place of the file name ended in a traceback.
        key = next(k for k in node if k.endswith("File"))
        err = self.run_bad(tmp_path, capsys,
                           f"{section}.{key}: expected a file name",
                           **{section: node})
        assert err.count("config error") == 1, err

    @pytest.mark.parametrize("mode", ["example-schedule"])
    @pytest.mark.parametrize("key, value", [
        ("lam", 0.05), ("tau", 100.0), ("etaHat", 5e-324)])
    def test_schedule_parameters_refused_while_parsing(self, tmp_path, capsys,
                                                       mode, key, value):
        # The generator's refusals name the parameter, and no output is
        # written.  No level whose constants are floats reaches an etaHat
        # of 5e-324; C_a = 2 e**a overflowed in a traceback (exit 1).
        doc = self.mode_config(tmp_path, mode)
        doc["schedule"][key] = value
        path = write(tmp_path, "v.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        err = capsys.readouterr().err
        assert f"config error: schedule.{key}: " in err
        assert err.count("config error") == 1, err
        assert not (tmp_path / "gs.yaml").exists()

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
        # The subspace's fit is the library's check, recorded at the set.
        message = f"set.{field}:" if field != "support" else (
            "set: CoordinateSubspace support [0, 5] has an index >= 2, the "
            "space dimension\n")
        self.run_bad(tmp_path, capsys, message, set=cset)

    def test_level_set_fits_space(self, tmp_path, capsys):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][3]["set"]["support"] = list(range(9))
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert ("config error: levels[3].set: CoordinateSubspace support "
                "[0, 1, 2, 3, 4, 5, 6, 7, 8] has an index >= 8, the space "
                "dimension\n") in capsys.readouterr().err

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


def test_solver_abort_in_single_mode_exits_two(tmp_path, monkeypatch,
                                                capsys):
    # The projection of the second step fails: the run exits 2 with the
    # error on stderr, keeps the old trace and writes no summary.
    real = WholeSpace._projector
    calls = []

    def failing(self, space):
        project = real(self, space)

        def counted(x):
            calls.append(1)
            if len(calls) == 3:     # the start's projection, then two steps
                raise NonConvergence("bounded search ran out of steps")
            return project(x)
        return counted

    monkeypatch.setattr(WholeSpace, "_projector", failing)
    path = single_config(tmp_path)
    (tmp_path / "trace.csv").write_text("old trace\n")
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == \
        "solver abort: bounded search ran out of steps\n"
    assert len(calls) == 3
    assert (tmp_path / "trace.csv").read_text() == "old trace\n"
    assert not (tmp_path / "summary.yaml").exists()


class TestStepFailureInSummary:
    """A run that stops with StepDegenerate names its error in the
    summary; successful runs have no failure key."""

    def summary(self, tmp_path, name="summary.yaml"):
        return yaml.safe_load((tmp_path / name).read_text())

    def test_non_finite_residual(self, tmp_path):
        # F(x_0) = -1e308 * 1e200 + 1e200**2 is -inf + inf, NaN: the step
        # stops typed, before the projection would reject the NaN update.
        path = single_config(tmp_path, space={"dim": 1},
                             model={"kind": "quadratic",
                                    "matrix": [[-1e308]], "eps": 1.0,
                                    "cstab": 1.0},
                             data={"ydelta": [1.0]}, x0=[1e200])
        assert main(["run", path, "--quiet"]) == 2
        summary = self.summary(tmp_path)
        assert summary["stopReason"] == "StepDegenerate"
        assert summary["failure"] == "NonFiniteStep: r_0 = nan is not finite"

    @pytest.mark.parametrize("matrix, ydelta", [(1.0, 1e30), (1e-120, 1.0)])
    def test_overflowing_step_scalars(self, tmp_path, capsys, matrix,
                                      ydelta):
        # r_0**12 and then (Gq t_0**(4/3))**-3 left the float range: an
        # OverflowError traceback, exit 1.
        path = single_config(tmp_path, space={"dim": 1, "r": 4.0},
                             model={"kind": "linear", "matrix": [[matrix]]},
                             data={"ydelta": [ydelta]}, x0=[0.0],
                             solver={"etaHat": 0.5})
        assert main(["run", path]) == 2
        assert capsys.readouterr() == (
            f"StepDegenerate at k=0, residual {ydelta:.6e}\n", "")
        summary = self.summary(tmp_path)
        assert summary["stopReason"] == "StepDegenerate"
        assert summary["failure"].startswith(
            "NonFiniteStep: the scalars of step 0 leave the float range "
            f"(residual {ydelta!r}, t_0 = ")

    def test_overflowing_norms(self, tmp_path, capsys):
        # t_0 overflowed in numpy's power: under python -W error a
        # RuntimeWarning traceback, exit 1.
        path = single_config(tmp_path, space={"dim": 1, "r": 1.5},
                             model={"kind": "linear", "matrix": [[3e119]]},
                             data={"ydelta": [0.01]}, x0=[1.0],
                             solver={"etaHat": 0.001})
        assert main(["run", path]) == 2
        assert capsys.readouterr() == (
            "StepDegenerate at k=0, residual 3.000000e+119\n", "")
        assert self.summary(tmp_path)["failure"] == \
            "NonFiniteStep: t_0 = inf is not finite (residual 3e+119)"

    @pytest.mark.parametrize("x0", [[1e200, 0.0], [1e250, 1.0]],
                             ids=["pth-power", "rth-power"])
    @pytest.mark.parametrize("mode", ["single", "multilevel"])
    def test_overflowing_start_with_reference(self, tmp_path, capsys, mode,
                                              x0):
        # ||x_0||**p overflowed in the start's Bregman distance to the
        # reference, before the first step: under python -W error a
        # RuntimeWarning traceback, exit 1.
        common = {"space": {"dim": 2, "r": 1.5}, "x0": x0,
                  "solver": {"etaHat": 0.5}}
        problem = {"model": {"kind": "linear",
                             "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                   "set": {"kind": "wholespace"},
                   "data": {"ydelta": [1.0, 1.0]}}
        if mode == "single":
            path = single_config(
                tmp_path, **problem, **common,
                diagnostics={"referenceSolution": [1.0, 1.0],
                             "checkTheorems": True})
        else:
            level = {"eta": 0.0, "C": 1.0, "L": 0.0, "Lhat": 1.0,
                     "reference": [1.0, 1.0], **problem}
            path = write(tmp_path, "ml.yaml", yaml.safe_dump({
                "mode": "multilevel", "epsilon": 1.0, "levels": [level],
                "diagnostics": {"checkTheorems": True},
                "output": {"summaryPath": str(tmp_path / "summary.yaml")},
                **common}))
        assert main(["run", path, "--quiet"]) == 2
        assert capsys.readouterr() == ("", "")
        summary = self.summary(tmp_path)
        assert summary["stopReason"] == "StepDegenerate"
        entry = summary if mode == "single" else summary["perLevel"][0]
        assert entry["failure"] == "NonFiniteStep: r_0 = inf is not finite"
        assert entry["theoremChecks"]["radiusOkAll"] is False

    def test_single_mode(self, tmp_path):
        # A^T R_0 = 0 while the residual is sqrt(2).
        path = single_config(tmp_path,
                             model={"kind": "linear",
                                    "matrix": [[1.0, 0.0], [-1.0, 0.0]]})
        assert main(["run", path, "--quiet"]) == 2
        summary = self.summary(tmp_path)
        assert summary["stopReason"] == "StepDegenerate"
        assert summary["failure"] == \
            "ZeroGradient: t_0 = 0 with residual 1.4142135623730951"

    def test_multilevel_mode(self, tmp_path):
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][0]["model"]["sigma"] = [0.0] * 8
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path, "--quiet"]) == 2
        summary = self.summary(tmp_path, "ml.yaml")
        assert summary["stopReason"] == "StepDegenerate"
        assert "failure" not in summary
        (level,) = summary["perLevel"]
        assert level["stopReason"] == "StepDegenerate"
        assert level["failure"].startswith("ZeroGradient: t_0 = 0 ")

    def test_absent_on_success(self, tmp_path):
        assert main(["run", single_config(tmp_path), "--quiet"]) == 0
        assert "failure" not in self.summary(tmp_path)
        path = TestExecuteMultilevel().make_config(tmp_path)
        assert main(["run", path, "--quiet"]) == 0
        summary = self.summary(tmp_path, "ml.yaml")
        assert all("failure" not in lv for lv in summary["perLevel"])


class TestConstantsBeyondTheFloatRange:
    """A C**2 or a radius beyond the float range ended in an
    OverflowError traceback, exit 1, in every mode that reads it."""

    @pytest.mark.parametrize("L, code, out", [
        (0.1, 3, "schedule invalid: level 1: 8 * ctilde * eta = inf >= 1 "
                 "at eta = 0.01\n"),
        (0.0, 0, "schedule valid\n")], ids=["nonlinear", "linear"])
    def test_validate_mode(self, tmp_path, capsys, L, code, out):
        path = write(tmp_path, "v.cfg", yaml.safe_dump({
            "mode": "validate", "space": {"dim": 2},
            "solver": {"etaHat": 0.05},
            "levels": [{"eta": 0.1, "C": 1.0, "L": L, "Lhat": 1.0},
                       {"eta": 0.01, "C": 1e200, "L": L, "Lhat": 1.0}]}))
        assert main(["run", path]) == code
        assert capsys.readouterr() == (out, "")

    def test_multilevel_mode(self, tmp_path, capsys):
        path = TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][1].update(C=1e200, L=0.1)
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert capsys.readouterr().err.startswith(
            "schedule invalid: level 1: 8 * ctilde * eta = inf >= 1 ")

    def test_single_mode_ctilde(self, tmp_path):
        # At eta = 0 both roots of u are 0: the start lies outside the
        # radius.
        path = single_config(tmp_path, model={
            "kind": "quadratic", "matrix": [[2.0, 0.0], [0.0, 3.0]],
            "eps": 0.05, "cstab": 1e200})
        assert main(["run", path, "--quiet"]) == 2
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["stopReason"] == "StepDegenerate"
        assert summary["failure"].startswith("NonpositiveU: u_0 = -inf <= 0")

    def test_single_mode_radius(self, tmp_path):
        path = single_config(tmp_path, **dict(
            QUADRATIC_FLAGS_FAIL, set={"kind": "wholespace"},
            model=dict(QUADRATIC_FLAGS_FAIL["model"], lhat=1e-200)))
        assert main(["run", path, "--quiet"]) == 0
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["rho"] == np.inf
        assert summary["theoremChecks"]["radiusOkAll"]


@pytest.mark.parametrize("overrides, message", [
    ({"space": {"dim": 2, "weights": [1.0, 2.0, 3.0]}},
     "space: weights have shape (3,), expected (2,)"),
    ({"space": {"dim": 2, "r": 2.5}},
     "space: no certified default constants "),
    ({"space": {"dim": 2, "Cp": 0.5}},
     "space: the Hilbert configuration (r=2, p=2, unit weights) forces "
     "Cp = Gq = 1"),
    ({"model": {"kind": "quadratic", "matrix": [[2.0, 0.0]], "eps": 0.1,
                "cstab": 1.0}},
     "model: quadratic model needs a square matrix"),
], ids=["weights-length", "no-certified-constants", "hilbert-Cp",
        "quadratic-not-square"])
def test_constructor_refusals_while_parsing(tmp_path, capsys, overrides,
                                            message):
    # Each key passed its own rule; the library's constructor refuses the
    # combination, in one line.
    path = single_config(tmp_path, **overrides)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1, err


def test_summaries_match_the_pure_python_emitter(tmp_path, monkeypatch):
    """Every document the CLI writes, one of each summary shape and a
    generated schedule, has the bytes that yaml.SafeDumper gives it."""
    docs = []
    real_dump = cli_module._dump

    def recording_dump(doc):
        docs.append(doc)
        return real_dump(doc)

    monkeypatch.setattr(cli_module, "_dump", recording_dump)
    # Single mode stopped on ZeroGradient, with theorem checks and an
    # infinite rho.
    single = single_config(
        tmp_path, model={"kind": "linear",
                         "matrix": [[1.0, 0.0], [-1.0, 0.0]]},
        diagnostics={"referenceSolution": [0.5, 0.5], "checkTheorems": True})
    assert main(["run", single, "--quiet"]) == 2
    assert main(["run", TestExecuteMultilevel().make_config(tmp_path),
                 "--quiet"]) == 0
    # The second level's 8 ctilde eta is 8, so its pair has no lhs or rhs.
    validate = write(tmp_path, "v.cfg", yaml.safe_dump({
        "mode": "validate", "space": {"dim": 2}, "epsilon": 1.0,
        "levels": [{"eta": 1.0, "C": 1.0, "L": 0.5, "Lhat": 1.0},
                   {"eta": 0.01, "C": 1.0, "L": 100.0, "Lhat": 1.0}],
        "solver": {"etaHat": 0.05},
        "output": {"summaryPath": str(tmp_path / "v.yaml")}}))
    assert main(["run", validate, "--quiet"]) == 3
    example = TestValidateAndExampleSchedule().schedule_config(tmp_path)
    assert main(["run", example, "--quiet"]) == 0
    single_doc, multi_doc, validate_doc, schedule_doc, example_doc = docs
    assert single_doc["failure"].startswith("ZeroGradient: ")
    assert "theoremChecks" in single_doc and single_doc["rho"] == np.inf
    assert multi_doc["mode"] == "multilevel"
    assert validate_doc["transitions"] == [{"level": 0, "ok": False}]
    assert schedule_doc["mode"] == "validate"
    assert example_doc["mode"] == "example-schedule"
    # A failure message longer than a line, infinities, NaN and -0.0.
    docs.append({"failure": "NonpositiveU: u_12 = -3.469446951953614e-18 "
                            "<= 0 (residual 0.0030100000000000005, eta "
                            "0.0010000000000001655)",
                 "values": [np.inf, -np.inf, np.nan, -0.0, 5e-324]})
    for doc in docs:
        assert real_dump(doc) == yaml.dump(
            doc, Dumper=yaml.SafeDumper, sort_keys=True,
            default_flow_style=False)


def trace_from_history(runs):
    """The trace of ``[(level, report)]`` from the reports' histories,
    one value at a time, as the CLI wrote it before it streamed rows."""
    def fmt(v):
        return repr(float(v))
    rows = [TRACE_HEADER]
    for level, rep in runs:
        for st in rep.iterations:
            rows.append(",".join(
                [str(level), str(st.k)]
                + [fmt(v) for v in (st.rk, st.tk, st.that_k, st.uk, st.vk,
                                    st.wk, st.muk)]
                + ["" if st.bregman_to_ref is None
                   else fmt(st.bregman_to_ref),
                   "" if st.radius_ok is None
                   else str(bool(st.radius_ok)).lower()]))
    return "\n".join(rows) + "\n"


def dump(summary):
    return yaml.safe_dump(summary, sort_keys=True, default_flow_style=False)


def report_tallies(rep):
    """The theorem tallies a run's report carries."""
    return (rep.radius_violations, rep.monotonicity_violations,
            rep.strict_bound_violations)


def tallies_from_history(space, reference, rep):
    """The report's tallies worked out again from the run's history: the
    Bregman distances to the reference (the last one of x_K) and each
    step's descent bound ``w_k D_k**(2/p) - v_k``."""
    bregs = [st.bregman_to_ref for st in rep.iterations] \
        + [float(bregman_distance(space, rep.x_final, reference))]
    descents = [st.wk * b ** (2.0 / space.p) - st.vk
                for st, b in zip(rep.iterations, bregs)]
    return (sum(not b < rep.rho for b in bregs[:-1]),
            sum(not b1 <= b0 + d + 1e-10
                for b0, b1, d in zip(bregs, bregs[1:], descents)),
            sum(not d < 0.0 for d in descents))


def theorem_checks(rep, tallies):
    """The ``theoremChecks`` of a run with the given tallies."""
    radius, monotonicity, strict = tallies
    return {"iterations": len(rep.iterations),
            "monotonicityViolations": monotonicity,
            "radiusOkAll": radius == 0, "strictBoundOkAll": strict == 0}


class TestStreamedOutputs:
    """The CLI streams trace rows from the run and takes theorem counts
    from its report; its files equal those built from a library run that
    kept its history."""

    @staticmethod
    def library_single(path):
        with open(path) as fh:
            cfg = parse_config(fh.read())
        return cfg, run_algorithm1(
            cfg.space, cfg.cset, cfg.model, cfg.data, cfg.x0, SolverConfig(
                eta=cfg.eta, eta_hat=cfg.eta_hat,
                max_iterations=cfg.max_iterations,
                diagnostic_reference=cfg.reference))

    def test_row_writer_writes_the_percent_format_bytes(self):
        # Each row is the one that "%d,%d,%s,...,%s\n" % (...) wrote, the
        # format of earlier versions: a float in its shortest round-trip
        # form, an np.float64 as its str(), inf and nan as "inf" and
        # "nan", no distance when there is none, and the radius flag as
        # "", "true" or "false".
        import io
        flag = {None: "", True: "true", False: "false"}
        values = [-0.0, 5e-324, 1e-5, 1e16, math.inf, math.nan,
                  np.float64(0.1), -2.5e-310, 1.0 / 3.0]
        states = []
        for n in range(len(values)):
            scalars = [values[(n + i) % len(values)] for i in range(8)]
            for breg in (None, scalars[-1]):
                for radius_ok in (None, True, False):
                    states.append(IterationState(n, None, None, *scalars[:7],
                                                 breg, radius_ok))
        fh = io.StringIO()
        row = cli_module._row_writer(fh)
        expected = [TRACE_HEADER + "\n"]
        for level, st in enumerate(states):
            row(level, st)
            expected.append(
                "%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s\n" % (
                    level, st.k, st.rk, st.tk, st.that_k, st.uk, st.vk,
                    st.wk, st.muk,
                    "" if st.bregman_to_ref is None else st.bregman_to_ref,
                    flag[st.radius_ok]))
        assert fh.getvalue() == "".join(expected)
        assert "0.1" in fh.getvalue().split("\n")[1].split(",")

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="linear"),
        pytest.param(QUADRATIC_FLAGS_FAIL, id="quadratic-flags-fail"),
        pytest.param({"model": {"kind": "linear",
                                "matrix": [[1.0, 0.0], [1.0, 0.0]]},
                      "data": {"ydelta": [0.0, 1.0]},
                      "solver": {"etaHat": 1e-8, "maxIterations": 50}},
                     id="max-iterations"),
    ])
    def test_single_mode(self, tmp_path, overrides):
        overrides.setdefault("diagnostics", {
            "referenceSolution": [0.5, 1.0 / 3.0], "checkTheorems": True})
        path = single_config(tmp_path, **overrides)
        code = main(["run", path, "--quiet"])
        cfg, rep = self.library_single(path)
        its = rep.iterations
        assert code == (0 if rep.stop_reason == "DiscrepancyMet" else 2)
        assert len(its) == rep.stopped_at_k > 0
        tallies = tallies_from_history(cfg.space, cfg.reference, rep)
        assert report_tallies(rep) == tallies
        assert tallies[0] == sum(not st.radius_ok for st in its)
        summary = {
            "mode": "single", "stopReason": rep.stop_reason,
            "stoppedAtK": rep.stopped_at_k,
            "finalResidual": float(rep.final_residual),
            "projectedStart": rep.projected_start, "seed": 0,
            "rho": float(rep.rho),
            "theoremChecks": theorem_checks(rep, tallies),
        }
        assert (tmp_path / "trace.csv").read_text() \
            == trace_from_history([(0, rep)])
        assert (tmp_path / "summary.yaml").read_text() == dump(summary)

    @pytest.mark.parametrize("reference, expected", [
        pytest.param([0.45, 0.3], (0, 15, 6), id="descent-fails"),
        pytest.param([20.0, 20.0], (15, 0, 15), id="radius-fails"),
    ])
    def test_report_tallies_count_failures(self, tmp_path, reference,
                                           expected):
        # The reference is no solution, so the tallies are nonzero; each
        # equals the count worked out from the history.
        overrides = dict(QUADRATIC_FLAGS_FAIL, diagnostics={
            "referenceSolution": reference, "checkTheorems": True})
        path = single_config(tmp_path, **overrides)
        main(["run", path, "--quiet"])
        cfg, rep = self.library_single(path)
        assert report_tallies(rep) == expected
        assert tallies_from_history(cfg.space, cfg.reference, rep) \
            == expected
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["theoremChecks"] == theorem_checks(rep, expected)

    def test_start_outside_radius_at_k_zero(self, tmp_path):
        # x0 meets the discrepancy, so no step is tallied; the start lies
        # outside rho, and that check alone makes radiusOkAll false.
        overrides = dict(QUADRATIC_FLAGS_FAIL, solver={"etaHat": 10.0},
                         diagnostics={"referenceSolution": [20.0, 20.0],
                                      "checkTheorems": True})
        path = single_config(tmp_path, **overrides)
        assert main(["run", path, "--quiet"]) == 0
        cfg, rep = self.library_single(path)
        assert rep.stopped_at_k == 0 and report_tallies(rep) == (0, 0, 0)
        assert rep.start_radius_ok is False
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["theoremChecks"] == {
            "iterations": 0, "monotonicityViolations": 0,
            "radiusOkAll": False, "strictBoundOkAll": True}

    def test_multilevel_mode(self, tmp_path):
        # Without checkTheorems the summary has no theoremChecks; with it,
        # each level's entry has its report's tallies.
        for check_theorems in (False, True):
            path = TestExecuteMultilevel().make_config(tmp_path)
            if check_theorems:
                # The data are sigma, so each level's best solution is 1
                # on its support.
                doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
                for lv in doc["levels"]:
                    m = len(lv["set"]["support"])
                    lv["reference"] = [1.0] * m + [0.0] * (8 - m)
                doc["diagnostics"] = {"checkTheorems": True}
                path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
            assert main(["run", path, "--quiet"]) == 0
            with open(path) as fh:
                cfg = parse_config(fh.read())
            report = run_multi_level(cfg.space, Schedule(
                levels=cfg.levels, epsilon=cfg.epsilon,
                eta_hat=cfg.eta_hat), cfg.x0)
            per_level = []
            for (n, k, res, rep), lv in zip(report.per_level, cfg.levels):
                entry = {"level": n, "K": k, "finalResidual": float(res),
                         "stopReason": rep.stop_reason}
                if check_theorems:
                    tallies = tallies_from_history(cfg.space, lv.reference,
                                                   rep)
                    assert report_tallies(rep) == tallies
                    entry["theoremChecks"] = theorem_checks(rep, tallies)
                per_level.append(entry)
            summary = {
                "mode": "multilevel", "stopReason": report.stop_reason,
                "finalResidual": float(report.final_residual), "seed": 0,
                "perLevel": per_level,
            }
            assert (tmp_path / "ml.csv").read_text() == trace_from_history(
                [(n, rep) for n, _, _, rep in report.per_level])
            assert (tmp_path / "ml.yaml").read_text() == dump(summary)

    def test_raising_run_leaves_no_files(self, tmp_path, monkeypatch,
                                         capsys):
        # The third level's projection fails after two levels streamed
        # their rows: the trace at the path keeps its old content, and no
        # temp file stays behind.
        real = CoordinateSubspace._projector
        calls = []

        def failing(self, space):
            project = real(self, space)
            if len(self.support) != 6:
                return project

            def counted(x):
                calls.append(1)
                if len(calls) == 3:
                    raise NonConvergence("bounded search ran out of steps")
                return project(x)
            return counted

        monkeypatch.setattr(CoordinateSubspace, "_projector", failing)
        path = TestExecuteMultilevel().make_config(tmp_path)
        (tmp_path / "ml.csv").write_text("old trace\n")
        assert main(["run", path]) == 2
        assert "solver abort: bounded search" in capsys.readouterr().err
        assert len(calls) == 3
        assert (tmp_path / "ml.csv").read_text() == "old trace\n"
        assert not (tmp_path / "ml.yaml").exists()
        assert not [f for f in os.listdir(tmp_path)
                    if f.startswith(".tmp-projsd-")]

    def test_peak_memory_does_not_grow_with_k(self, tmp_path):
        import tracemalloc
        path = TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["solver"]["maxIterations"] = 200
        capped = write(tmp_path, "capped.cfg", yaml.safe_dump(doc))

        def peak(cfg_path, code):
            tracemalloc.start()
            try:
                assert main(["run", cfg_path, "--quiet"]) == code
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["run", capped, "--quiet"])  # warm-up outside the measure
        short = peak(capped, 2)
        full = peak(path, 0)
        summary = yaml.safe_load((tmp_path / "ml.yaml").read_text())
        assert sum(lv["K"] for lv in summary["perLevel"]) == 4607
        assert full < 1.5 * short, (full, short)


# A 3-D matrix whose first two dimensions fit the 2-D space of
# MINIMAL_SINGLE; np.atleast_2d leaves it 3-D.
MATRIX_3D = [[[2.0], [0.0]], [[0.0], [3.0]]]


class TestErrorPathsExitCleanly:
    """Each failure exits with its documented code and one message, no
    traceback, and writes no output."""

    def run_bad(self, tmp_path, capsys, path, code=3, args=()):
        assert main(["run", path, *args]) == code
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "trace.csv").exists()
        assert len(err.splitlines()) == 1, err
        return err

    @pytest.mark.parametrize("section, node", [
        ("data", {"ydeltaFile": "missing.csv"}),
        ("model", {"kind": "linear", "matrixFile": "missing.csv"})])
    def test_missing_sidecar_file(self, tmp_path, capsys, section, node):
        key = next(k for k in node if k.endswith("File"))
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, **{section: node}))
        missing = tmp_path / "missing.csv"
        assert err.startswith(f"config error: {section}.{key}: cannot read "
                              f"{missing}: "), err

    @pytest.mark.parametrize("section, node", [
        ("data", {"ydeltaFile": "bad.csv"}),
        ("model", {"kind": "linear", "matrixFile": "bad.csv"})])
    def test_sidecar_file_not_numbers(self, tmp_path, capsys, section, node):
        (tmp_path / "bad.csv").write_text("a,b\nc,d\n")
        key = next(k for k in node if k.endswith("File"))
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, **{section: node}))
        assert err.startswith(f"config error: {section}.{key}: bad CSV in "
                              f"{tmp_path / 'bad.csv'}: "), err

    @pytest.mark.parametrize("section, node", [
        ("data", {"ydeltaFile": "empty.csv"}),
        ("model", {"kind": "linear", "matrixFile": "empty.csv"})])
    @pytest.mark.parametrize("text", ["", "# no numbers\n"],
                             ids=["empty", "comment"])
    def test_sidecar_file_without_numbers(self, tmp_path, capsys, section,
                                          node, text):
        # numpy's "input contained no data" warning ended in a traceback
        # under -W error, and without it an empty matrix was reported as
        # a model with 0 outputs.
        (tmp_path / "empty.csv").write_text(text)
        key = next(k for k in node if k.endswith("File"))
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, **{section: node}))
        assert err == (f"config error: {section}.{key}: expected numbers in "
                       f"{tmp_path / 'empty.csv'}\n")

    @pytest.mark.parametrize("section, node", [
        ("model", {"kind": "linear", "matrix": []}),
        ("model", {"kind": "linear", "matrix": [[]]}),
        ("model", {"kind": "quadratic", "matrix": [], "eps": 0.1}),
        ("model", {"kind": "diagonal", "sigma": []}),
        ("data", {"ydelta": []}),
        ("space", {"dim": 2, "weights": []})],
        ids=["matrix", "matrix-row", "quadratic", "sigma", "ydelta",
             "weights"])
    def test_inline_array_without_numbers(self, tmp_path, capsys, section,
                                          node):
        # An empty matrix was read as (1, 0) and reported as a model with
        # 0 inputs and 1 output, at model and at data, not at its key.
        key = next(k for k in ("matrix", "sigma", "ydelta", "weights")
                   if k in node)
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, **{section: node}))
        assert err == f"config error: {section}.{key}: expected numbers\n"

    @pytest.mark.parametrize("message, overrides", [
        ("diagnostics.checkTheorems: expected a boolean",
         {"diagnostics": {"checkTheorems": "yes"}}),
        ("solver: expected a mapping", {"solver": 3}),
    ], ids=["check-theorems", "solver"])
    def test_section_of_the_wrong_type(self, tmp_path, capsys, message,
                                       overrides):
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, **overrides))
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("levels", [[], 3], ids=["empty", "number"])
    def test_levels_not_a_nonempty_list(self, tmp_path, capsys, levels):
        path = TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"] = levels
        write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        err = self.run_bad(tmp_path, capsys, path)
        assert err == "config error: levels: expected a nonempty list\n"
        assert not (tmp_path / "ml.csv").exists()

    def test_top_level_list(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys,
                           write(tmp_path, "list.cfg", "- 1\n- 2\n"))
        assert err == "config error: config: top level must be a mapping\n"

    def test_summary_into_a_missing_directory(self, tmp_path, capsys):
        path = single_config(tmp_path)
        summary = str(tmp_path / "nodir" / "summary.yaml")
        assert main(["run", path, "--summary", summary]) == 4
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("I/O error: "), err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("model", [
        {"kind": "linear", "matrix": MATRIX_3D},
        {"kind": "quadratic", "eps": 0.1, "cstab": 1.0,
         "matrix": MATRIX_3D}], ids=["linear", "quadratic"])
    def test_3d_matrix_refused_while_parsing(self, tmp_path, capsys, model):
        # Parsing took it, and the run ended in a solver abort (exit 2).
        err = self.run_bad(tmp_path, capsys,
                           single_config(tmp_path, model=model))
        assert err == "config error: model.matrix: expected rows of numbers\n"

    def test_3d_level_matrix_refused_while_parsing(self, tmp_path, capsys):
        path = TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        sigma = doc["levels"][1]["model"]["sigma"]
        doc["levels"][1]["model"] = {
            "kind": "linear", "matrix": np.diag(sigma)[:, :, None].tolist()}
        write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        err = self.run_bad(tmp_path, capsys, path)
        assert err == ("config error: levels[1].model.matrix: expected rows "
                       "of numbers\n")
        assert not (tmp_path / "ml.csv").exists()


class TestOutputsOpenedFirst:
    """Every output is opened beside its target before the run and renamed
    over it after: a target that cannot be written fails first, naming
    the path as given, and leaves no file."""

    @pytest.mark.parametrize("mode, key, flag", [
        ("single", "summaryPath", "--summary"),
        ("single", "tracePath", "--trace"),
        ("multilevel", "summaryPath", "--summary"),
        ("example-schedule", "schedulePath", None)])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_target_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, mode, key, flag, target):
        # --summary into a missing directory exited 4 after the run,
        # naming the temp file and leaving a fresh trace; a target that is
        # a directory failed only at the rename.
        ran = []
        for name in ("run_algorithm1", "run_multi_level"):
            monkeypatch.setattr(cli_module, name,
                                lambda *a, **k: ran.append(1))
        (tmp_path / "adir").mkdir()
        given = str(tmp_path / ("nodir/out" if target == "missing-dir"
                                else "adir"))
        doc = mode_doc(tmp_path, mode)
        args = []
        if flag:
            args = [flag, given]
        else:
            doc["output"][key] = given
        path = write(tmp_path, "out.cfg", yaml.safe_dump(doc))
        before = sorted(os.listdir(tmp_path))
        assert main(["run", path, *args]) == 4
        out, err = capsys.readouterr()
        reason = ("[Errno 2] No such file or directory"
                  if target == "missing-dir" else "[Errno 21] Is a directory")
        assert (out, err) == ("", f"I/O error: {reason}: {given!r}\n")
        assert not ran
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "adir") == []

    def test_solver_abort_leaves_no_output(self, tmp_path, capsys,
                                           monkeypatch):
        # A single-level run that raises after streaming two rows keeps
        # no trace and writes no summary.
        real = cli_module.run_algorithm1

        def aborting(*args, on_iteration):
            def row(st):
                if st.k == 2:
                    raise NonConvergence("bounded search ran out of steps")
                on_iteration(st)
            return real(*args, on_iteration=row)

        monkeypatch.setattr(cli_module, "run_algorithm1", aborting)
        path = single_config(tmp_path)
        assert main(["run", path]) == 2
        assert capsys.readouterr() == (
            "", "solver abort: bounded search ran out of steps\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.yaml"]

    @pytest.mark.parametrize("overrides, reason", [
        ({"solver": {"etaHat": 1e-8, "maxIterations": 5}}, "MaxIterations"),
        ({"model": {"kind": "linear", "matrix": [[1.0, 0.0], [-1.0, 0.0]]}},
         "StepDegenerate")])
    def test_stopped_run_writes_trace_and_summary(self, tmp_path, overrides,
                                                  reason):
        path = single_config(tmp_path, **overrides)
        assert main(["run", path, "--quiet"]) == 2
        summary = yaml.safe_load((tmp_path / "summary.yaml").read_text())
        assert summary["stopReason"] == reason
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) == summary["stoppedAtK"] + 1
        assert not [f for f in os.listdir(tmp_path)
                    if f.startswith(".tmp-projsd-")]

    def test_mode_without_a_trace_ignores_the_flag(self, tmp_path, capsys):
        path = write(tmp_path, "v.cfg",
                     yaml.safe_dump(mode_doc(tmp_path, "validate")))
        trace = tmp_path / "t.csv"
        assert main(["run", path, "--trace", str(trace)]) == 0
        assert capsys.readouterr() == ("schedule valid\n", "")
        assert not trace.exists()


class TestOneFileEach:
    """Two of the config and the outputs that name one file are refused
    while parsing (exit 3), naming both, and nothing is written."""

    @pytest.mark.parametrize("args, message", [
        (["--trace", "{0}/x", "--summary", "{0}/x"],
         "--summary: {0}/x is the same file as --trace"),
        (["--summary", "{0}/cfg.yaml"],
         "--summary: {0}/cfg.yaml is the same file as the config"),
        (["--trace", "{0}/sub/../cfg.yaml"],
         "--trace: {0}/sub/../cfg.yaml is the same file as the config"),
        (["--summary", "{0}/trace.csv"],
         "--summary: {0}/trace.csv is the same file as output.tracePath")],
        ids=["trace-summary", "summary-config", "trace-config",
             "summary-trace-key"])
    def test_flags(self, tmp_path, capsys, args, message):
        # --trace X --summary X exited 0 and X held only the summary;
        # --summary <config> exited 0 and overwrote the config.
        path = single_config(tmp_path)
        config = (tmp_path / "cfg.yaml").read_text()
        args = [a.format(tmp_path) for a in args]
        assert main(["run", path, *args]) == 3
        assert capsys.readouterr() == (
            "", f"config error: {message.format(tmp_path)}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.yaml"]
        assert (tmp_path / "cfg.yaml").read_text() == config

    def test_config_keys(self, tmp_path, capsys):
        doc = mode_doc(tmp_path, "example-schedule")
        doc["output"]["summaryPath"] = doc["output"]["schedulePath"]
        path = write(tmp_path, "ex.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == (
            f"config error: output.schedulePath: {tmp_path / 'gen.yaml'} "
            "is the same file as output.summaryPath\n")
        assert not (tmp_path / "gen.yaml").exists()

    def test_symlink_to_an_output(self, tmp_path, capsys):
        path = single_config(tmp_path)
        os.symlink(tmp_path / "trace.csv", tmp_path / "link.csv")
        assert main(["run", path, "--summary",
                     str(tmp_path / "link.csv")]) == 3
        assert "is the same file as output.tracePath" in \
            capsys.readouterr().err


class TestNodesAreConstructorCalls:
    """A space, set or model node is a call of its kind's constructor:
    each key it reads is a keyword of that constructor, read by one
    reader, and every refusal is recorded at its key or at the node."""

    NODES = [("space", "the space"),
             *(("set", kind) for kind in cli_module._READS["set"]),
             *(("model", kind) for kind in cli_module._READS["model"])]

    @pytest.mark.parametrize("table, context", NODES)
    def test_keys_are_constructor_keywords(self, table, context):
        reads = cli_module._READS[table][context].reads
        keys = {k for k in reads if k != "kind" and not k.endswith("File")}
        params = inspect.signature(cli_module._MAKERS[context]).parameters
        assert keys <= set(params)
        assert keys <= set(cli_module._KEY_READS)

    def test_quadratic_refusals_keep_their_order(self):
        text = MINIMAL_SINGLE.replace(
            "kind: linear",
            "kind: quadratic\n  eps: -1.0\n  cstab: 0.0").replace(
            "[[2.0, 0.0], [0.0, 3.0]]", "[[2.0, x], [0.0, 3.0]]")
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert exc.value.errors == [
            "model.matrix: expected rows of numbers",
            "model.eps: eps = -1.0 must be nonnegative and finite",
            "model.cstab: cstab = 0.0 must be positive and finite"]

    def test_integral_float_support_runs_as_its_int(self, tmp_path):
        # The library's support rule takes an integral float; the CLI
        # refused [1.0] under a rule of its own.
        outputs = []
        for support in ([1], [1.0]):
            path = single_config(tmp_path,
                                 set={"kind": "subspace", "support": support},
                                 data={"ydelta": [0.0, 1.0]})
            assert main(["run", path, "--quiet"]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("trace.csv", "summary.yaml")])
        assert outputs[0] == outputs[1]

    def test_mapping_support_is_refused(self, tmp_path, capsys):
        # A YAML mapping read as its keys ran {0: 1} as the support [0].
        refusal = "support = {0: 1} must be integers in [0, 2**63)\n"
        path = single_config(tmp_path,
                             set={"kind": "subspace", "support": {0: 1}},
                             data={"ydelta": [0.0, 1.0]})
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == f"config error: set: {refusal}"
        TestExecuteMultilevel().make_config(tmp_path)
        doc = yaml.safe_load((tmp_path / "ml.yaml.cfg").read_text())
        doc["levels"][0]["set"]["support"] = {0: 1}
        path = write(tmp_path, "ml.yaml.cfg", yaml.safe_dump(doc))
        assert main(["run", path]) == 3
        assert capsys.readouterr().err \
            == f"config error: levels[0].set: {refusal}"


EXAMPLES = sorted(os.path.join(os.path.dirname(EXAMPLE), name)
                  for name in os.listdir(os.path.dirname(EXAMPLE))
                  if name.endswith(".yaml"))


def _key_paths(node):
    """``(parent, key)`` of every key of the mappings in `node`, through
    lists; a node shared by YAML aliases is walked once."""
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            if isinstance(node, dict):
                yield node, key
            stack.append(value)


@pytest.mark.parametrize("example", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_one_changed_key_parses_or_is_refused(example, monkeypatch):
    # Each key of a committed example, deleted or set to a value of the
    # wrong kind, either parses or raises SchemaError, never another
    # exception.  The changed document is handed to the parser as YAML
    # would load it, without its text: loading is most of a parse.
    with open(example) as fh:
        text = fh.read()
    doc = yaml.safe_load(text)
    monkeypatch.setattr(cli_module, "yaml", types.SimpleNamespace(
        load=lambda text, Loader: doc, SafeLoader=None,
        YAMLError=yaml.YAMLError))
    base_dir = os.path.dirname(example)
    for parent, key in list(_key_paths(doc)):
        items = list(parent.items())
        for change in ["delete", None, "x", -1, [], [[1]], True]:
            if change == "delete":
                del parent[key]
            else:
                parent[key] = change
            try:
                parse_config(text, base_dir=base_dir)
            except SchemaError:
                pass
            parent.clear()
            parent.update(items)
    # The parser read the nodes and changed none.
    assert doc == yaml.safe_load(text)
