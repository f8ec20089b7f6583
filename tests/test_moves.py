"""The declared-moves gate of CI, ``tools/moves.py``: which manifest
lines bind, and what each comparison admits and refuses."""

import importlib.util
import os

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "moves", os.path.join(ROOT, "tools", "moves.py"))
moves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(moves)

HEADER = "level,k,r_k,t_k,radius_ok\n"
TRACE = HEADER + "0,0,1.25,0.5,true\n0,1,0.75,0.25,\n"
SUMMARY = ("finalResidual: 0.015926130948111038\nmode: single\n"
           "rho: 1225.272033134006\nstopReason: DiscrepancyMet\n"
           "stoppedAtK: 1\ntheoremChecks:\n  iterations: 1\n"
           "  radiusOkAll: true\n")


def checkout(path, manifest=None, examples=("offcentre_ball",)):
    os.makedirs(path / "examples")
    for name in examples:
        (path / "examples" / f"{name}.yaml").write_text("mode: single\n")
    if manifest is not None:
        (path / "examples" / "MOVES").write_text(manifest)
    return str(path)


def outputs(path, trace=TRACE, summary=SUMMARY, out=""):
    for ext, text in (("csv", trace), ("yaml", summary), ("out", out),
                      ("err", "")):
        (path.parent / f"{path.name}.{ext}").write_text(text)
    return str(path)


class TestManifest:
    def test_only_added_lines_bind(self, tmp_path):
        old = "# moves\noffcentre_ball 7 an old move\n"
        base = checkout(tmp_path / "base", old)
        head = checkout(tmp_path / "head", old + "\nball-points 8 a new "
                        "move\n# a note\noffcentre_ball 8 moves again\n")
        assert moves.declared(base, head) == ["ball-points",
                                              "offcentre_ball"]
        assert moves.declared(base, base) == []

    def test_no_base_manifest_is_empty(self, tmp_path):
        base = checkout(tmp_path / "base")
        head = checkout(tmp_path / "head", "offcentre_ball 8 a move\n")
        assert moves.declared(base, head) == ["offcentre_ball"]
        assert moves.declared(base, checkout(tmp_path / "none")) == []

    @pytest.mark.parametrize("head_text", [
        "offcentre_ball 7 a reworded move\n",     # an edited line
        "ball-points 8 a new move\n",             # an old line removed
        "ball-points 8 a new move\noffcentre_ball 7 an old move\n",
    ], ids=["edited", "removed", "moved"])
    def test_old_lines_stay_first_and_unchanged(self, tmp_path, head_text):
        base = checkout(tmp_path / "base", "offcentre_ball 7 an old move\n")
        head = checkout(tmp_path / "head", head_text)
        with pytest.raises(moves.Breach, match="first lines"):
            moves.declared(base, head)

    @pytest.mark.parametrize("line", [
        "offcentre_ball a move", "offcentre_ball 8", "no_such 8 a move"])
    def test_malformed_or_unknown_line_is_refused(self, tmp_path, line):
        base = checkout(tmp_path / "base")
        head = checkout(tmp_path / "head", line + "\n")
        with pytest.raises(moves.Breach):
            moves.declared(base, head)

    def test_cli_prints_the_names_and_exits_1_on_a_breach(
            self, tmp_path, monkeypatch, capsys):
        base = checkout(tmp_path / "base", "offcentre_ball 7 a move\n")
        head = checkout(tmp_path / "head", "offcentre_ball 7 a move\n"
                        "ball-points 8 a move\n")
        monkeypatch.chdir(head)
        assert moves.main(["declared", base]) == 0
        assert capsys.readouterr().out == "ball-points\n"
        monkeypatch.chdir(base)
        assert moves.main(["declared", head]) == 1
        assert "first lines" in capsys.readouterr().err


class TestExample:
    def test_floats_within_the_tolerance_pass(self, tmp_path):
        base = outputs(tmp_path / "base")
        head = outputs(tmp_path / "head",
                       TRACE.replace("1.25", "1.2500000000001"),
                       SUMMARY.replace("111038", "111400"))
        moves.compare_example(head, base)

    @pytest.mark.parametrize("trace, summary, out", [
        (TRACE.replace("1.25", "1.25000000001"), SUMMARY, ""),
        (TRACE, SUMMARY.replace("111038", "211038"), ""),
        (TRACE + "0,2,0.5,0.125,\n", SUMMARY, ""),
        (TRACE.replace(",true", ",false"), SUMMARY, ""),
        (TRACE.replace("0,1,", "0,2,"), SUMMARY, ""),
        (TRACE, SUMMARY.replace("stoppedAtK: 1", "stoppedAtK: 2"), ""),
        (TRACE, SUMMARY.replace("DiscrepancyMet", "MaxIterations"), ""),
        (TRACE, SUMMARY.replace("1225.272033134006", "1225.272033134007"),
         ""),
        (TRACE, SUMMARY.replace("iterations: 1", "iterations: 2"), ""),
        (TRACE, SUMMARY, "a line\n"),
        (TRACE.replace("0.25,", "inf,"), SUMMARY, ""),
    ], ids=["trace float", "summary float", "trace rows", "flag", "k", "K",
            "stop reason", "rho", "theoremChecks", "stdout", "inf"])
    def test_every_other_move_is_refused(self, tmp_path, trace, summary,
                                         out):
        base = outputs(tmp_path / "base")
        head = outputs(tmp_path / "head", trace, summary, out)
        with pytest.raises(moves.Breach):
            moves.compare_example(head, base)


def point_line(prefix, point):
    return f"{prefix} {np.asarray(point, float).tobytes().hex()}"


class TestBallPoints:
    BASE = [point_line("3.0 2.0 False", [1.0, -2.0]),
            "1.5 2.0 True NonConvergence: root outside floating-point range",
            "1.5 1.5 False NonConvergence: no sign change within the step "
            "cap",
            point_line("4.0 2.0 False box", [0.5, 0.25])]

    def compare(self, tmp_path, lines):
        (tmp_path / "base.txt").write_text("\n".join(self.BASE) + "\n")
        (tmp_path / "head.txt").write_text("\n".join(lines) + "\n")
        moves.compare_ball_points(str(tmp_path / "head.txt"),
                                  str(tmp_path / "base.txt"))

    def test_points_within_the_tolerance_and_range_ends_pass(
            self, tmp_path, capsys):
        lines = list(self.BASE)
        lines[0] = point_line("3.0 2.0 False", [1.0 + 1e-11, -2.0])
        lines[1] = point_line("1.5 2.0 True", [3.0, 4.0])
        self.compare(tmp_path, lines)
        assert "end of the float range" in capsys.readouterr().out

    @pytest.mark.parametrize("n, line", [
        (0, point_line("3.0 2.0 False", [1.0 + 1e-9, -2.0])),
        (0, "3.0 2.0 False NonConvergence: no sign change within the step "
            "cap"),
        (1, "1.5 2.0 True NonConvergence: no sign change within the step "
            "cap"),
        (2, point_line("1.5 1.5 False", [1.0, 1.0])),
        (3, point_line("4.0 2.0 False subspace", [0.5, 0.25])),
        (3, point_line("4.0 2.0 False box", [0.5, 0.25, 0.0])),
    ], ids=["point", "point to message", "message", "message to point",
            "prefix", "shape"])
    def test_other_moves_are_refused(self, tmp_path, n, line):
        lines = list(self.BASE)
        lines[n] = line
        with pytest.raises(moves.Breach):
            self.compare(tmp_path, lines)

    def test_a_missing_line_is_refused(self, tmp_path):
        with pytest.raises(moves.Breach):
            self.compare(tmp_path, self.BASE[:-1])
