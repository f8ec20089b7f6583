"""Config-driven batch front-end.

Parses a YAML run configuration, constructs the geometry, model, set or
level schedule, executes a single-level or multi-level run (or validates
a schedule without running), and writes a per-iteration CSV trace plus a
YAML summary.  All file writes are atomic (temp file + rename).  The
trace is streamed: the run hands each iteration to the library's
``on_iteration`` hook, which writes its row to the temp file, and the
file is renamed into place when the run ends, so a run holds one
iteration at a time.  Under ``diagnostics.checkTheorems`` the summary's
``theoremChecks`` (top level in single mode, in each ``perLevel`` entry
in multilevel mode) are the tallies of the run's ``RunReport``.  The
solver is deterministic, so an identical config produces byte-identical
files; ``solver.seed`` (or ``--seed``) is metadata echoed into the
summary and feeds no randomness.

Exit codes: 0 success / valid schedule, 2 solver abort, 3 validation
failure, 4 I/O error.  Input that cannot run (mismatched lengths, set
parameters that do not fit ``space.dim``, non-finite numbers other than
open box bounds, a nonpositive ``solver.etaHat``, a nonlinear model
without ``cstab``, or without ``lhat`` under ``checkTheorems``,
``checkTheorems`` without a reference for every run, keys the run would
not read, such as a model key its kind ignores, a section or key of
another mode (``_MODE_UNREAD``) or a level ``reference`` in validate
mode) is a validation failure found while parsing, before anything runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from functools import partial
from types import SimpleNamespace

import numpy as np
import yaml

from .errors import (EtaTooLarge, LambdaTooSmall, NoSuchLevel, ProjSDError,
                     SchemaError, TauOutOfRange, TransitionInvalid)
from .geometry import SpaceGeometry, lp_space
from .models import (DiagonalLinearModel, LinearModel, NoisyData,
                     QuadraticModel)
from .multilevel import (Level, Schedule, example_schedule, run_multi_level,
                         validate_schedule, validate_transition)
from .sets import Ball, Box, CoordinateSubspace, WholeSpace
from .solver import SolverConfig, run_algorithm1

__all__ = ["main", "parse_config", "execute"]

TRACE_HEADER = ("level,k,r_k,t_k,tHat_k,u_k,v_k,w_k,mu_k,"
                "bregman_to_ref,radius_ok")

_TOP_KEYS = {"mode", "space", "dataSpace", "model", "set", "levels",
             "epsilon", "solver", "diagnostics", "output", "data", "x0",
             "schedule"}
_SPACE_KEYS = {"dim", "r", "p", "weights", "Cp", "Gq"}
_MODEL_KEYS = {"kind", "matrix", "matrixFile", "sigma", "eps", "cstab",
               "lhat"}
# Model keys refused per kind: the run would not read them.
_MODEL_UNREAD = {"linear": ("sigma", "eps", "lhat"),
                 "diagonal": ("matrix", "matrixFile", "eps", "lhat"),
                 "quadratic": ("sigma",)}
_SET_KEYS = {"kind", "lower", "upper", "center", "radius", "support"}
_SOLVER_KEYS = {"eta", "etaHat", "maxIterations", "seed"}
_DIAG_KEYS = {"referenceSolution", "checkTheorems"}
_OUTPUT_KEYS = {"tracePath", "summaryPath", "schedulePath"}
_DATA_KEYS = {"ydelta", "ydeltaFile"}
_LEVEL_KEYS = {"eta", "C", "L", "Lhat", "model", "set", "data", "reference"}
# Level model keys refused: the run sets them from the level's C and Lhat.
_LEVEL_MODEL_CONSTANTS = {"cstab": "C", "lhat": "Lhat"}
_SCHEDULE_KEYS = {"lam", "tau", "etaHat", "maxLevels"}
_MODES = {"single", "multilevel", "validate", "example-schedule"}
# Sections and keys refused per mode: the mode would not read them.
_RUNS_NOTHING = ("data", "model", "set", "x0", "diagnostics.checkTheorems",
                 "diagnostics.referenceSolution", "solver.eta",
                 "solver.maxIterations", "solver.seed", "output.tracePath")
_WITH_SCHEDULE = _RUNS_NOTHING + ("dataSpace", "epsilon", "levels",
                                  "solver.etaHat")
_MODE_UNREAD = {
    "single mode": ("epsilon", "levels", "schedule", "output.schedulePath"),
    "multilevel mode": ("data", "model", "schedule", "set", "solver.eta",
                        "diagnostics.referenceSolution",
                        "output.schedulePath"),
    "validate mode": _RUNS_NOTHING + ("output.schedulePath",),
    "validate mode with a schedule": _WITH_SCHEDULE + ("output.schedulePath",),
    "example-schedule mode": _WITH_SCHEDULE,
}


class RunConfig(SimpleNamespace):
    """Parsed and validated run configuration (attribute bag)."""


def _check_mapping(node, allowed, path, errors):
    if node is None:
        return {}
    if not isinstance(node, dict):
        errors.append(f"{path}: expected a mapping")
        return {}
    for key in node:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")
    return node


def _number(node, path, errors, default=None, required=False,
            minimum=None, strict_min=False):
    """The finite number at `node`; `default` when it is absent or
    invalid, with the error recorded."""
    if node is None:
        if required:
            errors.append(f"{path}: missing required value")
        return default
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        errors.append(f"{path}: expected a number")
        return default
    v = float(node)
    if not np.isfinite(v):
        errors.append(f"{path}: expected a finite number")
        return default
    if minimum is not None:
        if strict_min and not v > minimum:
            errors.append(f"{path}: must be > {minimum}")
            return default
        if not strict_min and not v >= minimum:
            errors.append(f"{path}: must be >= {minimum}")
            return default
    return v


def _vector(node, path, errors, required=False):
    if node is None:
        if required:
            errors.append(f"{path}: missing required value")
        return None
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a list of numbers")
        return None
    if arr.ndim != 1:
        errors.append(f"{path}: expected a flat list of numbers")
        return None
    return arr


def _finite_vector(node, path, errors, required=False):
    arr = _vector(node, path, errors, required)
    if arr is not None and not np.all(np.isfinite(arr)):
        errors.append(f"{path}: expected finite numbers")
        return None
    return arr


def _check_length(arr, space, path, errors):
    if arr is not None and space is not None and arr.shape != (space.dim,):
        errors.append(f"{path}: expected {space.dim} entries (space.dim), "
                      f"got {arr.size}")


def _check_problem(space, model, data, path, errors):
    """`model` must act on `space` and match the length of `data`."""
    if model is None:
        return
    if space is not None and model.in_dim != space.dim:
        errors.append(f"{path}model: takes {model.in_dim} inputs, "
                      f"space.dim is {space.dim}")
    if data is not None and data.ydelta.shape != (model.out_dim,):
        errors.append(f"{path}data: ydelta has {data.ydelta.size} entries, "
                      f"the model has {model.out_dim} outputs")


def _matrix_from(node, path, errors, base_dir):
    """Inline list-of-rows or a sidecar CSV referenced by matrixFile."""
    inline, fname = node.get("matrix"), node.get("matrixFile")
    if inline is None and fname is None:
        errors.append(f"{path}: needs either matrix or matrixFile")
        return None
    if inline is not None and fname is not None:
        errors.append(f"{path}: matrix and matrixFile are exclusive")
        return None
    if inline is not None:
        field = f"{path}.matrix"
        try:
            arr = np.atleast_2d(np.asarray(inline, dtype=float))
        except (TypeError, ValueError):
            errors.append(f"{field}: expected rows of numbers")
            return None
    else:
        field = f"{path}.matrixFile"
        full = fname if os.path.isabs(fname) else os.path.join(base_dir,
                                                               fname)
        try:
            arr = np.atleast_2d(np.loadtxt(full, delimiter=",", ndmin=2))
        except OSError as exc:
            errors.append(f"{field}: cannot read {full}: {exc}")
            return None
        except ValueError as exc:
            errors.append(f"{field}: bad CSV in {full}: {exc}")
            return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{field}: expected finite numbers")
        return None
    return arr


def _parse_space(node, errors):
    node = _check_mapping(node, _SPACE_KEYS, "space", errors)
    dim = node.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        errors.append("space.dim: expected a positive integer")
        return None
    r = _number(node.get("r"), "space.r", errors, default=2.0,
                minimum=1.0, strict_min=True)
    p = _number(node.get("p"), "space.p", errors, minimum=1.0,
                strict_min=True)
    weights = _finite_vector(node.get("weights"), "space.weights", errors)
    cp = _number(node.get("Cp"), "space.Cp", errors, minimum=0.0,
                 strict_min=True)
    gq = _number(node.get("Gq"), "space.Gq", errors, minimum=0.0,
                 strict_min=True)
    if errors:
        return None
    try:
        return lp_space(dim, r=r, p=p, weights=weights, Cp=cp, Gq=gq)
    except (ValueError, ProjSDError) as exc:
        errors.append(f"space: {exc}")
        return None


def _parse_set(node, path, errors, space):
    node = _check_mapping(node, _SET_KEYS, path, errors)
    kind = node.get("kind")
    if kind == "wholespace":
        return WholeSpace()
    if kind == "box":
        lo = _vector(node.get("lower"), f"{path}.lower", errors,
                     required=True)
        hi = _vector(node.get("upper"), f"{path}.upper", errors,
                     required=True)
        if lo is None or hi is None:
            return None
        _check_length(lo, space, f"{path}.lower", errors)
        _check_length(hi, space, f"{path}.upper", errors)
        try:
            return Box(lo, hi)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if kind == "ball":
        c = _finite_vector(node.get("center"), f"{path}.center", errors,
                           required=True)
        rad = _number(node.get("radius"), f"{path}.radius", errors,
                      required=True, minimum=0.0, strict_min=True)
        if c is None or rad is None:
            return None
        _check_length(c, space, f"{path}.center", errors)
        try:
            return Ball(c, rad)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if kind == "subspace":
        sup = node.get("support")
        dim = float("inf") if space is None else space.dim
        if not isinstance(sup, list) or not all(
                isinstance(i, int) and not isinstance(i, bool)
                and 0 <= i < dim for i in sup) or not sup:
            errors.append(f"{path}.support: expected a nonempty list of "
                          "integers in [0, space.dim)")
            return None
        return CoordinateSubspace(sup)
    errors.append(f"{path}.kind: expected one of wholespace, box, ball, "
                  "subspace")
    return None


def _parse_model(node, path, errors, s, base_dir):
    node = _check_mapping(node, _MODEL_KEYS, path, errors)
    kind = node.get("kind")
    if isinstance(kind, str):
        for key in _MODEL_UNREAD.get(kind, ()):
            if key in node:
                errors.append(f"{path}.{key}: a {kind} model does not "
                              "read it")
    cstab = _number(node.get("cstab"), f"{path}.cstab", errors,
                    minimum=0.0, strict_min=True)
    if kind == "linear":
        mat = _matrix_from(node, path, errors, base_dir)
        if mat is None:
            return None
        return LinearModel(mat, s=s, cstab=cstab)
    if kind == "diagonal":
        sigma = _finite_vector(node.get("sigma"), f"{path}.sigma", errors,
                               required=True)
        if sigma is None:
            return None
        return DiagonalLinearModel(sigma, s=s, cstab=cstab)
    if kind == "quadratic":
        mat = _matrix_from(node, path, errors, base_dir)
        eps = _number(node.get("eps"), f"{path}.eps", errors,
                      required=True, minimum=0.0)
        lhat = _number(node.get("lhat"), f"{path}.lhat", errors,
                       minimum=0.0, strict_min=True)
        if mat is None or eps is None:
            return None
        try:
            return QuadraticModel(mat, eps, s=s, cstab=cstab, lhat=lhat)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}.kind: expected one of linear, diagonal, "
                  "quadratic")
    return None


def _parse_data(node, path, errors, base_dir, eta):
    """Data with the noise level `eta` that the run uses."""
    node = _check_mapping(node, _DATA_KEYS, path, errors)
    ydelta, fname = node.get("ydelta"), node.get("ydeltaFile")
    if ydelta is None and fname is None:
        errors.append(f"{path}: needs either ydelta or ydeltaFile")
        return None
    if ydelta is None:
        full = fname if os.path.isabs(fname) else os.path.join(base_dir,
                                                               fname)
        try:
            ydelta = np.atleast_1d(np.loadtxt(full, delimiter=","))
        except (OSError, ValueError) as exc:
            errors.append(f"{path}.ydeltaFile: cannot read {full}: {exc}")
    arr = _finite_vector(ydelta, f"{path}.ydelta", errors)
    if arr is None or eta is None:
        return None
    return NoisyData(arr, eta)


def _parse_level(node, idx, errors, s, base_dir, space):
    path = f"levels[{idx}]"
    node = _check_mapping(node, _LEVEL_KEYS, path, errors)
    eta = _number(node.get("eta"), f"{path}.eta", errors, required=True,
                  minimum=0.0)
    C = _number(node.get("C"), f"{path}.C", errors, required=True,
                minimum=0.0, strict_min=True)
    L = _number(node.get("L"), f"{path}.L", errors, required=True,
                minimum=0.0)
    Lhat = _number(node.get("Lhat"), f"{path}.Lhat", errors, required=True,
                   minimum=0.0, strict_min=True)
    cset = model = data = None
    if node.get("set") is not None:
        cset = _parse_set(node["set"], f"{path}.set", errors, space)
    model_node = node.get("model")
    if isinstance(model_node, dict):
        # The node may be shared with other levels through a YAML alias,
        # so it is read, never changed.
        for key, home in _LEVEL_MODEL_CONSTANTS.items():
            if model_node.get(key) is not None:
                errors.append(f"{path}.model.{key}: a level's constants are "
                              f"its C, L and Lhat; set {path}.{home}")
        model_node = {key: val for key, val in model_node.items()
                      if key not in _LEVEL_MODEL_CONSTANTS}
    if model_node is not None:
        model = _parse_model(model_node, f"{path}.model", errors, s,
                             base_dir)
    if node.get("data") is not None:
        data = _parse_data(node["data"], f"{path}.data", errors, base_dir,
                           eta)
    ref = _finite_vector(node.get("reference"), f"{path}.reference", errors)
    _check_problem(space, model, data, f"{path}.", errors)
    _check_length(ref, space, f"{path}.reference", errors)
    if eta is None or C is None or L is None or Lhat is None:
        return None
    return Level(index=idx, eta=eta, C=C, L=L, Lhat=Lhat, cset=cset,
                 model=model, data=data, reference=ref)


def _check_nesting(levels, errors):
    """Coordinate-subspace levels must be nested coarse-to-fine."""
    supports = [set(lv.cset.support.tolist()) for lv in levels
                if isinstance(lv.cset, CoordinateSubspace)]
    for n in range(len(supports) - 1):
        if not supports[n] <= supports[n + 1]:
            errors.append(
                f"levels[{n}].set: subspace supports must be nested, "
                f"support of level {n} is not contained in level {n + 1}")


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and validate a YAML run configuration.

    Collects every schema error before raising, so a single run reports
    all problems at once.

    Raises
    ------
    SchemaError
        With the full list of path-to-field messages.
    """
    errors: list[str] = []
    # libyaml's parser, when PyYAML was built with it, feeds the same
    # SafeConstructor and so gives the same objects, in a fraction of the
    # pure-Python parser's time.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        raw = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise SchemaError([f"config: invalid YAML: {exc}"])
    if not isinstance(raw, dict):
        raise SchemaError(["config: top level must be a mapping"])
    _check_mapping(raw, _TOP_KEYS, "config", errors)

    mode = raw.get("mode")
    if mode not in _MODES:
        errors.append(f"mode: expected one of {sorted(_MODES)}")
        raise SchemaError(errors)

    ds = _check_mapping(raw.get("dataSpace"), {"s"}, "dataSpace", errors)
    s = _number(ds.get("s"), "dataSpace.s", errors, default=2.0,
                minimum=1.0, strict_min=True)

    sched_node = _check_mapping(raw.get("schedule"), _SCHEDULE_KEYS,
                                "schedule", errors)
    sol = _check_mapping(raw.get("solver"), _SOLVER_KEYS, "solver", errors)
    what = f"{mode} mode" + (" with a schedule" if mode == "validate"
                             and sched_node else "")
    for key in _MODE_UNREAD[what]:
        section, _, sub = key.partition(".")
        node = raw.get(section) if sub else raw
        if isinstance(node, dict) and (sub or section) in node:
            errors.append(f"{key}: {what} does not read it")
    eta = _number(sol.get("eta"), "solver.eta", errors, default=0.0,
                  minimum=0.0)
    eta_hat = _number(sol.get("etaHat"), "solver.etaHat", errors,
                      required=mode in ("single", "multilevel")
                      or (mode == "validate" and not sched_node),
                      minimum=0.0, strict_min=True)
    max_iter = sol.get("maxIterations", 10 ** 6)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) \
            or max_iter < 1:
        errors.append("solver.maxIterations: expected a positive integer")
        max_iter = 10 ** 6
    seed = sol.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("solver.seed: expected a nonnegative integer")
        seed = 0

    diag = _check_mapping(raw.get("diagnostics"), _DIAG_KEYS,
                          "diagnostics", errors)
    reference = None
    if mode == "single":
        reference = _finite_vector(diag.get("referenceSolution"),
                                   "diagnostics.referenceSolution", errors)
    check_theorems = diag.get("checkTheorems", False)
    if not isinstance(check_theorems, bool):
        errors.append("diagnostics.checkTheorems: expected a boolean")
        check_theorems = False

    out = _check_mapping(raw.get("output"), _OUTPUT_KEYS, "output", errors)

    space = cset = model = data = x0 = None
    levels: list[Level] = []
    epsilon = _number(raw.get("epsilon"), "epsilon", errors, default=1.0,
                      minimum=0.0, strict_min=True)

    if mode in ("single", "multilevel") or raw.get("space") is not None:
        space = _parse_space(raw.get("space"), errors)
    if mode in ("single", "multilevel"):
        x0 = _finite_vector(raw.get("x0"), "x0", errors, required=True)
        _check_length(x0, space, "x0", errors)

    if mode == "single":
        if raw.get("set") is None:
            errors.append("set: missing required section for single mode")
        else:
            cset = _parse_set(raw["set"], "set", errors, space)
        if raw.get("model") is None:
            errors.append("model: missing required section for single mode")
        else:
            model = _parse_model(raw["model"], "model", errors, s, base_dir)
        if raw.get("data") is None:
            errors.append("data: missing required section for single mode")
        else:
            data = _parse_data(raw["data"], "data", errors, base_dir, eta)
        _check_length(reference, space, "diagnostics.referenceSolution",
                      errors)
        _check_problem(space, model, data, "", errors)
        # A constant the node holds but that was rejected has its error.
        if model is not None and model.lip != 0.0:
            if raw["model"].get("cstab") is None:
                errors.append("model.cstab: a nonlinear model needs a "
                              "stability constant")
            if check_theorems and raw["model"].get("lhat") is None:
                errors.append("model.lhat: checkTheorems on a nonlinear "
                              "model needs a derivative bound")
        if check_theorems and reference is None:
            errors.append("diagnostics.checkTheorems: needs "
                          "diagnostics.referenceSolution")
        if not check_theorems and "referenceSolution" in diag:
            errors.append("diagnostics.referenceSolution: read only under "
                          "diagnostics.checkTheorems: true")
        if eta_hat is not None and not eta_hat > 3.0 * eta:
            errors.append("solver.etaHat: the discrepancy threshold must "
                          "satisfy etaHat > 3 * eta")

    if mode in ("multilevel", "validate"):
        lv_raw = raw.get("levels")
        if mode == "validate" and sched_node:
            pass  # validate a closed-form schedule instead of levels
        elif not isinstance(lv_raw, list) or not lv_raw:
            errors.append("levels: expected a nonempty list")
        else:
            for i, node in enumerate(lv_raw):
                lv = _parse_level(node, i, errors, s, base_dir, space)
                if lv is not None:
                    levels.append(lv)
                if mode == "multilevel" and check_theorems \
                        and isinstance(node, dict) \
                        and node.get("reference") is None:
                    errors.append(f"levels[{i}].reference: checkTheorems "
                                  "needs a reference on every level")
                if mode == "validate" and isinstance(node, dict) \
                        and "reference" in node:
                    errors.append(f"levels[{i}].reference: validate mode "
                                  "runs nothing and does not read it")
            if len(levels) == len(lv_raw):
                _check_nesting(levels, errors)

    if mode == "example-schedule" or (mode == "validate" and sched_node):
        if not sched_node:
            errors.append("schedule: missing required section for "
                          "example-schedule mode")
        else:
            _number(sched_node.get("lam"), "schedule.lam", errors,
                    required=True, minimum=0.0, strict_min=True)
            _number(sched_node.get("tau"), "schedule.tau", errors,
                    required=True, minimum=0.0, strict_min=True)
            _number(sched_node.get("etaHat"), "schedule.etaHat", errors,
                    required=True, minimum=0.0, strict_min=True)
            ml = sched_node.get("maxLevels", 64)
            if not isinstance(ml, int) or isinstance(ml, bool) or ml < 1:
                errors.append("schedule.maxLevels: expected a positive "
                              "integer")
        if raw.get("space") is None:
            errors.append("space: missing required section (constants "
                          "enter the schedule bounds)")

    if errors:
        raise SchemaError(errors)
    return RunConfig(mode=mode, space=space, s=s, cset=cset, model=model,
                     data=data, x0=x0, levels=levels, epsilon=epsilon,
                     eta=eta, eta_hat=eta_hat, max_iterations=max_iter,
                     seed=seed, reference=reference,
                     check_theorems=check_theorems,
                     schedule=dict(sched_node) if sched_node else None,
                     trace_path=out.get("tracePath"),
                     summary_path=out.get("summaryPath"),
                     schedule_path=out.get("schedulePath"))


def _fail(quiet: bool, message: str, code: int) -> int:
    """Report a failure on stderr and return its exit code."""
    if not quiet:
        print(message, file=sys.stderr)
    return code


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file open for writing at a temp path beside `path`, renamed
    over `path` when the block ends and removed if it raises."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-projsd-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, content: str):
    with _atomic_file(path) as fh:
        fh.write(content)


# One trace row; %s renders a float as repr() does.
_TRACE_ROW = "%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"
_FLAG = {None: "", True: "true", False: "false"}


@contextlib.contextmanager
def _trace_writer(path):
    """An observer ``(level, state)`` that streams one CSV row per
    iteration to `path`, renamed into place when the block ends (see
    `_atomic_file`); without a path it writes nothing."""
    if not path:
        yield lambda level, st: None
        return
    with _atomic_file(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        write = fh.write

        def row(level, st):
            breg = st.bregman_to_ref
            write(_TRACE_ROW % (level, st.k, st.rk, st.tk, st.that_k, st.uk,
                                st.vk, st.wk, st.muk,
                                "" if breg is None else breg,
                                _FLAG[st.radius_ok]))
        yield row


def _write_summary(path, summary):
    _atomic_write(path, yaml.safe_dump(summary, sort_keys=True,
                                       default_flow_style=False))


def _theorem_checks(report):
    """``theoremChecks`` of one run with a reference: its report's
    tallies.  A run that stops at K = 0 tallies no step, so its start's
    radius check counts on its own."""
    return {
        "iterations": report.stopped_at_k,
        "monotonicityViolations": report.monotonicity_violations,
        "radiusOkAll": (report.radius_violations == 0
                        and report.start_radius_ok is not False),
        "strictBoundOkAll": report.strict_bound_violations == 0,
    }


def _add_failure(entry, report):
    """Name the error a run stopped on (StepDegenerate) in its summary
    entry; successful runs get no key."""
    if report.failure is not None:
        entry["failure"] = (f"{type(report.failure).__name__}: "
                            f"{report.failure}")


def _run_single(cfg: RunConfig, quiet: bool) -> int:
    solver_cfg = SolverConfig(eta=cfg.eta, eta_hat=cfg.eta_hat,
                              max_iterations=cfg.max_iterations,
                              diagnostic_reference=cfg.reference)
    try:
        with _trace_writer(cfg.trace_path) as write_row:
            report = run_algorithm1(cfg.space, cfg.cset, cfg.model,
                                    cfg.data, cfg.x0, solver_cfg,
                                    on_iteration=partial(write_row, 0))
    except ProjSDError as exc:
        return _fail(quiet, f"solver abort: {exc}", 2)
    summary = {
        "mode": "single",
        "stopReason": report.stop_reason,
        "stoppedAtK": report.stopped_at_k,
        "finalResidual": float(report.final_residual),
        "projectedStart": report.projected_start,
        "seed": cfg.seed,
    }
    _add_failure(summary, report)
    if report.rho is not None:
        summary["rho"] = float(report.rho)
    if cfg.check_theorems:
        summary["theoremChecks"] = _theorem_checks(report)
    if cfg.summary_path:
        _write_summary(cfg.summary_path, summary)
    if not quiet:
        print(f"{report.stop_reason} at k={report.stopped_at_k}, "
              f"residual {report.final_residual:.6e}")
    return 0 if report.stop_reason == "DiscrepancyMet" else 2


def _build_schedule(cfg: RunConfig) -> Schedule:
    return Schedule(levels=cfg.levels, epsilon=cfg.epsilon,
                    eta_hat=cfg.eta_hat)


def _run_multilevel(cfg: RunConfig, quiet: bool) -> int:
    schedule = _build_schedule(cfg)
    try:
        with _trace_writer(cfg.trace_path) as write_row:
            report = run_multi_level(
                cfg.space, schedule, cfg.x0,
                max_iterations_per_level=cfg.max_iterations,
                on_iteration=write_row)
    except (TransitionInvalid, NoSuchLevel, EtaTooLarge) as exc:
        return _fail(quiet, f"schedule invalid: {exc}", 3)
    except ProjSDError as exc:
        return _fail(quiet, f"solver abort: {exc}", 2)
    per_level = []
    for idx, k, res, rep in report.per_level:
        entry = {"level": idx, "K": k, "finalResidual": float(res),
                 "stopReason": rep.stop_reason}
        _add_failure(entry, rep)
        if cfg.check_theorems:
            entry["theoremChecks"] = _theorem_checks(rep)
        per_level.append(entry)
    summary = {
        "mode": "multilevel",
        "stopReason": report.stop_reason,
        "finalResidual": float(report.final_residual),
        "perLevel": per_level,
        "seed": cfg.seed,
    }
    if cfg.summary_path:
        _write_summary(cfg.summary_path, summary)
    ok = report.stop_reason == "DiscrepancyMet"
    if not quiet:
        print(f"{report.stop_reason}: final residual "
              f"{report.final_residual:.6e} over "
              f"{len(report.per_level)} levels")
    return 0 if ok else 2


def _schedule_from_cfg(cfg: RunConfig) -> Schedule:
    if cfg.schedule:
        return example_schedule(lam=float(cfg.schedule["lam"]),
                                tau=float(cfg.schedule["tau"]),
                                space=cfg.space,
                                eta_hat=float(cfg.schedule["etaHat"]),
                                max_levels=int(cfg.schedule.get(
                                    "maxLevels", 64)))
    return _build_schedule(cfg)


def _pair_entry(n, lhs, rhs, ok):
    return {"level": n, "lhs": float(lhs), "rhs": float(rhs),
            "ok": bool(ok)}


def _run_validate(cfg: RunConfig, schedule: Schedule, quiet: bool) -> int:
    valid, reason, final = True, "valid", None
    try:
        transitions, final = validate_schedule(cfg.space, schedule)
        pairs = [_pair_entry(*t) for t in transitions]
    except (TransitionInvalid, NoSuchLevel, EtaTooLarge) as exc:
        valid, reason = False, str(exc)
        # Every pair is listed, also the ones after a failing pair.
        pairs = []
        for lv, nxt in zip(schedule.levels, schedule.levels[1:]):
            try:
                pairs.append(_pair_entry(lv.index, *validate_transition(
                    cfg.space, lv, nxt, schedule.epsilon)))
            except EtaTooLarge:
                pairs.append({"level": lv.index, "ok": False})
    summary = {
        "mode": "validate",
        "valid": valid,
        "reason": reason,
        "transitions": pairs,
        "finalLevel": final,
        "etas": [float(e) for e in schedule.etas],
    }
    if cfg.summary_path:
        _write_summary(cfg.summary_path, summary)
    if not quiet:
        print("schedule valid" if valid else f"schedule invalid: {reason}")
    return 0 if valid else 3


def serialize_schedule(schedule: Schedule, space: SpaceGeometry) -> str:
    """Render a constants-only schedule as a validate-mode config."""
    doc = {
        "mode": "validate",
        "space": {"dim": int(space.dim), "r": float(space.r),
                  "p": float(space.p), "Cp": float(space.Cp),
                  "Gq": float(space.Gq)},
        "epsilon": float(schedule.epsilon),
        "solver": {"etaHat": float(schedule.eta_hat)},
        "levels": [
            {"eta": float(lv.eta), "C": float(lv.C), "L": float(lv.L),
             "Lhat": float(lv.Lhat)}
            for lv in schedule.levels
        ],
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def _run_example_schedule(cfg: RunConfig, schedule: Schedule,
                          quiet: bool) -> int:
    text = serialize_schedule(schedule, cfg.space)
    if cfg.schedule_path:
        _atomic_write(cfg.schedule_path, text)
    elif not quiet:
        sys.stdout.write(text)
    if cfg.summary_path:
        _write_summary(cfg.summary_path, {
            "mode": "example-schedule",
            "levels": len(schedule.levels),
            "etas": [float(e) for e in schedule.etas],
        })
    if not quiet and cfg.schedule_path:
        print(f"wrote {len(schedule.levels)}-level schedule to "
              f"{cfg.schedule_path}")
    return 0


def execute(cfg: RunConfig, quiet: bool = False) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    try:
        if cfg.mode == "single":
            return _run_single(cfg, quiet)
        if cfg.mode == "multilevel":
            return _run_multilevel(cfg, quiet)
        try:
            schedule = _schedule_from_cfg(cfg)
        except (LambdaTooSmall, TauOutOfRange, NoSuchLevel) as exc:
            return _fail(quiet, f"invalid schedule parameters: {exc}", 3)
        if cfg.mode == "validate":
            return _run_validate(cfg, schedule, quiet)
        return _run_example_schedule(cfg, schedule, quiet)
    except OSError as exc:
        return _fail(quiet, f"I/O error: {exc}", 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projsd",
        description="Projected steepest descent runs driven by a YAML "
                    "config.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a run configuration")
    run.add_argument("config", help="path to the YAML config file")
    run.add_argument("--trace", help="override output.tracePath")
    run.add_argument("--summary", help="override output.summaryPath")
    run.add_argument("--seed", type=int,
                     help="override solver.seed (metadata only)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress console output")
    args = parser.parse_args(argv)

    try:
        with io.open(args.config, "r") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(args.quiet, f"I/O error: {exc}", 4)
    try:
        cfg = parse_config(text, base_dir=os.path.dirname(
            os.path.abspath(args.config)))
    except SchemaError as exc:
        return _fail(args.quiet, "\n".join(f"config error: {msg}"
                                           for msg in exc.errors), 3)
    if args.trace:
        cfg.trace_path = args.trace
    if args.summary:
        cfg.summary_path = args.summary
    if args.seed is not None:
        cfg.seed = args.seed
    return execute(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
