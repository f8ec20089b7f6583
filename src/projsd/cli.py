"""Config-driven batch front-end.

Parses a YAML run configuration, constructs the geometry, model, set or
level schedule, executes a single-level or multi-level run (or validates
the levels of a schedule without running), and writes a per-iteration
CSV trace plus a YAML summary.  All file writes are atomic (temp file +
rename).  The trace is streamed: the run hands each iteration to the
library's ``on_iteration`` hook, which writes its row to the temp file,
and the file is renamed into place when the run ends, so a run holds
one iteration at a time.  Under ``diagnostics.checkTheorems`` the summary's
``theoremChecks`` (top level in single mode, in each ``perLevel`` entry
in multilevel mode) are the tallies of the run's ``RunReport``.  The
solver is deterministic, so an identical config produces byte-identical
files; ``solver.seed`` (or ``--seed``) is metadata echoed into the
summary and feeds no randomness.

Exit codes: 0 success / valid schedule, 2 solver abort, 3 validation
failure, 4 I/O error.  Every mapping of the config is read through one
table, ``_READS``, which lists the keys each mode (or model or set kind)
reads and requires; a key the run would not read, and a missing key it
needs, are validation failures.  So is other input that cannot run
(a number that breaks its input rule of README ("Input rules"),
mismatched lengths, set parameters that do not fit ``space.dim``,
non-finite vector entries other than open box bounds, a nonlinear
model without ``cstab``, or without ``lhat`` under ``checkTheorems``,
``checkTheorems`` without a reference for every run, example-schedule
parameters the generator refuses (an ``etaHat`` that no level with float
constants reaches too), an output path that is not a file name, a
negative ``--seed``).  All of it is found while parsing, before
anything runs.  A level's index in the trace and the summary is its
position in ``levels``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from collections import namedtuple
from functools import partial
from types import SimpleNamespace

import numpy as np
import yaml

from .errors import (EtaTooLarge, LambdaTooSmall, NoSuchLevel, ProjSDError,
                     SchemaError, TauOutOfRange, TransitionInvalid, exponent,
                     integer, real)
from .errors import seed as _seed
from .geometry import SpaceGeometry, lp_space
from .models import (DiagonalLinearModel, LinearModel, NoisyData,
                     QuadraticModel)
from .multilevel import (Level, Schedule, example_schedule, run_multi_level,
                         validate_schedule)
from .sets import Ball, Box, CoordinateSubspace, WholeSpace
from .solver import SolverConfig, run_algorithm1

__all__ = ["main", "parse_config", "execute"]

TRACE_HEADER = ("level,k,r_k,t_k,tHat_k,u_k,v_k,w_k,mu_k,"
                "bregman_to_ref,radius_ok")

_MODES = ("single", "multilevel", "validate", "example-schedule")

_Context = namedtuple("_Context", "name reads required pairs")


def _table(spec, name="{}"):
    """Compile ``{context: "key key! a|b ..."}``: ``!`` marks a required
    key and ``a|b`` a pair of which exactly one is required."""
    table = {}
    for context, keys in spec.items():
        words = keys.split()
        table[context] = _Context(
            name.format(context),
            frozenset(k for w in words for k in w.rstrip("!").split("|")),
            tuple(w[:-1] for w in words if w.endswith("!")),
            tuple(tuple(w.split("|")) for w in words if "|" in w))
    return table


# The keys each config mapping reads, per context: the mode for the top
# level and for solver, diagnostics, output and levels[i]; the kind for
# model and set.
_READS = {
    "config": _table({
        "single mode": "mode space! dataSpace model! set! data! x0! solver! "
                       "diagnostics output",
        "multilevel mode": "mode space! dataSpace levels! epsilon x0! "
                           "solver! diagnostics output",
        "validate mode": "mode space! dataSpace levels! epsilon solver! "
                         "diagnostics output",
        "example-schedule mode": "mode space! schedule! solver diagnostics "
                                 "output"}),
    "solver": _table({
        "single mode": "eta etaHat! maxIterations seed",
        "multilevel mode": "etaHat! maxIterations seed",
        "validate mode": "etaHat!", "example-schedule mode": ""}),
    "diagnostics": _table({
        "single mode": "referenceSolution checkTheorems",
        "multilevel mode": "checkTheorems", "validate mode": "",
        "example-schedule mode": ""}),
    "output": _table({
        "single mode": "tracePath summaryPath",
        "multilevel mode": "tracePath summaryPath",
        "validate mode": "summaryPath",
        "example-schedule mode": "schedulePath summaryPath"}),
    "levels[i]": _table({
        "multilevel mode": "eta! C! L! Lhat! model! set! data! reference",
        "validate mode": "eta! C! L! Lhat! model set data"}),
    "model": _table({
        "linear": "kind matrix|matrixFile",
        "diagonal": "kind sigma!",
        "quadratic": "kind matrix|matrixFile eps! cstab lhat"},
        "a {} model"),
    "set": _table({"wholespace": "kind", "box": "kind lower! upper!",
                   "ball": "kind center! radius!",
                   "subspace": "kind support!"}, "a {} set"),
    "space": _table({"the space": "dim! r p weights Cp Gq"}),
    "dataSpace": _table({"the data space": "s"}),
    "data": _table({"the data": "ydelta|ydeltaFile"}),
    "schedule": _table({"the schedule": "lam! tau! etaHat!"}),
}
# Level model keys refused: the run sets them from the level's C and Lhat.
_LEVEL_MODEL_CONSTANTS = {"cstab": "C", "lhat": "Lhat"}


class RunConfig(SimpleNamespace):
    """Parsed and validated run configuration (attribute bag)."""


def _read(node, table, context, path, errors):
    """`node` narrowed to the keys that `context` of `table` reads.

    Records a key that only another context reads, a key that no context
    reads, and each missing required key.  A null value counts as absent
    and a pair that breaks its exactly-one rule is dropped, so every key
    left is one to parse.  An absent node reads as empty: where it is
    required, its parent reported it."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        errors.append(f"{path}: expected a mapping")
        return {}
    ctx, prefix = table[context], f"{path}." if path else ""
    for key in node:
        if key in ctx.reads:
            continue
        if any(key in c.reads for c in table.values()):
            errors.append(f"{prefix}{key}: {ctx.name} does not read it")
        else:
            errors.append(f"{path or 'config'}.{key}: unknown key")
    out = {k: v for k, v in node.items() if k in ctx.reads and v is not None}
    for key in ctx.required:
        if key not in out:
            errors.append(f"{prefix}{key}: {ctx.name} needs it")
    for a, b in ctx.pairs:
        if (a in out) == (b in out):
            errors.append(f"{path}: {ctx.name} needs exactly one of {a} "
                          f"and {b}")
            out.pop(a, None)
            out.pop(b, None)
    return out


def _read_kind(node, table, path, errors):
    """`node` read in the context its ``kind`` names; None when it is
    absent or, with the error recorded, when its kind names none."""
    if node is None:
        return None
    kind = node.get("kind") if isinstance(node, dict) else None
    if isinstance(kind, str) and kind in table:
        return _read(node, table, kind, path, errors)
    errors.append(f"{path}.kind: expected one of {', '.join(table)}")
    return None


_nonnegative = partial(real, positive=False)


def _scalar(node, path, errors, rule, default=None):
    """The number at `node` as `rule`, an input rule named by the last
    key of `path`, returns it; `default` when it is absent or, with the
    error recorded, refused."""
    if node is None:
        return default
    try:
        return rule(path.rpartition(".")[2], node)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return default


def _vector(node, path, errors):
    if node is None:
        return None
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{path}: expected a list of numbers")
        return None
    if arr.ndim != 1:
        errors.append(f"{path}: expected a flat list of numbers")
        return None
    return arr


def _finite_vector(node, path, errors):
    arr = _vector(node, path, errors)
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


def _load_csv(fname, field, errors, base_dir, ndmin):
    """The numbers of the sidecar CSV file `fname` names, relative to the
    config's directory; None, with the error recorded, when it cannot be
    read."""
    if not isinstance(fname, str):
        errors.append(f"{field}: expected a file name")
        return None
    full = fname if os.path.isabs(fname) else os.path.join(base_dir, fname)
    try:
        return np.loadtxt(full, delimiter=",", ndmin=ndmin)
    except OSError as exc:
        errors.append(f"{field}: cannot read {full}: {exc}")
    except ValueError as exc:
        errors.append(f"{field}: bad CSV in {full}: {exc}")
    return None


def _matrix_from(node, path, errors, base_dir):
    """Inline list-of-rows or a sidecar CSV referenced by matrixFile."""
    if "matrix" in node:
        field = f"{path}.matrix"
        try:
            arr = np.atleast_2d(np.asarray(node["matrix"], dtype=float))
        except (TypeError, ValueError, OverflowError):
            errors.append(f"{field}: expected rows of numbers")
            return None
    elif "matrixFile" in node:
        field = f"{path}.matrixFile"
        arr = _load_csv(node["matrixFile"], field, errors, base_dir, 2)
        if arr is None:
            return None
    else:
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{field}: expected finite numbers")
        return None
    return arr


def _parse_space(node, errors):
    before = len(errors)
    node = _read(node, _READS["space"], "the space", "space", errors)
    dim = _scalar(node.get("dim"), "space.dim", errors, integer)
    r = _scalar(node.get("r"), "space.r", errors, exponent, 2.0)
    p = _scalar(node.get("p"), "space.p", errors, exponent)
    weights = _finite_vector(node.get("weights"), "space.weights", errors)
    cp = _scalar(node.get("Cp"), "space.Cp", errors, real)
    gq = _scalar(node.get("Gq"), "space.Gq", errors, real)
    if dim is None or len(errors) > before:
        return None
    try:
        return lp_space(dim, r=r, p=p, weights=weights, Cp=cp, Gq=gq)
    except (ValueError, ProjSDError) as exc:
        errors.append(f"space: {exc}")
        return None


def _parse_set(node, path, errors, space):
    node = _read_kind(node, _READS["set"], path, errors)
    if node is None:
        return None
    kind = node["kind"]
    if kind == "wholespace":
        return WholeSpace()
    if kind == "box":
        lo = _vector(node.get("lower"), f"{path}.lower", errors)
        hi = _vector(node.get("upper"), f"{path}.upper", errors)
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
        c = _finite_vector(node.get("center"), f"{path}.center", errors)
        rad = _scalar(node.get("radius"), f"{path}.radius", errors, real)
        if c is None or rad is None:
            return None
        _check_length(c, space, f"{path}.center", errors)
        return Ball(c, rad)
    sup = node.get("support")
    if sup is None:
        return None
    dim = float("inf") if space is None else space.dim
    if not isinstance(sup, list) or not all(
            isinstance(i, int) and not isinstance(i, bool)
            and 0 <= i < dim for i in sup) or not sup:
        errors.append(f"{path}.support: expected a nonempty list of "
                      "integers in [0, space.dim)")
        return None
    return CoordinateSubspace(sup)


def _parse_model(node, path, errors, s, base_dir):
    node = _read_kind(node, _READS["model"], path, errors)
    if node is None:
        return None
    kind = node["kind"]
    if kind == "diagonal":
        sigma = _finite_vector(node.get("sigma"), f"{path}.sigma", errors)
        if sigma is None:
            return None
        return DiagonalLinearModel(sigma, s=s)
    mat = _matrix_from(node, path, errors, base_dir)
    if kind == "linear":
        if mat is None:
            return None
        return LinearModel(mat, s=s)
    eps = _scalar(node.get("eps"), f"{path}.eps", errors, _nonnegative)
    cstab = _scalar(node.get("cstab"), f"{path}.cstab", errors, real)
    lhat = _scalar(node.get("lhat"), f"{path}.lhat", errors, real)
    if mat is None or eps is None:
        return None
    try:
        return QuadraticModel(mat, eps, s=s, cstab=cstab, lhat=lhat)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_data(node, path, errors, base_dir, eta):
    """Data with the noise level `eta` that the run uses."""
    node = _read(node, _READS["data"], "the data", path, errors)
    field, ydelta = f"{path}.ydelta", node.get("ydelta")
    if "ydeltaFile" in node:
        field = f"{path}.ydeltaFile"
        ydelta = _load_csv(node["ydeltaFile"], field, errors, base_dir, 1)
    arr = _finite_vector(ydelta, field, errors)
    if arr is None or eta is None:
        return None
    return NoisyData(arr, eta)


def _parse_level(node, idx, context, errors, s, base_dir, space,
                 check_theorems):
    path = f"levels[{idx}]"
    if not isinstance(node, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    node = _read(node, _READS["levels[i]"], context, path, errors)
    eta, C, L, Lhat = (
        _scalar(node.get(key), f"{path}.{key}", errors, rule)
        for key, rule in (("eta", _nonnegative), ("C", real),
                          ("L", _nonnegative), ("Lhat", real)))
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
    cset = _parse_set(node.get("set"), f"{path}.set", errors, space)
    model = _parse_model(model_node, f"{path}.model", errors, s, base_dir)
    data = _parse_data(node.get("data"), f"{path}.data", errors, base_dir,
                       eta)
    ref = _finite_vector(node.get("reference"), f"{path}.reference", errors)
    if check_theorems and "reference" not in node:
        errors.append(f"{path}.reference: checkTheorems needs a reference "
                      "on every level")
    _check_problem(space, model, data, f"{path}.", errors)
    _check_length(ref, space, f"{path}.reference", errors)
    if eta is None or C is None or L is None or Lhat is None:
        return None
    return Level(eta=eta, C=C, L=L, Lhat=Lhat, cset=cset, model=model,
                 data=data, reference=ref)


def _check_nesting(levels, errors):
    """Coordinate-subspace levels must be nested coarse-to-fine."""
    supports = [set(lv.cset.support.tolist()) for lv in levels
                if isinstance(lv.cset, CoordinateSubspace)]
    for n in range(len(supports) - 1):
        if not supports[n] <= supports[n + 1]:
            errors.append(
                f"levels[{n}].set: subspace supports must be nested, "
                f"support of level {n} is not contained in level {n + 1}")


def _parse_example_schedule(node, space, errors):
    """The closed-form example schedule the `schedule` section states;
    the generator's refusals are errors at the parameter they name."""
    node = _read(node, _READS["schedule"], "the schedule", "schedule",
                 errors)
    lam, tau, eta_hat = (_scalar(node.get(key), f"schedule.{key}", errors,
                                 real) for key in ("lam", "tau", "etaHat"))
    if space is None or None in (lam, tau, eta_hat):
        return None
    try:
        return example_schedule(lam=lam, tau=tau, space=space,
                                eta_hat=eta_hat)
    except (LambdaTooSmall, TauOutOfRange, NoSuchLevel) as exc:
        key = {LambdaTooSmall: "lam", TauOutOfRange: "tau"}.get(
            type(exc), "etaHat")
        errors.append(f"schedule.{key}: {exc}")
        return None


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
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar Python cannot construct, such as an int of
        # more than sys.get_int_max_str_digits() digits or a bad date.
        raise SchemaError([f"config: invalid YAML: {exc}"])
    if not isinstance(raw, dict):
        raise SchemaError(["config: top level must be a mapping"])
    mode = raw.get("mode")
    if mode not in _MODES:
        raise SchemaError([f"mode: expected one of {sorted(_MODES)}"])
    context = f"{mode} mode"
    top = _read(raw, _READS["config"], context, "", errors)
    sol, diag, out = (_read(top.get(key), _READS[key], context, key, errors)
                      for key in ("solver", "diagnostics", "output"))
    for key, fname in out.items():
        if not isinstance(fname, str):
            errors.append(f"output.{key}: expected a file name")
    ds = _read(top.get("dataSpace"), _READS["dataSpace"], "the data space",
               "dataSpace", errors)
    s = _scalar(ds.get("s"), "dataSpace.s", errors, exponent, 2.0)
    eta = _scalar(sol.get("eta"), "solver.eta", errors, _nonnegative, 0.0)
    eta_hat = _scalar(sol.get("etaHat"), "solver.etaHat", errors, real)
    max_iter = _scalar(sol.get("maxIterations"), "solver.maxIterations",
                       errors, integer, 10 ** 6)
    seed = _scalar(sol.get("seed"), "solver.seed", errors, _seed, 0)
    reference = _finite_vector(diag.get("referenceSolution"),
                               "diagnostics.referenceSolution", errors)
    check_theorems = diag.get("checkTheorems", False)
    if not isinstance(check_theorems, bool):
        errors.append("diagnostics.checkTheorems: expected a boolean")
        check_theorems = False
    epsilon = _scalar(top.get("epsilon"), "epsilon", errors, real, 1.0)

    space = _parse_space(top.get("space"), errors)
    x0 = _finite_vector(top.get("x0"), "x0", errors)
    _check_length(x0, space, "x0", errors)
    cset = _parse_set(top.get("set"), "set", errors, space)
    model = _parse_model(top.get("model"), "model", errors, s, base_dir)
    data = _parse_data(top.get("data"), "data", errors, base_dir, eta)
    _check_length(reference, space, "diagnostics.referenceSolution", errors)
    _check_problem(space, model, data, "", errors)
    # A constant the node holds but that was rejected has its error.
    if model is not None and model.lip != 0.0:
        if top["model"].get("cstab") is None:
            errors.append("model.cstab: a nonlinear model needs a "
                          "stability constant")
        if check_theorems and top["model"].get("lhat") is None:
            errors.append("model.lhat: checkTheorems on a nonlinear "
                          "model needs a derivative bound")
    if mode == "single" and check_theorems and reference is None:
        errors.append("diagnostics.checkTheorems: needs "
                      "diagnostics.referenceSolution")
    if not check_theorems and "referenceSolution" in diag:
        errors.append("diagnostics.referenceSolution: read only under "
                      "diagnostics.checkTheorems: true")
    if eta_hat is not None and not eta_hat > 3.0 * eta:
        errors.append("solver.etaHat: the discrepancy threshold must "
                      "satisfy etaHat > 3 * eta")

    levels: list[Level] = []
    if "levels" in top:
        lv_raw = top["levels"]
        if not isinstance(lv_raw, list) or not lv_raw:
            errors.append("levels: expected a nonempty list")
        else:
            for i, node in enumerate(lv_raw):
                lv = _parse_level(node, i, context, errors, s, base_dir,
                                  space, check_theorems)
                if lv is not None:
                    levels.append(lv)
            if len(levels) == len(lv_raw):
                _check_nesting(levels, errors)

    schedule = _parse_example_schedule(top.get("schedule"), space, errors)
    if errors:
        raise SchemaError(errors)
    if levels:  # multilevel or validate mode
        schedule = Schedule(levels=levels, epsilon=epsilon, eta_hat=eta_hat)
    return RunConfig(mode=mode, space=space, cset=cset, model=model,
                     data=data, x0=x0, levels=levels, epsilon=epsilon,
                     eta=eta, eta_hat=eta_hat, max_iterations=max_iter,
                     seed=seed, reference=reference,
                     check_theorems=check_theorems, schedule=schedule,
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


def _dump(doc) -> str:
    """``doc`` as block-style YAML with sorted keys.  libyaml's emitter,
    when PyYAML was built with it, is fed by the same SafeRepresenter and
    writes the pure-Python emitter's bytes in a fraction of its time."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(doc, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)


def _write_summary(path, summary):
    _atomic_write(path, _dump(summary))


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


def _run_multilevel(cfg: RunConfig, quiet: bool) -> int:
    try:
        with _trace_writer(cfg.trace_path) as write_row:
            report = run_multi_level(
                cfg.space, cfg.schedule, cfg.x0,
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


def _run_validate(cfg: RunConfig, quiet: bool) -> int:
    schedule = cfg.schedule
    valid, reason, final = True, "valid", None
    try:
        transitions, final = validate_schedule(cfg.space, schedule)
    except (TransitionInvalid, NoSuchLevel, EtaTooLarge) as exc:
        valid, reason, transitions = False, str(exc), exc.transitions
    # Every pair is listed, also the ones after a failing pair.
    pairs = [{"level": n, "ok": False} if lhs is None else
             {"level": n, "lhs": float(lhs), "rhs": float(rhs),
              "ok": bool(ok)}
             for n, lhs, rhs, ok in transitions]
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
    return _dump(doc)


def _run_example_schedule(cfg: RunConfig, quiet: bool) -> int:
    schedule = cfg.schedule
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
        if cfg.mode == "validate":
            return _run_validate(cfg, quiet)
        return _run_example_schedule(cfg, quiet)
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
    errors: list[str] = []
    seed = _scalar(args.seed, "--seed", errors, _seed)
    try:
        cfg = parse_config(text, base_dir=os.path.dirname(
            os.path.abspath(args.config)))
    except SchemaError as exc:
        errors[:0] = exc.errors
    if errors:
        return _fail(args.quiet, "\n".join(f"config error: {msg}"
                                           for msg in errors), 3)
    if args.trace:
        cfg.trace_path = args.trace
    if args.summary:
        cfg.summary_path = args.summary
    if seed is not None:
        cfg.seed = seed
    return execute(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
