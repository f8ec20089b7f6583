"""Config-driven batch front-end.

Parses a YAML run configuration, constructs the geometry, model, set or
level schedule, executes a single-level or multi-level run (or validates
the levels of a schedule without running), and writes a per-iteration
CSV trace plus a YAML summary.  `execute` opens every output (trace,
summary, schedule) before the run, as a temp file beside its path, and
renames each over its path when the run returns; a run that raises
leaves none.  The trace is streamed: the run hands each iteration to the
library's ``on_iteration`` hook, which writes its row to the temp file,
so a run holds one iteration at a time.  Under
``diagnostics.checkTheorems`` the summary's ``theoremChecks`` (top level
in single mode, in each ``perLevel`` entry in multilevel mode) are the
tallies of the run's ``RunReport``.  The solver is deterministic, so an
identical config produces byte-identical files; ``solver.seed`` (or
``--seed``) is metadata echoed into the summary and feeds no randomness.

Exit codes: 0 success / valid schedule, 2 solver abort, 3 validation
failure, 4 I/O error (an output that cannot be opened fails before the
run).  Every mapping of the config is read through one table,
``_READS``, which lists the keys each mode (or model or set kind) reads
and requires; a key the run would not read, and a missing key it needs,
are validation failures.  The space, each set and each model is built
by its constructor (``_MAKERS``), whose keywords are the keys its node
reads, each read by one reader (``_KEY_READS``); what the constructor
refuses is a validation failure at the node.  So is other input that
cannot run (a number that breaks its input rule of README ("Input
rules"), an array that breaks the one array rule of ``_array``,
mismatched lengths, set parameters that do not fit ``space.dim``, sets
of the levels that are not nested, a nonlinear model without
``cstab``, or without ``lhat`` under ``checkTheorems``,
``checkTheorems`` without a reference for every run, example-schedule
parameters the generator refuses (an ``etaHat`` that no level with float
constants reaches too), an output path that is not a file name, two of
the config and the outputs on one file, a negative ``--seed``).  All of
it is found while parsing, before anything runs.  A level's index in the
trace and the summary is its position in ``levels``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
import tempfile
import warnings
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
from .sets import (Ball, Box, ConvexSet, CoordinateSubspace, WholeSpace,
                   _unnested)
from .solver import SolverConfig, run_algorithm1

__all__ = ["main", "parse_config", "execute"]

TRACE_HEADER = ("level,k,r_k,t_k,tHat_k,u_k,v_k,w_k,mu_k,"
                "bregman_to_ref,radius_ok")

_MODES = ("single", "multilevel", "validate", "example-schedule")

_Context = namedtuple("_Context", "name reads required pairs keys")


def _table(spec, name="{}"):
    """Compile ``{context: "key key! a|b ..."}``: ``!`` marks a required
    key and ``a|b`` a pair of which exactly one is required.  ``keys``
    lists the keys in their written order, a pair by its first and
    ``kind`` left out."""
    table = {}
    for context, keys in spec.items():
        words = keys.split()
        table[context] = _Context(
            name.format(context),
            frozenset(k for w in words for k in w.rstrip("!").split("|")),
            tuple(w[:-1] for w in words if w.endswith("!")),
            tuple(tuple(w.split("|")) for w in words if "|" in w),
            tuple(w.rstrip("!").split("|")[0] for w in words
                  if w != "kind"))
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


def _array(node, key, path, errors, ndim=1, space=None, finite=True,
           base_dir="."):
    """The array at `key` of the mapping `node` with `ndim` dimensions:
    its inline list, or the numbers of the sidecar CSV file that
    ``key + "File"`` names, relative to the config's directory; either
    must hold at least one number.  Finite unless `finite` is false, and
    with ``space.dim`` entries where a `space` is given; a one-row matrix
    may be written flat.  None when it is absent or, with the error
    recorded at the key it came from, refused."""
    prefix = f"{path}." if path else ""
    if key + "File" in node:
        field, fname = f"{prefix}{key}File", node[key + "File"]
        if not isinstance(fname, str):
            errors.append(f"{field}: expected a file name")
            return None
        full = os.path.join(base_dir, fname)
        try:
            with warnings.catch_warnings():
                # A file without numbers is refused below.
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data")
                arr = np.loadtxt(full, delimiter=",", ndmin=ndim)
        except OSError as exc:
            errors.append(f"{field}: cannot read {full}: {exc}")
            return None
        except ValueError as exc:
            errors.append(f"{field}: bad CSV in {full}: {exc}")
            return None
    elif key in node:
        field = prefix + key
        try:
            arr = np.asarray(node[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
            what = "rows" if ndim == 2 else "a list"
            errors.append(f"{field}: expected {what} of numbers")
            return None
        if ndim == 2:
            arr = np.atleast_2d(arr)
    else:
        return None
    if not arr.size:
        message = f"numbers in {full}" if key + "File" in node else "numbers"
    elif arr.ndim != ndim:
        message = "rows of numbers" if ndim == 2 else "a flat list of numbers"
    elif finite and not np.all(np.isfinite(arr)):
        message = "finite numbers"
    elif space is not None and arr.shape != (space.dim,):
        message = f"{space.dim} entries (space.dim), got {arr.size}"
    else:
        return arr
    errors.append(f"{field}: expected {message}")
    return None


def _check_problem(space, model, ydelta, path, errors):
    """`model` must act on `space` and match the length of `ydelta`."""
    if model is None:
        return
    if space is not None and model.in_dim != space.dim:
        errors.append(f"{path}model: takes {model.in_dim} inputs, "
                      f"space.dim is {space.dim}")
    if ydelta is not None and ydelta.shape != (model.out_dim,):
        errors.append(f"{path}data: ydelta has {ydelta.size} entries, "
                      f"the model has {model.out_dim} outputs")


def _scalar_key(rule):
    """The read of a key's number: `_scalar` as `rule`."""
    return lambda node, key, path, errors, space, base_dir: _scalar(
        node.get(key), f"{path}.{key}", errors, rule)


def _array_key(fits=False, **options):
    """The read of a key's array: `_array` with these options, and with
    ``space.dim`` entries where it `fits` the space."""
    return lambda node, key, path, errors, space, base_dir: _array(
        node, key, path, errors, space=space if fits else None,
        base_dir=base_dir, **options)


# How a space, set or model node reads each key, the constructor keyword
# it passes.  A support is passed as written: CoordinateSubspace applies
# the support rule.
_KEY_READS = {
    "dim": _scalar_key(integer), "r": _scalar_key(exponent),
    "p": _scalar_key(exponent), "weights": _array_key(),
    "Cp": _scalar_key(real), "Gq": _scalar_key(real),
    "lower": _array_key(fits=True, finite=False),
    "upper": _array_key(fits=True, finite=False),
    "center": _array_key(fits=True), "radius": _scalar_key(real),
    "support": lambda node, key, *_: node.get(key),
    "matrix": _array_key(ndim=2), "sigma": _array_key(),
    "eps": _scalar_key(_nonnegative), "cstab": _scalar_key(real),
    "lhat": _scalar_key(real),
}
# The constructor of the space and of each set and model kind.
_MAKERS = {"the space": lp_space, "wholespace": WholeSpace, "box": Box,
           "ball": Ball, "subspace": CoordinateSubspace,
           "linear": LinearModel, "diagonal": DiagonalLinearModel,
           "quadratic": QuadraticModel}


def _build(node, table, context, path, errors, space=None, base_dir=".",
           **given):
    """What `node`, read as `context` of `table` (`_read`), states: the
    value ``_MAKERS[context]`` builds from `given` and from each key the
    context reads, in the table's order, as ``_KEY_READS`` reads it; a
    set must also fit `space`.  None when a key was refused or a needed
    key is absent, or, with the error recorded at `path`, when the
    constructor refuses them."""
    node = _read(node, table, context, path, errors)
    ctx, before = table[context], len(errors)
    for key in ctx.keys:
        value = _KEY_READS[key](node, key, path, errors, space, base_dir)
        if value is not None:
            given[key] = value
    if len(errors) > before or not all(
            k in given for k in (*ctx.required, *(a for a, _ in ctx.pairs))):
        return None
    try:
        made = _MAKERS[context](**given)
        if space is not None and isinstance(made, ConvexSet):
            made._check_fits(space)
    except (ValueError, ProjSDError) as exc:
        errors.append(f"{path}: {exc}")
        return None
    return made


def _build_kind(node, table, path, errors, **options):
    """`_build` in the context that the ``kind`` of `node` names; None
    when the node is absent or, with the error recorded, when its kind
    names none."""
    if node is None:
        return None
    kind = node.get("kind") if isinstance(node, dict) else None
    if isinstance(kind, str) and kind in table:
        return _build(node, table, kind, path, errors, **options)
    errors.append(f"{path}.kind: expected one of {', '.join(table)}")
    return None


def _parse_data(node, path, errors, base_dir):
    """The data's ``ydelta``."""
    node = _read(node, _READS["data"], "the data", path, errors)
    return _array(node, "ydelta", path, errors, base_dir=base_dir)


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
    cset = _build_kind(node.get("set"), _READS["set"], f"{path}.set",
                       errors, space=space)
    model = _build_kind(model_node, _READS["model"], f"{path}.model",
                        errors, base_dir=base_dir, s=s)
    ydelta = _parse_data(node.get("data"), f"{path}.data", errors, base_dir)
    ref = _array(node, "reference", path, errors, space=space)
    if check_theorems and "reference" not in node:
        errors.append(f"{path}.reference: checkTheorems needs a reference "
                      "on every level")
    _check_problem(space, model, ydelta, f"{path}.", errors)
    if eta is None or C is None or L is None or Lhat is None:
        return None
    return Level(eta=eta, C=C, L=L, Lhat=Lhat, cset=cset, model=model,
                 ydelta=ydelta, reference=ref)


def _check_nesting(levels, dim, errors):
    """The levels' coordinate sets must be nested coarse-to-fine
    (`sets._unnested`)."""
    for n, m in _unnested([lv.cset for lv in levels], dim):
        errors.append(f"levels[{n}].set: boxes must be nested, [lower, "
                      f"upper] of level {n} is not contained in level {m}")


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
    check_theorems = diag.get("checkTheorems", False)
    if not isinstance(check_theorems, bool):
        errors.append("diagnostics.checkTheorems: expected a boolean")
        check_theorems = False
    epsilon = _scalar(top.get("epsilon"), "epsilon", errors, real, 1.0)

    space = _build(top.get("space"), _READS["space"], "the space", "space",
                   errors)
    x0 = _array(top, "x0", "", errors, space=space)
    cset = _build_kind(top.get("set"), _READS["set"], "set", errors,
                       space=space)
    model = _build_kind(top.get("model"), _READS["model"], "model", errors,
                        base_dir=base_dir, s=s)
    ydelta = _parse_data(top.get("data"), "data", errors, base_dir)
    reference = _array(diag, "referenceSolution", "diagnostics", errors,
                       space=space)
    _check_problem(space, model, ydelta, "", errors)
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
            # Without a space the bounds are not compared.
            if space is not None and len(levels) == len(lv_raw):
                _check_nesting(levels, space.dim, errors)

    schedule = _parse_example_schedule(top.get("schedule"), space, errors)
    if errors:
        raise SchemaError(errors)
    if levels:  # multilevel or validate mode
        schedule = Schedule(levels=levels, epsilon=epsilon, eta_hat=eta_hat)
    data = None if ydelta is None else NoisyData(ydelta, eta)
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


def _open_beside(path):
    """``(file, temp path)``: a text file open for writing at a temp path
    beside `path`.  An OSError, also for a `path` that is a directory,
    names `path`, not the temp file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-projsd-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    return os.fdopen(fd, "w"), tmp


@contextlib.contextmanager
def _outputs(cfg):
    """The run's outputs, opened before it runs: a dict from each of
    `cfg`'s ``trace_path``, ``summary_path`` and ``schedule_path`` that is
    set to a file open at a temp path beside it.  When the block ends
    every file is renamed over its path; if it raises, all are removed."""
    opened = {}
    try:
        for key in ("trace_path", "summary_path", "schedule_path"):
            if getattr(cfg, key):
                opened[key] = _open_beside(getattr(cfg, key))
        yield {key: fh for key, (fh, _) in opened.items()}
        for fh, _ in opened.values():
            fh.close()
        for key, (_, tmp) in opened.items():
            os.replace(tmp, getattr(cfg, key))
    except BaseException:
        for fh, tmp in opened.values():
            fh.close()
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


_FLAG = {None: "", True: "true", False: "false"}


def _row_writer(fh):
    """An observer ``(level, state)`` that writes one CSV row per
    iteration to `fh`, after the header; without a file it writes
    nothing.  Each field is converted with ``!s``, ``str()``, which for a
    float is ``repr()``, its shortest round-trip form, and for an
    ``np.float64`` its own ``str()``, as ``%s`` formats both."""
    if fh is None:
        return lambda level, st: None
    fh.write(TRACE_HEADER + "\n")
    write = fh.write
    flag = _FLAG

    def row(level, st):
        breg = st.bregman_to_ref
        write(f"{level!s},{st.k!s},{st.rk!s},{st.tk!s},{st.that_k!s},"
              f"{st.uk!s},{st.vk!s},{st.wk!s},{st.muk!s},"
              f"{'' if breg is None else breg!s},{flag[st.radius_ok]}\n")
    return row


def _dump(doc) -> str:
    """``doc`` as block-style YAML with sorted keys.  libyaml's emitter,
    when PyYAML was built with it, is fed by the same SafeRepresenter and
    writes the pure-Python emitter's bytes in a fraction of its time."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(doc, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)


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


# Each run mode takes the config and the trace's row writer and returns
# its exit code, its summary and its console message.

def _run_single(cfg: RunConfig, row):
    solver_cfg = SolverConfig(eta=cfg.eta, eta_hat=cfg.eta_hat,
                              max_iterations=cfg.max_iterations,
                              diagnostic_reference=cfg.reference)
    report = run_algorithm1(cfg.space, cfg.cset, cfg.model, cfg.data,
                            cfg.x0, solver_cfg, on_iteration=partial(row, 0))
    summary = {"mode": "single", "stopReason": report.stop_reason,
               "stoppedAtK": report.stopped_at_k,
               "finalResidual": float(report.final_residual),
               "projectedStart": report.projected_start, "seed": cfg.seed}
    _add_failure(summary, report)
    if report.rho is not None:
        summary["rho"] = float(report.rho)
    if cfg.check_theorems:
        summary["theoremChecks"] = _theorem_checks(report)
    return (0 if report.stop_reason == "DiscrepancyMet" else 2, summary,
            f"{report.stop_reason} at k={report.stopped_at_k}, "
            f"residual {report.final_residual:.6e}")


def _run_multilevel(cfg: RunConfig, row):
    report = run_multi_level(cfg.space, cfg.schedule, cfg.x0,
                             max_iterations_per_level=cfg.max_iterations,
                             on_iteration=row)
    per_level = []
    for idx, k, res, rep in report.per_level:
        entry = {"level": idx, "K": k, "finalResidual": float(res),
                 "stopReason": rep.stop_reason}
        _add_failure(entry, rep)
        if cfg.check_theorems:
            entry["theoremChecks"] = _theorem_checks(rep)
        per_level.append(entry)
    summary = {"mode": "multilevel", "stopReason": report.stop_reason,
               "finalResidual": float(report.final_residual),
               "perLevel": per_level, "seed": cfg.seed}
    return (0 if report.stop_reason == "DiscrepancyMet" else 2, summary,
            f"{report.stop_reason}: final residual "
            f"{report.final_residual:.6e} over {len(report.per_level)} "
            "levels")


_SCHEDULE_ERRORS = (TransitionInvalid, NoSuchLevel, EtaTooLarge)


def _checked(space, schedule):
    """``(transitions, final level, None)`` of `validate_schedule`, or
    ``(transitions, None, message)`` of the error it raised."""
    try:
        return (*validate_schedule(space, schedule), None)
    except _SCHEDULE_ERRORS as exc:
        return exc.transitions, None, str(exc)


def _run_validate(cfg: RunConfig, row):
    transitions, final, error = _checked(cfg.space, cfg.schedule)
    # Every pair is listed, also the ones after a failing pair.
    pairs = [{"level": n, "ok": False} if lhs is None else
             {"level": n, "lhs": float(lhs), "rhs": float(rhs),
              "ok": bool(ok)}
             for n, lhs, rhs, ok in transitions]
    summary = {"mode": "validate", "valid": error is None,
               "reason": error or "valid", "transitions": pairs,
               "finalLevel": final,
               "etas": [float(e) for e in cfg.schedule.etas]}
    if error is None:
        return 0, summary, "schedule valid"
    return 3, summary, f"schedule invalid: {error}"


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


def _run_example_schedule(cfg: RunConfig, row):
    """Without a ``schedulePath`` its message is the schedule itself;
    `execute` writes the file."""
    schedule = cfg.schedule
    summary = {"mode": "example-schedule", "levels": len(schedule.levels),
               "etas": [float(e) for e in schedule.etas]}
    if cfg.schedule_path:
        return 0, summary, (f"wrote {len(schedule.levels)}-level schedule "
                            f"to {cfg.schedule_path}")
    # print() gives back the document's final newline.
    return 0, summary, serialize_schedule(schedule, cfg.space)[:-1]


_RUNS = {"single": _run_single, "multilevel": _run_multilevel,
         "validate": _run_validate, "example-schedule": _run_example_schedule}


def execute(cfg: RunConfig, quiet: bool = False) -> int:
    """Run a parsed config; returns the process exit code.

    Every output is opened (see `_outputs`) before the mode runs, so a
    path that cannot be written fails first (exit 4).  When the mode
    returns, the schedule and the summary are written and every file is
    renamed into place; if the run raised, none is.  A ProjSDError is a
    solver abort (exit 2), or in multilevel mode a schedule error an
    invalid schedule (exit 3)."""
    try:
        with _outputs(cfg) as files:
            code, summary, message = _RUNS[cfg.mode](
                cfg, _row_writer(files.get("trace_path")))
            if "schedule_path" in files:
                files["schedule_path"].write(
                    serialize_schedule(cfg.schedule, cfg.space))
            if "summary_path" in files:
                files["summary_path"].write(_dump(summary))
    except OSError as exc:
        return _fail(quiet, f"I/O error: {exc}", 4)
    except ProjSDError as exc:
        if cfg.mode == "multilevel" and isinstance(exc, _SCHEDULE_ERRORS):
            return _fail(quiet, f"schedule invalid: {exc}", 3)
        return _fail(quiet, f"solver abort: {exc}", 2)
    if not quiet:
        print(message)
    return code


def _check_one_file_each(args, cfg, errors):
    """Of the config and the outputs, one that names the file of an
    earlier one is an error at it, naming the earlier."""
    seen = {}
    for name, path in zip(
            ("the config", "--trace" if args.trace else "output.tracePath",
             "--summary" if args.summary else "output.summaryPath",
             "output.schedulePath"),
            (args.config, cfg.trace_path, cfg.summary_path,
             cfg.schedule_path)):
        real = path and os.path.realpath(path)
        if real and real in seen:
            errors.append(f"{name}: {path} is the same file as {seen[real]}")
        seen.setdefault(real, name)


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
        with open(args.config) as fh:
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
    else:
        # A mode that writes no trace ignores --trace.
        if "tracePath" in _READS["output"][f"{cfg.mode} mode"].reads:
            cfg.trace_path = args.trace or cfg.trace_path
        cfg.summary_path = args.summary or cfg.summary_path
        _check_one_file_each(args, cfg, errors)
    if errors:
        return _fail(args.quiet, "\n".join(f"config error: {msg}"
                                           for msg in errors), 3)
    if seed is not None:
        cfg.seed = seed
    return execute(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
