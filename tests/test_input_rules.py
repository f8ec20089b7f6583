"""Every stated scalar of the library goes through one of the input rules
of ``projsd.errors``: a finite real that is positive or nonnegative, an
integer >= 1, a seed (an integer >= 0), or an exponent in (1, inf).  What
is built from checked input stays fixed, a copy of it too."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from projsd import (Ball, Box, CoordinateSubspace, DiagonalLinearModel, Level,
                    LinearModel, NoisyData, QuadraticModel, Schedule,
                    SolverConfig, SpaceGeometry, bregman_project,
                    certify_constants, duality_map, example_schedule,
                    lp_space, norm)


def schedule_field(name):
    """example_schedule with one keyword replaced, and what it stores of
    that keyword."""
    stored = {"lam": lambda s: 2.0 * s.levels[0].eta,
              "tau": lambda s: s.levels[0].L,
              "eta_hat": lambda s: s.eta_hat}[name]

    def build(value):
        kwargs = dict(lam=200.0, tau=1e-6, space=lp_space(2), eta_hat=1.0)
        kwargs[name] = value
        return stored(example_schedule(**kwargs))
    return build


def attribute(make, name):
    """``make(value)``'s attribute ``name``."""
    return lambda value: getattr(make(value), name)


def keyword(cls, base, name):
    """``cls(**base)`` with the keyword ``name`` replaced, and the stored
    field of that name."""
    return attribute(lambda value: cls(**dict(base, **{name: value})), name)


def certified(name):
    """``certify_constants`` with the keyword ``name`` replaced.  It stores
    nothing, so this returns the int the value stands for, once the value
    has given the bounds of that int."""
    def run(value):
        space, base = lp_space(2, r=1.5), dict(n_samples=50, seed=0)
        bounds = certify_constants(space, **dict(base, **{name: value}))
        taken = int(value)
        base[name] = taken
        assert bounds == certify_constants(space, **base)
        return taken
    return run


LEVEL = dict(eta=0.01, C=1.0, L=0.5, Lhat=1.0)
SPACE = dict(dim=2, r=1.5)

# (id, store, message prefix, rule, required, a valid value).  ``store``
# builds with one value and returns what was stored of it.
FIELDS = [
    ("space-dim", keyword(SpaceGeometry, SPACE, "dim"), "dim", "integer",
     True, 3),
    ("space-r", keyword(SpaceGeometry, dict(dim=2, Cp=0.5, Gq=2.0), "r"),
     "r", "exponent", True, 3),
    ("space-p", keyword(SpaceGeometry, dict(SPACE, Cp=0.5, Gq=2.0), "p"),
     "p", "exponent", False, 3),
    ("space-Cp", keyword(SpaceGeometry, SPACE, "Cp"), "Cp", "positive",
     False, 2),
    ("space-Gq", keyword(SpaceGeometry, SPACE, "Gq"), "Gq", "positive",
     False, 2),
    ("linear-s", attribute(lambda v: LinearModel(np.eye(2), s=v), "s"),
     "data exponent s", "exponent", True, 3),
    ("diagonal-s",
     attribute(lambda v: DiagonalLinearModel([1.0, 2.0], s=v), "s"),
     "data exponent s", "exponent", True, 3),
    ("quadratic-eps",
     attribute(lambda v: QuadraticModel(np.eye(2), eps=v), "eps"),
     "eps", "nonnegative", True, 1),
    ("quadratic-s",
     attribute(lambda v: QuadraticModel(np.eye(2), eps=0.1, s=v), "s"),
     "data exponent s", "exponent", True, 3),
    ("quadratic-cstab",
     attribute(lambda v: QuadraticModel(np.eye(2), eps=0.1, cstab=v),
               "cstab"), "cstab", "positive", False, 2),
    ("quadratic-lhat",
     attribute(lambda v: QuadraticModel(np.eye(2), eps=0.1, lhat=v),
               "lhat"), "lhat", "positive", False, 2),
    ("data-eta", attribute(lambda v: NoisyData([1.0], v), "eta"), "eta",
     "nonnegative", True, 1),
    ("config-eta", keyword(SolverConfig, dict(eta=0.1, eta_hat=10.0), "eta"),
     "eta", "nonnegative", True, 1),
    ("config-eta_hat",
     keyword(SolverConfig, dict(eta=0.1, eta_hat=1.0), "eta_hat"),
     "eta_hat", "positive", True, 2),
    ("config-max_iterations",
     keyword(SolverConfig, dict(eta=0.1, eta_hat=1.0), "max_iterations"),
     "max_iterations", "integer", True, 5),
    ("level-eta", keyword(Level, LEVEL, "eta"), "eta", "nonnegative", True,
     1),
    ("level-C", keyword(Level, LEVEL, "C"), "C", "positive", True, 2),
    ("level-L", keyword(Level, LEVEL, "L"), "L", "nonnegative", True, 1),
    ("level-Lhat", keyword(Level, LEVEL, "Lhat"), "Lhat", "positive", True,
     2),
    ("schedule-epsilon",
     keyword(Schedule, dict(levels=[], epsilon=1.0, eta_hat=0.1), "epsilon"),
     "epsilon", "positive", True, 2),
    ("schedule-eta_hat",
     keyword(Schedule, dict(levels=[], epsilon=1.0, eta_hat=0.1), "eta_hat"),
     "eta_hat", "positive", True, 2),
    ("example-lam", schedule_field("lam"), "lam", "positive", True, 300),
    ("example-tau", schedule_field("tau"), "tau", "positive", True, 2e-6),
    ("example-eta_hat", schedule_field("eta_hat"), "eta_hat", "positive",
     True, 2),
    ("ball-radius", attribute(lambda v: Ball([1.0, -2.0], v), "radius"),
     "radius", "positive", True, 2),
    ("certify-n_samples", certified("n_samples"), "n_samples", "integer",
     True, 40),
    ("certify-seed", certified("seed"), "seed", "seed", True, 3),
]

OUT_OF_RANGE = {"positive": [0.0, -1.0], "nonnegative": [-1.0],
                "integer": [0, -1, 2.5, 3.0], "seed": [-1, 2.5, 3.0],
                "exponent": [1.0, 0.5]}


@pytest.mark.parametrize("store, prefix, rule, required, good",
                         [f[1:] for f in FIELDS], ids=[f[0] for f in FIELDS])
def test_each_stated_scalar_follows_its_rule(store, prefix, rule, required,
                                             good):
    bad = [math.nan, math.inf, -math.inf, np.float64(math.nan), True,
           np.True_, "1", [good], *OUT_OF_RANGE[rule]]
    if required:
        bad.append(None)
    for value in bad:
        message = f"^{re.escape(f'{prefix} = {value!r} ')}"
        with pytest.raises(ValueError, match=message):
            store(value)
    if rule in ("integer", "seed"):
        kind, forms = int, [good, np.int64(good), np.array(good)]
    else:
        kind = float
        forms = [float(good), np.float64(good), np.array(float(good))]
        if float(good).is_integer():
            forms += [int(good), np.int64(good)]
    for value in forms:
        stored = store(value)
        assert type(stored) is kind and stored == good


REALS = [f for f in FIELDS if f[3] not in ("integer", "seed")]


@pytest.mark.parametrize("store, prefix", [f[1:3] for f in REALS],
                         ids=[f[0] for f in REALS])
def test_int_beyond_float_range_is_refused(store, prefix):
    # float() of such an int raised OverflowError, which no caller that
    # handles the rules' ValueError caught.
    for value in (10 ** 400, -10 ** 400):
        message = f"^{re.escape(f'{prefix} = {value!r} ')}"
        with pytest.raises(ValueError, match=message):
            store(value)


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["deepcopy", "pickle"])
def test_a_copy_stays_fixed(copy_of):
    # A copy's arrays came back writable: the copy of Box([0, 0], [1, 1])
    # took lower[0] = 5.0, above its upper bound, without an error.  A
    # space whose duality map had been resolved could not be pickled.
    space = lp_space(4, weights=[1.0, 2.0, 3.0, 4.0])
    x, y = np.array([3.0, -0.5, 0.2, 1.0]), np.array([1.0, -2.0, 0.5, 3.0])
    A = np.diag([2.0, 2.5, 3.0, 3.5]) + 0.1
    diagonal = DiagonalLinearModel([2.0, 2.5, 3.0, 3.5])
    diagonal.matrix  # built on first read, and copied with the model
    duality_map(space, x)  # resolved on first use, and copied too

    def projects(cset):
        return bregman_project(space, cset, x).tobytes()

    def evaluates(model):
        return model.eval(x).tobytes(), model.apply_adjoint(x, y).tobytes()

    def maps(geometry):
        return (norm(geometry, x), duality_map(geometry, x).tobytes(),
                geometry.dual().weights.tobytes())

    for value, behaviour in [
            (Box(-np.ones(4), np.ones(4)), projects),
            (Ball(np.full(4, 0.5), 1.0), projects),
            (CoordinateSubspace([0, 2]), projects),
            (LinearModel(A), evaluates), (diagonal, evaluates),
            (QuadraticModel(A, eps=0.05), evaluates), (space, maps)]:
        copied = copy_of(value)
        arrays = {name: array for name, array in vars(copied).items()
                  if isinstance(array, np.ndarray)}
        assert arrays
        for name, array in arrays.items():
            assert not array.flags.writeable, (type(value).__name__, name)
            with pytest.raises(AttributeError):
                setattr(copied, name, array)
        assert behaviour(copied) == behaviour(value)
