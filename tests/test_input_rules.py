"""Every stated scalar of the library goes through one of the three input
rules of ``projsd.errors``: a finite real that is positive or
nonnegative, an integer >= 1, or an exponent in (1, inf)."""

import math
import re

import numpy as np
import pytest

from projsd import (Ball, DiagonalLinearModel, Level, LinearModel, NoisyData,
                    QuadraticModel, Schedule, SolverConfig, SpaceGeometry,
                    example_schedule, lp_space)


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


QUADRATIC = QuadraticModel(np.eye(2), eps=0.1)
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
    ("linear-cstab",
     attribute(lambda v: LinearModel(np.eye(2), cstab=v), "cstab"),
     "cstab", "positive", False, 2),
    ("diagonal-s",
     attribute(lambda v: DiagonalLinearModel([1.0, 2.0], s=v), "s"),
     "data exponent s", "exponent", True, 3),
    ("diagonal-cstab",
     attribute(lambda v: DiagonalLinearModel([1.0, 2.0], cstab=v), "cstab"),
     "cstab", "positive", False, 2),
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
    ("with_constants-lip",
     attribute(lambda v: QUADRATIC.with_constants(lip=v), "lip"), "lip",
     "nonnegative", False, 1),
    ("with_constants-lhat",
     attribute(lambda v: QUADRATIC.with_constants(lhat=v), "lhat"), "lhat",
     "positive", False, 2),
    ("with_constants-cstab",
     attribute(lambda v: QUADRATIC.with_constants(cstab=v), "cstab"),
     "cstab", "positive", False, 2),
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
]

OUT_OF_RANGE = {"positive": [0.0, -1.0], "nonnegative": [-1.0],
                "integer": [0, -1, 2.5, 3.0], "exponent": [1.0, 0.5]}


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
    if rule == "integer":
        kind, forms = int, [good, np.int64(good), np.array(good)]
    else:
        kind = float
        forms = [float(good), np.float64(good), np.array(float(good))]
        if float(good).is_integer():
            forms += [int(good), np.int64(good)]
    for value in forms:
        stored = store(value)
        assert type(stored) is kind and stored == good


@pytest.mark.parametrize("store, prefix",
                         [f[1:3] for f in FIELDS if f[3] != "integer"],
                         ids=[f[0] for f in FIELDS if f[3] != "integer"])
def test_int_beyond_float_range_is_refused(store, prefix):
    # float() of such an int raised OverflowError, which no caller that
    # handles the rules' ValueError caught.
    for value in (10 ** 400, -10 ** 400):
        message = f"^{re.escape(f'{prefix} = {value!r} ')}"
        with pytest.raises(ValueError, match=message):
            store(value)
