"""Test oracles, independent of the code under test.

``member`` decides membership of each shipped set kind from the set's
definition, so a test of a projection never trusts the projection to
decide where its own output lies.  ``adjoint_gap`` checks a model's
adjoint against a central difference of its evaluation.
``general_norm`` and ``general_bregman`` write the norm and the Bregman
distance out as numpy formulas; for one vector they run on numpy
scalars, whose bits the library's float path must reproduce.
"""

import numpy as np

from projsd import (Ball, Box, CoordinateSubspace, WholeSpace, duality_map,
                    norm)


def member(space, cset, x, tol=1e-10):
    """Whether x lies within `tol` of the set, in the space norm.

    Raises DimensionMismatch if x, or a vector parameter of the set, does
    not have the space's dimension.
    """
    x = space.check_dim(x)
    cset._check_fits(space)
    if isinstance(cset, WholeSpace):
        return True
    if isinstance(cset, Box):
        gap = (np.maximum(cset.lower - x, 0.0)
               + np.maximum(x - cset.upper, 0.0))
        return norm(space, gap) <= tol
    if isinstance(cset, Ball):
        return norm(space, x - cset.center) <= cset.radius + tol
    if isinstance(cset, CoordinateSubspace):
        off = x.copy()
        off[cset.support] = 0.0
        return norm(space, off) <= tol
    raise TypeError(f"no membership oracle for {type(cset).__name__}")


def adjoint_gap(model, x, h, ystar, step=1e-3):
    """``|<(F(x + s h) - F(x - s h)) / (2 s), y*> - <h, DF(x)* y*>|``.

    The central difference has no truncation error for linear and
    quadratic models, so the gap of a correct adjoint is round-off.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    fd = (model.eval(x + step * h) - model.eval(x - step * h)) / (2.0 * step)
    return abs(float(np.dot(fd, ystar))
               - float(np.dot(h, model.apply_adjoint(x, ystar))))



def weights_of(space):
    """The weight array of the space, ones for unit weights (None)."""
    return np.ones(space.dim) if space.weights is None else space.weights


def general_norm(space, x):
    """``(sum_i w_i |x_i|**r) ** (1/r)`` as written."""
    return np.sum(weights_of(space) * np.abs(x) ** space.r,
                  axis=-1) ** (1.0 / space.r)


def general_bregman(space, x, xt):
    """``(1/p)||xt||**p + (1/q)||x||**p - <J_p(x), xt>`` as written, with
    round-off below 0 and above ``-1e-9 (1 + ||x||**p + ||xt||**p)``
    clipped to 0; on ``np.float64`` scalars for one pair."""
    np_x = general_norm(space, x) ** space.p
    np_xt = general_norm(space, xt) ** space.p
    val = np_xt / space.p + np_x / space.q - np.sum(
        duality_map(space, x) * xt, axis=-1)
    floor = -1e-9 * (1.0 + np_x + np_xt)
    return np.where((val < 0.0) & (val > floor), 0.0, val)
