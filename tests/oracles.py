"""Test oracles, independent of the code under test.

``member`` decides membership of each shipped set kind from the set's
definition, so a test of a projection never trusts the projection to
decide where its own output lies.  ``adjoint_gap`` checks a model's
adjoint against a central difference of its evaluation.
"""

import numpy as np

from projsd import Ball, Box, CoordinateSubspace, WholeSpace, norm


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
