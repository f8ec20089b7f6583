"""Test oracles, independent of the code under test.

``member`` decides membership of each shipped set kind from the set's
definition, so a test of a projection never trusts the projection to
decide where its own output lies.  ``adjoint_gap`` checks a model's
adjoint against a central difference of its evaluation.
``general_norm`` and ``general_bregman`` write the norm and the Bregman
distance out as numpy formulas; for one vector they run on numpy
scalars, whose bits the library's float path must reproduce.
``solve_coordinates`` is the coordinate solve of an off-centre ball
projection as it was first written, one ``np.where`` per selection: the
reference whose bits and raises the resolved solver must reproduce.
``subspace_projection`` is the projection onto a coordinate subspace as
a truncation, rescaled where p != r: the reference for the bits of a
subspace's clamp.
"""

import math

import numpy as np

from projsd import (Ball, Box, CoordinateSubspace, NonConvergence,
                    WholeSpace, duality_map, norm)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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


def solve_coordinates(z, c, lam, r, y, max_steps=200):
    """Solve ``phi(y_i) + lam * phi(y_i - c_i) = phi(z_i)`` for every i,
    ``phi(t) = |t|**(r-1) sign(t)``, by Newton's method inside a bisection
    bracket, started from y; NonConvergence after ``max_steps`` passes.

    Each step is taken in ``w = phi(y)`` where the ``phi(y)`` term has the
    larger slope and in ``v = phi(y - c_i)`` otherwise, and bisects where
    it leaves the bracket or did not halve the residual; a Newton point
    that rounds onto c_i moves one float toward z_i.  Powers are numpy's
    ``a ** e``, which runs a copy, a square or a square root for the
    exponents 1, 2 and 0.5.
    """
    e_phi, e_inv, e_slope = r - 1.0, 1.0 / (r - 1.0), r - 2.0
    abs_b = np.abs(z) ** e_phi
    b = np.copysign(abs_b, z)
    lo, hi = np.minimum(z, c), np.maximum(z, c)
    toward_z = np.nextafter(c, z)
    y = np.minimum(np.maximum(y, lo), hi)
    done = np.zeros(y.shape, dtype=bool)
    f_prev = np.full(y.shape, np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_steps):
            gap = y - c
            abs_y, abs_gap = np.abs(y), np.abs(gap)
            pow_y, pow_gap = abs_y ** e_phi, abs_gap ** e_phi
            phi_y, phi_gap = np.copysign(pow_y, y), np.copysign(pow_gap, gap)
            f = phi_y + lam * phi_gap - b
            abs_f = np.abs(f)
            tol = np.maximum(4.0 * _EPS * (abs_y + abs_gap), _TINY)
            width = tol if r >= 2.0 else np.maximum(
                4.0 * _EPS * np.maximum(lo, -hi), _TINY)
            done |= ((abs_f <= 4.0 * _EPS * (pow_y + lam * pow_gap + abs_b))
                     | (hi - lo <= width))
            if done.all():
                return y
            lo = np.where(f < 0.0, y, lo)
            hi = np.where(f > 0.0, y, hi)
            q = (abs_y / abs_gap) ** e_slope / lam
            in_w = q >= 1.0
            ratio = np.where(in_w, 1.0 / q, q)
            u = np.where(in_w, phi_y - f / (1.0 + ratio),
                         phi_gap - f / (lam * (1.0 + ratio)))
            newton = (np.where(in_w, 0.0, c)
                      + np.copysign(np.abs(u) ** e_inv, u))
            newton = np.where(newton == c, toward_z, newton)
            halved = abs_f <= 0.5 * f_prev
            short = np.abs(newton - y) < tol
            final = short & halved & (f_prev < np.inf)
            newton = np.where(short & ~final, y - np.copysign(tol, f), newton)
            ok = (newton > lo) & (newton < hi) & halved
            y = np.where(done, y, np.where(ok | final, newton,
                                           0.5 * (lo + hi)))
            done |= final
            f_prev = np.where(ok, abs_f, np.inf)
    raise NonConvergence("coordinate solve exceeded the step cap")


def subspace_projection(space, support, x):
    """Projection of x onto the span of the axes in `support`: the
    truncation x_S, x on the support and +0.0 off it, and where p != r,
    ``alpha x_S`` with ``alpha = (||x_S|| / ||x||) ** e``,
    ``e = (r - p) / (p - 1)``, in the space's norm.

    Where a norm, the ratio or alpha leaves the normal range, alpha is
    ``2**f 2**k`` from ``e log(||x_S|| / ||x||) / log 2 = k + f`` and
    ldexp applies 2**k exactly; where a norm leaves it, ``||v||`` is
    ``m ||v / m||`` with ``m = max |v_i|``, and ``log(m_S / m)`` is a
    difference of logs where that ratio underflows.
    """
    r, p = space.r, space.p
    xs = np.zeros(x.shape)
    xs[support] = x[support]
    if p == r or not np.any(xs):
        return xs
    e, low = (r - p) / (p - 1.0), _TINY ** (1.0 / r)
    with np.errstate(over="ignore"):
        ns, nx = norm(space, xs), norm(space, x)
    if low <= ns and nx < math.inf and ns / nx >= _TINY ** (1.0 / max(e, 1.0)):
        return (ns / nx) ** e * xs
    if low <= ns and nx < math.inf and ns / nx >= _TINY:
        t = math.log(ns / nx)
    else:
        ms, mx = float(np.max(np.abs(xs))), float(np.max(np.abs(x)))
        t = math.log(norm(space, xs / ms) / norm(space, x / mx)) + (
            math.log(ms / mx) if ms / mx >= _TINY
            else math.log(ms) - math.log(mx))
    k, f = divmod(e * t / math.log(2.0), 1.0)
    return np.ldexp(2.0 ** f * xs, int(k))
