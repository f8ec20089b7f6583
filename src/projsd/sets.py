"""Closed convex subsets with exact Bregman projections.

The projection of x returns the set element y minimizing the Bregman
distance from x, i.e. ``argmin_y breg(x, y)``.  This is the minimization
that satisfies the three-point / total non-expansiveness law

    breg(P(x), z) + breg(x, P(x)) <= breg(x, z)   for every z in the set,

which is what every convergence argument in this package leans on.

Every projection reduces to one with gauge r.  The duality maps of the
two gauges differ by a power of the norm, ``J_p(y) = ||y||**(p-r) J_r(y)``,
so with ``s = ||P_p(x)||`` the optimality conditions of the gauge-p
problem are those of the gauge-r problem at a rescaled point:

    P_p(x) = P_r(alpha * x),   alpha = (s / ||x||) ** ((r - p) / (r - 1)).

Each set therefore implements only ``P_r``, whose objective
``(1/r) sum_i w_i |y_i|**r - <J_r(z), y>`` separates by coordinate, and
when ``p != r`` one shared scalar root finds ``s`` unless the set is a
cone:

- ``Box``, ``CoordinateSubspace`` and ``WholeSpace``: each is a box by
  its bounds (``_bounds``); a subspace's are (-inf, inf) on its support
  and +0.0 on both sides off it, the whole space's -inf and inf.  By
  their bounds they nest (``_unnested``), and one projector from the
  bounds serves all three (``_coordinate_projector``): ``P_r`` is the
  coordinate clamp, for any weights, and a set with no finite bound
  projects by a copy.  On a cone (every subspace, and every box whose
  bounds are all 0 or +-inf) P_r is 1-homogeneous, so ``s`` has a closed
  form; any other box takes the root.  Either reads the norm ratio
  exactly also where a norm or the ratio underflows or overflows, so
  only a ``P_r(x)`` that is exactly 0 is not rescaled.
- ``Ball``: a radial shrink when the center is 0 (for every gauge) or
  r = 2.  The origin outside an off-centre ball projects to the ball's
  point of least norm, ``c (1 - R / ||c||)``, with no search.  Otherwise
  the same root search finds the one multiplier
  ``lam >= 0`` that sets ``||y - c|| = R``, and for each ``lam`` every
  coordinate solves ``phi(y_i) + lam * phi(y_i - c_i) = phi(z_i)``,
  ``phi(t) = |t|**(r-1) sign(t)``.  At r = 3 and r = 1.5 that equation
  is a piecewise quadratic, solved in closed form to a few ulps of
  ``|y_i| + |y_i - c_i|``, with each coordinate scaled by a power of two
  so that subnormal entries and entries near 1e300 keep their root.  At
  every other r it is solved by Newton's method inside a bisection
  bracket, whose powers take the exact shortcuts of ``geometry``.  The
  solve is resolved once per point z (``_coordinate_solver``): a search
  for lam at a fixed z binds phi(z) and what else depends on z and the
  centre once for all its trials.  With p != r that nests the search for
  lam inside the search for s, so an off-centre ball first runs one
  joint Newton search in ``(log(1 + lam), log(alpha))``: one coordinate
  solve per trial, at a z that moves, and a 2x2 Jacobian from implicit
  differentiation of the coordinate equations.  When it misses twice in
  a row or runs out of trials, the nested searches project the point
  from scratch, as if it had not run.

Every bracket expansion and scalar search stops after a fixed number of
steps and raises ``NonConvergence`` if it has not converged by then.  No
state survives a call, so equal inputs give bit-identical outputs.  A
ball's radius, a subspace's support and the point to project follow the
input rules of README ("Input rules").

``Box``, ``Ball`` and ``CoordinateSubspace`` are fixed at construction,
as a space is: each parameter is checked once and stored, an array as a
read-only copy, and assigning any attribute raises AttributeError, so a
new value means a new set.  A run resolves its projection once
(``_projection``): the finiteness test of the point, then the set's P
(``_projector``) with its branches on the space and the set (p = r, a
cone, a centred ball, r = 2) and its parameters bound, and every norm
taken with the space's resolved one-vector norm.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import (_REAL, DimensionMismatch, Fixed, NonConvergence,
                     NonFiniteInput, _number, fixed_array, real, vector)
from .geometry import SpaceGeometry, _array_power, bregman_distance

__all__ = [
    "ConvexSet",
    "WholeSpace",
    "Box",
    "Ball",
    "CoordinateSubspace",
    "bregman_project",
    "check_total_nonexpansiveness",
]

# Step cap of every bracket expansion and scalar search.  A bisection
# needs ~60 halvings from its first bracket down to rounding, and on
# random sets, exponents r in [1.1, 6] and inputs of size 1e-4 to 1e5
# the searches stay below 100 steps.  The cap is reached in one known
# case, at an r outside {1.5, 3}, whose coordinate solve is Newton's: a
# joint-search trial at a multiplier near exp(700) on a ball whose
# centre has a zero entry bisects, in its coordinate solve, toward a
# root below the subnormals; the joint search counts the NonConvergence
# as a missed trial.  Far from a ball, the nested searches' coordinate
# solve reached it too, where a multiplier of 1e35 and more puts the root
# within rounding of c_i and the Newton point rounded onto c_i, outside
# the open bracket; that point now moves one float toward z_i.  In
# lp_space(4, r=1.25, p=4.0), 169 of the 200 seeded points of
# test_nested_ball_searches_raise_no_overflow_warning project, and each
# of the other 31 raises the outer search's NonConvergence at the end of
# the float range (151 projected, and 49 capped a coordinate solve).
_MAX_STEPS = 200
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Largest exponent a search passes to exp or expm1, below the overflow
# at ~709.78.
_EXP_MAX = 700.0
# Trials of the joint Newton search of an off-centre ball projection with
# p != r before the nested root searches take the projection over.
_JOINT_TRIALS = 12
# Round-off allowed in check_total_nonexpansiveness.
_THREE_POINT_TOL = 1e-10


class ConvexSet:
    """Base class, open for user subclasses.  Subclasses implement
    ``_projector``, which resolves the projection onto the set in one
    space, and ``_check_fits`` when the set has a vector parameter."""

    def _check_fits(self, space: SpaceGeometry):
        """Raise DimensionMismatch unless every vector parameter of the set
        has the shape ``(space.dim,)``; a set with none always fits."""

    def _projector(self, space: SpaceGeometry):
        """``P(x)``, the Bregman projection of x, any finite point of the
        space, onto the set: the branches on the space and the set's
        parameters are bound once.  P maps a member to itself as a new
        array."""
        raise NotImplementedError


class _CoordinateSet(ConvexSet):
    """A set that is a box by its bounds, ``_bounds(dim)``: its projection
    is that of the box (``_coordinate_projector``)."""

    def _projector(self, space):
        return _coordinate_projector(space, *self._bounds(space.dim))


def _unnested(csets, dim):
    """``(n, m)`` for each coordinate set ``csets[n]`` that, as a box by
    its bounds in R^dim, is not inside the next coordinate set of the
    list, ``csets[m]``; the other entries are skipped."""
    coords = [(n, c._bounds(dim)) for n, c in enumerate(csets)
              if isinstance(c, _CoordinateSet)]
    return [(n, m) for (n, (lo, hi)), (m, (outer_lo, outer_hi))
            in zip(coords, coords[1:])
            if not (np.all(outer_lo <= lo) and np.all(hi <= outer_hi))]


class WholeSpace(_CoordinateSet):
    """Z = X; the projection is the identity."""

    def _bounds(self, dim):
        """``(lower, upper)`` of R^dim as a box: -inf and inf, scalars that
        broadcast over every coordinate, so no array of size dim is
        built."""
        return -math.inf, math.inf

    def __repr__(self):
        return "WholeSpace()"


class Box(Fixed, _CoordinateSet):
    """Coordinate box [lower_i, upper_i]; a bound of -inf (lower) or +inf
    (upper) leaves its side open."""

    def __init__(self, lower, upper):
        vars(self).update(lower=fixed_array(lower), upper=fixed_array(upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper in every coordinate")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ValueError("box has an empty coordinate: lower = +inf or "
                             "upper = -inf")

    def _check_fits(self, space):
        if self.lower.shape != (space.dim,):
            raise DimensionMismatch(
                f"Box lower and upper have shape {self.lower.shape}, the "
                f"space needs ({space.dim},)")

    def _bounds(self, dim):
        """``(lower, upper)``, the box's own bounds."""
        return self.lower, self.upper

    def __repr__(self):
        return f"Box({self.lower!r}, {self.upper!r})"


class Ball(Fixed, ConvexSet):
    """Norm ball {y : ||y - center|| <= radius} in the space norm."""

    def __init__(self, center, radius):
        vars(self).update(radius=real("radius", radius),
                          center=fixed_array(center))
        if not np.isfinite(self.center).all():
            raise ValueError("center must be finite")

    def _check_fits(self, space):
        if self.center.shape != (space.dim,):
            raise DimensionMismatch(
                f"Ball center has shape {self.center.shape}, the space "
                f"needs ({space.dim},)")

    def _projector(self, space):
        center, radius = self.center, self.radius
        r, p = space.r, space.p
        norm = space._vector_kernels[0]

        def shrink(z):
            """Radial shrink of z onto the ball, toward the center; a
            z - c whose norm overflows is first scaled to
            ``max |z_i - c_i| = 1``."""
            d = z - center
            with np.errstate(over="ignore"):
                dist = norm(d)
            if dist <= radius:
                return z
            if dist == np.inf:
                d = d / np.max(np.abs(d))
                dist = norm(d)
            return center + (radius / dist) * d

        if not np.any(center) or r == p == 2.0:
            # Centred: by symmetry the radial shrink is the projection for
            # every gauge.  At r = p = 2 it is the metric projection.
            return lambda x: shrink(x.copy())

        # Only the joint search, at r != 2 and p != r, takes Newton steps.
        newton_step = (_newton_step(space, center) if r != 2.0 and p != r
                       else None)

        def project(x):
            x = x.copy()  # a point inside the ball is returned as itself
            with np.errstate(over="ignore"):
                gap = norm(x - center)
            if gap <= radius:
                return x
            if r == 2.0:
                return _gauge_p_projection(space, shrink, x)
            if gap == np.inf:
                raise NonConvergence(
                    "||x - center|| overflows, so the search for the "
                    "multiplier cannot start")
            if not x.any():
                # At the origin the objective is (1/p) ||y||**p, so P is the
                # point of the ball of least norm, c (1 - R / ||c||) for
                # every gauge and weighting: ||y|| >= ||c|| - R on the ball,
                # with equality there, and only there by strict convexity.
                # Here gap = ||0 - c|| = ||c||.
                return center * (1.0 - radius / gap)
            if p == r:
                return _ball_search(space, center, radius, x, gap, 0.0, x)[1]
            # Away from the origin, one joint search first; the nested
            # searches below take what it cannot solve.
            nx = norm(x)
            if nx > 0.0:
                y = _joint_ball_search(space, center, radius, x, nx,
                                       math.log(gap / radius), newton_step)
                if y is not None:
                    return _finite(y)
            # Successive P_r solves of this call start from the last
            # multiplier and point found; nothing outlives the call.
            s, y = 0.0, None

            def project_r(z):
                nonlocal s, y
                dist = norm(z - center)
                if dist <= radius:
                    return z
                s, y = _ball_search(space, center, radius, z, dist, s,
                                    z if y is None else y)
                return y

            # project_r takes the norm of the rescaled point itself, so the
            # walk keeps the r-th powers of its entries finite, not only
            # the entries.
            return _gauge_p_projection(space, project_r, x, _EXP_MAX / r)

        return project

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius})"


class CoordinateSubspace(Fixed, _CoordinateSet):
    """Span of a subset of coordinate axes."""

    def __init__(self, support):
        # An index is an integral real below 2**63 (int64): a bool, a str,
        # None or a list is not, and float(True) is 1.0, an integer.  A
        # mapping is not a list of indices, though it iterates its keys.
        items = (list(support) if np.iterable(support)
                 and not isinstance(support, Mapping) else [None])
        if not all(v is not None and v.is_integer() and 0.0 <= v < 2.0 ** 63
                   for v in [_number(i, _REAL, float) for i in items]):
            raise ValueError(
                f"support = {support!r} must be integers in [0, 2**63)")
        if not items:
            raise ValueError("support must be nonempty")
        vars(self).update(support=fixed_array(
            sorted(set(int(i) for i in items)), int))

    def _check_fits(self, space):
        if self.support[-1] >= space.dim:
            raise DimensionMismatch(
                f"CoordinateSubspace support {self.support.tolist()} has "
                f"an index >= {space.dim}, the space dimension")

    def _bounds(self, dim):
        """``(lower, upper)`` of the subspace as a box in R^dim: (-inf, inf)
        on the support and +0.0 on both sides off it, so that the clamp
        takes every nonzero entry there to +0.0."""
        on = np.isin(np.arange(dim), self.support)
        return np.where(on, -np.inf, 0.0), np.where(on, np.inf, 0.0)

    def __repr__(self):
        return f"CoordinateSubspace({self.support.tolist()})"


def _coordinate_projector(space, lower, upper):
    """P of the box in R^dim with these bounds, arrays of shape (dim,) or
    scalars that broadcast over it.

    P_r is the clamp ``minimum(maximum(z, lower), upper)``: np.clip's bits,
    signed zeros included, without its wrapper.  A box with no finite
    bound is the whole space, where the clamp and its rescaling by 1.0
    keep every bit of x, so P is a copy.  At p = r, P is P_r.  Where every
    finite bound is 0 the set is a cone and P_r is 1-homogeneous, so
    ``s = ||P_r(alpha x)|| = alpha ||P_r(x)||`` and the rescaling has the
    closed form ``alpha = (||P_r(x)|| / ||x||) ** ((r - p) / (p - 1))``;
    any other box takes the root search of ``_gauge_p_projection``.  Where
    a norm, the ratio or alpha leaves the normal range, both take the
    ratio from ``_log_ratio``, so such a norm is never read as a P_r(x) of
    0: only a P_r(x) that is exactly 0, the origin case, is not rescaled.
    """
    finite = np.concatenate([np.asarray(b)[np.isfinite(b)]
                             for b in (lower, upper)])
    if not finite.size:
        return np.ndarray.copy
    maximum, minimum = np.maximum, np.minimum

    def project_r(z):
        return minimum(maximum(z, lower), upper)

    if space.p == space.r:
        return project_r
    if np.any(finite):
        return lambda x: _gauge_p_projection(space, project_r, x,
                                             bounds=(lower, upper))
    norm, e = space._vector_kernels[0], (space.r - space.p) / (space.p - 1.0)
    # Below ratio_low, alpha = ratio**e would underflow (e > 1).
    low, ratio_low = _TINY ** (1.0 / space.r), _TINY ** (1.0 / max(e, 1.0))

    def project(x):
        y = project_r(x)
        with np.errstate(over="ignore"):
            ny, nx = norm(y), norm(x)
        # ny <= nx: P_r moves each coordinate toward 0.
        if ny >= low and nx < math.inf and ny / nx >= ratio_low:
            return _finite((ny / nx) ** e * y)
        t = _log_ratio(space, y, x, nx)
        if t == -math.inf:
            return y
        # alpha = 2**(k + f): ldexp scales by 2**k exactly, so alpha y is
        # in range wherever the projection is, though alpha may not be.
        k, f = divmod(e * t / math.log(2.0), 1.0)
        with np.errstate(over="ignore"):
            return _finite(np.ldexp(2.0 ** f * y, int(k)))

    return project


def _gauge_p_projection(space, project_r, x, exp_max=_EXP_MAX, bounds=None):
    """For p != r (at p = r, P_p is P_r),
    ``P_p(x) = P_r(alpha * x)`` with ``alpha = e**(beta t)``, where
    ``t = log(s / ||x||)`` is the root of
    ``g(t) = log(||P_r(alpha x)|| / ||x||) - t``.

    The projection is unique and every root of g gives an optimal point,
    so g has one sign change: positive below the root, negative above.
    ``g(0) = log(||P_r(x)|| / ||x||)``, and when ``||P_r(alpha x)||`` grows
    like a power ``alpha**gamma`` the root is ``g(0) / (1 - gamma beta)``.
    The search starts from the smaller guess: gamma = 1 (exact when the
    set is a cone) when beta < 0, gamma = 0 (exact where P_r is constant
    along the ray) when beta > 0.  For gamma in [0, 1] the root lies
    beyond it, so the walk does not overshoot the root to where powers of
    the rescaled point overflow or underflow.  No trial takes an entry of
    ``e**(beta t) x`` past ``e**exp_max``, except, for a box with
    ``bounds = (lower, upper)``, an entry whose bound on its own side (the
    upper for x_i > 0, the lower for x_i < 0) is finite: the clamp pins it
    at that bound, also where the rescaled entry overflows to inf.
    """
    y0 = project_r(x)
    # Overflow is expected, and ignored, in the whole search: in ||x||, in
    # the r-th powers of a trial point, where _log_ratio then takes its
    # norm scaled, and in an entry of alpha x that the clamp pins at a
    # finite bound.
    with np.errstate(over="ignore"):
        nx = space._vector_kernels[0](x)
        if nx == 0.0 and not np.any(x):
            # At the origin the projection is the set's minimum-norm point,
            # the same for every gauge.
            return y0
        g0 = _log_ratio(space, y0, x, nx)
        if g0 == -math.inf or g0 == 0.0:
            # P_r(x) = 0: J_r(x), and with it J_p(x), lies in the normal
            # cone at 0.  ||P_r(x)|| = ||x||: alpha = 1 is the fixed point.
            return y0
        beta = (space.r - space.p) / (space.r - 1.0)

        # The walk goes toward the root, the sign of g0.  Only a rescaling
        # that overflows bounds it: e**(beta t) stays finite, and so does
        # e**(beta t) x_i for every entry that P_r does not pin at a finite
        # bound.  One that underflows to 0 is the origin case, where P_r(0)
        # projects every point that small, to rounding.  Away from the
        # walk's growing side every trial has e**(beta t) <= 1.
        limit = math.inf
        if beta * g0 > 0.0:
            abs_x = np.abs(x)
            if bounds is None:
                m_free = float(np.max(abs_x))
            else:
                lower, upper = bounds
                side = np.where(x > 0.0, upper, -lower)
                m_free = float(np.max(abs_x, where=side == math.inf,
                                      initial=0.0))
            log_max = math.log(m_free) if m_free > 1.0 else 0.0
            limit = max(exp_max - log_max, 0.0) / abs(beta)

        def g(t):
            a = math.exp(beta * t)
            y = project_r(a * x)
            h = _log_ratio(space, y, x, nx)
            # P_r(a x) = 0, y0 being nonzero, only where a x underflows:
            # with a > 0 the walk has passed the root, and g takes that
            # side's sign.
            return (h - t if h > -math.inf or a == 0.0
                    else -g0 * math.inf), y

        try:
            return _finite(
                _root(g, g0, y0, g0 / (1.0 - min(beta, 0.0)), limit)[1])
        except NonConvergence:
            # P_r can be constant along the ray from x on, as a box's clamp
            # is once every moving coordinate sits at a bound.  Then
            # g(t) = g0 - t and P_p(x) = y0, even when the root lies beyond
            # exp's range.
            if 0.0 < limit < math.inf and np.array_equal(
                    g(math.copysign(limit, g0))[1], y0):
                return y0
            raise


def _finite(y):
    """y, checked: a rescaled point can overflow where x did not."""
    if not np.isfinite(y).all():
        raise NonConvergence("projection outside floating-point range")
    return y


def _log(v):
    """Natural log, -inf where a norm ratio underflowed to 0."""
    return math.log(v) if v > 0.0 else -math.inf


def _log_ratio(space, y, x, nx):
    """``log(||y|| / ||x||)`` for x != 0, from the norm kernel's
    ``nx = ||x||``; -inf only at y = 0.  For every ordinary point it is
    the log of the ratio of the kernel's norms.  Where a sum
    ``sum_i w_i |v_i|**r`` leaves the normal range, the kernel's norm
    loses its precision, underflows to 0 or overflows, and where the
    ratio does, it underflows or overflows; then the norms are taken as
    ``||v|| = m_v ||v / m_v||`` with ``m_v = max |v_i|``, and
    ``log(m_y / m_x)`` is a difference of logs only where that ratio too
    leaves the normal range.  Where ``||x||`` overflows, y is not summed
    unscaled, so its powers do not overflow either."""
    norm, low = space._vector_kernels[0], _TINY ** (1.0 / space.r)
    if low <= nx < math.inf:
        ny = norm(y)
        if low <= ny < math.inf and _TINY <= ny / nx < math.inf:
            return math.log(ny / nx)
    my, mx = float(np.max(np.abs(y))), float(np.max(np.abs(x)))
    if my == 0.0:
        return -math.inf
    q = my / mx
    log_q = (math.log(q) if _TINY <= q < math.inf
             else math.log(my) - math.log(mx))
    return math.log(norm(y / my) / norm(x / mx)) + log_q


def _root(g, g0, y0, t, limit):
    """Root of g, which is positive below its root and negative above.

    ``g(0) = g0``, paired with the point y0, is known, and t is the first
    trial, on the side of the root.  The trial doubles until g changes
    sign, but never past ``|t| = limit``, where g would leave the
    floating-point range; then regula falsi with the Anderson-Bjorck
    rescaling of the end that stays closes the bracket.  g returns
    ``(value, point)``; the result is ``(t, point)`` at the bracket end of
    smaller ``|g|``.
    """
    t_old = 0.0
    t = math.copysign(min(abs(t), limit), t)
    for _ in range(_MAX_STEPS):
        gt, yt = g(t)
        if abs(gt) <= 8.0 * _EPS:
            return t, yt
        if math.isnan(gt):
            raise NonConvergence("root search met a NaN")
        if (gt > 0.0) != (g0 > 0.0):
            break
        if abs(t) >= limit:
            raise NonConvergence("root outside floating-point range")
        t_old, g0, y0 = t, gt, yt
        t = math.copysign(min(2.0 * abs(t), limit), t)
    else:
        raise NonConvergence("no sign change within the step cap")
    if t > t_old:
        lo, g_lo, y_lo, hi, g_hi, y_hi = t_old, g0, y0, t, gt, yt
    else:
        lo, g_lo, y_lo, hi, g_hi, y_hi = t, gt, yt, t_old, g0, y0
    f_lo, f_hi = g_lo, g_hi          # values rescaled when an end stays
    for _ in range(_MAX_STEPS):
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            break
        t = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        gt, yt = g(t)
        if abs(gt) <= 8.0 * _EPS:
            return t, yt
        if math.isnan(gt):
            raise NonConvergence("root search met a NaN")
        if gt > 0.0:
            m = 1.0 - gt / f_lo
            f_hi *= m if m > 0.0 else 0.5
            lo, g_lo, f_lo, y_lo = t, gt, gt, yt
        else:
            m = 1.0 - gt / f_hi
            f_lo *= m if m > 0.0 else 0.5
            hi, g_hi, f_hi, y_hi = t, gt, gt, yt
    else:
        raise NonConvergence("root search exceeded the step cap")
    return (lo, y_lo) if abs(g_lo) <= abs(g_hi) else (hi, y_hi)


def _ball_search(space, c, radius, z, dist, s, y):
    """Gauge-r projection of z onto the ball ``||y - c|| <= radius`` for z
    outside it, at ``dist = ||z - c||``, started from
    ``s = log(1 + lam)`` and the point y.

    Returns ``(s, y)``.  The root is that of
    ``log(||y(lam) - c|| / radius)``, which decreases in lam.  In s it is
    linear for r = 2, and for any r both near lam = 0 and as lam grows.
    Without a start the first trial is ``(r - 1) * g(0)``, the root for
    r = 2.
    """
    r, norm = space.r, space._vector_kernels[0]
    g0 = _log(dist / radius)
    if not g0 > 0.0:
        return 0.0, z                # on the sphere to rounding
    solve = _coordinate_solver(z, c, r)

    def g(s):
        nonlocal y
        y = solve(math.expm1(s), y)
        return _log(norm(y - c) / radius), y

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _root(g, g0, z, s if s > 0.0 else (r - 1.0) * g0, _EXP_MAX)


def _joint_ball_search(space, c, radius, x, nx, g1, newton_step):
    """Gauge-p projection of x onto the ball for p != r, r != 2, or None.

    x is nonzero and outside the ball by ``g1 = log(||x - c|| / radius)``.
    ``P_p(x) = P_r(alpha x)`` with a multiplier lam, so one Newton search
    in ``sigma = log(1 + lam)`` and ``tau = log(alpha)`` replaces the root
    search in t around the root search in lam.  A trial solves the
    coordinates once, warm-started, for the residuals
    ``G1 = log(||y - c|| / radius)`` and
    ``G2 = log(||y|| / ||x||) - tau / beta``, ``beta = (r - p) / (r - 1)``.
    The start ``(0, 0)``, where y = x, needs no solve.

    A trial is kept only if it lowers ``max(|G1|, |G2|)``; otherwise the
    step is halved once, and a second miss ends the search.  The search
    stops when both residuals are within their rounding.  Far from the
    ball, with x near the origin, the Newton model is poor; None after a
    second miss or ``_JOINT_TRIALS`` trials hands the projection to the
    nested searches.  ``newton_step`` is ``_newton_step(space, c)``.
    """
    r, norm = space.r, space._vector_kernels[0]
    beta = (r - space.p) / (r - 1.0)
    # tau stays where alpha x and every power ||y||**r of a point between
    # it and c is finite.
    tau_max = max(min(_EXP_MAX / r - math.log(float(np.max(np.abs(x)))),
                      _EXP_MAX), 0.0)
    log_radius, log_nx = math.log(radius), math.log(nx)
    sigma, tau, y, g2 = 0.0, 0.0, x, 0.0
    err, step = g1, None
    for _ in range(min(_JOINT_TRIALS, _MAX_STEPS)):
        if step is None:
            newton = newton_step(x, y, sigma, tau, g1, g2)
            if newton is None:
                return None
            d_sigma, d_tau, e1, e2 = newton
            # A residual within its rounding counts as zero: 8 eps per
            # log term, as in _root, plus what y's tolerance in the
            # coordinate solve moves it by.
            if (abs(g1) <= 8.0 * _EPS * (1.0 + abs(log_radius)) + e1
                    and abs(g2) <= (8.0 * _EPS * (1.0 + abs(log_nx)
                                                  + abs(tau / beta)) + e2)):
                return y
            step, halved = (d_sigma, d_tau), False
        s_new = min(max(sigma + step[0], 0.0), _EXP_MAX)
        t_new = min(max(tau + step[1], -_EXP_MAX), tau_max)
        solve = _coordinate_solver(math.exp(t_new) * x, c, r)
        try:
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                y_new = solve(math.expm1(s_new), y)
        except NonConvergence:
            y_new = None
        if y_new is not None:
            h1 = _log(norm(y_new - c) / radius)
            h2 = _log_ratio(space, y_new, x, nx) - t_new / beta
            if max(abs(h1), abs(h2)) < err:
                sigma, tau, y, g1, g2 = s_new, t_new, y_new, h1, h2
                err = max(abs(g1), abs(g2))
                if err <= 8.0 * _EPS:
                    return y
                step = None
                continue
        if halved:
            return None
        step, halved = (0.5 * (s_new - sigma), 0.5 * (t_new - tau)), True
    return None


def _newton_step(space, c):
    """``step(x, y, sigma, tau, g1, g2)``: ``(d sigma, d tau, e1, e2)``,
    the Newton step of the joint ball search at a solved point y, and the
    changes of G1 and G2 that y's tolerance in the coordinate solve
    allows; None where the Jacobian is singular or not finite.  The
    weights, powers and beta are bound once.

    Differentiating ``phi(y_i) + lam phi(y_i - c_i) = phi(alpha x_i)``
    with ``D_i = (r - 1)(|y_i|**(r-2) + lam |y_i - c_i|**(r-2))`` gives
    ``dy_i/dlam = -phi(y_i - c_i) / D_i`` and
    ``dy_i/dtau = (r - 1) phi(alpha x_i) / D_i``, both taken as 0 where
    D_i is 0 or infinite, and ``d log ||v|| = sum_i w_i phi(v_i) dv_i /
    ||v||**r``.  The sigma-derivatives carry the factor ``1 + lam``.
    """
    # Unit weights are an array of ones here: np.dot against it rounds
    # differently from np.add.reduce.
    r = space.r
    w = np.ones(space.dim) if space.weights is None else space.weights
    beta = (r - space.p) / (r - 1.0)
    slope_pow, phi_pow = _array_power(r - 2.0), _array_power(r - 1.0)

    def step(x, y, sigma, tau, g1, g2):
        lam = math.expm1(sigma)
        z = math.exp(tau) * x
        gap = y - c
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            abs_y, abs_gap = np.abs(y), np.abs(gap)
            d = (r - 1.0) * (slope_pow(abs_y) + lam * slope_pow(abs_gap))
            inv_d = np.where((d > 0.0) & (d < np.inf), 1.0 / d, 0.0)
            pow_y, pow_gap = phi_pow(abs_y), phi_pow(abs_gap)
            phi_gap = np.copysign(pow_gap, gap)
            dy_lam = -phi_gap * inv_d
            dy_tau = (r - 1.0) * np.copysign(phi_pow(np.abs(z)), z) * inv_d
            a_gap = w * phi_gap / np.dot(w, pow_gap * abs_gap)
            a_y = w * np.copysign(pow_y, y) / np.dot(w, pow_y * abs_y)
            j11 = (1.0 + lam) * np.dot(a_gap, dy_lam)
            j12 = np.dot(a_gap, dy_tau)
            j21 = (1.0 + lam) * np.dot(a_y, dy_lam)
            j22 = np.dot(a_y, dy_tau) - 1.0 / beta
            det = j11 * j22 - j12 * j21
            d_sigma = (g2 * j12 - g1 * j22) / det
            d_tau = (g1 * j21 - g2 * j11) / det
        if not (math.isfinite(d_sigma) and math.isfinite(d_tau)):
            return None
        tol = 4.0 * _EPS * (abs_y + abs_gap)
        return (d_sigma, d_tau, float(np.dot(np.abs(a_gap), tol)),
                float(np.dot(np.abs(a_y), tol)))

    return step


# The scalar operands of the coordinate solve as read-only 0-d arrays: a
# ufunc takes one faster than a Python float, with the same bits.  _FLOOR
# is the floor of its tolerances, the smallest normal number.
_ZERO, _HALF, _ONE, _INF, _FOUR_EPS, _FLOOR = (
    fixed_array(v) for v in (0.0, 0.5, 1.0, math.inf, 4.0 * _EPS, _TINY))


def _coordinate_solver(z, c, r):
    """``solve(lam, y)``: solve ``phi(y_i) + lam * phi(y_i - c_i) =
    phi(z_i)`` for every i, for a multiplier ``0 <= lam <= e**700``, with
    what depends on z, c and r alone resolved once.  The left side
    increases in y_i, so the root lies between c_i and z_i.

    At r = 3 and r = 1.5 the equation is a piecewise quadratic, which
    ``_closed_form_solver`` solves exactly, up to rounding, and the warm
    start y is not read; at every other r, ``_newton_solver`` iterates
    from y.  ``solve`` returns a new array and expects the caller to
    ignore numpy's divide, overflow and invalid warnings."""
    if r in (1.5, 3.0):
        return _closed_form_solver(z, c, r)
    return _newton_solver(z, c, r)


def _closed_form_solver(z, c, r):
    """``solve(lam, y)`` of ``_coordinate_solver`` at r = 3 or r = 1.5 in
    closed form: the root of the quadratic that holds between the
    breakpoints, from ``_quadratic_root``, within a few ulps of
    ``|y_i| + |y_i - c_i|``.

    At r = 3, ``phi(t) = t|t|``, and the equation is that of
    ``_quadratic_root`` with ``b = phi(z)``.  At r = 1.5, ``w = phi(y)``
    and ``v = phi(y - c)`` satisfy ``w + lam v = phi(z)`` and, as phi
    inverts ``t|t|``, ``w|w| - v|v| = c``.  So for lam >= 1, w solves the
    r = 3 equation with ``(lam, c, b) -> (lam**-2, phi(z), c)``, and for
    lam < 1, ``u = w - phi(z) = -lam v`` solves it with ``(lam**2,
    -phi(z), lam**2 c)``; either multiplier is at most 1.  Then
    ``y = w|w|``.

    The equation is homogeneous, ``y(2**k z, 2**k c) = 2**k y(z, c)``, so
    each coordinate is first scaled by a power of two, which keeps its
    bits wherever the unscaled solve stays in range.  At r = 3 it takes
    ``max(|z_i|, |c_i|)`` into [1/2, 1), where ``lam c_i**2`` stays below
    e**700.  At r = 1.5 an even power, under which square roots scale
    exactly, takes it into [2**1000, 2**1002): there
    ``lam**-2 phi(z_i)**2``, formed from 1 / lam, stays normal for every
    lam up to e**700, as a root near ``z_i / lam**2`` at a zero centre
    entry needs, and no term passes 2**1004.  lam = 0 returns z, and
    every result is clipped to the closed bracket between c_i and z_i.
    """
    e = np.frexp(np.maximum(np.abs(z), np.abs(c)))[1]
    if r == 1.5:
        e += (e & 1) - 1002
    zs, cs = np.ldexp(z, -e), np.ldexp(c, -e)
    lo, hi = np.minimum(z, c), np.maximum(z, c)
    if r == 3.0:
        # Signs flipped so that the quadratic's centre is >= 0.
        sign = np.copysign(1.0, cs)
        c_q, b_q = sign * cs, sign * zs * np.abs(zs)
        above = b_q >= c_q * c_q

        def root(lam):
            lc = lam * c_q
            return sign * _quadratic_root(lam, lc, lc * c_q, b_q, above)
    else:
        # phi(z) = sign * c_q.
        sign = np.copysign(1.0, zs)
        c_q, b_q = np.sqrt(np.abs(zs)), sign * cs
        above = b_q >= c_q * c_q

        def root(lam):
            if lam >= 1.0:
                mu = 1.0 / lam
                mc = mu * c_q
                w = _quadratic_root(mu * mu, mu * mc, mc * mc, b_q, above)
            else:
                sq = lam * lam
                lc, b_u = sq * c_q, -sq * b_q
                w = c_q - _quadratic_root(sq, lc, lc * c_q, b_u,
                                          b_u >= c_q * c_q)
            return sign * w * np.abs(w)

    def solve(lam, y):
        if lam == 0.0:
            return z.copy()
        return np.minimum(np.maximum(np.ldexp(root(lam), e), lo), hi)

    return solve


def _quadratic_root(lam, lc, lcc, b, above):
    """The root y of ``y|y| + lam (y - c)|y - c| = b`` for ``c >= 0`` and
    ``lam >= 0``, from ``lc = lam c``, ``lcc = lam c**2`` and
    ``above = b >= c**2``.

    The left side increases in y, and its values at the breakpoints c and
    0 are c**2 and ``-lam c**2``, so they pick the quadratic:

    - ``b >= c**2``: y >= c, ``y = (lam c + sqrt((1 + lam) b - lam c**2))
      / (1 + lam)``;
    - ``-lam c**2 <= b < c**2``: 0 <= y < c, ``y = (lam c**2 + b) /
      (lam c + sqrt(lam c**2 + (1 - lam) b))``;
    - ``b < -lam c**2``: y < 0, ``y = (lam c**2 + b) /
      (lam c + sqrt(-(1 + lam) b - lam c**2))``.

    Each adds terms of one sign, so only a discriminant cancels, and only
    where the square root is dominated by ``lam c``.  A discriminant that
    rounds below 0 is taken as 0.  Where the denominator is 0 (lam c and
    the discriminant underflow), the numerator is 0 to rounding, and so
    is y."""
    below = b < -lcc
    one_plus = 1.0 + lam
    coef = np.where(above, one_plus, np.where(below, -one_plus, 1.0 - lam))
    t = lc + np.sqrt(np.maximum(
        coef * b + np.where(above | below, -lcc, lcc), 0.0))
    num = np.where(above, t, lcc + b)
    den = np.where(above, one_plus, t)
    np.copyto(den, 1.0, where=den == 0.0)
    return num / den


def _newton_solver(z, c, r):
    """``solve(lam, y)`` of ``_coordinate_solver`` by Newton's method,
    which serves every r but 1.5 and 3 (it solves those too): solve
    ``phi(y_i) + lam * phi(y_i - c_i) = phi(z_i)`` for every i, started
    from y, with what depends on z, c and r alone resolved once: the
    powers, ``b = phi(z)`` and ``|b|`` and ``nextafter(c, z)``.

    Vectorised Newton starts from y.  phi' is infinite (r < 2) or zero
    (r > 2) at 0 and at c_i, where Newton in y cycles or crawls; so each
    step is taken in ``w = phi(y)`` where the ``phi(y)`` term has the
    larger slope and in ``v = phi(y - c_i)`` otherwise.  In that variable
    the dominant term is linear and the other one has at most its slope.
    A coordinate bisects its bracket whenever its step leaves the bracket
    or two Newton steps in a row did not halve the residual.  A Newton
    point that rounds onto c_i, as where lam is so large that the root
    lies within rounding of c_i, moves one float toward z_i, into the
    open bracket.

    The tolerance is a few ulps of ``|y_i| + |y_i - c_i|``, which is what
    ``||y||`` and ``||y - c||`` need.  A coordinate is done when its
    residual is at rounding level of a finite scale, its bracket is
    within the tolerance, or a second Newton step in a row halves the
    residual and moves it by less than the tolerance.  A step that short
    without that evidence is lengthened to the tolerance, so that it
    crosses the root and closes the bracket.  The scale
    ``|phi(y_i)| + lam |phi(y_i - c_i)| + |phi(z_i)|`` can overflow near
    lam = e**700, and a residual within rounding of inf proves nothing.
    For r < 2, phi is infinitely steep at 0, and ``J_r(y)``
    needs ``phi(y_i)`` also where the root is near 0; so there a bracket
    must be within a few ulps of its end nearer 0, which never holds for
    a bracket around 0.

    ``solve`` runs each coordinate's elementwise operations in the order
    of the formulas above, with each selection an ``np.copyto`` and each
    scalar operand a 0-d array: the bits of one ``np.where`` per selection
    and of Python-float operands, at about half their call cost.  It
    returns a new array, raises NonConvergence after ``_MAX_STEPS``
    passes, and expects the caller to ignore numpy's divide, overflow and
    invalid warnings, which its slope ratios and unused branches raise.
    """
    phi_pow = _array_power(r - 1.0)
    inv_pow = _array_power(1.0 / (r - 1.0))
    slope_pow = _array_power(r - 2.0)
    abs_b = phi_pow(np.abs(z))
    b = np.copysign(abs_b, z)
    toward_z = np.nextafter(c, z)
    n, steep_at_0 = z.size, r < 2.0

    def solve(lam, y):
        lam = np.array(lam)
        lo, hi = np.minimum(z, c), np.maximum(z, c)
        y = np.minimum(np.maximum(y, lo), hi)
        done = np.zeros(n, dtype=bool)
        f_prev = _INF    # finite after a Newton step only
        for _ in range(_MAX_STEPS):
            gap = y - c
            abs_y, abs_gap = np.abs(y), np.abs(gap)
            pow_y, pow_gap = phi_pow(abs_y), phi_pow(abs_gap)
            phi_y, phi_gap = np.copysign(pow_y, y), np.copysign(pow_gap, gap)
            f = phi_y + lam * phi_gap - b
            abs_f = np.abs(f)
            # Floored at the smallest normal number: in subnormals the
            # relative tolerance underflows to 0.
            tol = np.maximum(_FOUR_EPS * (abs_y + abs_gap), _FLOOR)
            # For r < 2, max(lo, -hi) is the distance of the bracket from
            # 0, negative around 0; as y lies in the bracket, a width
            # within a few ulps of it is also within tol.
            width = np.maximum(_FOUR_EPS * np.maximum(lo, -hi), _FLOOR) \
                if steep_at_0 else tol
            # The residual is at rounding level only where its scale is
            # finite: near lam = e**700 it overflows, and inf <= inf.
            scale = pow_y + lam * pow_gap + abs_b
            done |= (((abs_f <= _FOUR_EPS * scale) & (scale < _INF))
                     | (hi - lo <= width))
            if np.count_nonzero(done) == n:
                return y
            np.copyto(lo, y, where=f < _ZERO)
            np.copyto(hi, y, where=f > _ZERO)
            # Newton in w = phi(y) where the phi(y) term has the larger
            # slope, else in v = phi(y - c); q is the ratio of the slopes,
            # replaced by its reciprocal in w.
            q = slope_pow(abs_y / abs_gap) / lam
            in_w = q >= _ONE
            np.copyto(q, _ONE / q, where=in_w)
            # u = phi_y - f / (1 + q) in w, phi_gap - f / (lam (1 + q)) in v.
            q += _ONE
            den = lam * q
            np.copyto(den, q, where=in_w)
            np.copyto(phi_gap, phi_y, where=in_w)
            u = phi_gap - f / den
            # The Newton point, where(in_w, 0.0, c) + phi^-1(u), with
            # phi^-1(u) written over u.
            np.copysign(inv_pow(np.abs(u)), u, u)
            newton = c + u
            np.copyto(newton, _ZERO + u, where=in_w)
            np.copyto(newton, toward_z, where=newton == c)
            halved = abs_f <= _HALF * f_prev
            short = np.abs(newton - y) < tol
            final = short & halved & (f_prev < _INF)
            # short ^ final is short & ~final: final implies short.
            np.copyto(newton, y - np.copysign(tol, f), where=short ^ final)
            ok = (newton > lo) & (newton < hi) & halved
            y_next = _HALF * (lo + hi)
            np.copyto(y_next, newton, where=ok | final)
            np.copyto(y_next, y, where=done)
            y = y_next
            done |= final
            np.copyto(abs_f, _INF, where=~ok)
            f_prev = abs_f
        raise NonConvergence("coordinate solve exceeded the step cap")

    return solve


def bregman_project(space: SpaceGeometry, cset: ConvexSet, x) -> np.ndarray:
    """Bregman projection of x, one vector of shape ``(space.dim,)``, onto
    the set, as a new array.

    Each set maps its members to themselves; the minimizer is unique by
    strict convexity, so no tie-breaking is needed.  The projection is
    exact for every exponent pair and any positive weights; with r = p = 2
    it is the metric projection of the weighted Euclidean norm.

    Raises
    ------
    DimensionMismatch
        If x is not of shape ``(space.dim,)`` (a batch included), or a
        vector parameter of the set does not have the space's dimension.
    NonFiniteInput
        If x holds NaN or +-inf.
    NonConvergence
        If a bounded search runs out of steps or the projection leaves the
        floating-point range; both take values near the end of that
        range.
    """
    x = vector(x, (space.dim,), "x")
    cset._check_fits(space)
    return _projection(space, cset)(x)


def _projection(space: SpaceGeometry, cset: ConvexSet):
    """``project(x)``: the projection of ``bregman_project`` for an x of
    shape ``(space.dim,)`` without its shape checks, on a set that fits
    the space, resolved once: the set's P with its branches and parameters
    bound (``_projector``) after the test that x is finite.  A run
    checks that the set fits the space, then resolves it once for its
    start and every step.  x is finite when ``<x, x>`` is; only when that
    sum is not finite, as for entries near 1e200, is every entry tested.
    ``project`` raises NonFiniteInput if x holds NaN or +-inf."""
    P = cset._projector(space)
    # np.vdot, not ``x @ x``: a sum that overflows makes matmul raise
    # numpy's overflow RuntimeWarning, an error under warnings-as-errors,
    # where vdot returns inf without a warning.
    vdot, isfinite = np.vdot, math.isfinite

    def project(x):
        if not (isfinite(vdot(x, x))
                or np.logical_and.reduce(np.isfinite(x), axis=None)):
            raise NonFiniteInput("cannot project a vector holding NaN or inf")
        return P(x)

    return project


def check_total_nonexpansiveness(space: SpaceGeometry, cset: ConvexSet,
                                 x, z):
    """Evaluate both sides of the total non-expansiveness inequality with
    the projection as the operator and z in the set as the pole.

    Returns ``(lhs, rhs, ok)`` for
    ``breg(P(x), z) + breg(x, P(x)) <= breg(x, z)``, where ``ok`` allows
    ``_THREE_POINT_TOL`` of round-off.
    """
    px = bregman_project(space, cset, x)
    lhs = float(bregman_distance(space, px, z)
                + bregman_distance(space, x, px))
    rhs = float(bregman_distance(space, x, z))
    return lhs, rhs, lhs <= rhs + _THREE_POINT_TOL
