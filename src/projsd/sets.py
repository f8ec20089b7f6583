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
one shared scalar root finds ``s`` when ``p != r``:

- ``Box``: ``P_r`` is the coordinate clamp, for any weights.
- ``CoordinateSubspace``: ``P_r`` is truncation.  The subspace is a cone,
  so ``s`` has a closed form as well.
- ``Ball``: a radial shrink when the center is 0 (for every gauge) or
  r = 2.  Otherwise the same root search finds the one multiplier
  ``lam >= 0`` that sets ``||y - c|| = R``, and for each ``lam`` every
  coordinate solves ``phi(y_i) + lam * phi(y_i - c_i) = phi(z_i)``,
  ``phi(t) = |t|**(r-1) sign(t)``, by Newton's method inside a bisection
  bracket.  Its powers take the exact shortcuts of ``geometry`` (at
  r = 3 a square, a square root and no power for the slope ratio; at
  r = 1.5 a square root and a square), which give numpy's bits for the
  power.  With p != r that nests the search for lam inside the search
  for s, so an off-centre ball first runs one joint Newton search in
  ``(log(1 + lam), log(alpha))``: one coordinate solve per trial, and a
  2x2 Jacobian from implicit differentiation of the coordinate
  equations.  When it misses twice in a row or runs out of trials, the
  nested searches project the point from scratch, as if it had not run.

Every bracket expansion and scalar search stops after a fixed number of
steps and raises ``NonConvergence`` if it has not converged by then.  No
state survives a call, so equal inputs give bit-identical outputs.  A
ball's radius and the point to project follow the input rules of README
("Input rules").
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DimensionMismatch, NonConvergence, NonFiniteInput, real,
                     vector)
from .geometry import SpaceGeometry, _array_power, bregman_distance, norm

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
# the searches stay below 100 steps.  The cap is reached in two known
# cases.  A joint-search trial at a multiplier near exp(700) on a ball
# whose centre has a zero entry bisects, in its coordinate solve, toward
# a root below the subnormals; the joint search counts the NonConvergence
# as a missed trial.  And far from a ball, the nested searches' coordinate
# solve can exhaust the cap before its bracket closes to a few ulps: in
# lp_space(4, r=1.25, p=4.0), 49 of the 200 seeded points of
# test_nested_ball_searches_raise_no_overflow_warning raise
# NonConvergence so, all at max |x_i| >= 2.1e15, while other points up
# to 8.3e17 project.
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
    """Base class.  Subclasses implement ``_project``, which maps a member
    to itself as a new array, and ``_check_fits`` when the set has a
    vector parameter."""

    def _check_fits(self, space: SpaceGeometry):
        """Raise DimensionMismatch unless every vector parameter of the set
        has the shape ``(space.dim,)``; a set with none always fits."""

    def _project(self, space: SpaceGeometry, x):
        """Bregman projection of x, any finite point of the space."""
        raise NotImplementedError


class WholeSpace(ConvexSet):
    """Z = X; the projection is the identity."""

    def _project(self, space, x):
        return x.copy()

    def __repr__(self):
        return "WholeSpace()"


class Box(ConvexSet):
    """Coordinate box [lower_i, upper_i]; a bound of -inf (lower) or +inf
    (upper) leaves its side open."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
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

    def _clamp(self, z):
        """P_r: np.clip's bits, signed zeros included, without its
        wrapper."""
        return np.minimum(np.maximum(z, self.lower), self.upper)

    def _project(self, space, x):
        if space.p == space.r:
            return self._clamp(x)
        return _gauge_p_projection(space, self._clamp, x)

    def __repr__(self):
        return f"Box({self.lower!r}, {self.upper!r})"


class Ball(ConvexSet):
    """Norm ball {y : ||y - center|| <= radius} in the space norm."""

    def __init__(self, center, radius):
        self.radius = real("radius", radius)
        self.center = np.asarray(center, dtype=float)
        if not np.isfinite(self.center).all():
            raise ValueError("center must be finite")

    def _check_fits(self, space):
        if self.center.shape != (space.dim,):
            raise DimensionMismatch(
                f"Ball center has shape {self.center.shape}, the space "
                f"needs ({space.dim},)")

    def _shrink(self, space, z):
        """Radial shrink of z onto the ball, toward the center; a z - c
        whose norm overflows is first scaled to ``max |z_i - c_i| = 1``."""
        d = z - self.center
        with np.errstate(over="ignore"):
            dist = float(norm(space, d))
        if dist <= self.radius:
            return z
        if dist == np.inf:
            d = d / np.max(np.abs(d))
            dist = float(norm(space, d))
        return self.center + (self.radius / dist) * d

    def _project(self, space, x):
        x = x.copy()  # each path returns a point inside the ball as z itself
        if not np.any(self.center) or space.r == space.p == 2.0:
            # Centred: by symmetry the radial shrink is the projection for
            # every gauge.  At r = p = 2 it is the metric projection.
            return self._shrink(space, x)
        with np.errstate(over="ignore"):
            gap = float(norm(space, x - self.center))
        if gap <= self.radius:
            return x
        if space.r == 2.0:
            return _gauge_p_projection(
                space, lambda z: self._shrink(space, z), x)
        if gap == np.inf:
            raise NonConvergence(
                "||x - center|| overflows, so the search for the multiplier "
                "cannot start")
        if space.p == space.r:
            return _ball_search(space, self.center, self.radius, x, gap,
                                0.0, x)[1]
        # Away from the origin, one joint search first; the nested searches
        # below take what it cannot solve.
        nx = float(norm(space, x))
        if nx > 0.0:
            y = _joint_ball_search(space, self.center, self.radius, x, nx,
                                   math.log(gap / self.radius))
            if y is not None:
                return _finite(y)
        # Successive P_r solves of this call start from the last multiplier
        # and point found; nothing outlives the call.
        s, y = 0.0, None

        def project_r(z):
            nonlocal s, y
            dist = float(norm(space, z - self.center))
            if dist <= self.radius:
                return z
            s, y = _ball_search(space, self.center, self.radius, z, dist, s,
                                z if y is None else y)
            return y

        # project_r takes the norm of the rescaled point itself, so the walk
        # keeps the r-th powers of its entries finite, not only the entries.
        return _gauge_p_projection(space, project_r, x, _EXP_MAX / space.r)

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius})"


class CoordinateSubspace(ConvexSet):
    """Span of a subset of coordinate axes."""

    def __init__(self, support):
        support = list(support)
        # float(True) is 1.0, an integer: a bool is refused on its own.
        if not all(not isinstance(i, (bool, np.bool_))
                   and float(i).is_integer() for i in support):
            raise ValueError(f"support indices {support} must be integers")
        self.support = np.array(sorted(set(int(i) for i in support)))
        if self.support.size == 0:
            raise ValueError("support must be nonempty")
        if np.any(self.support < 0):
            raise ValueError("support indices must be nonnegative")

    def _check_fits(self, space):
        if self.support[-1] >= space.dim:
            raise DimensionMismatch(
                f"CoordinateSubspace support {self.support.tolist()} has "
                f"an index >= {space.dim}, the space dimension")

    def _project(self, space, x):
        # P_r is the truncation x_S.  It is 1-homogeneous, so
        # s = ||P_r(alpha x)|| = alpha ||x_S|| and the rescaling has the
        # closed form alpha = (||x_S|| / ||x||) ** ((r - p) / (p - 1)).
        xs = np.zeros(x.shape)
        xs[self.support] = x[self.support]
        if space.p == space.r:
            return xs
        with np.errstate(over="ignore"):
            ns, nx = float(norm(space, xs)), float(norm(space, x))
        if ns == 0.0:
            return xs
        e = (space.r - space.p) / (space.p - 1.0)
        if nx < np.inf:
            return _finite((ns / nx) ** e * xs)
        # ||x|| overflows.  The ratio does not change when x is scaled,
        # and at max |x_i| = 1 ||x|| is in range; _log_ratio rescales an
        # x_S whose norm then underflows.
        m = float(np.max(np.abs(x)))
        return _finite(math.exp(e * _log_ratio(
            space, xs / m, float(norm(space, x / m)))) * xs)

    def __repr__(self):
        return f"CoordinateSubspace({list(self.support)})"


def _gauge_p_projection(space, project_r, x, exp_max=_EXP_MAX):
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
    ``e**(beta t) x`` past ``e**exp_max``.
    """
    r, p = space.r, space.p
    y0 = project_r(x)
    with np.errstate(over="ignore"):
        nx = float(norm(space, x))
    if nx == 0.0:
        # At the origin the projection is the set's minimum-norm point,
        # the same for every gauge.
        return y0
    # The search reads only norms relative to ||x||, which do not change
    # when every point is divided by one m.  Where ||x|| overflows,
    # m = max |x_i| brings it into range.
    m = None
    if nx == math.inf:
        m = float(np.max(np.abs(x)))
        nx = float(norm(space, x / m))
    n0 = float(norm(space, y0 if m is None else y0 / m))
    if n0 == 0.0 or n0 == nx:
        # n0 = 0: J_r(x), and with it J_p(x), lies in the normal cone at 0.
        # n0 = ||x||: alpha = 1 is the fixed point.
        return y0
    beta = (r - p) / (r - 1.0)

    def g(t):
        y = project_r(math.exp(beta * t) * x)
        return _log_ratio(space, y if m is None else y / m, nx) - t, y

    # The walk goes toward the root, the sign of g0.  Only a rescaling
    # that overflows bounds it: e**(beta t) and e**(beta t) x stay finite.
    # One that underflows to 0 is the origin case, where P_r(0) projects
    # every point that small, to rounding.
    g0 = _log(n0 / nx)
    limit = math.inf
    if beta * g0 > 0.0:
        log_max = max(math.log(float(np.max(np.abs(x)))), 0.0)
        limit = max(exp_max - log_max, 0.0) / abs(beta)
    try:
        return _finite(
            _root(g, g0, y0, g0 / (1.0 - min(beta, 0.0)), limit)[1])
    except NonConvergence:
        # P_r can be constant along the ray from x on, as a box's clamp is
        # once every moving coordinate sits at a bound.  Then g(t) = g0 - t
        # and P_p(x) = y0, even when the root lies beyond exp's range.
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


def _log_ratio(space, y, n):
    """``log(||y|| / n)``.  When ``sum_i w_i |y_i|**r`` leaves the normal
    range, ``||y||`` loses its precision or underflows to 0, so a y that
    tiny is first scaled to ``max |y_i| = 1``."""
    ny = float(norm(space, y))
    if ny >= _TINY ** (1.0 / space.r):
        return _log(ny / n)
    m = float(np.max(np.abs(y)))
    if m == 0.0:
        return -math.inf
    return math.log(m) + math.log(float(norm(space, y / m))) - math.log(n)


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
    r = space.r
    g0 = _log(dist / radius)
    if not g0 > 0.0:
        return 0.0, z                # on the sphere to rounding

    def g(s):
        nonlocal y
        y = _solve_coordinates(z, c, math.expm1(s), r, y)
        return _log(float(norm(space, y - c)) / radius), y

    return _root(g, g0, z, s if s > 0.0 else (r - 1.0) * g0, _EXP_MAX)


def _joint_ball_search(space, c, radius, x, nx, g1):
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
    nested searches.
    """
    r = space.r
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
            newton = _newton_step(space, c, x, y, sigma, tau, beta, g1, g2)
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
        try:
            y_new = _solve_coordinates(math.exp(t_new) * x, c,
                                       math.expm1(s_new), r, y)
        except NonConvergence:
            y_new = None
        if y_new is not None:
            h1 = _log(float(norm(space, y_new - c)) / radius)
            h2 = _log_ratio(space, y_new, nx) - t_new / beta
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


def _newton_step(space, c, x, y, sigma, tau, beta, g1, g2):
    """``(d sigma, d tau, e1, e2)``: the Newton step of the joint ball
    search at a solved point y, and the changes of G1 and G2 that y's
    tolerance in the coordinate solve allows; None where the Jacobian is
    singular or not finite.

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
    w = np.ones(x.shape) if space.weights is None else space.weights
    lam = math.expm1(sigma)
    z = math.exp(tau) * x
    gap = y - c
    slope_pow, phi_pow = _array_power(r - 2.0), _array_power(r - 1.0)
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


def _solve_coordinates(z, c, lam, r, y):
    """Solve ``phi(y_i) + lam * phi(y_i - c_i) = phi(z_i)`` for every i.

    The left side increases in y_i, so the root lies between c_i and z_i.
    Vectorised Newton starts from y.  phi' is infinite (r < 2) or zero
    (r > 2) at 0 and at c_i, where Newton in y cycles or crawls; so each
    step is taken in ``w = phi(y)`` where the ``phi(y)`` term has the
    larger slope and in ``v = phi(y - c_i)`` otherwise.  In that variable
    the dominant term is linear and the other one has at most its slope.
    A coordinate bisects its bracket whenever its step leaves the bracket
    or two Newton steps in a row did not halve the residual.

    The tolerance is a few ulps of ``|y_i| + |y_i - c_i|``, which is what
    ``||y||`` and ``||y - c||`` need.  A coordinate is done when its
    residual is at rounding level, its bracket is within the tolerance,
    or a second Newton step in a row halves the residual and moves it by
    less than the tolerance.  A step that short without that evidence is
    lengthened to the tolerance, so that it crosses the root and closes
    the bracket.  For r < 2, phi is infinitely steep at 0, and ``J_r(y)``
    needs ``phi(y_i)`` also where the root is near 0; so there a bracket
    must be within a few ulps of its end nearer 0, which never holds for
    a bracket around 0.
    """
    phi_pow = _array_power(r - 1.0)
    inv_pow = _array_power(1.0 / (r - 1.0))
    slope_pow = _array_power(r - 2.0)
    abs_b = phi_pow(np.abs(z))
    b = np.copysign(abs_b, z)
    lo, hi = np.minimum(z, c), np.maximum(z, c)
    y = np.minimum(np.maximum(y, lo), hi)
    done = np.zeros(y.shape, dtype=bool)
    f_prev = np.full(y.shape, np.inf)    # finite after a Newton step only
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            gap = y - c
            abs_y, abs_gap = np.abs(y), np.abs(gap)
            pow_y, pow_gap = phi_pow(abs_y), phi_pow(abs_gap)
            phi_y, phi_gap = np.copysign(pow_y, y), np.copysign(pow_gap, gap)
            f = phi_y + lam * phi_gap - b
            abs_f = np.abs(f)
            # Floored at the smallest normal number: in subnormals the
            # relative tolerance underflows to 0.
            tol = np.maximum(4.0 * _EPS * (abs_y + abs_gap), _TINY)
            # For r < 2, max(lo, -hi) is the distance of the bracket from
            # 0, negative around 0; as y lies in the bracket, a width
            # within a few ulps of it is also within tol.
            width = tol if r >= 2.0 else np.maximum(
                4.0 * _EPS * np.maximum(lo, -hi), _TINY)
            done |= ((abs_f <= 4.0 * _EPS * (pow_y + lam * pow_gap + abs_b))
                     | (hi - lo <= width))
            if done.all():
                return y
            lo = np.where(f < 0.0, y, lo)
            hi = np.where(f > 0.0, y, hi)
            # Newton in w = phi(y) where the phi(y) term has the larger
            # slope, else in v = phi(y - c); q is the ratio of the slopes.
            q = slope_pow(abs_y / abs_gap) / lam
            in_w = q >= 1.0
            ratio = np.where(in_w, 1.0 / q, q)
            u = np.where(in_w, phi_y - f / (1.0 + ratio),
                         phi_gap - f / (lam * (1.0 + ratio)))
            newton = (np.where(in_w, 0.0, c)
                      + np.copysign(inv_pow(np.abs(u)), u))
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
    return _project_finite(space, cset, x)


def _project_finite(space: SpaceGeometry, cset: ConvexSet, x):
    """``cset._project(space, x)`` for an x of shape ``(space.dim,)`` on a
    set that fits the space, after the test that x is finite: the
    projection of ``bregman_project`` without its shape checks, which a
    run makes once, on its start.  x is finite when ``<x, x>`` is; only
    when that sum is not finite, as for entries near 1e200, is every entry
    tested.  Raises NonFiniteInput if x holds NaN or +-inf."""
    if not (math.isfinite(np.vdot(x, x))
            or np.logical_and.reduce(np.isfinite(x), axis=None)):
        raise NonFiniteInput("cannot project a vector holding NaN or inf")
    return cset._project(space, x)


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
