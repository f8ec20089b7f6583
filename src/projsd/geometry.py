"""Geometry of weighted l^r spaces on R^d.

Provides the norm, the duality mapping with gauge ``t -> t**(p-1)``, its
inverse (the duality mapping of the dual space), Bregman distances, and
sampling-based certification of the two norm comparison constants ``Cp``
and ``Gq``.

A space has one constructor, ``SpaceGeometry`` (also ``lp_space``).  It
works out the gauge ``p = max(r, 2)`` and, for an ``(r, p)`` of
``DEFAULT_CONSTANTS`` and any positive weights, the certified ``Cp`` and
``Gq``; a space with any other ``(r, p)`` states both.  Unit weights are
stored as ``weights = None``, so an unweighted space holds no array of
size ``dim``.

All operations are pure and accept batches: arrays of shape ``(..., dim)``
are mapped elementwise over the leading axes.  The numbers a space is
built from follow the input rules of README ("Input rules").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, exponent, integer, real
from .errors import seed as _seed

__all__ = [
    "SpaceGeometry",
    "lp_space",
    "norm",
    "duality_map",
    "inverse_duality_map",
    "bregman_distance",
    "certify_constants",
]


#: Sampling-certified norm comparison constants for l^r with the default
#: gauge p = max(r, 2).  The values carry a safety margin below (resp.
#: above) the empirical infimum (resp. supremum) of the two Bregman vs.
#: norm ratios over a large adversarial sample; see tests.  They hold for
#: any positive weights: x -> w**(1/r) x is a linear isometry from l^r(w)
#: onto l^r that carries the norm, J_p and the Bregman distance along, and
#: its adjoint does the same for the dual, so both ratios range over the
#: same numbers as in the unweighted space.
DEFAULT_CONSTANTS: dict[tuple[float, float], tuple[float, float]] = {
    (2.0, 2.0): (1.0, 1.0),
    (1.5, 2.0): (0.45, 2.2),
    (3.0, 3.0): (0.50, 1.4),
    (4.0, 4.0): (0.30, 1.6),
}


@dataclass(frozen=True, eq=False)
class SpaceGeometry:
    """A weighted l^r space on R^d together with its gauge exponent.

    Parameters
    ----------
    dim : int
        Dimension of the space.
    r : float
        Norm exponent.
    p : float or None
        Gauge exponent of the duality mapping; defaults to ``max(r, 2)``,
        so that the space is p-convex and its dual q-smooth.  The
        conjugate ``q`` is always derived from ``p``.
    weights : array or None
        Positive weight per coordinate.  None: unit weights, which is also
        what the space stores when every given weight is 1.
    Cp, Gq : float or None
        Constants of the lower Bregman-to-norm comparison and of the upper
        (dual) one.  For an ``(r, p)`` of ``DEFAULT_CONSTANTS`` a missing
        one is its certified value, whatever the weights; any other
        ``(r, p)`` needs both (ValueError).
    """

    dim: int
    r: float = 2.0
    p: float | None = None
    weights: np.ndarray | None = None
    Cp: float | None = None
    Gq: float | None = None

    def __post_init__(self):
        dim = integer("dim", self.dim)
        r = exponent("r", self.r)
        p = max(r, 2.0) if self.p is None else exponent("p", self.p)
        w = self.weights
        if w is not None:
            w = np.array(w, dtype=float)     # a copy the caller cannot change
            if w.shape != (dim,):
                raise DimensionMismatch(
                    f"weights have shape {w.shape}, expected ({dim},)")
            if not np.all((w > 0) & np.isfinite(w)):
                raise ValueError("all weights must be positive and finite")
            w.flags.writeable = False
            if np.all(w == 1.0):
                w = None
        cp, gq = self.Cp, self.Gq
        if cp is None or gq is None:
            if (r, p) not in DEFAULT_CONSTANTS:
                raise ValueError(
                    "no certified default constants for this configuration; "
                    "pass Cp and Gq explicitly")
            cp_d, gq_d = DEFAULT_CONSTANTS[(r, p)]
            cp, gq = cp_d if cp is None else cp, gq_d if gq is None else gq
        cp, gq = real("Cp", cp), real("Gq", gq)
        if w is None and r == p == 2.0 and (cp != 1.0 or gq != 1.0):
            raise ValueError(
                "the Hilbert configuration (r=2, p=2, unit weights) "
                "forces Cp = Gq = 1")
        for name, value in (("dim", dim), ("r", r), ("p", p), ("weights", w),
                            ("Cp", cp), ("Gq", gq)):
            object.__setattr__(self, name, value)

    @cached_property
    def q(self) -> float:
        """Conjugate exponent of the gauge, 1/p + 1/q = 1.  Worked out
        once per space."""
        return self.p / (self.p - 1.0)

    def dual(self) -> "SpaceGeometry":
        """The dual space: exponent r/(r-1), reciprocal-type weights,
        and the conjugate gauge.  Built once per space."""
        return self._dual

    @cached_property
    def _dual(self) -> "SpaceGeometry":
        rp = self.r / (self.r - 1.0)
        return SpaceGeometry(
            dim=self.dim,
            r=rp,
            p=self.q,
            weights=None if self.weights is None
            else self.weights ** (1.0 - rp),
            Cp=self.Gq,
            Gq=self.Cp,
        )

    @cached_property
    def _kernels(self):
        """``(phi, scale)`` of the duality mapping, resolved once per
        space: ``phi(x) = w |x|**(r-1) sign(x)`` and ``scale(n) =
        n**(p-r)`` for a norm n > 0, None when p = r."""
        return _duality_kernels(self)

    @cached_property
    def _vector_kernels(self):
        """``(norm, duality_map)`` of one checked vector, resolved once per
        space: ``norm(x)`` and ``duality_map(x, nrm=None)`` are those of
        ``_norm`` and ``_duality_map``, without their branches on r, the
        weights, the scale and ``ndim``."""
        return _one_vector_kernels(self)

    def check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"vector has shape {x.shape}, last axis must be {self.dim}")
        return x


lp_space = SpaceGeometry  # the same constructor, by its shorter name


# Each formula below has one private home that takes a checked input and
# the pieces its caller already holds (``||x||``, ``J_p(x)``); the public
# functions check their input and delegate.  ``np.add.reduce`` is the
# pairwise sum that ``np.sum`` runs, without its wrapper.
#
# One vector's norm and one pair's Bregman distance are worked out in
# floats: their scalar steps cost less on a float than on an np.float64
# or a 0-d array.  A float's power runs C's pow, the routine of numpy's
# scalar power, so the bits are those of numpy's scalars.  Where the
# power leaves the float range, a float's raises OverflowError and
# numpy's gives inf; ``||x||**p`` takes inf there.  The root ``** (1/r)``
# cannot overflow, as r > 1.  Batches run in numpy.
#
# The homes take shortcuts where the exponents allow, each giving the bits
# of the general formula, and a space resolves them once: phi and the
# scale (``_kernels``), and one vector's norm and duality map
# (``_vector_kernels``), which ``_norm`` and ``_duality_map`` hand one
# vector to and a run calls directly:
# - Powers: for the exponents 1, 2, 0.5 and -1, numpy's power of an
#   array (a 0-d one too) runs a copy, a square, a square root or a
#   reciprocal, each correctly rounded.  The tables below run that
#   operation directly; on a float, where numpy's power of a scalar runs
#   C's pow and may round differently, the bits are those of the 0-d
#   array.  They serve |x|**(r-1) (r = 1.5: sqrt), the scale
#   ``||x||**(p-r)`` (the data space (2, 3): 1, (2, 4): 2; l^1.5 with
#   p = 2: 0.5; its dual l^3 with p = 2: -1) and the coordinate solve of
#   the ball.  Any other exponent runs numpy's power.
# - r = 2: ``x * x`` is the square that numpy runs for ``|x| ** 2.0``, and
#   unit weights skip the multiply by 1.0.
# - r = p: the scale ``||x||**(p-r)`` is 1.0, so the duality mapping needs
#   no norm.  The general formula maps an x whose norm is 0 to 0, so the
#   one difference is a nonzero x whose norm underflows to 0: it maps to
#   ``w |x|**(r-1) sign(x)``, the image of the unrounded norm.
# - r = 2 with unit weights, so also Hilbert (r = p = 2): ``|x|**1.0
#   sign(x)`` is x, as pow(a, 1) = a exactly, and ``x + 0.0`` is a fresh
#   array that turns -0.0 into +0.0, as ``np.sign(-0.0) = +0.0`` does.
#   The data space has r = s = 2 unless a model states another s, and
#   the gauge of X, so the case runs on every step also when p != 2.
# - r = 3 with unit weights: ``|x|**2.0 sign(x)`` is ``(x + 0.0) *
#   |x|``, the same square with its sign, and +0.0 at -0.0 as above.

_ARRAY_POWERS = {1.0: lambda a: a, 2.0: np.square, 0.5: np.sqrt}
_FLOAT_POWERS = {1.0: float, 2.0: lambda n: n * n, 0.5: math.sqrt,
                 -1.0: lambda n: 1.0 / n}


def _array_power(e):
    """``a -> a ** e`` on a float array the caller owns; for e = 1 it
    returns a itself."""
    return _ARRAY_POWERS.get(e) or (lambda a: a ** e)


def _float_power(e):
    """``n -> float(np.asarray(n) ** e)`` on a float n."""
    return _FLOAT_POWERS.get(e) or (lambda n: float(np.asarray(n) ** e))


# Each phi takes an nrm that it does not read, so that where p = r it is
# also the one-vector duality map ``(x, nrm=None) -> J_p(x)``.

def _phi_unit_l2(x, nrm=None):
    return x + 0.0


def _phi_unit_l3(x, nrm=None):
    return (x + 0.0) * np.abs(x)


def _duality_kernels(space: SpaceGeometry):
    """``(phi, scale)`` of ``SpaceGeometry._kernels``."""
    r, w = space.r, space.weights
    if w is None and r == 2.0:
        phi = _phi_unit_l2
    elif w is None and r == 3.0:
        phi = _phi_unit_l3
    else:
        power = _array_power(r - 1.0)

        def phi(x, nrm=None):
            a = power(np.abs(x))
            if w is not None:
                a = w * a
            a *= np.sign(x)
            return a
    return phi, None if space.p == r else _float_power(space.p - r)


def _one_vector_kernels(space: SpaceGeometry):
    """``(norm, duality_map)`` of ``SpaceGeometry._vector_kernels``: the
    one-vector branches of ``_norm`` and ``_duality_map``, each resolved
    into one function."""
    r, w, root = space.r, space.weights, 1.0 / space.r
    add = np.add.reduce
    if r == 2.0 and w is None:
        def norm(x):
            return float(add(x * x)) ** root
    elif r == 2.0:
        def norm(x):
            return float(add(w * (x * x))) ** root
    elif w is None:
        def norm(x):
            return float(add(np.abs(x) ** r)) ** root
    else:
        def norm(x):
            return float(add(w * np.abs(x) ** r)) ** root

    phi, scale = space._kernels
    if scale is None:
        return norm, phi

    def duality_map(x, nrm=None):
        if nrm is None:
            nrm = _norm(space, x)
        # As in ``_duality_map``, the origin maps to 0.
        if not nrm > 0.0:
            return 0.0 * phi(x)
        return scale(nrm) * phi(x)

    return norm, duality_map


def _norm(space: SpaceGeometry, x: np.ndarray):
    """The norm of a checked x; a float for one vector."""
    if x.ndim == 1:
        return space._vector_kernels[0](x)
    r = space.r
    powers = x * x if r == 2.0 else np.abs(x) ** r
    if space.weights is not None:
        powers = space.weights * powers
    return np.add.reduce(powers, axis=-1) ** (1.0 / r)


def _duality_map(space: SpaceGeometry, x: np.ndarray, nrm=None):
    """The duality mapping of a checked x.  ``nrm = ||x||`` is computed
    here when not given, and only when p != r."""
    if x.ndim == 1:
        return space._vector_kernels[1](x, nrm)
    phi, scale = space._kernels
    jx = phi(x)
    if scale is None:
        return jx
    if nrm is None:
        nrm = _norm(space, x)
    # 0**(p-r) is an indeterminate 0*inf shape when p < r; the only
    # norm-consistent value at the origin is 0.
    s = np.where(nrm > 0.0, nrm, 1.0) ** (space.p - space.r)
    s = np.where(nrm > 0.0, s, 0.0)
    return s[..., np.newaxis] * jx


def _bregman_distance(space: SpaceGeometry, nrm, jx, xt, nrm_xt):
    """The Bregman distance from x to a checked xt, given ``nrm = ||x||``,
    ``jx = J_p(x)`` and ``nrm_xt = ||xt||``; a float for one pair."""
    p = space.p
    try:
        np_x = nrm ** p
    except OverflowError:
        np_x = math.inf
    try:
        np_xt = nrm_xt ** p
    except OverflowError:
        np_xt = math.inf
    if jx.ndim == xt.ndim == 1:
        # One pair: the batch branch in floats and without np.where.
        val = np_xt / p + np_x / space.q - float(np.add.reduce(jx * xt))
        return 0.0 if -1e-9 * (1.0 + np_x + np_xt) < val < 0.0 else val
    val = np_xt / p + np_x / space.q - np.add.reduce(jx * xt, axis=-1)
    floor = -1e-9 * (1.0 + np_x + np_xt)
    return np.where((val < 0.0) & (val > floor), 0.0, val)


def norm(space: SpaceGeometry, x: np.ndarray):
    """Weighted l^r norm, ``(sum_i w_i |x_i|**r) ** (1/r)``: a float for
    one vector, an array over the leading axes of a batch."""
    return _norm(space, space.check_dim(x))


def duality_map(space: SpaceGeometry, x: np.ndarray):
    """Duality mapping with gauge ``t -> t**(p-1)``.

    Maps x to the unique ``x*`` with ``<x, x*> = ||x|| ||x*||`` and
    ``||x*|| = ||x||**(p-1)``; in coordinates
    ``x*_i = ||x||**(p-r) w_i |x_i|**(r-1) sign(x_i)``, with 0 mapped to 0.
    """
    return _duality_map(space, space.check_dim(x))


def inverse_duality_map(space: SpaceGeometry, xstar: np.ndarray):
    """Inverse of the duality mapping, realized as the duality mapping of
    the dual space with the conjugate gauge."""
    return duality_map(space.dual(), xstar)


def bregman_distance(space: SpaceGeometry, x: np.ndarray, xt: np.ndarray):
    """Bregman distance of the functional ``(1/p) ||.||**p``.

    The duality mapping is evaluated at the *first* argument:
    ``(1/p)||xt||**p + (1/q)||x||**p - <J_p(x), xt>``.  Nonnegative, zero
    exactly at ``x == xt``; tiny negative round-off is clipped to 0.  A
    float for one pair, an array over the leading axes of a batch.
    """
    x = space.check_dim(x)
    xt = space.check_dim(xt)
    nrm = _norm(space, x)
    return _bregman_distance(space, nrm, _duality_map(space, x, nrm), xt,
                             _norm(space, xt))


def certify_constants(space: SpaceGeometry, n_samples: int = 10_000,
                      seed: int = 0):
    """Empirically certify the configured ``Cp`` and ``Gq`` by sampling.

    Returns ``(cp_bound, gq_bound)`` where ``cp_bound`` is the sampled
    infimum of ``p * breg / ||x - xt||**p`` (a configured ``Cp`` must not
    exceed it) and ``gq_bound`` the sampled supremum of the dual ratio
    ``q * breg* / ||x* - xt*||**q`` (a configured ``Gq`` must not fall
    below it).  Both ratios are scale invariant, so unit-scale samples
    suffice.  A pair so close that its Bregman distance is below 1e-8 of
    ``||x||**p + ||xt||**p`` is skipped: the rounding of its three terms,
    each about 1e-16 of that sum, would move the ratio by more than 1e-8.
    ``n_samples`` and ``seed`` follow the input rules of README ("Input
    rules"): an integer >= 1, and one >= 0.
    """
    n_samples = integer("n_samples", n_samples)
    rng = np.random.default_rng(_seed("seed", seed))

    def ratios(sp):
        """``p * breg / ||x - xt||**p`` over fresh sample pairs of `sp`."""
        x = rng.standard_normal((n_samples, sp.dim))
        xt = rng.standard_normal((n_samples, sp.dim))
        # Near-parallel pairs probe the flattest directions of the ball.
        half = n_samples // 2
        xt[:half] = x[:half] * rng.uniform(-2.0, 2.0, (half, 1))
        breg = bregman_distance(sp, x, xt)
        gap = norm(sp, x - xt)
        size = norm(sp, x) ** sp.p + norm(sp, xt) ** sp.p
        keep = breg > 1e-8 * size
        return sp.p * breg[keep] / gap[keep] ** sp.p

    cp_bound = float(np.min(ratios(space)))
    gq_bound = float(np.max(ratios(space.dual())))
    return cp_bound, gq_bound
