"""Projected steepest descent iteration with posterior step size.

Implements the single-level iteration: residual and gradient norms drive
a closed-form step size, the dual-space update is pulled back through the
inverse duality mapping and projected onto the constraint set, and the
run stops at the first iterate whose residual falls below the discrepancy
threshold.  When a reference solution is available, every inequality of
the convergence analysis is checked along the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EtaTooLarge, LinearCaseUnbounded,
                     MissingStabilityConstant, NonpositiveU,
                     StepIdentityViolated, ZeroGradient)
from .geometry import (SpaceGeometry, bregman_distance, dual_norm,
                       duality_map, inverse_duality_map, norm)
from .models import ForwardModel, NoisyData, data_space
from .sets import ConvexSet, bregman_project

__all__ = [
    "SolverConfig",
    "IterationState",
    "RunReport",
    "compute_ctilde",
    "convergence_radius",
    "step_quantities",
    "sd_step",
    "run_algorithm1",
]

# Internal consistency tolerance for the two step-size identities.
_SELF_CHECK_TOL = 1e-9


@dataclass
class SolverConfig:
    """Run parameters of the single-level iteration.

    ``eta_hat`` is the discrepancy threshold and must exceed ``3 * eta``.
    ``diagnostic_reference`` enables per-iteration Bregman-distance
    bookkeeping against a known solution.
    """

    eta: float
    eta_hat: float
    max_iterations: int = 10 ** 6
    diagnostic_reference: np.ndarray | None = None

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if not self.eta_hat > 3.0 * self.eta:
            raise ValueError("discrepancy threshold must satisfy "
                             "eta_hat > 3 * eta")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class IterationState:
    """One executed iteration: the iterate, its unprojected update and the
    step's scalars; the diagnostic fields are None without a reference."""

    k: int
    x: np.ndarray
    xtilde: np.ndarray
    rk: float
    tk: float
    that_k: float
    uk: float
    vk: float
    wk: float
    muk: float
    bregman_to_ref: float | None = None
    radius_ok: bool | None = None
    monotone_ok: bool | None = None
    strict_bound_ok: bool | None = None


@dataclass
class RunReport:
    """Outcome of a single-level run.  ``descent_sum`` adds up the
    per-step strict-descent amounts, bounded by the initial Bregman
    distance to the reference; ``start_radius_ok`` (set also at K = 0)
    says whether the start lies strictly inside the radius-``rho`` ball."""

    stopped_at_k: int
    final_residual: float
    x_final: np.ndarray
    stop_reason: str  # DiscrepancyMet | MaxIterations | StepDegenerate
    iterations: list[IterationState] = field(default_factory=list)
    monotonicity_violations: int = 0
    projected_start: bool = False
    rho: float | None = None
    failure: Exception | None = None
    descent_sum: float = 0.0
    start_radius_ok: bool | None = None


def _curvature_weight(space: SpaceGeometry, lip: float) -> float:
    """``(1/2) (Cp/p)**(-2/p) L``: the curvature product without its
    stability factor, and the coefficient of ``w_k``."""
    return 0.5 * (space.Cp / space.p) ** (-2.0 / space.p) * lip


def compute_ctilde(space: SpaceGeometry, model: ForwardModel) -> float:
    """Curvature-stability product ``(1/2) (Cp/p)**(-2/p) L C**2``.

    Raises
    ------
    MissingStabilityConstant
        If the model is nonlinear and carries no ``cstab``.
    """
    if model.lip == 0.0:
        return 0.0
    if model.cstab is None:
        raise MissingStabilityConstant(
            "a nonlinear model needs a stability constant")
    return _curvature_weight(space, model.lip) * model.cstab ** 2


def _u_roots(ctilde: float, eta: float):
    """``disc = 1 - 8 ctilde eta`` and, unless negative, the roots
    ``(1 -+ sqrt(disc)) / (2 ctilde)`` of u and the radius bracket."""
    disc = 1.0 - 8.0 * ctilde * eta
    if disc < 0.0:
        return disc, None, None
    sq = math.sqrt(disc)
    return disc, (1.0 - sq) / (2.0 * ctilde), (1.0 + sq) / (2.0 * ctilde)


def _radius_bracket(ctilde: float, eta: float) -> float:
    """``(1 + sqrt(1 - 8 ctilde eta)) / (2 ctilde) - 2 eta``, behind the
    convergence radius and the level transition; infinite when
    ``ctilde == 0``.  Raises EtaTooLarge if ``8 * ctilde * eta >= 1``."""
    if ctilde == 0.0:
        return math.inf
    disc, _, hi = _u_roots(ctilde, eta)
    if disc <= 0.0:
        raise EtaTooLarge(
            f"8 * ctilde * eta = {8 * ctilde * eta} >= 1 at eta = {eta}")
    return hi - 2.0 * eta


def convergence_radius(space: SpaceGeometry, lhat: float, ctilde: float,
                       eta: float) -> float:
    """Radius of the Bregman ball of admissible starting points.

    Raises
    ------
    LinearCaseUnbounded
        If ``ctilde == 0``; the radius is infinite and callers may treat
        any starting point as admissible.
    EtaTooLarge
        If ``8 * ctilde * eta >= 1``.
    """
    if ctilde == 0.0:
        raise LinearCaseUnbounded("zero curvature constant: infinite radius")
    return (space.Cp / space.p) \
        * (_radius_bracket(ctilde, eta) / lhat) ** space.p


def _u_value(ctilde, eta, rk):
    if ctilde == 0.0:
        return rk - eta
    disc, lo, hi = _u_roots(ctilde, eta)
    if disc >= 0.0:
        # Factored form from the two roots; better conditioned near them.
        return -ctilde * (rk - (lo - eta)) * (rk - (hi - eta))
    return -ctilde * rk ** 2 + (1.0 - 2.0 * ctilde * eta) * rk \
        - eta - ctilde * eta ** 2


def step_quantities(space: SpaceGeometry, model: ForwardModel, ctilde: float,
                    k: int, rk: float, tk: float, eta: float):
    """Posterior step-size scalars of iteration ``k`` from the norms ``rk``
    and ``tk``; ``ctilde`` is the run's ``compute_ctilde(space, model)``.

    Returns ``(that_k, u_k, v_k, w_k, mu_k, gain)``, with ``gain`` equal
    to ``(Gq/q) mu_k**q t_k**q``.

    Raises
    ------
    ZeroGradient
        If the gradient norm vanishes while the residual is above the
        threshold (stationary nonconvergent point).
    NonpositiveU
        If the step numerator is nonpositive, i.e. the convergence
        preconditions are violated.
    StepIdentityViolated
        If the two step-size identities fail beyond round-off.
    """
    p, q, Gq = space.p, space.q, space.Gq
    if tk == 0.0:
        raise ZeroGradient(f"t_{k} = 0 with residual {rk}")
    uk = _u_value(ctilde, eta, rk)
    if uk <= 0.0:
        raise NonpositiveU(
            f"u_{k} = {uk} <= 0 (residual {rk}, eta {eta})")
    that = Gq * tk ** q
    pm1 = p - 1.0  # equals 1 / (q - 1)
    pref = that ** (-pm1) * uk ** pm1 * rk ** (p * p - p)
    # Equals (Gq/q) mu_k**q t_k**q, the second identity checked below.
    gain = (1.0 / q) * that ** (-pm1) * uk ** p * rk ** (p * p - p)
    vk = pref * (rk - eta) - gain
    wk = _curvature_weight(space, model.lip) * pref
    muk = that ** (-pm1) * uk ** pm1 * rk ** (pm1 * pm1)

    # The two algebraic identities behind the step-size choice must hold
    # to round-off; a violation means the geometry constants are corrupt.
    lhs1 = muk * rk ** pm1
    scale1 = max(1.0, abs(lhs1), abs(pref))
    lhs2 = (Gq / q) * muk ** q * tk ** q
    scale2 = max(1.0, abs(lhs2), abs(gain))
    if abs(lhs1 - pref) > _SELF_CHECK_TOL * scale1 \
            or abs(lhs2 - gain) > _SELF_CHECK_TOL * scale2:
        raise StepIdentityViolated(
            f"step-size identities violated beyond 1e-9 at k = {k}")
    return that, uk, vk, wk, muk, gain


def sd_step(space: SpaceGeometry, cset: ConvexSet, x, Tk, muk):
    """One dual-space update followed by the Bregman projection.

    Returns ``(x_next, x_tilde)`` where ``x_tilde`` is the unprojected
    iterate, retained for diagnostics.
    """
    xtilde = inverse_duality_map(space, duality_map(space, x) - muk * Tk)
    return bregman_project(space, cset, xtilde), xtilde


def run_algorithm1(space: SpaceGeometry, cset: ConvexSet,
                   model: ForwardModel, data: NoisyData, x0,
                   config: SolverConfig) -> RunReport:
    """Run the projected steepest descent iteration to the discrepancy
    threshold.

    Starting points outside the set are projected in (recorded in the
    report).  With a diagnostic reference the trace additionally carries
    the Bregman distance to the reference, the radius invariance flag and
    the two per-step descent inequalities.

    Raises
    ------
    DimensionMismatch
        If ``x0`` does not match the space or ``data.ydelta`` is not of
        shape ``(model.out_dim,)``.
    MissingStabilityConstant
        On entry, if the model is nonlinear and carries no ``cstab``.
    """
    x = space.check_dim(np.asarray(x0, dtype=float)).copy()
    if data.ydelta.shape != (model.out_dim,):
        raise DimensionMismatch(
            f"ydelta has shape {data.ydelta.shape}, expected "
            f"({model.out_dim},)")
    projected_start = False
    if not cset.contains(space, x, tol=1e-12):
        x = bregman_project(space, cset, x)
        projected_start = True

    y_space = data_space(model, space.p)
    ctilde = compute_ctilde(space, model)
    ref = config.diagnostic_reference
    rho = breg = start_radius_ok = None
    if ref is not None:
        ref = space.check_dim(np.asarray(ref, dtype=float))
        try:
            rho = convergence_radius(space, model.lhat, ctilde, config.eta)
        except LinearCaseUnbounded:
            rho = math.inf
        breg = float(bregman_distance(space, x, ref))
        start_radius_ok = breg < rho

    report = RunReport(stopped_at_k=0, final_residual=math.nan,
                       x_final=x, stop_reason="MaxIterations",
                       projected_start=projected_start, rho=rho,
                       start_radius_ok=start_radius_ok)

    q_over_p = space.q / space.p
    k = 0
    while True:
        Rk = model.eval(x) - data.ydelta
        rk = float(norm(y_space, Rk))
        if rk <= config.eta_hat:
            report.stop_reason = "DiscrepancyMet"
            break
        if k >= config.max_iterations:
            report.stop_reason = "MaxIterations"
            break

        Tk = model.apply_adjoint(x, duality_map(y_space, Rk))
        tk = float(dual_norm(space, Tk))
        try:
            that, uk, vk, wk, muk, gain = step_quantities(
                space, model, ctilde, k, rk, tk, config.eta)
        except (ZeroGradient, NonpositiveU) as exc:
            report.stop_reason = "StepDegenerate"
            report.failure = exc
            break
        x_next, xtilde = sd_step(space, cset, x, Tk, muk)

        breg_k, radius_ok, monotone_ok, strict_ok = breg, None, None, None
        if ref is not None:
            breg = float(bregman_distance(space, x_next, ref))
            descent = wk * breg_k ** (2.0 / space.p) - vk
            radius_ok = breg_k < rho
            monotone_ok = breg <= breg_k + descent + 1e-10
            strict_ok = descent < 0.0
            if not monotone_ok:
                report.monotonicity_violations += 1

        # The strict-descent amount of the step is the gain with 1/p in
        # place of 1/q.
        report.descent_sum += q_over_p * gain
        report.iterations.append(IterationState(
            k=k, x=x, xtilde=xtilde, rk=rk, tk=tk, that_k=that, uk=uk,
            vk=vk, wk=wk, muk=muk, bregman_to_ref=breg_k,
            radius_ok=radius_ok, monotone_ok=monotone_ok,
            strict_bound_ok=strict_ok))
        x = x_next
        k += 1

    report.stopped_at_k = k
    report.final_residual = rk
    report.x_final = x
    return report
