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
    "check_starting_point",
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
    """Snapshot of one executed iteration."""

    k: int
    x: np.ndarray
    Rk: np.ndarray
    Tk: np.ndarray
    rk: float
    tk: float
    that_k: float = math.nan
    uk: float = math.nan
    vk: float = math.nan
    wk: float = math.nan
    muk: float = math.nan
    bregman_to_ref: float | None = None
    radius_ok: bool | None = None
    monotone_ok: bool | None = None
    strict_bound_ok: bool | None = None
    xtilde: np.ndarray | None = None


@dataclass
class RunReport:
    """Outcome of a single-level run.  ``descent_sum`` adds up the
    per-step strict-descent amounts, bounded by the initial Bregman
    distance to the reference."""

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


def _radius_bracket(ctilde: float, eta: float) -> float:
    """``(1 + sqrt(1 - 8 ctilde eta)) / (2 ctilde) - 2 eta``, behind the
    convergence radius and the level transition; infinite when
    ``ctilde == 0``.  Raises EtaTooLarge if ``8 * ctilde * eta >= 1``."""
    if ctilde == 0.0:
        return math.inf
    disc = 1.0 - 8.0 * ctilde * eta
    if disc <= 0.0:
        raise EtaTooLarge(
            f"8 * ctilde * eta = {8 * ctilde * eta} >= 1 at eta = {eta}")
    return (1.0 + math.sqrt(disc)) / (2.0 * ctilde) - 2.0 * eta


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
    disc = 1.0 - 8.0 * ctilde * eta
    if disc >= 0.0:
        # Factored form from the two roots; better conditioned near them.
        sq = math.sqrt(disc)
        a = (1.0 - sq) / (2.0 * ctilde) - eta
        b = (1.0 + sq) / (2.0 * ctilde) - eta
        return -ctilde * (rk - a) * (rk - b)
    return -ctilde * rk ** 2 + (1.0 - 2.0 * ctilde * eta) * rk \
        - eta - ctilde * eta ** 2


def step_quantities(space: SpaceGeometry, model: ForwardModel,
                    state: IterationState, eta: float) -> IterationState:
    """Fill in the posterior step-size scalars for the current iterate.

    Raises
    ------
    ZeroGradient
        If the gradient norm vanishes while the residual is above the
        threshold (stationary nonconvergent point).
    NonpositiveU
        If the step numerator is nonpositive, i.e. the convergence
        preconditions are violated.
    MissingStabilityConstant
        If the model is nonlinear and carries no ``cstab``.
    StepIdentityViolated
        If the two step-size identities fail beyond round-off.
    """
    p, q, Gq = space.p, space.q, space.Gq
    rk, tk = state.rk, state.tk
    if tk == 0.0:
        raise ZeroGradient(f"t_{state.k} = 0 with residual {rk}")
    ctilde = compute_ctilde(space, model)
    uk = _u_value(ctilde, eta, rk)
    if uk <= 0.0:
        raise NonpositiveU(
            f"u_{state.k} = {uk} <= 0 (residual {rk}, eta {eta})")
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
            f"step-size identities violated beyond 1e-9 at k = {state.k}")

    state.that_k = that
    state.uk = uk
    state.vk = vk
    state.wk = wk
    state.muk = muk
    return state


def sd_step(space: SpaceGeometry, cset: ConvexSet, x, Tk, muk):
    """One dual-space update followed by the Bregman projection.

    Returns ``(x_next, x_tilde)`` where ``x_tilde`` is the unprojected
    iterate, retained for diagnostics.
    """
    xtilde = inverse_duality_map(space, duality_map(space, x) - muk * Tk)
    return bregman_project(space, cset, xtilde), xtilde


def check_starting_point(space: SpaceGeometry, x0, zdag, rho) -> bool:
    """Whether the starting point lies strictly inside the convergence
    ball around the reference solution (duality map at the first
    argument)."""
    return float(bregman_distance(space, x0, zdag)) < rho


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
    ref, rho = config.diagnostic_reference, None
    if ref is not None:
        ref = space.check_dim(np.asarray(ref, dtype=float))
        try:
            rho = convergence_radius(space, model.lhat,
                                     compute_ctilde(space, model),
                                     config.eta)
        except LinearCaseUnbounded:
            rho = math.inf

    report = RunReport(stopped_at_k=0, final_residual=math.nan,
                       x_final=x, stop_reason="MaxIterations",
                       projected_start=projected_start, rho=rho)

    breg = float(bregman_distance(space, x, ref)) if ref is not None else None
    p = space.p
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
        state = IterationState(k=k, x=x, Rk=Rk, Tk=Tk, rk=rk, tk=tk)
        try:
            state = step_quantities(space, model, state, config.eta)
            x_next, xtilde = sd_step(space, cset, x, Tk, state.muk)
        except (ZeroGradient, NonpositiveU) as exc:
            report.stop_reason = "StepDegenerate"
            report.failure = exc
            break
        state.xtilde = xtilde

        if ref is not None:
            state.bregman_to_ref = breg
            state.radius_ok = breg < rho
            breg_next = float(bregman_distance(space, x_next, ref))
            descent = state.wk * breg ** (2.0 / space.p) - state.vk
            state.monotone_ok = breg_next <= breg + descent + 1e-10
            state.strict_bound_ok = descent < 0.0
            if not state.monotone_ok:
                report.monotonicity_violations += 1
            breg = breg_next

        report.descent_sum += (1.0 / p) * state.that_k ** (-(p - 1.0)) \
            * state.uk ** p * state.rk ** (p * p - p)
        report.iterations.append(state)
        x = x_next
        k += 1

    report.stopped_at_k = k
    report.final_residual = rk
    report.x_final = x
    return report
