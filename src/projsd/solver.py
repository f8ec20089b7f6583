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

from .errors import (DimensionMismatch, EtaTooLarge, MissingStabilityConstant,
                     NonFiniteStep, NonpositiveU, StepIdentityViolated,
                     ZeroGradient)
from .geometry import SpaceGeometry, _bregman_distance, _duality_map, _norm
from .models import ForwardModel, NoisyData, data_space
from .sets import ConvexSet, bregman_project

__all__ = [
    "SolverConfig",
    "IterationState",
    "RunReport",
    "compute_ctilde",
    "convergence_radius",
    "step_rule",
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


@dataclass(slots=True)
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


@dataclass
class RunReport:
    """Outcome of a single-level run.  ``iterations`` is the history of
    executed steps; it stays empty when the run streamed its steps to an
    ``on_iteration`` hook instead.  With a diagnostic reference the
    report tallies the theorem checks: the iterates outside the
    radius-``rho`` ball, the steps above the monotone-descent bound and
    those whose descent bound is not negative (0 without a reference).
    ``descent_sum`` adds up the per-step strict-descent amounts, bounded
    by the initial Bregman distance to the reference; ``start_radius_ok``
    (set also at K = 0) says whether the start lies strictly inside the
    radius-``rho`` ball.  ``failure`` is the error a StepDegenerate stop
    caught: NonFiniteStep, ZeroGradient or NonpositiveU."""

    stopped_at_k: int
    final_residual: float
    x_final: np.ndarray
    stop_reason: str  # DiscrepancyMet | MaxIterations | StepDegenerate
    iterations: list[IterationState] = field(default_factory=list)
    radius_violations: int = 0
    monotonicity_violations: int = 0
    strict_bound_violations: int = 0
    projected_start: bool = False
    rho: float | None = None
    failure: Exception | None = None
    descent_sum: float = 0.0
    start_radius_ok: bool | None = None


def _curvature_weight(space: SpaceGeometry, lip: float) -> float:
    """``(1/2) (Cp/p)**(-2/p) L``: the curvature product without its
    stability factor, and the coefficient of ``w_k``."""
    return 0.5 * (space.Cp / space.p) ** (-2.0 / space.p) * lip


def _ctilde(space: SpaceGeometry, lip: float, cstab: float) -> float:
    """Curvature-stability product ``(1/2) (Cp/p)**(-2/p) L C**2``."""
    return _curvature_weight(space, lip) * cstab ** 2


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
    return _ctilde(space, model.lip, model.cstab)


def _u_roots(ctilde: float, eta: float):
    """The roots ``(1 -+ sqrt(1 - 8 ctilde eta)) / (2 ctilde)`` of u and
    the radius bracket, for ``ctilde > 0``.  Raises EtaTooLarge unless
    ``8 * ctilde * eta < 1``; otherwise u <= 0 at every residual."""
    disc = 1.0 - 8.0 * ctilde * eta
    if disc <= 0.0:
        raise EtaTooLarge(
            f"8 * ctilde * eta = {8 * ctilde * eta} >= 1 at eta = {eta}")
    sq = math.sqrt(disc)
    return (1.0 - sq) / (2.0 * ctilde), (1.0 + sq) / (2.0 * ctilde)


def _radius_bracket(ctilde: float, eta: float) -> float:
    """``(1 + sqrt(1 - 8 ctilde eta)) / (2 ctilde) - 2 eta``, behind the
    convergence radius and the level transition; infinite when
    ``ctilde == 0``.  Raises EtaTooLarge if ``8 * ctilde * eta >= 1``."""
    if ctilde == 0.0:
        return math.inf
    return _u_roots(ctilde, eta)[1] - 2.0 * eta


def convergence_radius(space: SpaceGeometry, lhat: float | None,
                       ctilde: float, eta: float) -> float:
    """Radius ``(Cp/p) (bracket / lhat)**p`` of the Bregman ball of
    admissible starting points; infinite when ``ctilde == 0`` (F linear),
    where every start is admissible and ``lhat`` is not read.

    Raises
    ------
    MissingStabilityConstant
        If ``ctilde > 0`` and ``lhat`` is None (not stated).
    EtaTooLarge
        If ``8 * ctilde * eta >= 1``.
    """
    if ctilde == 0.0:
        return math.inf
    if lhat is None:
        raise MissingStabilityConstant(
            "a nonlinear model needs a derivative bound lhat for its "
            "convergence radius")
    return (space.Cp / space.p) \
        * (_radius_bracket(ctilde, eta) / lhat) ** space.p


def step_rule(space: SpaceGeometry, model: ForwardModel, ctilde: float,
              eta: float):
    """Posterior step-size rule of a run, with its constants (exponents,
    curvature weight, roots of u) computed once; ``ctilde`` is the run's
    ``compute_ctilde(space, model)``.

    Returns ``rule(k, rk, tk)``, which maps the residual and gradient
    norms of iteration ``k`` to ``(that_k, u_k, v_k, w_k, mu_k, gain)``,
    with ``gain`` equal to ``(Gq/q) mu_k**q t_k**q``.

    Raises
    ------
    EtaTooLarge
        On the call, if ``ctilde > 0`` and ``8 * ctilde * eta >= 1``.
    NonFiniteStep
        From the rule, if the gradient norm is NaN or infinite.
    ZeroGradient
        From the rule, if the gradient norm vanishes while the residual
        is above the threshold (stationary nonconvergent point).
    NonpositiveU
        From the rule, if the step numerator is nonpositive: the residual
        lies at or beyond the larger root of u, outside the convergence
        radius.
    StepIdentityViolated
        From the rule, if the two step-size identities fail beyond
        round-off.
    """
    p, q, Gq = space.p, space.q, space.Gq
    pm1 = p - 1.0  # equals 1 / (q - 1)
    neg_pm1, r_exp, mu_exp = -pm1, p * p - p, pm1 * pm1
    inv_q, gq_over_q = 1.0 / q, Gq / q
    weight = _curvature_weight(space, model.lip)
    if ctilde != 0.0:
        lo, hi = _u_roots(ctilde, eta)
        # Factored form from the two roots; better conditioned near them.
        lo_shift, hi_shift = lo - eta, hi - eta

    def rule(k, rk, tk):
        if not math.isfinite(tk):
            raise NonFiniteStep(
                f"t_{k} = {tk} is not finite (residual {rk})")
        if tk == 0.0:
            raise ZeroGradient(f"t_{k} = 0 with residual {rk}")
        if ctilde == 0.0:
            uk = rk - eta
        else:
            uk = -ctilde * (rk - lo_shift) * (rk - hi_shift)
        if uk <= 0.0:
            raise NonpositiveU(
                f"u_{k} = {uk} <= 0 (residual {rk}, eta {eta})")
        tq = tk ** q
        that = Gq * tq
        that_pow = that ** neg_pm1
        rk_pow = rk ** r_exp
        pref_u = that_pow * uk ** pm1
        pref = pref_u * rk_pow
        # Equals (Gq/q) mu_k**q t_k**q, the second identity checked below.
        gain = inv_q * that_pow * uk ** p * rk_pow
        vk = pref * (rk - eta) - gain
        wk = weight * pref
        muk = pref_u * rk ** mu_exp

        # The two algebraic identities behind the step-size choice must
        # hold to round-off; a violation means the geometry constants are
        # corrupt.
        lhs1 = muk * rk ** pm1
        scale1 = max(1.0, abs(lhs1), abs(pref))
        lhs2 = gq_over_q * muk ** q * tq
        scale2 = max(1.0, abs(lhs2), abs(gain))
        if abs(lhs1 - pref) > _SELF_CHECK_TOL * scale1 \
                or abs(lhs2 - gain) > _SELF_CHECK_TOL * scale2:
            raise StepIdentityViolated(
                f"step-size identities violated beyond 1e-9 at k = {k}")
        return that, uk, vk, wk, muk, gain

    return rule


def _exact(value, shape, what):
    """``value`` as a float array, which must have exactly ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise DimensionMismatch(
            f"{what} has shape {value.shape}, expected {shape}")
    return value


def _bregman_to_ref(space: SpaceGeometry, x, ref, ref_np):
    """``(breg(x, ref), J_p(x))`` given ``ref_np = ||ref||**p``."""
    nrm = _norm(space, x)
    xstar = _duality_map(space, x, nrm)
    return float(_bregman_distance(space, nrm, xstar, ref, ref_np)), xstar


def run_algorithm1(space: SpaceGeometry, cset: ConvexSet,
                   model: ForwardModel, data: NoisyData, x0,
                   config: SolverConfig, on_iteration=None) -> RunReport:
    """Run the projected steepest descent iteration to the discrepancy
    threshold.

    Each executed step is handed as an ``IterationState`` to
    ``on_iteration``, in order, as soon as it is complete; the hook holds
    what it needs and the run keeps no history, so ``report.iterations``
    stays empty and memory does not grow with the step count.  Without a
    hook the states are kept in ``report.iterations``.

    The start is projected like every iterate, which maps a member of the
    set to itself; ``report.projected_start`` says whether the projection
    moved it.  With a diagnostic reference each state additionally carries
    the Bregman distance to the reference and the radius invariance flag,
    and the report counts the steps that break the radius invariance and
    the two per-step descent inequalities.  A step whose residual or
    gradient norm is not finite, whose gradient vanishes or whose step
    numerator is not positive stops the run as StepDegenerate, with the
    error in ``report.failure``.

    Raises
    ------
    DimensionMismatch
        If ``x0`` or the diagnostic reference is not of shape
        ``(space.dim,)``, if ``data.ydelta`` is not of shape
        ``(model.out_dim,)``, or if a call of ``model.eval`` or
        ``model.apply_adjoint`` returns an array of another shape than
        ``(model.out_dim,)`` or ``(space.dim,)``.
    NonFiniteInput
        On entry, if ``x0`` holds NaN or +-inf.
    MissingStabilityConstant
        On entry, if the model is nonlinear and carries no ``cstab``, or,
        with a diagnostic reference, no ``lhat``.
    EtaTooLarge
        On entry, if the model is nonlinear and ``8 * ctilde * eta >= 1``.
    """
    x_shape, y_shape = (space.dim,), (model.out_dim,)
    x0 = _exact(x0, x_shape, "x0")
    ydelta = _exact(data.ydelta, y_shape, "ydelta")
    x = bregman_project(space, cset, x0)
    projected_start = not np.array_equal(x, x0)

    y_space, dual = data_space(model, space.p), space.dual()
    eta, eta_hat = config.eta, config.eta_hat
    max_iterations = config.max_iterations
    ctilde = compute_ctilde(space, model)
    # Raises EtaTooLarge unless ctilde == 0 or 8 ctilde eta < 1.
    rule = step_rule(space, model, ctilde, eta)
    ref = config.diagnostic_reference
    rho = breg = start_radius_ok = ref_np = xstar = None
    if ref is not None:
        ref = _exact(ref, x_shape, "diagnostic_reference")
        ref_np = _norm(space, ref) ** space.p
        rho = convergence_radius(space, model.lhat, ctilde, eta)
        breg, xstar = _bregman_to_ref(space, x, ref, ref_np)
        start_radius_ok = breg < rho

    report = RunReport(stopped_at_k=0, final_residual=math.nan,
                       x_final=x, stop_reason="MaxIterations",
                       projected_start=projected_start, rho=rho,
                       start_radius_ok=start_radius_ok)

    emit = report.iterations.append if on_iteration is None \
        else on_iteration
    # Each step carries x with J_p(x) when the diagnostics of the step
    # before computed it (xstar), and otherwise computes J_p(x) once.  The
    # loop's own arrays have the shapes of the space, so the geometry
    # runs unchecked; only the model's outputs are checked.
    q_over_p = space.q / space.p
    k = 0
    while True:
        Rk = _exact(model.eval(x), y_shape, "model.eval(x)") - ydelta
        rk = float(_norm(y_space, Rk))
        if rk <= eta_hat:
            report.stop_reason = "DiscrepancyMet"
            break
        if not math.isfinite(rk):
            report.stop_reason = "StepDegenerate"
            report.failure = NonFiniteStep(f"r_{k} = {rk} is not finite")
            break
        if k >= max_iterations:
            report.stop_reason = "MaxIterations"
            break

        Tk = _exact(model.apply_adjoint(x, _duality_map(y_space, Rk, rk)),
                    x_shape, "model.apply_adjoint(x, ystar)")
        tk = float(_norm(dual, Tk))
        try:
            that, uk, vk, wk, muk, gain = rule(k, rk, tk)
        except (NonFiniteStep, ZeroGradient, NonpositiveU) as exc:
            report.stop_reason = "StepDegenerate"
            report.failure = exc
            break
        if ref is None:
            xstar = _duality_map(space, x)
        xtilde = _duality_map(dual, xstar - muk * Tk)
        x_next = bregman_project(space, cset, xtilde)

        breg_k, radius_ok = breg, None
        if ref is not None:
            breg, xstar = _bregman_to_ref(space, x_next, ref, ref_np)
            descent = wk * breg_k ** (2.0 / space.p) - vk
            radius_ok = breg_k < rho
            if not radius_ok:
                report.radius_violations += 1
            if not breg <= breg_k + descent + 1e-10:
                report.monotonicity_violations += 1
            if not descent < 0.0:
                report.strict_bound_violations += 1

        # The strict-descent amount of the step is the gain with 1/p in
        # place of 1/q.
        report.descent_sum += q_over_p * gain
        emit(IterationState(
            k=k, x=x, xtilde=xtilde, rk=rk, tk=tk, that_k=that, uk=uk,
            vk=vk, wk=wk, muk=muk, bregman_to_ref=breg_k,
            radius_ok=radius_ok))
        x = x_next
        k += 1

    report.stopped_at_k = k
    report.final_residual = rk
    report.x_final = x
    return report
