"""Projected steepest descent iteration with posterior step size.

Implements the single-level iteration: residual and gradient norms drive
a closed-form step size, the dual-space update is pulled back through the
inverse duality mapping and projected onto the constraint set, and the
run stops at the first iterate whose residual falls below the discrepancy
threshold.  When a reference solution is available, every inequality of
the convergence analysis is checked along the trace.  The run parameters
and the vectors follow the input rules of README ("Input rules").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EtaTooLarge,
                     MissingStabilityConstant, NonFiniteStep, NonpositiveU,
                     ZeroGradient, integer, real, vector)
from .geometry import SpaceGeometry, _bregman_distance, _norm
from .models import ForwardModel, NoisyData, _step_products, data_space
from .sets import ConvexSet, _project_finite, bregman_project

__all__ = [
    "SolverConfig",
    "IterationState",
    "RunReport",
    "compute_ctilde",
    "convergence_radius",
    "step_rule",
    "run_algorithm1",
]


@dataclass
class SolverConfig:
    """Run parameters of the single-level iteration.

    ``eta_hat``, the discrepancy threshold, must exceed ``3 * eta``
    (ValueError).  ``diagnostic_reference`` enables per-iteration
    Bregman-distance bookkeeping against a known solution.
    """

    eta: float
    eta_hat: float
    max_iterations: int = 10 ** 6
    diagnostic_reference: np.ndarray | None = None

    def __post_init__(self):
        self.eta = real("eta", self.eta, positive=False)
        self.eta_hat = real("eta_hat", self.eta_hat)
        if not self.eta_hat > 3.0 * self.eta:
            raise ValueError("discrepancy threshold must satisfy "
                             "eta_hat > 3 * eta")
        self.max_iterations = integer("max_iterations", self.max_iterations)


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


def _ctilde(space: SpaceGeometry, lip: float, cstab: float | None) -> float:
    """Curvature-stability product ``(1/2) (Cp/p)**(-2/p) L C**2``: 0 when
    L = 0, whatever C, and inf only when the product leaves the float
    range.  Raises MissingStabilityConstant if L > 0 and C is None (not
    stated)."""
    if lip == 0.0:
        return 0.0
    if cstab is None:
        raise MissingStabilityConstant(
            "a nonlinear model needs a stability constant")
    weight = _curvature_weight(space, lip)
    try:
        return weight * cstab ** 2
    except OverflowError:  # C**2 does, the product may not
        return weight * cstab * cstab


def compute_ctilde(space: SpaceGeometry, model: ForwardModel) -> float:
    """Curvature-stability product ``(1/2) (Cp/p)**(-2/p) L C**2`` of the
    model's ``lip`` and ``cstab``.

    Raises
    ------
    MissingStabilityConstant
        If the model is nonlinear and carries no ``cstab``.
    """
    return _ctilde(space, model.lip, model.cstab)


def _u_roots(ctilde: float, eta: float):
    """The roots ``(1 -+ sqrt(1 - 8 ctilde eta)) / (2 ctilde)`` of u and
    the radius bracket, for ``ctilde > 0``.  Raises EtaTooLarge unless
    ``8 * ctilde * eta < 1``; otherwise u <= 0 at every residual."""
    # At eta = 0 the product is 0 for every ctilde, an infinite one too,
    # where the float product is NaN.  The factor 8 comes last: it is
    # exact, and 8 * ctilde alone can overflow where the product is small.
    disc = 1.0 - 8.0 * (ctilde * eta) if eta else 1.0
    if disc <= 0.0:
        raise EtaTooLarge(
            f"8 * ctilde * eta = {8.0 * (ctilde * eta)} >= 1 at eta = {eta}")
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
    where every start is admissible and ``lhat`` is not read, and when
    the radius leaves the float range, where every start is admissible
    too.

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
    bracket = _radius_bracket(ctilde, eta)
    try:
        return (space.Cp / space.p) * (bracket / lhat) ** space.p
    except OverflowError:
        return math.inf


def step_rule(space: SpaceGeometry, lip: float, ctilde: float, eta: float):
    """Posterior step-size rule of a run, with its constants (exponents,
    curvature weight, roots of u) computed once; ``lip`` is the run's
    derivative Lipschitz constant L and ``ctilde`` its curvature-stability
    product (``compute_ctilde``).

    Returns ``rule(k, rk, tk)``, which maps the residual and gradient
    norms of iteration ``k`` to ``(that_k, u_k, v_k, w_k, mu_k, gain)``,
    with ``gain`` equal to ``(Gq/q) mu_k**q t_k**q``.

    Raises
    ------
    EtaTooLarge
        On the call, if ``ctilde > 0`` and ``8 * ctilde * eta >= 1``.
    NonFiniteStep
        From the rule, if the gradient norm is NaN or infinite, or if a
        step scalar leaves the float range.
    ZeroGradient
        From the rule, if the gradient norm vanishes while the residual
        is above the threshold (stationary nonconvergent point).
    NonpositiveU
        From the rule, if the step numerator is nonpositive: the residual
        lies at or beyond the larger root of u, outside the convergence
        radius.
    """
    p, q, Gq = space.p, space.q, space.Gq
    pm1 = p - 1.0  # equals 1 / (q - 1)
    neg_pm1, r_exp, mu_exp = -pm1, p * p - p, pm1 * pm1
    inv_q = 1.0 / q
    weight = _curvature_weight(space, lip)
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
        try:
            that = Gq * tk ** q
            that_pow = that ** neg_pm1
            rk_pow = rk ** r_exp
            pref_u = that_pow * uk ** pm1
            pref = pref_u * rk_pow
            # Equals (Gq/q) mu_k**q t_k**q, as the tests check.
            gain = inv_q * that_pow * uk ** p * rk_pow
            step = (that, uk, pref * (rk - eta) - gain, weight * pref,
                    pref_u * rk ** mu_exp, gain)
            if all(map(math.isfinite, step)):
                return step
        except (OverflowError, ZeroDivisionError):
            pass  # a power overflowed, or 0.0 took a negative one
        raise NonFiniteStep(f"the scalars of step {k} leave the float range "
                            f"(residual {rk}, t_{k} = {tk})")

    return rule


def _bregman_to_ref(space: SpaceGeometry, x, ref, ref_nrm):
    """``(breg(x, ref), J_p(x))`` of one vector x, given ``ref_nrm =
    ||ref||``."""
    norm, duality_map = space._vector_kernels
    nrm = norm(x)
    xstar = duality_map(x, nrm)
    return _bregman_distance(space, nrm, xstar, ref, ref_nrm), xstar


def run_algorithm1(space: SpaceGeometry, cset: ConvexSet,
                   model: ForwardModel, data: NoisyData, x0,
                   config: SolverConfig, on_iteration=None) -> RunReport:
    """Run the projected steepest descent iteration to the discrepancy
    threshold, with the model's constants: its ``lip`` (L), ``lhat``
    (Lhat) and ``cstab`` (C).

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
    gradient norm is not finite, whose gradient vanishes, whose step
    numerator is not positive or whose step scalars leave the float range
    stops the run as StepDegenerate, with the error in ``report.failure``.

    A ``LinearModel``, ``DiagonalLinearModel`` or ``QuadraticModel``
    that runs its class's own ``eval`` and ``apply_adjoint`` is not
    called: the run works out F(x_k) - y and DF(x_k)* J(F(x_k) - y) with
    the model's own numpy operations, and checks its matrix or sigma once,
    on entry.  A dense one with a matrix above 1 MiB and a data space whose
    duality map is elementwise (s = p) reads its matrix once per step for
    both, whose last bits then differ from those of ``apply_adjoint``.
    Any other model is called through ``eval`` and ``apply_adjoint``, and
    the shape of each output is checked on every call.

    Raises
    ------
    DimensionMismatch
        If the model states an ``in_dim`` other than ``space.dim``, if
        ``x0`` or the diagnostic reference is not of shape
        ``(space.dim,)``, if ``data.ydelta`` is not of shape
        ``(model.out_dim,)``, if a built-in model's ``matrix`` or
        ``sigma`` does not fit these shapes, or if a call of
        ``model.eval`` or ``model.apply_adjoint`` returns an array of
        another shape than ``(model.out_dim,)`` or ``(space.dim,)``.
    NonFiniteInput
        On entry, if ``x0`` holds NaN or +-inf.
    MissingStabilityConstant
        On entry, if the model is nonlinear and carries no ``cstab``, or,
        with a diagnostic reference, no ``lhat``.
    EtaTooLarge
        On entry, if the model is nonlinear and ``8 * ctilde * eta >= 1``.
    """
    return _run(space, cset, model, data, x0, config, on_iteration,
                model.lip, model.lhat, model.cstab)


def _run(space, cset, model, data, x0, config, on_iteration, lip, lhat,
         cstab) -> RunReport:
    """``run_algorithm1`` on the constants L = ``lip``, Lhat = ``lhat``
    and C = ``cstab``, the only ones the run reads: ``model`` gives it no
    more than its products, dimensions and data exponent."""
    if model.in_dim is not None and model.in_dim != space.dim:
        raise DimensionMismatch(f"the model takes {model.in_dim} inputs, "
                                f"the space has dimension {space.dim}")
    x_shape, y_shape = (space.dim,), (model.out_dim,)
    x0 = vector(x0, x_shape, "x0")
    ydelta = vector(data.ydelta, y_shape, "ydelta")
    y_space, dual = data_space(model, space.p), space.dual()
    residual, adjoint = _step_products(model, ydelta, y_space, space.dim)
    x = bregman_project(space, cset, x0)
    projected_start = not np.array_equal(x, x0)

    norm_y, duality_map_y = y_space._vector_kernels
    norm_dual, duality_map_dual = dual._vector_kernels
    duality_map_x = space._vector_kernels[1]
    eta, eta_hat = config.eta, config.eta_hat
    max_iterations = config.max_iterations
    ctilde = _ctilde(space, lip, cstab)
    # Raises EtaTooLarge unless ctilde == 0 or 8 ctilde eta < 1.
    rule = step_rule(space, lip, ctilde, eta)
    ref = config.diagnostic_reference
    rho = breg = start_radius_ok = ref_nrm = xstar = None
    if ref is not None:
        ref = vector(ref, x_shape, "diagnostic_reference")
        rho = convergence_radius(space, lhat, ctilde, eta)

    # Each step carries x with J_p(x) when the diagnostics of the step
    # before computed it (xstar), and otherwise computes J_p(x) once.  The
    # loop's own arrays have the shapes of the space, so the geometry and
    # the projection run unchecked, the set fitting the space since the
    # start's projection; only a called model's outputs and the finiteness
    # of each point to project are checked.
    # In Hilbert space J*_q is x -> x + 0.0: a fresh array, with -0.0
    # turned into +0.0.  The dual update J_p(x) - mu_k T_k is fresh, and
    # J_p(x) holds no -0.0, so neither does the update: +0.0 - (+-0.0) is
    # +0.0 when rounding to nearest.  There the map is skipped.
    hilbert = space.weights is None and space.r == space.p == 2.0
    q_over_p, two_over_p = space.q / space.p, 2.0 / space.p
    k = 0
    # A non-finite norm, r_k, t_k, step scalar or projected point ends in a
    # typed stop, so numpy's overflow warnings, errors under
    # warnings-as-errors, are off from the start's diagnostics on; once
    # per run, not per step.
    with np.errstate(over="ignore", invalid="ignore"):
        if ref is not None:
            ref_nrm = _norm(space, ref)
            breg, xstar = _bregman_to_ref(space, x, ref, ref_nrm)
            start_radius_ok = breg < rho
        report = RunReport(stopped_at_k=0, final_residual=math.nan,
                           x_final=x, stop_reason="MaxIterations",
                           projected_start=projected_start, rho=rho,
                           start_radius_ok=start_radius_ok)
        emit = report.iterations.append if on_iteration is None \
            else on_iteration
        while True:
            Rk = residual(x)
            rk = norm_y(Rk)
            if rk <= eta_hat:
                report.stop_reason = "DiscrepancyMet"
                break
            if not math.isfinite(rk):
                report.stop_reason = "StepDegenerate"
                report.failure = NonFiniteStep(
                    f"r_{k} = {rk} is not finite")
                break
            if k >= max_iterations:
                report.stop_reason = "MaxIterations"
                break

            Tk = adjoint(x, duality_map_y(Rk, rk))
            tk = norm_dual(Tk)
            try:
                that, uk, vk, wk, muk, gain = rule(k, rk, tk)
            except (NonFiniteStep, ZeroGradient, NonpositiveU) as exc:
                report.stop_reason = "StepDegenerate"
                report.failure = exc
                break
            if ref is None:
                xstar = duality_map_x(x)
            xtilde = xstar - muk * Tk
            if not hilbert:
                xtilde = duality_map_dual(xtilde)
            x_next = _project_finite(space, cset, xtilde)

            breg_k, radius_ok = breg, None
            if ref is not None:
                breg, xstar = _bregman_to_ref(space, x_next, ref, ref_nrm)
                descent = wk * breg_k ** two_over_p - vk
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
            emit(IterationState(k, x, xtilde, rk, tk, that, uk, vk, wk, muk,
                                breg_k, radius_ok))
            x = x_next
            k += 1

    report.stopped_at_k = k
    report.final_residual = rk
    report.x_final = x
    return report
