"""Tests of the single-level projected steepest descent iteration."""

import math
import re

import numpy as np
import pytest

import projsd.geometry as geometry_module
import projsd.solver as solver_module
from projsd import (Ball, Box, CoordinateSubspace, DimensionMismatch,
                    EtaTooLarge, LinearModel,
                    MissingStabilityConstant, NoisyData, NonFiniteInput,
                    NonFiniteStep, ProjSDError, QuadraticModel, SolverConfig,
                    StepIdentityViolated, WholeSpace, bregman_distance,
                    bregman_project, compute_ctilde, convergence_radius,
                    data_space, duality_map, inverse_duality_map, lp_space,
                    norm, run_algorithm1, step_rule)


def spd_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    return B @ B.T + dim * np.eye(dim)


class TestSolverConfig:
    def test_threshold_boundary_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(eta=0.1, eta_hat=0.3)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(eta=-0.1, eta_hat=1.0)

    def test_valid(self):
        cfg = SolverConfig(eta=0.1, eta_hat=0.301)
        assert cfg.max_iterations == 10 ** 6


class TestConvergenceRadius:
    def test_linear_case_unbounded(self):
        # A linear F has an infinite radius: every start is admissible,
        # also with a zero derivative bound.
        for lhat in (1.0, 0.0):
            assert convergence_radius(lp_space(2), lhat=lhat, ctilde=0.0,
                                      eta=0.0) == math.inf

    def test_eta_too_large(self):
        with pytest.raises(EtaTooLarge):
            convergence_radius(lp_space(2), lhat=1.0, ctilde=1.0, eta=0.2)

    def test_hilbert_unit_case(self):
        # Cp = 1, p = 2, Lhat = L = C = 1, eta = 0 gives radius 1/2.
        space = lp_space(2)
        ctilde = 0.5 * (space.Cp / space.p) ** (-2.0 / space.p)
        rho = convergence_radius(space, lhat=1.0, ctilde=ctilde, eta=0.0)
        assert rho == pytest.approx(0.5, rel=1e-12)

    def test_zero_eta_product_form(self):
        # At eta = 0 the radius collapses to (Cp/p)^3 (Lhat L C^2 / 2)^-p.
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(1.5, 4.0)
            cp = rng.uniform(0.2, 1.0)
            lhat, L, C = rng.uniform(0.5, 3.0, 3)
            space = lp_space(2, r=2.0, p=p, Cp=cp, Gq=1.0)
            ctilde = 0.5 * (cp / p) ** (-2.0 / p) * L * C ** 2
            rho = convergence_radius(space, lhat=lhat, ctilde=ctilde,
                                     eta=0.0)
            expected = (cp / p) ** 3 * (lhat * L * C ** 2 / 2.0) ** -p
            assert rho == pytest.approx(expected, rel=1e-12)


class TestHilbertLinearReduction:
    def test_matches_classical_steepest_descent(self):
        dim = 6
        A = spd_matrix(dim, seed=1)
        space = lp_space(dim)
        model = LinearModel(A)
        rng = np.random.default_rng(2)
        ztrue = rng.standard_normal(dim)
        data = NoisyData(A @ ztrue, 0.0)
        x0 = np.zeros(dim)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=30)
        report = run_algorithm1(space, WholeSpace(), model, data, x0, cfg)

        x = x0.copy()
        for state in report.iterations:
            np.testing.assert_allclose(state.x, x, atol=1e-12)
            R = A @ x - data.ydelta
            g = A.T @ R
            mu = float(R @ R) / float(g @ g)
            assert state.muk == pytest.approx(mu, rel=1e-12)
            x = x - mu * g


class TestRunBehaviour:
    def test_discrepancy_met(self):
        space = lp_space(3)
        model = LinearModel(spd_matrix(3, seed=3))
        data = NoisyData([1.0, 2.0, 3.0], 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=10 ** 5)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(3), cfg)
        assert report.stop_reason == "DiscrepancyMet"
        assert report.final_residual <= 1e-8

    def test_max_iterations(self):
        space = lp_space(3)
        model = LinearModel(spd_matrix(3, seed=4))
        data = NoisyData([1.0, 2.0, 3.0], 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=5)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(3), cfg)
        assert report.stop_reason == "MaxIterations"
        assert len(report.iterations) == 5

    def test_ctilde_computed_once_per_run(self, monkeypatch):
        calls = []
        real = solver_module.compute_ctilde
        monkeypatch.setattr(solver_module, "compute_ctilde",
                            lambda *args: calls.append(args) or real(*args))
        space = lp_space(3)
        model = QuadraticModel(np.eye(3), eps=0.01, cstab=1.0)
        data = NoisyData([1.0, 2.0, 3.0], 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=5)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(3), cfg)
        assert report.stopped_at_k == 5
        assert len(calls) == 1

    def test_infeasible_start_is_projected(self):
        space = lp_space(2)
        model = LinearModel(np.eye(2))
        data = NoisyData([0.2, 0.2], 0.0)
        cset = Box([0.0, 0.0], [1.0, 1.0])
        cfg = SolverConfig(eta=0.0, eta_hat=1e-10)
        report = run_algorithm1(space, cset, model, data,
                                np.array([-1.0, 2.0]), cfg)
        assert report.projected_start
        assert report.stop_reason == "DiscrepancyMet"

    def test_monotone_descent_with_reference(self):
        dim = 5
        A = spd_matrix(dim, seed=5)
        space = lp_space(dim)
        model = LinearModel(A)
        ztrue = np.linspace(-1.0, 1.0, dim)
        data = NoisyData(A @ ztrue, 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8,
                           diagnostic_reference=ztrue)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(dim), cfg)
        assert report.monotonicity_violations == 0
        bregs = [st.bregman_to_ref for st in report.iterations]
        # Strict decrease up to round-off; the tail flattens at machine
        # precision once the distance is ~1e-16.
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bregs, bregs[1:]))
        assert bregs[-1] < 1e-8 * bregs[0]
        assert report.strict_bound_violations == 0

    def test_descent_sum_bounded_by_initial_distance(self):
        dim = 4
        A = spd_matrix(dim, seed=6)
        space = lp_space(dim)
        model = LinearModel(A)
        ztrue = np.ones(dim)
        data = NoisyData(A @ ztrue, 0.0)
        x0 = np.zeros(dim)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-10,
                           diagnostic_reference=ztrue)
        report = run_algorithm1(space, WholeSpace(), model, data, x0, cfg)
        b0 = float(bregman_distance(space, x0, ztrue))
        assert report.descent_sum <= b0 + 1e-8

    def test_nonlinear_model_needs_cstab(self):
        space = lp_space(2)
        model = QuadraticModel(np.eye(2), eps=0.1)
        with pytest.raises(ValueError):
            compute_ctilde(space, model)

    def test_quadratic_with_noise_stops(self):
        dim = 4
        space = lp_space(dim)
        A = np.diag([2.0, 2.5, 3.0, 3.5])
        eps = 0.01
        model = QuadraticModel(A, eps=eps, cstab=0.5,
                               lhat=float(np.linalg.norm(A, 2)) + 2 * eps)
        ztrue = 0.5 * np.ones(dim)
        eta = 1e-3
        noise = np.full(dim, eta / math.sqrt(dim))
        data = NoisyData(model(ztrue) + noise, eta)
        cfg = SolverConfig(eta=eta, eta_hat=3.01 * eta,
                           diagnostic_reference=ztrue)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(dim), cfg)
        assert report.stop_reason == "DiscrepancyMet"
        assert report.final_residual <= 3.01 * eta
        assert report.monotonicity_violations == 0

    def test_nonhilbert_geometry_converges(self):
        dim = 3
        space = lp_space(dim, r=3.0)
        A = np.diag([2.0, 3.0, 4.0])
        model = LinearModel(A)
        data = NoisyData([1.0, 1.0, 1.0], 0.0)
        # Convergence under the higher-gauge step is sublinear, so the
        # threshold is modest; what matters is the monotone decay.
        cfg = SolverConfig(eta=0.0, eta_hat=0.05, max_iterations=10 ** 4)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.full(dim, 0.1), cfg)
        assert report.stop_reason == "DiscrepancyMet"
        residuals = [st.rk for st in report.iterations]
        assert all(r2 < r1 for r1, r2 in zip(residuals, residuals[1:]))


class TestTypedErrors:
    def test_missing_cstab_is_typed(self):
        model = QuadraticModel(np.eye(2), eps=0.1)
        with pytest.raises(MissingStabilityConstant) as exc:
            compute_ctilde(lp_space(2), model)
        assert isinstance(exc.value, ProjSDError)
        assert isinstance(exc.value, ValueError)

    def test_missing_cstab_raised_on_entry(self):
        # x0 already meets the discrepancy, so the run takes no step; the
        # per-run constant is still computed, and fails, on entry.
        model = QuadraticModel(np.eye(2), eps=0.1)
        data = NoisyData(model(np.zeros(2)), 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8)
        with pytest.raises(MissingStabilityConstant):
            run_algorithm1(lp_space(2), WholeSpace(), model, data,
                           np.zeros(2), cfg)

    def test_missing_lhat_with_reference(self):
        # Only the convergence radius reads lhat; a run without a
        # reference does not need it.
        model = QuadraticModel(np.eye(2), eps=0.1, cstab=1.0)
        data = NoisyData([1.0, 1.0], 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=5,
                           diagnostic_reference=np.ones(2))
        with pytest.raises(MissingStabilityConstant, match="lhat"):
            run_algorithm1(lp_space(2), WholeSpace(), model, data,
                           np.zeros(2), cfg)
        cfg.diagnostic_reference = None
        assert run_algorithm1(lp_space(2), WholeSpace(), model, data,
                              np.zeros(2), cfg).stop_reason \
            == "DiscrepancyMet"

    @pytest.mark.parametrize("with_ref", [False, True])
    def test_eta_too_large_on_entry(self, with_ref):
        # ctilde = 4 in Hilbert space, so 8 ctilde eta = 6.4: u is
        # negative for every residual, with or without a reference.
        model = QuadraticModel(np.eye(2), eps=0.5, cstab=2.0, lhat=3.0)
        assert compute_ctilde(lp_space(2), model) == 4.0
        cfg = SolverConfig(eta=0.2, eta_hat=0.7, diagnostic_reference=(
            np.ones(2) if with_ref else None))
        with pytest.raises(EtaTooLarge):
            run_algorithm1(lp_space(2), WholeSpace(), model,
                           NoisyData([1.0, 1.0], 0.2), np.zeros(2), cfg)

    def test_step_identity_violation_is_typed(self, monkeypatch):
        # A negative tolerance makes the round-off check fail on any step.
        monkeypatch.setattr(solver_module, "_SELF_CHECK_TOL", -1.0)
        space = lp_space(2)
        data = NoisyData([1.0, 1.0], 0.0)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8)
        with pytest.raises(StepIdentityViolated) as exc:
            run_algorithm1(space, WholeSpace(), LinearModel(np.eye(2)),
                           data, np.zeros(2), cfg)
        assert isinstance(exc.value, ProjSDError)

    @pytest.mark.parametrize("ydelta", [[1.0], [1.0, 1.0], [[1.0, 1.0, 1.0]]])
    def test_ydelta_shape_must_match_outputs(self, ydelta):
        model = LinearModel(np.ones((3, 2)))
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=5)
        with pytest.raises(DimensionMismatch):
            run_algorithm1(lp_space(2), WholeSpace(), model,
                           NoisyData(ydelta, 0.0), np.zeros(2), cfg)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 2)])
    @pytest.mark.parametrize("what", ["x0", "diagnostic_reference"])
    def test_vector_shape_must_match_space(self, what, shape):
        vectors = {"x0": np.zeros(2), "diagnostic_reference": np.ones(2)}
        vectors[what] = np.full(shape, 0.5)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=5,
                           diagnostic_reference=vectors[
                               "diagnostic_reference"])
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"{what} has shape {shape}")):
            run_algorithm1(lp_space(2), WholeSpace(),
                           LinearModel(np.eye(2)), NoisyData([1.0, 1.0], 0.0),
                           vectors["x0"], cfg)

    @pytest.mark.parametrize("shape", [(), (1,), (2, 3)],
                             ids=["scalar", "one", "batch"])
    @pytest.mark.parametrize("method", ["eval", "apply_adjoint"])
    def test_model_output_shape_checked(self, method, shape):
        # An output of another shape would broadcast against the data or
        # end in a TypeError; it fails typed, naming method and shape.
        model = WrongShape(np.diag([2.0, 3.0, 4.0]), method, shape)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=50)
        with pytest.raises(DimensionMismatch) as exc:
            run_algorithm1(lp_space(3), WholeSpace(), model,
                           NoisyData([1.0, 1.0, 1.0], 0.0), np.zeros(3), cfg)
        assert f"model.{method}(" in str(exc.value)
        assert f"has shape {shape}, expected (3,)" in str(exc.value)


class WrongShape(LinearModel):
    """A linear model whose ``method`` returns its value reshaped to
    ``shape``, as a Python float for ``()``."""

    def __init__(self, matrix, method, shape):
        super().__init__(matrix)
        self.method, self.shape = method, shape

    def _reshape(self, v, method):
        if method != self.method:
            return v
        return float(v[0]) if self.shape == () else np.resize(v, self.shape)

    def eval(self, x):
        return self._reshape(super().eval(x), "eval")

    def apply_adjoint(self, x, ystar):
        return self._reshape(super().apply_adjoint(x, ystar),
                             "apply_adjoint")


def reference_iteration(space, cset, model, data, x0, cfg):
    """The step written out plainly through the public geometry and
    projection functions, with every norm and duality image computed
    afresh.  Returns ``[(x, xtilde, rk, tk, muk, bregman_to_ref)]`` and
    the last iterate."""
    x = bregman_project(space, cset, x0)
    y_space = data_space(model, space.p)
    rule = step_rule(space, model, compute_ctilde(space, model), cfg.eta)
    ref = cfg.diagnostic_reference
    states = []
    for k in range(cfg.max_iterations):
        R = model.eval(x) - data.ydelta
        rk = float(norm(y_space, R))
        if rk <= cfg.eta_hat:
            break
        T = model.apply_adjoint(x, duality_map(y_space, R))
        tk = float(norm(space.dual(), T))
        muk = rule(k, rk, tk)[4]
        xtilde = inverse_duality_map(space, duality_map(space, x) - muk * T)
        breg = None if ref is None else float(bregman_distance(space, x, ref))
        states.append((x, xtilde, rk, tk, muk, breg))
        x = bregman_project(space, cset, xtilde)
    return states, x


KERNEL_SETS = {
    "wholespace": WholeSpace(),
    "box": Box([-0.2, -1.0, 0.1, -1.0], [1.0, 0.3, 1.0, 1.0]),
    "ball": Ball(np.array([0.2, -0.1, 0.3, 0.0]), 0.6),
    "subspace": CoordinateSubspace([0, 2, 3]),
}


def kernel_problem(quadratic):
    rng = np.random.default_rng(21)
    if quadratic:
        A = np.diag([2.0, 2.5, 3.0, 3.5])
        model = QuadraticModel(A, eps=0.01, cstab=0.5, lhat=3.52)
    else:
        model = LinearModel(np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    truth = np.array([0.4, -0.2, 0.5, 0.1])
    return model, truth, model(truth) + 1e-3 * rng.standard_normal(4)


class TestKernelMatchesReference:
    """run_algorithm1 reuses norms and duality images within and across
    steps; every iterate must equal the plain transcription bit for bit."""

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("r,p", [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)])
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_exact_equality(self, r, p, kind, with_ref, quadratic):
        self.check(lp_space(4, r=r, p=p), kind, with_ref, quadratic)

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_exact_equality_weighted_l2(self, kind, with_ref, quadratic):
        # r = p = 2 with weights: the r = 2 norm and the r = p duality
        # map without the Hilbert identity.
        space = lp_space(4, weights=[0.5, 2.0, 1.0, 3.0], Cp=1.0, Gq=1.0)
        self.check(space, kind, with_ref, quadratic)

    def check(self, space, kind, with_ref, quadratic):
        model, truth, ydelta = kernel_problem(quadratic)
        cset = KERNEL_SETS[kind]
        cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12,
                           diagnostic_reference=truth if with_ref else None)
        x0 = np.array([0.9, 0.8, -0.7, 0.6])  # outside every set but X
        data = NoisyData(ydelta, 0.0)
        report = run_algorithm1(space, cset, model, data, x0, cfg)
        states, x_last = reference_iteration(space, cset, model, data, x0,
                                             cfg)
        assert report.stop_reason == "MaxIterations"
        assert len(report.iterations) == len(states) == 12
        for st, (x, xtilde, rk, tk, muk, breg) in zip(report.iterations,
                                                     states):
            assert st.x.tobytes() == x.tobytes()
            assert st.xtilde.tobytes() == xtilde.tobytes()
            assert (st.rk, st.tk, st.muk) == (rk, tk, muk)
            assert st.bregman_to_ref == breg
        assert report.x_final.tobytes() == x_last.tobytes()


def test_norm_of_reference_once_and_three_duality_maps_per_step(
        monkeypatch):
    """With a reference, ||ref|| is computed once per run and each step
    evaluates at most three duality maps: J_y(R_k), J*_q of the dual
    update and J_p(x_{k+1}), which the next step reuses."""
    space = lp_space(3, r=3.0)
    model = LinearModel(np.diag([2.0, 3.0, 4.0]))
    ref = np.array([0.5, 1.0 / 3.0, 0.25])
    data = NoisyData(model(ref), 0.0)
    ref_norms, duality_maps = [], []
    real_norm = geometry_module._norm
    real_map = geometry_module._duality_map

    def counting_norm(sp, x):
        if x.shape == ref.shape and np.array_equal(x, ref):
            ref_norms.append(1)
        return real_norm(sp, x)

    def counting_map(*args):
        duality_maps.append(1)
        return real_map(*args)

    for module in (geometry_module, solver_module):
        monkeypatch.setattr(module, "_norm", counting_norm)
        monkeypatch.setattr(module, "_duality_map", counting_map)
    cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=20,
                       diagnostic_reference=ref)
    report = run_algorithm1(space, WholeSpace(), model, data,
                            np.full(3, 0.1), cfg)
    assert report.stopped_at_k == 20
    assert len(ref_norms) == 1
    # One more for J_p(x_0), computed with the start's Bregman distance.
    assert len(duality_maps) <= 3 * 20 + 1


@pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
def test_run_makes_no_membership_test(monkeypatch, kind):
    """The projection decides membership for the start as for every
    iterate; a run never calls ``contains``."""
    cset = KERNEL_SETS[kind]
    real_contains = type(cset).contains
    calls = []

    def counting_contains(*args, **kwargs):
        calls.append(1)
        return real_contains(*args, **kwargs)

    monkeypatch.setattr(type(cset), "contains", counting_contains)
    model, _, ydelta = kernel_problem(False)
    cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12)
    report = run_algorithm1(lp_space(4, r=3.0), cset, model,
                            NoisyData(ydelta, 0.0),
                            np.array([0.9, 0.8, -0.7, 0.6]), cfg)
    assert report.stopped_at_k == 12
    assert calls == []


def test_start_just_outside_is_projected():
    # 1e-13 outside the box: the start is projected like every iterate,
    # with no tolerance that would let it run from an infeasible point.
    model = LinearModel(np.diag([2.0, 3.0, 4.0]))
    cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=1)
    report = run_algorithm1(lp_space(3), Box(np.zeros(3), np.ones(3)),
                            model, NoisyData(np.ones(3), 0.0),
                            np.array([-1e-13, 0.5, 0.5]), cfg)
    assert report.projected_start
    assert report.iterations[0].x[0] == 0.0


@pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
def test_nonfinite_start_is_rejected(kind):
    # The NaN sits on coordinate 0, which every set of KERNEL_SETS
    # supports; the other coordinates lie in each box and subspace.
    model, _, ydelta = kernel_problem(False)
    cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12)
    with pytest.raises(NonFiniteInput):
        run_algorithm1(lp_space(4, r=3.0), KERNEL_SETS[kind], model,
                       NoisyData(ydelta, 0.0),
                       np.array([np.nan, 0.0, 0.2, 0.1]), cfg)


class NaNAfter(LinearModel):
    """A linear model whose evaluation (or adjoint) puts NaN in its first
    entry from call number ``after`` on."""

    def __init__(self, matrix, after, adjoint=False):
        super().__init__(matrix)
        self.after, self.adjoint, self.calls = after, adjoint, 0

    def _spoil(self, v):
        self.calls += 1
        if self.calls > self.after:
            v = v.copy()
            v[0] = np.nan
        return v

    def eval(self, x):
        v = super().eval(x)
        return v if self.adjoint else self._spoil(v)

    def apply_adjoint(self, x, ystar):
        v = super().apply_adjoint(x, ystar)
        return self._spoil(v) if self.adjoint else v


class TestNonFiniteStep:
    @pytest.mark.parametrize("adjoint,name", [(False, "r_2"), (True, "t_2")])
    def test_stops_typed_naming_k(self, adjoint, name):
        model = NaNAfter(np.diag([2.0, 3.0]), after=2, adjoint=adjoint)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=50)
        report = run_algorithm1(lp_space(2), Box([-2.0, -2.0], [2.0, 2.0]),
                                model, NoisyData([1.0, 1.0], 0.0),
                                np.zeros(2), cfg)
        assert report.stop_reason == "StepDegenerate"
        assert report.stopped_at_k == 2
        assert isinstance(report.failure, NonFiniteStep)
        assert isinstance(report.failure, ProjSDError)
        assert str(report.failure).startswith(f"{name} = nan")
        assert math.isnan(report.final_residual) != adjoint


def state_fields(st):
    """Every field of an IterationState, arrays as bytes."""
    return (st.k, st.x.tobytes(), st.xtilde.tobytes(), st.rk, st.tk,
            st.that_k, st.uk, st.vk, st.wk, st.muk, st.bregman_to_ref,
            st.radius_ok)


@pytest.mark.parametrize("with_ref", [False, True])
@pytest.mark.parametrize("max_iterations", [12, 10 ** 4])
def test_on_iteration_streams_the_history(with_ref, max_iterations):
    # The hook sees every state the default history would hold, in
    # order and bit for bit, and the report then keeps none of them.
    model, truth, ydelta = kernel_problem(quadratic=True)
    eta = float(np.linalg.norm(model(truth) - ydelta))
    cfg = SolverConfig(eta=eta, eta_hat=3.5 * eta,
                       max_iterations=max_iterations,
                       diagnostic_reference=truth if with_ref else None)
    args = (lp_space(4, r=3.0, p=3.0), KERNEL_SETS["box"], model,
            NoisyData(ydelta, eta), np.array([0.9, 0.8, -0.7, 0.6]), cfg)
    history = run_algorithm1(*args)
    seen = []
    streamed = run_algorithm1(*args, on_iteration=seen.append)
    assert streamed.iterations == []
    assert len(seen) == streamed.stopped_at_k == history.stopped_at_k
    assert [st.k for st in seen] == list(range(len(seen)))
    assert [state_fields(st) for st in seen] \
        == [state_fields(st) for st in history.iterations]
    for rep in (history, streamed):
        assert rep.stop_reason == ("MaxIterations" if max_iterations == 12
                                   else "DiscrepancyMet")
    assert streamed.x_final.tobytes() == history.x_final.tobytes()
    assert (streamed.final_residual, streamed.descent_sum, streamed.rho,
            streamed.radius_violations, streamed.monotonicity_violations,
            streamed.strict_bound_violations) \
        == (history.final_residual, history.descent_sum, history.rho,
            history.radius_violations, history.monotonicity_violations,
            history.strict_bound_violations)
