"""Tests of the single-level projected steepest descent iteration."""

import math

import numpy as np
import pytest

import projsd.solver as solver_module
from projsd import (Box, DimensionMismatch, EtaTooLarge, LinearCaseUnbounded,
                    LinearModel, MissingStabilityConstant, NoisyData,
                    ProjSDError, QuadraticModel, SolverConfig,
                    StepIdentityViolated, WholeSpace, bregman_distance,
                    compute_ctilde, convergence_radius, lp_space,
                    run_algorithm1)


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
        with pytest.raises(LinearCaseUnbounded):
            convergence_radius(lp_space(2), lhat=1.0, ctilde=0.0, eta=0.0)

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
        assert all(st.strict_bound_ok for st in report.iterations)

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
