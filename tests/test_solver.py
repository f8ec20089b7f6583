"""Tests of the single-level projected steepest descent iteration."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from oracles import general_bregman, general_norm

import projsd.geometry as geometry_module
import projsd.solver as solver_module
from projsd import (Ball, Box, CoordinateSubspace, DiagonalLinearModel,
                    DimensionMismatch, EtaTooLarge, ForwardModel, Level,
                    LinearModel, MissingStabilityConstant, NoisyData,
                    NonFiniteInput, NonFiniteStep, NonpositiveU,
                    ProjSDError, QuadraticModel, Schedule, SolverConfig,
                    SpaceGeometry, WholeSpace, ZeroGradient,
                    bregman_distance, bregman_project, compute_ctilde,
                    convergence_radius, data_space, duality_map,
                    inverse_duality_map, lp_space, norm, run_algorithm1,
                    run_multi_level, step_rule)
from projsd.models import _row_blocks, _step_products


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
        assert SolverConfig(eta=0.1, eta_hat=0.301,
                            max_iterations=np.int64(5)).max_iterations == 5

    @pytest.mark.parametrize("value", [0, -3, 2.5, 3.0, math.nan, math.inf,
                                       True, "10"])
    def test_max_iterations_is_an_integer_at_least_1(self, value):
        # nan was accepted, and k >= nan never holds, so the run could
        # not stop at MaxIterations; 2.5, inf and True were accepted too.
        with pytest.raises(ValueError, match="max_iterations = "):
            SolverConfig(eta=0.1, eta_hat=0.301, max_iterations=value)

    @pytest.mark.parametrize("eta,eta_hat,field", [
        (math.nan, 1.0, "eta"), (math.inf, 1.0, "eta"),
        (-math.inf, 1.0, "eta"), (0.1, math.nan, "eta_hat"),
        (0.1, math.inf, "eta_hat")])
    def test_eta_and_eta_hat_finite(self, eta, eta_hat, field):
        # eta = nan was refused only as a threshold below 3 * eta.
        with pytest.raises(ValueError, match=f"^{field} = "):
            SolverConfig(eta=eta, eta_hat=eta_hat)

    @pytest.mark.parametrize("name,value", [
        ("eta", 0.2), ("eta_hat", 0.2), ("max_iterations", -3),
        ("diagnostic_reference", None)])
    def test_assigning_or_deleting_a_field_raises(self, name, value):
        # A config is fixed at construction.  Changed after its checks it
        # still ran: eta_hat = 2 eta to DiscrepancyMet, below the 3 eta
        # the theorem needs, and max_iterations = -3 to MaxIterations at
        # K = 0.
        cfg = SolverConfig(eta=0.1, eta_hat=0.301, max_iterations=5,
                           diagnostic_reference=[1.0, 2.0])
        for change in (lambda: setattr(cfg, name, value),
                       lambda: delattr(cfg, name)):
            with pytest.raises(AttributeError,
                               match=rf"^SolverConfig\.{name} is fixed at "):
                change()
        assert (cfg.eta, cfg.eta_hat, cfg.max_iterations,
                cfg.diagnostic_reference.tolist()) == (0.1, 0.301, 5,
                                                       [1.0, 2.0])

    def test_reference_is_a_read_only_copy(self):
        ref = np.array([1.0, 2.0])
        cfg = SolverConfig(eta=0.1, eta_hat=0.301, diagnostic_reference=ref)
        ref[0] = -7.0
        assert cfg.diagnostic_reference.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            cfg.diagnostic_reference[0] = 3.0
        assert SolverConfig(eta=0.1, eta_hat=0.301).diagnostic_reference \
            is None

    def test_configs_compare_and_print_by_their_fields(self):
        # As a dataclass's: equal fields give equal configs, a reference
        # compared by its entries, and the repr lists the four fields.
        def config(eta_hat=0.301, ref=(1.0, 2.0)):
            return SolverConfig(eta=0.1, eta_hat=eta_hat, max_iterations=5,
                                diagnostic_reference=ref)

        cfg = config()
        assert cfg == config(ref=np.array([1.0, 2.0]))
        assert cfg != config(ref=[1.0, 3.0])
        assert cfg != config(ref=None)
        assert cfg != config(eta_hat=0.302)
        assert config(ref=None) == config(ref=None)
        assert repr(SolverConfig(eta=0.1, eta_hat=0.301)) == (
            "SolverConfig(eta=0.1, eta_hat=0.301, max_iterations=1000000, "
            "diagnostic_reference=None)")
        with pytest.raises(TypeError, match="unhashable"):
            hash(cfg)

    def test_a_copy_is_fixed(self):
        cfg = SolverConfig(eta=0.1, eta_hat=0.301, max_iterations=5,
                           diagnostic_reference=[1.0, 2.0])
        for twin in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg
            assert (twin.eta, twin.eta_hat, twin.max_iterations) \
                == (0.1, 0.301, 5)
            assert twin.diagnostic_reference.tolist() == [1.0, 2.0]
            assert not twin.diagnostic_reference.flags.writeable
            with pytest.raises(AttributeError, match="is fixed"):
                twin.eta_hat = 0.2


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

    def test_radius_beyond_the_float_range_is_infinite(self):
        # (bracket / lhat)**p ended in an OverflowError.  Every start lies
        # inside such a radius, as for a linear F.
        space = lp_space(2)
        ctilde = 0.5 * (space.Cp / space.p) ** (-2.0 / space.p)
        assert convergence_radius(space, lhat=1e-200, ctilde=ctilde,
                                  eta=0.0) == math.inf
        assert convergence_radius(space, lhat=1e-100, ctilde=ctilde,
                                  eta=0.0) == pytest.approx(0.5e200,
                                                            rel=1e-12)

    def test_infinite_ctilde_at_zero_eta(self):
        # 8 * ctilde * eta is 0 < 1 and both roots of u are 0: no start
        # is admissible.
        assert convergence_radius(lp_space(2), lhat=1.0, ctilde=math.inf,
                                  eta=0.0) == 0.0

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
        real = solver_module._ctilde
        monkeypatch.setattr(solver_module, "_ctilde",
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
        data = NoisyData(model.eval(ztrue) + noise, eta)
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


class TestConstantsBeyondTheFloatRange:
    """cstab**2 in c-tilde and the power of the radius ended in an
    OverflowError; both runs end typed."""

    def test_ctilde(self):
        space = lp_space(2)
        model = QuadraticModel(np.diag([2.0, 3.0]), eps=0.05, cstab=1e200)
        assert compute_ctilde(space, model) == math.inf
        data = NoisyData([1.0, 1.0], 0.0)
        report = run_algorithm1(space, WholeSpace(), model, data,
                                np.zeros(2),
                                SolverConfig(eta=0.0, eta_hat=1e-6))
        assert report.stop_reason == "StepDegenerate"
        assert isinstance(report.failure, NonpositiveU)
        with pytest.raises(EtaTooLarge, match=r"= inf >= 1"):
            run_algorithm1(space, WholeSpace(), model,
                           NoisyData([1.0, 1.0], 1e-3), np.zeros(2),
                           SolverConfig(eta=1e-3, eta_hat=1e-2))

    def test_radius(self):
        model = QuadraticModel(np.diag([2.0, 3.0]), eps=0.05, cstab=0.5,
                               lhat=1e-200)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-6,
                           diagnostic_reference=[0.45, 0.3])
        report = run_algorithm1(lp_space(2), WholeSpace(), model,
                                NoisyData([1.0, 1.0], 0.0), np.zeros(2),
                                cfg)
        assert report.rho == math.inf and report.start_radius_ok
        assert report.radius_violations == 0
        assert report.stop_reason == "DiscrepancyMet"


class TestTypedErrors:
    @pytest.mark.parametrize("data_eta,config_eta", [(0.0, 1e-3),
                                                     (1e-3, 0.0),
                                                     (1e-3, 2e-3)])
    def test_data_eta_must_equal_config_eta(self, data_eta, config_eta):
        # The run reads the config's eta; data with another one is refused
        # on entry, naming both, rather than run on the config's.
        with pytest.raises(ValueError) as exc:
            run_algorithm1(lp_space(2), WholeSpace(), LinearModel(np.eye(2)),
                           NoisyData([1.0, 1.0], data_eta), np.zeros(2),
                           SolverConfig(eta=config_eta, eta_hat=1e-2))
        assert str(exc.value) == (
            f"data.eta = {data_eta} differs from config.eta = {config_eta}, "
            "the eta the run reads")

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
        data = NoisyData(model.eval(np.zeros(2)), 0.0)
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
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=5)
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

    def test_model_input_length_checked_on_entry(self):
        # numpy's matmul ValueError ended the first eval.
        cfg = SolverConfig(eta=0.0, eta_hat=1e-8, max_iterations=5)
        with pytest.raises(DimensionMismatch, match="^the model takes 3 "
                           "inputs, the space has dimension 2$"):
            run_algorithm1(lp_space(2), WholeSpace(),
                           LinearModel(np.ones((2, 3))),
                           NoisyData([1.0, 1.0], 0.0), np.zeros(2), cfg)

    def test_model_without_in_dim_runs(self):
        class Doubling(ForwardModel):
            out_dim, lip = 2, 0.0

            def eval(self, x):
                return 2.0 * x

            def apply_adjoint(self, x, ystar):
                return 2.0 * ystar

        cfg = SolverConfig(eta=0.0, eta_hat=1e-8)
        report = run_algorithm1(lp_space(2), WholeSpace(), Doubling(),
                                NoisyData([1.0, 1.0], 0.0), np.zeros(2), cfg)
        assert report.stop_reason == "DiscrepancyMet"

    def test_model_must_state_its_lip(self):
        # ForwardModel.lip defaulted to 0.0: this F(x) = 2x + x*x/2, which
        # states no lip, ran with c-tilde = 0 and the linear step rule and
        # stopped DiscrepancyMet at K = 3, and compute_ctilde gave 0.0.
        class Curved(ForwardModel):
            out_dim = 2

            def eval(self, x):
                return 2.0 * x + 0.5 * x * x

            def apply_adjoint(self, x, ystar):
                return (2.0 + x) * ystar

        data = NoisyData(Curved().eval(np.array([0.5, -0.25])), 1e-3)
        steps = []
        with pytest.raises(MissingStabilityConstant, match="states no lip"):
            run_algorithm1(lp_space(2), WholeSpace(), Curved(), data,
                           np.zeros(2), SolverConfig(eta=1e-3, eta_hat=4e-3),
                           on_iteration=steps.append)
        assert steps == []
        with pytest.raises(MissingStabilityConstant, match="states no lip"):
            compute_ctilde(lp_space(2), Curved())

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


class Delegate(ForwardModel):
    """Exposes only ``eval`` and ``apply_adjoint`` of a model, with its
    dimensions and constants, so the run calls both."""

    def __init__(self, model):
        self.model, self.out_dim = model, model.out_dim
        self.in_dim, self.s, self.lip = model.in_dim, model.s, model.lip
        self.lhat, self.cstab = model.lhat, model.cstab

    def eval(self, x):
        return self.model.eval(x)

    def apply_adjoint(self, x, ystar):
        return self.model.apply_adjoint(x, ystar)


class WrongShape(Delegate):
    """A linear model whose ``method`` returns its value reshaped to
    ``shape``, as a Python float for ``()``."""

    def __init__(self, matrix, method, shape):
        super().__init__(LinearModel(matrix))
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
    """The step written out plainly through the public duality maps and
    projection, with every norm and duality image computed afresh, the
    inverse map also in Hilbert space, and the norms and Bregman distances
    on numpy scalars (``oracles``).  Returns ``[(x, xtilde, rk, tk, muk,
    bregman_to_ref)]`` and the last iterate."""
    x = bregman_project(space, cset, x0)
    y_space = data_space(model, space.p)
    rule = step_rule(space, model.lip, compute_ctilde(space, model),
                     cfg.eta)
    ref = cfg.diagnostic_reference
    states = []
    for k in range(cfg.max_iterations):
        R = model.eval(x) - data.ydelta
        rk = float(general_norm(y_space, R))
        if rk <= cfg.eta_hat:
            break
        T = model.apply_adjoint(x, duality_map(y_space, R))
        tk = float(general_norm(space.dual(), T))
        muk = rule(k, rk, tk)[4]
        xtilde = inverse_duality_map(space, duality_map(space, x) - muk * T)
        breg = None if ref is None else float(general_bregman(space, x, ref))
        states.append((x, xtilde, rk, tk, muk, breg))
        x = bregman_project(space, cset, xtilde)
    return states, x


KERNEL_SETS = {
    "wholespace": WholeSpace(),
    "box": Box([-0.2, -1.0, 0.1, -1.0], [1.0, 0.3, 1.0, 1.0]),
    "ball": Ball(np.array([0.2, -0.1, 0.3, 0.0]), 0.6),
    "subspace": CoordinateSubspace([0, 2, 3]),
}


def kernel_problem(quadratic, blind=False):
    """Model, truth and data of the kernel tests; a blind model's matrix
    does not see coordinate 2, so the gradient there is zero at x_2 = 0."""
    rng = np.random.default_rng(21)
    if quadratic:
        A = np.diag([2.0, 2.5, 3.0, 3.5])
    else:
        A = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    if blind:
        A[:, 2] = 0.0
    if quadratic:
        model = QuadraticModel(A, eps=0.01, cstab=0.5, lhat=3.52)
    else:
        model = LinearModel(A)
    truth = np.array([0.4, -0.2, 0.5, 0.1])
    ydelta = model.eval(truth) + 1e-3 * rng.standard_normal(4)
    return model, truth, ydelta


#: Sets that keep the -0.0 at coordinate 2 of the start (0.5, 0.2, -0.0,
#: 0.3), a point of the ball and of the box; the box pins coordinate 2 to
#: -0.0, as its clamp maps every zero there to -0.0.
SIGNED_ZERO_SETS = {
    "wholespace": WholeSpace(),
    "box": Box([-0.2, -1.0, -0.0, -1.0], [1.0, 0.3, -0.0, 1.0]),
    "ball": Ball(np.array([0.2, -0.1, 0.0, 0.0]), 0.8),
    "subspace": CoordinateSubspace([0, 2, 3]),
}


def signed_zero_problem():
    """A diagonal model, its truth and data with y_2 = 0.0 exactly: at
    x_2 = -0.0 the residual's entry 2 is -0.0."""
    rng = np.random.default_rng(22)
    model = DiagonalLinearModel([2.0, 2.5, 3.0, 3.5])
    truth = np.array([0.4, -0.2, 0.0, 0.1])
    noise = 1e-3 * rng.standard_normal(4)
    noise[2] = 0.0
    return model, truth, model.eval(truth) + noise


class TestKernelMatchesReference:
    """run_algorithm1 reuses norms and duality images within and across
    steps; every iterate must equal the plain transcription bit for bit."""

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("r,p", [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)])
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_exact_equality(self, r, p, kind, with_ref, quadratic):
        self.check(lp_space(4, r=r, p=p), KERNEL_SETS[kind], with_ref,
                   kernel_problem(quadratic))

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_exact_equality_weighted_l2(self, kind, with_ref, quadratic):
        # r = p = 2 with weights: the r = 2 norm and the r = p duality
        # map without the Hilbert identity.
        space = lp_space(4, weights=[0.5, 2.0, 1.0, 3.0], Cp=1.0, Gq=1.0)
        self.check(space, KERNEL_SETS[kind], with_ref,
                   kernel_problem(quadratic))

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", ["wholespace", "box"])
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_exact_equality_hilbert_signed_zeros(self, kind, with_ref,
                                                quadratic):
        # The loop skips the Hilbert inverse map x -> x + 0.0, which only
        # turns -0.0 into +0.0.  Iterates hold -0.0 (the start, and a box
        # clamp to its -0.0 bounds) where the update keeps a zero (the
        # blind coordinate 2), and x-tilde must hold +0.0 there.
        cset = WholeSpace() if kind == "wholespace" else Box(
            [-0.0, -1.0, -0.0, -1.0], [1.0, 0.3, 1.0, -0.0])
        x0 = np.array([-0.0, 0.8, -0.0, -0.0])
        report = self.check(lp_space(4), cset, with_ref,
                            kernel_problem(quadratic, blind=True), x0)
        kept = [(st.x == 0.0) & np.signbit(st.x) & (st.xtilde == 0.0)
                for st in report.iterations]
        assert any(k.any() for k in kept)
        assert not any(np.signbit(st.xtilde[st.xtilde == 0.0]).any()
                       for st in report.iterations)

    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("kind", sorted(SIGNED_ZERO_SETS))
    @pytest.mark.parametrize("r,p", [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)])
    def test_exact_equality_signed_zero_residual(self, r, p, kind,
                                                 with_ref):
        # A built-in model with s = 2 takes R_k (p = 2) or r_k**(p-2) R_k
        # as J_y(R_k), without the + 0.0 of J_y, which turns -0.0 into
        # +0.0.  The diagonal model maps the start's -0.0 at coordinate 2
        # to F(x)_2 = -0.0, with y_2 = 0.0, so R_0 holds -0.0 there, and
        # so does every R_k where the box pins coordinate 2 to -0.0.
        report = self.check(lp_space(4, r=r, p=p), SIGNED_ZERO_SETS[kind],
                            with_ref, signed_zero_problem(),
                            (0.5, 0.2, -0.0, 0.3))
        model, _, ydelta = signed_zero_problem()
        held = [bool(np.signbit(R[R == 0.0]).any())
                for R in (model.eval(st.x) - ydelta
                          for st in report.iterations)]
        assert held[0]
        assert all(held) == (kind == "box")

    def check(self, space, cset, with_ref, problem,
              x0=(0.9, 0.8, -0.7, 0.6)):
        """Compare the run of ``problem``, a model with its truth and
        data, from x0 (by default outside every set but X) with
        ``reference_iteration``; return the report."""
        model, truth, ydelta = problem
        cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12,
                           diagnostic_reference=truth if with_ref else None)
        x0 = np.array(x0)
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
        return report


def test_norm_of_reference_once_and_three_duality_maps_per_step(
        monkeypatch):
    """With a reference, ||ref|| is computed once per run and each step
    evaluates three duality maps: J_y(R_k), J*_q of the dual update and
    J_p(x_{k+1}), which the next step reuses.  A built-in model with s = 2
    folds J_y(R_k) into its gradient, so the step evaluates two; a model
    called through ``apply_adjoint`` takes J_y(R_k) from the data space.
    In Hilbert space J*_q is the identity, and the step evaluates one map
    fewer."""
    model = LinearModel(np.diag([2.0, 3.0, 4.0]))
    ref = np.array([0.5, 1.0 / 3.0, 0.25])
    data = NoisyData(model.eval(ref), 0.0)
    ref_norms, duality_maps = [], []
    real_norm = geometry_module._norm

    def counting_norm(sp, x):
        if x.shape == ref.shape and np.array_equal(x, ref):
            ref_norms.append(1)
        return real_norm(sp, x)

    def counting(vector_map):
        def counting_map(*args):
            duality_maps.append(1)
            return vector_map(*args)
        return counting_map

    for module in (geometry_module, solver_module):
        monkeypatch.setattr(module, "_norm", counting_norm)
    cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=20,
                       diagnostic_reference=ref)
    for r, called, maps_per_step in ((3.0, False, 2), (2.0, False, 1),
                                     (3.0, True, 3), (2.0, True, 2)):
        space = lp_space(3, r=r)
        ref_norms.clear()
        duality_maps.clear()
        with monkeypatch.context() as patch:
            # The run takes the duality maps that each of its spaces
            # resolves once, the data space's included.
            for sp in (space, space.dual(), data_space(model, space.p)):
                vector_norm, vector_map = sp._vector_kernels
                patch.setitem(sp.__dict__, "_vector_kernels",
                              (vector_norm, counting(vector_map)))
            report = run_algorithm1(space, WholeSpace(),
                                    Delegate(model) if called else model,
                                    data, np.full(3, 0.1), cfg)
        assert report.stopped_at_k == 20
        assert len(ref_norms) == 1
        # One more for J_p(x_K), computed with the stop's Bregman
        # distance: from the stop step's sums where the step folds r_K
        # in (a built-in model, here at r = 2), else by ``_bregman_to``
        # alone.
        assert len(duality_maps) == maps_per_step * 20 + 1


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


class NaNAfter(Delegate):
    """A linear model whose evaluation (or adjoint) puts NaN in its first
    entry from call number ``after`` on."""

    def __init__(self, matrix, after, adjoint=False):
        super().__init__(LinearModel(matrix))
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


    @pytest.mark.parametrize("matrix,ydelta,space", [
        # rk ** (p * p - p) overflows.
        (1.0, 1e30, lp_space(1, r=4.0)),
        # that ** (1 - p) overflows.
        (1e-120, 1.0, lp_space(1, r=4.0)),
        # that = Gq t_0**6 underflows to 0.0, which takes the power -0.2.
        (1e-60, 1.0, SpaceGeometry(1, r=2.0, p=1.2, Cp=1.0, Gq=1.0)),
    ], ids=["huge-residual", "tiny-gradient", "zero-that"])
    def test_overflowing_step_scalars_stop_typed(self, matrix, ydelta,
                                                 space):
        cfg = SolverConfig(eta=0.0, eta_hat=0.5)
        report = run_algorithm1(space, WholeSpace(),
                                LinearModel([[matrix]]),
                                NoisyData([ydelta], 0.0), [0.0], cfg)
        assert report.stop_reason == "StepDegenerate"
        assert report.stopped_at_k == 0
        assert isinstance(report.failure, NonFiniteStep)
        assert str(report.failure).startswith(
            "the scalars of step 0 leave the float range (residual ")

    def test_overflowing_norms_stop_typed(self):
        # t_0 overflows in numpy's power, a RuntimeWarning that the test
        # settings, as CI's -W error runs, turn into an untyped error.
        report = run_algorithm1(lp_space(1, r=1.5), WholeSpace(),
                                LinearModel([[3e119]]),
                                NoisyData([0.01], 0.0), [1.0],
                                SolverConfig(eta=0.0, eta_hat=0.001))
        assert report.stop_reason == "StepDegenerate"
        assert str(report.failure).startswith("t_0 = inf is not finite")

    @pytest.mark.parametrize("x0", [[1e200, 0.0], [1e250, 1.0]],
                             ids=["pth-power", "rth-power"])
    def test_overflowing_start_with_reference_stops_typed(self, x0):
        # ||x_0||**p (and at 1e250 also |x_0|**r) leaves the float range
        # in the start's Bregman distance to the reference, which runs
        # before the first step: numpy's warning was an untyped error
        # under the test settings, as under CI's -W error runs.
        space, model = lp_space(2, r=1.5), LinearModel(np.eye(2))
        data, ref = NoisyData([1.0, 1.0], 0.0), np.ones(2)
        single = run_algorithm1(space, WholeSpace(), model, data, x0,
                                SolverConfig(eta=0.0, eta_hat=0.5,
                                             diagnostic_reference=ref))
        level = Level(eta=0.0, C=1.0, L=0.0, Lhat=1.0, cset=WholeSpace(),
                      model=model, ydelta=data.ydelta, reference=ref)
        multi = run_multi_level(space, Schedule([level], 1.0, 0.5), x0)
        for report in (single, multi.per_level[0][3]):
            assert report.stop_reason == "StepDegenerate"
            assert report.stopped_at_k == 0
            assert report.start_radius_ok is False
            assert str(report.failure) == "r_0 = inf is not finite"

    def test_numpy_error_state_is_restored(self):
        # The run ignores numpy's overflow warnings only inside its loop,
        # also when the loop raises.
        before = np.geterr()
        model = WrongShape(np.eye(2), "eval", (3,))
        with pytest.raises(DimensionMismatch):
            run_algorithm1(lp_space(2), WholeSpace(), model,
                           NoisyData([1.0, 1.0], 0.0), np.zeros(2),
                           SolverConfig(eta=0.0, eta_hat=1e-8))
        assert np.geterr() == before

    def test_rule_checks_every_returned_scalar(self):
        # At r = p = 2 every power of r_k = 1e100, t_k = 1e-100 is finite,
        # but their product pref = t_k**-2 r_k r_k**2 overflows to inf.
        rule = step_rule(lp_space(1), 0.0, 0.0, 0.0)
        assert all(map(math.isfinite, rule(0, 1e50, 1e-50)))
        with pytest.raises(NonFiniteStep, match="scalars of step 3"):
            rule(3, 1e100, 1e-100)


@pytest.mark.parametrize("nonlinear", [False, True])
def test_step_size_identities(nonlinear):
    """The two identities behind the posterior step size hold for every
    Gq, p, r_k, t_k and u_k, since (p - 1) q = p:

        mu_k r_k**(p-1) = that_k**(1-p) u_k**(p-1) r_k**(p(p-1)),
        (Gq/q) mu_k**q t_k**q = gain,

    with that_k = Gq t_k**q.  Both sides are recomputed from that closed
    form over 10 000 seeded draws of (r, p, Cp, Gq, t_k) and of r_k above
    eta (inside the roots of u when ctilde > 0); the largest relative gap
    over these draws is 5.9e-14."""
    rng = np.random.default_rng(2012 + nonlinear)
    for _ in range(10_000):
        r, p = rng.uniform(1.1, 6.0, size=2)
        cp, gq = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        space = SpaceGeometry(1, r=r, p=p, Cp=cp, Gq=gq)
        q = space.q
        tk = 10.0 ** rng.uniform(-8.0, 8.0)
        if nonlinear:
            model = QuadraticModel([[1.0]], eps=10.0 ** rng.uniform(-3, 1),
                                   cstab=10.0 ** rng.uniform(-1, 1))
            ctilde = compute_ctilde(space, model)
            eta = rng.uniform(0.0, 0.99) / (8.0 * ctilde)
            # u > 0 strictly between each root of u less eta.
            sq = math.sqrt(1.0 - 8.0 * ctilde * eta)
            lo, hi = ((1.0 - sq) / (2.0 * ctilde) - eta,
                      (1.0 + sq) / (2.0 * ctilde) - eta)
            rk = lo + (hi - lo) * rng.uniform(0.01, 0.99)
        else:
            model, ctilde = LinearModel([[1.0]]), 0.0
            eta = rng.uniform(0.0, 1.0)
            rk = eta + 10.0 ** rng.uniform(-3.0, 2.0)
        that, uk, _, _, muk, gain = step_rule(space, model.lip, ctilde,
                                              eta)(0, rk, tk)
        assert that == gq * tk ** q and uk > 0.0
        assert muk * rk ** (p - 1.0) == pytest.approx(
            that ** (1.0 - p) * uk ** (p - 1.0) * rk ** (p * (p - 1.0)),
            rel=1e-12, abs=0.0)
        assert gq / q * muk ** q * tk ** q == pytest.approx(
            gain, rel=1e-12, abs=0.0)


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
    eta = float(np.linalg.norm(model.eval(truth) - ydelta))
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


class TestFusedDiagnostics:
    """A diagnosed step sums the powers of T_k, the powers of x_k and, at
    p = r, J_p(x_k) ref in one reduction over the rows of one buffer, and
    completes the monotonicity check of step k - 1 with the distance of
    x_k, or with the one the stop takes alone."""

    @pytest.mark.parametrize("dim", [9, 129, 1025])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r", [2.0, 3.0, 1.5])
    def test_streamed_sums_match_the_oracles(self, r, weighted, dim):
        # Past 8 and 128 entries numpy's pairwise sum unrolls and splits
        # its blocks; each row of the buffer must still sum as the one
        # vector does.  r = 1.5 has p = 2 != r.
        rng = np.random.default_rng(dim)
        weights = rng.uniform(0.25, 4.0, dim) if weighted else None
        space = lp_space(dim, r=r, weights=weights)
        model = Delegate(DiagonalLinearModel(rng.uniform(0.5, 2.0, dim)))
        truth = rng.standard_normal(dim)
        ydelta = model.eval(truth) + 1e-3 * rng.standard_normal(dim)
        ref = truth + 0.1 * rng.standard_normal(dim)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=8,
                           diagnostic_reference=ref)
        states = []
        report = run_algorithm1(space, WholeSpace(), model,
                                NoisyData(ydelta, 0.0), np.zeros(dim), cfg,
                                on_iteration=states.append)
        assert report.stop_reason == "MaxIterations" and len(states) == 8
        y_space, dual = data_space(model, space.p), space.dual()
        for st in states:
            T = model.apply_adjoint(
                st.x, duality_map(y_space, model.eval(st.x) - ydelta))
            assert np.float64(st.tk).tobytes() \
                == general_norm(dual, T).tobytes()
            assert np.float64(st.bregman_to_ref).tobytes() \
                == general_bregman(space, st.x, ref).tobytes()

    @pytest.mark.parametrize("stop", [
        "K=0", "MaxIterations", "StepDegenerate-rule", "nonfinite-residual"])
    def test_tallies_recomputed_from_the_states(self, stop):
        # The reference is the start, not the solution, so the distance to
        # it rises and the monotonicity check fails on every step.
        space = lp_space(4, r=3.0)
        model, truth, ydelta = kernel_problem(quadratic=True)
        ref = np.array([0.9, 0.8, -0.7, 0.6])
        x0, max_iterations = ref, 10 ** 4
        if stop == "K=0":
            x0 = truth
        elif stop == "MaxIterations":
            max_iterations = 6
        else:
            model = NaNAfter(np.diag([2.0, 2.5, 3.0, 3.5]), after=3,
                             adjoint=stop == "StepDegenerate-rule")
            ydelta = model.model.eval(truth)
        eta = 1e-3
        cfg = SolverConfig(eta=eta, eta_hat=3.5 * eta,
                           max_iterations=max_iterations,
                           diagnostic_reference=ref)
        states = []
        report = run_algorithm1(space, WholeSpace(), model,
                                NoisyData(ydelta, eta), x0, cfg,
                                on_iteration=states.append)
        assert report.stop_reason == {
            "K=0": "DiscrepancyMet", "MaxIterations": "MaxIterations"}.get(
                stop, "StepDegenerate")
        assert len(states) == report.stopped_at_k \
            == {"K=0": 0, "MaxIterations": 6}.get(stop, 3)
        assert_tallies_from_the_states(space, report, states, ref)

    @pytest.mark.parametrize("stop", [
        "K=0", "MaxIterations", "StepDegenerate-rule", "nonfinite-residual"])
    def test_folded_tallies_recomputed_from_the_states(self, stop,
                                                       monkeypatch):
        # The same four stops with built-in models at r = 2, whose steps
        # take r_k from their sums, with the origin as the reference and
        # the start: the quadratic model above (K = 0 from the truth,
        # MaxIterations at K = 6), and on R^2 two diagonal ones.
        # sigma = (1, 0) steps to x_1 = 2 and the box clamps it to 1, where
        # R_1 = (0, -1) and T_1 = 0 (ZeroGradient at K = 1);
        # sigma = (1e306, 1) steps to x_1 = 1e4, whose F(x_1) overflows
        # (r_1 = inf).
        space = lp_space(4)
        model, truth, ydelta = kernel_problem(quadratic=True)
        cset, ref = WholeSpace(), np.zeros(4)
        x0, max_iterations = ref, 10 ** 4
        if stop == "K=0":
            x0 = truth
        elif stop == "MaxIterations":
            max_iterations = 6
        else:
            space, ref = lp_space(2), np.zeros(2)
            x0 = ref
            if stop == "StepDegenerate-rule":
                model, ydelta = DiagonalLinearModel([1.0, 0.0]), [1.0, 1.0]
                cset = Box([-1.0, -1.0], [1.0, 1.0])
            else:
                model = DiagonalLinearModel([1e306, 1.0])
                ydelta = [-1e-300, -1e5]
        norms = count_data_norms(monkeypatch, model, space)
        eta = 1e-3
        cfg = SolverConfig(eta=eta, eta_hat=3.5 * eta,
                           max_iterations=max_iterations,
                           diagnostic_reference=ref)
        states = []
        report = run_algorithm1(space, cset, model, NoisyData(ydelta, eta),
                                x0, cfg, on_iteration=states.append)
        assert norms == []
        assert report.stop_reason == {
            "K=0": "DiscrepancyMet", "MaxIterations": "MaxIterations"}.get(
                stop, "StepDegenerate")
        assert len(states) == report.stopped_at_k \
            == {"K=0": 0, "MaxIterations": 6}.get(stop, 1)
        if stop == "StepDegenerate-rule":
            assert isinstance(report.failure, ZeroGradient)
        elif stop == "nonfinite-residual":
            assert str(report.failure) == "r_1 = inf is not finite"
        assert_tallies_from_the_states(space, report, states, ref)

    @pytest.mark.parametrize("dim", [9, 129, 1025])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r", [2.0, 1.5, 3.0])
    @pytest.mark.parametrize("model_kind", ["diagonal", "linear",
                                            "quadratic"])
    def test_builtin_sums_match_the_oracles(self, model_kind, r, weighted,
                                            dim, monkeypatch):
        # The oracle checks above on the built-in models themselves, whose
        # steps at p = s = 2 (r = 2 and r = 1.5) take r_k from their sums
        # and at r = 3 (p = 3 != s) take it alone, at x_0, ..., x_8.  R_k
        # and T_k are worked out by the run's own products, so that a dense
        # model at d = 1025, above one block, is checked on its own bits.
        # Within one block those products have the bits of the model's
        # eval and apply_adjoint, so the states are also those of the same
        # model behind Delegate, which takes r_k alone.
        rng = np.random.default_rng(dim)
        weights = rng.uniform(0.25, 4.0, dim) if weighted else None
        space = lp_space(dim, r=r, weights=weights)
        if model_kind == "diagonal":
            model = DiagonalLinearModel(rng.uniform(0.5, 2.0, dim))
        else:
            noise = rng.standard_normal((dim, dim))
            A = np.eye(dim) + noise / (4.0 * dim ** 0.5)
            model = LinearModel(A) if model_kind == "linear" \
                else QuadraticModel(A, eps=1e-3, cstab=1.0, lhat=2.0)
        truth = rng.standard_normal(dim)
        ydelta = model.eval(truth) + 1e-3 * rng.standard_normal(dim)
        ref = truth + 0.1 * rng.standard_normal(dim)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=8,
                           diagnostic_reference=ref)
        norms = count_data_norms(monkeypatch, model, space)
        report = run_algorithm1(space, WholeSpace(), model,
                                NoisyData(ydelta, 0.0), np.zeros(dim), cfg)
        assert report.stop_reason == "MaxIterations"
        assert len(norms) == (0 if r != 3.0 else 9)
        if model_kind == "diagonal" or dim < 1025:
            assert state_bytes(report) == state_bytes(run_algorithm1(
                space, WholeSpace(), Delegate(model), NoisyData(ydelta, 0.0),
                np.zeros(dim), cfg))
        y_space, dual = data_space(model, space.p), space.dual()
        residual, gradient = _step_products(model, ydelta, y_space, dim)
        assert len(report.iterations) == 8
        for st in report.iterations:
            R = residual(st.x)
            T = gradient(st.x, R, st.rk)
            assert np.float64(st.rk).tobytes() \
                == general_norm(y_space, R).tobytes()
            assert np.float64(st.tk).tobytes() \
                == general_norm(dual, T).tobytes()
            assert np.float64(st.bregman_to_ref).tobytes() \
                == general_bregman(space, st.x, ref).tobytes()
        assert np.float64(report.final_residual).tobytes() \
            == general_norm(y_space, residual(report.x_final)).tobytes()

    @pytest.mark.parametrize("out_dim", [3, 6])
    def test_nonsquare_builtin_model_takes_its_residual_alone(
            self, out_dim, monkeypatch):
        # R_k of a non-square model does not fit a row of the buffer: the
        # step takes r_k alone, at x_0, ..., x_K, with the bits of the
        # called model's and of the oracle.
        rng = np.random.default_rng(out_dim)
        model = LinearModel(np.eye(out_dim, 4)
                            + 0.3 * rng.standard_normal((out_dim, 4)))
        space = lp_space(4)
        ydelta = model.eval(rng.standard_normal(4))
        y_space = data_space(model, space.p)
        norms = count_data_norms(monkeypatch, model, space)
        cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12,
                           diagnostic_reference=np.ones(4))
        reports = []
        for m in (model, Delegate(model)):
            norms.clear()
            reports.append(run_algorithm1(space, WholeSpace(), m,
                                          NoisyData(ydelta, 0.0),
                                          np.zeros(4), cfg))
            assert len(norms) == reports[-1].stopped_at_k + 1
        own, called = reports
        assert own.stopped_at_k == 12
        assert state_bytes(own) == state_bytes(called)
        for st in own.iterations:
            assert np.float64(st.rk).tobytes() == general_norm(
                y_space, model.eval(st.x) - ydelta).tobytes()

    def test_overflowing_residual_in_the_folded_step_stops_typed(
            self, monkeypatch):
        # R_0 overflows; the step still takes T_0 and the sums, inf and NaN
        # among them, before its stop test, with no RuntimeWarning, and the
        # start's radius check reads the distance from those sums.
        rng = np.random.default_rng(32)
        model = LinearModel(1e300 * rng.standard_normal((4, 4)))
        space, ref = lp_space(4), np.ones(4)
        norms = count_data_norms(monkeypatch, model, space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_algorithm1(space, WholeSpace(), model,
                                    NoisyData(np.ones(4), 0.0),
                                    np.full(4, 2.0),
                                    SolverConfig(eta=0.0, eta_hat=0.5,
                                                 diagnostic_reference=ref))
        assert norms == []
        assert report.stop_reason == "StepDegenerate"
        assert report.stopped_at_k == 0
        assert isinstance(report.failure, NonFiniteStep)
        assert re.fullmatch(r"r_0 = (inf|nan) is not finite",
                            str(report.failure))
        assert report.start_radius_ok is True


def assert_tallies_from_the_states(space, report, states, ref):
    """The report's theorem tallies recomputed from the streamed states
    and the distance of x_K, with the monotonicity check failing on every
    step."""
    # The step after the last state has the distance of x_K.
    bregs = [st.bregman_to_ref for st in states] + [
        bregman_distance(space, report.x_final, ref)]
    descents = [st.wk * st.bregman_to_ref ** (2.0 / space.p) - st.vk
                for st in states]
    rho = report.rho
    assert [st.radius_ok for st in states] == [b < rho for b in bregs[:-1]]
    tallies = (sum(not b < rho for b in bregs[:-1]),
               sum(not b1 <= b0 + d + 1e-10
                   for b0, b1, d in zip(bregs, bregs[1:], descents)),
               sum(not d < 0.0 for d in descents),
               bregs[0] < rho)
    assert tallies == (report.radius_violations,
                       report.monotonicity_violations,
                       report.strict_bound_violations,
                       report.start_radius_ok)
    assert tallies[1] == len(states)


def count_data_norms(monkeypatch, model, space):
    """Count the calls of the one-vector norm of the model's data space
    in a run on ``space``: none where each step takes r_k from its sums."""
    y_space = data_space(model, space.p)
    vector_norm, vector_map = y_space._vector_kernels
    calls = []

    def counting_norm(x):
        calls.append(1)
        return vector_norm(x)

    monkeypatch.setitem(y_space.__dict__, "_vector_kernels",
                        (counting_norm, vector_map))
    return calls



# A 400 x 400 matrix is above one 1 MiB block of 324 rows, so a built-in
# model with it gives R_k and T_k from one pass over its matrix.
BLOCKED_DIM = 400


def blocked_problem():
    """A smoothing-like 400 x 400 matrix, data with 1% noise and the
    noise level."""
    rng = np.random.default_rng(31)
    d = BLOCKED_DIM
    U, V = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    A = (U * (1.0 + np.arange(d)) ** -0.5) @ V.T
    truth = rng.standard_normal(d)
    clean = A @ truth
    eta = 0.01 * float(np.linalg.norm(clean))
    noise = rng.standard_normal(d)
    return A, clean + eta * noise / np.linalg.norm(noise), eta


def builtin_problem(kind):
    """A built-in model of ``kind`` (linear, diagonal or quadratic) on
    R^4, within one block, with data and the truth behind them.  The
    quadratic term is large enough that the rounding of each of its
    products shows in the adjoint."""
    rng = np.random.default_rng(23)
    if kind == "linear":
        model = LinearModel(np.eye(4) + 0.3 * rng.standard_normal((4, 4)))
    elif kind == "diagonal":
        model = DiagonalLinearModel([2.0, 0.7, 1.5, 1.2])
    else:
        model = QuadraticModel(np.diag([1.0, 0.8, 1.2, 0.9]), eps=0.3,
                               cstab=0.5, lhat=2.0)
    truth = np.array([0.4, -0.2, 0.5, 0.1])
    return model, truth, model.eval(truth) + 1e-3 * rng.standard_normal(4)


def state_bytes(report):
    """K, the stop reason, x_K and every state's arrays and scalars."""
    return (report.stopped_at_k, report.stop_reason, report.x_final.tobytes(),
            [(st.x.tobytes(), st.xtilde.tobytes(),
              repr((st.k, st.rk, st.tk, st.that_k, st.uk, st.vk, st.wk,
                    st.muk, st.bregman_to_ref, st.radius_ok)))
             for st in report.iterations])


class TestOnePassProducts:
    def test_matches_the_two_calls(self):
        A, ydelta, eta = blocked_problem()
        model = LinearModel(A)
        cfg = SolverConfig(eta=eta, eta_hat=3.01 * eta)
        one, two = (run_algorithm1(lp_space(BLOCKED_DIM), WholeSpace(), m,
                                   NoisyData(ydelta, eta),
                                   np.zeros(BLOCKED_DIM), cfg)
                    for m in (model, Delegate(model)))
        assert one.stop_reason == two.stop_reason == "DiscrepancyMet"
        assert one.stopped_at_k == two.stopped_at_k > 50
        # R_0 has the bits of eval(x_0) - y; T_0 sums by block.
        first, other = one.iterations[0], two.iterations[0]
        assert first.rk == other.rk
        assert first.tk == pytest.approx(other.tk, rel=1e-13, abs=0.0)
        # The iterates differ by ~1e-14 relative up to step 70 of 86; the
        # steps after it grow that to 7e-9, as any change of rounding
        # would.
        assert np.linalg.norm(one.x_final - two.x_final) \
            <= 1e-7 * np.linalg.norm(two.x_final)

    @pytest.mark.parametrize("cls", [LinearModel, QuadraticModel])
    def test_builtin_model_is_not_called(self, cls, monkeypatch):
        # Replacing the class's own methods, as a tracer does, keeps the
        # one pass: neither method runs.
        calls = []
        for name in ("eval", "apply_adjoint"):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, *a, _m=method,
                                _n=name: calls.append(_n) or _m(self, *a))
        A, ydelta, _ = blocked_problem()
        model = LinearModel(A) if cls is LinearModel \
            else QuadraticModel(A, eps=1e-3, cstab=1.0)
        report = run_algorithm1(lp_space(BLOCKED_DIM), WholeSpace(), model,
                                NoisyData(ydelta, 0.0),
                                np.zeros(BLOCKED_DIM),
                                SolverConfig(eta=0.0, eta_hat=1e-12,
                                             max_iterations=5))
        assert report.stopped_at_k == 5
        assert calls == []

    @pytest.mark.parametrize("model_kind", ["linear", "diagonal",
                                            "quadratic"])
    def test_one_block_builtin_model_is_not_called(self, model_kind,
                                                   monkeypatch):
        # Within one block too, where the run uses the model's own
        # products, a method replaced on the class is not called.
        model, _, ydelta = builtin_problem(model_kind)
        cls = type(model)
        calls = []
        for name in ("eval", "apply_adjoint"):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, *a, _m=method,
                                _n=name: calls.append(_n) or _m(self, *a))
        report = run_algorithm1(lp_space(4), WholeSpace(), model,
                                NoisyData(ydelta, 0.0), np.zeros(4),
                                SolverConfig(eta=0.0, eta_hat=1e-12,
                                             max_iterations=5))
        assert report.stopped_at_k == 5
        assert calls == []

    @pytest.mark.parametrize("cls", [LinearModel, QuadraticModel])
    @pytest.mark.parametrize("name", ["eval", "apply_adjoint"])
    def test_override_called_on_every_step(self, cls, name):
        # A subclass that overrides either method, as WrongAdjoint of
        # test_models does, is called through both on every step.
        calls = []

        class Counting(cls):
            pass

        def counted(self, *args):
            calls.append(1)
            return getattr(cls, name)(self, *args)

        setattr(Counting, name, counted)
        A, ydelta, _ = blocked_problem()
        model = Counting(A) if cls is LinearModel \
            else Counting(A, eps=1e-3, cstab=1.0)
        report = run_algorithm1(lp_space(BLOCKED_DIM), WholeSpace(), model,
                                NoisyData(ydelta, 0.0),
                                np.zeros(BLOCKED_DIM),
                                SolverConfig(eta=0.0, eta_hat=1e-12,
                                             max_iterations=5))
        assert report.stopped_at_k == 5
        # eval at x_0, ..., x_5, the adjoint at x_0, ..., x_4.
        assert len(calls) == (6 if name == "eval" else 5)

    def test_overflowing_residual_stops_typed(self):
        # The one pass applies the adjoint to the inf and NaN residual
        # before the stop test, with no RuntimeWarning.
        rng = np.random.default_rng(32)
        model = LinearModel(1e300 * rng.standard_normal((BLOCKED_DIM,
                                                         BLOCKED_DIM)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_algorithm1(lp_space(BLOCKED_DIM), WholeSpace(),
                                    model,
                                    NoisyData(np.ones(BLOCKED_DIM), 0.0),
                                    np.ones(BLOCKED_DIM),
                                    SolverConfig(eta=0.0, eta_hat=0.5))
        assert report.stop_reason == "StepDegenerate"
        assert report.stopped_at_k == 0
        assert isinstance(report.failure, NonFiniteStep)
        assert re.fullmatch(r"r_0 = (inf|nan) is not finite",
                            str(report.failure))


class TestResolvedProducts:
    """A built-in model's products, run with its own numpy operations,
    against the same model called through ``eval`` and
    ``apply_adjoint``."""

    @pytest.mark.parametrize("weights", [None, [0.5, 2.0, 1.0, 3.0]],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r,p", [(2.0, 2.0), (1.5, 2.0), (3.0, 3.0),
                                     (4.0, 4.0)])
    @pytest.mark.parametrize("kind", sorted(KERNEL_SETS))
    @pytest.mark.parametrize("model_kind", ["linear", "diagonal",
                                            "quadratic"])
    def test_matches_the_checked_calls(self, model_kind, kind, r, p,
                                       weights):
        model, truth, ydelta = builtin_problem(model_kind)
        space = lp_space(4, r=r, p=p, weights=weights)
        for ref in (None, truth):
            cfg = SolverConfig(eta=0.0, eta_hat=1e-12, max_iterations=12,
                               diagnostic_reference=ref)
            own, called = (
                state_bytes(run_algorithm1(space, KERNEL_SETS[kind], m,
                                           NoisyData(ydelta, 0.0),
                                           np.array([0.9, 0.8, -0.7, 0.6]),
                                           cfg))
                for m in (model, Delegate(model)))
            assert own[0] > 0
            assert own == called

    @pytest.mark.parametrize("kind,shape", [
        ("linear", (7, 5)), ("linear", (5, 7)), ("linear", (361, 361)),
        ("quadratic", (9, 9)), ("quadratic", (361, 361))])
    def test_dense_products_match_the_calls_bit_for_bit(self, kind, shape):
        # The built-in dense residual and gradient run np.dot, with
        # R -= ydelta in place, where eval and apply_adjoint run @: the
        # same bytes, on non-square models and at d = 361, the largest
        # square matrix of one 1 MiB block (its last row joins the 360
        # before it), whose products BLAS threads.
        rng = np.random.default_rng(shape[0] + shape[1])
        A = rng.standard_normal(shape)
        assert len(_row_blocks(shape)) == 1
        for s, p in ((2.0, 2.0), (2.0, 3.0), (3.0, 3.0)):
            model = LinearModel(A, s=s) if kind == "linear" \
                else QuadraticModel(A, eps=0.3, s=s)
            y_space = data_space(model, p)
            ydelta = rng.standard_normal(shape[0])
            own, called = (_step_products(m, ydelta, y_space, shape[1])
                           for m in (model, Delegate(model)))
            for _ in range(3):
                x = rng.standard_normal(shape[1])
                R = own[0](x)
                assert R.tobytes() == called[0](x).tobytes()
                rk = norm(y_space, R)
                assert own[1](x, R, rk).tobytes() \
                    == called[1](x, R, rk).tobytes()

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_called_model_receives_the_data_duality_map(self, r):
        # The fold of J_y is for built-in models only: apply_adjoint of a
        # model called through it receives duality_map(y_space, R_k), byte
        # for byte, with its +0.0 where R_k holds -0.0.
        model, _, ydelta = signed_zero_problem()
        space = lp_space(4, r=r)
        y_space = data_space(model, space.p)
        received = []

        class Recording(Delegate):
            def apply_adjoint(self, x, ystar):
                received.append((x.copy(), ystar.copy()))
                return super().apply_adjoint(x, ystar)

        report = run_algorithm1(space, SIGNED_ZERO_SETS["box"],
                                Recording(model), NoisyData(ydelta, 0.0),
                                np.array([0.5, 0.2, -0.0, 0.3]),
                                SolverConfig(eta=0.0, eta_hat=1e-12,
                                             max_iterations=12))
        assert report.stopped_at_k == len(received) == 12
        for x, ystar in received:
            R = model.eval(x) - ydelta
            assert np.signbit(R[2]) and R[2] == 0.0
            assert ystar.tobytes() == duality_map(y_space, R).tobytes()
            assert not np.signbit(ystar[2])
