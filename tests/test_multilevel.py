"""Tests of the multi-level driver and the example schedule."""

import math

import numpy as np
import pytest

from projsd import (CoordinateSubspace, DiagonalLinearModel, EtaTooLarge,
                    LambdaTooSmall, Level, NoisyData, NoSuchLevel, Schedule,
                    TauOutOfRange, TransitionInvalid, compute_ctilde,
                    convergence_radius, example_schedule, lp_space,
                    run_multi_level, select_final_level, validate_schedule,
                    validate_transition)


def hilbert_tau_bound(lam):
    space = lp_space(2)
    return (space.Cp / space.p) ** (3.0 / space.p) \
        / (16.0 * lam * (4.0 * math.e + 1.0))


class TestLevel:
    def test_ctilde(self):
        space = lp_space(2)
        lv = Level(index=0, eta=0.0, C=2.0, L=0.5, Lhat=1.0)
        # 0.5 * (1/2)**(-1) * 0.5 * 4 = 2
        assert lv.ctilde(space) == pytest.approx(2.0)

    def test_rho_infinite_for_linear(self):
        space = lp_space(2)
        lv = Level(index=0, eta=0.1, C=2.0, L=0.0, Lhat=1.0)
        assert lv.rho(space) == math.inf

    def test_rho_matches_single_level_at_zero_eta(self):
        space = lp_space(2)
        lv = Level(index=0, eta=0.0, C=1.0, L=1.0, Lhat=1.0)
        # Hilbert unit case: radius 1/2.
        assert lv.rho(space) == pytest.approx(0.5, rel=1e-12)


class TestSelectFinalLevel:
    def test_first_hit(self):
        assert select_final_level([0.4, 0.1, 0.01], 1.0, 0.5) == 1

    def test_no_level(self):
        with pytest.raises(NoSuchLevel):
            select_final_level([0.4, 0.2], 1.0, 0.1)


class TestTransitions:
    def test_linear_next_level_always_passes(self):
        space = lp_space(2)
        a = Level(index=0, eta=0.1, C=1.0, L=0.0, Lhat=1.0)
        b = Level(index=1, eta=0.01, C=2.0, L=0.0, Lhat=1.0)
        lhs, rhs, ok = validate_transition(space, a, b, 1.0)
        assert ok and math.isinf(rhs)
        assert lhs == pytest.approx(0.4)

    def test_failing_transition(self):
        space = lp_space(2)
        # Huge eta on the coarse level cannot be absorbed downstream.
        a = Level(index=0, eta=10.0, C=1.0, L=0.5, Lhat=1.0)
        b = Level(index=1, eta=0.01, C=1.0, L=0.5, Lhat=1.0)
        _, _, ok = validate_transition(space, a, b, 1.0)
        assert not ok

    def test_validate_schedule_rejects_bad_pair(self):
        space = lp_space(2)
        levels = [Level(index=0, eta=10.0, C=1.0, L=0.5, Lhat=1.0),
                  Level(index=1, eta=0.01, C=1.0, L=0.5, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.1)
        with pytest.raises(TransitionInvalid):
            validate_schedule(space, sched)

    def test_validate_schedule_rejects_overlong_schedule(self):
        space = lp_space(2)
        levels = [Level(index=0, eta=0.01, C=1.0, L=0.0, Lhat=1.0),
                  Level(index=1, eta=0.001, C=2.0, L=0.0, Lhat=1.0)]
        # eta_hat already met at level 0, so a 2-level schedule is bogus.
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.5)
        with pytest.raises(TransitionInvalid):
            validate_schedule(space, sched)


class TestExampleSchedule:
    def test_guards(self):
        space = lp_space(2)
        with pytest.raises(LambdaTooSmall):
            example_schedule(lam=0.01, tau=1e-4, space=space, eta_hat=1e-3)
        bound = hilbert_tau_bound(0.1)
        with pytest.raises(TauOutOfRange):
            example_schedule(lam=0.1, tau=2.0 * bound, space=space,
                             eta_hat=1e-3)
        with pytest.raises(TauOutOfRange):
            example_schedule(lam=0.1, tau=0.0, space=space, eta_hat=1e-3)

    def test_constant_models(self):
        space = lp_space(2)
        lam = 0.1
        tau = 0.5 * hilbert_tau_bound(lam)
        sched = example_schedule(lam=lam, tau=tau, space=space,
                                 eta_hat=1e-3)
        assert sched.epsilon == 1.0
        assert sched.levels[0].eta == pytest.approx(lam / 2.0)
        for lv in sched.levels:
            a = lv.index
            assert lv.C == pytest.approx(2.0 * math.exp(a))
            assert lv.L == pytest.approx(tau * math.exp(-a))
            assert lv.Lhat == pytest.approx((a + 1.0) * math.exp(-a))

    def test_schedule_validates(self):
        space = lp_space(2)
        lam = 0.1
        sched = example_schedule(lam=lam, tau=0.5 * hilbert_tau_bound(lam),
                                 space=space, eta_hat=1e-3)
        transitions, final = validate_schedule(space, sched)
        assert final == len(sched.levels) - 1
        assert all(ok for *_, ok in transitions)

    def test_allow_small_lambda(self):
        space = lp_space(2)
        sched = example_schedule(lam=0.01, tau=0.5 * hilbert_tau_bound(
            0.01), space=space, eta_hat=1e-3, allow_small_lambda=True)
        assert sched.levels


def diagonal_schedule(eta_hat=5e-3):
    dim = 8
    sigma = np.exp(-np.arange(dim))
    space = lp_space(dim)
    model = DiagonalLinearModel(sigma)
    ydelta = sigma.copy()
    levels = []
    for n, m in enumerate([2, 4, 6, 8]):
        sup = list(range(m))
        zdag, eta = model.best_subspace_solution(ydelta, sup)
        levels.append(Level(
            index=n, eta=eta, C=model.subspace_stability_constant(sup),
            L=0.0, Lhat=1.0, cset=CoordinateSubspace(sup), model=model,
            data=NoisyData(ydelta, eta), reference=zdag))
    return space, Schedule(levels=levels, epsilon=1.0, eta_hat=eta_hat)


class TestRunMultiLevel:
    def test_end_to_end(self):
        space, sched = diagonal_schedule()
        report = run_multi_level(space, sched, np.zeros(space.dim))
        assert report.stop_reason == "DiscrepancyMet"
        assert report.final_residual <= sched.eta_hat
        assert len(report.per_level) == 4
        assert all(k >= 1 for _, k, _, _ in report.per_level)
        assert all(flag for flag in report.start_radius_ok)

    def test_level_started_inside_threshold_keeps_radius_flag(self):
        # Starting at level 0's reference meets its threshold at K = 0.
        space, sched = diagonal_schedule()
        report = run_multi_level(space, sched, sched.levels[0].reference)
        assert report.stop_reason == "DiscrepancyMet"
        assert report.per_level[0][1] == 0
        assert len(report.start_radius_ok) == len(report.per_level)
        assert all(flag is True for flag in report.start_radius_ok)

    def test_handoff_stays_feasible(self):
        space, sched = diagonal_schedule()
        report = run_multi_level(space, sched, np.zeros(space.dim))
        for (idx, _, _, rep), lv in zip(report.per_level, sched.levels):
            assert lv.cset.contains(space, rep.x_final, tol=1e-8)

    def test_constants_only_levels_cannot_run(self):
        space = lp_space(2)
        levels = [Level(index=0, eta=0.1, C=1.0, L=0.0, Lhat=1.0),
                  Level(index=1, eta=0.01, C=2.0, L=0.0, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.05)
        with pytest.raises(TransitionInvalid):
            run_multi_level(space, sched, np.zeros(2))


def random_level(rng, space, index=1):
    """A level with random constants and 8 * ctilde * eta in (0, 0.9)."""
    C, L, Lhat = rng.uniform(0.2, 4.0, 3)
    ct = Level(index=index, eta=0.0, C=C, L=L, Lhat=Lhat).ctilde(space)
    return Level(index=index, eta=rng.uniform(0.0, 0.9) / (8.0 * ct),
                 C=C, L=L, Lhat=Lhat)


def random_space(rng):
    return lp_space(2, r=2.0, p=rng.uniform(1.2, 5.0),
                    Cp=rng.uniform(0.1, 1.0), Gq=1.0)


class TestOneHomeFormulas:
    """The level constants go through the same curvature, radius and
    bracket formulas as the single-level solver."""

    def test_level_rho_is_convergence_radius(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            space = random_space(rng)
            lv = random_level(rng, space)
            model = DiagonalLinearModel([1.0, 1.0]).with_constants(
                lip=lv.L, lhat=lv.Lhat, cstab=lv.C)
            ctilde = compute_ctilde(space, model)
            assert lv.ctilde(space) == ctilde
            assert lv.rho(space) == convergence_radius(
                space, lv.Lhat, ctilde, lv.eta)

    def test_level_rho_infinite_when_linear(self):
        rng = np.random.default_rng(32)
        space = random_space(rng)
        lv = Level(index=0, eta=10.0, C=3.0, L=0.0, Lhat=2.0)
        assert lv.rho(space) == math.inf

    def test_transition_rhs_is_radius_budget(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            space = random_space(rng)
            nxt = random_level(rng, space)
            first = Level(index=0, eta=10 * nxt.eta, C=1.0, L=0.0, Lhat=1.0)
            _, rhs, _ = validate_transition(space, first, nxt, 1.0)
            rho = nxt.rho(space)
            expected = rho ** (1.0 / space.p) / nxt.C - nxt.eta
            assert rhs == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_eta_too_large_through_every_caller(self):
        space = lp_space(2)
        bad = Level(index=1, eta=0.2, C=1.0, L=1.0, Lhat=1.0)
        assert 8.0 * bad.ctilde(space) * bad.eta >= 1.0
        good = Level(index=0, eta=0.01, C=1.0, L=0.0, Lhat=1.0)
        with pytest.raises(EtaTooLarge):
            convergence_radius(space, bad.Lhat, bad.ctilde(space), bad.eta)
        with pytest.raises(EtaTooLarge):
            bad.rho(space)
        with pytest.raises(EtaTooLarge):
            validate_transition(space, good, bad, 1.0)
