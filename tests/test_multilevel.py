"""Tests of the multi-level driver and the example schedule."""

import math

import numpy as np
import pytest
from oracles import member

from projsd import (CoordinateSubspace, DiagonalLinearModel, EtaTooLarge,
                    ForwardModel, LambdaTooSmall, Level, NoisyData,
                    NoSuchLevel, Schedule, TauOutOfRange, TransitionInvalid,
                    compute_ctilde,
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
        lv = Level(eta=0.0, C=2.0, L=0.5, Lhat=1.0)
        # 0.5 * (1/2)**(-1) * 0.5 * 4 = 2
        assert lv.ctilde(space) == pytest.approx(2.0)

    def test_rho_infinite_for_linear(self):
        space = lp_space(2)
        lv = Level(eta=0.1, C=2.0, L=0.0, Lhat=1.0)
        assert lv.rho(space) == math.inf

    def test_ctilde_where_c_squared_leaves_the_float_range(self):
        # C**2 ended in an OverflowError.  c-tilde is inf only where the
        # product itself leaves the float range, 0 whenever L = 0, and
        # keeps its bits where C**2 is a float.
        space = lp_space(2)
        weight = 0.5 * (space.Cp / space.p) ** (-2.0 / space.p)
        assert Level(eta=0.0, C=1e200, L=0.1, Lhat=1.0).ctilde(space) \
            == math.inf
        assert Level(eta=0.0, C=1e200, L=0.0, Lhat=1.0).ctilde(space) == 0.0
        assert Level(eta=0.0, C=1e160, L=1e-100, Lhat=1.0).ctilde(space) \
            == weight * 1e-100 * 1e160 * 1e160
        assert Level(eta=0.0, C=1e150, L=1e-100, Lhat=1.0).ctilde(space) \
            == weight * 1e-100 * 1e150 ** 2

    def test_rho_beyond_the_float_range_is_infinite(self):
        # (bracket / Lhat)**p ended in an OverflowError.
        space = lp_space(2)
        assert Level(eta=0.0, C=1.0, L=1.0, Lhat=1e-200).rho(space) \
            == math.inf
        assert Level(eta=0.0, C=1.0, L=1.0, Lhat=1e-100).rho(space) \
            == pytest.approx(0.5e200, rel=1e-12)

    def test_rho_matches_single_level_at_zero_eta(self):
        space = lp_space(2)
        lv = Level(eta=0.0, C=1.0, L=1.0, Lhat=1.0)
        # Hilbert unit case: radius 1/2.
        assert lv.rho(space) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("name, value", [
        ("C", 0.0), ("C", -1.0), ("C", math.inf), ("Lhat", 0.0),
        ("Lhat", math.nan), ("eta", -0.1), ("eta", math.inf), ("L", -1.0),
        ("L", math.nan)])
    def test_constants_checked(self, name, value):
        # Lhat = 0 used to reach validate_transition as a division by 0.
        constants = dict(eta=0.01, C=1.0, L=0.5, Lhat=1.0)
        constants[name] = value
        with pytest.raises(ValueError, match=f"{name} = "):
            Level(**constants)


class TestSchedule:
    @pytest.mark.parametrize("name", ["epsilon", "eta_hat"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_constants_checked(self, name, value):
        # NaN and inf passed (nan <= 0 is false) and surfaced later as a
        # misleading NoSuchLevel.
        constants = dict(epsilon=1.0, eta_hat=0.1)
        constants[name] = value
        with pytest.raises(ValueError, match=f"{name} = "):
            Schedule(levels=[], **constants)


class TestSelectFinalLevel:
    def test_first_hit(self):
        assert select_final_level([0.4, 0.1, 0.01], 1.0, 0.5) == 1

    def test_no_level(self):
        with pytest.raises(NoSuchLevel):
            select_final_level([0.4, 0.2], 1.0, 0.1)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda etas: iter(etas), id="iterator"),
        pytest.param(lambda etas: (eta for eta in etas), id="generator")])
    def test_one_pass_sequences(self, make):
        assert select_final_level(make([0.4, 0.1, 0.01]), 1.0, 0.5) == 1
        with pytest.raises(NoSuchLevel, match=r" in 2 levels$"):
            select_final_level(make([1.0, 0.5]), 1.0, 1e-9)


class TestTransitions:
    def test_linear_next_level_always_passes(self):
        space = lp_space(2)
        a = Level(eta=0.1, C=1.0, L=0.0, Lhat=1.0)
        b = Level(eta=0.01, C=2.0, L=0.0, Lhat=1.0)
        lhs, rhs, ok = validate_transition(space, a, b, 1.0)
        assert ok and math.isinf(rhs)
        assert lhs == pytest.approx(0.4)

    def test_linear_next_level_passes_where_lhat_c_overflows(self):
        # Lhat * C = inf made the budget 0 * inf = NaN, which failed.
        space = lp_space(2)
        a = Level(eta=0.1, C=1.0, L=0.0, Lhat=1.0)
        b = Level(eta=0.01, C=1e200, L=0.0, Lhat=1e200)
        lhs, rhs, ok = validate_transition(space, a, b, 1.0)
        assert ok and rhs == math.inf
        assert lhs == pytest.approx(0.4)

    def test_huge_ctilde_with_a_small_product(self):
        # 8 * ctilde overflowed before the product with eta was formed:
        # EtaTooLarge said "8 * ctilde * eta = inf" where it is 1/16.
        # Powers of two make c-tilde = L C**2 = 2**1023 and each product
        # exact.
        space = lp_space(2)
        a = Level(eta=0.1, C=1.0, L=0.0, Lhat=1.0)
        b = Level(eta=2.0 ** -1030, C=2.0 ** 500, L=2.0 ** 23, Lhat=1.0)
        assert b.ctilde(space) == 2.0 ** 1023
        lhs, rhs, ok = validate_transition(space, a, b, 1.0)
        assert math.isfinite(rhs) and not ok
        assert b.rho(space) < math.inf
        # Where the product is 1 or more, the message prints it.
        c = Level(eta=2.0 ** -1023, C=2.0 ** 500, L=2.0 ** 23, Lhat=1.0)
        with pytest.raises(EtaTooLarge,
                           match=r"^8 \* ctilde \* eta = 8\.0 >= 1 "):
            validate_transition(space, a, c, 1.0)

    def test_failing_transition(self):
        space = lp_space(2)
        # Huge eta on the coarse level cannot be absorbed downstream.
        a = Level(eta=10.0, C=1.0, L=0.5, Lhat=1.0)
        b = Level(eta=0.01, C=1.0, L=0.5, Lhat=1.0)
        _, _, ok = validate_transition(space, a, b, 1.0)
        assert not ok

    def test_validate_schedule_rejects_bad_pair(self):
        space = lp_space(2)
        levels = [Level(eta=10.0, C=1.0, L=0.5, Lhat=1.0),
                  Level(eta=0.01, C=1.0, L=0.5, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.1)
        with pytest.raises(TransitionInvalid):
            validate_schedule(space, sched)

    def test_eta_too_large_names_its_level(self):
        # The message gave 8 * ctilde * eta and eta, but not the level.
        space = lp_space(2)
        levels = [Level(eta=0.1, C=1.0, L=0.0, Lhat=1.0),
                  Level(eta=0.05, C=1.0, L=0.0, Lhat=1.0),
                  Level(eta=0.01, C=50.0, L=1.0, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.05)
        with pytest.raises(EtaTooLarge,
                           match=r"^level 2: 8 \* ctilde \* eta = .* >= 1"):
            validate_schedule(space, sched)

    def test_validate_schedule_rejects_overlong_schedule(self):
        space = lp_space(2)
        levels = [Level(eta=0.01, C=1.0, L=0.0, Lhat=1.0),
                  Level(eta=0.001, C=2.0, L=0.0, Lhat=1.0)]
        # eta_hat already met at level 0, so a 2-level schedule is bogus.
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.5)
        with pytest.raises(TransitionInvalid):
            validate_schedule(space, sched)

    def test_constants_beyond_the_float_range(self):
        # c-tilde = (1/2) L C**2 with C = 1e200 ended in an OverflowError.
        # It is inf, so 8 * ctilde * eta >= 1; with L = 0 the levels are
        # linear and valid whatever C.
        space = lp_space(2)

        def schedule(C, L):
            return Schedule(levels=[Level(eta=0.1, C=1.0, L=L, Lhat=1.0),
                                    Level(eta=0.01, C=C, L=L, Lhat=1.0)],
                            epsilon=1.0, eta_hat=0.05)
        with pytest.raises(EtaTooLarge,
                           match=r"^level 1: 8 \* ctilde \* eta = inf >= 1"):
            validate_schedule(space, schedule(1e200, 0.1))
        for C in (1e100, 1e200):
            transitions, final = validate_schedule(space, schedule(C, 0.0))
            assert final == 1 and transitions[0][3]

    @pytest.mark.parametrize("l1, eta_hat, error, message", [
        (100.0, 1e-6, EtaTooLarge, "level 1: 8 * ctilde * eta = "),
        (0.5, 1e-6, NoSuchLevel, "no level with "),
        (0.5, 0.01, TransitionInvalid, "transition check failed at "
                                       "levels [2]"),
    ], ids=["eta-too-large", "no-such-level", "transition-invalid"])
    def test_every_pair_is_evaluated_and_carried(self, l1, eta_hat, error,
                                                 message):
        # Level 1 raises EtaTooLarge at L = 100, pair 2 fails, and the
        # target is not met at eta_hat = 1e-6: the error of the highest
        # precedence is raised, and it carries every pair.
        space = lp_space(2)
        levels = [Level(eta=0.1, C=1.0, L=0.5, Lhat=1.0),
                  Level(eta=0.01, C=1.0, L=l1, Lhat=1.0),
                  Level(eta=10.0, C=1.0, L=0.0, Lhat=1.0),
                  Level(eta=0.001, C=1.0, L=0.5, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=eta_hat)
        with pytest.raises(error) as exc:
            validate_schedule(space, sched)
        assert str(exc.value).startswith(message)
        pairs = [(n, *validate_transition(space, a, b, 1.0))
                 if n or l1 != 100.0 else (0, None, None, False)
                 for n, (a, b) in enumerate(zip(levels, levels[1:]))]
        assert exc.value.transitions == pairs
        assert [ok for *_, ok in pairs] == [l1 != 100.0, True, False]


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
        for bad in (0.0, math.nan, math.inf):
            # A NaN eta_hat passed and ended in NoSuchLevel.
            with pytest.raises(ValueError, match="eta_hat = "):
                example_schedule(lam=0.1, tau=1e-4, space=space,
                                 eta_hat=bad)

    def test_constant_models(self):
        space = lp_space(2)
        lam = 0.1
        tau = 0.5 * hilbert_tau_bound(lam)
        sched = example_schedule(lam=lam, tau=tau, space=space,
                                 eta_hat=1e-3)
        assert sched.epsilon == 1.0
        assert sched.levels[0].eta == pytest.approx(lam / 2.0)
        for a, lv in enumerate(sched.levels):
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


    def test_ninety_levels(self):
        # A target that needs more than 64 levels: a cap of 64 refused it.
        space = lp_space(4)
        sched = example_schedule(lam=1.0, tau=0.001, space=space,
                                 eta_hat=1e-40)
        assert len(sched.levels) == 90
        transitions, final = validate_schedule(space, sched)
        assert final == 89 and all(ok for *_, ok in transitions)

    def test_levels_end_where_the_constants_leave_the_float_range(self):
        # C_a = 2 e**a is a float up to a = 709.  A target first met there
        # gives 710 levels, which validate (C**2 overflowed in c-tilde);
        # a smaller target meets no level (2 * exp(710) overflowed).
        space = lp_space(4)
        eta_hat = 4.0 * (1.0 * math.exp(-709) / 711.0)
        sched = example_schedule(lam=1.0, tau=0.001, space=space,
                                 eta_hat=eta_hat)
        assert len(sched.levels) == 710
        assert sched.levels[-1].C == 2.0 * math.exp(709)
        assert validate_schedule(space, sched)[1] == 709
        for smaller in (math.nextafter(eta_hat, 0.0), 5e-324):
            with pytest.raises(NoSuchLevel, match=r" in 710 levels$"):
                example_schedule(lam=1.0, tau=0.001, space=space,
                                 eta_hat=smaller)


def diagonal_schedule(eta_hat=5e-3):
    dim = 8
    sigma = np.exp(-np.arange(dim))
    space = lp_space(dim)
    model = DiagonalLinearModel(sigma)
    ydelta = sigma.copy()
    levels = []
    for m in [2, 4, 6, 8]:
        sup = list(range(m))
        zdag, eta = model.best_subspace_solution(ydelta, sup)
        levels.append(Level(
            eta=eta, C=model.subspace_stability_constant(sup),
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

    def test_on_iteration_gets_each_level_index(self):
        space, sched = diagonal_schedule()
        history = run_multi_level(space, sched, np.zeros(space.dim))
        seen = []
        streamed = run_multi_level(space, sched, np.zeros(space.dim),
                                   on_iteration=lambda n, st:
                                   seen.append((n, st.k, st.x.tobytes(),
                                                st.rk, st.bregman_to_ref)))
        assert seen == [(n, st.k, st.x.tobytes(), st.rk, st.bregman_to_ref)
                        for n, _, _, rep in history.per_level
                        for st in rep.iterations]
        assert {n for n, *_ in seen} == {0, 1, 2, 3}
        assert all(rep.iterations == [] for *_, rep in streamed.per_level)
        assert [k for _, k, _, _ in streamed.per_level] \
            == [k for _, k, _, _ in history.per_level]
        assert streamed.x_final.tobytes() == history.x_final.tobytes()

    def test_index_is_position_and_only_the_last_level_runs_to_eta_hat(
            self, monkeypatch):
        # Equal constants on every level: nothing but the position tells
        # the levels apart.
        import projsd.multilevel
        space, sched = diagonal_schedule()
        c = max(lv.C for lv in sched.levels)
        for lv in sched.levels:
            lv.C = c
        thresholds = []
        run = projsd.multilevel._run

        def recording(space, cset, model, data, x, config, *args):
            thresholds.append(config.eta_hat)
            return run(space, cset, model, data, x, config, *args)

        monkeypatch.setattr(projsd.multilevel, "_run", recording)
        seen = set()
        report = run_multi_level(space, sched, np.zeros(space.dim),
                                 on_iteration=lambda n, st: seen.add(n))
        n_levels = len(sched.levels)
        assert report.stop_reason == "DiscrepancyMet"
        assert thresholds == [(3.0 + sched.epsilon) * lv.eta
                              for lv in sched.levels[:-1]] + [sched.eta_hat]
        assert [n for n, *_ in report.per_level] == list(range(n_levels))
        assert seen == set(range(n_levels))
        transitions, final = validate_schedule(space, sched)
        assert [n for n, *_ in transitions] == list(range(n_levels - 1))
        assert final == n_levels - 1

    def test_linear_level_with_positive_L_runs_with_its_ctilde(self):
        # The run reads the level's L, not the linear model's lip = 0, so
        # c-tilde > 0: a finite radius, and other steps than at L = 0.
        def run(L):
            space, sched = diagonal_schedule()
            levels = sched.levels[:2]
            for lv in levels:
                lv.L = L
            sched = Schedule(levels=levels, epsilon=1.0,
                             eta_hat=4.0 * levels[-1].eta)
            return space, sched, run_multi_level(space, sched,
                                                 np.zeros(space.dim))

        space, sched, report = run(1e-4)
        assert report.stop_reason == "DiscrepancyMet"
        for lv, (*_, rep) in zip(sched.levels, report.per_level):
            assert lv.ctilde(space) > 0.0
            assert rep.rho == lv.rho(space) < math.inf
        _, _, linear = run(0.0)
        assert [rep.rho for *_, rep in linear.per_level] == [math.inf] * 2
        assert [k for _, k, _, _ in report.per_level] \
            != [k for _, k, _, _ in linear.per_level]

    def test_handoff_stays_feasible(self):
        space, sched = diagonal_schedule()
        report = run_multi_level(space, sched, np.zeros(space.dim))
        for (idx, _, _, rep), lv in zip(report.per_level, sched.levels):
            assert member(space, lv.cset, rep.x_final, tol=1e-8)

    def test_level_beyond_the_float_range_is_refused(self):
        # C = 1e200 ended in an OverflowError before any level ran.
        space, sched = diagonal_schedule()
        sched.levels[1].C, sched.levels[1].L = 1e200, 0.1
        with pytest.raises(EtaTooLarge, match=r"^level 1: .* = inf >= 1"):
            run_multi_level(space, sched, np.zeros(space.dim))

    def test_constants_only_levels_cannot_run(self):
        space = lp_space(2)
        levels = [Level(eta=0.1, C=1.0, L=0.0, Lhat=1.0),
                  Level(eta=0.01, C=2.0, L=0.0, Lhat=1.0)]
        sched = Schedule(levels=levels, epsilon=1.0, eta_hat=0.05)
        with pytest.raises(TransitionInvalid):
            run_multi_level(space, sched, np.zeros(2))


def random_level(rng, space):
    """A level with random constants and 8 * ctilde * eta in (0, 0.9)."""
    C, L, Lhat = rng.uniform(0.2, 4.0, 3)
    ct = Level(eta=0.0, C=C, L=L, Lhat=Lhat).ctilde(space)
    return Level(eta=rng.uniform(0.0, 0.9) / (8.0 * ct),
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
            model = ForwardModel()
            model.lip, model.lhat, model.cstab = lv.L, lv.Lhat, lv.C
            ctilde = compute_ctilde(space, model)
            assert lv.ctilde(space) == ctilde
            assert lv.rho(space) == convergence_radius(
                space, lv.Lhat, ctilde, lv.eta)

    def test_level_rho_infinite_when_linear(self):
        rng = np.random.default_rng(32)
        space = random_space(rng)
        lv = Level(eta=10.0, C=3.0, L=0.0, Lhat=2.0)
        assert lv.rho(space) == math.inf

    def test_transition_rhs_is_radius_budget(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            space = random_space(rng)
            nxt = random_level(rng, space)
            first = Level(eta=10 * nxt.eta, C=1.0, L=0.0, Lhat=1.0)
            _, rhs, _ = validate_transition(space, first, nxt, 1.0)
            rho = nxt.rho(space)
            expected = rho ** (1.0 / space.p) / nxt.C - nxt.eta
            assert rhs == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_eta_too_large_through_every_caller(self):
        space = lp_space(2)
        bad = Level(eta=0.2, C=1.0, L=1.0, Lhat=1.0)
        assert 8.0 * bad.ctilde(space) * bad.eta >= 1.0
        good = Level(eta=0.01, C=1.0, L=0.0, Lhat=1.0)
        with pytest.raises(EtaTooLarge):
            convergence_radius(space, bad.Lhat, bad.ctilde(space), bad.eta)
        with pytest.raises(EtaTooLarge):
            bad.rho(space)
        with pytest.raises(EtaTooLarge):
            validate_transition(space, good, bad, 1.0)
