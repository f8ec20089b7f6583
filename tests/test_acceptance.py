"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS line on success (visible with -s or on
failure); the test name states the guarantee.  The whole module runs in
well under a minute on one core.
"""

import math
import os
import re

import numpy as np
import pytest
import yaml
from oracles import adjoint_gap

from projsd import (Ball, Box, CoordinateSubspace, DiagonalLinearModel,
                    Level, LinearModel, NoisyData, NonpositiveU,
                    QuadraticModel, Schedule, SolverConfig,
                    TransitionInvalid, WholeSpace, bregman_distance,
                    bregman_project, convergence_radius, duality_map,
                    example_schedule, inverse_duality_map, lp_space, norm,
                    run_algorithm1, run_multi_level, select_final_level,
                    validate_schedule, validate_transition)
from projsd.cli import main as cli_main
from projsd.cli import parse_config

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def test_criterion_1_hilbert_linear_reduction():
    """Hilbert + linear: iterates equal classical steepest descent."""
    dim = 10
    rng = np.random.default_rng(10)
    B = rng.standard_normal((dim, dim))
    A = B @ B.T + dim * np.eye(dim)
    space = lp_space(dim)
    model = LinearModel(A)
    ztrue = rng.standard_normal(dim)
    data = NoisyData(A @ ztrue, 0.0)
    x0 = rng.standard_normal(dim)
    cfg = SolverConfig(eta=0.0, eta_hat=1e-300, max_iterations=50)
    report = run_algorithm1(space, WholeSpace(), model, data, x0, cfg)
    assert len(report.iterations) == 50

    x = x0.copy()
    for state in report.iterations:
        np.testing.assert_allclose(state.x, x, rtol=0.0, atol=1e-12)
        R = A @ x - data.ydelta
        g = A.T @ R
        mu = float(R @ R) / float(g @ g)
        x = x - mu * g
    np.testing.assert_allclose(report.x_final, x, rtol=0.0, atol=1e-12)
    print("PASS criterion 1: Hilbert/linear reduction matches classical "
          "steepest descent within 1e-12 over 50 iterations")


def test_criterion_2_radius_cross_formula():
    """Zero-noise radius equals the product form; Hilbert unit case 1/2."""
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = rng.uniform(1.2, 5.0)
        cp = rng.uniform(0.1, 1.0)
        lhat, L, C = rng.uniform(0.2, 4.0, 3)
        space = lp_space(2, r=2.0, p=p, Cp=cp, Gq=1.0)
        ctilde = 0.5 * (cp / p) ** (-2.0 / p) * L * C ** 2
        rho = convergence_radius(space, lhat=lhat, ctilde=ctilde, eta=0.0)
        expected = (cp / p) ** 3 * (lhat * L * C ** 2 / 2.0) ** -p
        assert rho == pytest.approx(expected, rel=1e-12)
    space = lp_space(2)
    ctilde = 0.5 * (space.Cp / space.p) ** (-2.0 / space.p)
    assert convergence_radius(space, 1.0, ctilde, 0.0) == pytest.approx(
        0.5, rel=1e-12)
    print("PASS criterion 2: radius cross-formula agrees within 1e-12 on "
          "100 tuples; Hilbert unit case gives 1/2")


def test_criterion_3_monotonicity_quadratic():
    """Noisy quadratic run: discrepancy stop, strict Bregman descent,
    per-step bound, strict negativity, and summability."""
    dim = 6
    space = lp_space(dim)
    a = np.array([1.0, 1.2, 1.4, 1.6, 1.8, 2.0])
    eps = 0.01
    lower = np.zeros(dim)
    upper = np.ones(dim)
    cset = Box(lower, upper)
    zdag = upper.copy()
    # F is componentwise increasing on the box, so pushing the data above
    # F(upper corner) makes the corner the exact best approximation and
    # eta the attained distance; the stability constant is the inverse of
    # the smallest derivative over the box.
    eta = 1e-3
    u = np.full(dim, 1.0 / math.sqrt(dim))
    cstab = 2.0 ** -0.5 / float(np.min(a))
    lhat = float(np.max(a)) + 2.0 * eps
    model = QuadraticModel(np.diag(a), eps=eps, cstab=cstab, lhat=lhat)
    ydelta = model.eval(zdag) + eta * u
    assert float(np.linalg.norm(model.eval(zdag) - ydelta)) \
        == pytest.approx(eta)
    data = NoisyData(ydelta, eta)

    x0 = np.zeros(dim)
    cfg = SolverConfig(eta=eta, eta_hat=3.01 * eta,
                       diagnostic_reference=zdag)
    report = run_algorithm1(space, cset, model, data, x0, cfg)

    assert report.stop_reason == "DiscrepancyMet"
    assert report.final_residual <= 3.01 * eta
    assert report.monotonicity_violations == 0
    bregs = [st.bregman_to_ref for st in report.iterations]
    assert all(b2 < b1 + 1e-10 for b1, b2 in zip(bregs, bregs[1:]))
    assert report.strict_bound_violations == 0
    assert report.radius_violations == 0
    assert all(st.radius_ok for st in report.iterations)
    b0 = float(bregman_distance(space, x0, zdag))
    assert report.descent_sum <= b0 + 1e-8
    print(f"PASS criterion 3: quadratic run stopped at K="
          f"{report.stopped_at_k} with residual <= 3.01*eta, zero "
          f"monotonicity violations, strict per-step descent, and "
          f"descent sum {report.descent_sum:.6f} <= {b0:.6f} + 1e-8")


GEOMETRIES_4 = [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)]


def _members(cset, space, rng, n):
    d = space.dim
    x = 0.4 * rng.standard_normal((n, d))
    if isinstance(cset, Box):
        return np.clip(x, cset.lower, cset.upper)
    if isinstance(cset, Ball):
        dist = norm(space, x - cset.center)
        scale = np.where(dist > cset.radius,
                         cset.radius / np.maximum(dist, 1e-300), 1.0)
        return cset.center + scale[:, None] * (x - cset.center)
    if isinstance(cset, CoordinateSubspace):
        return np.where(np.isin(np.arange(d), cset.support), x, 0.0)
    return x


def test_criterion_4_projection_properties():
    """10^4 (x, z) pairs per set variant and geometry satisfy the
    three-point inequality; the projection is idempotent."""
    dim = 4
    n_x, n_z = 100, 100
    total = 0
    for r, p in GEOMETRIES_4:
        space = lp_space(dim, r=r, p=p)
        rng = np.random.default_rng(40)
        sets = [WholeSpace(),
                Box(-0.5 * np.ones(dim), 0.5 * np.ones(dim)),
                Ball(np.zeros(dim), 0.75),
                CoordinateSubspace([0, 2])]
        for cset in sets:
            xs = 1.5 * rng.standard_normal((n_x, dim))
            zs = _members(cset, space, rng, n_z)
            for x in xs:
                px = bregman_project(space, cset, x)
                d_x_px = float(bregman_distance(space, x, px))
                lhs = bregman_distance(space, px[None, :].repeat(n_z, 0),
                                       zs) + d_x_px
                rhs = bregman_distance(space, x[None, :].repeat(n_z, 0),
                                       zs)
                assert np.all(lhs <= rhs + 1e-10), \
                    (r, p, type(cset).__name__)
                ppx = bregman_project(space, cset, px)
                assert float(norm(space, px - ppx)) <= 1e-10
                total += n_z
    print(f"PASS criterion 4: three-point inequality and idempotence hold "
          f"on {total} (x, z) pairs across 4 set variants x 3 geometries")


def test_criterion_5_duality_round_trip_and_norm_relations():
    """J round trip within 1e-10 on 10^3 vectors per geometry; sampled
    norm comparison inequalities hold with zero violations."""
    shipped = [(2.0, 2.0), (1.5, 2.0), (3.0, 3.0), (4.0, 4.0)]
    for r, p in shipped:
        space = lp_space(6, r=r, p=p)
        rng = np.random.default_rng(50)
        x = 2.0 * rng.standard_normal((1000, 6))
        back = inverse_duality_map(space, duality_map(space, x))
        assert np.max(np.abs(back - x)) <= 1e-10

        xt = 2.0 * rng.standard_normal((10_000, 6))
        x2 = 2.0 * rng.standard_normal((10_000, 6))
        half = 5000
        xt[:half] = x2[:half] * rng.uniform(-2.0, 2.0, (half, 1))
        breg = bregman_distance(space, x2, xt)
        gap = norm(space, x2 - xt)
        lower = (space.Cp / space.p) * gap ** space.p
        assert np.all(breg >= lower - 1e-9 * (1.0 + lower))

        dual = space.dual()
        breg_d = bregman_distance(dual, x2, xt)
        gap_d = norm(dual, x2 - xt)
        upper = (space.Gq / dual.p) * gap_d ** dual.p
        assert np.all(breg_d <= upper + 1e-9 * (1.0 + upper))
    print("PASS criterion 5: duality-map round trip within 1e-10 on 10^3 "
          "vectors and both norm comparison inequalities hold with zero "
          "violations on 10^4 samples per geometry")


def test_criterion_6_example_schedule_reproduction():
    """Closed-form schedule: eta_0, curvature constants, radius bracket,
    transitions, and final-level selection."""
    space = lp_space(4)
    eta_hat = 1e-3
    lam = 100.0 * eta_hat
    tau = 0.5 * (space.Cp / space.p) ** (3.0 / space.p) \
        / (16.0 * lam * (4.0 * math.e + 1.0))
    sched = example_schedule(lam=lam, tau=tau, space=space,
                             eta_hat=eta_hat)
    assert sched.levels[0].eta == lam / 2.0  # exact, no tolerance
    cfac = (space.Cp / space.p)
    for n, lv in enumerate(sched.levels):
        expected_ct = 2.0 * tau * cfac ** (-2.0 / space.p) * math.exp(n)
        assert lv.ctilde(space) == pytest.approx(expected_ct, rel=1e-12)
        rho = lv.rho(space)
        lo = cfac ** 3 * (8.0 * tau) ** -space.p * (n + 1.0) ** -space.p
        hi = cfac ** 3 * (2.0 * tau) ** -space.p * (n + 1.0) ** -space.p
        assert lo < rho < hi
    transitions, final = validate_schedule(space, sched)
    assert all(ok for *_, ok in transitions)
    etas = [lam * math.exp(-a) / (a + 2.0) for a in range(64)]
    expected_n = next(n for n, e in enumerate(etas) if 4.0 * e <= eta_hat)
    assert select_final_level(etas, 1.0, eta_hat) == expected_n
    assert final == expected_n == len(sched.levels) - 1
    print(f"PASS criterion 6: example schedule reproduces eta_0 = lam/2, "
          f"curvature constants and radius bracket at every level, all "
          f"transitions valid, final level N={final}")


def test_criterion_7_end_to_end_multilevel():
    """Diagonal-decay model over nested subspaces reaches the target
    residual with finite per-level counts and admissible starts."""
    dim = 8
    sigma = np.exp(-np.arange(dim))
    space = lp_space(dim)
    model = DiagonalLinearModel(sigma)
    ydelta = sigma.copy()
    eta_hat = 5e-3
    levels = []
    for m in [2, 4, 6, 8]:
        sup = list(range(m))
        zdag, eta = model.best_subspace_solution(ydelta, sup)
        levels.append(Level(
            eta=eta, C=model.subspace_stability_constant(sup),
            L=0.0, Lhat=1.0, cset=CoordinateSubspace(sup), model=model,
            ydelta=ydelta, reference=zdag))
    sched = Schedule(levels=levels, epsilon=1.0, eta_hat=eta_hat)
    report = run_multi_level(space, sched, np.zeros(dim))
    assert report.stop_reason == "DiscrepancyMet"
    assert report.final_residual <= eta_hat
    ks = [k for _, k, _, _ in report.per_level]
    assert len(ks) == 4 and all(1 <= k < 10 ** 6 for k in ks)
    assert all(flag for flag in report.start_radius_ok)
    print(f"PASS criterion 7: multilevel run reached residual "
          f"{report.final_residual:.3e} <= {eta_hat} with per-level "
          f"K={ks} and admissible starting points at every level")


def test_criterion_8_derivative_and_adjoint_certification():
    """Each model's adjoint matches a central difference of its evaluation:
    ``|<(F(x+sh) - F(x-sh))/(2s), y*> - <h, DF(x)* y*>| < 1e-10`` at
    s = 1e-3, where the difference is exact for linear and quadratic F."""
    rng = np.random.default_rng(80)
    models = [
        LinearModel(rng.standard_normal((5, 4))),
        DiagonalLinearModel(np.exp(-np.arange(5))),
        QuadraticModel(rng.standard_normal((4, 4)), eps=0.3),
    ]
    for model in models:
        d_in = model.matrix.shape[1]
        for _ in range(100):
            x = rng.standard_normal(d_in)
            h = rng.standard_normal(d_in)
            ystar = rng.standard_normal(model.out_dim)
            assert adjoint_gap(model, x, h, ystar) < 1e-10
    print("PASS criterion 8: adjoint against a central difference of eval "
          "< 1e-10 on 100 probes for each shipped model")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical config and seed produce byte-identical trace CSVs."""
    doc = {
        "mode": "single",
        "space": {"dim": 3},
        "model": {"kind": "linear",
                  "matrix": [[3.0, 0.5, 0.0], [0.5, 3.0, 0.5],
                             [0.0, 0.5, 3.0]]},
        "set": {"kind": "wholespace"},
        "data": {"ydelta": [1.0, 2.0, 3.0]},
        "solver": {"etaHat": 1.0e-8, "seed": 42},
        "diagnostics": {"referenceSolution": [0.2549019607843137,
                                              0.47058823529411764,
                                              0.9215686274509803],
                        "checkTheorems": True},
        "x0": [0.0, 0.0, 0.0],
        "output": {"tracePath": str(tmp_path / "a.csv")},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli_main(["run", str(path), "--quiet"]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli_main(["run", str(path), "--trace",
                     str(tmp_path / "b.csv"), "--quiet"]) == 0
    second = (tmp_path / "b.csv").read_bytes()
    assert first == second and len(first) > 0
    print("PASS criterion 9: two CLI invocations with identical config "
          "and seed produced byte-identical trace CSVs")


def nonlinear_schedule(eps):
    """Nested boxes for F_i(x) = sigma_i x_i + eps x_i**2 at d = 8, with
    sigma_i = exp(-i/2).  Level m = 1..8 is the box [-1, 1] on the first
    m coordinates and {0} on the rest; its reference is the truth
    x_i = 0.8 exp(-0.3 i) truncated to that support, and its constants
    are true bounds for this separable model on the box:
    C_m = 1 / min_{i<m} (sigma_i - 2 eps), L = 2 eps and
    Lhat = max_i (sigma_i + 2 eps).  The model states no constant; each
    level's run reads the level's."""
    d = 8
    i = np.arange(d)
    sigma = np.exp(-i / 2.0)
    model = QuadraticModel(np.diag(sigma), eps)
    truth = 0.8 * np.exp(-0.3 * i)
    g = np.random.default_rng(0).standard_normal(d)
    ydelta = model.eval(truth) + 1e-4 * g / np.linalg.norm(g)
    levels = []
    for m in range(1, d + 1):
        inside = i < m
        ref = np.where(inside, truth, 0.0)
        eta = float(np.linalg.norm(model.eval(ref) - ydelta))
        levels.append(Level(
            eta=eta,
            C=float(1.0 / np.min(sigma[:m] - 2.0 * eps)), L=2.0 * eps,
            Lhat=float(np.max(sigma + 2.0 * eps)),
            cset=Box(np.where(inside, -1.0, 0.0), np.where(inside, 1.0, 0.0)),
            model=model, ydelta=ydelta, reference=ref))
    return lp_space(d), Schedule(levels=levels, epsilon=1.0,
                                 eta_hat=4.0 * levels[-1].eta)


@pytest.mark.parametrize("eps, ks, single_k", [
    (3e-4, [0, 1, 0, 2, 4, 4, 4, 111], 111),
    (5e-4, [0, 1, 0, 2, 4, 4, 9, 99], None),
])
def test_criterion_10_nonlinear_multilevel(eps, ks, single_k):
    """Nonlinear F over nested boxes: the multi-level run meets the
    discrepancy from admissible starts, also where the single-level run
    on the finest set starts outside its radius and stops at k = 0."""
    space, sched = nonlinear_schedule(eps)
    report = run_multi_level(space, sched, np.zeros(space.dim))
    assert report.stop_reason == "DiscrepancyMet"
    assert report.final_residual <= sched.eta_hat
    assert [k for _, k, _, _ in report.per_level] == ks
    assert all(report.start_radius_ok)
    assert sum(rep.monotonicity_violations
               for *_, rep in report.per_level) == 0

    # The single-level run on the finest box, with its constants: the
    # model's L = 2 eps is the level's.
    lv = sched.levels[-1]
    model = QuadraticModel(lv.model.matrix, eps, cstab=lv.C, lhat=lv.Lhat)
    assert model.lip == lv.L
    cfg = SolverConfig(eta=lv.eta, eta_hat=sched.eta_hat,
                       diagnostic_reference=lv.reference)
    single = run_algorithm1(space, lv.cset, model,
                            NoisyData(lv.ydelta, lv.eta),
                            np.zeros(space.dim), cfg)
    if single_k is not None:
        assert single.stop_reason == "DiscrepancyMet"
        assert single.stopped_at_k == single_k
        assert single.start_radius_ok
    else:
        assert single.stop_reason == "StepDegenerate"
        assert single.stopped_at_k == 0
        assert isinstance(single.failure, NonpositiveU)
        assert str(single.failure).startswith("u_0 = -0.0459")
        assert single.rho == pytest.approx(0.3623, abs=1e-4)
        assert single.start_radius_ok is False
    print(f"PASS criterion 10: eps = {eps}: multi-level K={ks}; "
          f"single-level {single.stop_reason} at k={single.stopped_at_k}")


def test_level_runs_read_the_level_constants():
    """Each level's run reads the level's C, L and Lhat, not the constants
    its model states, and leaves the model unchanged: with a model that
    states cstab = lhat = 99 the schedule runs as with one that states
    none."""
    space, plain = nonlinear_schedule(5e-4)
    _, stating = nonlinear_schedule(5e-4)
    base = stating.levels[0].model
    model = QuadraticModel(base.matrix, base.eps, cstab=99.0, lhat=99.0)
    for lv in stating.levels:
        lv.model = model

    def fields(m):
        return {key: val.tobytes() if isinstance(val, np.ndarray) else val
                for key, val in vars(m).items()}

    runs = []
    for sched in (plain, stating):
        model = sched.levels[0].model
        assert all(lv.model is model for lv in sched.levels)
        before = fields(model)
        states = []
        report = run_multi_level(
            space, sched, np.zeros(space.dim),
            on_iteration=lambda n, st: states.append(
                (n, st.k, st.x.tobytes(), st.xtilde.tobytes())))
        assert fields(model) == before
        for lv, (*_, rep) in zip(sched.levels, report.per_level):
            assert rep.rho == lv.rho(space)
        runs.append((report.stop_reason, states,
                     [(n, k, rep.stop_reason, rep.x_final.tobytes())
                      for n, k, _, rep in report.per_level]))
    assert runs[0] == runs[1]
    assert [k for _, k, *_ in runs[0][2]] == [0, 1, 0, 2, 4, 4, 9, 99]


def test_criterion_10_transition_fails_at_stronger_nonlinearity():
    """At eps = 1e-3 the coupling from level 6 into level 7 fails."""
    space, sched = nonlinear_schedule(1e-3)
    lhs, rhs, _ = validate_transition(space, *sched.levels[6:8],
                                      sched.epsilon)
    with pytest.raises(TransitionInvalid, match=re.escape(
            f"at levels [6]: level 6: lhs {lhs} is not below rhs {rhs}")
            + "$"):
        run_multi_level(space, sched, np.zeros(space.dim))
    print("PASS criterion 10: eps = 1e-3 fails the transition at level 6")


def test_criterion_11_nonlinear_example_config(tmp_path):
    """The shipped nonlinear multi-level config holds the eps = 5e-4
    schedule, and the CLI runs it byte-stably with the library's K."""
    path = os.path.join(EXAMPLES, "nonlinear_multilevel.yaml")
    space, sched = nonlinear_schedule(5e-4)
    with open(path) as fh:
        cfg = parse_config(fh.read())
    assert cfg.eta_hat == sched.eta_hat
    for got, want in zip(cfg.levels, sched.levels, strict=True):
        assert (got.eta, got.C, got.L, got.Lhat) \
            == (want.eta, want.C, want.L, want.Lhat)
        assert np.array_equal(got.reference, want.reference)
        assert np.array_equal(got.ydelta, want.ydelta)
        assert np.array_equal(got.cset.lower, want.cset.lower)
        assert np.array_equal(got.cset.upper, want.cset.upper)

    outputs = []
    for n in range(2):
        trace, summary = tmp_path / f"t{n}.csv", tmp_path / f"s{n}.yaml"
        assert cli_main(["run", path, "--quiet", "--trace", str(trace),
                         "--summary", str(summary)]) == 0
        outputs.append((trace.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    per_level = yaml.safe_load(outputs[0][1])["perLevel"]
    library = run_multi_level(space, sched, np.zeros(space.dim))
    assert [lv["K"] for lv in per_level] \
        == [k for _, k, _, _ in library.per_level]
    print("PASS criterion 11: nonlinear example config matches the "
          "eps = 5e-4 schedule; two CLI runs byte-identical")
