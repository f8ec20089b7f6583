"""Seeded problem generators and correctness checks for the workloads.

Each workload turns ``--seed`` into a pool of cases.  A case owns the
generated arrays, runs one solve through the public API of ``projsd`` and
checks the outcome.  The library never sees the seed, only the arrays.

Functions of ``projsd`` are looked up on their module at call time
(``projsd.solver.run_algorithm1``, ``projsd.cli.main``), so the traced run
sees the same bindings as any other caller.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
import yaml

import projsd.cli
import projsd.geometry
import projsd.models
import projsd.multilevel
import projsd.sets
import projsd.solver

# Every solve must end with this stop reason and residual <= eta_hat.
STOP_OK = "DiscrepancyMet"

# Worst accepted ||x_K - x_true|| / ||x_true|| per workload.  The stop at
# 3.01 eta leaves a noise-sized error; the multilevel problem keeps the
# weakly observed tail coordinates (sigma = e^-7) far from the reference.
REL_ERROR_TOL = {
    "hilbert_dense": 0.15,
    "banach_projected": 0.3,
    "multilevel_cli": 0.6,
}

# Per-level K of the criterion-7 schedule and of a single-level whole-space
# run to the same eta_hat (ROADMAP baseline).
MULTILEVEL_K = [1, 18, 86, 4502]
SINGLE_LEVEL_K = 3797


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unit(v):
    return v / np.linalg.norm(v)


def _interleave(groups):
    """Round-robin over the groups, so that a slow phase of the machine
    does not fall on one group only."""
    longest = max(len(g) for g in groups)
    return [g[i] for i in range(longest) for g in groups if i < len(g)]


def _dct_basis(d):
    i = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    basis = np.cos(np.pi * (i + 0.5) * k / d) * math.sqrt(2.0 / d)
    basis[:, 0] /= math.sqrt(2.0)
    return basis


class SolverCase:
    """One ``run_algorithm1`` problem with its generating truth."""

    def __init__(self, label, space, cset, model, ydelta, eta, truth,
                 design=None):
        self.label = label
        self.design = design or label
        self.space = space
        self.cset = cset
        self.model = model
        self.data = projsd.models.NoisyData(ydelta, eta)
        self.truth = truth
        self.x0 = np.zeros(space.dim)
        self.config = projsd.solver.SolverConfig(eta=eta, eta_hat=3.01 * eta)
        self.reference = None
        # Whether the first solve also gets the three-point spot-check.
        self.spot_check = False

    def solve(self):
        return projsd.solver.run_algorithm1(self.space, self.cset,
                                            self.model, self.data, self.x0,
                                            self.config)

    def iterations(self, report):
        return report.stopped_at_k

    def rel_error(self, report):
        return float(np.linalg.norm(report.x_final - self.truth)
                     / np.linalg.norm(self.truth))

    def check(self, report):
        """Failure messages for one solve; the first solve becomes the
        reference that later solves must reproduce bit for bit."""
        errors = []
        if report.stop_reason != STOP_OK:
            errors.append(f"{self.label}: stop reason {report.stop_reason}")
        if not report.final_residual <= self.config.eta_hat:
            errors.append(f"{self.label}: residual {report.final_residual} "
                          f"> eta_hat {self.config.eta_hat}")
        if self.reference is None:
            self.reference = (report.stopped_at_k,
                              report.x_final.tobytes())
        elif (report.stopped_at_k, report.x_final.tobytes()) \
                != self.reference:
            errors.append(f"{self.label}: repeat solve differs from the "
                          "first one")
        return errors


class CliCase:
    """One ``projsd run`` invocation of a multilevel config."""

    design = "criterion7"

    def __init__(self, label, config_path, trace_path, summary_path, truth,
                 eta_hat):
        self.label = label
        self.eta_hat = eta_hat
        self.config_path = config_path
        self.trace_path = trace_path
        self.summary_path = summary_path
        self.truth = truth
        self.reference = None

    def solve(self):
        return projsd.cli.main(["run", self.config_path, "--quiet"])

    def outputs(self):
        with open(self.trace_path, "rb") as fh:
            trace = fh.read()
        with open(self.summary_path, "rb") as fh:
            summary = fh.read()
        return trace, summary

    def level_iterations(self):
        with open(self.summary_path) as fh:
            return [lv["K"] for lv in yaml.safe_load(fh)["perLevel"]]

    def iterations(self, code):
        return sum(self.level_iterations())

    def check(self, code):
        if code != 0:
            return [f"{self.label}: exit code {code}"]
        trace, summary = self.outputs()
        digest = (hashlib.sha256(trace).hexdigest(),
                  hashlib.sha256(summary).hexdigest())
        if self.reference is not None:
            if digest != self.reference:
                return [f"{self.label}: trace or summary differs from the "
                        "first invocation"]
            return []
        self.reference = digest
        doc = yaml.safe_load(summary)
        errors = []
        ks = [lv["K"] for lv in doc["perLevel"]]
        if doc["stopReason"] != STOP_OK:
            errors.append(f"{self.label}: stop reason {doc['stopReason']}")
        if ks != MULTILEVEL_K:
            errors.append(f"{self.label}: per-level K {ks} != {MULTILEVEL_K}")
        if not doc["finalResidual"] <= self.eta_hat:
            errors.append(f"{self.label}: residual {doc['finalResidual']} "
                          f"> eta_hat {self.eta_hat}")
        rows = trace.count(b"\n") - 1
        if rows != sum(MULTILEVEL_K):
            errors.append(f"{self.label}: {rows} trace rows")
        # The CLI does not write x_K; rerun the parsed schedule through the
        # library (outside any timing) and require the same per-level K.
        report = self.library_run()
        lib_ks = [k for _, k, _, _ in report.per_level]
        if lib_ks != ks:
            errors.append(f"{self.label}: library K {lib_ks} != CLI K {ks}")
        self.x_final = report.x_final
        return errors

    def library_run(self):
        with open(self.config_path) as fh:
            cfg = projsd.cli.parse_config(fh.read())
        schedule = projsd.multilevel.Schedule(
            levels=cfg.levels, epsilon=cfg.epsilon, eta_hat=cfg.eta_hat)
        return projsd.multilevel.run_multi_level(cfg.space, schedule, cfg.x0)

    def rel_error(self, code):
        return float(np.linalg.norm(self.x_final - self.truth)
                     / np.linalg.norm(self.truth))

    def trace_stats(self):
        trace, _ = self.outputs()
        return trace.count(b"\n") - 1, len(trace)


# --------------------------------------------------------------------------
# hilbert_dense: r = p = 2, d = 1024, dense models.

HILBERT_DIM = 1024
HILBERT_NOISE = 0.01          # eta / ||F(x_true)||, linear cases
QUADRATIC_NOISE = 1e-3        # eta / ||F(x_true)||, quadratic cases
BOX_BOUND = 1.15              # about 25% of N(0, 1) truth entries clip
# K ranges from 111 to 313 over the Box designs, so one run solves many
# distinct truths.  Box cases are the majority, so the
# medians fall inside the Box group rather than between the Box and
# WholeSpace groups.
HILBERT_LINEAR_BOX = 24
HILBERT_LINEAR_WHOLE = 6
HILBERT_QUADRATIC = 4
# The designs (truths, noise, quadratic coefficients) are drawn from this
# seed; --seed picks the symmetry that relabels them (see hilbert_dense).
HILBERT_DESIGNS_SEED = 0


def hilbert_dense(seed, workdir):
    """Fixed designs relabelled by a seeded symmetry: a rotation U of the
    data space, a signed coordinate permutation P of X for the linear
    cases (A -> U diag(sv) (P V)^T, x -> P x) and a coordinate permutation
    for the quadratic ones.  Norms, sets and the iteration are invariant,
    so K and the error of each design repeat on every seed while every
    input array changes.  With truths drawn from the seed, the median solve
    time and the worst error spread by a fifth to a quarter between
    seeds."""
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(HILBERT_DESIGNS_SEED)
    d = HILBERT_DIM
    space = projsd.geometry.lp_space(d)
    sv = (1.0 + np.arange(d)) ** -0.5
    # Cosine right singular vectors, as for a smoothing operator.
    V = _dct_basis(d)
    U = _orthogonal(rng, d)
    perm = rng.permutation(d)
    P = np.eye(d)[perm] * rng.choice([-1.0, 1.0], size=d)[:, None]
    linear = projsd.models.LinearModel((U * sv) @ (P @ V).T)
    box = projsd.sets.Box(np.full(d, -BOX_BOUND), np.full(d, BOX_BOUND))
    whole = projsd.sets.WholeSpace()

    # Criterion-3 construction: F increasing on [0, 1]^d, the truth is a
    # vertex and the data are pushed outward, so the vertex is the best
    # approximation in the box and cstab is exact.
    a = (1.0 + fixed.uniform(size=d))[perm]
    eps = 0.01
    quadratic = projsd.models.QuadraticModel(
        np.diag(a), eps=eps, cstab=2.0 ** -0.5 / float(a.min()),
        lhat=float(a.max()) + 2.0 * eps)
    unit_box = projsd.sets.Box(np.zeros(d), np.ones(d))

    groups = {"box": [], "whole": [], "quadratic": []}
    for i in range(HILBERT_LINEAR_BOX + HILBERT_LINEAR_WHOLE):
        g = fixed.standard_normal(d)
        if i < HILBERT_LINEAR_BOX:
            truth = np.clip(g, -BOX_BOUND, BOX_BOUND)
            # A normal-cone element at the truth, pulled back through A^-T:
            # the clipped truth is then the best approximation in the box.
            normal = np.where(np.abs(g) > BOX_BOUND,
                              np.sign(g) * np.abs(fixed.standard_normal(d)),
                              0.0)
            u = _unit(U @ ((V.T @ normal) / sv))
            cset, kind = box, "box"
        else:
            truth = g
            u = U @ _unit(fixed.standard_normal(d))
            cset, kind = whole, "whole"
        truth = P @ truth
        clean = linear.eval(truth)
        eta = HILBERT_NOISE * float(np.linalg.norm(clean))
        groups[kind].append(SolverCase(f"linear-{kind}-{i}", space, cset,
                                       linear, clean + eta * u, eta, truth))
    for i in range(HILBERT_QUADRATIC):
        vertex = (fixed.uniform(size=d) < 0.5).astype(float)
        u = _unit((2.0 * vertex - 1.0) * np.abs(fixed.standard_normal(d)))
        vertex, u = vertex[perm], u[perm]
        clean = quadratic.eval(vertex)
        eta = QUADRATIC_NOISE * float(np.linalg.norm(clean))
        cset, kind = (unit_box, "box") if i % 2 == 0 else (whole, "whole")
        groups["quadratic"].append(SolverCase(
            f"quadratic-{kind}-{i}", space, cset, quadratic,
            clean + eta * u, eta, vertex))
    return _interleave(list(groups.values()))


# --------------------------------------------------------------------------
# banach_projected: non-Hilbert geometries, every set kind active.

# (r, d, set kind, eta / ||F(x_true)||, transformed copies per seed).  The
# noise levels keep the constraint active on most steps.  The cost of a
# scipy projection changes by up to 4x under rounding-level changes of its
# input, most of all SLSQP for the Ball, so no two copies cost the same.
# The copy counts put each statistic in the middle of one group rather
# than between groups: the cheap r = 3 Box cases hold both medians, the
# slow r = 3 Subspace cases (K = 744) hold the tail, and the Balls sit in
# between.
BANACH_DESIGNS = [
    (3.0, 16, "box", 0.01, 44),
    (3.0, 16, "ball", 0.05, 6),
    (3.0, 16, "subspace", 0.005, 20),
    (1.5, 32, "box", 5e-4, 4),
    (1.5, 32, "ball", 0.03, 6),
    (1.5, 32, "subspace", 5e-4, 4),
]
# Copies of each design whose first solve gets the three-point check.
THREE_POINT_COPIES = 2
BANACH_DECAY = 0.5            # singular values (1 + i)^-0.5


def _banach_design(r, d, kind, noise):
    """A fixed design whose data push the solution onto the boundary.

    The outward normal at the truth lies along the second singular vector,
    which the iteration resolves early, so the iterates reach the boundary
    long before the discrepancy stop and the set projects on most steps.
    Returns ``(A, truth, ydelta, eta, set parameters)``.
    """
    V = _dct_basis(d)
    sv = (1.0 + np.arange(d)) ** -BANACH_DECAY
    A = (V * sv) @ V.T
    v1 = V[:, 1]
    t = np.arange(d) / d
    if kind == "box":
        active = np.abs(v1) >= np.quantile(np.abs(v1), 0.25)
        truth = np.where(active, np.sign(v1), 0.5 * np.sin(6 * np.pi * t))
        normal = np.where(active, v1, 0.0)
        params = {"bound": 1.0}
    elif kind == "ball":
        center = 0.3 * np.sin(6 * np.pi * t)
        direction = np.abs(v1) ** (1.0 / (r - 1.0)) * np.sign(v1)
        direction /= float(np.sum(np.abs(direction) ** r) ** (1.0 / r))
        truth = center + direction
        normal = np.abs(direction) ** (r - 1.0) * np.sign(direction)
        params = {"center": center, "radius": 1.0}
    else:
        mask = np.arange(d) % 2 == 0
        truth = np.where(mask, np.sin(2 * np.pi * t + 0.3), 0.0)
        normal = np.where(mask, 0.0, v1)
        params = {"mask": mask}
    u = _unit(V @ ((V.T @ normal) / sv))
    clean = A @ truth
    eta = noise * float(np.linalg.norm(clean))
    return A, truth, clean + eta * u, eta, params


def banach_projected(seed, workdir):
    """Each design is relabelled by a seeded symmetry of the problem: a
    signed coordinate permutation P of X and a rotation Q of the data
    space, A -> Q A P^T.  Norms, sets and the iteration are invariant in
    exact arithmetic, so the seed changes every input array while K and
    the error of a design repeat; the cost of the scipy projections does
    not (see BANACH_DESIGNS)."""
    rng = np.random.default_rng(seed)
    groups = []
    for r, d, kind, noise, copies in BANACH_DESIGNS:
        cases = []
        space = projsd.geometry.lp_space(d, r=r)
        A, truth, ydelta, eta, params = _banach_design(r, d, kind, noise)
        for c in range(copies):
            perm = rng.permutation(d)
            signs = rng.choice([-1.0, 1.0], size=d)
            P = np.eye(d)[perm] * signs[:, None]
            Q = _orthogonal(rng, d)
            if kind == "box":
                b = params["bound"]
                cset = projsd.sets.Box(np.full(d, -b), np.full(d, b))
            elif kind == "ball":
                cset = projsd.sets.Ball(P @ params["center"],
                                        params["radius"])
            else:
                cset = projsd.sets.CoordinateSubspace(
                    np.nonzero(params["mask"][perm])[0])
            model = projsd.models.LinearModel(Q @ A @ P.T)
            design = f"r{r:g}-d{d}-{kind}"
            case = SolverCase(f"{design}-{c}", space, cset, model,
                              Q @ ydelta, eta, P @ truth, design)
            case.spot_check = c < THREE_POINT_COPIES
            cases.append(case)
        groups.append(cases)
    return _interleave(groups)


def three_point_failures(case, report):
    """Spot-check ``breg(P(x), z) + breg(x, P(x)) <= breg(x, z)`` on one
    projection of the solve that moved its point, with the truth and the
    final iterate as poles.  Returns failure messages."""
    its = report.iterations
    nxt = [st.x for st in its[1:]] + [report.x_final]
    moved = [k for k, st in enumerate(its)
             if not np.array_equal(st.xtilde, nxt[k])]
    if not moved:
        return [f"{case.label}: no projection moved its point"]
    xt = its[moved[len(moved) // 2]].xtilde
    errors = []
    for pole in (case.truth, report.x_final):
        lhs, rhs, _ = projsd.sets.check_total_nonexpansiveness(
            case.space, case.cset, xt, pole)
        if not lhs <= rhs + 1e-10 * max(1.0, rhs):
            errors.append(f"{case.label}: three-point law {lhs} > {rhs}")
    return errors


# --------------------------------------------------------------------------
# multilevel_cli: the criterion-7 schedule through the CLI.

MULTILEVEL_SUPPORTS = [2, 4, 6, 8]
MULTILEVEL_ETA_HAT = 5e-3


def _multilevel_arrays(seed):
    """The criterion-7 problem scaled by a seeded power of two.  Scaling
    data, errors and threshold by 2^k is exact in floating point, so every
    seed reproduces the same iterates up to that factor."""
    rng = np.random.default_rng(seed)
    scale = 2.0 ** int(rng.integers(-6, 7))
    sigma = np.exp(-np.arange(MULTILEVEL_SUPPORTS[-1]))
    return sigma, sigma * scale, MULTILEVEL_ETA_HAT * scale


def multilevel_cli(seed, workdir):
    sigma, ydelta, eta_hat = _multilevel_arrays(seed)
    model = projsd.models.DiagonalLinearModel(sigma)
    levels = []
    for m in MULTILEVEL_SUPPORTS:
        support = list(range(m))
        zdag, eta = model.best_subspace_solution(ydelta, support)
        levels.append({
            "eta": float(eta),
            "C": model.subspace_stability_constant(support),
            "L": 0.0,
            "Lhat": 1.0,
            "set": {"kind": "subspace", "support": support},
            "model": {"kind": "diagonal", "sigma": sigma.tolist()},
            "data": {"ydelta": ydelta.tolist()},
            "reference": zdag.tolist(),
        })
    trace = os.path.join(workdir, "trace.csv")
    summary = os.path.join(workdir, "summary.yaml")
    doc = {
        "mode": "multilevel",
        "space": {"dim": len(sigma)},
        "epsilon": 1.0,
        "solver": {"etaHat": float(eta_hat), "seed": int(seed)},
        "levels": levels,
        "x0": [0.0] * len(sigma),
        "output": {"tracePath": trace, "summaryPath": summary},
    }
    path = os.path.join(workdir, "multilevel.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return [CliCase(f"criterion7-scale{eta_hat / MULTILEVEL_ETA_HAT:g}",
                    path, trace, summary, np.asarray(levels[-1]["reference"]),
                    eta_hat)]


def single_level_iterations(seed):
    """K of one whole-space run of the multilevel problem to the same
    eta_hat, the base of ``multilevel.iter_ratio_vs_single``."""
    sigma, ydelta, eta_hat = _multilevel_arrays(seed)
    report = projsd.solver.run_algorithm1(
        projsd.geometry.lp_space(len(sigma)), projsd.sets.WholeSpace(),
        projsd.models.DiagonalLinearModel(sigma),
        projsd.models.NoisyData(ydelta, 0.0), np.zeros(len(sigma)),
        projsd.solver.SolverConfig(eta=0.0, eta_hat=eta_hat))
    return report.stopped_at_k


# Parts of the machine-speed kernel that times are scaled by (see
# run.SpeedProbe), chosen per workload as the parts whose speed tracks the
# workload's own.  hilbert_dense streams its 8 MB matrix; the other two
# spend their time in the interpreter, in numpy calls on small arrays and
# in small cache-resident products.
SPEED_KERNEL = {
    "hilbert_dense": ("dense_matvec",),
    "banach_projected": ("interp", "small_matvec"),
    "multilevel_cli": ("interp", "small_matvec"),
}

WORKLOADS = {
    "hilbert_dense": hilbert_dense,
    "banach_projected": banach_projected,
    "multilevel_cli": multilevel_cli,
}
