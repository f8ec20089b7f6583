"""Multi-level driver over nested convex sets.

Runs the single-level iteration on a schedule of levels whose stability
constants grow while the approximation errors shrink, handing the stopped
iterate of each level to the next as its starting point.  The level
transitions are validated against the coupling inequality between
neighboring constants, and the closed-form example schedule generator
reproduces the exponential constant models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (LambdaTooSmall, NoSuchLevel, TauOutOfRange,
                     TransitionInvalid)
from .geometry import SpaceGeometry
from .models import ForwardModel, NoisyData
from .sets import ConvexSet
from .solver import (RunReport, SolverConfig, _ctilde, _radius_bracket,
                     convergence_radius, run_algorithm1)

__all__ = [
    "Level",
    "Schedule",
    "MultiLevelReport",
    "validate_transition",
    "validate_schedule",
    "select_final_level",
    "run_multi_level",
    "example_schedule",
]


@dataclass
class Level:
    """One level of the schedule: the restricted operator, its set, and
    the certified constants of the restriction.

    ``cset`` and ``model`` may be None for validation-only schedules
    (closed-form constant models with no concrete operator attached).
    ``reference`` is the level's best approximating solution when known;
    it enables the starting-radius diagnostics.
    """

    index: int
    eta: float
    C: float
    L: float
    Lhat: float
    cset: ConvexSet | None = None
    model: ForwardModel | None = None
    data: NoisyData | None = None
    reference: np.ndarray | None = None

    def __post_init__(self):
        # C and Lhat divide the transition budget and the radius.
        for name, positive in (("eta", False), ("C", True), ("L", False),
                               ("Lhat", True)):
            v = getattr(self, name)
            if not (math.isfinite(v) and (v > 0.0 if positive
                                          else v >= 0.0)):
                raise ValueError(
                    f"level {self.index}: {name} = {v} must be "
                    f"{'positive' if positive else 'nonnegative'} and "
                    "finite")

    def ctilde(self, space: SpaceGeometry) -> float:
        return _ctilde(space, self.L, self.C)

    def rho(self, space: SpaceGeometry) -> float:
        """Level convergence radius; infinite when the level is linear."""
        return convergence_radius(space, self.Lhat, self.ctilde(space),
                                  self.eta)


@dataclass
class Schedule:
    """Ordered levels plus the uniform tolerance and target residual."""

    levels: list[Level]
    epsilon: float
    eta_hat: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("tolerance constant epsilon must be positive")
        if self.eta_hat <= 0:
            raise ValueError("eta_hat must be positive")

    @property
    def etas(self) -> list[float]:
        return [lv.eta for lv in self.levels]


@dataclass
class MultiLevelReport:
    """Outcome of a multi-level run."""

    per_level: list[tuple[int, int, float, RunReport]]
    x_final: np.ndarray | None
    stop_reason: str

    @property
    def final_residual(self) -> float:
        return self.per_level[-1][2] if self.per_level else math.nan

    @property
    def start_radius_ok(self) -> list[bool | None]:
        """Each run level's ``RunReport.start_radius_ok``."""
        return [rep.start_radius_ok for *_, rep in self.per_level]


def _level_threshold(epsilon: float, eta: float) -> float:
    """Discrepancy threshold ``(3 + eps) * eta_n`` of a level."""
    return (3.0 + epsilon) * eta


def validate_transition(space: SpaceGeometry, level_n: Level,
                        level_next: Level, epsilon: float):
    """Evaluate the neighbor-level coupling inequality.

    Returns ``(lhs, rhs, ok)`` where ``lhs = (3 + eps) * eta_n`` and
    ``rhs`` is the next level's admissible-start budget; ``ok`` requires
    strict inequality.
    """
    eta1 = level_next.eta
    bracket = _radius_bracket(level_next.ctilde(space), eta1)
    lhs = _level_threshold(epsilon, level_n.eta)
    rhs = (space.Cp / space.p) ** (1.0 / space.p) \
        / (level_next.Lhat * level_next.C) * bracket - eta1
    return lhs, rhs, lhs < rhs


def select_final_level(eta_sequence, epsilon: float, eta_hat: float) -> int:
    """First index whose approximation error satisfies
    ``(3 + eps) * eta_N <= eta_hat``.

    Raises
    ------
    NoSuchLevel
        If the sequence never gets small enough.
    """
    n = -1  # counted while iterating: an iterator is used up by then
    for n, eta in enumerate(eta_sequence):
        if _level_threshold(epsilon, eta) <= eta_hat:
            return n
    raise NoSuchLevel(
        f"no level with ({3 + epsilon}) * eta <= {eta_hat} in {n + 1} "
        "levels")


def validate_schedule(space: SpaceGeometry, schedule: Schedule):
    """All neighbor-pair transition checks plus the final-level selection.

    Returns ``(transitions, final_index)`` where transitions is a list of
    ``(n, lhs, rhs, ok)``.  Raises TransitionInvalid if any pair fails or
    the schedule does not end exactly at the selected final level.
    """
    transitions = []
    for lv, nxt in zip(schedule.levels, schedule.levels[1:]):
        lhs, rhs, ok = validate_transition(space, lv, nxt, schedule.epsilon)
        transitions.append((lv.index, lhs, rhs, ok))
    final = select_final_level(schedule.etas, schedule.epsilon,
                               schedule.eta_hat)
    bad = [n for n, _, _, ok in transitions if not ok]
    if bad:
        raise TransitionInvalid(f"transition check failed at levels {bad}")
    if final != len(schedule.levels) - 1:
        raise TransitionInvalid(
            f"schedule has {len(schedule.levels)} levels but the "
            f"discrepancy target is first met at level {final}")
    return transitions, final


def run_multi_level(space: SpaceGeometry, schedule: Schedule, x00,
                    max_iterations_per_level: int = 10 ** 6,
                    on_iteration=None) -> MultiLevelReport:
    """Run the schedule level by level.

    Each level runs the single-level iteration with its own discrepancy
    threshold ``(3 + eps) * eta_n`` and hands the stopped iterate to the
    next level as its start.  The sets are nested, so the hand-off is
    feasible; the level's run projects its start like every iterate and
    records its start-radius check in its report.

    ``on_iteration(level_index, state)`` receives every executed step of
    every level as it completes (see ``run_algorithm1``); with a hook the
    level reports keep no history and their ``iterations`` stay empty.
    """
    validate_schedule(space, schedule)
    for lv in schedule.levels:
        if lv.cset is None or lv.model is None or lv.data is None:
            raise TransitionInvalid(
                f"level {lv.index} has no concrete set/model/data to run")

    x = x00
    per_level: list[tuple[int, int, float, RunReport]] = []
    stop_reason = "DiscrepancyMet"
    last_index = schedule.levels[-1].index
    for lv in schedule.levels:
        model = lv.model.with_constants(lip=lv.L, lhat=lv.Lhat, cstab=lv.C)
        # Final level: the selection rule guarantees (3+eps)*eta_N <=
        # eta_hat, so stopping at the target residual is at least as
        # strict a result and stays well defined when eta_N == 0.
        threshold = schedule.eta_hat if lv.index == last_index \
            else _level_threshold(schedule.epsilon, lv.eta)
        config = SolverConfig(eta=lv.eta, eta_hat=threshold,
                              max_iterations=max_iterations_per_level,
                              diagnostic_reference=lv.reference)
        report = run_algorithm1(
            space, lv.cset, model, lv.data, x, config,
            on_iteration=None if on_iteration is None
            else partial(on_iteration, lv.index))
        per_level.append((lv.index, report.stopped_at_k,
                          report.final_residual, report))
        x = report.x_final
        if report.stop_reason != "DiscrepancyMet":
            stop_reason = report.stop_reason
            break
    else:
        if not report.final_residual <= schedule.eta_hat:
            stop_reason = "TargetResidualMissed"
    return MultiLevelReport(per_level=per_level, x_final=x,
                            stop_reason=stop_reason)


def example_schedule(lam: float, tau: float, space: SpaceGeometry,
                     eta_hat: float, max_levels: int = 64) -> Schedule:
    """Closed-form exponential schedule with provably valid transitions.

    Constant models per level index ``a``::

        eta_a  = lam * exp(-a) / (a + 2)
        C_a    = 2 * exp(a)
        Lhat_a = (a + 1) * exp(-a)
        L_a    = tau * exp(-a)

    with tolerance constant ``epsilon = 1``.  The curvature weight ``tau``
    must satisfy ``0 < tau < (Cp/p)**(3/p) / (16 * lam * (4 e + 1))``; the
    transition inequality then holds at every level.  The schedule stops
    at the first level whose discrepancy threshold ``4 * eta_a`` is at or
    below ``eta_hat``.

    Raises
    ------
    LambdaTooSmall
        If ``lam < 100 * eta_hat``; small initial errors defeat the
        purpose of a coarse first level.
    TauOutOfRange
        If ``tau`` violates its admissibility bound.
    NoSuchLevel
        If ``max_levels`` levels do not reach the target residual.
    """
    if eta_hat <= 0:
        raise ValueError("eta_hat must be positive")
    if lam < 100.0 * eta_hat:
        raise LambdaTooSmall(
            f"lam = {lam} < 100 * eta_hat = {100 * eta_hat}")
    tau_max = (space.Cp / space.p) ** (3.0 / space.p) \
        / (16.0 * lam * (4.0 * math.e + 1.0))
    if not 0.0 < tau < tau_max:
        raise TauOutOfRange(
            f"tau = {tau} outside the admissible interval (0, {tau_max})")

    epsilon = 1.0
    etas = [lam * math.exp(-a) / (a + 2.0) for a in range(max_levels)]
    final = select_final_level(etas, epsilon, eta_hat)
    levels = [
        Level(index=a,
              eta=etas[a],
              C=2.0 * math.exp(a),
              L=tau * math.exp(-a),
              Lhat=(a + 1.0) * math.exp(-a))
        for a in range(final + 1)
    ]
    return Schedule(levels=levels, epsilon=epsilon, eta_hat=eta_hat)
