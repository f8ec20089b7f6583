"""Multi-level driver over nested convex sets.

Runs the single-level iteration on a schedule of levels whose stability
constants grow while the approximation errors shrink, handing the stopped
iterate of each level to the next as its starting point.  The level
transitions are validated against the coupling inequality between
neighboring constants, and the closed-form example schedule generator
reproduces the exponential constant models.  A level's index is its
position in ``Schedule.levels``, from 0, everywhere: in the transitions,
the reports and the hook; the last level runs to the target residual.
The constants of a level, a schedule and the example schedule follow the
input rules of README ("Input rules").
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (EtaTooLarge, LambdaTooSmall, NoSuchLevel,
                     TauOutOfRange, TransitionInvalid, real)
from .geometry import SpaceGeometry
from .models import ForwardModel, NoisyData
from .sets import ConvexSet
from .solver import (RunReport, SolverConfig, _ctilde, _radius_bracket,
                     _run, convergence_radius)

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
        self.eta = real("eta", self.eta, positive=False)
        self.C = real("C", self.C)
        self.L = real("L", self.L, positive=False)
        self.Lhat = real("Lhat", self.Lhat)

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
        self.epsilon = real("epsilon", self.epsilon)
        self.eta_hat = real("eta_hat", self.eta_hat)

    @property
    def etas(self) -> list[float]:
        return [lv.eta for lv in self.levels]


@dataclass
class MultiLevelReport:
    """Outcome of a multi-level run: ``per_level`` holds
    ``(index, K, final residual, report)`` for each level run, in order."""

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
    strict inequality.  A next level with an infinite bracket (F linear)
    has an infinite budget, also where ``Lhat * C`` overflows.
    """
    eta1 = level_next.eta
    bracket = _radius_bracket(level_next.ctilde(space), eta1)
    lhs = _level_threshold(epsilon, level_n.eta)
    rhs = math.inf if bracket == math.inf else (
        (space.Cp / space.p) ** (1.0 / space.p)
        / (level_next.Lhat * level_next.C) * bracket - eta1)
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
    ``(n, lhs, rhs, ok)`` over every pair.  Raises EtaTooLarge, with the
    level's index in its message, if a level past the first has
    ``8 * ctilde * eta >= 1``; then NoSuchLevel from the selection; then
    TransitionInvalid if any pair fails, with each failing pair's n, lhs
    and rhs in its message, or if the schedule does not end exactly at
    the selected final level.  The raised error carries the
    list as ``transitions``, where a pair whose next level raised
    EtaTooLarge is ``(n, None, None, False)``.
    """
    transitions, too_large = [], None
    for n, (lv, nxt) in enumerate(zip(schedule.levels, schedule.levels[1:])):
        try:
            transitions.append(
                (n, *validate_transition(space, lv, nxt, schedule.epsilon)))
        except EtaTooLarge as exc:
            transitions.append((n, None, None, False))
            too_large = too_large or EtaTooLarge(f"level {n + 1}: {exc}")
    try:
        if too_large is not None:
            raise too_large
        final = select_final_level(schedule.etas, schedule.epsilon,
                                   schedule.eta_hat)
        bad = [(n, lhs, rhs) for n, lhs, rhs, ok in transitions if not ok]
        if bad:
            raise TransitionInvalid(
                f"transition check failed at levels {[n for n, *_ in bad]}: "
                + "; ".join(f"level {n}: lhs {lhs} is not below rhs {rhs}"
                            for n, lhs, rhs in bad))
        if final != len(schedule.levels) - 1:
            raise TransitionInvalid(
                f"schedule has {len(schedule.levels)} levels but the "
                f"discrepancy target is first met at level {final}")
    except (EtaTooLarge, NoSuchLevel, TransitionInvalid) as exc:
        exc.transitions = transitions
        raise
    return transitions, final


def run_multi_level(space: SpaceGeometry, schedule: Schedule, x00,
                    max_iterations_per_level: int = 10 ** 6,
                    on_iteration=None) -> MultiLevelReport:
    """Run the schedule level by level.

    Each level runs the single-level iteration on its own constants
    ``C``, ``L`` and ``Lhat``, which the run reads in place of those its
    model states, and leaves the model unchanged.  It runs to its own
    discrepancy threshold ``(3 + eps) * eta_n`` and hands the stopped
    iterate to the next level as its start, the last to ``eta_hat``
    itself: the run stops DiscrepancyMet or as the first level that stops
    otherwise.  The sets are nested, so the hand-off is feasible; the
    level's run projects its start like every iterate and records its
    start-radius check.

    ``on_iteration(n, state)`` receives every executed step of level n
    as it completes (see ``run_algorithm1``); with a hook the level
    reports keep no history and their ``iterations`` stay empty.
    """
    validate_schedule(space, schedule)
    for n, lv in enumerate(schedule.levels):
        if lv.cset is None or lv.model is None or lv.data is None:
            raise TransitionInvalid(
                f"level {n} has no concrete set/model/data to run")

    x = x00
    per_level: list[tuple[int, int, float, RunReport]] = []
    stop_reason = "DiscrepancyMet"
    for n, lv in enumerate(schedule.levels):
        # Final level: the selection rule guarantees (3+eps)*eta_N <=
        # eta_hat, so stopping at the target residual is at least as
        # strict a result and stays well defined when eta_N == 0.
        threshold = schedule.eta_hat if n == len(schedule.levels) - 1 \
            else _level_threshold(schedule.epsilon, lv.eta)
        config = SolverConfig(eta=lv.eta, eta_hat=threshold,
                              max_iterations=max_iterations_per_level,
                              diagnostic_reference=lv.reference)
        report = _run(space, lv.cset, lv.model, lv.data, x, config,
                      None if on_iteration is None
                      else partial(on_iteration, n), lv.L, lv.Lhat, lv.C)
        per_level.append((n, report.stopped_at_k,
                          report.final_residual, report))
        x = report.x_final
        if report.stop_reason != "DiscrepancyMet":
            stop_reason = report.stop_reason
            break
    return MultiLevelReport(per_level=per_level, x_final=x,
                            stop_reason=stop_reason)


def example_schedule(lam: float, tau: float, space: SpaceGeometry,
                     eta_hat: float) -> Schedule:
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
    below ``eta_hat``, among the 710 levels whose C_a is a float.

    Raises
    ------
    LambdaTooSmall
        If ``lam < 100 * eta_hat``; small initial errors defeat the
        purpose of a coarse first level.
    TauOutOfRange
        If ``tau`` violates its admissibility bound.
    NoSuchLevel
        If no level with float constants reaches the target residual.
    """
    lam, eta_hat = real("lam", lam), real("eta_hat", eta_hat)
    if lam < 100.0 * eta_hat:
        raise LambdaTooSmall(
            f"lam = {lam} < 100 * eta_hat = {100 * eta_hat}")
    tau_max = (space.Cp / space.p) ** (3.0 / space.p) \
        / (16.0 * lam * (4.0 * math.e + 1.0))
    tau = real("tau", tau, error=TauOutOfRange)
    if not tau < tau_max:
        raise TauOutOfRange(
            f"tau = {tau} outside the admissible interval (0, {tau_max})")

    def eta(a):
        return lam * math.exp(-a) / (a + 2.0)

    # a < log(max / 2) + 1: the levels whose C_a = 2 e**a is a float.
    epsilon, a_end = 1.0, int(math.log(sys.float_info.max / 2.0)) + 1
    final = select_final_level(map(eta, range(a_end)), epsilon, eta_hat)
    levels = [
        Level(eta=eta(a), C=2.0 * math.exp(a), L=tau * math.exp(-a),
              Lhat=(a + 1.0) * math.exp(-a))
        for a in range(final + 1)
    ]
    return Schedule(levels=levels, epsilon=epsilon, eta_hat=eta_hat)
