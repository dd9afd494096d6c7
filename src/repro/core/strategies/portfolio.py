"""Process-level portfolio racing over the single search strategies.

The portfolio fans a set of solver *configurations* — ``bisection``,
``linear``, plus one bisection variant per additional usable SAT backend
(:mod:`repro.sat.backend`) — across worker processes (reusing
:func:`repro.evaluation.executor.race_to_first`, the racing counterpart of
the bench runner's worker pool), keeps the first configuration that
certifies an optimum, and cancels/terminates the losers.
Every configuration is sound and complete for the same problem, so whichever
certificate lands first reports the *same* optimal stage count — racing buys
wall-clock, never answers.

Racing only pays when there is search to parallelise.  When the analytic
interval between :meth:`~repro.core.problem.SchedulingProblem.lower_bound`
and the structured upper bound is narrower than :data:`RACE_THRESHOLD`
stages (or only one worker is available), the portfolio delegates inline to
plain bisection instead of paying process fan-out for a probe or two; the
report's ``winner`` records which path ran.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.problem import SchedulingProblem
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_DEADLINE,
    SchedulerReport,
)
from repro.core.strategies.base import SearchLimits
from repro.core.strategies.search import (
    BisectionStrategy,
    analytic_report,
    degrade,
    structured_upper_bound,
)

#: The default racing configurations, in priority order (ties in the race go
#: to the earliest index).
DEFAULT_CONFIGS: tuple[dict, ...] = (
    {"strategy": "bisection"},
    {"strategy": "linear"},
)

#: Minimum width of the [lower bound, structured upper bound] interval for
#: which racing worker processes beats running bisection inline.
RACE_THRESHOLD = 3

#: Minimum remaining deadline budget for which process fan-out still pays;
#: below this the portfolio delegates inline (startup would eat the budget).
MIN_RACE_SECONDS = 1.0


def run_portfolio_config(task: tuple) -> SchedulerReport:
    """Worker entry point: run one configuration to completion.

    Module-level so it pickles for the process pool.  *task* is
    ``(problem, config, limits, metadata, witness)``; the configuration's
    ``sat_backend`` is folded into the limits, and the triage-time
    structured *witness* (``None`` when no choreography applies) is handed
    to the search driver so no worker repeats the constructive scheduling
    pass.
    """
    from repro.core.strategies import get_strategy

    problem, config, limits, metadata, witness = task
    # A config without its own backend inherits the caller's (so a
    # user-level SMTScheduler(sat_backend=...) behaves the same raced or
    # inline).
    limits = replace(
        limits, sat_backend=config.get("sat_backend", limits.sat_backend)
    )
    strategy = get_strategy(config["strategy"])
    return strategy.run(problem, limits, metadata, witness=witness)


class PortfolioStrategy:
    """Race heterogeneous solver configurations; first certificate wins."""

    name = "portfolio"

    def __init__(
        self,
        configs: Optional[Sequence[dict]] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self._configs = tuple(dict(config) for config in (configs or DEFAULT_CONFIGS))
        self._jobs = jobs

    def run(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict | None = None,
    ) -> SchedulerReport:
        start = time.monotonic()
        # The schedule must advertise the portfolio whichever configuration
        # produces it (the winning configuration is recorded separately).
        metadata = {**(metadata or {}), "strategy": self.name}
        configs = self._configs + self._backend_variants(limits)
        jobs = self._jobs if self._jobs is not None else (os.cpu_count() or 1)
        jobs = max(1, min(jobs, len(configs)))
        witness = structured_upper_bound(problem)
        if jobs > 1 and self._should_race(problem, witness, limits):
            report = self._run_race(problem, limits, metadata, jobs, witness, configs)
        else:
            report = self._run_inline(problem, limits, metadata, witness)
        report.strategy = self.name
        report.solver_seconds = time.monotonic() - start
        return report

    # ------------------------------------------------------------------ #
    def _backend_variants(self, limits: SearchLimits) -> tuple[dict, ...]:
        """Extra configurations racing the other usable SAT backends.

        Every registered backend certifies the same optima (the knob trades
        speed, never answers), so whichever backend's bisection lands its
        certificate first is a legitimate winner.  Variants only join when
        the caller left the backend unpinned: an explicit
        ``limits.sat_backend`` is a request to measure *that* backend (e.g.
        the CI cross-backend agreement gate), which racing others would
        silently undermine.  Backends flagged ``race_variant=False`` (the
        deliberately slow seed reference) and the default backend already
        raced by the base configurations are skipped.
        """
        from repro.sat.backend import DEFAULT_BACKEND, backend_info, usable_backends

        if limits.sat_backend is not None:
            return ()
        return tuple(
            {"strategy": "bisection", "sat_backend": name}
            for name in usable_backends()
            if name != DEFAULT_BACKEND and backend_info(name).race_variant
        )

    def _should_race(
        self, problem: SchedulingProblem, witness, limits: SearchLimits
    ) -> bool:
        """Whether the analytic interval is wide enough to pay for fan-out.

        With a structured *witness* within :data:`RACE_THRESHOLD` stages of
        the lower bound, any single strategy finishes within a couple of
        probes and process startup would dominate.  Without a witness the
        interval is open — racing is how the portfolio hedges the unbounded
        search.  Racing is also disabled inside another pool's worker
        process (e.g. ``repro-nasp bench --jobs N``): the batch is already
        parallel there, and a harness-terminated worker cannot clean up a
        nested pool, which would orphan the grandchild solvers.  An
        (almost) expired deadline likewise delegates inline — process
        startup would eat the remaining budget before any worker probes.
        """
        if multiprocessing.parent_process() is not None:
            return False
        deadline = limits.deadline
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining is not None and remaining < MIN_RACE_SECONDS:
                return False
        if witness is None:
            return True
        return witness.num_stages - problem.lower_bound() >= RACE_THRESHOLD

    def _run_inline(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict,
        witness,
    ) -> SchedulerReport:
        report = BisectionStrategy().run(problem, limits, metadata, witness=witness)
        # Same invariant as the raced path: an uncertified report must not
        # advertise a winner.
        if report.found and report.optimal:
            report.winner = {"strategy": "bisection", "mode": "inline"}
        return report

    def _run_race(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict,
        jobs: int,
        witness,
        configs: Sequence[dict],
    ) -> SchedulerReport:
        from repro.evaluation.executor import race_to_first

        tasks = [
            (problem, config, limits, dict(metadata), witness)
            for config in configs
        ]
        # Workers enforce the deadline cooperatively through the limits they
        # receive (Deadline pickles as an absolute monotonic instant, which
        # CLOCK_MONOTONIC keeps meaningful across processes); the race-level
        # timeout is a backstop against a worker that cannot reach its next
        # cooperative check in time.
        race_timeout = None
        if limits.deadline is not None:
            race_timeout = limits.deadline.remaining()
        outcome = race_to_first(
            run_portfolio_config,
            tasks,
            jobs=jobs,
            timeout=race_timeout,
            accept=lambda report: report.found and report.optimal,
        )
        report = outcome.winner
        if report is None:
            # No certificate: every configuration finished non-optimal (or
            # failed).  Keep the best effort — the first finished report
            # with a schedule, else the first finished, else degrade with
            # the analytic interval and the structured witness, exactly
            # like the single strategies do.
            report = self._best_effort(problem, limits, metadata, witness, outcome)
        if outcome.winner_index is not None:
            report.winner = {
                **configs[outcome.winner_index],
                "mode": "raced",
                "raced_configs": len(tasks),
                "finished": len(outcome.finished),
                "cancelled": len(outcome.cancelled),
            }
        else:
            # Nothing certified: the report is best-effort and must not
            # advertise a winner (consumers key on winner["strategy"]).
            report.winner = None
        report.statistics = {
            **report.statistics,
            "portfolio_race_seconds": outcome.seconds,
            "portfolio_cancelled": len(outcome.cancelled),
        }
        return report

    def _best_effort(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict,
        witness,
        outcome,
    ) -> SchedulerReport:
        """The graceful-degradation report when no configuration certified.

        Finished worker reports already honour the degradation contract
        (termination verdict, witness fallback, tightened interval), so the
        first one with a schedule is the best effort.  With nothing
        finished — the race expired or every worker failed — the portfolio
        degrades itself through the search driver's degrade step: analytic
        interval, structured witness as the schedule, and a termination
        verdict telling deadline expiry apart from backend failure.
        """
        finished: dict[int, SchedulerReport] = outcome.finished
        for index in sorted(finished):
            if finished[index].found:
                return finished[index]
        if finished:
            return finished[min(finished)]
        report = analytic_report(problem, self.name)
        expired = limits.deadline is not None and limits.deadline.expired()
        termination = (
            TERMINATION_DEADLINE
            if expired or not outcome.errors
            else TERMINATION_BACKEND_ERROR
        )
        degrade(report, termination, witness, limits, metadata)
        return report
