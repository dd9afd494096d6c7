"""The optimal SMT-based scheduler (the paper's proposed approach).

To satisfy the objective of Sec. IV-C — minimise the overall number of
stages — the scheduler decides fixed-``S`` instances with the SMT layer and
searches over ``S`` with a *strategy*
(:mod:`repro.core.strategies`):

* ``linear`` (:data:`~repro.core.strategies.DEFAULT_STRATEGY`, the
  default of this class, the service, ``serve`` and ``loadtest``) — the
  paper's Sec. V-A procedure: increment ``S`` from the analytic lower bound
  until the first satisfiable horizon, or up to one below the structured
  scheduler's certified upper bound, whose schedule is then the answer.
  It never probes a satisfiable horizon above the optimum.
* ``bisection`` — binary search between the
  :class:`~repro.core.problem.SchedulingProblem` IR's analytic lower bound
  and the same certified upper bound.  It can take fewer probes when the
  optimum sits far above the lower bound, but its satisfiable probes above
  the optimum are the expensive ones: on the paper tier it spends more
  conflicts than ``linear``.

The two strategies differ only in the horizon they pick next: one
in-process driver (:func:`repro.core.strategies.search.search`) computes the
structured witness before the first probe and runs the probe loop and the
graceful-degradation contract for both.  Its probes share
one growable :class:`~repro.core.encoding.IncrementalInstance`
(assumption-guarded activation literals, learned clauses survive).

All strategies return a :class:`SchedulerReport` recording the analytic
bounds *with their certificate provenance* (``lower_bound_source`` names
the winning certificate of
:meth:`~repro.core.problem.SchedulingProblem.bound_breakdown`;
``upper_bound_source`` the structured choreography behind the witness),
every horizon probed (in probe order), and the strategy name, and all
certify the same minimum stage count; per-instance resource limits
(conflicts / wall-clock) turn the solver into an anytime procedure that
reports when optimality could not be certified, mirroring the timeout
handling of the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.budget import Deadline
from repro.core.problem import SchedulingProblem
from repro.core.report import SchedulerReport
from repro.core.strategies import DEFAULT_STRATEGY, SearchLimits, get_strategy
from repro.core.validator import validate_schedule
from repro.sat.backend import backend_info

__all__ = ["SMTScheduler", "SchedulerReport"]


class SMTScheduler:
    """Minimal-stage state-preparation scheduling via SMT solving.

    The scheduler holds solver configuration only; the workload — circuit,
    architecture, shielding policy — arrives as a
    :class:`~repro.core.problem.SchedulingProblem` per :meth:`schedule`
    call, so one scheduler instance serves any number of problems.
    """

    def __init__(
        self,
        max_stages: int = 32,
        max_conflicts_per_instance: Optional[int] = None,
        time_limit_per_instance: Optional[float] = None,
        strategy: str = DEFAULT_STRATEGY,
        sat_backend: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """*deadline* is the whole-search wall-clock budget in seconds:
        each :meth:`schedule` call starts a fresh
        :class:`~repro.core.budget.Deadline` and every layer below slices
        its per-probe budgets from the *remaining* time (unlike
        *time_limit_per_instance*, which caps each probe independently).
        On expiry the strategies degrade gracefully instead of raising —
        see ``SchedulerReport.termination``.
        """
        limits = SearchLimits(
            max_stages=max_stages,
            max_conflicts=max_conflicts_per_instance,
            time_limit=time_limit_per_instance,
            sat_backend=sat_backend,
        )
        # Resolve eagerly so unknown names fail at construction time, not
        # mid-batch.
        get_strategy(strategy)
        info = backend_info(sat_backend)
        if not info.is_available():
            raise ValueError(
                f"SAT backend {info.name!r} is unavailable: "
                f"{info.description or 'runtime requirements not met'}"
            )
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline}")
        self._strategy = strategy
        self._backend_name = info.name
        self._deadline_seconds = deadline
        self._limits = limits

    @property
    def strategy(self) -> str:
        """Name of the configured search strategy."""
        return self._strategy

    @property
    def sat_backend(self) -> str:
        """Registry name of the SAT backend deciding every probe."""
        return self._backend_name

    def schedule(
        self,
        problem: SchedulingProblem,
        metadata: dict | None = None,
        deadline: Optional[float | Deadline] = None,
    ) -> SchedulerReport:
        """Find a schedule of *problem* with the minimum number of stages.

        Returns a :class:`SchedulerReport`; ``report.optimal`` is False when
        a per-instance resource limit was hit before satisfiability could be
        decided for some stage count smaller than the one finally used (the
        schedule, if any, is then feasible but possibly not minimal);
        ``report.termination`` records how the search ended.  A found
        schedule is validated before it is returned.

        *deadline* overrides the constructor's whole-search budget for this
        call only: seconds from now, or an already-ticking
        :class:`~repro.core.budget.Deadline` (how a service layer imposes
        one request-level budget across several solves).
        """
        if not isinstance(problem, SchedulingProblem):
            raise TypeError(
                "SMTScheduler.schedule() takes a SchedulingProblem; build one "
                "with SchedulingProblem.from_gates(architecture, num_qubits, "
                "cz_gates) or SchedulingProblem.from_circuit(...)"
            )
        limits = self._limits
        if deadline is None:
            deadline = self._deadline_seconds
        if deadline is not None:
            ticking = (
                deadline
                if isinstance(deadline, Deadline)
                else Deadline.after(deadline)
            )
            limits = replace(limits, deadline=ticking)
        report = get_strategy(self._strategy).run(problem, limits, metadata)
        report.sat_backend = self._backend_name
        if report.schedule is not None:
            validate_schedule(report.schedule, require_shielding=problem.shielding)
        return report
