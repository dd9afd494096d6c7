"""The linear (iterative-deepening) search strategy.

This is the paper's Sec. V-A procedure and the seed's behaviour: starting
from the analytic lower bound, increment the stage count until the first
satisfiable horizon.  With ``limits.incremental`` (the default) one growable
instance is extended in place and every horizon is decided under an
assumption literal, so CDCL learned clauses survive each UNSAT horizon; with
``incremental=False`` every horizon re-encodes a fresh cold-start instance —
slower on multi-horizon searches, kept as the validation reference.

Like every strategy, the linear search honours the graceful-degradation
contract: a deadline expiry or a permanent backend failure never raises —
the report carries a ``termination`` verdict, the structured witness as a
best-known fallback schedule, and the interval proven by the UNSAT probes
that completed (each UNSAT at ``S`` lifts the proven lower bound to
``S + 1``; UNKNOWN probes prove nothing and are never counted).
"""

from __future__ import annotations

import time

from repro.core.encoding import encode_problem
from repro.core.problem import SchedulingProblem
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_CERTIFIED,
    TERMINATION_DEADLINE,
    TERMINATION_INFEASIBLE,
    SchedulerReport,
)
from repro.core.strategies.base import (
    SearchContext,
    SearchLimits,
    SearchStrategy,
    accumulate_statistics,
    register_strategy,
)
from repro.core.strategies.bisection import (
    attach_fallback_witness,
    lift_lower_bound,
)
from repro.sat.errors import BackendError
from repro.smt import CheckResult


@register_strategy
class LinearStrategy(SearchStrategy):
    """Try S = lower bound, lower bound + 1, ... until SAT."""

    name = "linear"

    def run(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict | None = None,
    ) -> SchedulerReport:
        start = time.monotonic()
        deadline = limits.deadline
        breakdown = problem.bound_breakdown()
        lower_bound = breakdown.total
        report = SchedulerReport(
            schedule=None,
            optimal=False,
            strategy=self.name,
            lower_bound=lower_bound,
            lower_bound_source=breakdown.source,
            upper_bound=None,
        )
        merged = {
            "optimal": False,
            "strategy": self.name,
            **problem.metadata,
            **(metadata or {}),
        }
        if lower_bound > limits.max_stages:
            report.termination = TERMINATION_INFEASIBLE
            report.solver_seconds = time.monotonic() - start
            return report
        context = SearchContext(problem, limits) if limits.incremental else None
        optimal = True
        # The lower bound proven by completed UNSAT probes.  UNKNOWN probes
        # must never lift it: they refute nothing.
        proven_low = lower_bound
        saw_unknown = False
        backend_error = False
        expired = False
        for num_stages in range(lower_bound, limits.max_stages + 1):
            if deadline is not None and deadline.expired():
                expired = True
                optimal = False
                break
            report.stages_tried.append(num_stages)
            try:
                if context is not None:
                    result = context.decide(num_stages)
                    probe = context.statistics()
                else:
                    instance = encode_problem(
                        problem,
                        num_stages,
                        backend=limits.sat_backend,
                        backend_retries=limits.backend_retries,
                    )
                    result = instance.check(
                        max_conflicts=limits.max_conflicts,
                        time_limit=limits.time_limit,
                        deadline=deadline,
                    )
                    probe = instance.statistics()
                    # Each cold-start probe runs a solver of its own, whose
                    # running retry count starts from zero.
                    retried = report.statistics.get("backend_retries", 0)
                    probe["backend_retries"] = probe.get("backend_retries", 0) + retried
            except BackendError as exc:
                backend_error = True
                optimal = False
                report.statistics = {**report.statistics, "backend_error": 1.0}
                merged.setdefault("backend_error", str(exc))
                break
            report.statistics = accumulate_statistics(report.statistics, probe)
            if result is CheckResult.UNKNOWN:
                # Could not decide this stage count: any later answer is no
                # longer guaranteed to be minimal.
                saw_unknown = True
                optimal = False
                continue
            if result is CheckResult.UNSAT:
                proven_low = num_stages + 1
                continue
            merged["optimal"] = optimal
            if context is not None:
                report.schedule = context.extract(num_stages, metadata=dict(merged))
            else:
                report.schedule = instance.extract_schedule(metadata=dict(merged))
            report.optimal = optimal
            break

        if report.schedule is not None:
            report.termination = (
                TERMINATION_CERTIFIED if report.optimal else TERMINATION_DEADLINE
            )
            if not report.optimal:
                lift_lower_bound(report, proven_low)
                report.upper_bound = report.schedule.num_stages
                report.upper_bound_source = "sat-probe"
        elif backend_error:
            report.termination = TERMINATION_BACKEND_ERROR
            lift_lower_bound(report, proven_low)
            attach_fallback_witness(report, problem, limits, merged)
        elif expired or saw_unknown:
            report.termination = TERMINATION_DEADLINE
            lift_lower_bound(report, proven_low)
            attach_fallback_witness(report, problem, limits, merged)
        else:
            # Every horizon up to the stage budget was genuinely refuted.
            report.termination = TERMINATION_INFEASIBLE
        report.solver_seconds = time.monotonic() - start
        return report
