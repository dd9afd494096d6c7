"""Bound-driven bisection over the stage count.

Instead of walking every horizon from the analytic lower bound upward, this
strategy binary-searches the interval between the IR's lower bound and a
*certified* upper bound: the stage count of the constructive
:class:`~repro.core.structured.StructuredScheduler` schedule, which is
feasible by construction and validated before use.  Satisfiability is
monotone in the stage count (any ``S``-stage schedule extends to ``S+1`` by
appending a do-nothing transfer stage), so an UNSAT probe at ``mid``
eliminates every horizon ``<= mid`` and a SAT probe every horizon
``> mid``.  All probes — ascending or descending — run against one
incremental instance via per-horizon assumption literals, so CDCL learned
clauses, activities, and saved phases persist across the whole search.

When the interval is degenerate (the structured schedule already matches the
lower bound), the optimum is certified without a single SMT probe and the
structured schedule itself is returned.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.problem import SchedulingProblem
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_CERTIFIED,
    TERMINATION_DEADLINE,
    TERMINATION_INFEASIBLE,
    SchedulerReport,
)
from repro.core.schedule import Schedule
from repro.core.strategies.base import (
    SearchContext,
    SearchLimits,
    SearchStrategy,
    accumulate_statistics,
    register_strategy,
)
from repro.core.structured import StructuredScheduler
from repro.core.validator import ValidationError, validate_schedule
from repro.sat.errors import BackendError
from repro.smt import CheckResult

#: ``lower_bound_source`` suffix marking a probe-lifted (tightened) bound.
UNSAT_PROBE_SOURCE = "unsat-probes"


@register_strategy
class BisectionStrategy(SearchStrategy):
    """Binary search on S between the analytic LB and the structured UB.

    An already-computed (and validated) structured *witness* can be injected
    to skip the redundant constructive-scheduling pass — the portfolio's
    inline path computes it during triage and hands it over.
    """

    name = "bisection"
    requires_incremental = True

    def __init__(self, witness: Optional[Schedule] = None) -> None:
        self._witness = witness

    def run(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict | None = None,
    ) -> SchedulerReport:
        start = time.monotonic()
        if not limits.incremental:
            raise ValueError(
                f"the {self.name!r} strategy requires an incremental scheduler"
            )
        deadline = limits.deadline
        breakdown = problem.bound_breakdown()
        lower_bound = breakdown.total
        report = SchedulerReport(
            schedule=None,
            optimal=False,
            strategy=self.name,
            lower_bound=lower_bound,
            lower_bound_source=breakdown.source,
        )
        if lower_bound > limits.max_stages:
            report.termination = TERMINATION_INFEASIBLE
            report.solver_seconds = time.monotonic() - start
            return report

        witness = self._upper_bound_schedule(problem)
        if witness is not None:
            report.upper_bound = witness.num_stages
            report.upper_bound_source = witness_source(witness)
            if witness.num_stages > limits.max_stages:
                # The constructive schedule overshoots the stage budget; it
                # still bounds the optimum but cannot serve as a fallback.
                witness = None
        high = report.upper_bound if witness is not None else limits.max_stages
        # With a witness the largest horizon ever probed is ``high - 1``
        # (the witness itself certifies ``high``), so the capacity is known
        # exactly and no headroom/rebuild cycle is needed.
        capacity = max(high - 1, 1) if witness is not None else None
        context = SearchContext(problem, limits, capacity=capacity)

        low = lower_bound
        # The search-control cursor ``low`` advances past UNSAT *and*
        # UNKNOWN horizons (an undecided horizon may hide the optimum, so
        # the search must continue above it); ``proven_low`` advances past
        # UNSAT horizons only — it is the lower bound the completed probes
        # actually *proved*, and the only value that may tighten the
        # reported interval (treating an UNKNOWN as refuted would be
        # unsound).
        proven_low = lower_bound
        best: Optional[Schedule] = None
        optimal = True
        backend_error = False
        expired = False
        # Identical provenance no matter which path produces the schedule:
        # SMT extractions carry the problem metadata just like the witness
        # does, and the winning strategy is recorded either way.
        merged = {"strategy": self.name, **problem.metadata, **(metadata or {})}
        while low < high:
            if deadline is not None and deadline.expired():
                expired = True
                optimal = False
                break
            mid = (low + high) // 2
            report.stages_tried.append(mid)
            try:
                result = context.decide(mid)
                report.statistics = accumulate_statistics(
                    report.statistics, context.statistics()
                )
            except BackendError as exc:
                backend_error = True
                optimal = False
                report.statistics = {**report.statistics, "backend_error": 1.0}
                merged.setdefault("backend_error", str(exc))
                break
            if result is CheckResult.SAT:
                high = mid
                best = context.extract(mid, metadata=dict(merged))
            elif result is CheckResult.UNSAT:
                low = mid + 1
                proven_low = max(proven_low, mid + 1)
            else:
                # Undecided horizons may hide the true optimum below the
                # final answer; search above, like the linear strategy does.
                optimal = False
                low = mid + 1

        if best is not None:
            # ``high`` only ever decreases onto a SAT probe, so the last
            # extraction is exactly the ``low == high`` horizon (or, when
            # the search was cut short, the tightest SAT horizon reached).
            report.schedule = best
        elif not (expired or backend_error):
            if witness is not None and low == witness.num_stages:
                # Never probed below SAT: the structured witness *is* the
                # answer.
                witness.metadata.update(merged)
                report.schedule = witness
            elif low <= limits.max_stages:
                # No witness available (or it overshot the budget): the
                # final horizon was never confirmed satisfiable — decide it
                # directly (under the same deadline/failure guards).
                if deadline is not None and deadline.expired():
                    expired = True
                    optimal = False
                else:
                    report.stages_tried.append(low)
                    try:
                        result = context.decide(low)
                        report.statistics = accumulate_statistics(
                            report.statistics, context.statistics()
                        )
                    except BackendError as exc:
                        backend_error = True
                        optimal = False
                        report.statistics = {
                            **report.statistics,
                            "backend_error": 1.0,
                        }
                        merged.setdefault("backend_error", str(exc))
                    else:
                        if result is CheckResult.SAT:
                            report.schedule = context.extract(
                                low, metadata=dict(merged)
                            )
                        elif result is CheckResult.UNSAT:
                            proven_low = max(proven_low, low + 1)
                        else:
                            optimal = False
        if report.schedule is None and (expired or backend_error or not optimal):
            # Degraded without a SAT model: the structured witness (when it
            # fits the stage budget) is still a correct, validated schedule.
            if witness is not None:
                witness.metadata.update(merged)
                report.schedule = witness
                optimal = False
        if report.schedule is not None:
            report.schedule.metadata.setdefault("optimal", optimal)
            report.optimal = optimal

        if report.optimal and report.schedule is not None:
            report.termination = TERMINATION_CERTIFIED
        elif backend_error:
            report.termination = TERMINATION_BACKEND_ERROR
        elif report.schedule is not None or expired or not optimal:
            report.termination = TERMINATION_DEADLINE
        else:
            # Every horizon up to the stage budget was genuinely refuted.
            report.termination = TERMINATION_INFEASIBLE
        if report.termination in (TERMINATION_DEADLINE, TERMINATION_BACKEND_ERROR):
            lift_lower_bound(report, proven_low)
            if best is not None and (
                report.upper_bound is None or best.num_stages < report.upper_bound
            ):
                report.upper_bound = best.num_stages
                report.upper_bound_source = "sat-probe"
        report.solver_seconds = time.monotonic() - start
        return report

    # ------------------------------------------------------------------ #
    def _upper_bound_schedule(self, problem: SchedulingProblem) -> Optional[Schedule]:
        """A validated constructive schedule, or ``None`` when unavailable."""
        if self._witness is not None:
            return self._witness
        return structured_upper_bound(problem)


def structured_upper_bound(problem: SchedulingProblem) -> Optional[Schedule]:
    """The tightest validated constructive schedule of *problem*, or ``None``.

    Shared by the bound-driven strategies (bisection, portfolio):
    a structured schedule is feasible by construction and validated before
    use, so its stage count is a certified upper bound on the optimum.  Two
    choreographies compete:

    * the classic home-based choreography (idle qubits parked in SLM traps,
      one or two transfer stages per round boundary), and
    * the transfer-free *airborne* choreography (every qubit permanently in
      an AOD trap, beams staged by edge colouring) — the only structured
      witness for ``shielding=True`` on storage-less architectures, and
      frequently the tighter one elsewhere because it pays no transfer
      stages.

    The schedule with the fewer stages wins (ties prefer the classic
    choreography); ``None`` means neither choreography applies, leaving the
    search interval open.  The winning choreography is recorded in the
    schedule metadata and surfaced as ``SchedulerReport.upper_bound_source``
    (see :func:`witness_source`).
    """
    scheduler = StructuredScheduler()
    candidates: list[Schedule] = []
    try:
        # Dispatches to the airborne choreography by itself for
        # ``shielding=True`` on storage-less architectures.
        schedule = scheduler.schedule(problem)
        validate_schedule(schedule, require_shielding=problem.shielding)
        candidates.append(schedule)
    except (ValueError, ValidationError):
        pass
    if not (problem.shielding and not problem.architecture.has_storage):
        # The classic path ran above; offer the transfer-free witness as a
        # tightening candidate (no idle exposure, so it satisfies any
        # shielding requirement).
        try:
            airborne = scheduler.schedule_airborne(problem)
            validate_schedule(airborne, require_shielding=problem.shielding)
            candidates.append(airborne)
        except (ValueError, ValidationError):
            pass
    if not candidates:
        return None
    return min(candidates, key=lambda schedule: schedule.num_stages)


def witness_source(schedule: Schedule) -> str:
    """Provenance label of a structured witness (for ``upper_bound_source``)."""
    return f"structured-{schedule.metadata.get('choreography', 'homes')}"


def lift_lower_bound(report: SchedulerReport, proven_low: int) -> None:
    """Tighten the report's lower bound from completed UNSAT probes.

    Sound by stage-count monotonicity: an UNSAT answer at ``S`` refutes
    every horizon ``<= S``, so the optimum is at least ``S + 1``.  Only
    genuinely refuted horizons may feed *proven_low* — treating an UNKNOWN
    probe as refuted would report an unsound interval, which is why the
    strategies track ``proven_low`` separately from their search cursor.
    """
    if proven_low > report.lower_bound:
        report.lower_bound = proven_low
        base = report.lower_bound_source or "analytic"
        report.lower_bound_source = f"{base}+{UNSAT_PROBE_SOURCE}"


def attach_fallback_witness(
    report: SchedulerReport,
    problem: SchedulingProblem,
    limits: SearchLimits,
    merged: dict,
) -> None:
    """Attach the structured witness as a best-known non-optimal schedule.

    Used by degradation paths that did not already compute a witness: when
    a search ends without a SAT model, the validated structured schedule
    (when one exists and fits the stage budget) is still a correct answer —
    just not a certified-minimal one.  The report's upper bound is set from
    the witness even when it overshoots ``limits.max_stages`` (it bounds
    the optimum either way; it just cannot serve as a schedule).
    """
    if report.schedule is not None:
        return
    witness = structured_upper_bound(problem)
    if witness is None:
        return
    if report.upper_bound is None or witness.num_stages < report.upper_bound:
        report.upper_bound = witness.num_stages
        report.upper_bound_source = witness_source(witness)
    if witness.num_stages <= limits.max_stages:
        witness.metadata.update(merged)
        witness.metadata.setdefault("optimal", False)
        report.schedule = witness
