"""The minimum-stage search driver and its two horizon orders.

Satisfiability is monotone in the stage count (any ``S``-stage schedule
extends to ``S+1`` by appending a do-nothing transfer stage), so the
optimum is found by probing horizons inside an interval ``[low, high]``:
an UNSAT probe at ``S`` eliminates every horizon ``<= S``, a SAT probe
every horizon ``> S``.  :func:`search` runs that loop once for every
strategy.  Before the first probe it holds a *certified* upper bound: the
stage count ``UB`` of the constructive
:class:`~repro.core.structured.StructuredScheduler` schedule (the
*witness*), feasible by construction and validated before use.  ``UB`` is
never probed, since a schedule of that length is in hand; when it already
meets the analytic lower bound, the optimum is certified without a single
SMT probe and the witness itself is returned.  A strategy only picks the
next horizon inside the interval:

* ``linear`` (:class:`LinearStrategy`) — ``pick(low, high) = low``: the
  paper's Sec. V-A procedure, iterative deepening from the analytic lower
  bound until the first satisfiable horizon or ``UB - 1``.
* ``bisection`` (:class:`BisectionStrategy`) — the midpoint.

The driver also owns the graceful-degradation contract: a deadline
expiry or a permanent backend failure never raises — the report carries a
``termination`` verdict, the structured witness as a best-known fallback
schedule, and the interval proven by the probes that completed (each
UNSAT at ``S`` lifts the proven lower bound to ``S + 1``; UNKNOWN probes
prove nothing and are never counted, and a SAT model reached before the
search was cut short bounds the optimum from above as ``sat-probe``).

Probes run against one incremental instance
(:class:`~repro.core.strategies.base.SearchContext`) via per-horizon
assumption literals, so CDCL learned clauses persist across the whole
search.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

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
    accumulate_statistics,
)
from repro.core.structured import StructuredScheduler
from repro.core.validator import ValidationError, validate_schedule
from repro.sat.errors import BackendError
from repro.smt import CheckResult

#: ``lower_bound_source`` suffix marking a probe-lifted (tightened) bound.
UNSAT_PROBE_SOURCE = "unsat-probes"


def _lowest(low: int, high: int) -> int:
    return low


def _midpoint(low: int, high: int) -> int:
    return (low + high) // 2


class _HorizonOrder:
    """A strategy: one horizon order, *pick*, over :func:`search`."""

    name: str
    pick: Callable[[int, int], int]

    def run(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        metadata: dict | None = None,
    ) -> SchedulerReport:
        return search(problem, limits, metadata, name=self.name, pick=self.pick)


class LinearStrategy(_HorizonOrder):
    """Try S = lower bound, lower bound + 1, ... below the structured UB."""

    name = "linear"
    pick = staticmethod(_lowest)


class BisectionStrategy(_HorizonOrder):
    """Binary search on S between the analytic LB and the structured UB."""

    name = "bisection"
    pick = staticmethod(_midpoint)


def search(
    problem: SchedulingProblem,
    limits: SearchLimits,
    metadata: dict | None,
    *,
    name: str,
    pick: Callable[[int, int], int],
) -> SchedulerReport:
    """Find the minimum stage count of *problem* by probing horizons.

    *pick* chooses each probe inside the open interval ``[low, high]`` (and
    must return ``low`` when ``low == high``).
    """
    start = time.monotonic()
    breakdown = problem.bound_breakdown()
    report = SchedulerReport(
        schedule=None,
        optimal=False,
        strategy=name,
        lower_bound=breakdown.total,
        lower_bound_source=breakdown.source,
    )
    if report.lower_bound > limits.max_stages:
        report.termination = TERMINATION_INFEASIBLE
        report.solver_seconds = time.monotonic() - start
        return report
    # Identical provenance no matter which path produces the schedule: SMT
    # extractions carry the problem metadata just like the witness does,
    # and the strategy is recorded either way.
    merged = {"strategy": name, **problem.metadata, **(metadata or {})}
    bound = structured_upper_bound(problem)
    if bound is not None:
        report.upper_bound = bound.num_stages
        report.upper_bound_source = witness_source(bound)
    # A schedule of ``high`` stages is in hand once the witness fits the
    # stage budget or a probe came back SAT; ``high`` is then never probed.
    in_hand = bound is not None and bound.num_stages <= limits.max_stages
    high = bound.num_stages if in_hand else limits.max_stages
    context = SearchContext(problem, limits, report.upper_bound)

    # The search cursor ``low`` advances past UNSAT *and* UNKNOWN horizons
    # (an undecided horizon may hide the optimum, so the search continues
    # above it); ``proven_low`` advances past UNSAT horizons only — it is
    # the lower bound the completed probes actually *proved*, and the only
    # value that may tighten the reported interval.
    low = proven_low = report.lower_bound
    best: Optional[Schedule] = None
    optimal = True
    termination: Optional[str] = None
    while low < high or (low == high and not in_hand):
        if limits.deadline is not None and limits.deadline.expired():
            termination = TERMINATION_DEADLINE
            break
        horizon = pick(low, high)
        report.stages_tried.append(horizon)
        try:
            result = context.decide(horizon)
        except BackendError as exc:
            termination = TERMINATION_BACKEND_ERROR
            report.statistics = {**report.statistics, "backend_error": 1.0}
            merged.setdefault("backend_error", str(exc))
            break
        report.statistics = accumulate_statistics(
            report.statistics, context.statistics()
        )
        if result is CheckResult.SAT:
            high, in_hand = horizon, True
            best = context.extract(horizon, metadata=dict(merged))
        elif result is CheckResult.UNSAT:
            low = proven_low = horizon + 1
        else:
            # Undecided: any later answer is no longer guaranteed minimal.
            optimal = False
            low = horizon + 1

    if best is not None:
        # ``high`` only ever decreases onto a SAT probe, so the last
        # extraction is the tightest SAT horizon reached.
        report.schedule = best
    elif in_hand and termination is None:
        # Never probed below SAT: the structured witness *is* the answer.
        bound.metadata.update(merged)
        report.schedule = bound
    if termination is None and optimal:
        if report.schedule is None:
            # Every horizon up to the stage budget was genuinely refuted.
            report.termination = TERMINATION_INFEASIBLE
        else:
            report.schedule.metadata.setdefault("optimal", True)
            report.optimal = True
            report.termination = TERMINATION_CERTIFIED
    else:
        _degrade(
            report,
            termination or TERMINATION_DEADLINE,
            bound,
            limits,
            merged,
            proven_low,
            best,
        )
    report.solver_seconds = time.monotonic() - start
    return report


def _degrade(
    report: SchedulerReport,
    termination: str,
    witness: Optional[Schedule],
    limits: SearchLimits,
    metadata: dict,
    proven_low: int,
    sat_model: Optional[Schedule],
) -> None:
    """End *report* uncertified with everything the search still knows.

    * *proven_low*, the lower bound the completed UNSAT probes proved,
      tightens the reported one.  Sound by stage-count monotonicity: an
      UNSAT answer at ``S`` refutes every horizon ``<= S``.  Only genuinely
      refuted horizons may feed it; treating an UNKNOWN probe as refuted
      would report an unsound interval.
    * The *sat_model* reached before the search was cut short bounds the
      optimum from above (``sat-probe``).
    * A report without a schedule falls back on the validated structured
      *witness* when it fits the stage budget: a correct answer, just not a
      certified-minimal one.  Its stage count bounds the optimum even when
      it overshoots ``limits.max_stages``.
    """
    report.termination = termination
    report.optimal = False
    if proven_low > report.lower_bound:
        report.lower_bound = proven_low
        report.lower_bound_source += f"+{UNSAT_PROBE_SOURCE}"
    if sat_model is not None and (
        report.upper_bound is None or sat_model.num_stages < report.upper_bound
    ):
        report.upper_bound = sat_model.num_stages
        report.upper_bound_source = "sat-probe"
    if report.schedule is None and witness is not None:
        if report.upper_bound is None or witness.num_stages < report.upper_bound:
            report.upper_bound = witness.num_stages
            report.upper_bound_source = witness_source(witness)
        if witness.num_stages <= limits.max_stages:
            witness.metadata.update(metadata)
            report.schedule = witness
    if report.schedule is not None:
        report.schedule.metadata.setdefault("optimal", False)


def structured_upper_bound(problem: SchedulingProblem) -> Optional[Schedule]:
    """The tightest validated constructive schedule of *problem*, or ``None``.

    Shared by the search driver (which also falls back on it), the CLI's
    ``bounds`` command and the service's witness event: a
    structured schedule is feasible by construction and validated before
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
