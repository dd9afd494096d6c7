"""The outcome record shared by every scheduling strategy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.schedule import Schedule

#: The search certified the minimum stage count (``optimal=True``).
TERMINATION_CERTIFIED = "certified"
#: The deadline (or a per-probe resource limit) expired before the optimum
#: was certified; the report carries the best-known witness and the interval
#: proven by the probes that did complete.
TERMINATION_DEADLINE = "deadline"
#: The search proved no schedule exists within ``limits.max_stages``.
TERMINATION_INFEASIBLE = "infeasible"
#: A permanent SAT-backend failure (after bounded retries) ended the search;
#: the analytic interval and any structured witness are still reported.
TERMINATION_BACKEND_ERROR = "backend-error"

#: Every value the ``termination`` field may take, in severity order.
TERMINATIONS = (
    TERMINATION_CERTIFIED,
    TERMINATION_INFEASIBLE,
    TERMINATION_DEADLINE,
    TERMINATION_BACKEND_ERROR,
)


@dataclass
class SchedulerReport:
    """Outcome of one :class:`~repro.core.scheduler.SMTScheduler` run.

    Besides the schedule itself the report records the full search
    trajectory — which strategy ran, the analytic lower bound it started
    from, the constructive upper bound it had available (``None`` for
    strategies that do not compute one), and every stage horizon probed, in
    probe order.  The evaluation runner persists these fields so BENCH JSON
    files stay comparable across revisions.
    """

    schedule: Optional[Schedule]
    optimal: bool
    strategy: str = "linear"
    #: Registry name of the SAT backend that decided the probes
    #: (:mod:`repro.sat.backend`); set by the scheduler facade.
    sat_backend: str = "flat"
    lower_bound: int = 0
    upper_bound: Optional[int] = None
    #: Provenance of the analytic lower bound: the winning certificate name
    #: from :meth:`repro.core.problem.SchedulingProblem.bound_breakdown`
    #: (e.g. ``"clique+transfer"``).  ``None`` only for reports built
    #: outside the strategy layer.
    lower_bound_source: Optional[str] = None
    #: Provenance of the constructive upper bound: which structured
    #: choreography produced the witness (``"structured-homes"`` or
    #: ``"structured-airborne"``); ``None`` when no witness exists.
    upper_bound_source: Optional[str] = None
    stages_tried: list[int] = field(default_factory=list)
    solver_seconds: float = 0.0
    #: How the search ended — one of :data:`TERMINATIONS`
    #: (``"certified"`` / ``"deadline"`` / ``"infeasible"`` /
    #: ``"backend-error"``).  Every strategy honours one graceful-degradation
    #: contract: on a non-certified termination the report still carries the
    #: best-known witness (structured fallback or last SAT model) and the
    #: interval proven by the probes that completed — strategies never raise
    #: and never lose work.  ``None`` only for reports built outside the
    #: strategy layer.
    termination: Optional[str] = None
    statistics: dict[str, float] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        """True when a schedule was found (optimal or not)."""
        return self.schedule is not None

    @property
    def num_horizons(self) -> int:
        """How many stage horizons the strategy asked the solver to decide."""
        return len(self.stages_tried)

