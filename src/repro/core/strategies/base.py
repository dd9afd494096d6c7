"""Strategy infrastructure: limits and the shared search context.

A *search strategy* decides which stage horizons to probe, and in what
order, to find the minimum stage count of a
:class:`~repro.core.problem.SchedulingProblem`.  Every strategy returns a
:class:`~repro.core.scheduler.SchedulerReport`; the
:class:`~repro.core.scheduler.SMTScheduler` facade looks strategies up by
name in the :data:`repro.core.strategies.STRATEGIES` table.

A search decides its probes through one :class:`SearchContext`, with three
calls — ``decide(horizon)``, ``extract(horizon, metadata)`` and
``statistics()``.  The context owns the growable
:class:`~repro.core.encoding.IncrementalInstance` the SMT-backed strategies
share: it lazily (re)builds the instance with capacity headroom, extends it
towards larger horizons, and decides smaller horizons on the same instance
through assumption literals — so learned clauses persist across SAT *and*
UNSAT horizons regardless of the probing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.budget import Deadline
from repro.core.encoding import IncrementalInstance, encode_incremental_problem
from repro.core.problem import SchedulingProblem
from repro.smt import CheckResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule import Schedule

#: Extra stage headroom reserved by a fresh incremental instance beyond the
#: first horizon it is asked to decide, capped at the largest horizon the
#: search can probe (one below the structured witness's stage count, and
#: the stage budget).  A small value keeps the up-front ``gate_stage``
#: bit-vectors narrow (their domain covers the full capacity); searches
#: that outgrow the capacity rebuild the instance with double the
#: headroom, which costs one full re-encode and is rare in practice.
_CAPACITY_HEADROOM = 7

#: Probe statistics that describe the solver rather than the probe's work:
#: formula size, the decision-level high-water mark, and ``backend_retries``,
#: which the solver already keeps as a running total.  A whole-search
#: summary takes them from the last probe instead of summing them.
_LAST_PROBE_STATISTICS = frozenset(
    {"sat_variables", "sat_clauses", "sat_max_decision_level", "backend_retries"}
)


@dataclass(frozen=True)
class SearchLimits:
    """Resource limits a scheduler run imposes on its strategy."""

    max_stages: int = 32
    max_conflicts: Optional[int] = None
    time_limit: Optional[float] = None
    #: Registry name of the SAT backend deciding every probe
    #: (:mod:`repro.sat.backend`).  ``None`` selects the default in-process
    #: flat-array core.  Every registered backend is sound and complete, so
    #: the knob trades speed, never answers.
    sat_backend: Optional[str] = None
    #: Whole-search wall-clock governance (:class:`repro.core.budget.Deadline`).
    #: Unlike :attr:`time_limit` — a *per-probe* cap handed identically to
    #: every probe — the deadline is absolute: every probe's effective time
    #: budget is sliced from the remaining whole-search time, strategies
    #: check it between probes, and on expiry they degrade along the
    #: graceful-degradation contract (``report.termination``).  ``None``
    #: means unbounded.
    deadline: Optional[Deadline] = None


class SearchContext:
    """One growable incremental instance serving a whole strategy run."""

    def __init__(
        self,
        problem: SchedulingProblem,
        limits: SearchLimits,
        upper_bound: Optional[int] = None,
    ) -> None:
        self.problem = problem
        self.limits = limits
        # A schedule of ``upper_bound`` stages is in hand (the structured
        # witness), so no horizon at or above it is ever probed.
        self._ceiling = limits.max_stages
        if upper_bound is not None:
            self._ceiling = min(self._ceiling, upper_bound - 1)
        self._headroom = _CAPACITY_HEADROOM
        self._instance: Optional[IncrementalInstance] = None

    @property
    def instance(self) -> Optional[IncrementalInstance]:
        """The current incremental instance (``None`` before the first probe)."""
        return self._instance

    def decide(self, horizon: int) -> CheckResult:
        """Decide satisfiability at *horizon* stages, growing as needed.

        With a deadline in the limits, the probe's effective time and
        conflict budgets are sliced from the *remaining* whole-search time
        (an expired deadline short-circuits to UNKNOWN inside the SMT
        facade), so no single probe can overrun the search budget.
        """
        instance = self._ensure_capacity(horizon)
        if horizon > instance.num_stages:
            instance.extend_to(horizon)
        return instance.check(
            max_conflicts=self.limits.max_conflicts,
            time_limit=self.limits.time_limit,
            horizon=horizon,
            deadline=self.limits.deadline,
        )

    def extract(self, horizon: int, metadata: dict | None = None) -> "Schedule":
        """Extract the schedule of the last SAT probe, truncated to *horizon*."""
        if self._instance is None:
            raise RuntimeError("no instance built yet; call decide() first")
        return self._instance.extract_schedule(metadata=metadata, horizon=horizon)

    def statistics(self) -> dict[str, float]:
        """Statistics of the most recent probe."""
        return {} if self._instance is None else self._instance.statistics()

    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, horizon: int) -> IncrementalInstance:
        instance = self._instance
        if instance is not None and horizon <= instance.max_stages:
            return instance
        if instance is not None:
            # Capacity exhausted: rebuild with more headroom (one cold
            # re-encode; learned clauses of the old instance are dropped).
            self._headroom *= 2
        capacity = min(self._ceiling, horizon + self._headroom)
        instance = encode_incremental_problem(
            self.problem,
            num_stages=horizon,
            max_stages=max(capacity, horizon),
            backend=self.limits.sat_backend,
        )
        self._instance = instance
        return instance


def accumulate_statistics(
    total: dict[str, float], probe: dict[str, float]
) -> dict[str, float]:
    """Fold one probe's statistics into the whole-search *total*.

    ``encode_seconds``, ``solve_seconds`` and the ``sat_*`` per-check
    counter deltas are summed; the :data:`_LAST_PROBE_STATISTICS` gauges
    keep the last probe's value; every ``*_per_second`` rate is recomputed
    from its summed counter over the summed ``solve_seconds``.  A check
    that returned early on an expired deadline did no work and adds nothing
    but its ``deadline_expired`` flag.
    """
    if probe.get("deadline_expired"):
        return {**total, "deadline_expired": 1.0}
    merged = dict(total)
    rates = [key for key in probe if key.endswith("_per_second")]
    for key, value in probe.items():
        if key in rates:
            continue
        if key in _LAST_PROBE_STATISTICS:
            merged[key] = value
        else:
            merged[key] = merged.get(key, 0) + value
    solve_seconds = merged.get("solve_seconds", 0.0)
    for rate in rates:
        counter = merged.get(rate[: -len("_per_second")], 0)
        merged[rate] = counter / solve_seconds if solve_seconds > 0 else 0.0
    return merged
