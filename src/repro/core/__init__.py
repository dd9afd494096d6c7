"""The paper's contribution: optimal state preparation scheduling.

Given the CZ-gate list of a state-preparation circuit and a zoned
neutral-atom architecture, produce a schedule of Rydberg beams, trap
transfers and shuttling operations.

Every backend consumes a :class:`~repro.core.problem.SchedulingProblem` —
the shared IR bundling circuit, architecture, shielding policy, and derived
structure (gate loads, interaction graph, zone capacities, analytic stage
bounds).  Three backends produce the same
:class:`~repro.core.schedule.Schedule` type:

* :class:`repro.core.scheduler.SMTScheduler` — the faithful reproduction of
  the paper's approach: the symbolic formulation of Sec. IV (variables V1-V3,
  constraints C1-C6) solved with :mod:`repro.smt`, minimising the number of
  stages with a search strategy (``linear`` iterative deepening or
  ``bisection`` between the IR's analytic bounds — see
  :mod:`repro.core.strategies`).
* :class:`repro.core.structured.StructuredScheduler` — a constructive
  zone-aware scheduler used for the larger Table I instances, where a pure
  Python SMT solve would take days.
* ``baseline`` — the no-zone behaviour of prior tools is obtained by running
  either backend on the no-shielding layout (Layout 1).

Every schedule can be checked independently with
:func:`repro.core.validator.validate_schedule`.
"""

from repro.core.budget import Deadline, DeadlineExceeded
from repro.core.canonical import (
    CANONICAL_VERSION,
    architecture_fingerprint,
    canonical_document,
    canonical_form,
    canonical_key,
    canonical_relabeling,
)
from repro.core.schedule import QubitPlacement, Schedule, Stage, StageKind
from repro.core.problem import BoundBreakdown, SchedulingProblem, ZoneCapacities
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_CERTIFIED,
    TERMINATION_DEADLINE,
    TERMINATION_INFEASIBLE,
    TERMINATIONS,
    SchedulerReport,
)
from repro.core.validator import ValidationError, validate_schedule
from repro.core.structured import StructuredScheduler
from repro.core.scheduler import SMTScheduler
from repro.core.strategies import available_strategies, get_strategy
from repro.core.visualize import render_schedule, render_stage

__all__ = [
    "BoundBreakdown",
    "CANONICAL_VERSION",
    "architecture_fingerprint",
    "canonical_document",
    "canonical_form",
    "canonical_key",
    "canonical_relabeling",
    "Deadline",
    "DeadlineExceeded",
    "QubitPlacement",
    "SMTScheduler",
    "TERMINATIONS",
    "TERMINATION_BACKEND_ERROR",
    "TERMINATION_CERTIFIED",
    "TERMINATION_DEADLINE",
    "TERMINATION_INFEASIBLE",
    "Schedule",
    "SchedulerReport",
    "SchedulingProblem",
    "Stage",
    "StageKind",
    "StructuredScheduler",
    "ValidationError",
    "ZoneCapacities",
    "available_strategies",
    "get_strategy",
    "render_schedule",
    "render_stage",
    "validate_schedule",
]
