"""Architecture design-space exploration.

Sec. V-C of the paper argues that the approach "allows to evaluate the
benefits of the zoned neutral atom architecture" and "provides valuable
insights for the design of future quantum devices".  This module provides a
small design-space sweep in that spirit: it varies the zone structure (and
optionally the number of AOD lines) and reports the resulting ASP for a
given code, using the same pipeline as the Table I harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch import (
    bottom_storage_layout,
    double_sided_storage_layout,
    no_shielding_layout,
)
from repro.arch.architecture import ZonedArchitecture
from repro.core.budget import Deadline
from repro.core.problem import SchedulingProblem
from repro.core.structured import StructuredScheduler
from repro.core.validator import validate_schedule
from repro.metrics import approximate_success_probability
from repro.qec import get_code
from repro.qec.state_prep import state_preparation_circuit


@dataclass
class ExplorationResult:
    """Outcome of one design point."""

    code: str
    architecture: str
    num_rydberg_stages: int
    num_transfer_stages: int
    execution_time_ms: float
    asp: float


def default_design_space() -> dict[str, ZonedArchitecture]:
    """The layouts compared by the paper plus AOD-count variations."""
    designs: dict[str, ZonedArchitecture] = {
        "no shielding": no_shielding_layout(),
        "bottom storage": bottom_storage_layout(),
        "double-sided storage": double_sided_storage_layout(),
    }
    return designs


def run_architecture_exploration(
    code_name: str,
    designs: dict[str, ZonedArchitecture] | None = None,
    deadline: Optional[Deadline] = None,
) -> list[ExplorationResult]:
    """Schedule *code_name*'s preparation circuit on every design point.

    *deadline* makes the sweep cooperatively preemptible: the budget is
    checked before every design point and expiry raises
    :class:`~repro.core.budget.DeadlineExceeded` (how the bench harness's
    serial ``--timeout`` interrupts a sweep mid-flight).
    """
    designs = designs or default_design_space()
    code = get_code(code_name)
    prep = state_preparation_circuit(code)
    results: list[ExplorationResult] = []
    for name, architecture in designs.items():
        if deadline is not None:
            deadline.check(f"exploration {code_name}/{name}")
        problem = SchedulingProblem.from_circuit(
            architecture, prep, metadata={"code": code.name}
        )
        schedule = StructuredScheduler().schedule(problem)
        validate_schedule(schedule, require_shielding=problem.shielding)
        breakdown = approximate_success_probability(schedule, prep)
        results.append(
            ExplorationResult(
                code=code_name,
                architecture=name,
                num_rydberg_stages=schedule.num_rydberg_stages,
                num_transfer_stages=schedule.num_transfer_stages,
                execution_time_ms=breakdown.timing.total_ms,
                asp=breakdown.asp,
            )
        )
    return results


def format_exploration(results: Sequence[ExplorationResult]) -> str:
    """Tabular rendering of an exploration sweep."""
    lines = [f"{'Architecture':<28}{'#R':>4}{'#T':>4}{'t[ms]':>9}{'ASP':>8}"]
    for result in results:
        lines.append(
            f"{result.architecture:<28}{result.num_rydberg_stages:>4}"
            f"{result.num_transfer_stages:>4}{result.execution_time_ms:>9.2f}{result.asp:>8.3f}"
        )
    return "\n".join(lines)
