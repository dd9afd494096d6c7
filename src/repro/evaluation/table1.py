"""Reproduction of Table I (layout comparison).

For every evaluation code and every architecture layout the harness
generates the state-preparation circuit, schedules it, and reports the same
columns as the paper: scheduling time, number of Rydberg stages (#R), number
of transfer stages (#T), execution time on the architecture, and the
approximated success probability (ASP).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.arch import evaluation_layouts
from repro.arch.architecture import ZonedArchitecture
from repro.core.budget import Deadline
from repro.core.problem import SchedulingProblem
from repro.core.schedule import Schedule
from repro.core.structured import StructuredScheduler
from repro.core.validator import validate_schedule
from repro.metrics import approximate_success_probability
from repro.qec import available_codes, get_code
from repro.qec.state_prep import state_preparation_circuit

#: Display names used by the paper's Table I, keyed by registry name.
CODE_LABELS = {
    "steane": "[[7,1,3]] Steane",
    "surface": "[[9,1,3]] Surface",
    "shor": "[[9,1,3]] Shor",
    "hamming": "[[15,7,3]] Hamming",
    "tetrahedral": "[[15,1,3]] Tetrahedral",
    "honeycomb": "[[17,1,5]] Honeycomb",
}


@dataclass
class LayoutResult:
    """The Table I columns for one (code, layout) cell."""

    layout: str
    scheduling_seconds: float
    num_rydberg_stages: int
    num_transfer_stages: int
    num_transfer_operations: int
    execution_time_ms: float
    asp: float
    unshielded_idle: int
    schedule: Schedule = field(repr=False, default=None)


@dataclass
class Table1Row:
    """One row of Table I: a code evaluated on every layout."""

    code: str
    label: str
    num_qubits: int
    num_cz_gates: int
    layouts: dict[str, LayoutResult] = field(default_factory=dict)


def run_table1_row(
    code_name: str,
    layouts: dict[str, ZonedArchitecture] | None = None,
    deadline: Optional[Deadline] = None,
) -> Table1Row:
    """Evaluate one code on every (or the given) layout.

    Each cell is scheduled by the structured scheduler and validated.

    *deadline* makes the per-layout loop cooperatively preemptible: the
    budget is checked before every cell and expiry raises
    :class:`~repro.core.budget.DeadlineExceeded` (how the bench harness's
    serial ``--timeout`` interrupts a row mid-flight).
    """
    layouts = layouts or evaluation_layouts()
    code = get_code(code_name)
    prep = state_preparation_circuit(code)
    row = Table1Row(
        code=code_name,
        label=CODE_LABELS.get(code_name, code.name),
        num_qubits=code.num_qubits,
        num_cz_gates=prep.num_cz_gates,
    )
    for layout_name, architecture in layouts.items():
        if deadline is not None:
            deadline.check(f"table1 {code_name}/{layout_name}")
        start = time.monotonic()
        problem = SchedulingProblem.from_circuit(
            architecture, prep, metadata={"code": prep.name}
        )
        schedule = StructuredScheduler().schedule(problem)
        elapsed = time.monotonic() - start
        validate_schedule(schedule, require_shielding=architecture.has_storage)
        breakdown = approximate_success_probability(schedule, prep)
        row.layouts[layout_name] = LayoutResult(
            layout=layout_name,
            scheduling_seconds=elapsed,
            num_rydberg_stages=schedule.num_rydberg_stages,
            num_transfer_stages=schedule.num_transfer_stages,
            num_transfer_operations=schedule.num_transfer_operations,
            execution_time_ms=breakdown.timing.total_ms,
            asp=breakdown.asp,
            unshielded_idle=breakdown.unshielded_idle_count,
            schedule=schedule,
        )
    return row


def run_table1(codes: Sequence[str] | None = None) -> list[Table1Row]:
    """Evaluate all (or the given) codes on every layout."""
    code_names = list(codes) if codes is not None else available_codes()
    return [run_table1_row(code) for code in code_names]


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Format rows in the spirit of the paper's Table I."""
    layout_names = list(rows[0].layouts) if rows else []
    header = f"{'Code':<24}{'#CZ':>5}"
    for name in layout_names:
        header += f" | {name:^34}"
    sub_header = " " * 29
    for _ in layout_names:
        sub_header += f" | {'time[s]':>8}{'#R':>4}{'#T':>4}{'t[ms]':>8}{'ASP':>8}"
    lines = [header, sub_header, "-" * len(sub_header)]
    for row in rows:
        line = f"{row.label:<24}{row.num_cz_gates:>5}"
        for name in layout_names:
            cell = row.layouts[name]
            line += (
                f" | {cell.scheduling_seconds:>8.2f}{cell.num_rydberg_stages:>4}"
                f"{cell.num_transfer_stages:>4}{cell.execution_time_ms:>8.2f}{cell.asp:>8.3f}"
            )
        lines.append(line)
    return "\n".join(lines)
