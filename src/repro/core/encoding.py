"""Complete SMT encoding of one scheduling problem plus model extraction.

Both instance flavours sit on the same incremental
:class:`~repro.smt.solver.Solver` over the same formula; they differ in
how the stage horizon is imposed:

* :class:`EncodedInstance` (:func:`encode_problem`) — a fixed stage count
  whose ``gate_stage`` domains end at that horizon.  No search runs on it;
  it is the reference the differential tests hold the search against, and
  the CNF source of :func:`repro.sat.bench.scheduling_cnf`.
* :class:`IncrementalInstance` (:func:`encode_incremental_problem`) — a
  growable encoding: the instance starts at some stage count and is
  *extended in place* one stage at a time
  (:meth:`IncrementalInstance.extend_to`).  The stage horizon is imposed with
  fresh activation literals assumed per :meth:`IncrementalInstance.check`
  call, so the underlying CDCL solver keeps its learned clauses and variable
  activities across the whole minimum-stage search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.arch.architecture import ZonedArchitecture
from repro.core import constraints as C
from repro.core.budget import Deadline
from repro.core.schedule import QubitPlacement, Schedule, Stage, StageKind
from repro.core.variables import StatePrepVariables
from repro.smt import CheckResult, Implies, Not, Solver
from repro.smt.solver import Model
from repro.smt.terms import BoolVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import SchedulingProblem

Gate = tuple[int, int]


@dataclass
class EncodedInstance:
    """A fully constrained instance for a fixed number of stages."""

    architecture: ZonedArchitecture
    num_qubits: int
    gates: list[Gate]
    num_stages: int
    shielding: bool
    solver: Solver
    variables: StatePrepVariables

    def check(
        self,
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> CheckResult:
        """Decide the instance."""
        return self.solver.check(
            max_conflicts=max_conflicts, time_limit=time_limit, deadline=deadline
        )

    def statistics(self) -> dict[str, float]:
        """Statistics of the most recent check."""
        return self.solver.statistics()

    def extract_schedule(self, metadata: dict | None = None) -> Schedule:
        """Convert the satisfying assignment into a :class:`Schedule`."""
        model = self.solver.model()
        return extract_schedule(self, model, metadata)


@dataclass
class IncrementalInstance:
    """A scheduling instance that can grow from S to S+1 stages in place.

    The ``gate_stage`` variables are allocated with domain
    ``[0, max_stages-1]`` up front; the *effective* horizon ``S`` is enforced
    by a per-horizon activation literal ``_horizon_S`` with the guarded
    constraints ``_horizon_S -> g_i <= S-1`` and passed to the solver as an
    assumption.  Because assumptions are not asserted, a later check with a
    larger horizon simply stops assuming the old literal — nothing has to be
    retracted, and every clause the SAT core learned while refuting the
    smaller horizon remains valid.

    Checks may also target a horizon *below* the current stage count
    (``check(horizon=h)`` with ``h <= num_stages``), which is what the
    bisection strategies use: a single instance grown to the largest probed
    horizon decides every smaller horizon through its activation literal.
    This is sound in both directions because any satisfying assignment of an
    ``h``-stage encoding extends to the larger instance by replaying the last
    placements through do-nothing transfer stages (every trailing constraint
    is an implication guarded by an execution flag or a load/store flag that
    the extension sets to false), and conversely the first ``h`` stages of a
    model with all gates inside the horizon satisfy exactly the ``h``-stage
    constraint set.  :meth:`extract_schedule` truncates accordingly.
    """

    architecture: ZonedArchitecture
    num_qubits: int
    gates: list[Gate]
    shielding: bool
    solver: Solver
    variables: StatePrepVariables
    _horizons: dict[int, BoolVar] = field(default_factory=dict)

    @property
    def num_stages(self) -> int:
        """The current stage horizon."""
        return self.variables.num_stages

    @property
    def max_stages(self) -> int:
        """The largest horizon this instance can grow to."""
        return self.variables.gate_stage_capacity

    def extend_to(self, num_stages: int) -> None:
        """Grow the instance to *num_stages* stages (no-op when already there).

        Each added stage allocates its variables and asserts exactly the
        constraints a fixed-S encoding of the larger instance would
        contain for that stage (intra-stage groups plus the transition from
        the previously last stage).
        """
        if num_stages > self.max_stages:
            raise ValueError(
                f"cannot extend to {num_stages} stages: capacity is {self.max_stages}"
            )
        while self.variables.num_stages < num_stages:
            stage = self.variables.add_stage()
            C.assert_stage(self.variables, self.gates, stage, shielding=self.shielding)

    def check(
        self,
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
        horizon: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> CheckResult:
        """Decide the instance at *horizon* stages (default: all of them).

        *horizon* may be any value in ``[1, num_stages]``; smaller horizons
        are decided on the already-encoded larger instance through their
        activation literal (see the class docstring for why this is exact).
        A *deadline* caps the check's effective limits at the remaining
        whole-search budget (see :meth:`repro.smt.solver.Solver.check`).
        """
        if horizon is None:
            horizon = self.variables.num_stages
        elif not 1 <= horizon <= self.variables.num_stages:
            raise ValueError(
                f"horizon {horizon} outside the encoded range "
                f"[1, {self.variables.num_stages}]"
            )
        literal = self._horizon_literal(horizon)
        result = self.solver.check(
            assumptions=[literal],
            max_conflicts=max_conflicts,
            time_limit=time_limit,
            deadline=deadline,
        )
        if result is CheckResult.UNSAT:
            # UNSAT under the assumption proves the formula entails the
            # literal's negation; asserting it satisfies the horizon's guard
            # clauses outright and keeps the solver from ever revisiting the
            # refuted horizon.  (Not sound after UNKNOWN, hence the guard.)
            self.solver.add(Not(literal))
        return result

    def statistics(self) -> dict[str, float]:
        """Statistics of the most recent check."""
        return self.solver.statistics()

    def extract_schedule(
        self, metadata: dict | None = None, horizon: Optional[int] = None
    ) -> Schedule:
        """Convert the satisfying assignment into a :class:`Schedule`.

        With *horizon* the schedule is truncated to that many stages — valid
        after a satisfiable ``check(horizon=...)``, whose assumption confines
        every gate to the truncated prefix.
        """
        model = self.solver.model()
        return extract_schedule(self, model, metadata, horizon=horizon)

    def _horizon_literal(self, horizon: int) -> BoolVar:
        """Activation literal restricting every gate to the first *horizon* stages."""
        literal = self._horizons.get(horizon)
        if literal is None:
            literal = self.solver.bool_var(f"_horizon_{horizon}")
            for gate_stage in self.variables.gate_stage:
                self.solver.add(Implies(literal, gate_stage <= horizon - 1))
            self._horizons[horizon] = literal
        return literal


def _encode(
    problem: "SchedulingProblem",
    num_stages: int,
    backend: str | None,
    max_stages: int | None = None,
) -> tuple[Solver, StatePrepVariables]:
    """Assert the constraints of *problem* at *num_stages* stages.

    The ``gate_stage`` domains cover *max_stages* stages (default: exactly
    *num_stages*).  The problem's gates are already validated and sorted
    and its shielding resolved (:meth:`SchedulingProblem.from_gates`).
    """
    solver = Solver(backend=backend)
    variables = StatePrepVariables.create(
        solver,
        problem.architecture,
        problem.num_qubits,
        len(problem.gates),
        num_stages,
        gate_stage_capacity=max_stages,
    )
    C.assert_all(variables, problem.gates, shielding=problem.shielding)
    return solver, variables


def encode_problem(
    problem: "SchedulingProblem", num_stages: int, backend: str | None = None
) -> EncodedInstance:
    """Fixed-S encoding of a :class:`SchedulingProblem`.

    *backend* selects the SAT backend by registry name (default: the
    in-process flat core).
    """
    solver, variables = _encode(problem, num_stages, backend)
    return EncodedInstance(
        architecture=problem.architecture,
        num_qubits=problem.num_qubits,
        gates=list(problem.gates),
        num_stages=num_stages,
        shielding=problem.shielding,
        solver=solver,
        variables=variables,
    )


def encode_incremental_problem(
    problem: "SchedulingProblem",
    num_stages: int,
    max_stages: int,
    backend: str | None = None,
) -> IncrementalInstance:
    """Growable encoding of a :class:`SchedulingProblem`.

    The instance starts at *num_stages* stages and can later be extended up
    to *max_stages* stages without re-encoding the stages that exist.
    """
    solver, variables = _encode(problem, num_stages, backend, max_stages)
    return IncrementalInstance(
        architecture=problem.architecture,
        num_qubits=problem.num_qubits,
        gates=list(problem.gates),
        shielding=problem.shielding,
        solver=solver,
        variables=variables,
    )


def extract_schedule(
    instance: EncodedInstance | IncrementalInstance,
    model: Model,
    metadata: dict | None = None,
    horizon: int | None = None,
) -> Schedule:
    """Read the variable assignment back into a concrete schedule.

    *horizon* truncates the schedule to its first stages; the caller must
    guarantee (e.g. through a horizon assumption) that every gate executes
    inside the truncated prefix.
    """
    variables = instance.variables
    num_stages = instance.num_stages if horizon is None else horizon
    if not 1 <= num_stages <= instance.num_stages:
        raise ValueError(
            f"horizon {num_stages} outside the encoded range [1, {instance.num_stages}]"
        )
    stages: list[Stage] = []
    gate_stages = [model[g] for g in variables.gate_stage]
    for t in range(num_stages):
        placements: dict[int, QubitPlacement] = {}
        for q in range(instance.num_qubits):
            in_aod = bool(model[variables.a[q][t]])
            placements[q] = QubitPlacement(
                x=model[variables.x[q][t]],
                y=model[variables.y[q][t]],
                h=model[variables.h[q][t]],
                v=model[variables.v[q][t]],
                in_aod=in_aod,
                column=model[variables.c[q][t]] if in_aod else None,
                row=model[variables.r[q][t]] if in_aod else None,
            )
        is_execution = bool(model[variables.execution[t]])
        if is_execution:
            gates_here = [
                instance.gates[i] for i, stage in enumerate(gate_stages) if stage == t
            ]
            stages.append(
                Stage(kind=StageKind.RYDBERG, placements=placements, gates=gates_here)
            )
        else:
            stored: list[int] = []
            loaded: list[int] = []
            if t < num_stages - 1:
                for q in range(instance.num_qubits):
                    now = bool(model[variables.a[q][t]])
                    later = bool(model[variables.a[q][t + 1]])
                    if now and not later:
                        stored.append(q)
                    elif not now and later:
                        loaded.append(q)
            stages.append(
                Stage(
                    kind=StageKind.TRANSFER,
                    placements=placements,
                    stored_qubits=stored,
                    loaded_qubits=loaded,
                )
            )
    return Schedule(
        architecture=instance.architecture,
        num_qubits=instance.num_qubits,
        stages=stages,
        target_gates=list(instance.gates),
        metadata={"backend": "smt", "num_stages": num_stages, **(metadata or {})},
    )
