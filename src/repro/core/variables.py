"""Symbolic variables of the SMT formulation (Sec. IV-A, boxes V1-V3).

For every qubit ``q`` and stage ``t`` the formulation uses

* ``x, y`` — interaction-site coordinates,
* ``h, v`` — offsets within the interaction site,
* ``a``    — whether the qubit sits in an AOD trap,
* ``c, r`` — AOD column and row indices,

for every gate ``i`` the stage ``g_i`` at which it is executed, for every
stage the execution flag ``e_t``, and for every AOD column/row and stage the
load/store flags (V3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.architecture import ZonedArchitecture
from repro.smt import Solver
from repro.smt.terms import BoolVar, IntVar


@dataclass
class StatePrepVariables:
    """All symbolic variables of one scheduling instance."""

    architecture: ZonedArchitecture
    num_qubits: int
    num_gates: int
    num_stages: int
    solver: Solver
    #: Upper bound on the stage count the ``gate_stage`` domains admit.  The
    #: fixed-S encoding keeps this equal to ``num_stages``; the incremental
    #: encoding reserves headroom so stages can be appended without
    #: re-allocating the gate variables (whose domain is fixed at creation).
    gate_stage_capacity: int = 0

    x: list[list[IntVar]] = field(default_factory=list)
    y: list[list[IntVar]] = field(default_factory=list)
    h: list[list[IntVar]] = field(default_factory=list)
    v: list[list[IntVar]] = field(default_factory=list)
    a: list[list[BoolVar]] = field(default_factory=list)
    c: list[list[IntVar]] = field(default_factory=list)
    r: list[list[IntVar]] = field(default_factory=list)
    gate_stage: list[IntVar] = field(default_factory=list)
    execution: list[BoolVar] = field(default_factory=list)
    column_load: list[list[BoolVar]] = field(default_factory=list)
    column_store: list[list[BoolVar]] = field(default_factory=list)
    row_load: list[list[BoolVar]] = field(default_factory=list)
    row_store: list[list[BoolVar]] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        solver: Solver,
        architecture: ZonedArchitecture,
        num_qubits: int,
        num_gates: int,
        num_stages: int,
        gate_stage_capacity: int | None = None,
    ) -> "StatePrepVariables":
        """Allocate all variables with the domains of box V1-V3.

        *gate_stage_capacity* widens the ``g_i`` domains to ``[0, capacity-1]``
        so the instance can later grow to ``capacity`` stages via
        :meth:`add_stage`.  The default (``None``) keeps the exact
        ``num_stages`` domain of the fixed-S encoding.
        """
        if num_stages <= 0:
            raise ValueError("a schedule needs at least one stage")
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if gate_stage_capacity is None:
            gate_stage_capacity = num_stages
        if gate_stage_capacity < num_stages:
            raise ValueError(
                f"gate_stage_capacity {gate_stage_capacity} is smaller than "
                f"num_stages {num_stages}"
            )
        arch = architecture
        variables = cls(
            architecture=arch,
            num_qubits=num_qubits,
            num_gates=num_gates,
            num_stages=0,
            solver=solver,
            gate_stage_capacity=gate_stage_capacity,
        )
        for q in range(num_qubits):
            variables.x.append([])
            variables.y.append([])
            variables.h.append([])
            variables.v.append([])
            variables.a.append([])
            variables.c.append([])
            variables.r.append([])
        variables.gate_stage = [
            solver.int_var(f"g_{i}", 0, gate_stage_capacity - 1) for i in range(num_gates)
        ]
        variables.column_load = [[] for _ in range(arch.c_max + 1)]
        variables.column_store = [[] for _ in range(arch.c_max + 1)]
        variables.row_load = [[] for _ in range(arch.r_max + 1)]
        variables.row_store = [[] for _ in range(arch.r_max + 1)]
        for _ in range(num_stages):
            variables.add_stage()
        return variables

    def add_stage(self) -> int:
        """Append the variables of one more stage and return its index.

        Only the variables are created; the caller is responsible for
        asserting the constraints that mention the new stage (see
        :func:`repro.core.constraints.assert_stage`).
        """
        t = self.num_stages
        if t >= self.gate_stage_capacity:
            raise ValueError(
                f"cannot add stage {t}: gate_stage_capacity is {self.gate_stage_capacity}"
            )
        solver = self.solver
        arch = self.architecture
        for q in range(self.num_qubits):
            self.x[q].append(solver.int_var(f"x_q{q}_t{t}", 0, arch.x_max))
            self.y[q].append(solver.int_var(f"y_q{q}_t{t}", 0, arch.y_max))
            self.h[q].append(solver.int_var(f"h_q{q}_t{t}", -arch.h_max, arch.h_max))
            self.v[q].append(solver.int_var(f"v_q{q}_t{t}", -arch.v_max, arch.v_max))
            self.a[q].append(solver.bool_var(f"a_q{q}_t{t}"))
            self.c[q].append(solver.int_var(f"c_q{q}_t{t}", 0, arch.c_max))
            self.r[q].append(solver.int_var(f"r_q{q}_t{t}", 0, arch.r_max))
        self.execution.append(solver.bool_var(f"e_t{t}"))
        for k in range(arch.c_max + 1):
            self.column_load[k].append(solver.bool_var(f"cl_k{k}_t{t}"))
            self.column_store[k].append(solver.bool_var(f"cs_k{k}_t{t}"))
        for k in range(arch.r_max + 1):
            self.row_load[k].append(solver.bool_var(f"rl_k{k}_t{t}"))
            self.row_store[k].append(solver.bool_var(f"rs_k{k}_t{t}"))
        self.num_stages = t + 1
        return t
