"""Constraints of the SMT formulation (Sec. IV-B, boxes C1-C6).

Every function takes the variable container and the gate list and asserts
one constraint group into the container's solver.  The equations of the
paper are referenced by number; the two constraints the paper omits "for
brevity" (the vertical AOD-row ordering counterpart of Eq. 11/21 and the
loading counterpart of Eq. 20) are spelled out explicitly.

Each stage-indexed group accepts an optional *stages* (intra-stage
constraints) or *transitions* (constraints linking stage ``t`` to ``t+1``)
argument selecting which stage indices to assert.  The default (``None``)
asserts the full instance (the fixed-S encoding);
:func:`assert_stage` uses the ranged form to extend an instance by one stage
in place for the incremental scheduler.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.variables import StatePrepVariables
from repro.smt import And, Iff, Implies, Not, Or

Gate = tuple[int, int]


def _stage_range(
    variables: StatePrepVariables, stages: Iterable[int] | None
) -> Iterable[int]:
    return range(variables.num_stages) if stages is None else stages


def _transition_range(
    variables: StatePrepVariables, transitions: Iterable[int] | None
) -> Iterable[int]:
    return range(variables.num_stages - 1) if transitions is None else transitions


def assert_all(
    variables: StatePrepVariables,
    gates: Sequence[Gate],
    shielding: bool = True,
) -> None:
    """Assert the complete constraint system C1-C6.

    *shielding* selects between Eq. 14 (idle qubits must leave the
    entangling zone — layouts with a storage zone) and the footnote-2
    variant used for the no-shielding layout (idle qubits merely sit at
    separate interaction sites).
    """
    positioning_qubits(variables)
    ordering_aod_lines(variables)
    executing_gates(variables, gates)
    shielding_idling_qubits(variables, gates, shielding)
    no_unintended_interactions(variables, gates)
    shuttling_in_execution_stages(variables)
    storing_in_transfer_stages(variables)
    loading_and_shuttling_in_transfer_stages(variables)


def assert_stage(
    variables: StatePrepVariables,
    gates: Sequence[Gate],
    stage: int,
    shielding: bool = True,
) -> None:
    """Assert every constraint that mentions the freshly added *stage*.

    Complements :meth:`StatePrepVariables.add_stage`: the intra-stage groups
    are asserted for *stage* alone and the transition groups for the edge
    ``stage-1 -> stage``.  Asserting stages ``0..S-1`` one by one therefore
    yields exactly the constraint set of a fixed ``S``-stage instance
    (modulo the wider ``gate_stage`` domains, which the incremental scheduler
    narrows with assumption-guarded horizon constraints).
    """
    stages = (stage,)
    positioning_qubits(variables, stages=stages)
    ordering_aod_lines(variables, stages=stages)
    gate_preconditions(variables, gates, stages=stages)
    shielding_idling_qubits(variables, gates, shielding, stages=stages)
    no_unintended_interactions(variables, gates, stages=stages)
    if stage > 0:
        transitions = (stage - 1,)
        shuttling_in_execution_stages(variables, transitions=transitions)
        storing_in_transfer_stages(variables, transitions=transitions)
        loading_and_shuttling_in_transfer_stages(variables, transitions=transitions)


# --------------------------------------------------------------------------- #
# C1 — positioning qubits (Eqs. 9, 10)
# --------------------------------------------------------------------------- #
def positioning_qubits(
    variables: StatePrepVariables, stages: Iterable[int] | None = None
) -> None:
    """A trap holds at most one qubit; SLM qubits sit at the site centre."""
    solver = variables.solver
    for t in _stage_range(variables, stages):
        for q in range(variables.num_qubits):
            for p in range(q + 1, variables.num_qubits):
                same_offsets = And(
                    variables.h[q][t] == variables.h[p][t],
                    variables.v[q][t] == variables.v[p][t],
                )
                different_site = Or(
                    Not(variables.x[q][t] == variables.x[p][t]),
                    Not(variables.y[q][t] == variables.y[p][t]),
                )
                solver.add(Implies(same_offsets, different_site))  # Eq. 9
        for q in range(variables.num_qubits):
            solver.add(
                Implies(
                    Not(variables.a[q][t]),
                    And(variables.h[q][t] == 0, variables.v[q][t] == 0),
                )
            )  # Eq. 10


# --------------------------------------------------------------------------- #
# C2 — ordering AOD lines (Eq. 11 and its vertical counterpart)
# --------------------------------------------------------------------------- #
def ordering_aod_lines(
    variables: StatePrepVariables, stages: Iterable[int] | None = None
) -> None:
    """AOD column/row indices reflect the geometric order of AOD qubits."""
    solver = variables.solver
    for t in _stage_range(variables, stages):
        for q in range(variables.num_qubits):
            for p in range(variables.num_qubits):
                if p == q:
                    continue
                both_aod = And(variables.a[q][t], variables.a[p][t])
                horizontally_before = Or(
                    variables.x[q][t] < variables.x[p][t],
                    And(
                        variables.x[q][t] == variables.x[p][t],
                        variables.h[q][t] < variables.h[p][t],
                    ),
                )
                solver.add(
                    Implies(
                        both_aod,
                        Iff(variables.c[q][t] < variables.c[p][t], horizontally_before),
                    )
                )  # Eq. 11
                vertically_before = Or(
                    variables.y[q][t] < variables.y[p][t],
                    And(
                        variables.y[q][t] == variables.y[p][t],
                        variables.v[q][t] < variables.v[p][t],
                    ),
                )
                solver.add(
                    Implies(
                        both_aod,
                        Iff(variables.r[q][t] < variables.r[p][t], vertically_before),
                    )
                )  # vertical counterpart (omitted in the paper for brevity)


# --------------------------------------------------------------------------- #
# C3 — executing gates (Eqs. 12, 13) and shielding (Eq. 14 / footnote 2)
# --------------------------------------------------------------------------- #
def executing_gates(variables: StatePrepVariables, gates: Sequence[Gate]) -> None:
    """Executed gates happen in execution stages with adjacent operands."""
    gate_preconditions(variables, gates)
    conflicting_gates_ordered(variables, gates)


def gate_preconditions(
    variables: StatePrepVariables,
    gates: Sequence[Gate],
    stages: Iterable[int] | None = None,
) -> None:
    """Eq. 12: a gate's stage is an execution stage with adjacent operands."""
    solver = variables.solver
    arch = variables.architecture
    radius = arch.interaction_radius
    e_min, e_max = arch.entangling_rows
    for i, (q, p) in enumerate(gates):
        for t in _stage_range(variables, stages):
            preconditions = And(
                variables.execution[t],
                variables.x[q][t] == variables.x[p][t],
                variables.y[q][t] == variables.y[p][t],
                abs(variables.h[p][t] - variables.h[q][t]) < radius,
                abs(variables.v[p][t] - variables.v[q][t]) < radius,
                variables.y[q][t] >= e_min,
                variables.y[q][t] <= e_max,
                variables.y[p][t] >= e_min,
                variables.y[p][t] <= e_max,
            )
            solver.add(Implies(variables.gate_stage[i] == t, preconditions))  # Eq. 12


def conflicting_gates_ordered(
    variables: StatePrepVariables, gates: Sequence[Gate]
) -> None:
    """Eq. 13: gates sharing a qubit run in different stages (stage-free)."""
    solver = variables.solver
    for i in range(len(gates)):
        for j in range(i + 1, len(gates)):
            if set(gates[i]) & set(gates[j]):
                solver.add(Not(variables.gate_stage[i] == variables.gate_stage[j]))  # Eq. 13


def shielding_idling_qubits(
    variables: StatePrepVariables,
    gates: Sequence[Gate],
    shielding: bool,
    stages: Iterable[int] | None = None,
) -> None:
    """Eq. 14 (shielded layouts) or the footnote-2 variant (no storage zone)."""
    solver = variables.solver
    arch = variables.architecture
    e_min, e_max = arch.entangling_rows
    for q in range(variables.num_qubits):
        gate_indices = [i for i, gate in enumerate(gates) if q in gate]
        for t in _stage_range(variables, stages):
            busy_here = Or(*[variables.gate_stage[i] == t for i in gate_indices])
            inside_entangling_zone = And(
                variables.y[q][t] >= e_min, variables.y[q][t] <= e_max
            )
            if shielding:
                solver.add(
                    Implies(
                        variables.execution[t],
                        Or(busy_here, Not(inside_entangling_zone)),
                    )
                )  # Eq. 14
            else:
                # Footnote 2: idle qubits cannot leave the entangling zone but
                # must sit at their own interaction site (separation is then
                # enforced by the no-unintended-interaction constraint below).
                solver.add(Implies(variables.execution[t], inside_entangling_zone))


def no_unintended_interactions(
    variables: StatePrepVariables,
    gates: Sequence[Gate],
    stages: Iterable[int] | None = None,
) -> None:
    """Two qubits within the blockade radius during a beam must be a gate.

    The paper keeps this implicit (idle qubits are either shielded or
    "sufficiently separated"); stating it explicitly makes the model safe on
    both layout variants.
    """
    solver = variables.solver
    arch = variables.architecture
    radius = arch.interaction_radius
    e_min, e_max = arch.entangling_rows
    # Duplicate gates matter: the pair is "intended" whenever ANY occurrence
    # executes at the stage, so the lookup keeps every index (a single-index
    # map would make any circuit with a repeated CZ gate unsatisfiable).
    gate_lookup: dict[frozenset, list[int]] = {}
    for i, gate in enumerate(gates):
        gate_lookup.setdefault(frozenset(gate), []).append(i)
    for t in _stage_range(variables, stages):
        for q in range(variables.num_qubits):
            for p in range(q + 1, variables.num_qubits):
                near = And(
                    variables.x[q][t] == variables.x[p][t],
                    variables.y[q][t] == variables.y[p][t],
                    abs(variables.h[p][t] - variables.h[q][t]) < radius,
                    abs(variables.v[p][t] - variables.v[q][t]) < radius,
                    variables.y[q][t] >= e_min,
                    variables.y[q][t] <= e_max,
                )
                gate_indices = gate_lookup.get(frozenset((q, p)), [])
                allowed = Or(
                    *[variables.gate_stage[i] == t for i in gate_indices]
                )
                solver.add(Implies(And(variables.execution[t], near), allowed))


# --------------------------------------------------------------------------- #
# C4 — shuttling in execution stages (Eqs. 15-17)
# --------------------------------------------------------------------------- #
def shuttling_in_execution_stages(
    variables: StatePrepVariables, transitions: Iterable[int] | None = None
) -> None:
    """During execution stages qubits keep their trap type, SLM qubits their
    site, and AOD qubits their column/row."""
    solver = variables.solver
    for t in _transition_range(variables, transitions):
        for q in range(variables.num_qubits):
            solver.add(
                Implies(
                    variables.execution[t],
                    Iff(variables.a[q][t], variables.a[q][t + 1]),
                )
            )  # Eq. 15
            solver.add(
                Implies(
                    variables.execution[t],
                    Or(
                        variables.a[q][t],
                        And(
                            variables.x[q][t] == variables.x[q][t + 1],
                            variables.y[q][t] == variables.y[q][t + 1],
                        ),
                    ),
                )
            )  # Eq. 16
            solver.add(
                Implies(
                    variables.execution[t],
                    Or(
                        Not(variables.a[q][t]),
                        And(
                            variables.c[q][t] == variables.c[q][t + 1],
                            variables.r[q][t] == variables.r[q][t + 1],
                        ),
                    ),
                )
            )  # Eq. 17


# --------------------------------------------------------------------------- #
# C5 — storing in transfer stages (Eqs. 18-20)
# --------------------------------------------------------------------------- #
def storing_in_transfer_stages(
    variables: StatePrepVariables, transitions: Iterable[int] | None = None
) -> None:
    """Stores happen at site centres, SLM-bound qubits stay put, and stores
    act on whole AOD lines."""
    solver = variables.solver
    for t in _transition_range(variables, transitions):
        transfer = Not(variables.execution[t])
        for q in range(variables.num_qubits):
            solver.add(
                Implies(
                    transfer,
                    Or(
                        variables.a[q][t + 1],
                        And(variables.h[q][t] == 0, variables.v[q][t] == 0),
                    ),
                )
            )  # Eq. 18
            solver.add(
                Implies(
                    transfer,
                    Or(
                        variables.a[q][t + 1],
                        And(
                            variables.x[q][t] == variables.x[q][t + 1],
                            variables.y[q][t] == variables.y[q][t + 1],
                        ),
                    ),
                )
            )  # Eq. 19
            # Eq. 20: a qubit in an AOD trap is stored exactly when its column
            # or its row performs a store operation.
            store_flag = Or(
                _select(variables.column_store, variables.c[q][t], t),
                _select(variables.row_store, variables.r[q][t], t),
            )
            solver.add(
                Implies(
                    transfer,
                    Or(
                        Not(variables.a[q][t]),
                        Iff(Not(variables.a[q][t + 1]), store_flag),
                    ),
                )
            )


# --------------------------------------------------------------------------- #
# C6 — loading and shuttling in transfer stages (Eq. 21 + counterparts)
# --------------------------------------------------------------------------- #
def loading_and_shuttling_in_transfer_stages(
    variables: StatePrepVariables, transitions: Iterable[int] | None = None
) -> None:
    """Loads are flagged on their AOD lines and the relative order of AOD
    qubits after a transfer stage matches their geometric order before it."""
    solver = variables.solver
    for t in _transition_range(variables, transitions):
        transfer = Not(variables.execution[t])
        for q in range(variables.num_qubits):
            # Loading counterpart of Eq. 20 (omitted in the paper for
            # brevity): a qubit that enters an AOD trap must sit on a column
            # or row that performs a load operation.
            load_flag = Or(
                _select(variables.column_load, variables.c[q][t + 1], t),
                _select(variables.row_load, variables.r[q][t + 1], t),
            )
            solver.add(
                Implies(
                    And(transfer, Not(variables.a[q][t]), variables.a[q][t + 1]),
                    load_flag,
                )
            )
        for q in range(variables.num_qubits):
            for p in range(variables.num_qubits):
                if p == q:
                    continue
                both_aod_next = And(
                    transfer, variables.a[q][t + 1], variables.a[p][t + 1]
                )
                horizontally_before_now = Or(
                    variables.x[q][t] < variables.x[p][t],
                    And(
                        variables.x[q][t] == variables.x[p][t],
                        variables.h[q][t] < variables.h[p][t],
                    ),
                )
                solver.add(
                    Implies(
                        both_aod_next,
                        Iff(
                            variables.c[q][t + 1] < variables.c[p][t + 1],
                            horizontally_before_now,
                        ),
                    )
                )  # Eq. 21
                vertically_before_now = Or(
                    variables.y[q][t] < variables.y[p][t],
                    And(
                        variables.y[q][t] == variables.y[p][t],
                        variables.v[q][t] < variables.v[p][t],
                    ),
                )
                solver.add(
                    Implies(
                        both_aod_next,
                        Iff(
                            variables.r[q][t + 1] < variables.r[p][t + 1],
                            vertically_before_now,
                        ),
                    )
                )  # vertical counterpart (omitted in the paper for brevity)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _select(flags, index_expr, t):
    """``flags[index_expr][t]`` for a symbolic index (one-hot expansion)."""
    choices = [
        And(index_expr == k, flags[k][t]) for k in range(len(flags))
    ]
    return Or(*choices)
