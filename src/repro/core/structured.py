"""A constructive, zone-aware scheduler for full-size instances.

The SMT backend (:mod:`repro.core.scheduler`) reproduces the paper's exact
approach but — with a pure-Python SAT core — cannot solve the full-size
Table I instances in reasonable time (the paper itself reports up to 320 h of
Z3 time).  This module provides a *constructive* scheduler whose schedules
are feasible by construction and are certified by the same independent
validator.  It follows a fixed choreography:

* Every qubit is assigned a static **home**: an SLM trap in the storage zone
  (architectures with storage) or in a non-beam row of the entangling zone
  (the no-shielding layout).  If the storage zone is too small for all
  qubits, a single *homeless* qubit permanently lives in an AOD trap parked
  over the storage zone.
* CZ gates are grouped into **rounds**.  Each round becomes one Rydberg
  stage: the participating qubits are picked up from their homes by AOD
  columns, brought to a dedicated beam row of the entangling zone, entangled
  and returned to their homes, where the next transfer stage stores them and
  simultaneously loads the next round's qubits.
* Idle qubits never move: on zoned layouts they remain shielded in the
  storage zone during every beam (Eq. 14); on the no-shielding layout they
  sit at separate sites of the entangling zone and accumulate the Rydberg
  idling error, exactly like the baseline the paper compares against.

Within a round the AOD order-preservation rules (C2/C6) are satisfied by
construction: gates are admitted to a round only if the home columns of
their operands form pairwise disjoint x-intervals, so the pick-up order,
the beam order and the drop-off order all coincide.  Partners that share a
home column are paired vertically (they share an AOD column); partners from
different columns are paired horizontally.

The resulting schedules use one transfer stage per round boundary
(#T = #R - 1) and are therefore not always minimal in the number of
transfer stages; the optimality claims of the paper are reproduced with the
SMT backend on small instances, while this backend scales to all Table I
codes within seconds.

The airborne (storage-less) choreography
----------------------------------------

:meth:`StructuredScheduler.schedule_airborne` builds *transfer-free*
schedules: every qubit lives in an AOD trap for the whole schedule, so no
storage zone — and no transfer stage — is ever used.  Because execution
transitions freeze trap types and AOD indices (Eqs. 15-17), an all-Rydberg
schedule pins each qubit to one (column, row) AOD line pair forever; the
choreography therefore stages the gate graph by *edge colouring* and
realises each colour class as a folding of a rigid AOD grid:

* a **vertical fold** brings two adjacent AOD rows to the same interaction
  site row, executing the gate between the two qubits of every folded
  column;
* a **horizontal fold** does the same for two adjacent AOD columns.

On an architecture whose entangling zone covers every row (the paper's
no-shielding layout), shielding idle qubits is impossible — so a shielded
schedule exists only when *no qubit is ever idle*: every beam is a perfect
matching over all qubits and every qubit carries the same gate load ``k``.
The grid-fold realisation supports exactly the gate multigraphs whose
components are single edges (``k = 1``), parallel edge bundles (the same
pair beamed ``k`` times), and 4-cycles (``k = 2``); anything else raises
``ValueError`` and the caller falls back to the storage choreography or
reports no upper bound.  When it applies, the schedule has exactly ``k``
stages — which meets the per-qubit-load lower bound, so the witness is
*optimal* and the search certifies it without any SMT probe.

The airborne witness is also valid (and often much tighter) on storage
architectures: a schedule with no idle-qubit exposure trivially satisfies
Eq. 14, so :func:`repro.core.strategies.search.structured_upper_bound`
offers it as an upper-bound candidate everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.problem import SchedulingProblem
from repro.core.schedule import QubitPlacement, Schedule, Stage, StageKind


@dataclass
class _Home:
    """A qubit's static SLM home site."""

    x: int
    y: int
    #: Rank of the home row among all home rows (defines the beam offset).
    group: int


class StructuredScheduler:
    """Constructive zone-aware scheduler (see module docstring).

    The scheduler is stateless between calls: each :meth:`schedule`
    invocation reads circuit and architecture from its
    :class:`~repro.core.problem.SchedulingProblem` argument, so one instance
    serves any number of problems (it is not safe to share across threads,
    as per-call geometry is cached on the instance while scheduling).
    """

    def __init__(self) -> None:
        self._arch = None
        self._beam_row = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        problem: SchedulingProblem,
        metadata: dict | None = None,
    ) -> Schedule:
        """Build a schedule for *problem* on its architecture."""
        if not isinstance(problem, SchedulingProblem):
            raise TypeError(
                "StructuredScheduler.schedule() takes a SchedulingProblem; "
                "build one with SchedulingProblem.from_gates(architecture, "
                "num_qubits, cz_gates) or SchedulingProblem.from_circuit(...)"
            )
        if problem.shielding and not problem.architecture.has_storage:
            # The home-based choreography parks idle qubits in SLM traps
            # inside the entangling zone, which Eq. 14 forbids here; the
            # transfer-free airborne choreography is the only structured
            # schedule that can shield on a storage-less architecture.
            return self.schedule_airborne(problem, metadata)
        self._arch = problem.architecture
        self._beam_row = self._choose_beam_row()
        num_qubits = problem.num_qubits
        gates = list(problem.gates)
        homes, homeless = self._assign_homes(num_qubits, gates)
        rounds = self._build_rounds(gates, homes, homeless)
        stages = self._build_stages(num_qubits, rounds, homes, homeless)
        return Schedule(
            architecture=self._arch,
            num_qubits=num_qubits,
            stages=stages,
            target_gates=list(gates),
            metadata={
                "backend": "structured",
                "choreography": "homes",
                **problem.metadata,
                **(metadata or {}),
            },
        )

    def schedule_airborne(
        self,
        problem: SchedulingProblem,
        metadata: dict | None = None,
    ) -> Schedule:
        """Build a transfer-free all-airborne schedule (see module docstring).

        Raises ``ValueError`` when the gate multigraph is outside the
        supported class (non-regular load, odd qubit count, or a component
        that is not a single edge, a parallel-edge bundle, or a 4-cycle) or
        when the architecture cannot host the AOD grid.
        """
        if not isinstance(problem, SchedulingProblem):
            raise TypeError(
                "StructuredScheduler.schedule_airborne() takes a "
                "SchedulingProblem; build one with SchedulingProblem."
                "from_gates(...) or SchedulingProblem.from_circuit(...)"
            )
        arch = problem.architecture
        self._arch = arch
        num_qubits = problem.num_qubits
        gates = list(problem.gates)
        if not gates:
            raise ValueError("the airborne choreography needs at least one gate")
        if num_qubits % 2:
            raise ValueError(
                "odd qubit count: some qubit would idle in every beam"
            )
        load = problem.gate_load()
        rounds = load[0]
        if rounds == 0 or any(l != rounds for l in load):
            raise ValueError(
                "gate multigraph is not load-regular: some qubit would idle "
                "during a beam"
            )
        if arch.interaction_radius < 2:
            raise ValueError("airborne gate pairing needs interaction radius >= 2")
        if arch.h_max < 1 or arch.v_max < 1:
            raise ValueError("airborne gate pairing needs offsets |h|,|v| >= 1")
        pair_units, cycle_units = self._airborne_units(problem, rounds)
        stages = self._build_airborne_stages(
            num_qubits, rounds, pair_units, cycle_units
        )
        return Schedule(
            architecture=arch,
            num_qubits=num_qubits,
            stages=stages,
            target_gates=gates,
            metadata={
                "backend": "structured",
                "choreography": "airborne",
                **problem.metadata,
                **(metadata or {}),
            },
        )

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def _choose_beam_row(self) -> int:
        """The entangling-zone row used for Rydberg beams."""
        e_min, e_max = self._arch.entangling_rows
        return (e_min + e_max) // 2

    def _home_rows(self) -> list[int]:
        """Rows that may carry SLM homes, ordered by increasing y."""
        arch = self._arch
        if arch.has_storage:
            return arch.storage_rows()
        e_min, e_max = arch.entangling_rows
        rows = [y for y in range(e_min, e_max + 1) if y != self._beam_row]
        return rows if rows else [e_min]

    def _assign_homes(
        self, num_qubits: int, gates: Sequence[tuple[int, int]] = ()
    ) -> tuple[dict[int, _Home], int | None]:
        """Assign each qubit a home site; return (homes, homeless qubit).

        Home columns are assigned along a bandwidth-reducing ordering of the
        interaction graph (reverse Cuthill–McKee) so that gate partners tend
        to live in nearby columns, which lets the round builder pack more
        gates per Rydberg stage.
        """
        arch = self._arch
        rows = self._home_rows()
        capacity = len(rows) * (arch.x_max + 1)
        # Use as few home rows as possible and prefer the rows closest to the
        # beam row: fewer row groups mean fewer group-adjacency conflicts per
        # round, and nearby rows mean shorter shuttles (this is where the
        # double-sided layout gains over the bottom-only layout).
        needed_rows = -(-num_qubits // (arch.x_max + 1))
        if 0 < needed_rows < len(rows):
            by_proximity = sorted(rows, key=lambda row: (abs(row - self._beam_row), row))
            rows = sorted(by_proximity[:needed_rows])
        order = self._qubit_order(num_qubits, gates)
        homeless: int | None = None
        if num_qubits > capacity:
            if num_qubits > capacity + 1:
                raise ValueError(
                    f"architecture offers {capacity} home sites but the circuit has "
                    f"{num_qubits} qubits"
                )
            homeless = order.pop()
        homes: dict[int, _Home] = {}
        for index, qubit in enumerate(order):
            # Fill column by column so that consecutive qubits in the
            # ordering share a home column (they can then be paired
            # vertically within one AOD column).
            x, row_index = divmod(index, len(rows))
            homes[qubit] = _Home(x=x, y=rows[row_index], group=row_index)
        return homes, homeless

    def _qubit_order(
        self, num_qubits: int, gates: Sequence[tuple[int, int]]
    ) -> list[int]:
        """Bandwidth-reducing qubit ordering for home assignment."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(num_qubits))
        graph.add_edges_from(gates)
        try:
            order = list(nx.utils.reverse_cuthill_mckee_ordering(graph))
        except Exception:  # pragma: no cover - networkx API fallback
            order = list(range(num_qubits))
        if len(order) != num_qubits:
            order = list(range(num_qubits))
        return order

    # ------------------------------------------------------------------ #
    # Round construction
    # ------------------------------------------------------------------ #
    def _max_gates_per_round(self, homeless_exists: bool) -> int:
        """Hard cap on gates per Rydberg stage (one beam site per gate)."""
        return self._arch.x_max + 1

    def _available_columns(self, homeless_exists: bool) -> int:
        """AOD columns usable for picked-up qubits."""
        return self._arch.num_aod_columns - (1 if homeless_exists else 0)

    def _build_rounds(
        self,
        gates: list[tuple[int, int]],
        homes: dict[int, _Home],
        homeless: int | None,
    ) -> list[list[tuple[int, int]]]:
        """Greedy grouping of gates into rounds satisfying the choreography rules."""
        def right_endpoint(gate: tuple[int, int]) -> float:
            a, b = gate
            return max(
                self._virtual_x(a, homes, homeless), self._virtual_x(b, homes, homeless)
            )

        # Classic interval-scheduling greedy: processing gates by the right
        # endpoint of their home-column interval maximises the number of
        # disjoint intervals packed into each Rydberg stage.
        remaining = sorted(gates, key=right_endpoint)
        rounds: list[list[tuple[int, int]]] = []
        limit = self._max_gates_per_round(homeless is not None)
        while remaining:
            chosen: list[tuple[int, int]] = []
            for gate in list(remaining):
                if len(chosen) >= limit:
                    break
                if self._round_accepts(chosen + [gate], homes, homeless):
                    chosen.append(gate)
            if not chosen:
                # A singleton round is always feasible (vertical or horizontal
                # pairing of a single pair of qubits).
                chosen = [remaining[0]]
            for gate in chosen:
                remaining.remove(gate)
            rounds.append(chosen)
        return rounds

    def _virtual_x(self, qubit: int, homes: dict[int, _Home], homeless: int | None) -> float:
        """Pick-up column of a qubit (the homeless one sits right of all homes)."""
        if homeless is not None and qubit == homeless:
            return self._arch.x_max + 0.5
        return float(homes[qubit].x)

    def _round_accepts(
        self,
        candidate: list[tuple[int, int]],
        homes: dict[int, _Home],
        homeless: int | None,
    ) -> bool:
        """Check the choreography rules for a tentative round."""
        qubits = [q for gate in candidate for q in gate]
        if len(set(qubits)) != len(qubits):
            return False  # gates must be qubit-disjoint
        xs = {q: self._virtual_x(q, homes, homeless) for q in qubits}
        # The pick-up needs one AOD column per distinct home column in use.
        if len(set(xs.values())) > self._available_columns(homeless is not None):
            return False
        # Two qubits of *different* gates must not share a pick-up column.
        for a, b in candidate:
            for other_a, other_b in candidate:
                if (a, b) == (other_a, other_b):
                    continue
                if xs[a] in (xs[other_a], xs[other_b]) or xs[b] in (xs[other_a], xs[other_b]):
                    return False
        # Pairwise disjoint home-x intervals keep pick-up and beam order equal.
        intervals = sorted(
            (min(xs[a], xs[b]), max(xs[a], xs[b])) for a, b in candidate
        )
        for (_, high1), (low2, _) in zip(intervals, intervals[1:]):
            if low2 <= high1:
                return False
        # Partner home rows must be adjacent in the set of used rows so that
        # the vertical beam offsets stay within the blockade radius.
        used_groups = sorted({homes[q].group for q in qubits if q in homes})
        if len(used_groups) > 2 * self._arch.v_max + 1:
            return False
        rank = {group: i for i, group in enumerate(used_groups)}
        for a, b in candidate:
            if homeless is not None and homeless in (a, b):
                partner = b if a == homeless else a
                # The homeless qubit flies at the lowest beam offset and the
                # right-most column; its partner must therefore belong to the
                # lowest used home row and be the right-most regular pick-up.
                if rank.get(homes[partner].group, 0) != 0:
                    return False
                others = [q for q in qubits if q not in (a, b)]
                if any(xs[q] > xs[partner] for q in others):
                    return False
                continue
            group_a, group_b = homes[a].group, homes[b].group
            if xs[a] == xs[b]:
                # Vertical pairing: the partners share an AOD column; their
                # home rows must be adjacent among the used rows.
                if abs(rank[group_a] - rank[group_b]) != 1:
                    return False
            elif abs(rank[group_a] - rank[group_b]) > 1:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Stage construction
    # ------------------------------------------------------------------ #
    def _build_stages(
        self,
        num_qubits: int,
        rounds: list[list[tuple[int, int]]],
        homes: dict[int, _Home],
        homeless: int | None,
    ) -> list[Stage]:
        park = self._park_placement() if homeless is not None else None
        home_placement = {
            q: QubitPlacement(x=home.x, y=home.y, in_aod=False) for q, home in homes.items()
        }
        def hover_placements(active: list[int]) -> dict[int, QubitPlacement]:
            """All qubits at rest: actives hover in AOD above their homes."""
            columns = self._column_indices(active, homes, homeless)
            row_indices = self._row_indices(active, homes, homeless)
            placements: dict[int, QubitPlacement] = {}
            for qubit in range(num_qubits):
                if homeless is not None and qubit == homeless:
                    placement = park
                    if qubit in active:
                        placement = park.moved_to(
                            column=columns[qubit], row=row_indices[qubit]
                        )
                    placements[qubit] = placement
                elif qubit in active:
                    home = homes[qubit]
                    placements[qubit] = QubitPlacement(
                        x=home.x,
                        y=home.y,
                        in_aod=True,
                        column=columns[qubit],
                        row=row_indices[qubit],
                    )
                else:
                    placements[qubit] = home_placement[qubit]
            return placements

        stages: list[Stage] = []
        for index, round_gates in enumerate(rounds):
            active = sorted({q for gate in round_gates for q in gate})
            layout = self._beam_layout(round_gates, homes, homeless)
            placements = {}
            for qubit in range(num_qubits):
                if qubit in layout:
                    placements[qubit] = layout[qubit]
                elif homeless is not None and qubit == homeless:
                    placements[qubit] = park
                else:
                    placements[qubit] = home_placement[qubit]
            stages.append(
                Stage(kind=StageKind.RYDBERG, placements=placements, gates=list(round_gates))
            )
            if index == len(rounds) - 1:
                break
            next_active = sorted({q for gate in rounds[index + 1] for q in gate})
            regular_active = [q for q in active if q != homeless]
            regular_next = [q for q in next_active if q != homeless]
            shared = sorted(set(regular_active) & set(regular_next))
            if not shared:
                # Single transfer stage: store this round's qubits (hovering
                # above their homes) and load the next round's qubits.
                stages.append(
                    Stage(
                        kind=StageKind.TRANSFER,
                        placements=hover_placements(active),
                        stored_qubits=regular_active,
                        loaded_qubits=regular_next,
                    )
                )
            else:
                # Qubits shared between consecutive rounds cannot be stored
                # and re-loaded within one stage, and keeping them airborne
                # can block the storage of their AOD line.  Use two transfer
                # stages: first store everybody, then load the next round.
                stages.append(
                    Stage(
                        kind=StageKind.TRANSFER,
                        placements=hover_placements(active),
                        stored_qubits=regular_active,
                        loaded_qubits=[],
                    )
                )
                stages.append(
                    Stage(
                        kind=StageKind.TRANSFER,
                        placements=hover_placements([]),
                        stored_qubits=[],
                        loaded_qubits=regular_next,
                    )
                )
        return stages

    # ------------------------------------------------------------------ #
    # Airborne (storage-less) choreography
    # ------------------------------------------------------------------ #
    def _airborne_units(
        self, problem: SchedulingProblem, rounds: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int]]]:
        """Decompose the gate multigraph into grid-realisable units.

        Returns ``(pair_units, cycle_units)``: a pair unit is two qubits
        joined by ``rounds`` parallel gate copies (one AOD column, beamed
        vertically in every round); a cycle unit is a simple 4-cycle
        (two adjacent AOD columns whose proper 2-edge-colouring alternates
        a vertical and a horizontal fold).  Any other component shape
        cannot keep every qubit busy in every beam on a rigid AOD grid and
        raises ``ValueError``.
        """
        # Per-edge multiplicity never enters the classification: the caller's
        # load-regularity check already pins a 2-vertex component to exactly
        # ``rounds`` parallel copies and a 4-vertex degree-2 component to
        # four simple edges.
        adjacency = problem.interaction_graph()
        pair_units: list[tuple[int, int]] = []
        cycle_units: list[tuple[int, int, int, int]] = []
        seen: set[int] = set()
        for root in range(problem.num_qubits):
            if root in seen:
                continue
            component = {root}
            frontier = [root]
            while frontier:
                vertex = frontier.pop()
                for neighbour in adjacency[vertex]:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            seen |= component
            if len(component) == 2:
                pair_units.append(tuple(sorted(component)))
            elif len(component) == 4 and rounds == 2:
                cycle_units.append(self._airborne_cycle(component, adjacency))
            else:
                raise ValueError(
                    f"interaction component {sorted(component)} is neither a "
                    "gate pair nor a 4-cycle; no rigid AOD grid keeps every "
                    "qubit busy in every beam"
                )
        return pair_units, cycle_units

    def _airborne_cycle(
        self, component: set[int], adjacency: dict[int, set[int]]
    ) -> tuple[int, int, int, int]:
        """Order a 4-vertex component as a simple cycle ``v0-v1-v2-v3-v0``."""
        if any(len(adjacency[v] & component) != 2 for v in component):
            raise ValueError(
                f"interaction component {sorted(component)} is not a simple "
                "4-cycle"
            )
        v0 = min(component)
        v1 = min(adjacency[v0] & component)
        (v2,) = (adjacency[v1] & component) - {v0}
        (v3,) = component - {v0, v1, v2}
        if v3 not in adjacency[v2] or v0 not in adjacency[v3]:
            raise ValueError(
                f"interaction component {sorted(component)} is not a simple "
                "4-cycle"
            )
        return (v0, v1, v2, v3)

    def _build_airborne_stages(
        self,
        num_qubits: int,
        rounds: int,
        pair_units: list[tuple[int, int]],
        cycle_units: list[tuple[int, int, int, int]],
    ) -> list[Stage]:
        """All-Rydberg stages of the airborne choreography.

        Every qubit keeps one (column, row) AOD index pair for the whole
        schedule (execution transitions freeze them); only the *positions*
        of the AOD lines move between beams.  Cycle units occupy AOD rows
        0/1, pair units rows 2/3 when both kinds coexist (their folds
        differ per round, so they cannot share row lines).
        """
        arch = self._arch
        num_columns = 2 * len(cycle_units) + len(pair_units)
        if num_columns > arch.num_aod_columns:
            raise ValueError(
                f"airborne grid needs {num_columns} AOD columns but the "
                f"architecture offers {arch.num_aod_columns}"
            )
        pair_rows = (2, 3) if (cycle_units and pair_units) else (0, 1)
        num_rows = 4 if (cycle_units and pair_units) else 2
        if num_rows > arch.num_aod_rows:
            raise ValueError(
                f"airborne grid needs {num_rows} AOD rows but the "
                f"architecture offers {arch.num_aod_rows}"
            )
        e_min, e_max = arch.entangling_rows
        stages: list[Stage] = []
        for round_index in range(rounds):
            vertical_cycle_fold = round_index == 0
            # Vertical positions of the AOD rows, bottom-up; each entry is a
            # (site row, v offset) pair.
            row_position: dict[int, tuple[int, int]] = {}
            next_y = e_min
            if cycle_units:
                if vertical_cycle_fold:
                    row_position[0] = (next_y, 0)
                    row_position[1] = (next_y, 1)
                    next_y += 1
                else:
                    row_position[0] = (next_y, 0)
                    row_position[1] = (next_y + 1, 0)
                    next_y += 2
            if pair_units:
                row_position[pair_rows[0]] = (next_y, 0)
                row_position[pair_rows[1]] = (next_y, 1)
                next_y += 1
            if next_y - 1 > e_max:
                raise ValueError(
                    "entangling zone too narrow for the airborne row layout"
                )
            placements: dict[int, QubitPlacement] = {}
            stage_gates: list[tuple[int, int]] = []
            next_x = 0
            for index, (v0, v1, v2, v3) in enumerate(cycle_units):
                left, right = 2 * index, 2 * index + 1
                if vertical_cycle_fold:
                    # Columns at separate sites; rows folded: beams (v0,v1)
                    # and (v2,v3).
                    grid = {
                        v0: (next_x, 0, left, 0),
                        v1: (next_x, 0, left, 1),
                        v3: (next_x + 1, 0, right, 0),
                        v2: (next_x + 1, 0, right, 1),
                    }
                    stage_gates += [(v0, v1), (v2, v3)]
                    next_x += 2
                else:
                    # Columns folded onto one site column; rows at separate
                    # sites: beams (v3,v0) and (v1,v2).
                    grid = {
                        v0: (next_x, 0, left, 0),
                        v3: (next_x, 1, right, 0),
                        v1: (next_x, 0, left, 1),
                        v2: (next_x, 1, right, 1),
                    }
                    stage_gates += [(v3, v0), (v1, v2)]
                    next_x += 1
                for qubit, (x, h, column, row) in grid.items():
                    y, v = row_position[row]
                    placements[qubit] = QubitPlacement(
                        x=x, y=y, h=h, v=v, in_aod=True, column=column, row=row
                    )
            for index, (a, b) in enumerate(pair_units):
                column = 2 * len(cycle_units) + index
                for qubit, row in ((a, pair_rows[0]), (b, pair_rows[1])):
                    y, v = row_position[row]
                    placements[qubit] = QubitPlacement(
                        x=next_x, y=y, h=0, v=v, in_aod=True, column=column, row=row
                    )
                stage_gates.append((a, b))
                next_x += 1
            if next_x - 1 > arch.x_max:
                raise ValueError(
                    f"airborne grid needs {next_x} site columns but the "
                    f"architecture offers {arch.x_max + 1}"
                )
            stages.append(
                Stage(
                    kind=StageKind.RYDBERG,
                    placements=placements,
                    gates=stage_gates,
                )
            )
        return stages

    def _park_placement(self) -> QubitPlacement:
        """Permanent AOD parking spot of the homeless qubit."""
        arch = self._arch
        rows = self._home_rows()
        return QubitPlacement(
            x=arch.x_max,
            y=rows[0],
            h=min(1, arch.h_max),
            v=-min(1, arch.v_max),
            in_aod=True,
            column=arch.c_max,
            row=0,
        )

    def _column_indices(
        self, active: list[int], homes: dict[int, _Home], homeless: int | None
    ) -> dict[int, int]:
        """AOD column index per active qubit: rank of its pick-up column."""
        indices: dict[int, int] = {}
        regular = [q for q in active if not (homeless is not None and q == homeless)]
        distinct_x = sorted({homes[q].x for q in regular})
        for qubit in regular:
            indices[qubit] = distinct_x.index(homes[qubit].x)
        if homeless is not None and homeless in active:
            indices[homeless] = self._arch.c_max
        return indices

    def _row_indices(
        self, active: list[int], homes: dict[int, _Home], homeless: int | None
    ) -> dict[int, int]:
        """AOD row index per active qubit: rank of its home row."""
        indices: dict[int, int] = {}
        regular = [q for q in active if not (homeless is not None and q == homeless)]
        groups = sorted({homes[q].group for q in regular})
        shift = 1 if homeless is not None else 0
        for qubit in regular:
            indices[qubit] = groups.index(homes[qubit].group) + shift
        if homeless is not None and homeless in active:
            indices[homeless] = 0
        return indices

    def _beam_layout(
        self,
        round_gates: list[tuple[int, int]],
        homes: dict[int, _Home],
        homeless: int | None,
    ) -> dict[int, QubitPlacement]:
        """Positions of the round's qubits during its Rydberg beam."""
        arch = self._arch
        active = sorted({q for gate in round_gates for q in gate})
        xs = {q: self._virtual_x(q, homes, homeless) for q in active}
        columns = self._column_indices(active, homes, homeless)
        row_indices = self._row_indices(active, homes, homeless)
        regular = [q for q in active if not (homeless is not None and q == homeless)]
        used_groups = sorted({homes[q].group for q in regular})
        rank = {group: i for i, group in enumerate(used_groups)}
        shift = 1 if homeless is not None else 0
        base = -min(arch.v_max, max(0, len(used_groups) - 1 + shift))
        ordered_gates = sorted(round_gates, key=lambda gate: min(xs[gate[0]], xs[gate[1]]))

        layout: dict[int, QubitPlacement] = {}
        for site_index, (a, b) in enumerate(ordered_gates):
            first, second = (a, b) if xs[a] <= xs[b] else (b, a)
            vertical_pair = xs[a] == xs[b]
            for position_index, qubit in enumerate((first, second)):
                if homeless is not None and qubit == homeless:
                    v_offset = base
                else:
                    v_offset = base + rank[homes[qubit].group] + shift
                h_offset = 0 if (vertical_pair or position_index == 0) else min(1, arch.h_max)
                layout[qubit] = QubitPlacement(
                    x=site_index,
                    y=self._beam_row,
                    h=h_offset,
                    v=v_offset,
                    in_aod=True,
                    column=columns[qubit],
                    row=row_indices[qubit],
                )
        return layout
