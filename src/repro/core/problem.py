"""The scheduling-problem intermediate representation.

:class:`SchedulingProblem` bundles everything a scheduling backend needs —
the CZ-gate list, the target architecture, and the effective shielding
policy — together with derived structure that every backend re-derived for
itself before this IR existed: per-qubit gate loads, the interaction graph,
and the architecture's zone capacities.  Both the exact
:class:`~repro.core.scheduler.SMTScheduler` and the constructive
:class:`~repro.core.structured.StructuredScheduler` consume a problem
instance instead of raw ``(circuit, architecture)`` pairs, and the search
strategies in :mod:`repro.core.strategies` read their analytic stage bounds
from it.

Analytic lower bound
--------------------

:meth:`SchedulingProblem.lower_bound` combines four certificates, each a
sound lower bound on the number of *Rydberg* stages (and therefore on the
total stage count):

* **per-qubit gate load** (``gate-load``) — gates sharing a qubit execute
  in distinct stages (Eq. 13), so a qubit touched by ``k`` gates forces
  ``k`` stages.  Counting gate multiplicity makes this at least the
  chromatic-index bound (max degree of the simple interaction graph) used
  by the seed scheduler.
* **site capacity** (``beam-capacity``) — a beam executes at most one gate
  per entangling-zone interaction site (both operands sit at the same
  site, Eq. 12, and sites are exclusive, Eq. 9).
* **AOD capacity** (also ``beam-capacity``) — every executed gate holds at
  least one operand in an AOD trap (two qubits at one site cannot both sit
  at the SLM centre, Eqs. 9/10), and two AOD qubits can share neither
  their column nor their row pair (Eq. 11 ties indices to geometric
  order), so a beam executes at most ``(Cmax+1) * (Rmax+1)`` gates.
* **clique certificate** (``clique``) — the gates within a clique ``Q`` of
  the interaction graph pairwise share vertices unless their endpoint
  pairs are disjoint *inside Q*, so the gates of one beam restricted to
  ``Q`` form a matching of at most ``⌊|Q|/2⌋`` gates (Eq. 13 again); with
  ``m`` gate occurrences inside ``Q`` that forces
  ``⌈m / ⌊|Q|/2⌋⌉`` beams.  On an odd clique with all edges present the
  certificate evaluates to ``|Q|`` — one more than the per-qubit load —
  because every beam must leave one clique member idle (this is the
  chromatic-index of odd complete graphs).  Cliques are enumerated
  exactly with pivoting Bron–Kerbosch; a greedy-colouring cutoff prunes
  branches that cannot beat the best certificate found so far.

On top of the Rydberg-stage certificates, shielded single-sided
architectures can earn a **+T transfer-stage certificate** (one extra stage
for the transfer the shielding choreography cannot avoid); see
:meth:`SchedulingProblem.transfer_lower_bound` for the soundness argument.

:meth:`SchedulingProblem.bound_breakdown` exposes every certificate with
its value and the winning *source* name, which the schedulers surface as
``SchedulerReport.lower_bound_source`` and the ``repro-nasp bounds`` CLI
prints as a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.arch.architecture import ZonedArchitecture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.circuit.state_prep_circuit import StatePrepCircuit

Gate = tuple[int, int]


@dataclass(frozen=True)
class ZoneCapacities:
    """Site/trap capacities of an architecture, derived once per problem."""

    #: Interaction sites inside the entangling zone (max gates per beam).
    entangling_sites: int
    #: SLM sites inside storage zones (shielded parking spots).
    storage_sites: int
    #: Distinct (column, row) AOD index pairs (max airborne qubits).
    aod_traps: int
    #: AOD columns available for pick-ups.
    aod_columns: int
    #: AOD rows available for pick-ups.
    aod_rows: int

    @classmethod
    def of(cls, architecture: ZonedArchitecture) -> "ZoneCapacities":
        """Compute the capacities of *architecture*."""
        e_min, e_max = architecture.entangling_rows
        columns = architecture.x_max + 1
        return cls(
            entangling_sites=(e_max - e_min + 1) * columns,
            storage_sites=len(architecture.storage_rows()) * columns,
            aod_traps=architecture.num_aod_columns * architecture.num_aod_rows,
            aod_columns=architecture.num_aod_columns,
            aod_rows=architecture.num_aod_rows,
        )


@dataclass(frozen=True)
class BoundBreakdown:
    """Full provenance of the analytic stage lower bound.

    ``certificates`` lists every Rydberg-stage certificate with its value in
    a fixed order; ``rydberg_source`` names the first certificate attaining
    the maximum, and ``source`` appends ``"+transfer"`` when the ``+T``
    transfer certificate fires.  ``clique`` is the witness vertex set of the
    clique certificate (empty when the graph has no edge).
    """

    certificates: tuple[tuple[str, int], ...]
    rydberg: int
    rydberg_source: str
    transfer: int
    total: int
    source: str
    clique: tuple[int, ...]

    def certificate(self, name: str) -> int:
        """Value of the certificate registered under *name*."""
        return dict(self.certificates)[name]

    def to_dict(self) -> dict:
        """JSON-compatible representation (used by the ``bounds`` CLI)."""
        return {
            "certificates": dict(self.certificates),
            "rydberg": self.rydberg,
            "rydberg_source": self.rydberg_source,
            "transfer": self.transfer,
            "total": self.total,
            "source": self.source,
            "clique": list(self.clique),
        }


@dataclass(frozen=True)
class SchedulingProblem:
    """One scheduling instance: circuit + architecture + derived structure.

    Construct through :meth:`from_gates` or :meth:`from_circuit`, which
    validate and canonicalise the gate list; the raw constructor performs no
    normalisation.
    """

    architecture: ZonedArchitecture
    num_qubits: int
    gates: tuple[Gate, ...]
    #: Whether idle qubits must leave the entangling zone during beams
    #: (Eq. 14).  Defaults to "the architecture has a storage zone".
    shielding: bool
    #: Free-form provenance (code name, circuit label, ...).
    metadata: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_gates(
        cls,
        architecture: ZonedArchitecture,
        num_qubits: int,
        cz_gates: Sequence[Gate],
        shielding: bool | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> "SchedulingProblem":
        """Build a problem from a raw CZ-gate list.

        Gate endpoints are sorted; invalid gates (identical operands or
        out-of-range qubits) raise ``ValueError``.  Duplicate gates are
        preserved — each occurrence is scheduled separately, exactly as the
        backends treated them before this IR existed.
        """
        if num_qubits <= 0:
            raise ValueError("a problem needs at least one qubit")
        normalised = []
        for a, b in cz_gates:
            low, high = (a, b) if a <= b else (b, a)
            if low == high or low < 0 or high >= num_qubits:
                raise ValueError(f"invalid CZ gate ({a}, {b})")
            normalised.append((low, high))
        if shielding is None:
            shielding = architecture.has_storage
        return cls(
            architecture=architecture,
            num_qubits=num_qubits,
            gates=tuple(normalised),
            shielding=bool(shielding),
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_circuit(
        cls,
        architecture: ZonedArchitecture,
        circuit: "StatePrepCircuit",
        shielding: bool | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> "SchedulingProblem":
        """Build a problem from a state-preparation circuit."""
        merged = {"circuit": circuit.name, **(metadata or {})}
        return cls.from_gates(
            architecture,
            circuit.num_qubits,
            circuit.cz_gates,
            shielding=shielding,
            metadata=merged,
        )

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #
    @property
    def num_gates(self) -> int:
        """Number of CZ gates (counting duplicates)."""
        return len(self.gates)

    def gate_load(self) -> list[int]:
        """Per-qubit gate count (multiplicity included)."""
        load = [0] * self.num_qubits
        for a, b in self.gates:
            load[a] += 1
            load[b] += 1
        return load

    def max_gate_load(self) -> int:
        """The heaviest qubit's gate count — a stage lower bound (Eq. 13)."""
        return max(self.gate_load(), default=0)

    def interaction_graph(self) -> dict[int, set[int]]:
        """Adjacency sets of the (simple) interaction graph."""
        adjacency: dict[int, set[int]] = {q: set() for q in range(self.num_qubits)}
        for a, b in self.gates:
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency

    def interacting_qubits(self) -> list[int]:
        """Qubits that participate in at least one gate."""
        return [q for q, load in enumerate(self.gate_load()) if load > 0]

    def zone_capacities(self) -> ZoneCapacities:
        """Capacities of the target architecture."""
        return ZoneCapacities.of(self.architecture)

    # ------------------------------------------------------------------ #
    # Analytic stage bounds
    # ------------------------------------------------------------------ #
    def rydberg_lower_bound(self) -> int:
        """Sound analytic lower bound on the number of Rydberg stages.

        See the module docstring for why each certificate is sound against
        the SMT formulation; :meth:`bound_breakdown` exposes the individual
        certificates with provenance.
        """
        return max(value for _, value in self._rydberg_certificates())

    def _rydberg_certificates(
        self, clique_bound: int | None = None
    ) -> tuple[tuple[str, int], ...]:
        """Every Rydberg-stage certificate as ``(name, value)`` pairs.

        The order doubles as the tie-break priority for the reported
        *source*: the simplest certificate attaining the maximum wins.
        *clique_bound* short-circuits the clique enumeration when the
        caller already computed it (:meth:`bound_breakdown`).
        """
        if clique_bound is None:
            clique_bound = self.clique_lower_bound()
        capacities = self.zone_capacities()
        gates_per_beam = min(capacities.entangling_sites, capacities.aod_traps)
        beam_capacity = 0
        if self.num_gates and gates_per_beam:
            beam_capacity = -(-self.num_gates // gates_per_beam)
        return (
            ("gate-load", self.max_gate_load()),
            ("beam-capacity", beam_capacity),
            ("clique", clique_bound),
            ("trivial", 1),
        )

    # ------------------------------------------------------------------ #
    # Clique certificate
    # ------------------------------------------------------------------ #
    def interaction_cliques(self) -> list[tuple[int, ...]]:
        """All maximal cliques of the interaction graph (sorted tuples).

        Enumerated with pivoting Bron–Kerbosch; the graphs are tiny (one
        vertex per interacting qubit), so exact enumeration is cheap.
        Isolated qubits are not reported.
        """
        adjacency = {
            q: neighbours
            for q, neighbours in self.interaction_graph().items()
            if neighbours
        }
        return sorted(tuple(sorted(c)) for c in _bron_kerbosch(adjacency))

    def clique_lower_bound(self) -> int:
        """Best clique-certificate bound on the number of Rydberg stages."""
        return self._clique_certificate()[0]

    def _clique_certificate(self) -> tuple[int, tuple[int, ...]]:
        """``(bound, witness)`` of the strongest clique certificate.

        For a clique ``Q`` with ``m`` gate occurrences inside it, the gates
        of one beam restricted to ``Q`` are vertex-disjoint (Eq. 13) and
        therefore a matching of at most ``⌊|Q|/2⌋`` gates, so at least
        ``⌈m / ⌊|Q|/2⌋⌉`` beams are needed.  Sub-cliques can beat their
        maximal superset (dropping a lightly-loaded vertex shrinks the
        matching capacity faster than the gate count), so every maximal
        clique is scored over its subsets.  A greedy-colouring cutoff
        prunes Bron–Kerbosch branches whose optimistic score — maximum
        edge multiplicity times the colouring bound on the reachable
        clique size — cannot beat the best certificate found so far.
        """
        multiplicity: dict[tuple[int, int], int] = {}
        for gate in self.gates:
            multiplicity[gate] = multiplicity.get(gate, 0) + 1
        if not multiplicity:
            return (0, ())
        adjacency = {
            q: neighbours
            for q, neighbours in self.interaction_graph().items()
            if neighbours
        }
        max_multiplicity = max(multiplicity.values())
        best_bound = 0
        best_witness: tuple[int, ...] = ()
        for clique in _bron_kerbosch(
            adjacency,
            cutoff=lambda reached, candidates: max_multiplicity
            * (reached + _greedy_colouring_count(candidates, adjacency))
            <= best_bound,
        ):
            bound, witness = _best_subclique(tuple(sorted(clique)), multiplicity)
            if bound > best_bound or (bound == best_bound and witness < best_witness):
                best_bound, best_witness = bound, witness
        return (best_bound, best_witness)

    # ------------------------------------------------------------------ #
    # Bound provenance
    # ------------------------------------------------------------------ #
    def bound_breakdown(self) -> BoundBreakdown:
        """Every analytic certificate with its value and the winning source.

        The total equals :meth:`lower_bound`; strategies surface the
        ``source`` string as ``SchedulerReport.lower_bound_source`` and the
        ``repro-nasp bounds`` CLI prints the full table.
        """
        clique_bound, clique_witness = self._clique_certificate()
        certificates = self._rydberg_certificates(clique_bound)
        rydberg = max(value for _, value in certificates)
        rydberg_source = next(
            name for name, value in certificates if value == rydberg
        )
        transfer = self.transfer_lower_bound(rydberg)
        source = rydberg_source + ("+transfer" if transfer else "")
        return BoundBreakdown(
            certificates=certificates,
            rydberg=rydberg,
            rydberg_source=rydberg_source,
            transfer=transfer,
            total=rydberg + transfer,
            source=source,
            clique=clique_witness,
        )

    def transfer_lower_bound(self, rydberg_bound: int | None = None) -> int:
        """Sound lower bound on the number of *transfer* stages (0 or 1).

        *rydberg_bound* short-circuits recomputing
        :meth:`rydberg_lower_bound` when the caller already holds it.

        The ``+T`` certificate: on a shielded architecture whose rows
        outside the entangling band all lie on **one side** of it, some pair
        of qubits forces at least one transfer stage whenever their beam
        memberships cannot be nested.  The argument runs by refuting a
        transfer-free schedule:

        * With zero transfer stages every stage is a beam and every
          transition is an execution transition, so trap types are frozen
          (Eq. 15), SLM qubits never move (Eq. 16), and AOD qubits keep
          their column/row indices forever (Eq. 17).
        * A qubit with ``0 < load < R`` (``R`` = number of beams, at least
          :meth:`rydberg_lower_bound`) can then be neither an SLM qubit
          inside the band (shielding, Eq. 14, would force it busy in *every*
          beam) nor an SLM qubit outside (it could never execute, Eq. 12) —
          it sits in an AOD trap for the whole schedule.
        * Take two such qubits ``u``, ``v`` whose busy-sets are
          incomparable: some beam has ``u`` inside the band and ``v``
          shielded outside, another beam the converse.  With a single-sided
          outside region the geometric *vertical* order of ``u`` and ``v``
          flips between those beams, but Eq. 11's vertical counterpart ties
          the frozen AOD row indices to that order — contradiction.

        Busy-set incomparability is forced statically when, in **either**
        direction, the gates of one qubit cannot be injectively co-beamed
        with gates of the other (same gate, or vertex-disjoint — Eq. 13
        forbids sharing a beam otherwise): checked exactly with a tiny
        bipartite matching.
        """
        if not self.shielding:
            return 0
        e_min, e_max = self.architecture.entangling_rows
        below = e_min > 0
        above = e_max < self.architecture.y_max
        if below == above:
            # No outside region at all, or outside on both sides: a
            # transfer-free schedule cannot be refuted by the order argument.
            return 0
        rydberg = (
            self.rydberg_lower_bound() if rydberg_bound is None else rydberg_bound
        )
        load = self.gate_load()
        partial = [q for q in range(self.num_qubits) if 0 < load[q] < rydberg]
        gates_of = {q: [i for i, g in enumerate(self.gates) if q in g] for q in partial}
        for a_index, u in enumerate(partial):
            for v in partial[a_index + 1 :]:
                if not self._can_nest_busy_sets(
                    gates_of[u], gates_of[v]
                ) and not self._can_nest_busy_sets(gates_of[v], gates_of[u]):
                    return 1
        return 0

    def _can_nest_busy_sets(self, inner: list[int], outer: list[int]) -> bool:
        """Whether every beam of *inner*'s gates could also hold an *outer* gate.

        Exact feasibility of ``B(inner) ⊆ B(outer)``: each gate of *inner*
        needs its own distinct gate of *outer* sharing its beam — the same
        gate occurrence, or one with disjoint endpoints (gates sharing a
        qubit occupy different beams, Eq. 13).  Decided as a bipartite
        matching saturating *inner* (Kuhn's algorithm; the gate lists are
        tiny).
        """
        if len(inner) > len(outer):
            return False
        compatible: list[list[int]] = []
        for gi in inner:
            endpoints = set(self.gates[gi])
            compatible.append(
                [
                    slot
                    for slot, go in enumerate(outer)
                    if go == gi or not endpoints & set(self.gates[go])
                ]
            )
        matched_to: dict[int, int] = {}

        def assign(i: int, visited: set[int]) -> bool:
            for slot in compatible[i]:
                if slot in visited:
                    continue
                visited.add(slot)
                if slot not in matched_to or assign(matched_to[slot], visited):
                    matched_to[slot] = i
                    return True
            return False

        return all(assign(i, set()) for i in range(len(inner)))

    def lower_bound(self) -> int:
        """Sound analytic lower bound on the total stage count.

        The Rydberg-stage certificates (:meth:`rydberg_lower_bound`) always
        apply; shielded single-sided architectures may add the ``+T``
        transfer-stage certificate (:meth:`transfer_lower_bound`).  Both
        bound disjoint stage kinds of the same schedule, so their sum is a
        sound bound on the total stage count.
        """
        rydberg = self.rydberg_lower_bound()
        return rydberg + self.transfer_lower_bound(rydberg)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.num_qubits} qubits, {self.num_gates} CZ gates on "
            f"{self.architecture.name!r} "
            f"({'shielded' if self.shielding else 'unshielded'} idling), "
            f"stage lower bound {self.lower_bound()}"
        )


# --------------------------------------------------------------------------- #
# Request documents
# --------------------------------------------------------------------------- #
#: Extent keys of an explicit ``layout`` object: the dimensions
#: :func:`~repro.arch.reduced_layout` takes.
_LAYOUT_EXTENTS = ("x_max", "h_max", "v_max", "c_max", "r_max")


def _require_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _layout_memo_key(layout: object) -> str | tuple:
    """Validate a request's ``layout`` field and return its memo key.

    Validation runs before the memo is consulted: ``True == 1`` and
    ``2.0 == 2`` hash alike, so an unchecked document could otherwise hit
    the entry of a valid one.
    """
    if isinstance(layout, str):
        return layout
    if isinstance(layout, dict):
        kind = layout.get("kind", "bottom")
        if not isinstance(kind, str):
            raise ValueError(f"layout kind must be a string, got {kind!r}")
        extents = {key: value for key, value in layout.items() if key != "kind"}
        unknown = sorted(set(extents) - set(_LAYOUT_EXTENTS))
        if unknown:
            raise ValueError(
                f"unknown layout keys {unknown} "
                f"(choose from {['kind', *_LAYOUT_EXTENTS]})"
            )
        for key, value in extents.items():
            _require_int(value, f"layout {key}")
        return (kind, tuple(sorted(extents.items())))
    raise ValueError(f"layout must be a string or object, got {type(layout)}")


@lru_cache(maxsize=32)
def _layout_architecture(memo_key: str | tuple) -> ZonedArchitecture:
    """One shared (immutable) architecture per distinct layout document."""
    from repro.arch import evaluation_layouts, reduced_layout

    if isinstance(memo_key, tuple):
        kind, extents = memo_key
        return reduced_layout(kind, **dict(extents))
    if memo_key.startswith("full:"):
        layouts = evaluation_layouts()
        name = memo_key[len("full:"):]
        if name not in layouts:
            raise ValueError(
                f"unknown evaluation layout {name!r} "
                f"(choose from {sorted(layouts)})"
            )
        return layouts[name]
    return reduced_layout(memo_key)


def problem_from_document(doc: dict) -> SchedulingProblem:
    """Build a :class:`SchedulingProblem` from a JSON request document.

    Document shape::

        {
          "num_qubits": 4,
          "gates": [[0, 1], [1, 2]],
          "layout": "bottom",                 # reduced-layout kind, or
          "layout": {"kind": "bottom", "x_max": 2, ...},   # explicit dims, or
          "layout": "full:(2) Bottom Storage",  # a Table I evaluation layout
          "shielding": true                   # optional (layout default)
        }

    ``layout`` defaults to the reduced bottom-storage architecture — the
    same zone structure as the paper's evaluation at a size the pure-Python
    exact solver certifies in interactive time.  An explicit layout object
    takes only ``kind`` and integer extents (``x_max``, ``h_max``,
    ``v_max``, ``c_max``, ``r_max``); ``num_qubits`` and the gate qubits
    must be integers and ``shielding`` a boolean or null.  Anything else
    raises ``ValueError``.  Equal layout documents share one architecture
    object, built on first sight and kept in a small bounded memo.
    """
    architecture = _layout_architecture(_layout_memo_key(doc.get("layout", "bottom")))
    shielding = doc.get("shielding")
    if shielding is not None and not isinstance(shielding, bool):
        raise ValueError(f"shielding must be true, false or null, got {shielding!r}")
    gates = [
        tuple(_require_int(qubit, "gate qubit") for qubit in gate) for gate in doc["gates"]
    ]
    return SchedulingProblem.from_gates(
        architecture,
        _require_int(doc["num_qubits"], "num_qubits"),
        gates,
        shielding=shielding,
    )


# --------------------------------------------------------------------------- #
# Clique enumeration (module-level: pure graph algorithms, no problem state)
# --------------------------------------------------------------------------- #
def _bron_kerbosch(
    adjacency: Mapping[int, set[int]],
    cutoff=None,
) -> Iterator[tuple[int, ...]]:
    """Enumerate maximal cliques with pivoting Bron–Kerbosch.

    *cutoff* is an optional pruning predicate ``(reached, candidates) ->
    bool`` receiving the current clique size and the open candidate set;
    a True return abandons the branch (used by the clique certificate to
    skip branches that cannot beat the best bound found so far).
    """

    def expand(
        clique: list[int], candidates: set[int], excluded: set[int]
    ) -> Iterator[tuple[int, ...]]:
        if cutoff is not None and cutoff(len(clique), candidates):
            return
        if not candidates and not excluded:
            if clique:
                yield tuple(clique)
            return
        pivot = max(
            candidates | excluded, key=lambda v: len(adjacency[v] & candidates)
        )
        for vertex in sorted(candidates - adjacency[pivot]):
            yield from expand(
                clique + [vertex],
                candidates & adjacency[vertex],
                excluded & adjacency[vertex],
            )
            candidates = candidates - {vertex}
            excluded = excluded | {vertex}

    yield from expand([], set(adjacency), set())


def _greedy_colouring_count(
    vertices: set[int], adjacency: Mapping[int, set[int]]
) -> int:
    """Number of colours a greedy colouring uses on the induced subgraph.

    Any proper colouring bounds the clique number of the subgraph, so
    ``reached + colours(candidates)`` bounds the size of every clique still
    reachable from a Bron–Kerbosch branch.
    """
    colours: dict[int, int] = {}
    count = 0
    for vertex in sorted(vertices):
        used = {
            colours[u] for u in adjacency[vertex] & vertices if u in colours
        }
        colour = next(c for c in range(len(colours) + 1) if c not in used)
        colours[vertex] = colour
        count = max(count, colour + 1)
    return count


def _best_subclique(
    clique: tuple[int, ...], multiplicity: Mapping[tuple[int, int], int]
) -> tuple[int, tuple[int, ...]]:
    """Strongest matching bound over the sub-cliques of a maximal clique.

    A sub-clique can beat its maximal superset: dropping a vertex from an
    even clique shrinks the per-beam matching capacity ``⌊|Q|/2⌋`` while
    most gate occurrences remain (the odd-clique effect).  Sub-cliques are
    enumerated exhaustively for the tiny cliques of real instances; beyond
    12 vertices only the full clique and its even-to-odd trim are scored.
    """
    if len(clique) > 12:  # pragma: no cover - instances never get this big
        candidates = [clique]
        if len(clique) % 2 == 0:
            candidates.append(clique[:-1])
    else:
        candidates = [
            subset
            for size in range(2, len(clique) + 1)
            for subset in combinations(clique, size)
        ]
    best: tuple[int, tuple[int, ...]] = (0, ())
    for subset in candidates:
        gate_count = sum(
            multiplicity.get(pair, 0) for pair in combinations(subset, 2)
        )
        if not gate_count:
            continue
        bound = -(-gate_count // (len(subset) // 2))
        if bound > best[0]:
            best = (bound, tuple(subset))
    return best
