"""Canonical form and content hashes for the :class:`SchedulingProblem` IR.

Two scheduling problems are *isomorphic* when a relabeling of their qubits
maps one gate multiset onto the other and they agree on everything the
solver actually consumes: the structural architecture (grid extents, AOD
limits, interaction radius, zone bands, operation parameters — but not
display names), the qubit count, and the shielding policy.  Isomorphic
problems have identical optimal schedules up to the same relabeling, so a
certified optimum for one is a certified optimum for all of them.

This module computes a **canonical form** — a normal-form relabeling under
which all isomorphic problems become literally equal — and a **canonical
key**, the SHA-256 of that normal form's JSON serialisation.  The key is
deliberately independent of Python's randomised ``hash()`` so it is stable
across processes, machines and runs: the service's certified-result cache
(:mod:`repro.service.cache`) persists it to disk, and the bench runner uses
it to deduplicate isomorphic cells.

The relabeling is exact graph canonicalisation, not a heuristic invariant:
individualisation-refinement on the gate multigraph.  Colour refinement
(1-WL with edge multiplicities) partitions the qubits; while a colour class
has more than one member, each member is individualised in turn and the
lexicographically smallest relabeled gate list (the leaf *certificate*)
over all branches wins.  There is intentionally **no** branch cap, because
a cap would break canonicality on the instances it triggered on.

The search is pruned with the automorphisms it discovers, in the manner of
nauty/Traces (McKay & Piperno, J. Symbolic Computation 2014) and bliss
(Junttila & Kaski, ALENEX 2007).  Two leaves with equal certificates
define an automorphism of the gate multigraph; a child in the orbit of an
explored sibling under automorphisms fixing the node's path is skipped,
and a subtree that an automorphism maps onto the first or best leaf's
path is abandoned for the one already explored.  Both only skip subtrees
whose certificates equal ones already seen, so the smallest certificate —
and with it every key — is exactly the exhaustive search's (the tests keep
that search as their oracle).  The keys must not move: the certified-result
cache persists them, and a changed key turns every stored certificate into
a miss.  On symmetric graphs the pruning is what keeps the walk short:
K5 takes 10 refinements instead of 206, the Petersen graph 15 instead of
221.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.arch.architecture import ZonedArchitecture
    from repro.core.problem import SchedulingProblem

#: Version of the canonical document layout.  Bump on any change to
#: :func:`canonical_document`'s shape — a bump invalidates every persisted
#: cache entry, which is exactly what a layout change must do.
CANONICAL_VERSION = 1


# --------------------------------------------------------------------------- #
# Architecture fingerprint
# --------------------------------------------------------------------------- #
def architecture_fingerprint(architecture: "ZonedArchitecture") -> dict:
    """Structural identity of an architecture, display names excluded.

    Two architectures with the same fingerprint admit exactly the same
    schedules: the fingerprint covers the grid extents, AOD limits, the
    interaction radius, the zone bands (kind + row range, sorted by row so
    declaration order cannot matter), and every operation parameter.  The
    ``name`` of the architecture and of its zones is presentation-only and
    deliberately omitted.
    """
    return {
        "x_max": architecture.x_max,
        "y_max": architecture.y_max,
        "h_max": architecture.h_max,
        "v_max": architecture.v_max,
        "c_max": architecture.c_max,
        "r_max": architecture.r_max,
        "interaction_radius": architecture.interaction_radius,
        "zones": sorted(
            (zone.y_min, zone.y_max, zone.kind.value) for zone in architecture.zones
        ),
        "parameters": {
            field.name: getattr(architecture.parameters, field.name)
            for field in dataclass_fields(architecture.parameters)
        },
    }


# --------------------------------------------------------------------------- #
# Exact multigraph canonicalisation (individualisation-refinement)
# --------------------------------------------------------------------------- #
def _adjacency(
    num_qubits: int, gates: Sequence[tuple[int, int]]
) -> list[dict[int, int]]:
    """Multigraph adjacency: ``adj[q][r]`` = number of gates between q and r."""
    adjacency: list[dict[int, int]] = [{} for _ in range(num_qubits)]
    for a, b in gates:
        adjacency[a][b] = adjacency[a].get(b, 0) + 1
        adjacency[b][a] = adjacency[b].get(a, 0) + 1
    return adjacency


def _refine(colours: list[int], adjacency: list[dict[int, int]]) -> list[int]:
    """Colour refinement (1-WL with edge multiplicities) to a fixed point.

    Each round recolours every qubit by its current colour plus the sorted
    multiset of ``(multiplicity, neighbour colour)`` pairs; colours are
    re-ranked into ``0..k-1`` by signature order, which keeps the result a
    function of the partition alone (not of the incoming colour values).

    The fixed point is reached in the first round that splits no cell: the
    signatures then order exactly as their own colours do, so the re-ranked
    colours would come back unchanged from one more round, and that
    confirming round is skipped.
    """
    cells = len(set(colours))
    while True:
        signatures = [
            (
                colours[q],
                tuple(sorted([(mult, colours[r]) for r, mult in adjacency[q].items()])),
            )
            for q in range(len(colours))
        ]
        ranked = sorted(set(signatures))
        ranking = {sig: rank for rank, sig in enumerate(ranked)}
        refined = [ranking[sig] for sig in signatures]
        if len(ranked) == cells:
            return refined
        cells = len(ranked)
        colours = refined


def _relabeled_gates(
    gates: Sequence[tuple[int, int]], label: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Apply a relabeling and normalise: endpoints sorted, gates sorted."""
    relabeled = []
    for a, b in gates:
        low, high = label[a], label[b]
        relabeled.append((low, high) if low < high else (high, low))
    relabeled.sort()
    return tuple(relabeled)


class _Leaf(NamedTuple):
    """A discrete leaf of the search tree."""

    #: The relabeled, sorted gate list the leaves compete on.
    certificate: tuple[tuple[int, int], ...]
    #: ``label[q]`` = canonical label of active qubit ``q``.
    label: list[int]
    #: The qubits individualised on the way down, root first.
    path: tuple[int, ...]


def _search(
    gates: Sequence[tuple[int, int]],
    adjacency: list[dict[int, int]],
    active: list[int],
) -> list[int]:
    """Label of the first leaf with the smallest certificate.

    The tree is the exhaustive one — refine, individualise each member of
    the first non-singleton cell, recurse — walked depth-first in the same
    order; only the walk is shorter.  Every skipped subtree is the image of
    one walked earlier, so the first smallest leaf in walk order is never
    skipped and the answer is the exhaustive walk's.  Two leaves with equal
    certificates define an automorphism of the gate multigraph, recorded
    as a generator and used twice:

    * **orbit pruning** — at a node whose path the generator fixes
      pointwise, a child in the orbit of an explored sibling roots an
      isomorphic subtree with the same certificates, so it is skipped;
    * **unwinding** — when the automorphism maps the first or best leaf's
      path onto the new leaf's path position by position (checked, since
      equal certificates do not imply it), it maps the finished subtree
      where the two paths diverge onto the one being explored, so the
      search returns straight to the divergence node.
    """
    num_qubits = len(adjacency)
    generators: list[list[int]] = []
    first: Optional[_Leaf] = None
    best: Optional[_Leaf] = None

    def automorphism(reference: _Leaf, label: list[int]) -> list[int]:
        """The permutation taking *reference*'s leaf onto *label*'s leaf."""
        by_label = [0] * len(active)
        for q in active:
            by_label[label[q]] = q
        gamma = list(range(num_qubits))
        for q in active:
            gamma[q] = by_label[reference.label[q]]
        return gamma

    def orbit_roots(path: tuple[int, ...]) -> list[int]:
        """Union-find roots of the orbits of the path's pointwise stabiliser."""
        parent = list(range(num_qubits))

        def find(q: int) -> int:
            while parent[q] != q:
                parent[q] = parent[parent[q]]
                q = parent[q]
            return q

        for gamma in generators:
            if all(gamma[p] == p for p in path):
                for q in active:
                    a, b = find(q), find(gamma[q])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        return [find(q) for q in range(num_qubits)]

    def explore(colours: list[int], path: tuple[int, ...]) -> int:
        """Search below one node; return the depth the walk resumes at."""
        nonlocal first, best
        depth = len(path)
        cells: dict[int, list[int]] = {}
        for q in active:
            cells.setdefault(colours[q], []).append(q)
        if len(cells) == len(active):
            # Discrete partition on the active qubits.  Their colours are
            # pairwise distinct but not contiguous — isolated qubits (and
            # sentinels) consume ranks too — so re-rank onto
            # 0..len(active)-1 before relabeling.
            label = [0] * len(colours)
            for rank, q in enumerate(sorted(active, key=colours.__getitem__)):
                label[q] = rank
            leaf = _Leaf(_relabeled_gates(gates, label), label, path)
            if first is None or best is None:
                first = best = leaf
                return depth - 1
            for reference in (first,) if first is best else (first, best):
                if leaf.certificate != reference.certificate:
                    continue
                gamma = automorphism(reference, label)
                generators.append(gamma)
                if len(reference.path) == depth and all(
                    gamma[p] == q for p, q in zip(reference.path, path)
                ):
                    diverge = 0
                    while reference.path[diverge] == path[diverge]:
                        diverge += 1
                    return diverge
            if leaf.certificate < best.certificate:
                best = leaf
            return depth - 1
        target = cells[min(colour for colour, cell in cells.items() if len(cell) > 1)]
        # A pair left as the only non-singleton cell splits into two
        # singletons when one member is individualised.  Refining a
        # partition that is already discrete on the active qubits only
        # re-ranks it, and the leaf reads nothing but the colour order, so
        # that refinement is skipped.
        refine = len(cells) < len(active) - 1
        explored: list[int] = []
        known = 0
        roots: list[int] = []
        for q in target:
            if explored:
                if known != len(generators):
                    known = len(generators)
                    roots = orbit_roots(path)
                if roots and any(roots[q] == roots[e] for e in explored):
                    continue
            explored.append(q)
            branched = list(colours)
            branched[q] = -1  # individualise: strictly smallest colour
            if refine:
                branched = _refine(branched, adjacency)
            resume = explore(branched, path + (q,))
            if resume < depth:
                return resume
        return depth - 1

    # Start monochromatic; the first refinement separates by degree
    # profile.  Isolated qubits are excluded from the search entirely.
    explore(_refine([0] * num_qubits, adjacency), ())
    assert best is not None
    return best.label


def canonical_relabeling(problem: "SchedulingProblem") -> tuple[int, ...]:
    """Return the canonical qubit relabeling ``old label -> new label``.

    The relabeled gate list is a pure function of the isomorphism class:
    applying any permutation to the problem's qubits first changes nothing
    about the gate list it produces.  Qubits that participate in gates are
    ordered by the individualisation-refinement search above; isolated
    qubits are interchangeable (no gate can tell them apart) and receive
    the trailing labels in ascending original order.
    """
    num_qubits = problem.num_qubits
    adjacency = _adjacency(num_qubits, problem.gates)
    active = [q for q in range(num_qubits) if adjacency[q]]
    isolated = [q for q in range(num_qubits) if not adjacency[q]]
    label = _search(problem.gates, adjacency, active) if active else []

    relabeling = [0] * num_qubits
    for q in active:
        relabeling[q] = label[q]
    for offset, q in enumerate(isolated):
        relabeling[q] = len(active) + offset
    return tuple(relabeling)


# --------------------------------------------------------------------------- #
# Canonical documents, keys, and forms
# --------------------------------------------------------------------------- #
def _gate_document(problem: "SchedulingProblem") -> dict:
    """The part of the canonical document that depends on the request."""
    relabeling = canonical_relabeling(problem)
    return {
        "num_qubits": problem.num_qubits,
        "shielding": problem.shielding,
        "gates": [list(gate) for gate in _relabeled_gates(problem.gates, relabeling)],
    }


def canonical_document(problem: "SchedulingProblem") -> dict:
    """The JSON-serialisable normal form hashed by :func:`canonical_key`.

    Isomorphic problems produce byte-identical documents; any difference
    the solver can observe (gate structure, qubit count, shielding,
    structural architecture) produces a different document.  Problem
    ``metadata`` is provenance, not semantics, and is excluded.
    """
    return {
        "version": CANONICAL_VERSION,
        "architecture": architecture_fingerprint(problem.architecture),
        **_gate_document(problem),
    }


#: Serialiser of canonical documents: sorted keys, compact separators.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=64)
def _fingerprint_json(architecture: "ZonedArchitecture") -> str:
    """Serialised :func:`architecture_fingerprint`, once per architecture."""
    return _encode(architecture_fingerprint(architecture))


def canonical_key(problem: "SchedulingProblem") -> str:
    """SHA-256 hex digest of the problem's canonical document.

    Stable across processes and machines (no reliance on Python ``hash()``):
    the document is serialised with sorted keys and compact separators
    before hashing, so the key doubles as a persistent cache key.  The
    architecture's part is serialised once per architecture and spliced in
    first, where ``"architecture"`` sorts among the document's keys, so the
    bytes are those of serialising :func:`canonical_document` whole.
    """
    rest = _encode({"version": CANONICAL_VERSION, **_gate_document(problem)})
    serialised = (
        '{"architecture":' + _fingerprint_json(problem.architecture) + "," + rest[1:]
    )
    return hashlib.sha256(serialised.encode("utf-8")).hexdigest()


def canonical_form(
    problem: "SchedulingProblem",
) -> tuple["SchedulingProblem", tuple[int, ...]]:
    """Return ``(canonical problem, relabeling)`` for *problem*.

    The returned problem is the normal-form representative of the
    isomorphism class (isomorphic inputs yield equal gate lists); the
    relabeling maps each original qubit label to its canonical label, so a
    schedule solved on the canonical problem can be mapped back by
    inverting it.
    """
    from repro.core.problem import SchedulingProblem

    relabeling = canonical_relabeling(problem)
    relabeled = _relabeled_gates(problem.gates, relabeling)
    canonical = SchedulingProblem.from_gates(
        problem.architecture,
        problem.num_qubits,
        list(relabeled),
        shielding=problem.shielding,
        metadata=dict(problem.metadata),
    )
    return canonical, relabeling
