"""Property-based tests of the canonical problem IR (repro.core.canonical).

The canonical key is the service cache's correctness foundation: two
problems must share a key exactly when they are isomorphic (same gate
multigraph up to qubit relabeling, same architecture, same shielding).
A false collision would serve a wrong certificate; a false split merely
costs a cache miss — so the invariance direction is tested exhaustively
under random relabelings, and the distinctness direction across every
mutation a request could plausibly carry.
"""

import hashlib
import json
import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.canonical as canonical_module
from repro.arch import bottom_storage_layout, reduced_layout
from repro.core.canonical import (
    CANONICAL_VERSION,
    architecture_fingerprint,
    canonical_document,
    canonical_form,
    canonical_key,
    canonical_relabeling,
)
from repro.core.problem import SchedulingProblem, problem_from_document
from repro.evaluation.runner import (
    AIRBORNE_SMOKE_INSTANCES,
    REDUCED_LAYOUT_KWARGS,
    SMT_INSTANCES,
)
from repro.qec import get_code
from repro.qec.state_prep import state_preparation_circuit


def _arch(kind: str = "bottom"):
    return reduced_layout(kind, **REDUCED_LAYOUT_KWARGS)


def _problem(num_qubits, gates, kind="bottom", shielding=None):
    return SchedulingProblem.from_gates(
        _arch(kind), num_qubits, gates, shielding=shielding
    )


def _relabel(num_qubits, gates, rng):
    """A random isomorphic copy: permuted labels, shuffled gate order."""
    relabeling = list(range(num_qubits))
    rng.shuffle(relabeling)
    relabeled = [(relabeling[a], relabeling[b]) for a, b in gates]
    rng.shuffle(relabeled)
    if rng.random() < 0.5:  # endpoint order within a gate is symmetric
        relabeled = [(b, a) for a, b in relabeled]
    return relabeled


# ---------------------------------------------------------------------------
# Invariance: isomorphic instances collide.
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_key_invariant_under_relabeling(data):
    num_qubits = data.draw(st.integers(min_value=2, max_value=6))
    possible = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    gates = data.draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=6)
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)

    reference = canonical_key(_problem(num_qubits, gates))
    for _ in range(3):
        shuffled = _relabel(num_qubits, gates, rng)
        assert canonical_key(_problem(num_qubits, shuffled)) == reference


def test_key_invariant_under_all_permutations_of_ring_4():
    import itertools

    num_qubits, gates = SMT_INSTANCES["ring-4"]
    keys = set()
    for perm in itertools.permutations(range(num_qubits)):
        relabeled = _problem(num_qubits, [(perm[a], perm[b]) for a, b in gates])
        _assert_matches_reference(relabeled)
        keys.add(canonical_key(relabeled))
    assert len(keys) == 1


def test_key_distinguishes_same_degree_sequence():
    # C6 and two disjoint triangles are both 2-regular on 6 qubits — the
    # classic case where naive degree/colour hashing collides.
    cycle = _problem(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    triangles = _problem(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert _assert_matches_reference(cycle) != _assert_matches_reference(triangles)
    assert canonical_key(cycle) != canonical_key(triangles)


# ---------------------------------------------------------------------------
# Distinctness: non-isomorphic mutations split.
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_key_splits_on_gate_mutations(data):
    num_qubits = data.draw(st.integers(min_value=3, max_value=6))
    possible = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    gates = data.draw(
        st.lists(
            st.sampled_from(possible), min_size=1, max_size=5, unique=True
        )
    )
    base = canonical_key(_problem(num_qubits, gates))

    # Duplicating a gate changes the multigraph (multiplicity matters).
    duplicated = list(gates) + [gates[0]]
    assert canonical_key(_problem(num_qubits, duplicated)) != base

    # Removing a gate changes the edge count.
    if len(gates) > 1:
        removed = list(gates)[1:]
        assert canonical_key(_problem(num_qubits, removed)) != base

    # Adding a fresh gate changes the edge count.
    missing = [pair for pair in possible if pair not in set(gates)]
    if missing:
        added = list(gates) + [missing[0]]
        assert canonical_key(_problem(num_qubits, added)) != base


def test_key_splits_on_architecture_and_shielding():
    num_qubits, gates = SMT_INSTANCES["triangle"]
    bottom = canonical_key(_problem(num_qubits, gates, kind="bottom"))
    none = canonical_key(_problem(num_qubits, gates, kind="none"))
    unshielded = canonical_key(
        _problem(num_qubits, gates, kind="bottom", shielding=False)
    )
    assert bottom != none
    assert bottom != unshielded


def test_key_splits_on_qubit_count():
    # An extra isolated qubit is not the same problem (trap capacity).
    _, gates = SMT_INSTANCES["triangle"]
    assert canonical_key(_problem(3, gates)) != canonical_key(
        _problem(4, gates)
    )


# ---------------------------------------------------------------------------
# Stability: hashes are pinned across processes and releases.
# ---------------------------------------------------------------------------

GOLDEN_KEYS = {
    "single-gate": "9bd3875bc641b131989618a163b81040cad9f5e1f0e8e60264e635fcb9bbc2c6",
    "triangle": "4d9c60995bd33c1853500190a26a196ad7c70b8145c9f033af234cf9f22c59b6",
    "ring-4": "5e6926bf3d0a51e4aa2cc8ed4731c0a0cf583198da9cc78832244755ff30ebcf",
}


#: Keys of the paper codes' state-preparation problems on Layout 2
#: (``bottom_storage_layout()``), computed by the exhaustive search.
#: Hamming and tetrahedral share one: their prep graphs are isomorphic.
PAPER_CODE_KEYS = {
    "steane": "b5f774e72ccfe9b0350cf2d4a920c37ed208947cee67ab9d1fa3028384daad78",
    "surface": "b9d9f65cb8c367111336cf921b7a0e229c46f4365687363291be413912ae4605",
    "shor": "e743093bee9df05b6c86415ebde1dbb85dd1251e7d136e1f553f8467b3dcfdca",
    "hamming": "bfaaef479b7ddaf6f6c8e196bb02b56fd6aabbfa103aa8667f78be03c6f34136",
    "tetrahedral": "bfaaef479b7ddaf6f6c8e196bb02b56fd6aabbfa103aa8667f78be03c6f34136",
    "honeycomb": "208c716b1efa69afd9fb0821abb081d1ca7796cc7b8e04bd153c256064e921d8",
}


def test_golden_keys_are_stable():
    # A change here invalidates every persisted cache — bump
    # CANONICAL_VERSION when the document format changes so old entries
    # miss instead of colliding wrongly.
    assert CANONICAL_VERSION == 1
    for name, expected in GOLDEN_KEYS.items():
        num_qubits, gates = SMT_INSTANCES[name]
        assert canonical_key(_problem(num_qubits, gates)) == expected, name


def test_golden_key_for_relabeled_triangle():
    # Byte-distinct relabeling of the same instance → the same pinned key.
    relabeled = [(2, 1), (0, 2), (1, 0)]
    assert (
        canonical_key(_problem(3, relabeled)) == GOLDEN_KEYS["triangle"]
    )


# ---------------------------------------------------------------------------
# Mechanics: relabeling, canonical form, document, fingerprint.
# ---------------------------------------------------------------------------


def test_canonical_relabeling_is_a_permutation():
    num_qubits, gates = SMT_INSTANCES["ring-4"]
    relabeling = canonical_relabeling(_problem(num_qubits, gates))
    assert sorted(relabeling) == list(range(num_qubits))


def test_canonical_form_is_idempotent():
    num_qubits, gates = SMT_INSTANCES["ring-4"]
    first, _ = canonical_form(_problem(num_qubits, [(1, 3), (3, 0), (0, 2), (2, 1)]))
    second, _ = canonical_form(first)
    assert sorted(first.gates) == sorted(second.gates)
    assert canonical_key(first) == canonical_key(second)


def test_isolated_qubits_get_trailing_labels():
    # Gate on (3, 4) of 5 qubits: the two active qubits must canonicalise
    # to {0, 1}; the isolated ones fill the tail.
    problem = _problem(5, [(3, 4)])
    canonical, _ = canonical_form(problem)
    assert sorted(canonical.gates) == [(0, 1)]


def test_canonical_document_shape():
    num_qubits, gates = SMT_INSTANCES["triangle"]
    document = canonical_document(_problem(num_qubits, gates))
    assert document["version"] == CANONICAL_VERSION
    assert document["num_qubits"] == num_qubits
    assert document["shielding"] is True
    assert len(document["gates"]) == len(gates)
    assert document["architecture"]["zones"]


def test_architecture_fingerprint_ignores_display_names():
    import dataclasses

    reference = architecture_fingerprint(_arch("bottom"))
    renamed = dataclasses.replace(
        _arch("bottom"), name="a completely different display name"
    )
    assert architecture_fingerprint(renamed) == reference
    assert architecture_fingerprint(_arch("none")) != reference


# ---------------------------------------------------------------------------
# Differential oracle: the pruned search against the exhaustive one.
# ---------------------------------------------------------------------------
# The reference below is the exhaustive individualisation-refinement search
# the module ran before automorphism pruning, copied verbatim (helpers
# renamed with a ``_reference`` prefix).  Pruning may only shorten the walk:
# the smallest certificate, and with it every key, must not move.


def _reference_adjacency(
    num_qubits: int, gates: Sequence[tuple[int, int]]
) -> list[dict[int, int]]:
    """Multigraph adjacency: ``adj[q][r]`` = number of gates between q and r."""
    adjacency: list[dict[int, int]] = [{} for _ in range(num_qubits)]
    for a, b in gates:
        adjacency[a][b] = adjacency[a].get(b, 0) + 1
        adjacency[b][a] = adjacency[b].get(a, 0) + 1
    return adjacency


def _reference_refine(colours: list[int], adjacency: list[dict[int, int]]) -> list[int]:
    """Colour refinement (1-WL with edge multiplicities) to a fixed point.

    Each round recolours every qubit by its current colour plus the sorted
    multiset of ``(multiplicity, neighbour colour)`` pairs; colours are
    re-ranked into ``0..k-1`` by signature order, which keeps the result a
    function of the partition alone (not of the incoming colour values).
    """
    while True:
        signatures = [
            (
                colours[q],
                tuple(sorted((mult, colours[r]) for r, mult in adjacency[q].items())),
            )
            for q in range(len(colours))
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refined = [ranking[sig] for sig in signatures]
        if refined == colours:
            return refined
        colours = refined


def _reference_relabeled_gates(
    gates: Sequence[tuple[int, int]], label: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Apply a relabeling and normalise: endpoints sorted, gates sorted."""
    return tuple(
        sorted(
            (min(label[a], label[b]), max(label[a], label[b])) for a, b in gates
        )
    )


def _reference_canonical_relabeling(problem) -> tuple[int, ...]:
    """Return the canonical qubit relabeling ``old label -> new label``.

    The relabeling is a pure function of the isomorphism class: applying
    any permutation to the problem's qubits first changes nothing about the
    relabeled gate list it produces.  Qubits that participate in gates are
    ordered by the individualisation-refinement search below; isolated
    qubits are interchangeable (no gate can tell them apart) and receive
    the trailing labels in ascending original order.
    """
    num_qubits = problem.num_qubits
    adjacency = _reference_adjacency(num_qubits, problem.gates)
    active = [q for q in range(num_qubits) if adjacency[q]]
    isolated = [q for q in range(num_qubits) if not adjacency[q]]
    gates = list(problem.gates)

    best: Optional[tuple[tuple[tuple[int, int], ...], list[int]]] = None

    def search(colours: list[int]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for q in active:
            cells.setdefault(colours[q], []).append(q)
        target: Optional[list[int]] = None
        for colour in sorted(cells):
            if len(cells[colour]) > 1:
                target = cells[colour]
                break
        if target is None:
            # Discrete partition on the active qubits.  Their colours are
            # pairwise distinct but not contiguous — isolated qubits (and
            # sentinels) consume ranks too — so re-rank onto
            # 0..len(active)-1 before relabeling.
            label = [0] * len(colours)
            for rank, q in enumerate(sorted(active, key=colours.__getitem__)):
                label[q] = rank
            relabeled = _reference_relabeled_gates(gates, label)
            if best is None or relabeled < best[0]:
                best = (relabeled, label)
            return
        for q in target:
            branched = list(colours)
            branched[q] = -1  # individualise: strictly smallest colour
            search(_reference_refine(branched, adjacency))

    if active:
        # Start monochromatic; the first refinement separates by degree
        # profile.  Isolated qubits are excluded from the search entirely.
        initial = [0] * num_qubits
        search(_reference_refine(initial, adjacency))
        assert best is not None
        label = best[1]
    else:
        label = [0] * num_qubits

    relabeling = [0] * num_qubits
    for q in active:
        relabeling[q] = label[q]
    for offset, q in enumerate(isolated):
        relabeling[q] = len(active) + offset
    return tuple(relabeling)


def _assert_matches_reference(problem):
    """The pruned search yields the reference's canonical gate list.

    It even picks the same leaf: every subtree it skips mirrors one walked
    earlier, so the first smallest leaf of the exhaustive walk survives.
    """
    relabeling = canonical_relabeling(problem)
    assert sorted(relabeling) == list(range(problem.num_qubits))
    canonical_gates = _reference_relabeled_gates(problem.gates, relabeling)
    reference_relabeling = _reference_canonical_relabeling(problem)
    assert canonical_gates == _reference_relabeled_gates(
        problem.gates, reference_relabeling
    )
    assert relabeling == reference_relabeling
    return canonical_gates


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _complete(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


#: Highly symmetric graphs, where pruning does the most and is easiest to
#: get wrong: ``name -> (num_qubits, gates)``.
SYMMETRIC_GRAPHS = {
    **{f"C{n}": (n, _cycle(n)) for n in range(3, 10)},
    **{f"K{n}": (n, _complete(n)) for n in range(2, 7)},
    "K3,3": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "petersen": (10, _petersen()),
}


@st.composite
def multigraphs(draw):
    """2–10 qubits, repeated gates allowed, isolated qubits likely."""
    num_qubits = draw(st.integers(min_value=2, max_value=10))
    possible = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    gates = draw(st.lists(st.sampled_from(possible), min_size=0, max_size=18))
    return num_qubits, gates


@settings(deadline=None)
@given(multigraphs())
def test_differential_pruned_search_matches_exhaustive_on_multigraphs(graph):
    num_qubits, gates = graph
    _assert_matches_reference(_problem(num_qubits, gates))


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
def test_differential_pruned_search_matches_exhaustive_on_symmetric_graphs(name):
    num_qubits, gates = SYMMETRIC_GRAPHS[name]
    canonical_gates = _assert_matches_reference(_problem(num_qubits, gates))
    rng = random.Random(name)
    for _ in range(3):
        relabeled = _problem(num_qubits, _relabel(num_qubits, gates, rng))
        assert _assert_matches_reference(relabeled) == canonical_gates


def _code_problem(code_name, gates=None):
    prep = state_preparation_circuit(get_code(code_name))
    return SchedulingProblem.from_gates(
        bottom_storage_layout(),
        prep.num_qubits,
        prep.cz_gates if gates is None else gates,
    )


@pytest.mark.parametrize("code_name", sorted(PAPER_CODE_KEYS))
def test_differential_paper_codes(code_name):
    _assert_matches_reference(_code_problem(code_name))


# ---------------------------------------------------------------------------
# Pruning: the symmetric cases the exhaustive search blew up on.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "budget"), [("K5", 20), ("petersen", 20), ("ring-4", 8)]
)
def test_pruning_bounds_refinement_calls(monkeypatch, name, budget):
    # The exhaustive search refined 206 (K5), 221 (Petersen) and 13
    # (ring-4) times.
    calls = 0
    refine = canonical_module._refine

    def counting_refine(colours, adjacency):
        nonlocal calls
        calls += 1
        return refine(colours, adjacency)

    monkeypatch.setattr(canonical_module, "_refine", counting_refine)
    if name == "ring-4":
        num_qubits, gates = SMT_INSTANCES[name]
    else:
        num_qubits, gates = SYMMETRIC_GRAPHS[name]
    canonical_key(_problem(num_qubits, gates))
    assert 0 < calls <= budget


@settings(deadline=None, max_examples=30)
@given(multigraphs(), st.data())
def test_refine_matches_reference_refinement(graph, data):
    # Skipping the confirming round must not change a single colour.
    num_qubits, gates = graph
    adjacency = _reference_adjacency(num_qubits, gates)
    colours = data.draw(
        st.lists(
            st.integers(min_value=-1, max_value=3),
            min_size=num_qubits,
            max_size=num_qubits,
        )
    )
    assert canonical_module._refine(list(colours), adjacency) == _reference_refine(
        list(colours), adjacency
    )


# ---------------------------------------------------------------------------
# Key serialisation: one fingerprint per architecture, same bytes.
# ---------------------------------------------------------------------------


def _catalogue_documents():
    """Every smoke instance on every reduced layout at widths 2 and 3."""
    documents = []
    for width in (2, 3):
        extents = dict(REDUCED_LAYOUT_KWARGS, x_max=width, c_max=width)
        for kind in ("none", "bottom", "double"):
            for num_qubits, gates in SMT_INSTANCES.values():
                documents.append(
                    {
                        "num_qubits": num_qubits,
                        "gates": [list(gate) for gate in gates],
                        "layout": {"kind": kind, **extents},
                    }
                )
        for name in AIRBORNE_SMOKE_INSTANCES:
            num_qubits, gates = SMT_INSTANCES[name]
            documents.append(
                {
                    "num_qubits": num_qubits,
                    "gates": [list(gate) for gate in gates],
                    "layout": {"kind": "none", **extents},
                    "shielding": True,
                }
            )
    return documents


def test_key_bytes_are_the_serialised_canonical_document():
    problems = [problem_from_document(doc) for doc in _catalogue_documents()]
    problems += [_code_problem(name) for name in sorted(PAPER_CODE_KEYS)]
    assert len(problems) == 36 + len(PAPER_CODE_KEYS)
    for problem in problems:
        serialised = json.dumps(
            canonical_document(problem), sort_keys=True, separators=(",", ":")
        )
        expected = hashlib.sha256(serialised.encode("utf-8")).hexdigest()
        assert canonical_key(problem) == expected


# ---------------------------------------------------------------------------
# Paper codes: keys pinned before automorphism pruning existed.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code_name", sorted(PAPER_CODE_KEYS))
def test_paper_code_keys_are_pinned(code_name):
    problem = _code_problem(code_name)
    assert canonical_key(problem) == PAPER_CODE_KEYS[code_name]
    rng = random.Random(code_name)
    relabeled = _relabel(problem.num_qubits, list(problem.gates), rng)
    assert (
        canonical_key(_code_problem(code_name, relabeled))
        == PAPER_CODE_KEYS[code_name]
    )
