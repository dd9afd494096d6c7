"""Tests for the SchedulingProblem IR and its analytic bounds."""

import pytest

from repro.arch import (
    bottom_storage_layout,
    double_sided_storage_layout,
    evaluation_layouts,
    no_shielding_layout,
    reduced_layout,
)
from repro.core.problem import SchedulingProblem, ZoneCapacities
from repro.core.structured import StructuredScheduler
from repro.qec import available_codes, get_code
from repro.qec.state_prep import state_preparation_circuit


def tiny_layout(kind="bottom"):
    return reduced_layout(kind, x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)


# --------------------------------------------------------------------------- #
# Construction and normalisation
# --------------------------------------------------------------------------- #
def test_from_gates_normalises_endpoints():
    problem = SchedulingProblem.from_gates(tiny_layout(), 3, [(2, 0), (1, 0)])
    assert problem.gates == ((0, 2), (0, 1))


def test_from_gates_preserves_duplicates():
    problem = SchedulingProblem.from_gates(tiny_layout(), 2, [(0, 1), (1, 0)])
    assert problem.num_gates == 2
    assert problem.max_gate_load() == 2


@pytest.mark.parametrize("bad", [[(0, 0)], [(0, 3)], [(-1, 1)]])
def test_from_gates_rejects_invalid_gates(bad):
    with pytest.raises(ValueError):
        SchedulingProblem.from_gates(tiny_layout(), 3, bad)


def test_from_gates_rejects_empty_register():
    with pytest.raises(ValueError):
        SchedulingProblem.from_gates(tiny_layout(), 0, [])


def test_shielding_defaults_to_storage_presence():
    zoned = SchedulingProblem.from_gates(tiny_layout("bottom"), 2, [(0, 1)])
    flat = SchedulingProblem.from_gates(tiny_layout("none"), 2, [(0, 1)])
    assert zoned.shielding is True
    assert flat.shielding is False
    override = SchedulingProblem.from_gates(
        tiny_layout("bottom"), 2, [(0, 1)], shielding=False
    )
    assert override.shielding is False


def test_from_circuit_carries_provenance():
    prep = state_preparation_circuit(get_code("steane"))
    problem = SchedulingProblem.from_circuit(
        bottom_storage_layout(), prep, metadata={"origin": "test"}
    )
    assert problem.num_qubits == prep.num_qubits
    assert problem.num_gates == prep.num_cz_gates
    assert problem.metadata["origin"] == "test"
    assert "circuit" in problem.metadata


# --------------------------------------------------------------------------- #
# Derived structure
# --------------------------------------------------------------------------- #
def test_gate_load_and_interaction_graph():
    problem = SchedulingProblem.from_gates(
        tiny_layout(), 4, [(0, 1), (1, 2), (1, 3)]
    )
    assert problem.gate_load() == [1, 3, 1, 1]
    assert problem.max_gate_load() == 3
    graph = problem.interaction_graph()
    assert graph[1] == {0, 2, 3}
    assert graph[0] == {1}
    assert problem.interacting_qubits() == [0, 1, 2, 3]


def test_zone_capacities():
    capacities = ZoneCapacities.of(tiny_layout("bottom"))
    # Reduced bottom layout: 3 columns, entangling rows 1..2, storage row 0,
    # 3 AOD columns x 3 AOD rows.
    assert capacities.entangling_sites == 6
    assert capacities.storage_sites == 3
    assert capacities.aod_traps == 9
    assert capacities.aod_columns == 3
    assert capacities.aod_rows == 3
    flat = ZoneCapacities.of(tiny_layout("none"))
    assert flat.storage_sites == 0


# --------------------------------------------------------------------------- #
# Analytic lower bound
# --------------------------------------------------------------------------- #
def test_lower_bound_gate_load_certificate():
    star = SchedulingProblem.from_gates(tiny_layout(), 4, [(0, 1), (0, 2), (0, 3)])
    assert star.rydberg_lower_bound() == 3
    # Shielded bottom layout: the leaves' beams cannot nest, so the +T
    # transfer certificate applies on top (the certified optimum is 5).
    assert star.lower_bound() == 4


def test_lower_bound_capacity_certificate():
    # 1 site column x 3 entangling rows and 2x2 AOD: 4 gates/beam max by AOD,
    # 3 by sites -> 7 disjoint gates need ceil(7/3) = 3 beams.
    cramped = reduced_layout("none", x_max=0, h_max=1, v_max=1, c_max=1, r_max=1)
    capacities = ZoneCapacities.of(cramped)
    assert capacities.entangling_sites == 3
    assert capacities.aod_traps == 4
    problem = SchedulingProblem.from_gates(
        cramped, 14, [(2 * i, 2 * i + 1) for i in range(7)]
    )
    assert problem.lower_bound() == 3


def test_lower_bound_is_at_least_one():
    idle = SchedulingProblem.from_gates(tiny_layout(), 2, [])
    assert idle.lower_bound() == 1


# --------------------------------------------------------------------------- #
# The +T transfer-stage certificate
# --------------------------------------------------------------------------- #
def test_transfer_bound_fires_on_shielded_chain():
    """The chain's endpoints swap sides of the entangling band between their
    beams; on a single-sided shielded layout that forces one transfer stage
    (the certified optimum is exactly 3 = 2 Rydberg + 1 transfer)."""
    chain = SchedulingProblem.from_gates(tiny_layout(), 3, [(0, 1), (1, 2)])
    assert chain.rydberg_lower_bound() == 2
    assert chain.transfer_lower_bound() == 1
    assert chain.lower_bound() == 3


def test_transfer_bound_skips_unshielded_layouts():
    chain = SchedulingProblem.from_gates(tiny_layout("none"), 3, [(0, 1), (1, 2)])
    assert chain.transfer_lower_bound() == 0
    assert chain.lower_bound() == 2


def test_transfer_bound_skips_double_sided_storage():
    """With storage on both sides the order argument breaks down (each
    conflicting qubit can park on its own side), so the certificate must
    not fire."""
    chain = SchedulingProblem.from_gates(
        double_sided_storage_layout(), 3, [(0, 1), (1, 2)]
    )
    assert chain.transfer_lower_bound() == 0


def test_transfer_bound_skips_nestable_busy_sets():
    """Disjoint gates can share one beam, so no pair of qubits is forced to
    swap sides — the certificate must stay quiet (the optimum is 1 stage)."""
    pairs = SchedulingProblem.from_gates(tiny_layout(), 4, [(0, 1), (2, 3)])
    assert pairs.transfer_lower_bound() == 0
    assert pairs.lower_bound() == 1


def test_transfer_bound_requires_partial_qubits():
    """When every qubit is loaded up to the Rydberg bound, a transfer-free
    schedule cannot be refuted by the busy-set argument (K4: the clique
    certificate matches the load, so every qubit is busy in all >= 3
    beams)."""
    k4 = SchedulingProblem.from_gates(
        tiny_layout(), 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    )
    assert k4.rydberg_lower_bound() == 3
    assert k4.transfer_lower_bound() == 0


def test_transfer_bound_composes_with_the_clique_certificate():
    """The clique certificate lifts the triangle's Rydberg bound to 3, which
    turns every qubit into a partial one (load 2 < 3 beams) — the busy-set
    argument then fires on top (the certified optimum is 5)."""
    triangle = SchedulingProblem.from_gates(tiny_layout(), 3, [(0, 1), (1, 2), (0, 2)])
    assert triangle.rydberg_lower_bound() == 3
    assert triangle.transfer_lower_bound() == 1
    assert triangle.lower_bound() == 4


@pytest.mark.parametrize(
    "gates, expected_extra",
    [
        # Star: leaves conflict pairwise through the hub -> +1 (optimum 5).
        ([(0, 1), (0, 2), (0, 3)], 1),
        # Path of length 3: the only partial qubits are the endpoints, whose
        # gates are vertex-disjoint and co-beamable -> no certificate.  The
        # certified optimum is indeed transfer-free (2 stages: the outer
        # gates share a beam, the middle gate takes the other).
        ([(0, 1), (1, 2), (2, 3)], 0),
    ],
)
def test_transfer_bound_small_families(gates, expected_extra):
    problem = SchedulingProblem.from_gates(tiny_layout(), 4, gates)
    assert problem.transfer_lower_bound() == expected_extra


@pytest.mark.parametrize("code_name", available_codes())
def test_transfer_bound_never_exceeds_structured_optimum(code_name):
    """+T soundness on real circuits: LB (with the transfer certificate)
    never exceeds the structured schedule, which is feasible by
    construction."""
    architecture = bottom_storage_layout()
    prep = state_preparation_circuit(get_code(code_name))
    problem = SchedulingProblem.from_circuit(architecture, prep)
    schedule = StructuredScheduler().schedule(problem)
    assert problem.lower_bound() <= schedule.num_stages


@pytest.mark.parametrize("code_name", available_codes())
@pytest.mark.parametrize("layout_name", list(evaluation_layouts()))
def test_lower_bound_never_exceeds_structured_upper_bound(code_name, layout_name):
    """LB <= optimum <= structured stage count, for every registered code."""
    architecture = evaluation_layouts()[layout_name]
    prep = state_preparation_circuit(get_code(code_name))
    problem = SchedulingProblem.from_circuit(architecture, prep)
    schedule = StructuredScheduler().schedule(problem)
    assert problem.lower_bound() <= schedule.num_stages


# --------------------------------------------------------------------------- #
# The clique certificate and bound provenance
# --------------------------------------------------------------------------- #
def complete_graph(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def test_clique_certificate_fires_on_the_triangle():
    """An odd clique needs one more beam than its per-qubit load: every
    triangle beam leaves one member idle, so 3 gates need 3 beams."""
    triangle = SchedulingProblem.from_gates(
        tiny_layout("none"), 3, [(0, 1), (1, 2), (0, 2)]
    )
    assert triangle.max_gate_load() == 2
    assert triangle.clique_lower_bound() == 3
    assert triangle.rydberg_lower_bound() == 3
    breakdown = triangle.bound_breakdown()
    assert breakdown.source == "clique"
    assert breakdown.clique == (0, 1, 2)
    assert breakdown.certificate("gate-load") == 2


def test_clique_certificate_is_exact_on_complete_graphs():
    """K_n needs n beams when n is odd (chromatic index of K_n) and n-1
    when n is even — the sub-clique scoring finds the odd trim."""
    layout = reduced_layout("none", x_max=3, c_max=3, r_max=3)
    k5 = SchedulingProblem.from_gates(layout, 5, complete_graph(5))
    assert k5.clique_lower_bound() == 5
    assert k5.bound_breakdown().clique == (0, 1, 2, 3, 4)
    k4 = SchedulingProblem.from_gates(layout, 4, complete_graph(4))
    assert k4.clique_lower_bound() == 3
    k6 = SchedulingProblem.from_gates(layout, 6, complete_graph(6))
    assert k6.clique_lower_bound() == 5


def test_clique_certificate_counts_gate_multiplicity():
    """Duplicate gates inside the clique tighten the matching bound."""
    doubled = SchedulingProblem.from_gates(
        tiny_layout("none"), 3, [(0, 1), (0, 1), (1, 2), (0, 2)]
    )
    # 4 gate occurrences inside the triangle, one gate per beam: 4 beams.
    assert doubled.clique_lower_bound() == 4
    assert doubled.max_gate_load() == 3


def test_clique_certificate_never_regresses_the_existing_certificates():
    """Chain, star, and bottom instances keep their PR 2/PR 3 bounds."""
    chain = SchedulingProblem.from_gates(tiny_layout(), 3, [(0, 1), (1, 2)])
    star = SchedulingProblem.from_gates(tiny_layout(), 4, [(0, 1), (0, 2), (0, 3)])
    pair = SchedulingProblem.from_gates(tiny_layout(), 2, [(0, 1)])
    assert chain.lower_bound() == 3  # gate-load 2 + transfer 1
    assert star.lower_bound() == 4  # gate-load 3 + transfer 1
    assert pair.lower_bound() == 1
    for problem in (chain, star, pair):
        assert problem.bound_breakdown().rydberg_source == "gate-load"


def test_interaction_cliques_enumerates_maximal_cliques():
    """Pivoting Bron–Kerbosch: a triangle glued to an edge has exactly two
    maximal cliques; isolated qubits are not reported."""
    problem = SchedulingProblem.from_gates(
        reduced_layout("none", x_max=3, c_max=3, r_max=3),
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3)],
    )
    assert problem.interaction_cliques() == [(0, 1, 2), (2, 3)]


@pytest.mark.parametrize(
    "gates, expected_source",
    [
        ([], "trivial"),
        ([(0, 1)], "gate-load"),
        ([(0, 1), (1, 2), (0, 2)], "clique"),
    ],
)
def test_lower_bound_source_names_the_winning_certificate(gates, expected_source):
    problem = SchedulingProblem.from_gates(tiny_layout("none"), 3, gates)
    assert problem.bound_breakdown().source == expected_source


def test_lower_bound_source_reports_the_beam_capacity_certificate():
    cramped = reduced_layout("none", x_max=0, h_max=1, v_max=1, c_max=1, r_max=1)
    problem = SchedulingProblem.from_gates(
        cramped, 14, [(2 * i, 2 * i + 1) for i in range(7)]
    )
    breakdown = problem.bound_breakdown()
    assert breakdown.source == "beam-capacity"
    assert breakdown.certificate("beam-capacity") == 3


def test_lower_bound_source_appends_the_transfer_certificate():
    triangle = SchedulingProblem.from_gates(
        tiny_layout("bottom"), 3, [(0, 1), (1, 2), (0, 2)]
    )
    breakdown = triangle.bound_breakdown()
    assert breakdown.source == "clique+transfer"
    assert breakdown.total == breakdown.rydberg + breakdown.transfer == 4
    assert breakdown.total == triangle.lower_bound()


def test_bound_breakdown_serialises():
    import json

    breakdown = SchedulingProblem.from_gates(
        tiny_layout(), 3, [(0, 1), (1, 2), (0, 2)]
    ).bound_breakdown()
    document = json.loads(json.dumps(breakdown.to_dict()))
    assert document["source"] == "clique+transfer"
    assert document["certificates"]["clique"] == 3
    assert document["clique"] == [0, 1, 2]


def test_describe_mentions_the_essentials():
    text = SchedulingProblem.from_gates(no_shielding_layout(), 2, [(0, 1)]).describe()
    assert "2 qubits" in text
    assert "1 CZ gates" in text
    assert "unshielded" in text


# --------------------------------------------------------------------------- #
# Request documents: one architecture per layout document
# --------------------------------------------------------------------------- #
def _layout_doc(layout, gates=((0, 1),)):
    return {"num_qubits": 2, "gates": [list(gate) for gate in gates], "layout": layout}


def test_equal_layout_documents_share_one_architecture():
    from repro.core.problem import problem_from_document

    first = problem_from_document(_layout_doc({"kind": "bottom", "x_max": 2, "c_max": 2}))
    reordered = problem_from_document(
        _layout_doc({"c_max": 2, "x_max": 2, "kind": "bottom"}, gates=((1, 0),))
    )
    assert first.architecture is reordered.architecture
    assert (
        problem_from_document(_layout_doc("double")).architecture
        is problem_from_document(_layout_doc("double")).architecture
    )


@pytest.mark.parametrize(
    "other",
    [{"kind": "double", "x_max": 2}, {"kind": "bottom", "x_max": 3}, {"kind": "bottom"}],
)
def test_different_layout_documents_get_their_own_architecture_and_key(other):
    from repro.core.canonical import canonical_key
    from repro.core.problem import problem_from_document

    base = problem_from_document(_layout_doc({"kind": "bottom", "x_max": 2}))
    changed = problem_from_document(_layout_doc(other))
    assert changed.architecture is not base.architecture
    assert canonical_key(changed) != canonical_key(base)


def test_layout_memo_validates_before_it_looks_up():
    # True == 1 and hash(True) == hash(1): a memo hit must not let the
    # boolean through where the integer was accepted.
    from repro.core.problem import problem_from_document

    problem_from_document(_layout_doc({"kind": "bottom", "x_max": 1}))
    with pytest.raises(ValueError, match="layout x_max must be an integer"):
        problem_from_document(_layout_doc({"kind": "bottom", "x_max": True}))


def test_full_layout_names_build_the_table_once(monkeypatch):
    import repro.arch
    from repro.core import problem as problem_module

    calls = 0
    build = repro.arch.evaluation_layouts

    def counting_evaluation_layouts(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(repro.arch, "evaluation_layouts", counting_evaluation_layouts)
    problem_module._layout_architecture.cache_clear()
    doc = _layout_doc("full:(2) Bottom Storage")
    first = problem_module.problem_from_document(doc)
    second = problem_module.problem_from_document(doc)
    assert calls == 1
    assert first.architecture is second.architecture
    assert first.architecture == bottom_storage_layout()
    assert problem_module._layout_architecture.cache_info().maxsize is not None
