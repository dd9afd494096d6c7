"""Randomized bounds-soundness fuzz suite.

Seeded instance generators drive the full bounds engine end to end: for
every generated instance the analytic lower bound must not exceed the
certified SMT optimum, the optimum must not exceed the structured upper
bound, and every witness must survive the independent validator.  Seeds are
deterministic (parametrized) so a CI failure reproduces locally by running
the same test id.

Three generators cover the three bound regimes:

* :func:`random_problem` — arbitrary gate lists (duplicates included) over
  the seed layouts, shielding both on and off where the layout allows it;
* :func:`random_airborne_problem` — shielded storage-less instances from
  the airborne choreography's feasible class (load-regular unions of gate
  pairs, parallel bundles, and 4-cycles), where the interval must close
  analytically and the SMT optimum must agree exactly;
* a handful of deliberately infeasible shielded storage-less instances,
  locking that a ``None`` upper bound coincides with SMT infeasibility
  rather than hiding a missed witness.
"""

import random

import pytest

from repro.arch import reduced_layout
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import SMTScheduler
from repro.core.strategies.search import structured_upper_bound
from repro.core.validator import validate_schedule

LAYOUT_KINDS = ("none", "bottom", "double")

SEEDS = range(6)


def fuzz_layout(kind):
    return reduced_layout(kind, x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)


def airborne_layout():
    # One extra site/AOD line in each direction so that mixed airborne
    # grids (cycle + pair units need 4 AOD rows) stay in range.
    return reduced_layout("none", x_max=3, h_max=1, v_max=1, c_max=3, r_max=3)


def random_problem(rng: random.Random) -> SchedulingProblem:
    kind = rng.choice(LAYOUT_KINDS)
    architecture = fuzz_layout(kind)
    num_qubits = rng.randint(2, 4)
    num_gates = rng.randint(1, 4)
    gates = []
    while len(gates) < num_gates:
        a, b = rng.sample(range(num_qubits), 2)
        gates.append((a, b))
        if len(gates) < num_gates and rng.random() < 0.2:
            gates.append((a, b))  # duplicate gates are part of the contract
    shielding = None
    if architecture.has_storage and rng.random() < 0.3:
        shielding = False
    return SchedulingProblem.from_gates(
        architecture, num_qubits, gates, shielding=shielding
    )


def random_airborne_problem(rng: random.Random) -> SchedulingProblem:
    units = []
    if rng.random() < 0.5:
        # One 4-cycle, optionally joined by a parallel pair (k = 2).
        rounds = 2
        units.append(("cycle", 4))
        if rng.random() < 0.5:
            units.append(("pair", 2))
    else:
        rounds = rng.randint(1, 3)
        for _ in range(rng.randint(1, 2)):
            units.append(("pair", 2))
    num_qubits = sum(size for _, size in units)
    labels = list(range(num_qubits))
    rng.shuffle(labels)
    gates = []
    next_label = 0
    for kind, size in units:
        qubits = labels[next_label : next_label + size]
        next_label += size
        if kind == "cycle":
            a, b, c, d = qubits
            gates += [(a, b), (b, c), (c, d), (d, a)]
        else:
            gates += [(qubits[0], qubits[1])] * rounds
    rng.shuffle(gates)
    return SchedulingProblem.from_gates(
        airborne_layout(), num_qubits, gates, shielding=True
    )


# --------------------------------------------------------------------------- #
# LB <= certified optimum <= UB on arbitrary instances
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_bounds_bracket_the_certified_optimum(seed):
    rng = random.Random(seed)
    for _ in range(2):
        problem = random_problem(rng)
        breakdown = problem.bound_breakdown()
        witness = structured_upper_bound(problem)
        if witness is not None:
            validate_schedule(witness, require_shielding=problem.shielding)
            assert breakdown.total <= witness.num_stages, problem.describe()
        budget = witness.num_stages if witness is not None else breakdown.total + 4
        report = SMTScheduler(
            time_limit_per_instance=300,
            strategy="bisection",
            max_stages=max(budget, breakdown.total),
        ).schedule(problem)
        if witness is not None:
            # With a validated witness the search interval is closed, so
            # bisection must certify within the stage budget.
            assert report.found and report.optimal, problem.describe()
        if report.found and report.optimal:
            optimum = report.schedule.num_stages
            assert breakdown.total <= optimum, problem.describe()
            if witness is not None:
                assert optimum <= witness.num_stages, problem.describe()
            validate_schedule(report.schedule, require_shielding=problem.shielding)
            assert report.lower_bound_source == breakdown.source


# --------------------------------------------------------------------------- #
# Shielded storage-less instances: the interval must close analytically
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_shielded_storage_less_certifies_without_probes(seed):
    rng = random.Random(seed)
    problem = random_airborne_problem(rng)
    rounds = problem.max_gate_load()
    witness = structured_upper_bound(problem)
    assert witness is not None, problem.describe()
    validate_schedule(witness, require_shielding=True)
    assert witness.num_stages == rounds
    assert witness.num_transfer_stages == 0
    report = SMTScheduler(strategy="bisection").schedule(problem)
    assert report.found and report.optimal
    assert report.stages_tried == []
    assert report.upper_bound == report.lower_bound == rounds
    # Independent SMT cross-check: the exact search agrees with the
    # analytically certified optimum.
    linear = SMTScheduler(
        time_limit_per_instance=300, strategy="linear", max_stages=rounds + 2
    ).schedule(problem)
    assert linear.found and linear.optimal
    assert linear.schedule.num_stages == rounds


@pytest.mark.parametrize(
    "num_qubits, gates",
    [
        (3, [(0, 1), (1, 2), (0, 2)]),  # odd register: someone always idles
        (3, [(0, 1), (1, 2)]),  # non-regular load
        (4, [(0, 1), (1, 2)]),  # a qubit with no gate at all
    ],
)
def test_shielded_storage_less_infeasible_instances_have_no_witness(
    num_qubits, gates
):
    """A ``None`` upper bound on these instances is not a missed witness:
    the SMT search agrees that no shielded schedule exists at any horizon
    near the bound (idle qubits cannot leave an all-covering entangling
    zone)."""
    problem = SchedulingProblem.from_gates(
        fuzz_layout("none"), num_qubits, gates, shielding=True
    )
    assert structured_upper_bound(problem) is None
    report = SMTScheduler(
        time_limit_per_instance=300,
        strategy="linear",
        max_stages=problem.lower_bound() + 2,
    ).schedule(problem)
    assert not report.found


# --------------------------------------------------------------------------- #
# Duplicate gates (the encoding bug this suite exists to catch)
# --------------------------------------------------------------------------- #
def test_duplicate_gates_are_schedulable_and_bounded():
    """Repeated CZ gates execute once per occurrence; the SMT encoding's
    unintended-interaction constraint must accept the pair whenever ANY
    occurrence executes (a single-index lookup made these instances
    unsatisfiable)."""
    problem = SchedulingProblem.from_gates(
        fuzz_layout("bottom"), 3, [(0, 1), (0, 1), (1, 2)]
    )
    report = SMTScheduler(
        time_limit_per_instance=300, strategy="bisection"
    ).schedule(problem)
    assert report.found and report.optimal
    assert problem.lower_bound() <= report.schedule.num_stages
    executed = [tuple(sorted(g)) for g in report.schedule.executed_gates]
    assert executed.count((0, 1)) == 2
