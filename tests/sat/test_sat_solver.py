"""Tests for the CDCL SAT solver, including randomised cross-checks against
a brute-force model enumerator and against the preserved seed reference
implementation."""

import gzip
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, CDCLSolver, ReferenceCDCLSolver, SolveResult
from repro.sat.solver import SolverStatistics


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Check satisfiability by enumerating all assignments (small formulas)."""
    n = cnf.num_vars
    for bits in itertools.product([False, True], repeat=n):
        assignment = {i + 1: bits[i] for i in range(n)}
        if cnf.evaluate(assignment):
            return True
    return False


def php_cnf(pigeons: int, holes: int) -> CNF:
    """The pigeonhole formula: UNSAT iff pigeons > holes, with real
    refutation depth."""
    cnf = CNF(num_vars=pigeons * holes)
    var = lambda i, j: i * holes + j + 1  # noqa: E731
    for i in range(pigeons):
        cnf.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                cnf.add_clause([-var(i1, j), -var(i2, j)])
    return cnf


def random_cnf(rng: random.Random, n_vars: int = 8, density: float = 4.8) -> CNF:
    """Random CNF of mixed clause widths (units, binaries, ternaries)."""
    cnf = CNF(num_vars=n_vars)
    for _ in range(int(density * n_vars)):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def solve_cnf(cnf: CNF) -> tuple[SolveResult, dict]:
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    result = solver.solve()
    model = solver.model() if result is SolveResult.SAT else {}
    return result, model


def test_empty_formula_is_sat():
    solver = CDCLSolver()
    assert solver.solve() is SolveResult.SAT


def test_single_unit_clause():
    solver = CDCLSolver()
    v = solver.new_var()
    solver.add_clause([v])
    assert solver.solve() is SolveResult.SAT
    assert solver.model()[v] is True


def test_conflicting_units_unsat():
    solver = CDCLSolver()
    v = solver.new_var()
    solver.add_clause([v])
    solver.add_clause([-v])
    assert solver.solve() is SolveResult.UNSAT


def test_simple_implication_chain():
    solver = CDCLSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    solver.add_clause([a])
    assert solver.solve() is SolveResult.SAT
    model = solver.model()
    assert model[a] and model[b] and model[c]


def test_pigeonhole_3_into_2_is_unsat():
    # 3 pigeons, 2 holes: variables p[i][j] = pigeon i in hole j.
    solver = CDCLSolver()
    var = {}
    for i in range(3):
        for j in range(2):
            var[i, j] = solver.new_var()
    for i in range(3):
        solver.add_clause([var[i, 0], var[i, 1]])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                solver.add_clause([-var[i1, j], -var[i2, j]])
    assert solver.solve() is SolveResult.UNSAT


def test_pigeonhole_4_into_3_is_unsat():
    solver = CDCLSolver()
    var = {}
    pigeons, holes = 4, 3
    for i in range(pigeons):
        for j in range(holes):
            var[i, j] = solver.new_var()
    for i in range(pigeons):
        solver.add_clause([var[i, j] for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                solver.add_clause([-var[i1, j], -var[i2, j]])
    assert solver.solve() is SolveResult.UNSAT


def test_graph_coloring_sat():
    # A 4-cycle is 2-colourable.
    solver = CDCLSolver()
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    color = {}
    for node in range(4):
        for c in range(2):
            color[node, c] = solver.new_var()
        solver.add_clause([color[node, 0], color[node, 1]])
        solver.add_clause([-color[node, 0], -color[node, 1]])
    for u, v in edges:
        for c in range(2):
            solver.add_clause([-color[u, c], -color[v, c]])
    assert solver.solve() is SolveResult.SAT


def test_odd_cycle_not_two_colorable():
    solver = CDCLSolver()
    edges = [(0, 1), (1, 2), (2, 0)]
    color = {}
    for node in range(3):
        for c in range(2):
            color[node, c] = solver.new_var()
        solver.add_clause([color[node, 0], color[node, 1]])
        solver.add_clause([-color[node, 0], -color[node, 1]])
    for u, v in edges:
        for c in range(2):
            solver.add_clause([-color[u, c], -color[v, c]])
    assert solver.solve() is SolveResult.UNSAT


def test_model_satisfies_formula():
    random.seed(7)
    cnf = CNF()
    n_vars = 12
    for _ in range(40):
        clause = random.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([lit if random.random() < 0.5 else -lit for lit in clause])
    result, model = solve_cnf(cnf)
    if result is SolveResult.SAT:
        assert cnf.evaluate(model)


@pytest.mark.parametrize("seed", range(20))
def test_random_3sat_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    n_vars = rng.randint(4, 9)
    n_clauses = rng.randint(2, int(4.5 * n_vars))
    cnf = CNF(num_vars=n_vars)
    for _ in range(n_clauses):
        size = rng.randint(1, 3)
        variables = rng.sample(range(1, n_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    expected = brute_force_satisfiable(cnf)
    result, model = solve_cnf(cnf)
    assert result is not SolveResult.UNKNOWN
    assert (result is SolveResult.SAT) == expected
    if result is SolveResult.SAT:
        assert cnf.evaluate(model)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_property_random_formulas(data):
    n_vars = data.draw(st.integers(min_value=2, max_value=7))
    n_clauses = data.draw(st.integers(min_value=1, max_value=20))
    clauses = []
    for _ in range(n_clauses):
        size = data.draw(st.integers(min_value=1, max_value=3))
        clause = []
        for _ in range(size):
            var = data.draw(st.integers(min_value=1, max_value=n_vars))
            sign = data.draw(st.booleans())
            clause.append(var if sign else -var)
        clauses.append(clause)
    cnf = CNF(clauses, num_vars=n_vars)
    expected = brute_force_satisfiable(cnf)
    result, model = solve_cnf(cnf)
    assert (result is SolveResult.SAT) == expected
    if result is SolveResult.SAT:
        assert cnf.evaluate(model)


def test_solve_under_assumptions():
    solver = CDCLSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[-a]) is SolveResult.SAT
    assert solver.model()[b] is True
    assert solver.solve(assumptions=[-a, -b]) is SolveResult.UNSAT
    # The formula itself stays satisfiable after an UNSAT assumption query.
    assert solver.solve() is SolveResult.SAT


def test_incremental_clause_addition():
    solver = CDCLSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve() is SolveResult.SAT
    solver.add_clause([-a])
    assert solver.solve() is SolveResult.SAT
    assert solver.model()[b] is True
    solver.add_clause([-b])
    assert solver.solve() is SolveResult.UNSAT


def test_conflict_limit_returns_unknown():
    # A hard instance with a conflict budget of 1 should give up.
    solver = CDCLSolver()
    solver.add_cnf(php_cnf(6, 5))
    result = solver.solve(max_conflicts=1)
    assert result in (SolveResult.UNKNOWN, SolveResult.UNSAT)
    # The solver stays usable after an interrupted probe.
    assert solver.solve() is SolveResult.UNSAT


def test_time_limit_returns_unknown_and_solver_stays_usable():
    solver = CDCLSolver()
    solver.add_cnf(php_cnf(7, 6))
    # The deadline is checked after each conflict; a zero budget stops at
    # the first one.
    assert solver.solve(time_limit=0.0) is SolveResult.UNKNOWN
    assert solver.statistics()["conflicts"] == 1
    assert solver.solve() is SolveResult.UNSAT


def test_statistics_are_collected():
    solver = CDCLSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b, c])
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    solver.add_clause([-c, -a])
    solver.solve()
    stats = solver.stats.as_dict()
    assert stats["propagations"] >= 0
    assert "conflicts" in stats


def test_statistics_include_timing_and_rates():
    solver = CDCLSolver()
    variables = [solver.new_var() for _ in range(8)]
    for left, right in zip(variables, variables[1:]):
        solver.add_clause([-left, right])
    solver.add_clause([variables[0]])
    solver.solve()
    counters = solver.stats.as_dict()
    assert counters["solve_seconds"] >= 0.0
    assert "propagations_per_second" not in counters  # rates are opt-in
    with_rates = solver.stats.as_dict(rates=True)
    assert with_rates["propagations_per_second"] >= 0.0
    assert with_rates["conflicts_per_second"] >= 0.0
    # The rates are consistent with their defining counters.
    if with_rates["solve_seconds"] > 0:
        expected = with_rates["propagations"] / with_rates["solve_seconds"]
        assert with_rates["propagations_per_second"] == pytest.approx(expected)


def test_statistics_rates_are_zero_before_any_solve():
    stats = SolverStatistics()
    stats.propagations = 1000
    stats.conflicts = 10
    assert stats.propagations_per_second == 0.0
    assert stats.conflicts_per_second == 0.0


def test_statistics_rates_stay_finite_on_instant_solves():
    stats = SolverStatistics()
    stats.propagations = 1000
    stats.conflicts = 10
    stats.solve_seconds = 5e-10  # below clock granularity, but non-zero
    assert stats.propagations_per_second > 0
    assert stats.propagations_per_second != float("inf")
    assert stats.conflicts_per_second != float("inf")


def test_default_core_search_is_pinned():
    """The flat core runs exactly one search.  Its counters on a reduced
    scheduling refutation are deterministic, so any change to propagation,
    analysis, restarts or clause-database reduction shows up here.

    The formula is a committed DIMACS file (``bottom``/``triangle`` at four
    stages, 3,975 variables and 13,650 clauses as the bit-blaster once
    emitted it), so a change to the encoder leaves this pin alone; the
    encoder's own output is pinned in ``tests/smt``."""
    from repro.sat.backend import create_backend

    fixture = Path(__file__).with_name("bottom_triangle_s4.cnf.gz")
    cnf = CNF.from_dimacs(gzip.decompress(fixture.read_bytes()).decode())
    assert (cnf.num_vars, cnf.num_clauses) == (3_975, 13_650)
    solver = create_backend("flat")
    solver.add_cnf(cnf)
    assert solver.solve() is SolveResult.UNSAT
    counters = solver.statistics()
    assert (
        counters["conflicts"],
        counters["decisions"],
        counters["propagations"],
    ) == (208, 459, 51_340)


def test_default_core_search_is_pinned_on_pigeonhole():
    """A second pin, on a formula with no scheduling structure: seven
    pigeons in six holes take six Luby restarts to refute."""
    solver = CDCLSolver()
    solver.add_cnf(php_cnf(7, 6))
    assert solver.solve() is SolveResult.UNSAT
    counters = solver.statistics()
    assert (
        counters["conflicts"],
        counters["decisions"],
        counters["propagations"],
        counters["restarts"],
    ) == (804, 987, 11_297, 6)


def test_statistics_report_exactly_the_search_counters():
    solver = CDCLSolver()
    solver.add_cnf(php_cnf(4, 3))
    assert solver.solve() is SolveResult.UNSAT
    counters = solver.statistics()
    assert set(counters) == {
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "learned_clauses",
        "deleted_clauses",
        "max_decision_level",
        "solve_seconds",
    }
    assert counters["conflicts"] > 0


def test_model_before_solve_raises():
    solver = CDCLSolver()
    solver.new_var()
    with pytest.raises(RuntimeError):
        solver.model()


def test_add_cnf_bulk():
    cnf = CNF([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    assert solver.solve() is SolveResult.UNSAT


# --------------------------------------------------------------------------- #
# Regression tests: assumption solving reused across calls (the incremental
# scheduler keeps one solver alive for the whole minimum-stage search).
# --------------------------------------------------------------------------- #
def test_assumption_reuse_interleaved_with_clause_addition():
    solver = CDCLSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[-a]) is SolveResult.SAT
    assert solver.model()[b] is True
    # Add clauses between assumption queries, as extend_to() does.
    solver.add_clause([-b, c])
    assert solver.solve(assumptions=[-a]) is SolveResult.SAT
    assert solver.model()[c] is True
    assert solver.solve(assumptions=[-a, -c]) is SolveResult.UNSAT
    # Neither the UNSAT query nor the added clauses poisoned the formula.
    assert solver.solve() is SolveResult.SAT
    assert solver.solve(assumptions=[a]) is SolveResult.SAT


def test_assumption_unsat_does_not_block_weaker_assumptions():
    """Mirrors the horizon search: refute S, then succeed at S+1."""
    solver = CDCLSolver()
    horizon2, horizon3 = solver.new_var(), solver.new_var()
    g1, g2, g3 = (solver.new_var() for _ in range(3))
    # horizon2 forbids g3; horizon3 allows everything.
    solver.add_clause([-horizon2, -g3])
    # The instance needs g3.
    solver.add_clause([g3])
    assert solver.solve(assumptions=[horizon2]) is SolveResult.UNSAT
    assert solver.solve(assumptions=[horizon3]) is SolveResult.SAT
    assert solver.model()[g3] is True
    # The refuted horizon literal is now entailed negative.
    assert solver.solve(assumptions=[horizon2]) is SolveResult.UNSAT
    assert solver.solve(assumptions=[g1, g2]) is SolveResult.SAT


def test_learned_state_survives_assumption_queries():
    """Conflicts in one query must not corrupt later models."""
    solver = CDCLSolver()
    n = 8
    variables = [solver.new_var() for _ in range(n)]
    # Chain of implications v0 -> v1 -> ... -> v7.
    for left, right in zip(variables, variables[1:]):
        solver.add_clause([-left, right])
    assert solver.solve(assumptions=[variables[0], -variables[-1]]) is SolveResult.UNSAT
    assert solver.solve(assumptions=[variables[0]]) is SolveResult.SAT
    model = solver.model()
    assert all(model[v] for v in variables)
    assert solver.solve(assumptions=[-variables[-1]]) is SolveResult.SAT
    model = solver.model()
    assert not model[variables[0]]


# --------------------------------------------------------------------------- #
# Learned-clause database reduction under pressure
# --------------------------------------------------------------------------- #
def test_learned_database_reduction_keeps_answers_sound():
    """A conflict-heavy instance must stay correct across DB reductions and
    restarts (the LBD-aware reducer rebuilds the clause arena in place)."""
    solver = CDCLSolver()
    var = {}
    pigeons, holes = 7, 6
    for i in range(pigeons):
        for j in range(holes):
            var[i, j] = solver.new_var()
    for i in range(pigeons):
        solver.add_clause([var[i, j] for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                solver.add_clause([-var[i1, j], -var[i2, j]])
    assert solver.solve() is SolveResult.UNSAT
    assert solver.stats.learned_clauses > 0
    assert solver.stats.conflicts > 0


def test_learned_database_reduction_fires_on_a_long_refutation():
    """Eight pigeons in seven holes learn past the 2,000-clause cap, so the
    reducer really compacts the arena (seven in six, above, stays under
    it), interleaved with restarts; the refutation must survive both."""
    solver = CDCLSolver()
    solver.add_cnf(php_cnf(8, 7))
    assert solver.solve() is SolveResult.UNSAT
    counters = solver.statistics()
    assert counters["deleted_clauses"] > 0
    assert counters["restarts"] > 0
    assert counters["learned_clauses"] > counters["deleted_clauses"]


# --------------------------------------------------------------------------- #
# DIMACS debug export (ground work for the external-backend adapter)
# --------------------------------------------------------------------------- #
def test_dump_dimacs_round_trips_to_equisatisfiable_formula():
    solver = CDCLSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b, c])
    solver.add_clause([-a, b])
    solver.add_clause([-b, c])
    solver.add_clause([c])  # becomes a level-0 unit, exported as such
    text = solver.dump_dimacs()
    reloaded = CNF.from_dimacs(text)
    assert reloaded.num_vars == 3
    fresh = CDCLSolver()
    fresh.add_cnf(reloaded)
    assert fresh.solve() is SolveResult.SAT
    assert fresh.model()[c] is True
    assert solver.solve() is SolveResult.SAT  # exporting must not disturb state


@pytest.mark.parametrize("include_learned", [False, True])
def test_dump_dimacs_preserves_satisfiability_after_solving(include_learned):
    """Exports taken mid-life (learned clauses, level-0 facts) round-trip to
    a formula with the same satisfiability, with and without the implied
    learned clauses."""
    rng = random.Random(11)
    cnf = CNF(num_vars=9)
    for _ in range(38):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, 10), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    original = solver.solve()
    reloaded = CNF.from_dimacs(solver.dump_dimacs(include_learned=include_learned))
    fresh = CDCLSolver()
    fresh.add_cnf(reloaded)
    assert fresh.solve() is original


def test_dump_dimacs_of_trivially_unsat_formula():
    solver = CDCLSolver()
    v = solver.new_var()
    solver.add_clause([v])
    solver.add_clause([-v])
    reloaded = CNF.from_dimacs(solver.dump_dimacs())
    fresh = CDCLSolver()
    fresh.add_cnf(reloaded)
    assert fresh.solve() is SolveResult.UNSAT


# --------------------------------------------------------------------------- #
# Differential testing: flat-array core vs the preserved seed reference
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(15))
def test_flat_core_agrees_with_reference(seed):
    rng = random.Random(1000 + seed)
    n_vars = rng.randint(4, 10)
    cnf = CNF(num_vars=n_vars)
    for _ in range(rng.randint(3, int(4.4 * n_vars))):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    flat, reference = CDCLSolver(), ReferenceCDCLSolver()
    flat.add_cnf(cnf)
    reference.add_cnf(cnf)
    flat_result = flat.solve()
    assert flat_result is reference.solve()
    if flat_result is SolveResult.SAT:
        assert cnf.evaluate(flat.model())
        assert cnf.evaluate(reference.model())


@pytest.mark.parametrize("seed", range(10))
def test_binary_heavy_formulas_agree_with_brute_force(seed):
    """Targeted coverage of the binary-clause watch specialisation: pure
    2-SAT formulas exercise only the inline binary propagation path (plus
    binary conflicts feeding first-UIP analysis with arena reasons)."""
    rng = random.Random(4000 + seed)
    n_vars = rng.randint(4, 9)
    cnf = CNF(num_vars=n_vars)
    for _ in range(rng.randint(4, 4 * n_vars)):
        a, b = rng.sample(range(1, n_vars + 1), 2)
        cnf.add_clause(
            [a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b]
        )
    expected = brute_force_satisfiable(cnf)
    result, model = solve_cnf(cnf)
    assert (result is SolveResult.SAT) == expected
    if result is SolveResult.SAT:
        assert cnf.evaluate(model)


def test_binary_clauses_as_assumption_conflict_reasons():
    """A binary implication chain refuted under assumptions must leave the
    solver in a clean state (binary clauses serve as trail reasons)."""
    solver = CDCLSolver()
    n = 12
    variables = [solver.new_var() for _ in range(n)]
    for left, right in zip(variables, variables[1:]):
        solver.add_clause([-left, right])
    assert (
        solver.solve(assumptions=[variables[0], -variables[-1]])
        is SolveResult.UNSAT
    )
    assert solver.solve(assumptions=[variables[0]]) is SolveResult.SAT
    assert all(solver.model()[v] for v in variables)


def test_flat_core_agrees_with_reference_under_assumptions():
    clauses = [[1, 2], [-1, 3], [-3, -2, 4], [-4, 2]]
    for assumptions in ([], [1], [-2], [1, -4], [-1, -2], [3, -4]):
        flat, reference = CDCLSolver(), ReferenceCDCLSolver()
        flat.add_cnf(CNF(clauses))
        reference.add_cnf(CNF(clauses))
        assert flat.solve(assumptions=assumptions) is reference.solve(
            assumptions=assumptions
        ), assumptions


# --------------------------------------------------------------------------- #
# Differential nets on mixed-width formulas: verdicts and models against the
# brute-force oracle and the seed reference, across full solves, assumption
# probes and clause-database exports.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(12))
def test_mixed_width_formulas_agree_with_oracle_and_reference(seed):
    cnf = random_cnf(random.Random(6200 + seed))
    expected = brute_force_satisfiable(cnf)
    for solver in (CDCLSolver(), ReferenceCDCLSolver()):
        solver.add_cnf(cnf)
        result = solver.solve()
        assert (result is SolveResult.SAT) == expected
        if result is SolveResult.SAT:
            assert cnf.evaluate(solver.model())


@pytest.mark.parametrize("seed", range(8))
def test_assumption_probes_after_a_full_solve_match_a_fresh_solver(seed):
    """Learned clauses and saved phases from earlier calls must never leak
    into assumption-level semantics: every probe answers like a fresh
    solver given the same assumptions."""
    rng = random.Random(7300 + seed)
    cnf = random_cnf(rng, n_vars=7, density=4.0)
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    solver.solve()
    for _ in range(3):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, cnf.num_vars + 1), 2)
        ]
        fresh = CDCLSolver()
        fresh.add_cnf(cnf)
        assert solver.solve(assumptions=assumptions) is fresh.solve(
            assumptions=assumptions
        )


@pytest.mark.parametrize("seed", range(8))
def test_clause_db_export_after_solving_stays_equisatisfiable(seed):
    """to_cnf() after a solve, with and without the learned clauses, is
    equisatisfiable with the original formula."""
    cnf = random_cnf(random.Random(5100 + seed))
    expected = brute_force_satisfiable(cnf)
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    assert (solver.solve() is SolveResult.SAT) == expected
    for include_learned in (False, True):
        check = CDCLSolver()
        check.add_cnf(solver.to_cnf(include_learned=include_learned))
        assert (check.solve() is SolveResult.SAT) == expected
