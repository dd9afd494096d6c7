"""Tests for the pluggable SAT backend subsystem.

Covers the registry, the capability flags, differential fuzzing of every
registered backend against a brute-force oracle, and the external
``dimacs-subprocess`` backend — driven through the *fake* solver binaries
of ``tests/conftest.py`` (both the competition ``v``-line convention and
the minisat result-file convention), so the real subprocess machinery is
exercised deterministically with no system solver installed.
"""

import random

import pytest

from test_sat_solver import brute_force_satisfiable, php_cnf

from repro.sat import CNF, CDCLSolver, ReferenceCDCLSolver, SolveResult
from repro.sat.backend import (
    DEFAULT_BACKEND,
    SOLVER_BINARY_ENV,
    DimacsSubprocessBackend,
    SatBackend,
    available_backends,
    backend_info,
    create_backend,
    find_solver_binary,
)

@pytest.fixture
def fake_solver(monkeypatch, write_fake_solver):
    """A competition-style fake binary installed as the external solver."""
    script = write_fake_solver("fakesat")
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    return script


@pytest.fixture
def fake_minisat(monkeypatch, write_fake_solver):
    """A result-file-style fake binary (the name triggers the convention)."""
    script = write_fake_solver("minisat-fake", style="result-file")
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    return script


@pytest.fixture
def no_solver(monkeypatch):
    """Deterministically hide every external solver binary."""
    monkeypatch.setenv(SOLVER_BINARY_ENV, "/nonexistent/solver-binary")


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_builtin_backends_are_registered():
    names = available_backends()
    assert "flat" in names
    assert "reference" in names
    assert "dimacs-subprocess" in names
    assert "ipasir" in names
    assert DEFAULT_BACKEND == "flat"


def test_create_backend_instantiates_the_registered_classes():
    assert isinstance(create_backend("flat"), CDCLSolver)
    assert isinstance(create_backend("reference"), ReferenceCDCLSolver)
    assert isinstance(create_backend(None), CDCLSolver)  # default


def test_in_process_backends_satisfy_the_protocol():
    for name in ("flat", "reference"):
        solver = create_backend(name)
        assert isinstance(solver, SatBackend)
        assert solver.backend_name == name
        assert solver.supports_assumptions


def test_unknown_backend_name_raises_with_listing():
    with pytest.raises(ValueError, match="dimacs-subprocess"):
        create_backend("no-such-backend")
    with pytest.raises(ValueError, match="unknown SAT backend"):
        backend_info("no-such-backend")


def test_unavailable_backend_is_registered_but_not_usable(no_solver):
    assert "dimacs-subprocess" in available_backends()
    assert not backend_info("dimacs-subprocess").is_available()
    assert find_solver_binary() is None
    with pytest.raises(RuntimeError, match="unavailable"):
        create_backend("dimacs-subprocess")


def test_fake_solver_makes_the_subprocess_backend_usable(fake_solver):
    assert backend_info("dimacs-subprocess").is_available()
    backend = create_backend("dimacs-subprocess")
    assert isinstance(backend, DimacsSubprocessBackend)
    assert backend.binary == str(fake_solver)
    assert isinstance(backend, SatBackend)


# --------------------------------------------------------------------------- #
# Differential fuzzing across the whole registry
# --------------------------------------------------------------------------- #
def _random_cnf(rng: random.Random) -> CNF:
    n_vars = rng.randint(3, 8)
    cnf = CNF(num_vars=n_vars)
    for _ in range(rng.randint(2, int(4.4 * n_vars))):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("seed", range(8))
def test_every_available_backend_agrees_with_brute_force(name, seed):
    """Registry-wide differential fuzz: identical SAT/UNSAT answers and
    genuinely satisfying models from every backend that is usable right now
    (the subprocess backend skips when no solver binary is installed)."""
    if not backend_info(name).is_available():
        pytest.skip(f"backend {name!r} is not usable in this environment")
    cnf = _random_cnf(random.Random(7000 + seed))
    expected = brute_force_satisfiable(cnf)
    solver = create_backend(name)
    solver.add_cnf(cnf)
    result = solver.solve()
    assert result is not SolveResult.UNKNOWN
    assert (result is SolveResult.SAT) == expected, name
    if result is SolveResult.SAT:
        assert cnf.evaluate(solver.model()), name


def _unsat_heavy_cnf(rng: random.Random) -> CNF:
    """Dense random 3-CNF at ~5.2 clauses per variable: mostly UNSAT, with
    real refutation work (conflict analysis, not single-clause
    contradictions)."""
    n_vars = rng.randint(5, 9)
    cnf = CNF(num_vars=n_vars)
    for _ in range(int(5.2 * n_vars)):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


@pytest.mark.parametrize("seed", range(10))
def test_flat_reference_and_ipasir_agree_on_unsat_heavy_formulas(seed):
    """Differential fuzz on UNSAT-heavy formulas: the flat core, the seed
    reference, and — when a library is loadable — the IPASIR backend must
    return identical verdicts, with every SAT model genuinely satisfying
    the formula."""
    cnf = _unsat_heavy_cnf(random.Random(31000 + seed))
    expected = brute_force_satisfiable(cnf)
    solvers = [create_backend("flat"), create_backend("reference")]
    if backend_info("ipasir").is_available():
        solvers.append(create_backend("ipasir"))
    for solver in solvers:
        solver.add_cnf(cnf)
        result = solver.solve()
        assert result is not SolveResult.UNKNOWN
        assert (result is SolveResult.SAT) == expected, solver.backend_name
        if result is SolveResult.SAT:
            assert cnf.evaluate(solver.model()), solver.backend_name


@pytest.mark.parametrize(
    "pigeons, holes",
    [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (3, 3), (4, 4), (5, 5)],
)
def test_backends_agree_on_pigeonhole_formulas(pigeons, holes):
    """The pigeonhole family has deep refutations that random formulas of
    brute-forceable size never reach: the flat core, the seed reference and
    — when loadable — IPASIR must refute it exactly when there are more
    pigeons than holes, and find a genuine placement otherwise."""
    cnf = php_cnf(pigeons, holes)
    solvers = [create_backend("flat"), create_backend("reference")]
    if backend_info("ipasir").is_available():
        solvers.append(create_backend("ipasir"))
    for solver in solvers:
        solver.add_cnf(cnf)
        result = solver.solve()
        assert (result is SolveResult.UNSAT) == (pigeons > holes), solver.backend_name
        if result is SolveResult.SAT:
            assert cnf.evaluate(solver.model()), solver.backend_name


@pytest.mark.parametrize("seed", range(6))
def test_backends_agree_under_assumptions_on_unsat_heavy_formulas(seed):
    """Same differential net under assumption literals (the incremental
    surface the SMT layer drives): identical verdicts, and every model
    honours both the formula and the assumptions."""
    rng = random.Random(32000 + seed)
    cnf = _unsat_heavy_cnf(rng)
    assumptions = [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, cnf.num_vars + 1), 2)
    ]
    solvers = [create_backend("flat"), create_backend("reference")]
    if backend_info("ipasir").is_available():
        solvers.append(create_backend("ipasir"))
    verdicts = set()
    for solver in solvers:
        solver.add_cnf(cnf)
        result = solver.solve(assumptions=assumptions)
        if result is SolveResult.SAT:
            model = solver.model()
            assert cnf.evaluate(model), solver.backend_name
            for lit in assumptions:
                assert model[abs(lit)] is (lit > 0), solver.backend_name
        verdicts.add(result)
    assert len(verdicts) == 1, verdicts


@pytest.mark.parametrize("style", ["competition", "result-file"])
@pytest.mark.parametrize("seed", range(6))
def test_subprocess_backend_agrees_with_flat_core(
    monkeypatch, write_fake_solver, style, seed
):
    """The DIMACS pipe, exit codes, and both model conventions round-trip."""
    name = "fakesat" if style == "competition" else "minisat-fake"
    script = write_fake_solver(name, style=style)
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    cnf = _random_cnf(random.Random(9000 + seed))
    flat = CDCLSolver()
    flat.add_cnf(cnf)
    expected = flat.solve()
    backend = create_backend("dimacs-subprocess")
    backend.add_cnf(cnf)
    result = backend.solve()
    assert result is expected
    if result is SolveResult.SAT:
        assert cnf.evaluate(backend.model())


# --------------------------------------------------------------------------- #
# Subprocess backend behaviour
# --------------------------------------------------------------------------- #
def test_subprocess_backend_emulates_assumptions(fake_solver):
    backend = create_backend("dimacs-subprocess")
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    assert backend.solve(assumptions=[-a]) is SolveResult.SAT
    assert backend.model()[b] is True
    assert backend.solve(assumptions=[-a, -b]) is SolveResult.UNSAT
    # The base formula is untouched by the unit-clause emulation.
    assert backend.solve() is SolveResult.SAT
    assert backend.num_clauses == 1


def test_subprocess_backend_incremental_clause_addition(fake_minisat):
    backend = create_backend("dimacs-subprocess")
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    assert backend.solve() is SolveResult.SAT
    backend.add_clause([-a])
    assert backend.solve() is SolveResult.SAT
    assert backend.model()[b] is True
    backend.add_clause([-b])
    assert backend.solve() is SolveResult.UNSAT


def test_subprocess_backend_empty_clause_short_circuits(fake_solver):
    backend = create_backend("dimacs-subprocess")
    backend.new_var()
    assert backend.add_clause([]) is False
    assert backend.solve() is SolveResult.UNSAT
    assert backend.statistics()["subprocess_solves"] == 0  # no subprocess run


def test_subprocess_backend_statistics_count_solves(fake_solver):
    backend = create_backend("dimacs-subprocess")
    v = backend.new_var()
    backend.add_clause([v])
    assert backend.solve() is SolveResult.SAT
    assert backend.solve(assumptions=[v]) is SolveResult.SAT
    counters = backend.statistics()
    assert counters["subprocess_solves"] == 2
    assert counters["solve_seconds"] > 0
    assert "propagations" not in counters  # not observable through a pipe


def test_subprocess_backend_caches_the_dimacs_dump_between_probes(fake_solver):
    """Repeated probes on an unchanged clause DB reuse the memoised DIMACS
    body (assumption units only touch the header clause count); adding a
    clause invalidates the cache."""
    backend = create_backend("dimacs-subprocess")
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    assert backend.solve() is SolveResult.SAT  # cold dump
    assert backend.statistics()["dimacs_dump_cache_hits"] == 0
    assert backend.solve(assumptions=[-a]) is SolveResult.SAT
    assert backend.solve(assumptions=[-b]) is SolveResult.SAT
    assert backend.statistics()["dimacs_dump_cache_hits"] == 2
    backend.add_clause([-a])  # clause DB changed: dump must be rebuilt
    assert backend.solve(assumptions=[-b]) is SolveResult.UNSAT
    assert backend.statistics()["dimacs_dump_cache_hits"] == 2
    assert backend.solve() is SolveResult.SAT
    assert backend.statistics()["dimacs_dump_cache_hits"] == 3


def test_subprocess_backend_model_before_solve_raises(fake_solver):
    backend = create_backend("dimacs-subprocess")
    v = backend.new_var()
    backend.add_clause([v])
    with pytest.raises(RuntimeError):
        backend.model()


# --------------------------------------------------------------------------- #
# Microbench over arbitrary backend pairs
# --------------------------------------------------------------------------- #
def test_microbench_compares_any_registered_backend_pair():
    from repro.sat.bench import compare_cores, run_microbench, scheduling_cnf

    cell = {"layout": "none", "instance": "single-gate", "num_stages": 1}
    document = run_microbench(
        cells=[cell], repeats=1, backends=("reference", "flat")
    )
    assert document["backends"] == ["reference", "flat"]
    [result] = document["cells"]
    assert result["reference"]["result"] == result["flat"]["result"]
    assert "candidate_faster_everywhere" in document
    with pytest.raises(ValueError, match="itself"):
        compare_cores(scheduling_cnf(**cell), repeats=1, backends=("flat", "flat"))


def test_microbench_handles_backends_without_propagation_counters(fake_solver):
    from repro.sat.bench import run_microbench

    document = run_microbench(
        cells=[{"layout": "none", "instance": "single-gate", "num_stages": 1}],
        repeats=1,
        backends=("flat", "dimacs-subprocess"),
    )
    [result] = document["cells"]
    # No propagation telemetry through a pipe: the ratio is None (excluded
    # from the gate), never a spurious zero or infinity.
    assert result["throughput_ratio"] is None
    assert result["dimacs-subprocess"]["propagations_per_second"] is None
    assert document["min_throughput_ratio"] is None


@pytest.mark.parametrize(
    ("basename", "result_file_style"),
    [
        ("minisat", True),
        ("minisat_static", True),
        ("glucose-simp", True),
        ("cryptominisat5", False),  # contains "minisat" but speaks v-lines
        ("kissat", False),
        ("picosat", False),
    ],
)
def test_result_file_convention_is_detected_by_basename_prefix(
    write_fake_solver, basename, result_file_style
):
    backend = DimacsSubprocessBackend(binary=str(write_fake_solver(basename)))
    assert backend._result_file_style is result_file_style


def test_subprocess_backend_crash_reports_the_binary(tmp_path, monkeypatch):
    script = tmp_path / "crashsat"
    script.write_text("#!/bin/sh\necho boom >&2\nexit 3\n")
    script.chmod(0o755)
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    backend = create_backend("dimacs-subprocess")
    v = backend.new_var()
    backend.add_clause([v])
    with pytest.raises(RuntimeError, match="neither SAT nor UNSAT"):
        backend.solve()


def test_subprocess_backend_rejects_sat_answers_without_a_model(
    tmp_path, monkeypatch
):
    """A solver that exits 10 but prints no model must fail loudly, not
    fabricate an all-False assignment (an unsupported output convention
    would otherwise surface as garbage schedules far from the cause)."""
    script = tmp_path / "modelless-sat"
    script.write_text("#!/bin/sh\necho 's SATISFIABLE'\nexit 10\n")
    script.chmod(0o755)
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    backend = create_backend("dimacs-subprocess")
    v = backend.new_var()
    backend.add_clause([v])
    with pytest.raises(RuntimeError, match="no parseable model literals"):
        backend.solve()
