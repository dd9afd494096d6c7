"""Tests for the pluggable SAT backend subsystem.

Covers the registry, differential fuzzing of every registered backend
against a brute-force oracle, and the microbench over backend pairs (the
external ``ipasir`` backend runs on the toy library of ``tests/conftest.py``).
"""

import random

import pytest

from test_sat_solver import brute_force_satisfiable, php_cnf

from repro.sat import CNF, CDCLSolver, ReferenceCDCLSolver, SolveResult
from repro.sat.backend import (
    DEFAULT_BACKEND,
    SatBackend,
    available_backends,
    backend_info,
    create_backend,
)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_builtin_backends_are_registered(deleted_backend):
    assert available_backends() == ["chaos", "flat", "ipasir", "reference"]
    assert DEFAULT_BACKEND == "flat"
    with pytest.raises(ValueError, match="unknown SAT backend"):
        backend_info(deleted_backend)


def test_create_backend_instantiates_the_registered_classes():
    assert isinstance(create_backend("flat"), CDCLSolver)
    assert isinstance(create_backend("reference"), ReferenceCDCLSolver)
    assert isinstance(create_backend(None), CDCLSolver)  # default


def test_in_process_backends_satisfy_the_protocol():
    for name in ("flat", "reference"):
        solver = create_backend(name)
        assert isinstance(solver, SatBackend)
        assert solver.backend_name == name


def test_unknown_backend_name_raises_with_listing():
    with pytest.raises(ValueError, match="chaos, flat, ipasir, reference"):
        create_backend("no-such-backend")
    with pytest.raises(ValueError, match="unknown SAT backend"):
        backend_info("no-such-backend")


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
    (``ipasir`` skips when no library loads)."""
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


def test_microbench_handles_backends_without_propagation_counters(toy_env):
    from repro.sat.bench import run_microbench

    document = run_microbench(
        cells=[{"layout": "none", "instance": "single-gate", "num_stages": 1}],
        repeats=1,
        backends=("flat", "ipasir"),
    )
    [result] = document["cells"]
    # An IPASIR library exposes no propagation counter: the ratio is None
    # (excluded from the gate), never a spurious zero or infinity.
    assert result["throughput_ratio"] is None
    assert result["ipasir"]["propagations_per_second"] is None
    assert result["ipasir"]["result"] == result["flat"]["result"]
    assert document["min_throughput_ratio"] is None
