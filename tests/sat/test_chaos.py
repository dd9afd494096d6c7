"""Tests for the ``chaos`` fault-injection wrapper backend.

The chaos backend is the robustness harness's fault source: these tests
lock its plan parsing, registry resolution, the determinism of its seeded
fault schedule, and the transient-fault contract (the inner clause
database survives an injected transient, so a retried solve returns the
true answer).
"""

import pytest

from repro.sat.backend import backend_info, create_backend
from repro.sat.chaos import CHAOS_SPEC_ENV, ChaosBackend, FaultPlan
from repro.sat.errors import (
    BackendError,
    PermanentBackendError,
    TransientBackendError,
)
from repro.sat.solver import SolveResult


def _solve_all(backend, clauses):
    for clause in clauses:
        while backend.num_vars < max(abs(lit) for lit in clause):
            backend.new_var()
        backend.add_clause(clause)
    return backend.solve()


# --------------------------------------------------------------------------- #
# FaultPlan parsing
# --------------------------------------------------------------------------- #
def test_from_spec_parses_every_key():
    plan = FaultPlan.from_spec(
        "seed=7,transient=0.5,consecutive=1,unknown=0.25,delay=0.01,crash-after=3"
    )
    assert plan.seed == 7
    assert plan.transient_rate == 0.5
    assert plan.max_consecutive_transients == 1
    assert plan.unknown_rate == 0.25
    assert plan.delay_seconds == 0.01
    assert plan.crash_after_solves == 3


def test_from_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="known keys"):
        FaultPlan.from_spec("tranzient=0.5")
    with pytest.raises(ValueError, match="known keys"):
        FaultPlan.from_spec("seed")  # no '='


def test_from_environment_reads_the_spec_variable(monkeypatch):
    monkeypatch.setenv(CHAOS_SPEC_ENV, "seed=3,transient=1.0")
    plan = FaultPlan.from_environment()
    assert plan.seed == 3 and plan.transient_rate == 1.0
    monkeypatch.delenv(CHAOS_SPEC_ENV)
    assert FaultPlan.from_environment() == FaultPlan.default()


def test_default_plan_is_retry_winnable():
    """The registry default must keep consecutive transients at or below
    the solver's default retry budget, or a plain ``chaos`` backend could
    fail a run that retries correctly."""
    from repro.smt.solver import DEFAULT_BACKEND_RETRIES

    plan = FaultPlan.default()
    assert plan.max_consecutive_transients <= DEFAULT_BACKEND_RETRIES
    assert plan.crash_after_solves is None
    assert plan.unknown_rate == 0.0


# --------------------------------------------------------------------------- #
# Registry resolution
# --------------------------------------------------------------------------- #
def test_chaos_is_registered_and_usable():
    assert backend_info("chaos").is_available()


def test_parameterised_names_resolve_to_derived_entries():
    info = backend_info("chaos:flat")
    assert info.name == "chaos:flat"
    assert info.is_available()
    backend = create_backend("chaos:flat")
    assert isinstance(backend, ChaosBackend)
    assert getattr(backend.inner, "backend_name", None) == "flat"


def test_unknown_parameterised_names_fail_eagerly():
    with pytest.raises(ValueError):
        backend_info("chaos:nonsense")
    with pytest.raises(ValueError):
        backend_info("nonsense:flat")


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #
def test_no_fault_plan_is_a_transparent_proxy():
    backend = ChaosBackend(inner="flat", plan=FaultPlan())
    assert _solve_all(backend, [[1, 2], [-1], [-2, 3]]) is SolveResult.SAT
    model = backend.model()
    assert model[2] and model[3] and not model[1]
    stats = backend.statistics()
    assert stats["chaos_solves"] == 1
    assert stats["chaos_transient_faults"] == 0


def test_transient_faults_leave_the_inner_clause_db_intact():
    """The transient contract: a fault fires *before* the inner solve, so
    the retried solve sees the full clause database and returns the true
    answer."""
    plan = FaultPlan(seed=1, transient_rate=1.0, max_consecutive_transients=2)
    backend = ChaosBackend(inner="flat", plan=plan)
    for clause in [[1, 2], [-1], [-2]]:
        while backend.num_vars < 2:
            backend.new_var()
        backend.add_clause(clause)
    for _ in range(plan.max_consecutive_transients):
        with pytest.raises(TransientBackendError):
            backend.solve()
    # The consecutive cap forces the next solve through — and the answer
    # reflects every clause added before the faults.
    assert backend.solve() is SolveResult.UNSAT
    assert backend.statistics()["chaos_transient_faults"] == 2


def test_transient_faults_leave_a_native_clause_db_intact(toy_env):
    """The same contract over the external seam: ``chaos:ipasir`` keeps the
    clauses already handed to the native library across injected faults."""
    plan = FaultPlan(seed=1, transient_rate=1.0, max_consecutive_transients=2)
    backend = ChaosBackend(inner="ipasir", plan=plan)
    assert backend.statistics()["ipasir_solves"] == 0
    for clause in [[1, 2], [-1], [-2]]:
        while backend.num_vars < 2:
            backend.new_var()
        backend.add_clause(clause)
    for _ in range(plan.max_consecutive_transients):
        with pytest.raises(TransientBackendError):
            backend.solve()
    assert backend.solve() is SolveResult.UNSAT
    stats = backend.statistics()
    assert stats["chaos_transient_faults"] == 2
    assert stats["ipasir_solves"] == 1


def test_fault_sequence_is_deterministic_per_seed():
    def fault_pattern(seed):
        plan = FaultPlan(seed=seed, transient_rate=0.5, max_consecutive_transients=99)
        backend = ChaosBackend(inner="flat", plan=plan)
        backend.new_var()
        backend.add_clause([1])
        pattern = []
        for _ in range(12):
            try:
                backend.solve()
                pattern.append("ok")
            except TransientBackendError:
                pattern.append("fault")
        return pattern

    assert fault_pattern(7) == fault_pattern(7)
    assert fault_pattern(7) != fault_pattern(8)


def test_unknown_faults_return_unknown_without_touching_the_inner_solve():
    plan = FaultPlan(seed=0, unknown_rate=1.0)
    backend = ChaosBackend(inner="flat", plan=plan)
    backend.new_var()
    backend.add_clause([1])
    assert backend.solve() is SolveResult.UNKNOWN
    assert backend.statistics()["chaos_unknown_faults"] == 1


def test_crash_after_n_solves_is_permanent():
    plan = FaultPlan(crash_after_solves=2)
    backend = ChaosBackend(inner="flat", plan=plan)
    backend.new_var()
    backend.add_clause([1])
    assert backend.solve() is SolveResult.SAT
    assert backend.solve() is SolveResult.SAT
    for _ in range(3):  # permanent: every further solve fails
        with pytest.raises(PermanentBackendError):
            backend.solve()


def test_backend_errors_subclass_runtimeerror():
    """Existing callers catch RuntimeError at the backend seam; the new
    hierarchy must stay inside it."""
    assert issubclass(BackendError, RuntimeError)
    assert issubclass(TransientBackendError, BackendError)
    assert issubclass(PermanentBackendError, BackendError)
