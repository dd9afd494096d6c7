"""Tests for the ctypes IPASIR backend.

Two harnesses cover the binding:

* ``toy_ipasir.c`` — a tiny C IPASIR implementation compiled on the fly
  by the ``toy_library`` fixture of ``tests/conftest.py`` (skipped when no
  C compiler is present), driving the *real* ctypes
  marshalling path: prototypes, int32 literals, handle lifetime, the
  optional ``ccadical_conflicts`` stats getter.
* A pure-Python fake library object — exercising the prototype-guard
  fallbacks (plain callables reject ``argtypes``/``restype`` writes) and
  the registered-but-unusable degradation without any native code.

A final optional section runs against a *real* system solver library
(CaDiCaL et al.) when one is loadable, proving learned-clause reuse across
assumption-guarded probes — the property the backend exists for.
"""

import random
import time

import pytest

from test_sat_solver import brute_force_satisfiable

from repro.sat import CNF, CDCLSolver, SolveResult
from repro.sat.backend import available_backends, backend_info, create_backend
from repro.sat.ipasir import (
    IPASIR_LIB_ENV,
    IpasirBackend,
    find_ipasir_library,
    ipasir_signature,
    load_ipasir_library,
)


def _random_cnf(rng: random.Random) -> CNF:
    n_vars = rng.randint(3, 8)
    cnf = CNF(num_vars=n_vars)
    for _ in range(rng.randint(2, int(4.6 * n_vars))):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


# --------------------------------------------------------------------------- #
# Registration and graceful degradation
# --------------------------------------------------------------------------- #
def test_ipasir_is_registered_even_without_a_library():
    assert "ipasir" in available_backends()


def test_ipasir_unusable_without_a_loadable_library(monkeypatch, tmp_path):
    monkeypatch.setenv(IPASIR_LIB_ENV, str(tmp_path / "libnowhere.so"))
    assert find_ipasir_library() is None
    assert load_ipasir_library() is None
    assert not backend_info("ipasir").is_available()
    with pytest.raises(RuntimeError, match="unavailable"):
        create_backend("ipasir")


def test_env_override_never_falls_through_to_probing(monkeypatch, tmp_path):
    """An explicit $REPRO_IPASIR_LIB that does not load must yield None —
    silently binding a different solver than the one requested would make
    measurements lie."""
    bogus = tmp_path / "libbroken.so"
    bogus.write_bytes(b"not an elf")
    monkeypatch.setenv(IPASIR_LIB_ENV, str(bogus))
    assert load_ipasir_library() is None
    assert find_ipasir_library() is None


# --------------------------------------------------------------------------- #
# The real ctypes path, against the compiled toy library
# --------------------------------------------------------------------------- #
def test_toy_library_loads_with_signature(toy_env):
    assert find_ipasir_library() == "toy-dpll-1.0"
    assert backend_info("ipasir").is_available()
    backend = create_backend("ipasir")
    assert isinstance(backend, IpasirBackend)
    assert backend.signature == "toy-dpll-1.0"


def test_backend_solves_sat_and_unsat_natively(toy_env):
    backend = create_backend("ipasir")
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    backend.add_clause([-a])
    assert backend.solve() is SolveResult.SAT
    assert backend.model()[b] is True
    assert backend.model()[a] is False
    backend.add_clause([-b])
    assert backend.solve() is SolveResult.UNSAT


def test_assumptions_hold_for_one_solve_only(toy_env):
    backend = create_backend("ipasir")
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    assert backend.solve(assumptions=[-a, -b]) is SolveResult.UNSAT
    # The IPASIR contract: assumptions are cleared after every solve call.
    assert backend.solve() is SolveResult.SAT
    assert backend.solve(assumptions=[-a]) is SolveResult.SAT
    assert backend.model()[b] is True


def test_model_before_any_solve_raises(toy_env):
    backend = create_backend("ipasir")
    v = backend.new_var()
    backend.add_clause([v])
    with pytest.raises(RuntimeError, match="call solve"):
        backend.model()


def test_empty_clause_short_circuits_without_a_native_call(toy_env):
    backend = create_backend("ipasir")
    backend.new_var()
    assert backend.add_clause([]) is False
    assert backend.solve() is SolveResult.UNSAT
    assert backend.statistics()["ipasir_solves"] == 0


def test_statistics_report_solves_and_toy_conflicts(toy_env):
    backend = create_backend("ipasir")
    v = backend.new_var()
    backend.add_clause([v])
    assert backend.solve() is SolveResult.SAT
    assert backend.solve(assumptions=[v]) is SolveResult.SAT
    counters = backend.statistics()
    assert counters["ipasir_solves"] == 2
    assert counters["solve_seconds"] > 0
    # The toy library exports ccadical_conflicts (returning its solve
    # count), so the optional-stats path is exercised end to end.
    assert counters["conflicts"] == 2


def test_zero_literals_are_rejected(toy_env):
    backend = create_backend("ipasir")
    backend.new_var()
    with pytest.raises(ValueError):
        backend.add_clause([0])
    with pytest.raises(ValueError):
        backend.solve(assumptions=[0])


@pytest.mark.parametrize("seed", range(10))
def test_toy_backend_agrees_with_flat_core_and_oracle(toy_env, seed):
    rng = random.Random(21000 + seed)
    cnf = _random_cnf(rng)
    expected = brute_force_satisfiable(cnf)
    backend = create_backend("ipasir")
    backend.add_cnf(cnf)
    result = backend.solve()
    assert (result is SolveResult.SAT) == expected
    if result is SolveResult.SAT:
        assert cnf.evaluate(backend.model())
    # And under assumptions, against the flat core.
    assumptions = [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, cnf.num_vars + 1), 2)
    ]
    flat = CDCLSolver()
    flat.add_cnf(cnf)
    assert backend.solve(assumptions=assumptions) is flat.solve(
        assumptions=assumptions
    )


@pytest.mark.parametrize("seed", range(6))
def test_toy_backend_tracks_the_flat_core_across_incremental_solves(toy_env, seed):
    """The surface a horizon search drives: clauses arrive in batches
    between solves, each solve under fresh assumptions.  After every batch
    the native backend and the flat core must agree, and every model must
    honour the clauses so far and that solve's assumptions."""
    rng = random.Random(22000 + seed)
    cnf = _random_cnf(rng)
    backend = create_backend("ipasir")
    flat = CDCLSolver()
    for solver in (backend, flat):
        while solver.num_vars < cnf.num_vars:
            solver.new_var()
    so_far = CNF(num_vars=cnf.num_vars)
    cut = [0, len(cnf.clauses) // 3, 2 * len(cnf.clauses) // 3, len(cnf.clauses)]
    for start, stop in zip(cut, cut[1:]):
        for clause in cnf.clauses[start:stop]:
            so_far.add_clause(clause)
            backend.add_clause(clause)
            flat.add_clause(clause)
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, cnf.num_vars + 1), 2)
        ]
        result = backend.solve(assumptions=assumptions)
        assert result is flat.solve(assumptions=assumptions)
        if result is SolveResult.SAT:
            model = backend.model()
            assert so_far.evaluate(model)
            for lit in assumptions:
                assert model[abs(lit)] is (lit > 0)
    assert backend.statistics()["ipasir_solves"] == 3


def _unsat_heavy_cnf(rng: random.Random) -> CNF:
    """Dense random 3-CNF (~5.2 clauses per variable): mostly UNSAT."""
    n_vars = rng.randint(5, 9)
    cnf = CNF(num_vars=n_vars)
    for _ in range(int(5.2 * n_vars)):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


@pytest.mark.parametrize("seed", range(6))
def test_toy_backend_agrees_on_unsat_heavy_formulas(toy_env, seed):
    """Refutations through the native path: on mostly-UNSAT formulas the
    toy library's verdict matches the brute-force oracle, with and without
    assumptions."""
    rng = random.Random(23000 + seed)
    cnf = _unsat_heavy_cnf(rng)
    backend = create_backend("ipasir")
    backend.add_cnf(cnf)
    result = backend.solve()
    assert (result is SolveResult.SAT) == brute_force_satisfiable(cnf)
    if result is SolveResult.SAT:
        assert cnf.evaluate(backend.model())
    lit = rng.choice([1, -1]) * rng.randint(1, cnf.num_vars)
    restricted = CNF([*cnf.clauses, [lit]], num_vars=cnf.num_vars)
    expected = brute_force_satisfiable(restricted)
    assert (backend.solve(assumptions=[lit]) is SolveResult.SAT) == expected


@pytest.mark.parametrize("pigeons, holes", [(2, 1), (3, 2), (4, 3), (3, 3), (4, 4)])
def test_toy_backend_agrees_on_pigeonhole_formulas(toy_env, pigeons, holes):
    from test_sat_solver import php_cnf

    cnf = php_cnf(pigeons, holes)
    backend = create_backend("ipasir")
    backend.add_cnf(cnf)
    result = backend.solve()
    assert (result is SolveResult.UNSAT) == (pigeons > holes)
    if result is SolveResult.SAT:
        assert cnf.evaluate(backend.model())


def test_backend_accepts_a_library_path_directly(toy_library):
    backend = IpasirBackend(library=str(toy_library))
    v = backend.new_var()
    backend.add_clause([v])
    assert backend.solve() is SolveResult.SAT
    with pytest.raises(RuntimeError, match="did not load"):
        IpasirBackend(library=str(toy_library) + ".missing")


# --------------------------------------------------------------------------- #
# Pure-Python fake library: prototype guards and surface validation
# --------------------------------------------------------------------------- #
class _FakeIpasirLib:
    """Python object with the IPASIR surface (methods reject prototype
    writes, exactly like the guard comments in the backend claim)."""

    def __init__(self):
        self._handles = {}
        self._next = 1

    def ipasir_signature(self):
        return "pyfake-1.0"

    def ipasir_init(self):
        handle = self._next
        self._next += 1
        self._handles[handle] = {
            "clauses": [],
            "current": [],
            "assumptions": [],
            "model": {},
        }
        return handle

    def ipasir_release(self, handle):
        self._handles.pop(handle, None)

    def ipasir_add(self, handle, lit):
        state = self._handles[handle]
        if lit:
            state["current"].append(lit)
        else:
            state["clauses"].append(tuple(state["current"]))
            state["current"] = []

    def ipasir_assume(self, handle, lit):
        self._handles[handle]["assumptions"].append(lit)

    def ipasir_solve(self, handle):
        state = self._handles[handle]
        solver = CDCLSolver()
        num_vars = max(
            [abs(lit) for clause in state["clauses"] for lit in clause]
            + [abs(lit) for lit in state["assumptions"]]
            + [0]
        )
        while solver.num_vars < num_vars:
            solver.new_var()
        for clause in state["clauses"]:
            solver.add_clause(clause)
        result = solver.solve(assumptions=list(state["assumptions"]))
        state["assumptions"] = []
        if result is SolveResult.SAT:
            state["model"] = solver.model()
            return 10
        return 20

    def ipasir_val(self, handle, var):
        return var if self._handles[handle]["model"].get(var, False) else -var


def test_fake_python_library_drives_the_backend():
    backend = IpasirBackend(library=_FakeIpasirLib())
    assert backend.signature == "pyfake-1.0"
    a, b = backend.new_var(), backend.new_var()
    backend.add_clause([a, b])
    backend.add_clause([-a])
    assert backend.solve() is SolveResult.SAT
    assert backend.model()[b] is True
    assert backend.solve(assumptions=[-b]) is SolveResult.UNSAT
    assert backend.solve() is SolveResult.SAT


class _CodedIpasirLib(_FakeIpasirLib):
    """Fake library whose ``ipasir_solve`` returns a scripted code."""

    def __init__(self, code):
        super().__init__()
        self.code = code

    def ipasir_solve(self, handle):
        return self.code


@pytest.mark.parametrize("code", [1, 30, -20])
def test_unexpected_solve_codes_raise_naming_the_library(code):
    """Only 10, 20 and 0 are IPASIR answers; anything else is a broken
    library and must not be read as a verdict."""
    backend = IpasirBackend(library=_CodedIpasirLib(code))
    backend.add_clause([backend.new_var()])
    with pytest.raises(RuntimeError, match=rf"code {code} .*pyfake-1\.0"):
        backend.solve()
    assert backend.statistics()["ipasir_solves"] == 1


def test_solve_code_zero_reads_as_unknown_without_a_model():
    backend = IpasirBackend(library=_CodedIpasirLib(0))
    backend.add_clause([backend.new_var()])
    assert backend.solve() is SolveResult.UNKNOWN
    with pytest.raises(RuntimeError, match="call solve"):
        backend.model()


class _PollingIpasirLib(_FakeIpasirLib):
    """Fake library that honours ``ipasir_set_terminate`` the way a real
    solver does: it polls the callback and gives up (code 0) once it fires."""

    def __init__(self):
        super().__init__()
        self.terminate = None
        self.polls = 0

    def ipasir_set_terminate(self, handle, state, callback):
        self.terminate = callback if callback else None

    def ipasir_solve(self, handle):
        if self.terminate is not None:
            time.sleep(0.002)
            self.polls += 1
            if self.terminate(None):
                self._handles[handle]["assumptions"] = []
                return 0
        return super().ipasir_solve(handle)


def test_time_limit_arms_the_terminate_callback_for_one_solve():
    lib = _PollingIpasirLib()
    backend = IpasirBackend(library=lib)
    backend.add_clause([backend.new_var()])
    assert backend.solve(time_limit=1e-6) is SolveResult.UNKNOWN
    assert lib.polls == 1
    # Disarmed after the call: the next solve runs to completion unpolled.
    assert lib.terminate is None
    assert backend.solve() is SolveResult.SAT
    assert lib.polls == 1
    assert backend.solve(time_limit=60.0) is SolveResult.SAT
    assert lib.polls == 2


def test_object_without_the_surface_is_rejected():
    with pytest.raises(RuntimeError, match="IPASIR surface"):
        IpasirBackend(library=object())


def test_signature_helper_tolerates_broken_exports():
    class NoSignature:
        pass

    class RaisingSignature:
        def ipasir_signature(self):
            raise OSError("boom")

    assert ipasir_signature(NoSignature()) is None
    assert ipasir_signature(RaisingSignature()) is None


# --------------------------------------------------------------------------- #
# Live system library (CaDiCaL etc.), when one is installed
# --------------------------------------------------------------------------- #
def _live_cadical_backend():
    """An IpasirBackend over a real system CaDiCaL, or None."""
    import os

    if os.environ.get(IPASIR_LIB_ENV):
        # Respect the override (it may be the toy library in this very test
        # run); the live test wants the system solver specifically.
        return None
    lib = load_ipasir_library()
    if lib is None:
        return None
    signature = ipasir_signature(lib) or ""
    if "cadical" not in signature.lower():
        return None
    return IpasirBackend(library=lib)


def test_live_library_reuses_learned_clauses_across_probes():
    """The reason the backend exists: a second probe of the same horizon,
    with the same assumptions, must cost fewer conflicts than the first —
    learned clauses survive natively across ipasir_solve calls."""
    backend = _live_cadical_backend()
    if backend is None:
        pytest.skip("no system CaDiCaL library available")
    from test_sat_solver import php_cnf

    cnf = php_cnf(7, 6)
    guard = cnf.new_var()
    backend.add_cnf(cnf)
    before = backend.statistics().get("conflicts")
    if before is None:
        pytest.skip("library does not export a conflict counter")
    assert backend.solve(assumptions=[guard]) is SolveResult.UNSAT
    first = backend.statistics()["conflicts"] - before
    assert backend.solve(assumptions=[guard]) is SolveResult.UNSAT
    second = backend.statistics()["conflicts"] - before - first
    assert first > 0
    assert second < first
