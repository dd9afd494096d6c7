"""Tests for the ctypes IPASIR backend.

Two harnesses cover the binding:

* ``toy_ipasir.c`` — a tiny C IPASIR implementation compiled on the fly
  (skipped when no C compiler is present), driving the *real* ctypes
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
import shutil
import subprocess
from pathlib import Path

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


@pytest.fixture(scope="session")
def toy_library(tmp_path_factory):
    """Compile tests/sat/toy_ipasir.c into a shared library, or skip."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler available to build the toy IPASIR library")
    source = Path(__file__).with_name("toy_ipasir.c")
    out = tmp_path_factory.mktemp("ipasir") / "libtoyipasir.so"
    build = subprocess.run(
        [compiler, "-shared", "-fPIC", "-O1", str(source), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        pytest.skip(f"toy IPASIR library failed to build: {build.stderr[:200]}")
    return out


@pytest.fixture
def toy_env(monkeypatch, toy_library):
    """Point $REPRO_IPASIR_LIB at the freshly built toy library."""
    monkeypatch.setenv(IPASIR_LIB_ENV, str(toy_library))
    return toy_library


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
    assert backend.supports_assumptions


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
