"""Pluggable SAT backend subsystem: interface, registry, and adapters.

The SMT layer never cared *which* CDCL implementation decided its formulas —
it only needs the IPASIR-style incremental surface the two in-process cores
already share.  This module promotes that implicit contract into a
first-class interface:

* :class:`SatBackend` — the structural protocol every backend satisfies:
  ``new_var`` / ``add_clause`` / ``solve(assumptions=...)`` / ``model`` /
  ``statistics``, plus the capability flag ``supports_assumptions`` that
  lets callers fail fast instead of silently deciding the wrong formula.
* a name-keyed registry of the built-in backends below:
  :func:`create_backend`, :func:`backend_info` (whose ``is_available()``
  says whether runtime requirements such as an external solver binary are
  met right now) and :func:`available_backends` (every registered name).
* :class:`DimacsSubprocessBackend` — one genuinely external backend proving
  the seam: the accumulated clause database is serialised to DIMACS and
  piped to a configurable solver binary (minisat/kissat-style exit codes,
  ``v``-line or result-file model parsing).  Assumptions are emulated by
  re-solving with the assumptions appended as unit clauses.  When no binary
  is on ``PATH`` the backend stays registered but reports itself
  unavailable, so schedulers fail fast and tests skip instead of erroring.

Built-in backends:

=====================  =====================================================
``flat`` (default)     :class:`repro.sat.solver.CDCLSolver`, the flat-array
                       hot-path rewrite
``reference``          :class:`repro.sat.reference.ReferenceCDCLSolver`, the
                       preserved seed core (differential oracle / baseline)
``ipasir``             :class:`repro.sat.ipasir.IpasirBackend`, a ctypes
                       binding of a native IPASIR library (set
                       ``REPRO_IPASIR_LIB`` or have ``libcadical.so`` /
                       ``libkissat.so`` loadable); natively incremental —
                       learned clauses survive across assumption probes
``dimacs-subprocess``  external solver binary via DIMACS pipe (set
                       ``REPRO_SAT_BINARY`` or have one of the well-known
                       binaries on ``PATH``)
``chaos``              :class:`repro.sat.chaos.ChaosBackend`, a
                       fault-injecting proxy for robustness testing;
                       parameterised lookups (``chaos:flat``,
                       ``chaos:ipasir``, ...) pick the wrapped backend
=====================  =====================================================
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.sat.cnf import CNF
from repro.sat.errors import (
    BackendError,
    PermanentBackendError,
    TransientBackendError,
)
from repro.sat.ipasir import (
    IPASIR_LIB_ENV,
    IpasirBackend,
    KNOWN_IPASIR_LIBRARIES,
    find_ipasir_library,
)
from repro.sat.reference import ReferenceCDCLSolver
from repro.sat.solver import CDCLSolver, SolveResult

#: Registry key of the backend used when none is requested.
DEFAULT_BACKEND = "flat"

#: Environment variable naming (or pointing at) the external solver binary
#: used by the ``dimacs-subprocess`` backend.
SOLVER_BINARY_ENV = "REPRO_SAT_BINARY"

#: Binaries probed on ``PATH`` (in order) when :data:`SOLVER_BINARY_ENV` is
#: unset.  All of them speak DIMACS and the 10/20 exit-code convention.
KNOWN_SOLVER_BINARIES = (
    "kissat",
    "cadical",
    "cryptominisat5",
    "picosat",
    "minisat",
    "glucose",
)

#: Binaries that write ``SAT\n<model> 0`` to a result *file* (second
#: positional argument) instead of printing competition-style ``v`` lines.
_RESULT_FILE_BINARIES = ("minisat", "glucose")


@runtime_checkable
class SatBackend(Protocol):
    """The incremental surface every registered SAT backend provides.

    The protocol is structural: the in-process cores satisfy it without
    inheriting from anything.  ``solve`` must accept DIMACS ``assumptions``
    (natively or emulated), ``model`` returns ``{var: bool}`` after a SAT
    answer, and ``statistics`` returns whatever monotone counters the
    backend keeps (possibly none) — consumers diff the dictionaries and must
    not assume any particular key exists.
    """

    #: Registry name of the backend class (informational).
    backend_name: str
    #: Whether ``solve(assumptions=...)`` is honoured (natively or emulated).
    supports_assumptions: bool

    @property
    def num_vars(self) -> int: ...  # pragma: no cover - protocol

    @property
    def num_clauses(self) -> int: ...  # pragma: no cover - protocol

    def new_var(self) -> int: ...  # pragma: no cover - protocol

    def add_clause(self, literals: Iterable[int]) -> bool: ...  # pragma: no cover

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult: ...  # pragma: no cover - protocol

    def model(self) -> dict[int, bool]: ...  # pragma: no cover - protocol

    def statistics(self) -> dict[str, float]: ...  # pragma: no cover - protocol


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendInfo:
    """Registry entry describing one backend."""

    name: str
    factory: Callable[[], SatBackend]
    description: str = ""
    #: Runtime availability probe (e.g. "is a solver binary on PATH?").
    #: Purely informational for in-process backends, which are always usable.
    is_available: Callable[[], bool] = field(default=lambda: True)
    #: Whether ``name:argument`` lookups derive a parameterised entry whose
    #: factory receives the argument as ``inner=`` (e.g. ``chaos:flat``
    #: wraps the flat core).  The argument must itself be a registered
    #: backend name.
    accepts_argument: bool = False


_REGISTRY: dict[str, BackendInfo] = {}


def _register(info: BackendInfo) -> None:
    """Add a built-in backend to the registry (keyed by ``info.name``)."""
    _REGISTRY[info.name] = info


def available_backends() -> list[str]:
    """Names of all registered backends (sorted; includes unavailable ones)."""
    return sorted(_REGISTRY)


def backend_info(name: Optional[str] = None) -> BackendInfo:
    """Registry entry for *name* (default backend when ``None``).

    ``name`` may be a parameterised lookup ``base:argument`` when the base
    backend is registered with ``accepts_argument=True`` (e.g.
    ``chaos:flat``): the derived entry binds the argument as the factory's
    ``inner=`` backend and inherits the inner backend's availability.
    """
    key = name or DEFAULT_BACKEND
    if key in _REGISTRY:
        return _REGISTRY[key]
    base, sep, argument = key.partition(":")
    if sep and argument and base in _REGISTRY and _REGISTRY[base].accepts_argument:
        base_info = _REGISTRY[base]
        inner_info = backend_info(argument)  # raises for unknown inner names
        return replace(
            base_info,
            name=key,
            factory=partial(base_info.factory, inner=inner_info.name),
            description=f"{base_info.description} wrapping {inner_info.name!r}",
            is_available=inner_info.is_available,
        )
    known = ", ".join(available_backends())
    raise ValueError(f"unknown SAT backend {key!r} (available: {known})") from None


def create_backend(name: Optional[str] = None) -> SatBackend:
    """Instantiate the backend registered under *name* (default: ``flat``).

    Raises ``ValueError`` for unknown names and
    :class:`~repro.sat.errors.PermanentBackendError` (a ``RuntimeError``
    subclass) when the backend is registered but its runtime requirements
    are not met (e.g. no external solver binary on ``PATH``) — callers that
    want to degrade instead of failing should consult
    ``backend_info(name).is_available()`` first.
    """
    info = backend_info(name)
    if not info.is_available():
        raise PermanentBackendError(
            f"SAT backend {info.name!r} is registered but unavailable: "
            f"{info.description or 'runtime requirements not met'}"
        )
    return info.factory()


# --------------------------------------------------------------------------- #
# The external DIMACS-subprocess backend
# --------------------------------------------------------------------------- #
def find_solver_binary() -> Optional[str]:
    """Locate the external solver binary, or ``None`` when there is none.

    :data:`SOLVER_BINARY_ENV` wins when set (a bare name is resolved on
    ``PATH``, a path is used as-is when executable); otherwise the
    well-known binaries of :data:`KNOWN_SOLVER_BINARIES` are probed in
    order.
    """
    override = os.environ.get(SOLVER_BINARY_ENV)
    if override:
        resolved = shutil.which(override)
        if resolved is not None:
            return resolved
        if os.path.isfile(override) and os.access(override, os.X_OK):
            return override
        return None
    for name in KNOWN_SOLVER_BINARIES:
        resolved = shutil.which(name)
        if resolved is not None:
            return resolved
    return None


class DimacsSubprocessBackend:
    """SAT backend piping DIMACS to an external solver binary.

    Clauses accumulate in a :class:`~repro.sat.cnf.CNF`; every
    :meth:`solve` serialises the whole formula (plus the call's assumptions
    as unit clauses — the classic emulation of assumption solving for
    non-incremental solvers) and runs the binary.  SAT/UNSAT is read from
    the 10/20 exit-code convention with the ``s``-line as fallback; models
    come from competition-style ``v`` lines or, for minisat-style binaries,
    from the result file passed as the second argument.

    ``max_conflicts`` cannot be forwarded to a subprocess and is ignored —
    that only means a budgeted probe may run longer, never that an answer
    changes.  ``time_limit`` maps to a subprocess timeout; expiry kills the
    solver and reports :data:`SolveResult.UNKNOWN`.
    """

    backend_name = "dimacs-subprocess"
    supports_assumptions = True  # emulated via unit-clause re-solve

    def __init__(self, binary: Optional[str] = None) -> None:
        resolved = binary if binary is not None else find_solver_binary()
        if resolved is None:
            raise RuntimeError(
                "no external SAT solver binary found: set "
                f"${SOLVER_BINARY_ENV} or put one of "
                f"{', '.join(KNOWN_SOLVER_BINARIES)} on PATH"
            )
        self._binary = resolved
        # Prefix match on the basename: "minisat_static"/"glucose-simp" are
        # result-file solvers, but "cryptominisat5" (which merely contains
        # "minisat") speaks the competition convention.
        base = os.path.basename(resolved).lower()
        self._result_file_style = base.startswith(_RESULT_FILE_BINARIES)
        self._cnf = CNF()
        self._ok = True
        self._model: dict[int, bool] = {}
        self._solves = 0
        self._solve_seconds = 0.0
        self._dump_cache_hits = 0

    # ------------------------------------------------------------------ #
    @property
    def binary(self) -> str:
        """Path of the external solver binary."""
        return self._binary

    @property
    def num_vars(self) -> int:
        """Number of variables known to the backend."""
        return self._cnf.num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses accumulated so far."""
        return self._cnf.num_clauses

    def new_var(self) -> int:
        """Reserve and return a fresh variable index."""
        return self._cnf.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Append a clause.  Returns ``False`` once the formula is trivially
        unsatisfiable (an empty clause was added)."""
        clause = list(literals)
        if not clause:
            self._ok = False
            self._cnf.add_clause([])
            return False
        self._cnf.add_clause(clause)
        return self._ok

    def add_cnf(self, cnf: CNF) -> bool:
        """Add every clause of *cnf* (parity with the in-process cores)."""
        while self._cnf.num_vars < cnf.num_vars:
            self._cnf.new_var()
        ok = True
        for clause in cnf:
            ok = self.add_clause(clause) and ok
        return ok

    def statistics(self) -> dict[str, float]:
        """Coarse counters: subprocess invocations and solve wall-clock.

        The propagation/conflict counters of the in-process cores are not
        observable through a DIMACS pipe, so they are simply absent —
        consumers must treat every key as optional.
        """
        return {
            "subprocess_solves": self._solves,
            "solve_seconds": self._solve_seconds,
            "dimacs_dump_cache_hits": self._dump_cache_hits,
        }

    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Decide the accumulated formula, optionally under *assumptions*."""
        del max_conflicts  # not forwardable to a subprocess; see docstring
        if not self._ok:
            return SolveResult.UNSAT
        start = time.monotonic()
        try:
            return self._solve_subprocess(assumptions, time_limit)
        finally:
            self._solves += 1
            self._solve_seconds += time.monotonic() - start

    def _solve_subprocess(
        self, assumptions: Sequence[int], time_limit: Optional[float]
    ) -> SolveResult:
        num_vars = self._cnf.num_vars
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            num_vars = max(num_vars, abs(lit))
        with tempfile.TemporaryDirectory(prefix="repro-sat-") as tmp:
            cnf_path = os.path.join(tmp, "instance.cnf")
            with open(cnf_path, "w", encoding="utf-8") as handle:
                # Consecutive probes of an unchanged clause DB (the normal
                # shape of assumption emulation: only the appended unit
                # clauses differ between horizons) reuse the memoised clause
                # body instead of re-serialising the whole formula.
                if self._cnf.dimacs_body_cached:
                    self._dump_cache_hits += 1
                body = self._cnf.dimacs_body()
                handle.write(
                    f"p cnf {num_vars} {self._cnf.num_clauses + len(assumptions)}\n"
                )
                handle.write(body)
                for lit in assumptions:
                    handle.write(f"{lit} 0\n")
            command = [self._binary, cnf_path]
            out_path = None
            if self._result_file_style:
                out_path = os.path.join(tmp, "result.out")
                command.append(out_path)
            try:
                proc = subprocess.run(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    timeout=time_limit,
                    text=True,
                )
            except subprocess.TimeoutExpired:
                return SolveResult.UNKNOWN
            output = proc.stdout
            if out_path is not None and os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as handle:
                    output = handle.read()
            return self._interpret(proc.returncode, output, proc.stderr, num_vars)

    def _interpret(
        self, returncode: int, output: str, stderr: str, num_vars: int
    ) -> SolveResult:
        sat = returncode == 10
        unsat = returncode == 20
        if not sat and not unsat:
            # Fall back on the status line for binaries with other exit codes.
            for line in output.splitlines():
                stripped = line.strip()
                if stripped in ("s SATISFIABLE", "SAT", "SATISFIABLE"):
                    sat = True
                    break
                if stripped in ("s UNSATISFIABLE", "UNSAT", "UNSATISFIABLE"):
                    unsat = True
                    break
        if unsat:
            return SolveResult.UNSAT
        if not sat:
            # A crashed/killed binary is retryable: the clause database is
            # intact on our side, so a fresh subprocess may well succeed.
            raise TransientBackendError(
                f"external SAT solver {self._binary!r} returned neither "
                f"SAT nor UNSAT (exit code {returncode}): "
                f"{stderr.strip()[:200] or output.strip()[:200]}"
            )
        self._model = self._parse_model(output, num_vars)
        return SolveResult.SAT

    def _parse_model(self, output: str, num_vars: int) -> dict[int, bool]:
        model = {var: False for var in range(1, num_vars + 1)}
        parsed = 0
        for line in output.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "v":
                tokens = tokens[1:]
            elif not self._result_file_style:
                # Competition output: models live on "v" lines only; any
                # other line (comments, statistics) is not a model line.
                continue
            for token in tokens:
                try:
                    lit = int(token)
                except ValueError:
                    break
                if lit == 0:
                    continue
                model[abs(lit)] = lit > 0
                parsed += 1
        if num_vars and not parsed:
            # An all-default model would decode into garbage far from the
            # cause; a SAT answer without model literals is a solver whose
            # output convention we misread — a retry would misread it the
            # same way, so fail permanently at the source.
            raise PermanentBackendError(
                f"external SAT solver {self._binary!r} reported SAT but "
                "printed no parseable model literals (unsupported output "
                "convention?)"
            )
        return model

    def model(self) -> dict[int, bool]:
        """Return the satisfying assignment found by the last SAT call."""
        if not self._model:
            raise RuntimeError("no model available; call solve() first")
        return dict(self._model)


# --------------------------------------------------------------------------- #
# Built-in registrations
# --------------------------------------------------------------------------- #
_register(
    BackendInfo(
        name="flat",
        factory=CDCLSolver,
        description="in-process flat-array CDCL core (the default hot path)",
    )
)
_register(
    BackendInfo(
        name="reference",
        factory=ReferenceCDCLSolver,
        description="preserved seed CDCL core (benchmark baseline / oracle)",
    )
)
_register(
    BackendInfo(
        name="ipasir",
        factory=IpasirBackend,
        description=(
            "ctypes IPASIR binding (natively incremental); needs "
            f"${IPASIR_LIB_ENV} or a loadable soname such as "
            f"{KNOWN_IPASIR_LIBRARIES[0]} / libkissat.so"
        ),
        is_available=lambda: find_ipasir_library() is not None,
    )
)
_register(
    BackendInfo(
        name="dimacs-subprocess",
        factory=DimacsSubprocessBackend,
        description=(
            "external solver binary via DIMACS pipe; needs "
            f"${SOLVER_BINARY_ENV} or one of "
            f"{', '.join(KNOWN_SOLVER_BINARIES)} on PATH"
        ),
        is_available=lambda: find_solver_binary() is not None,
    )
)

# Imported here (not at the top) because the chaos module needs the registry
# above to build its inner backend; only the registration below needs the
# class, after everything it imports from this module exists.
from repro.sat.chaos import CHAOS_SPEC_ENV, ChaosBackend  # noqa: E402

_register(
    BackendInfo(
        name="chaos",
        factory=ChaosBackend,
        description=(
            "fault-injecting proxy (seeded transient/UNKNOWN/delay/crash "
            f"faults, tunable via ${CHAOS_SPEC_ENV}); wrap a specific "
            "backend with a parameterised name such as 'chaos:flat'"
        ),
        accepts_argument=True,
    )
)

__all__ = [
    "BackendError",
    "BackendInfo",
    "ChaosBackend",
    "DEFAULT_BACKEND",
    "DimacsSubprocessBackend",
    "PermanentBackendError",
    "SatBackend",
    "TransientBackendError",
    "available_backends",
    "backend_info",
    "create_backend",
    "find_solver_binary",
]
