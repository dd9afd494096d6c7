"""ctypes binding of the IPASIR incremental SAT C API.

`IPASIR <https://github.com/biotomas/ipasir>`_ is the standard incremental
interface of the SAT competition (``ipasir_init`` / ``ipasir_add`` /
``ipasir_assume`` / ``ipasir_solve`` / ``ipasir_val``), exported by
``libcadical.so``, ``libkissat.so`` and friends.  It is this package's one
seam for external solvers: a *native* solver that keeps its learned clauses
across horizon probes, because assumptions are passed through
``ipasir_assume`` rather than baked into the formula.

The library is located via ``$REPRO_IPASIR_LIB`` (a path or a bare soname)
or by probing well-known sonames; the registered ``ipasir`` backend stays
*registered but unusable* when nothing loads, so schedulers fail fast and
tests skip instead of erroring.

Two optional extensions are used when the loaded library exports them:

* ``ipasir_set_terminate`` — maps ``time_limit`` onto a termination
  callback (expiry reports :data:`~repro.sat.solver.SolveResult.UNKNOWN`);
* CaDiCaL's ``ccadical_*`` C API — ``ipasir_init`` in ``libcadical``
  returns a ``CCaDiCaL`` handle, interchangeable with the ``ccadical_*``
  functions, so ``ccadical_limit`` forwards ``max_conflicts`` and a
  conflict counter becomes observable in :meth:`IpasirBackend.statistics`
  (that is what makes learned-clause reuse *measurable*: a re-probe of the
  same horizon reports fewer conflicts than a fresh solve).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import time
from typing import Iterable, Optional, Sequence

from repro.sat.cnf import CNF
from repro.sat.solver import SolveResult

#: Environment variable naming (or pointing at) the IPASIR shared library.
IPASIR_LIB_ENV = "REPRO_IPASIR_LIB"

#: Sonames probed (in order) when :data:`IPASIR_LIB_ENV` is unset.
KNOWN_IPASIR_LIBRARIES = (
    "libcadical.so",
    "libcadical.so.1",
    "libcadical.so.2",
    "libkissat.so",
    "libkissat.so.1",
    "libpicosat.so",
    "libpicosat.so.1",
)

#: Bare library names for :func:`ctypes.util.find_library` fallback probing.
_FIND_LIBRARY_NAMES = ("cadical", "kissat", "picosat")

#: The C functions every IPASIR implementation must export.
_REQUIRED_FUNCTIONS = (
    "ipasir_init",
    "ipasir_release",
    "ipasir_add",
    "ipasir_assume",
    "ipasir_solve",
    "ipasir_val",
)

_TERMINATE_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)


def _has_ipasir_surface(lib: object) -> bool:
    """True when *lib* exposes the required IPASIR entry points."""
    try:
        return all(getattr(lib, name, None) is not None for name in _REQUIRED_FUNCTIONS)
    except Exception:  # pragma: no cover - exotic ctypes loaders
        return False


def _try_load(candidate: str) -> Optional[ctypes.CDLL]:
    try:
        lib = ctypes.CDLL(candidate)
    except OSError:
        return None
    return lib if _has_ipasir_surface(lib) else None


def load_ipasir_library() -> Optional[ctypes.CDLL]:
    """Load and return the IPASIR shared library, or ``None``.

    ``$REPRO_IPASIR_LIB`` wins when set (path or soname; a value that does
    not load or lacks the IPASIR surface yields ``None`` rather than falling
    through to probing — an explicit override should never silently bind a
    different solver).  Otherwise the well-known sonames are probed, then
    :func:`ctypes.util.find_library`.
    """
    override = os.environ.get(IPASIR_LIB_ENV)
    if override:
        return _try_load(override)
    for soname in KNOWN_IPASIR_LIBRARIES:
        lib = _try_load(soname)
        if lib is not None:
            return lib
    for name in _FIND_LIBRARY_NAMES:
        located = ctypes.util.find_library(name)
        if located:
            lib = _try_load(located)
            if lib is not None:
                return lib
    return None


def find_ipasir_library() -> Optional[str]:
    """Name of the loadable IPASIR library, or ``None`` (availability probe).

    Performs a real load attempt (the only reliable probe for a shared
    library) and reports the resolved signature when possible.  The result
    is cached per ``$REPRO_IPASIR_LIB`` value, so registry availability
    checks stay cheap.
    """
    override = os.environ.get(IPASIR_LIB_ENV, "")
    cached = _PROBE_CACHE.get(override, _PROBE_MISSING)
    if cached is not _PROBE_MISSING:
        return cached
    lib = load_ipasir_library()
    result: Optional[str] = None
    if lib is not None:
        result = ipasir_signature(lib) or getattr(lib, "_name", None) or "ipasir"
    _PROBE_CACHE[override] = result
    return result


_PROBE_MISSING = object()
_PROBE_CACHE: dict[str, Optional[str]] = {}


def ipasir_signature(lib: object) -> Optional[str]:
    """The library's ``ipasir_signature()`` string, or ``None``."""
    func = getattr(lib, "ipasir_signature", None)
    if func is None:
        return None
    try:
        func.restype = ctypes.c_char_p
    except (AttributeError, TypeError):
        pass  # test doubles: plain Python callables reject prototype sets
    try:
        raw = func()
    except Exception:
        return None
    if isinstance(raw, bytes):
        return raw.decode("utf-8", "replace")
    return str(raw) if raw else None


class IpasirBackend:
    """SAT backend driving an IPASIR shared library through ctypes.

    The incremental contract maps directly: clauses accumulate in the
    native solver via ``ipasir_add``, every :meth:`solve` passes the call's
    assumptions through ``ipasir_assume`` (so learned clauses survive
    between probes), and models are read back literal-by-literal with
    ``ipasir_val``.

    ``max_conflicts`` is forwarded through CaDiCaL's ``ccadical_limit``
    when the library exports it and ignored otherwise (a budgeted probe may
    run longer; answers never change).  ``time_limit`` uses
    ``ipasir_set_terminate`` when available.

    A mirror :class:`~repro.sat.cnf.CNF` of the added clauses is kept so
    the backend can participate in DIMACS export/differential tests; the
    solver state itself lives in the native library.
    """

    backend_name = "ipasir"

    def __init__(self, library: object = None) -> None:
        if library is None:
            library = load_ipasir_library()
            if library is None:
                raise RuntimeError(
                    "no IPASIR shared library found: set "
                    f"${IPASIR_LIB_ENV} or install one of "
                    f"{', '.join(KNOWN_IPASIR_LIBRARIES)}"
                )
        elif isinstance(library, (str, os.PathLike)):
            path = os.fspath(library)
            lib = _try_load(path)
            if lib is None:
                raise RuntimeError(
                    f"{path!r} did not load as an IPASIR shared library"
                )
            library = lib
        if not _has_ipasir_surface(library):
            raise RuntimeError(
                "library object lacks the IPASIR surface "
                f"({', '.join(_REQUIRED_FUNCTIONS)})"
            )
        self._lib = library
        self._configure_prototypes()
        self.signature = ipasir_signature(library)
        self._handle = self._lib.ipasir_init()
        if not self._handle:
            raise RuntimeError("ipasir_init() returned NULL")
        self._cnf = CNF()
        self._ok = True
        self._model: dict[int, bool] = {}
        self._solves = 0
        self._solve_seconds = 0.0
        # Keep the ctypes callback object alive for the duration of a solve
        # call: handing a garbage-collected callback to C is a segfault.
        self._terminate_ref: object = None

    def _configure_prototypes(self) -> None:
        """Declare C prototypes (int32 literals, void* handles).

        Every assignment is individually guarded: test doubles implement
        the surface with plain Python callables, which reject prototype
        attribute writes — they simply receive/return Python ints instead.
        """
        lib = self._lib
        c_void_p, c_int = ctypes.c_void_p, ctypes.c_int
        prototypes = {
            "ipasir_init": ([], c_void_p),
            "ipasir_release": ([c_void_p], None),
            "ipasir_add": ([c_void_p, ctypes.c_int32], None),
            "ipasir_assume": ([c_void_p, ctypes.c_int32], None),
            "ipasir_solve": ([c_void_p], c_int),
            "ipasir_val": ([c_void_p, ctypes.c_int32], ctypes.c_int32),
            "ipasir_failed": ([c_void_p, ctypes.c_int32], c_int),
            "ipasir_set_terminate": ([c_void_p, c_void_p, _TERMINATE_CALLBACK], None),
            "ccadical_limit": ([c_void_p, ctypes.c_char_p, c_int], None),
            "ccadical_conflicts": ([c_void_p], ctypes.c_int64),
        }
        for name, (argtypes, restype) in prototypes.items():
            func = getattr(lib, name, None)
            if func is None:
                continue
            try:
                func.argtypes = argtypes
                func.restype = restype
            except (AttributeError, TypeError):
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        handle = getattr(self, "_handle", None)
        lib = getattr(self, "_lib", None)
        if handle and lib is not None:
            try:
                lib.ipasir_release(handle)
            except Exception:
                pass
            self._handle = None

    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Number of variables known to the backend."""
        return self._cnf.num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses added so far."""
        return self._cnf.num_clauses

    def new_var(self) -> int:
        """Reserve and return a fresh variable index."""
        return self._cnf.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Feed a clause to the native solver via ``ipasir_add``.

        Returns ``False`` once the formula is trivially unsatisfiable (an
        empty clause was added) — parity with the in-process cores.
        """
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
        add = self._lib.ipasir_add
        handle = self._handle
        for lit in clause:
            add(handle, lit)
        add(handle, 0)
        self._cnf.add_clause(clause)
        if not clause:
            self._ok = False
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
        """Coarse counters: solve calls and wall-clock, plus ``conflicts``
        when the library exports CaDiCaL's ``ccadical_conflicts`` getter.

        With the conflict counter present, learned-clause reuse becomes
        measurable: re-probing a horizon costs fewer conflicts than the
        fresh solve did.  Consumers must treat every key as optional.
        """
        stats: dict[str, float] = {
            "ipasir_solves": self._solves,
            "solve_seconds": self._solve_seconds,
        }
        getter = getattr(self._lib, "ccadical_conflicts", None)
        if getter is not None:
            try:
                stats["conflicts"] = int(getter(self._handle))
            except Exception:
                pass
        return stats

    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Decide the accumulated formula under *assumptions* (native)."""
        if not self._ok:
            return SolveResult.UNSAT
        start = time.monotonic()
        try:
            return self._solve_native(assumptions, max_conflicts, time_limit)
        finally:
            self._solves += 1
            self._solve_seconds += time.monotonic() - start

    def _solve_native(
        self,
        assumptions: Sequence[int],
        max_conflicts: Optional[int],
        time_limit: Optional[float],
    ) -> SolveResult:
        lib = self._lib
        handle = self._handle
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if abs(lit) > self._cnf.num_vars:
                while self._cnf.num_vars < abs(lit):
                    self._cnf.new_var()
        assume = lib.ipasir_assume
        for lit in assumptions:
            assume(handle, lit)
        limit = getattr(lib, "ccadical_limit", None)
        if max_conflicts is not None and limit is not None:
            try:
                limit(handle, b"conflicts", int(max_conflicts))
            except Exception:
                pass
        self._arm_terminate(time_limit)
        try:
            code = int(lib.ipasir_solve(handle))
        finally:
            self._disarm_terminate()
        if code == 20:
            return SolveResult.UNSAT
        if code == 10:
            self._model = self._read_model()
            return SolveResult.SAT
        if code == 0:
            return SolveResult.UNKNOWN
        raise RuntimeError(
            f"ipasir_solve() returned unexpected code {code} "
            f"(library {self.signature or 'unknown'!r})"
        )

    def _arm_terminate(self, time_limit: Optional[float]) -> None:
        setter = getattr(self._lib, "ipasir_set_terminate", None)
        if setter is None or time_limit is None:
            return
        deadline = time.monotonic() + time_limit

        def expired(_state: object) -> int:
            return 1 if time.monotonic() > deadline else 0

        try:
            callback = _TERMINATE_CALLBACK(expired)
            setter(self._handle, None, callback)
            self._terminate_ref = callback
        except (TypeError, ctypes.ArgumentError):
            # Python test double: hand it the plain callable.
            try:
                setter(self._handle, None, expired)
                self._terminate_ref = expired
            except Exception:
                self._terminate_ref = None

    def _disarm_terminate(self) -> None:
        if self._terminate_ref is None:
            return
        setter = getattr(self._lib, "ipasir_set_terminate", None)
        if setter is not None:
            try:
                setter(self._handle, None, _TERMINATE_CALLBACK())
            except (TypeError, ctypes.ArgumentError, ValueError):
                try:
                    setter(self._handle, None, None)
                except Exception:
                    pass
        self._terminate_ref = None

    def _read_model(self) -> dict[int, bool]:
        val = self._lib.ipasir_val
        handle = self._handle
        model: dict[int, bool] = {}
        for var in range(1, self._cnf.num_vars + 1):
            lit = int(val(handle, var))
            # 0 means "either way": default to False like the flat core's
            # unconstrained variables.
            model[var] = lit > 0
        return model

    def model(self) -> dict[int, bool]:
        """Return the satisfying assignment found by the last SAT call."""
        if not self._model:
            raise RuntimeError("no model available; call solve() first")
        return dict(self._model)
