"""Pluggable SAT backend subsystem: interface and registry.

The SMT layer never cared *which* CDCL implementation decided its formulas —
it only needs the IPASIR-style incremental surface the two in-process cores
already share.  This module promotes that implicit contract into a
first-class interface:

* :class:`SatBackend` — the structural protocol every backend satisfies:
  ``new_var`` / ``add_clause`` / ``solve(assumptions=...)`` / ``model`` /
  ``statistics``.  Every backend takes assumptions natively.
* a name-keyed registry of the built-in backends below:
  :func:`create_backend`, :func:`backend_info` (whose ``is_available()``
  says whether runtime requirements such as a loadable IPASIR library are
  met right now) and :func:`available_backends` (every registered name).

External solvers plug in through one seam, the ``ipasir`` backend: a native
library behind the standard incremental C API keeps its learned clauses
across assumption probes, as the in-process cores do.

Built-in backends:

==================  =====================================================
``flat`` (default)  :class:`repro.sat.solver.CDCLSolver`, the flat-array
                    hot-path rewrite
``reference``       :class:`repro.sat.reference.ReferenceCDCLSolver`, the
                    preserved seed core (differential oracle / baseline)
``ipasir``          :class:`repro.sat.ipasir.IpasirBackend`, a ctypes
                    binding of a native IPASIR library (set
                    ``REPRO_IPASIR_LIB`` or have ``libcadical.so`` /
                    ``libkissat.so`` loadable); natively incremental —
                    learned clauses survive across assumption probes
``chaos``           :class:`repro.sat.chaos.ChaosBackend`, a
                    fault-injecting proxy for robustness testing;
                    parameterised lookups (``chaos:flat``,
                    ``chaos:ipasir``, ...) pick the wrapped backend
==================  =====================================================
"""

from __future__ import annotations

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


@runtime_checkable
class SatBackend(Protocol):
    """The incremental surface every registered SAT backend provides.

    The protocol is structural: the in-process cores satisfy it without
    inheriting from anything.  ``solve`` must honour DIMACS ``assumptions``
    for that one call, ``model`` returns ``{var: bool}`` after a SAT
    answer, and ``statistics`` returns whatever monotone counters the
    backend keeps (possibly none) — consumers diff the dictionaries and must
    not assume any particular key exists.
    """

    #: Registry name of the backend class (informational).
    backend_name: str

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
    #: Runtime availability probe (e.g. "does an IPASIR library load?").
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
    are not met (e.g. no loadable IPASIR library) — callers that
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
    "PermanentBackendError",
    "SatBackend",
    "TransientBackendError",
    "available_backends",
    "backend_info",
    "create_backend",
]
