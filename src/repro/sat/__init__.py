"""A self-contained CDCL SAT solver.

This package is the decision procedure underlying :mod:`repro.smt`.  It
replaces the role Z3 plays in the paper (see DESIGN.md, "Substitutions").

Public API
----------

``Literal`` handling uses the DIMACS convention: variables are positive
integers ``1, 2, 3, ...`` and a negative integer denotes the negation of the
corresponding variable.

* :class:`repro.sat.cnf.CNF` — a clause container with DIMACS import/export.
* :class:`repro.sat.solver.CDCLSolver` — conflict-driven clause-learning
  solver on flat arrays: two-watched-literal propagation with blocker
  literals, heap-based VSIDS branching, phase saving, Luby restarts and
  LBD-aware learned-clause database reduction.
* :class:`repro.sat.reference.ReferenceCDCLSolver` — the seed's object-style
  implementation, kept as benchmark baseline and differential-testing oracle.
* :mod:`repro.sat.backend` — the pluggable backend subsystem: the
  :class:`~repro.sat.backend.SatBackend` protocol and the name-keyed
  registry (``flat`` / ``reference`` / ``ipasir`` / ``chaos``).
* :class:`repro.sat.ipasir.IpasirBackend` — the one external-solver seam:
  a ctypes binding of a native incremental IPASIR library.
* :class:`repro.sat.solver.SolveResult` — SAT / UNSAT / UNKNOWN.
* :class:`repro.sat.solver.SolverStatistics` — per-solver counters
  (propagations, conflicts, restarts, solve seconds, derived throughput).
* :mod:`repro.sat.tseitin` — Tseitin transformation of boolean circuits.
"""

from repro.sat.backend import (
    DEFAULT_BACKEND,
    SatBackend,
    available_backends,
    backend_info,
    create_backend,
)
from repro.sat.chaos import ChaosBackend, FaultPlan
from repro.sat.cnf import CNF
from repro.sat.errors import (
    BackendError,
    PermanentBackendError,
    TransientBackendError,
)
from repro.sat.reference import ReferenceCDCLSolver
from repro.sat.solver import CDCLSolver, SolveResult, SolverStatistics
from repro.sat.tseitin import TseitinEncoder

__all__ = [
    "BackendError",
    "CNF",
    "CDCLSolver",
    "ChaosBackend",
    "DEFAULT_BACKEND",
    "FaultPlan",
    "PermanentBackendError",
    "ReferenceCDCLSolver",
    "SatBackend",
    "TransientBackendError",
    "SolveResult",
    "SolverStatistics",
    "TseitinEncoder",
    "available_backends",
    "backend_info",
    "create_backend",
]
