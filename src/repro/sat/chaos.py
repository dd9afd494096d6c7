"""The ``chaos`` wrapper backend: seeded fault injection at the SAT seam.

The backend-layer sibling of the bench fleet's ``selftest`` spec kind: it
wraps any registered inner backend and injects faults per a seeded,
reproducible :class:`FaultPlan` —

* **transient exceptions** (:class:`~repro.sat.errors.TransientBackendError`)
  before the inner solve, exercising the SMT facade's retry/backoff path;
* **UNKNOWN answers**, exercising the strategies' inconclusive-probe
  handling (an UNKNOWN must never be treated as a refuted horizon);
* **delays**, exercising deadline slicing;
* **crash-after-N-solves** (:class:`~repro.sat.errors.PermanentBackendError`),
  exercising the ``termination="backend-error"`` degradation.  The count
  is per backend *instance*; a search decides all its probes on one
  incremental solver, so it counts the solves of the whole search (a
  capacity rebuild of the search's instance starts a fresh count).

Because faults fire *before* the inner backend is touched, the inner clause
database stays intact across injected transients — exactly the contract a
transient failure promises — so a retried solve returns the true answer and
a transient-only chaos run certifies the same optima as the fault-free
inner backend.

Registry names are parameterised: ``chaos`` wraps the default backend,
``chaos:flat`` / ``chaos:ipasir`` / ... wrap a named one.  The fault plan
is taken from ``$REPRO_CHAOS_SPEC`` (see :meth:`FaultPlan.from_spec`) when
set, else :meth:`FaultPlan.default`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.sat.cnf import CNF
from repro.sat.errors import PermanentBackendError, TransientBackendError
from repro.sat.solver import SolveResult

#: Environment variable holding a :meth:`FaultPlan.from_spec` string that
#: overrides the default plan of registry-created chaos backends.
CHAOS_SPEC_ENV = "REPRO_CHAOS_SPEC"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    Rates are per-``solve`` probabilities drawn from one ``random.Random``
    seeded with *seed*, so a fixed plan injects the same fault sequence on
    every run.  ``max_consecutive_transients`` caps back-to-back transient
    faults; keeping it at or below the solver's fixed retry budget (two)
    guarantees a transient-only plan always lets a retried solve through.
    """

    seed: int = 0
    #: Probability that a solve raises a transient fault before running.
    transient_rate: float = 0.0
    #: Hard cap on back-to-back transient faults (so bounded retries win).
    max_consecutive_transients: int = 2
    #: Probability that a solve returns UNKNOWN instead of running.
    unknown_rate: float = 0.0
    #: Sleep injected before every solve (exercises deadline slicing).
    delay_seconds: float = 0.0
    #: After this many solves every further solve fails permanently.
    #: Counted per backend instance (see the module docstring).
    crash_after_solves: Optional[int] = None

    @classmethod
    def default(cls) -> "FaultPlan":
        """The registry default: transient-only faults, retry-winnable."""
        return cls(seed=0, transient_rate=0.3, max_consecutive_transients=2)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,...`` spec string (e.g. from the environment).

        Keys: ``seed``, ``transient``, ``consecutive``, ``unknown``,
        ``delay``, ``crash-after``.  Example:
        ``"seed=7,transient=1.0,consecutive=1"``.
        """
        fields = {
            "seed": 0,
            "transient": 0.0,
            "consecutive": 2,
            "unknown": 0.0,
            "delay": 0.0,
            "crash-after": None,
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                known = ", ".join(sorted(fields))
                raise ValueError(
                    f"bad chaos spec entry {part!r} (known keys: {known})"
                )
            fields[key] = value.strip()
        return cls(
            seed=int(fields["seed"]),
            transient_rate=float(fields["transient"]),
            max_consecutive_transients=int(fields["consecutive"]),
            unknown_rate=float(fields["unknown"]),
            delay_seconds=float(fields["delay"]),
            crash_after_solves=(
                None
                if fields["crash-after"] is None
                else int(fields["crash-after"])
            ),
        )

    @classmethod
    def from_environment(cls) -> "FaultPlan":
        """The plan named by ``$REPRO_CHAOS_SPEC``, else :meth:`default`."""
        spec = os.environ.get(CHAOS_SPEC_ENV)
        if spec:
            return cls.from_spec(spec)
        return cls.default()


class ChaosBackend:
    """A fault-injecting proxy around any registered inner backend.

    Every :class:`~repro.sat.backend.SatBackend` protocol method delegates
    to the inner backend; only :meth:`solve` consults the fault plan first.
    Capability flags mirror the inner backend, and :meth:`statistics` adds
    the chaos counters (``chaos_solves``, ``chaos_transient_faults``,
    ``chaos_unknown_faults``) on top of the inner ones.
    """

    backend_name = "chaos"

    def __init__(
        self,
        inner: Union[str, None, object] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        if inner is None or isinstance(inner, str):
            from repro.sat.backend import create_backend

            inner = create_backend(inner)
        self._inner = inner
        self._plan = plan if plan is not None else FaultPlan.from_environment()
        self._rng = random.Random(self._plan.seed)
        self._solves = 0
        self._consecutive_transients = 0
        self._transient_faults = 0
        self._unknown_faults = 0

    # ------------------------------------------------------------------ #
    @property
    def inner(self) -> object:
        """The wrapped backend instance."""
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        """The active fault plan."""
        return self._plan

    @property
    def num_vars(self) -> int:
        return self._inner.num_vars

    @property
    def num_clauses(self) -> int:
        return self._inner.num_clauses

    def new_var(self) -> int:
        return self._inner.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self._inner.add_clause(literals)

    def add_cnf(self, cnf: CNF) -> bool:
        return self._inner.add_cnf(cnf)

    def model(self) -> dict[int, bool]:
        return self._inner.model()

    def statistics(self) -> dict[str, float]:
        return {
            **self._inner.statistics(),
            "chaos_solves": self._solves,
            "chaos_transient_faults": self._transient_faults,
            "chaos_unknown_faults": self._unknown_faults,
        }

    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Consult the fault plan, then delegate to the inner backend."""
        plan = self._plan
        self._solves += 1
        if (
            plan.crash_after_solves is not None
            and self._solves > plan.crash_after_solves
        ):
            raise PermanentBackendError(
                f"chaos: injected permanent failure after "
                f"{plan.crash_after_solves} solves"
            )
        if plan.delay_seconds > 0:
            delay = plan.delay_seconds
            if time_limit is not None:
                delay = min(delay, time_limit)
            time.sleep(delay)
        if (
            plan.transient_rate > 0
            and self._consecutive_transients < plan.max_consecutive_transients
            and self._rng.random() < plan.transient_rate
        ):
            self._consecutive_transients += 1
            self._transient_faults += 1
            raise TransientBackendError(
                f"chaos: injected transient fault (solve #{self._solves})"
            )
        self._consecutive_transients = 0
        if plan.unknown_rate > 0 and self._rng.random() < plan.unknown_rate:
            self._unknown_faults += 1
            return SolveResult.UNKNOWN
        return self._inner.solve(
            assumptions=assumptions,
            max_conflicts=max_conflicts,
            time_limit=time_limit,
        )
