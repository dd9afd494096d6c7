"""The SMT solver facade.

:class:`Solver` collects constraints (boolean expressions over bounded
integer and boolean variables), bit-blasts them with
:class:`repro.smt.encoder.ExpressionEncoder` and decides them with a SAT
*backend* constructed through the :mod:`repro.sat.backend` registry
(``Solver(backend="flat" | "reference" | "ipasir" | ...)``; the
default is the in-process flat-array CDCL core).  The interface mirrors the
subset of the Z3 Python API used by the paper's scheduling encoding:
``add``, ``check`` (with assumptions), ``model`` and per-call resource
limits.

Every backend takes assumptions natively.  Backends differ in the
counters they keep, and the per-check statistics only report the counters
(and derived throughput rates) the backend actually keeps.

The solver is incremental: one SAT backend and one expression encoder
persist across checks, and each :meth:`Solver.check` encodes only the
constraints and variables added since the previous one.  Learned clauses,
variable activities and saved phases carry over, which is what makes the
minimum-stage search of :class:`repro.core.scheduler.SMTScheduler` cheap.
Constraints are permanent; a query that must be retractable is posed
through ``check(assumptions=...)``.
"""

from __future__ import annotations

import enum
import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.sat.backend import SatBackend, backend_info, create_backend
from repro.sat.cnf import CNF
from repro.sat.errors import TransientBackendError
from repro.sat.solver import SolveResult
from repro.smt import terms as T
from repro.smt.encoder import ExpressionEncoder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import Deadline


#: Solver statistics that are high-water gauges rather than monotone counters.
_GAUGE_STATISTICS = frozenset({"max_decision_level"})

#: Base pause of the deterministic linear retry backoff: the n-th retry of a
#: transient backend failure sleeps ``n * RETRY_BACKOFF_SECONDS`` (capped by
#: the remaining deadline, when one is set).
RETRY_BACKOFF_SECONDS = 0.05

#: How many times a transient backend failure is retried per check before it
#: escalates to the caller.
DEFAULT_BACKEND_RETRIES = 2


class CheckResult(enum.Enum):
    """Result of a :meth:`Solver.check` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def is_sat(self) -> bool:
        """True when a model was found."""
        return self is CheckResult.SAT

    def is_unsat(self) -> bool:
        """True when the constraints were proved unsatisfiable."""
        return self is CheckResult.UNSAT


class Model:
    """A satisfying assignment for the variables of a checked formula."""

    def __init__(
        self,
        bool_values: dict[int, bool],
        int_values: dict[int, int],
        by_name: dict[str, object],
    ) -> None:
        self._bool_values = bool_values
        self._int_values = int_values
        self._by_name = by_name

    def __getitem__(self, var):
        """Value of *var* (an :class:`IntVar`, :class:`BoolVar`, or name)."""
        if isinstance(var, T.BoolVar):
            if id(var) not in self._bool_values:
                raise KeyError(f"variable {var!r} not present in model")
            return self._bool_values[id(var)]
        if isinstance(var, T.IntVar):
            if id(var) not in self._int_values:
                raise KeyError(f"variable {var!r} not present in model")
            return self._int_values[id(var)]
        if isinstance(var, str):
            if var not in self._by_name:
                raise KeyError(f"no variable named {var!r} in model")
            return self[self._by_name[var]]
        raise TypeError(f"cannot look up {var!r} in a model")

    def get(self, var, default=None):
        """Like ``__getitem__`` but returning *default* for unknown variables."""
        try:
            return self[var]
        except KeyError:
            return default

    def evaluate(self, expr: T.Expr):
        """Evaluate an arbitrary expression under this model."""
        if isinstance(expr, T.BoolConst):
            return expr.value
        if isinstance(expr, T.IntConst):
            return expr.value
        if isinstance(expr, (T.BoolVar, T.IntVar)):
            return self[expr]
        if isinstance(expr, T.NotExpr):
            return not self.evaluate(expr.arg)
        if isinstance(expr, T.AndExpr):
            return all(self.evaluate(a) for a in expr.args)
        if isinstance(expr, T.OrExpr):
            return any(self.evaluate(a) for a in expr.args)
        if isinstance(expr, T.IffExpr):
            return self.evaluate(expr.left) == self.evaluate(expr.right)
        if isinstance(expr, (T.IteBoolExpr, T.IteIntExpr)):
            branch = expr.then_branch if self.evaluate(expr.cond) else expr.else_branch
            return self.evaluate(branch)
        if isinstance(expr, T.IntEq):
            return self.evaluate(expr.left) == self.evaluate(expr.right)
        if isinstance(expr, T.IntLt):
            return self.evaluate(expr.left) < self.evaluate(expr.right)
        if isinstance(expr, T.IntLe):
            return self.evaluate(expr.left) <= self.evaluate(expr.right)
        if isinstance(expr, T.IntAdd):
            return self.evaluate(expr.left) + self.evaluate(expr.right)
        if isinstance(expr, T.IntSub):
            return self.evaluate(expr.left) - self.evaluate(expr.right)
        if isinstance(expr, T.IntAbs):
            return abs(self.evaluate(expr.arg))
        raise TypeError(f"cannot evaluate {expr!r}")


class Solver:
    """Finite-domain SMT solver with a Z3-like interface."""

    def __init__(self, backend: Optional[str] = None) -> None:
        self._constraints: list[T.BoolExpr] = []
        self._variables: list[T.Expr] = []
        self._model: Optional[Model] = None
        self._last_statistics: dict[str, float] = {}
        self._backend_retries_total = 0
        # Resolve the name eagerly so typos fail at construction time.
        self._backend_name = backend_info(backend).name
        self._sat_solver: SatBackend = create_backend(self._backend_name)
        self._encoder = ExpressionEncoder(self._sat_solver)
        self._encoded_constraints = 0
        self._encoded_variables = 0

    @property
    def backend(self) -> str:
        """Registry name of the SAT backend deciding the formulas."""
        return self._backend_name

    # ------------------------------------------------------------------ #
    # Variable creation helpers
    # ------------------------------------------------------------------ #
    def bool_var(self, name: str) -> T.BoolVar:
        """Create (and register) a fresh boolean variable."""
        var = T.BoolVar(name)
        self._variables.append(var)
        return var

    def int_var(self, name: str, lo: int, hi: int) -> T.IntVar:
        """Create (and register) a fresh bounded integer variable."""
        var = T.IntVar(name, lo, hi)
        self._variables.append(var)
        return var

    # ------------------------------------------------------------------ #
    # Constraint management
    # ------------------------------------------------------------------ #
    def add(self, *constraints: T.BoolExpr | bool) -> None:
        """Assert one or more constraints."""
        for constraint in constraints:
            if isinstance(constraint, bool):
                constraint = T.TRUE if constraint else T.FALSE
            if not isinstance(constraint, T.BoolExpr):
                raise TypeError(f"constraint {constraint!r} is not a boolean expression")
            self._constraints.append(constraint)

    @property
    def assertions(self) -> tuple[T.BoolExpr, ...]:
        """The currently asserted constraints."""
        return tuple(self._constraints)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def check(
        self,
        assumptions: Iterable[T.BoolExpr] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
        deadline: Optional["Deadline"] = None,
    ) -> CheckResult:
        """Decide the asserted constraints, optionally under *assumptions*.

        *assumptions* are boolean expressions that must hold for this call
        only; they are not retained.  Only the delta since the previous
        check is bit-blasted, and the SAT backend's learned clauses survive
        between calls.

        *deadline* (a :class:`~repro.core.budget.Deadline`) caps this
        check's effective limits at the remaining whole-search budget:
        *time_limit* is sliced to ``min(time_limit, remaining)``,
        *max_conflicts* shrinks proportionally, and an already-expired
        deadline returns :data:`CheckResult.UNKNOWN` without touching the
        backend (the pending constraint delta stays pending).
        """
        if deadline is not None:
            if deadline.expired():
                self._model = None
                self._last_statistics = {
                    **self._last_statistics,
                    "deadline_expired": 1.0,
                    "backend_retries": float(self._backend_retries_total),
                }
                return CheckResult.UNKNOWN
            max_conflicts = deadline.compose_conflicts(max_conflicts, time_limit)
            time_limit = deadline.slice(time_limit)
        start = time.monotonic()
        sat_solver = self._sat_solver
        encoder = self._encoder
        # Touch every new registered variable so that it is present in the
        # model even when no constraint mentions it.
        for var in self._variables[self._encoded_variables :]:
            if isinstance(var, T.BoolVar):
                encoder.encode_bool(var)
            elif isinstance(var, T.IntVar):
                encoder.encode_int(var)
        for constraint in self._constraints[self._encoded_constraints :]:
            encoder.assert_expr(constraint)
        self._encoded_variables = len(self._variables)
        self._encoded_constraints = len(self._constraints)
        assumption_literals = [encoder.encode_bool(a) for a in assumptions]
        encode_time = time.monotonic() - start
        stats_before = sat_solver.statistics()
        result = self._solve_with_retries(
            sat_solver, assumption_literals, max_conflicts, time_limit, deadline
        )
        solve_time = time.monotonic() - start - encode_time
        stats_after = sat_solver.statistics()
        # Monotone counters are reported as per-check deltas; gauges
        # (high-water marks) would be meaningless as differences and are
        # reported as-is.  Only counters the backend actually keeps appear —
        # a backend without a propagation counter simply reports no
        # propagation delta and no derived rate (instead of zeros that look
        # like a stalled solver).
        deltas = {
            f"sat_{k}": v if k in _GAUGE_STATISTICS else v - stats_before.get(k, 0)
            for k, v in stats_after.items()
        }
        self._last_statistics = {
            "encode_seconds": encode_time,
            "solve_seconds": solve_time,
            "sat_variables": sat_solver.num_vars,
            "sat_clauses": sat_solver.num_clauses,
            "backend_retries": float(self._backend_retries_total),
            **deltas,
        }
        # Per-check throughput of the CDCL hot loop, derived from the deltas
        # (the SolverStatistics rates are lifetime averages).  The denominator
        # is floored at 1 ns: trivially-fast probes can measure a wall-clock
        # small enough that the division overflows to inf, which would poison
        # the throughput fields consumed by bench-trend.
        for rate, counter in (
            ("sat_propagations_per_second", "sat_propagations"),
            ("sat_conflicts_per_second", "sat_conflicts"),
        ):
            if counter in deltas:
                self._last_statistics[rate] = (
                    deltas[counter] / max(solve_time, 1e-9) if solve_time > 0 else 0.0
                )
        if result is SolveResult.UNSAT:
            self._model = None
            return CheckResult.UNSAT
        if result is SolveResult.UNKNOWN:
            self._model = None
            return CheckResult.UNKNOWN
        self._model = self._extract_model(sat_solver, encoder)
        return CheckResult.SAT

    def _solve_with_retries(
        self,
        sat_solver: SatBackend,
        assumption_literals: list[int],
        max_conflicts: Optional[int],
        time_limit: Optional[float],
        deadline: Optional["Deadline"],
    ) -> SolveResult:
        """Run one solve, retrying transient backend failures with backoff.

        A transient failure leaves the backend's clause database intact by
        contract, so the retry re-solves the identical formula.  Retries
        are bounded (:data:`DEFAULT_BACKEND_RETRIES` per check) and
        deterministic (linear backoff of :data:`RETRY_BACKOFF_SECONDS`, no
        jitter); the pause never overruns the deadline.
        Permanent failures and exhausted retry budgets propagate to the
        caller, which degrades to ``termination="backend-error"``.
        """
        attempt = 0
        while True:
            try:
                return sat_solver.solve(
                    assumptions=assumption_literals,
                    max_conflicts=max_conflicts,
                    time_limit=time_limit,
                )
            except TransientBackendError:
                attempt += 1
                if attempt > DEFAULT_BACKEND_RETRIES:
                    raise
                if deadline is not None and deadline.expired():
                    raise
                self._backend_retries_total += 1
                pause = attempt * RETRY_BACKOFF_SECONDS
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None:
                        pause = min(pause, remaining)
                if pause > 0:
                    time.sleep(pause)

    def statistics(self) -> dict[str, float]:
        """Statistics of the most recent :meth:`check` call."""
        return dict(self._last_statistics)

    def to_cnf(self) -> CNF:
        """Bit-blast the asserted constraints into a standalone CNF snapshot.

        The snapshot uses a fresh encoder emitting straight into a
        :class:`~repro.sat.cnf.CNF` container (the encoder is solver-agnostic
        — any clause sink works), so it is independent of the solver's
        state, of the configured backend, and safe to call at any time —
        useful for exporting an instance to DIMACS (debugging,
        external-solver experiments) and for the propagation-throughput
        microbench.
        """
        cnf = CNF()
        encoder = ExpressionEncoder(cnf)
        for var in self._variables:
            if isinstance(var, T.BoolVar):
                encoder.encode_bool(var)
            elif isinstance(var, T.IntVar):
                encoder.encode_int(var)
        for constraint in self._constraints:
            encoder.assert_expr(constraint)
        return cnf

    def model(self) -> Model:
        """Return the model found by the last satisfiable :meth:`check`."""
        if self._model is None:
            raise RuntimeError("no model available; last check() was not SAT")
        return self._model

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _extract_model(self, sat_solver: SatBackend, encoder: ExpressionEncoder) -> Model:
        assignment = sat_solver.model()

        def literal_value(lit: int) -> bool:
            value = assignment.get(abs(lit), False)
            return value if lit > 0 else not value

        bool_values: dict[int, bool] = {}
        int_values: dict[int, int] = {}
        by_name: dict[str, object] = {}
        for var in self._variables:
            if isinstance(var, T.BoolVar):
                lit = encoder.bool_var_literal(var)
                bool_values[id(var)] = literal_value(lit) if lit is not None else False
                by_name[var.name] = var
            elif isinstance(var, T.IntVar):
                vec = encoder.int_var_bits(var)
                if vec is None:
                    int_values[id(var)] = var.lo
                else:
                    raw = 0
                    for i, bit in enumerate(vec.bits):
                        if literal_value(bit):
                            raw |= 1 << i
                    if raw >= 1 << (vec.width - 1):
                        raw -= 1 << vec.width
                    int_values[id(var)] = raw
                by_name[var.name] = var
        return Model(bool_values, int_values, by_name)
