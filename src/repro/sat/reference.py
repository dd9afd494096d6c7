"""The seed CDCL solver, preserved verbatim as a reference backend.

This module is the pre-flat-array implementation of the CDCL solver: object
style bookkeeping (one Python list per clause, linear VSIDS scans, no blocker
literals, activity-only clause reduction).  It is kept for three reasons:

* **Benchmark baseline** — ``benchmarks/test_bench_smt.py`` and the
  ``repro-nasp microbench`` command race :class:`ReferenceCDCLSolver` against
  the flat-array :class:`repro.sat.solver.CDCLSolver` and fail when the
  rewrite stops being strictly faster.
* **Differential testing** — both cores must return identical SAT/UNSAT
  answers on every formula; the property tests in ``tests/sat`` cross-check
  them.
* **Backend seam** — its solver-facing surface (``new_var``/``add_clause``/
  ``solve``/``model``/``statistics``) is the minimal contract of
  :class:`repro.sat.backend.SatBackend` that every other backend provides.

The algorithmic content is the seed implementation unchanged; only the class
name, the shared ``SolveResult``/``SolverStatistics`` imports, and the
``solve_seconds`` timing wrapper around :meth:`solve` differ (the wrapper
feeds the same statistics fields the flat core reports, keeping throughput
comparisons apples-to-apples).  Do not optimise this file — its whole value
is staying fixed.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.sat.cnf import CNF
from repro.sat.solver import SolveResult, SolverStatistics, _luby

_UNASSIGNED = 2


class ReferenceCDCLSolver:
    """The seed's CDCL SAT solver (dict/object bookkeeping, linear VSIDS).

    API-compatible with :class:`repro.sat.solver.CDCLSolver`; see the module
    docstring for why it is preserved.
    """

    #: :class:`repro.sat.backend.SatBackend` surface (additive metadata only;
    #: the algorithmic content below stays the seed implementation).
    backend_name = "reference"

    def __init__(self) -> None:
        self._num_vars = 0
        # Indexed by variable (1-based); index 0 unused.
        self._assigns: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._saved_phase: list[bool] = [False]
        self._seen: list[bool] = [False]
        # Clauses: list of lists of encoded literals.
        self._clauses: list[list[int]] = []
        self._clause_is_learned: list[bool] = []
        self._clause_activity: list[float] = []
        # Watch lists indexed by encoded literal.
        self._watches: list[list[int]] = [[], []]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        self._model: dict[int, bool] = {}
        self.stats = SolverStatistics()

    # ------------------------------------------------------------------ #
    # Literal encoding helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode(lit: int) -> int:
        var = abs(lit)
        return (var << 1) | (1 if lit < 0 else 0)

    @staticmethod
    def _decode(enc: int) -> int:
        var = enc >> 1
        return -var if enc & 1 else var

    def _lit_value(self, enc: int) -> int:
        val = self._assigns[enc >> 1]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val ^ (enc & 1)

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem plus learned clauses currently stored."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Create a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assigns.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._saved_phase.append(False)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause.  Returns ``False`` if the formula became
        trivially unsatisfiable (empty clause or conflicting units)."""
        if not self._ok:
            return False
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_var(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            enc = self._encode(lit)
            # Drop literals already false at level 0, ignore clause if a
            # literal is already true at level 0.
            if not self._trail_lim:
                val = self._lit_value(enc)
                if val == 1:
                    return True
                if val == 0:
                    continue
            clause.append(enc)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict != -1:
                self._ok = False
                return False
            return True
        self._attach_clause(clause, learned=False)
        return True

    def statistics(self) -> dict[str, float]:
        """Counters as a plain dict — the :class:`~repro.sat.backend.SatBackend`
        surface of :attr:`stats` (additive accessor, no seed behaviour)."""
        return self.stats.as_dict()

    def add_cnf(self, cnf: CNF) -> bool:
        """Add every clause of a :class:`~repro.sat.cnf.CNF` formula."""
        self._ensure_var(cnf.num_vars)
        ok = True
        for clause in cnf:
            ok = self.add_clause(clause) and ok
        return ok

    def _attach_clause(self, clause: list[int], learned: bool) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._clause_is_learned.append(learned)
        self._clause_activity.append(0.0)
        self._watches[clause[0]].append(index)
        self._watches[clause[1]].append(index)
        return index

    # ------------------------------------------------------------------ #
    # Assignment / propagation
    # ------------------------------------------------------------------ #
    def _enqueue(self, enc: int, reason: int) -> bool:
        val = self._lit_value(enc)
        if val == 0:
            return False
        if val == 1:
            return True
        var = enc >> 1
        self._assigns[var] = 1 ^ (enc & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(enc)
        return True

    def _propagate(self) -> int:
        """Unit propagation.  Returns the index of a conflicting clause or -1."""
        while self._qhead < len(self._trail):
            enc = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = enc ^ 1
            watch_list = self._watches[false_lit]
            new_watch_list: list[int] = []
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = self._clauses[ci]
                # Ensure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    new_watch_list.append(ci)
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(ci)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watch_list.append(ci)
                if not self._enqueue(first, ci):
                    # Conflict: keep remaining watches and report.
                    new_watch_list.extend(watch_list[i:])
                    self._watches[false_lit] = new_watch_list
                    return ci
            self._watches[false_lit] = new_watch_list
        return -1

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, ci: int) -> None:
        self._clause_activity[ci] += self._cla_inc
        if self._clause_activity[ci] > 1e20:
            for j in range(len(self._clause_activity)):
                self._clause_activity[j] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        p = -1
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        clause_index = conflict
        while True:
            clause = self._clauses[clause_index]
            if self._clause_is_learned[clause_index]:
                self._bump_clause(clause_index)
            start = 1 if p != -1 else 0
            for enc in clause[start:]:
                var = enc >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(enc)
            # Select next literal to resolve on.
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause_index = self._reason[var]
        learned[0] = p ^ 1
        # Clause minimisation (Sörensson/Biere "local" minimisation).
        original = list(learned)
        learned_vars = {enc >> 1 for enc in learned}
        minimized = [learned[0]]
        for enc in learned[1:]:
            var = enc >> 1
            reason = self._reason[var]
            if reason == -1:
                minimized.append(enc)
                continue
            redundant = all(
                (other >> 1) == var
                or self._level[other >> 1] == 0
                or (other >> 1) in learned_vars
                for other in self._clauses[reason]
            )
            if not redundant:
                minimized.append(enc)
        learned = minimized
        for enc in original:
            seen[enc >> 1] = False
        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if self._level[learned[i] >> 1] > self._level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = self._level[learned[1] >> 1]
        return learned, backtrack_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for enc in reversed(self._trail[bound:]):
            var = enc >> 1
            self._saved_phase[var] = self._assigns[var] == 1
            self._assigns[var] = _UNASSIGNED
            self._reason[var] = -1
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def _pick_branch_var(self) -> int:
        best_var = 0
        best_act = -1.0
        activity = self._activity
        assigns = self._assigns
        for var in range(1, self._num_vars + 1):
            if assigns[var] == _UNASSIGNED and activity[var] > best_act:
                best_act = activity[var]
                best_var = var
        return best_var

    # ------------------------------------------------------------------ #
    # Learned clause database reduction
    # ------------------------------------------------------------------ #
    def _reduce_db(self) -> None:
        learned_indices = [
            i
            for i, is_learned in enumerate(self._clause_is_learned)
            if is_learned and len(self._clauses[i]) > 2
        ]
        if len(learned_indices) < 100:
            return
        locked = {self._reason[enc >> 1] for enc in self._trail}
        learned_indices.sort(key=lambda i: self._clause_activity[i])
        to_remove = set()
        for i in learned_indices[: len(learned_indices) // 2]:
            if i not in locked:
                to_remove.add(i)
        if not to_remove:
            return
        self._rebuild_clause_db(to_remove)
        self.stats.deleted_clauses += len(to_remove)

    def _rebuild_clause_db(self, to_remove: set[int]) -> None:
        old_clauses = self._clauses
        old_learned = self._clause_is_learned
        old_activity = self._clause_activity
        remap: dict[int, int] = {}
        new_clauses: list[list[int]] = []
        new_learned: list[bool] = []
        new_activity: list[float] = []
        for i, clause in enumerate(old_clauses):
            if i in to_remove:
                continue
            remap[i] = len(new_clauses)
            new_clauses.append(clause)
            new_learned.append(old_learned[i])
            new_activity.append(old_activity[i])
        self._clauses = new_clauses
        self._clause_is_learned = new_learned
        self._clause_activity = new_activity
        for var in range(1, self._num_vars + 1):
            reason = self._reason[var]
            if reason != -1:
                self._reason[var] = remap.get(reason, -1)
        self._watches = [[] for _ in range(2 * self._num_vars + 2)]
        for ci, clause in enumerate(self._clauses):
            if len(clause) >= 2:
                self._watches[clause[0]].append(ci)
                self._watches[clause[1]].append(ci)

    # ------------------------------------------------------------------ #
    # Main search
    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Solve the formula, optionally under *assumptions*."""
        start = time.monotonic()
        try:
            return self._solve(assumptions, max_conflicts, time_limit)
        finally:
            self.stats.solve_seconds += time.monotonic() - start

    def _solve(
        self,
        assumptions: Sequence[int],
        max_conflicts: Optional[int],
        time_limit: Optional[float],
    ) -> SolveResult:
        if not self._ok:
            return SolveResult.UNSAT
        self._backtrack(0)
        conflict = self._propagate()
        if conflict != -1:
            self._ok = False
            return SolveResult.UNSAT
        assumption_encs = [self._encode(lit) for lit in assumptions]
        for lit in assumptions:
            self._ensure_var(abs(lit))
        deadline = time.monotonic() + time_limit if time_limit is not None else None
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count + 1)
        conflicts_since_restart = 0
        total_conflicts = 0
        max_learned = max(2000, self.num_clauses // 3)

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return SolveResult.UNSAT
                if len(self._trail_lim) <= len(assumption_encs):
                    self._backtrack(0)
                    return SolveResult.UNSAT
                learned, backtrack_level = self._analyze(conflict)
                backtrack_level = max(backtrack_level, 0)
                self._backtrack(max(backtrack_level, 0))
                if len(learned) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learned[0], -1):
                        self._ok = False
                        return SolveResult.UNSAT
                else:
                    ci = self._attach_clause(learned, learned=True)
                    self.stats.learned_clauses += 1
                    self._enqueue(learned[0], ci)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self._backtrack(0)
                    return SolveResult.UNKNOWN
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    return SolveResult.UNKNOWN
                if conflicts_since_restart >= conflicts_until_restart:
                    self.stats.restarts += 1
                    restart_count += 1
                    conflicts_since_restart = 0
                    conflicts_until_restart = 100 * _luby(restart_count + 1)
                    self._backtrack(0)
                learned_count = self.stats.learned_clauses - self.stats.deleted_clauses
                if learned_count > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            # No conflict: extend the assignment.
            decision = 0
            level = len(self._trail_lim)
            if level < len(assumption_encs):
                enc = assumption_encs[level]
                val = self._lit_value(enc)
                if val == 0:
                    self._backtrack(0)
                    return SolveResult.UNSAT
                if val == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                decision = enc
            else:
                var = self._pick_branch_var()
                if var == 0:
                    self._store_model()
                    self._backtrack(0)
                    return SolveResult.SAT
                self.stats.decisions += 1
                decision = (var << 1) | (0 if self._saved_phase[var] else 1)
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, len(self._trail_lim)
            )
            self._enqueue(decision, -1)

    def _store_model(self) -> None:
        self._model = {
            var: self._assigns[var] == 1 for var in range(1, self._num_vars + 1)
        }

    def model(self) -> dict[int, bool]:
        """Return the satisfying assignment found by the last SAT call."""
        if not self._model:
            raise RuntimeError("no model available; call solve() first")
        return dict(self._model)
