"""A conflict-driven clause-learning (CDCL) SAT solver on flat arrays.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation with *blocker literals*,
* first-UIP conflict analysis with clause learning and local minimisation,
* VSIDS variable activities on an *indexed binary max-heap* (no linear
  scans per decision) with phase saving,
* Luby-sequence restarts,
* LBD-aware learned-clause database reduction (glue clauses are kept),
* solving under assumptions (used by the SMT layer for incremental queries).

Hot-path data layout
--------------------

Everything the propagate/analyze loop touches lives in flat, integer-indexed
structures instead of per-clause objects or dictionaries:

* ``_ca`` — one clause *arena*: a single Python list holding every clause as
  ``[size, learned, lbd, activity, lit0, lit1, ...]``.  A clause is
  identified by its arena offset, which doubles as the reason reference.
  (A ``array('i')`` arena was measured slower here: CPython re-boxes every
  element read above the small-int cache, whereas a list of already-boxed
  ints is a pointer load.  ``array('i')`` is still used for the per-literal
  assignment values, whose domain {0, 1, 2} always hits the cache.)
* ``_values`` — assignment state per *encoded literal* (``var<<1 | sign``),
  so the inner loop reads truth values with one index, no xor/shift.
* ``_watches`` — per-literal flat lists alternating ``clause_offset,
  blocker``; a true blocker skips the clause without touching the arena.
* ``_bin_watches`` — binary clauses are specialised out of the generic watch
  scheme: per-literal flat lists alternating ``other_literal,
  clause_offset``.  Propagating a binary clause reads the implied literal
  straight from the watch list — no arena dereference, no watch migration
  (both literals of a 2-clause are always watched).  The arena still holds
  the clause so conflict analysis and reason tracking are unchanged.
* ``_trail``/``_trail_lim`` — the assignment trail, inlined into the
  propagation loop (no queue objects, ``_qhead`` is a plain cursor).

The previous object-style implementation is preserved unchanged as
:class:`repro.sat.reference.ReferenceCDCLSolver`; benchmarks race the two
and fail if this rewrite stops being strictly faster.  Both cores return
identical SAT/UNSAT answers on every formula (models may differ).
"""

from __future__ import annotations

import enum
import time
from array import array
from typing import Iterable, Optional, Sequence

from repro.sat.cnf import CNF

_UNASSIGNED = 2

#: Arena slots before a clause's literals: [size, learned, lbd, activity].
_HDR = 4

class SolveResult(enum.Enum):
    """Outcome of a :meth:`CDCLSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


def _luby(i: int) -> int:
    """Return the *i*-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) <= i + 1:
        k += 1
    while True:
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1))
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1


class SolverStatistics:
    """Counters collected during solving (useful for benchmarks and tests).

    All attributes are monotone counters except ``max_decision_level`` (a
    high-water gauge).  ``solve_seconds`` accumulates wall-clock time spent
    inside :meth:`CDCLSolver.solve`; the throughput rates derived from it
    (:attr:`propagations_per_second`, :attr:`conflicts_per_second`) are
    lifetime averages — per-call rates are computed by the SMT layer from
    counter deltas.
    """

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.deleted_clauses = 0
        self.max_decision_level = 0
        self.solve_seconds = 0.0

    # The throughput denominators are floored at 1 ns: a trivially-fast probe
    # can record a ``solve_seconds`` tiny enough (denormal floats) that the
    # division overflows to ``inf``, which poisons the bench-trend throughput
    # ratios downstream.  Exactly-zero still reports 0.0 (never solved).

    @property
    def propagations_per_second(self) -> float:
        """Lifetime propagation throughput (0.0 before the first solve)."""
        if not self.solve_seconds:
            return 0.0
        return self.propagations / max(self.solve_seconds, 1e-9)

    @property
    def conflicts_per_second(self) -> float:
        """Lifetime conflict throughput (0.0 before the first solve)."""
        if not self.solve_seconds:
            return 0.0
        return self.conflicts / max(self.solve_seconds, 1e-9)

    def as_dict(self, rates: bool = False) -> dict[str, float]:
        """Return the statistics as a plain dictionary.

        The default returns the raw counters only (diffable across calls);
        ``rates=True`` additionally includes the derived lifetime rates.
        """
        counters = dict(self.__dict__)
        if rates:
            counters["propagations_per_second"] = self.propagations_per_second
            counters["conflicts_per_second"] = self.conflicts_per_second
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStatistics({fields})"


class CDCLSolver:
    """CDCL SAT solver over DIMACS-style literals.

    Typical use::

        solver = CDCLSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SolveResult.SAT
        assert solver.model()[b] is True
    """

    #: :class:`repro.sat.backend.SatBackend` surface.
    backend_name = "flat"

    def __init__(self) -> None:
        """Create an empty solver."""
        self._num_vars = 0
        # Indexed by variable (1-based); index 0 unused.
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._saved_phase: list[bool] = [False]
        self._seen: list[bool] = [False]
        # Assignment state per encoded literal (slots 0/1 unused).
        self._values = array("i", [_UNASSIGNED, _UNASSIGNED])
        # Clause arena + offsets of every live clause (problem and learned).
        self._ca: list = []
        self._clause_refs: list[int] = []
        # Watch lists per encoded literal: flat [offset, blocker, ...] pairs.
        self._watches: list[list[int]] = [[], []]
        # Binary-clause watch lists: flat [other_literal, offset, ...] pairs.
        self._bin_watches: list[list[int]] = [[], []]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # VSIDS order: indexed binary max-heap over variable activities.
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
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
        return self._values[enc]

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
        return len(self._clause_refs)

    def new_var(self) -> int:
        """Create a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._saved_phase.append(False)
        self._seen.append(False)
        self._values.extend((_UNASSIGNED, _UNASSIGNED))
        self._watches += ([], [])
        self._bin_watches += ([], [])
        self._heap_pos.append(-1)
        self._heap_insert(self._num_vars)
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause.  Returns ``False`` if the formula became
        trivially unsatisfiable (empty clause or conflicting units)."""
        if not self._ok:
            return False
        values, at_root = self._values, not self._trail_lim
        clause: list[int] = []
        for lit in literals:
            if not lit:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            enc = (var << 1) | (lit < 0)
            if var > self._num_vars:
                self._ensure_var(var)
            # Duplicate and tautology tests scan the clause itself: problem
            # clauses are short (at most 14 literals on the paper's inputs).
            if enc ^ 1 in clause:
                return True  # tautology
            if enc in clause:
                continue
            # Drop literals already false at level 0, ignore clause if a
            # literal is already true at level 0.
            if at_root:
                val = values[enc]
                if val == 1:
                    return True
                if val == 0:
                    continue
            clause.append(enc)
        size = len(clause)
        if not size:
            self._ok = False
            return False
        if size == 1:
            if not self._enqueue(clause[0], -1) or self._propagate() != -1:
                self._ok = False
                return False
            return True
        # Attach: the arena header of a problem clause, then both watches.
        ca = self._ca
        offset = len(ca)
        ca += (size, 0, 0, 0.0)
        ca += clause
        self._clause_refs.append(offset)
        first, second = clause[0], clause[1]
        if size == 2:
            self._bin_watches[first] += (second, offset)
            self._bin_watches[second] += (first, offset)
        else:
            self._watches[first] += (offset, second)
            self._watches[second] += (offset, first)
        return True

    def statistics(self) -> dict[str, float]:
        """Counters as a plain dict — the :class:`~repro.sat.backend.SatBackend`
        surface of :attr:`stats` (consumers diff successive snapshots)."""
        return self.stats.as_dict()

    def add_cnf(self, cnf: CNF) -> bool:
        """Add every clause of a :class:`~repro.sat.cnf.CNF` formula."""
        self._ensure_var(cnf.num_vars)
        ok = True
        for clause in cnf:
            ok = self.add_clause(clause) and ok
        return ok

    def _attach_learned(self, clause: list[int], lbd: int) -> int:
        ca = self._ca
        offset = len(ca)
        ca += (len(clause), 1, lbd, 0.0)
        ca += clause
        self._clause_refs.append(offset)
        if len(clause) == 2:
            self._bin_watches[clause[0]].extend((clause[1], offset))
            self._bin_watches[clause[1]].extend((clause[0], offset))
        else:
            self._watches[clause[0]].extend((offset, clause[1]))
            self._watches[clause[1]].extend((offset, clause[0]))
        return offset

    # ------------------------------------------------------------------ #
    # VSIDS order heap (indexed binary max-heap on variable activity)
    # ------------------------------------------------------------------ #
    def _heap_insert(self, var: int) -> None:
        pos = self._heap_pos
        if pos[var] != -1:
            return
        heap = self._heap
        heap.append(var)
        self._heap_sift_up(len(heap) - 1)

    # Heap order: higher activity first, ties broken towards the smaller
    # variable index — exactly the order the seed's linear scan produced, so
    # the first descent behaves identically across cores.
    def _heap_sift_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        var = heap[i]
        a = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            pa = act[pv]
            if pa > a or (pa == a and pv < var):
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        n = len(heap)
        var = heap[i]
        a = act[var]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = left
            if right < n:
                la, ra = act[heap[left]], act[heap[right]]
                if ra > la or (ra == la and heap[right] < heap[left]):
                    child = right
            cv = heap[child]
            ca = act[cv]
            if ca < a or (ca == a and var < cv):
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = var
        pos[var] = i

    def _heap_pop(self) -> int:
        heap, pos = self._heap, self._heap_pos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    def _pick_branch_var(self) -> int:
        values = self._values
        heap = self._heap
        while heap:
            var = self._heap_pop()
            if values[var << 1] == _UNASSIGNED:
                return var
        return 0

    # ------------------------------------------------------------------ #
    # Assignment / propagation
    # ------------------------------------------------------------------ #
    def _enqueue(self, enc: int, reason: int) -> bool:
        values = self._values
        val = values[enc]
        if val == 0:
            return False
        if val == 1:
            return True
        values[enc] = 1
        values[enc ^ 1] = 0
        var = enc >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(enc)
        return True

    def _propagate(self) -> int:
        """Unit propagation.  Returns the arena offset of a conflicting
        clause, or -1 when a fixpoint is reached without conflict."""
        # Local aliases: every hot name resolves to a fast local load.
        ca = self._ca
        values = self._values
        watches = self._watches
        bin_watches = self._bin_watches
        trail = self._trail
        trail_lim = self._trail_lim
        level = self._level
        reason = self._reason
        qhead = self._qhead
        propagations = 0
        conflict = -1
        while qhead < len(trail):
            enc = trail[qhead]
            qhead += 1
            propagations += 1
            false_lit = enc ^ 1
            # Binary clauses first: the implied literal sits right in the
            # watch pair, so no arena record is ever dereferenced.
            bwl = bin_watches[false_lit]
            for k in range(0, len(bwl), 2):
                other = bwl[k]
                val = values[other]
                if val == 1:
                    continue
                if val == 0:
                    conflict = bwl[k + 1]
                    break
                values[other] = 1
                values[other ^ 1] = 0
                var = other >> 1
                level[var] = len(trail_lim)
                reason[var] = bwl[k + 1]
                trail.append(other)
            if conflict != -1:
                break
            wl = watches[false_lit]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                offset = wl[i]
                blocker = wl[i + 1]
                i += 2
                if values[blocker] == 1:
                    wl[j] = offset
                    wl[j + 1] = blocker
                    j += 2
                    continue
                base = offset + _HDR
                first = ca[base]
                if first == false_lit:
                    first = ca[base + 1]
                    ca[base] = first
                    ca[base + 1] = false_lit
                if values[first] == 1:
                    wl[j] = offset
                    wl[j + 1] = first
                    j += 2
                    continue
                # Look for a new literal to watch.
                k = base + 2
                end = base + ca[offset]
                while k < end:
                    other = ca[k]
                    if values[other] != 0:
                        ca[base + 1] = other
                        ca[k] = false_lit
                        watches[other].extend((offset, first))
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting.
                    wl[j] = offset
                    wl[j + 1] = first
                    j += 2
                    if values[first] == 0:
                        # Conflict: keep the remaining watches and report.
                        while i < n:
                            wl[j] = wl[i]
                            j += 1
                            i += 1
                        conflict = offset
                        break
                    values[first] = 1
                    values[first ^ 1] = 0
                    var = first >> 1
                    level[var] = len(trail_lim)
                    reason[var] = offset
                    trail.append(first)
            del wl[j:]
            if conflict != -1:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #
    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            # Uniform rescale preserves the heap order.
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        pos = self._heap_pos[var]
        if pos != -1:
            self._heap_sift_up(pos)

    def _bump_clause(self, offset: int) -> None:
        ca = self._ca
        ca[offset + 3] += self._cla_inc
        if ca[offset + 3] > 1e20:
            for other in self._clause_refs:
                ca[other + 3] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (encoded literals, asserting literal
        first), the backtrack level, and the clause's LBD (number of
        distinct decision levels among its literals).
        """
        ca = self._ca
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        learned: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        p = -1
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        offset = conflict
        while True:
            if ca[offset + 1]:  # learned clause: bump its activity
                self._bump_clause(offset)
            base = offset + _HDR
            # Skip the literal being resolved on by value, not by position:
            # binary clauses are propagated without normalising the arena
            # record, so the implied literal is not guaranteed to sit first.
            for k in range(base, base + ca[offset]):
                enc = ca[k]
                if enc == p:
                    continue
                var = enc >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(enc)
            # Select next literal to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            offset = reason[var]
        learned[0] = p ^ 1
        # Clause minimisation (Sörensson/Biere "local" minimisation): a
        # literal is redundant when every literal of its reason clause is
        # either at level 0 or already part of the learned clause.
        original = list(learned)
        learned_vars = {enc >> 1 for enc in learned}
        minimized = [learned[0]]
        for enc in learned[1:]:
            var = enc >> 1
            r = reason[var]
            if r == -1:
                minimized.append(enc)
                continue
            redundant = True
            base = r + _HDR
            for k in range(base, base + ca[r]):
                other = ca[k] >> 1
                if other != var and level[other] != 0 and other not in learned_vars:
                    redundant = False
                    break
            if not redundant:
                minimized.append(enc)
        learned = minimized
        # Clear the seen flags of *all* literals touched by this analysis,
        # including the ones dropped by minimisation.
        for enc in original:
            seen[enc >> 1] = False
        lbd = len({level[enc >> 1] for enc in learned})
        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Find the literal with the second-highest level and move it to
            # position 1 (needed for correct watching).
            max_i = 1
            for i in range(2, len(learned)):
                if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = level[learned[1] >> 1]
        return learned, backtrack_level, lbd

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        values = self._values
        saved_phase = self._saved_phase
        reason = self._reason
        heap_pos = self._heap_pos
        trail = self._trail
        bound = self._trail_lim[level]
        for enc in reversed(trail[bound:]):
            var = enc >> 1
            saved_phase[var] = not (enc & 1)
            values[enc] = _UNASSIGNED
            values[enc ^ 1] = _UNASSIGNED
            reason[var] = -1
            if heap_pos[var] == -1:
                self._heap_insert(var)
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------ #
    # Learned clause database reduction (LBD-aware)
    # ------------------------------------------------------------------ #
    def _reduce_db(self) -> None:
        """Drop half of the unhelpful learned clauses.

        Candidates are learned clauses longer than 2 literals that are not
        *glue* (LBD <= 2) and not locked as a reason on the trail; they are
        ranked worst-first by (high LBD, low activity), glucose-style.
        """
        ca = self._ca
        locked = {self._reason[enc >> 1] for enc in self._trail}
        candidates = [
            offset
            for offset in self._clause_refs
            if ca[offset + 1] and ca[offset] > 2 and ca[offset + 2] > 2
        ]
        to_remove = set()
        if len(candidates) >= 100:
            candidates.sort(key=lambda offset: (-ca[offset + 2], ca[offset + 3]))
            for offset in candidates[: len(candidates) // 2]:
                if offset not in locked:
                    to_remove.add(offset)
        if not to_remove:
            return
        self._rebuild_clause_db(to_remove)
        self.stats.deleted_clauses += len(to_remove)

    def _rebuild_clause_db(self, to_remove: set[int]) -> None:
        """Compact the arena, dropping *to_remove*, and rebuild the watch
        lists."""
        old_ca = self._ca
        new_ca: list = []
        new_refs: list[int] = []
        remap: dict[int, int] = {}
        for offset in self._clause_refs:
            if offset in to_remove:
                continue
            new_offset = len(new_ca)
            remap[offset] = new_offset
            new_ca.extend(old_ca[offset : offset + _HDR + old_ca[offset]])
            new_refs.append(new_offset)
        self._ca = new_ca
        self._clause_refs = new_refs
        for var in range(1, self._num_vars + 1):
            reason = self._reason[var]
            if reason != -1:
                self._reason[var] = remap.get(reason, -1)
        self._watches = [[] for _ in range(2 * self._num_vars + 2)]
        self._bin_watches = [[] for _ in range(2 * self._num_vars + 2)]
        watches = self._watches
        bin_watches = self._bin_watches
        for offset in new_refs:
            base = offset + _HDR
            first, second = new_ca[base], new_ca[base + 1]
            if new_ca[offset] == 2:
                bin_watches[first].extend((second, offset))
                bin_watches[second].extend((first, offset))
            else:
                watches[first].extend((offset, second))
                watches[second].extend((offset, first))

    # ------------------------------------------------------------------ #
    # Main search
    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> SolveResult:
        """Solve the formula, optionally under *assumptions*.

        Parameters
        ----------
        assumptions:
            DIMACS literals assumed true for this call only.
        max_conflicts:
            Abort with :data:`SolveResult.UNKNOWN` after this many conflicts.
        time_limit:
            Abort with :data:`SolveResult.UNKNOWN` after this many seconds.
        """
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
        for lit in assumptions:
            self._ensure_var(abs(lit))
        assumption_encs = [self._encode(lit) for lit in assumptions]
        deadline = time.monotonic() + time_limit if time_limit is not None else None
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count + 1)
        conflicts_since_restart = 0
        total_conflicts = 0
        max_learned = max(2000, self.num_clauses // 3)
        values = self._values
        stats = self.stats

        while True:
            conflict = self._propagate()
            if conflict != -1:
                stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return SolveResult.UNSAT
                if len(self._trail_lim) <= len(assumption_encs):
                    # Conflict within the assumption levels: UNSAT under
                    # these assumptions (the base formula may still be SAT).
                    self._backtrack(0)
                    return SolveResult.UNSAT
                learned, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(max(backtrack_level, 0))
                if len(learned) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learned[0], -1):
                        self._ok = False
                        return SolveResult.UNSAT
                else:
                    offset = self._attach_learned(learned, lbd)
                    stats.learned_clauses += 1
                    self._enqueue(learned[0], offset)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self._backtrack(0)
                    return SolveResult.UNKNOWN
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    return SolveResult.UNKNOWN
                if conflicts_since_restart >= conflicts_until_restart:
                    stats.restarts += 1
                    restart_count += 1
                    conflicts_since_restart = 0
                    conflicts_until_restart = 100 * _luby(restart_count + 1)
                    self._backtrack(0)
                learned_count = stats.learned_clauses - stats.deleted_clauses
                if learned_count > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            # No conflict: extend the assignment.
            decision = 0
            level = len(self._trail_lim)
            if level < len(assumption_encs):
                enc = assumption_encs[level]
                val = values[enc]
                if val == 0:
                    self._backtrack(0)
                    return SolveResult.UNSAT
                if val == 1:
                    # Already satisfied; open an empty decision level so the
                    # next assumption is considered.
                    self._trail_lim.append(len(self._trail))
                    continue
                decision = enc
            else:
                var = self._pick_branch_var()
                if var == 0:
                    self._store_model()
                    self._backtrack(0)
                    return SolveResult.SAT
                stats.decisions += 1
                decision = (var << 1) | (0 if self._saved_phase[var] else 1)
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > stats.max_decision_level:
                stats.max_decision_level = len(self._trail_lim)
            self._enqueue(decision, -1)

    def _store_model(self) -> None:
        values = self._values
        self._model = {
            var: values[var << 1] == 1 for var in range(1, self._num_vars + 1)
        }

    def model(self) -> dict[int, bool]:
        """Return the satisfying assignment found by the last SAT call."""
        if not self._model:
            raise RuntimeError("no model available; call solve() first")
        return dict(self._model)

    # ------------------------------------------------------------------ #
    # Debug export (first step towards an external-SAT-backend adapter)
    # ------------------------------------------------------------------ #
    def to_cnf(self, include_learned: bool = False) -> CNF:
        """Snapshot the clause database as a :class:`~repro.sat.cnf.CNF`.

        The export contains every problem clause plus the level-0 trail as
        unit clauses (level-0 assignments are facts of the formula — clauses
        simplified against them at :meth:`add_clause` time are only
        recoverable together with these units).  ``include_learned`` adds the
        learned clauses too; they are implied, so either snapshot is
        equisatisfiable with the original formula — under every set of
        assumptions, not just the empty one.
        """
        cnf = CNF(num_vars=self._num_vars)
        if not self._ok:
            cnf.add_clause([])
            return cnf
        root = self._trail[: self._trail_lim[0]] if self._trail_lim else self._trail
        for enc in root:
            cnf.add_clause([self._decode(enc)])
        ca = self._ca
        for offset in self._clause_refs:
            if ca[offset + 1] and not include_learned:
                continue
            base = offset + _HDR
            cnf.add_clause(
                [self._decode(ca[k]) for k in range(base, base + ca[offset])]
            )
        return cnf

    def dump_dimacs(self, include_learned: bool = False) -> str:
        """Serialise the clause database to DIMACS CNF text.

        A debugging aid: ``CNF.from_dimacs(solver.dump_dimacs())``
        round-trips to an equisatisfiable formula.
        """
        return self.to_cnf(include_learned=include_learned).to_dimacs()
