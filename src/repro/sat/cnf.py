"""Clause container with DIMACS import/export.

Clauses are stored as tuples of DIMACS-style literals (non-zero integers,
negative meaning negation).  The container tracks the number of variables and
performs light validation; it is deliberately independent of the solver so
that formulas can be built, stored, and inspected without committing to a
particular decision procedure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class CNF:
    """A formula in conjunctive normal form.

    Parameters
    ----------
    clauses:
        Optional initial clauses, each an iterable of DIMACS literals.
    num_vars:
        Optional lower bound on the number of variables.  The count grows
        automatically as clauses mentioning higher variables are added.
    """

    def __init__(self, clauses: Iterable[Iterable[int]] = (), num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._clauses: list[tuple[int, ...]] = []
        self._num_vars = num_vars
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Number of variables mentioned by (or reserved for) the formula."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses currently stored."""
        return len(self._clauses)

    @property
    def clauses(self) -> Sequence[tuple[int, ...]]:
        """The stored clauses as an immutable view."""
        return tuple(self._clauses)

    def new_var(self) -> int:
        """Reserve and return a fresh variable index."""
        self._num_vars += 1
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause given as DIMACS literals.

        Duplicate literals are removed; a clause containing both a literal
        and its negation is a tautology and is silently dropped.
        """
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if not isinstance(lit, int):
                raise TypeError(f"literal {lit!r} is not an integer")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
            if abs(lit) > self._num_vars:
                self._num_vars = abs(lit)
        self._clauses.append(tuple(clause))

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses at once."""
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(num_vars={self._num_vars}, num_clauses={len(self._clauses)})"

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Evaluate the formula under a total assignment ``var -> bool``."""
        for clause in self._clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # DIMACS serialisation
    # ------------------------------------------------------------------ #
    def to_dimacs(self) -> str:
        """Serialise to the DIMACS CNF text format."""
        header = f"p cnf {self._num_vars} {len(self._clauses)}\n"
        return header + "".join(
            " ".join(map(str, clause)) + " 0\n" for clause in self._clauses
        )

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse a formula from DIMACS CNF text."""
        cnf = cls()
        declared_vars = 0
        pending: list[int] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line: {line!r}")
                declared_vars = int(parts[2])
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            cnf.add_clause(pending)
        if declared_vars > cnf._num_vars:
            cnf._num_vars = declared_vars
        return cnf
