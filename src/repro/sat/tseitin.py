"""Tseitin transformation of boolean circuits into CNF.

The SMT encoder in :mod:`repro.smt` produces boolean circuits (gates over
fresh variables); this module turns those gates into equisatisfiable CNF
clauses.  Each helper returns the literal representing the gate output and
appends the defining clauses to the underlying formula.

The encoder works directly against anything exposing ``new_var()`` and
``add_clause(iterable_of_dimacs_literals)`` — both :class:`repro.sat.cnf.CNF`
and :class:`repro.sat.solver.CDCLSolver` qualify, so formulas can either be
materialised or streamed straight into a solver.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence


class ClauseSink(Protocol):
    """Anything that can receive clauses and hand out fresh variables."""

    def new_var(self) -> int:  # pragma: no cover - protocol definition
        ...

    def add_clause(self, literals: Iterable[int]) -> object:  # pragma: no cover
        ...


class TseitinEncoder:
    """Builds CNF definitions for AND/OR/NOT/XOR/ITE/MAJ gates.

    The encoder caches gate definitions so that structurally identical gates
    (same operation over the same literal multiset) share one output literal,
    which keeps the generated formulas compact.
    """

    #: Literal that is always true.  Created lazily per encoder.
    def __init__(self, sink: ClauseSink) -> None:
        self._sink = sink
        self._cache: dict[tuple, int] = {}
        self._true_lit: int | None = None

    # ------------------------------------------------------------------ #
    # Constants
    # ------------------------------------------------------------------ #
    def true_literal(self) -> int:
        """Return a literal constrained to be true."""
        if self._true_lit is None:
            self._true_lit = self._sink.new_var()
            self._sink.add_clause([self._true_lit])
        return self._true_lit

    def false_literal(self) -> int:
        """Return a literal constrained to be false."""
        return -self.true_literal()

    # ------------------------------------------------------------------ #
    # Gates
    # ------------------------------------------------------------------ #
    def NOT(self, lit: int) -> int:
        """Negation needs no auxiliary variable."""
        return -lit

    def AND(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of *literals*."""
        literals = self._normalise(literals)
        if literals is None:
            return self.false_literal()
        if not literals:
            return self.true_literal()
        if len(literals) == 1:
            return literals[0]
        key = ("and",) + tuple(literals)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self._sink.new_var()
        for lit in literals:
            self._sink.add_clause([-out, lit])
        self._sink.add_clause([out] + [-lit for lit in literals])
        self._cache[key] = out
        return out

    def OR(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of *literals*."""
        return -self.AND([-lit for lit in literals])

    def IMPLIES(self, antecedent: int, consequent: int) -> int:
        """Return a literal equivalent to ``antecedent -> consequent``."""
        return self.OR([-antecedent, consequent])

    def IFF(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a <-> b``."""
        if a == b:
            return self.true_literal()
        if a == -b:
            return self.false_literal()
        for x, y in ((a, b), (b, a)):
            value = self._constant(x)
            if value is not None:
                return y if value else -y
        # a <-> b == -a <-> -b == -(-a <-> b): one gate per pair of variables.
        flip = (a < 0) != (b < 0)
        a, b = sorted((abs(a), abs(b)))
        key = ("iff", a, b)
        out = self._cache.get(key)
        if out is None:
            out = self._sink.new_var()
            self._sink.add_clause([-out, -a, b])
            self._sink.add_clause([-out, a, -b])
            self._sink.add_clause([out, a, b])
            self._sink.add_clause([out, -a, -b])
            self._cache[key] = out
        return -out if flip else out

    def XOR(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a xor b``."""
        return -self.IFF(a, b)

    def ITE(self, cond: int, then_lit: int, else_lit: int) -> int:
        """Return a literal equivalent to ``cond ? then_lit : else_lit``.

        A constant condition selects a branch, opposite branches make an
        ``IFF``, and a constant branch makes an ``AND``/``OR``; only the
        general case allocates an ITE gate.
        """
        if then_lit == else_lit:
            return then_lit
        if then_lit == -else_lit:
            return self.IFF(cond, then_lit)
        value = self._constant(cond)
        if value is not None:
            return then_lit if value else else_lit
        value = self._constant(then_lit)
        if value is not None:
            return self.OR([cond, else_lit]) if value else self.AND([-cond, else_lit])
        value = self._constant(else_lit)
        if value is not None:
            return self.OR([-cond, then_lit]) if value else self.AND([cond, then_lit])
        key = ("ite", cond, then_lit, else_lit)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self._sink.new_var()
        self._sink.add_clause([-out, -cond, then_lit])
        self._sink.add_clause([-out, cond, else_lit])
        self._sink.add_clause([out, -cond, -then_lit])
        self._sink.add_clause([out, cond, -else_lit])
        # Redundant but propagation-strengthening clauses.
        self._sink.add_clause([-out, then_lit, else_lit])
        self._sink.add_clause([out, -then_lit, -else_lit])
        self._cache[key] = out
        return out

    def MAJ(self, a: int, b: int, c: int) -> int:
        """Return a literal true iff at least two of *a*, *b*, *c* are true.

        The carry of a full adder.  Two equal inputs decide the gate, two
        opposite inputs leave the third, and a constant input makes an
        ``OR`` (true) or ``AND`` (false) of the other two.
        """
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x
            if x == -y:
                return z
        for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            value = self._constant(x)
            if value is not None:
                return self.OR([y, z]) if value else self.AND([y, z])
        key = ("maj",) + tuple(sorted((a, b, c)))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self._sink.new_var()
        for x, y in ((a, b), (a, c), (b, c)):
            self._sink.add_clause([-x, -y, out])
            self._sink.add_clause([x, y, -out])
        self._cache[key] = out
        return out

    def assert_true(self, lit: int) -> None:
        """Constrain *lit* to be true at the top level."""
        self._sink.add_clause([lit])

    def assert_clause(self, literals: Sequence[int]) -> None:
        """Add a clause directly (no auxiliary variable)."""
        self._sink.add_clause(list(literals))

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _constant(self, lit: int) -> bool | None:
        """The value of *lit* if it is the true or false literal, else ``None``."""
        if self._true_lit is None or abs(lit) != self._true_lit:
            return None
        return lit > 0

    def _normalise(self, literals: Sequence[int]) -> list[int] | None:
        """Sort/deduplicate literals of an AND gate.

        Returns ``None`` if the conjunction is trivially false (contains a
        literal and its negation or an explicit false literal).
        """
        result: list[int] = []
        seen: set[int] = set()
        for lit in literals:
            if self._true_lit is not None:
                if lit == self._true_lit:
                    continue
                if lit == -self._true_lit:
                    return None
            if -lit in seen:
                return None
            if lit in seen:
                continue
            seen.add(lit)
            result.append(lit)
        result.sort()
        return result
