"""Bit-blasting of finite-domain SMT expressions to CNF.

Bounded integers are encoded as two's-complement bit-vectors whose width is
derived from the expression's conservative bounds.  Boolean structure is
translated with the Tseitin encoder from :mod:`repro.sat.tseitin`, whose
gates fold constant inputs, so constant bits cost nothing downstream.

An integer variable with a non-negative domain gets the constant false
literal as its sign bit: ``0 <= var`` then holds by construction (no
comparator), and every sign-extension, adder and comparator bit that reads
that sign folds away.  Adders carry with one ``MAJ`` gate per bit, and a
comparator is a chain of ``MAJ`` gates from the least significant bit up.

The encoder is stateless with respect to the SAT solver: it can emit clauses
into any object exposing ``new_var``/``add_clause`` (a solver or a
:class:`repro.sat.cnf.CNF` container), which makes the generated formulas easy
to inspect and test.
"""

from __future__ import annotations

from typing import Sequence

from repro.sat.tseitin import ClauseSink, TseitinEncoder
from repro.smt import terms as T


class BitVector:
    """A two's-complement bit-vector of SAT literals (LSB first)."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int]) -> None:
        self.bits = list(bits)

    @property
    def width(self) -> int:
        return len(self.bits)

    def sign_bit(self) -> int:
        return self.bits[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector({self.bits})"


def width_for_bounds(lo: int, hi: int) -> int:
    """Return the two's-complement width needed to represent ``[lo, hi]``."""
    width = 1
    while not (-(1 << (width - 1)) <= lo and hi <= (1 << (width - 1)) - 1):
        width += 1
    return width


class ExpressionEncoder:
    """Translate :mod:`repro.smt.terms` expressions into SAT clauses."""

    def __init__(self, sink: ClauseSink) -> None:
        self._sink = sink
        self._gates = TseitinEncoder(sink)
        # Caches are keyed by expression identity: expressions are immutable
        # trees, and reusing structurally identical sub-trees is the caller's
        # job (the scheduler reuses variable objects, which is what matters).
        # Every cached expression is pinned in ``_pinned``: the encoder can
        # outlive the expressions it translated (incremental solving), and an
        # id() reused by a newly allocated expression would otherwise alias a
        # stale cache entry.
        self._bool_cache: dict[int, int] = {}
        self._int_cache: dict[int, BitVector] = {}
        self._bool_vars: dict[int, int] = {}
        self._int_vars: dict[int, BitVector] = {}
        self._pinned: list[T.Expr] = []

    @property
    def gates(self) -> TseitinEncoder:
        """The underlying Tseitin gate encoder."""
        return self._gates

    # ------------------------------------------------------------------ #
    # Variable access (used for model extraction)
    # ------------------------------------------------------------------ #
    def bool_var_literal(self, var: T.BoolVar) -> int | None:
        """SAT literal allocated for *var*, or ``None`` if never encoded."""
        return self._bool_vars.get(id(var))

    def int_var_bits(self, var: T.IntVar) -> BitVector | None:
        """Bit-vector allocated for *var*, or ``None`` if never encoded."""
        return self._int_vars.get(id(var))

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def assert_expr(self, expr: T.BoolExpr) -> None:
        """Assert that *expr* holds."""
        if isinstance(expr, T.BoolConst):
            if not expr.value:
                # Unsatisfiable formula: emit an empty-clause equivalent.
                lit = self._gates.true_literal()
                self._sink.add_clause([-lit])
            return
        if isinstance(expr, T.AndExpr):
            for arg in expr.args:
                self.assert_expr(arg)
            return
        self._sink.add_clause([self.encode_bool(expr)])

    # ------------------------------------------------------------------ #
    # Boolean encoding
    # ------------------------------------------------------------------ #
    def encode_bool(self, expr: T.BoolExpr) -> int:
        """Return a SAT literal equivalent to *expr*."""
        key = id(expr)
        cached = self._bool_cache.get(key)
        if cached is not None:
            return cached
        lit = self._encode_bool_uncached(expr)
        self._bool_cache[key] = lit
        self._pinned.append(expr)
        return lit

    def _encode_bool_uncached(self, expr: T.BoolExpr) -> int:
        gates = self._gates
        if isinstance(expr, T.BoolConst):
            return gates.true_literal() if expr.value else gates.false_literal()
        if isinstance(expr, T.BoolVar):
            lit = self._bool_vars.get(id(expr))
            if lit is None:
                lit = self._sink.new_var()
                self._bool_vars[id(expr)] = lit
            return lit
        if isinstance(expr, T.NotExpr):
            return -self.encode_bool(expr.arg)
        if isinstance(expr, T.AndExpr):
            return gates.AND([self.encode_bool(a) for a in expr.args])
        if isinstance(expr, T.OrExpr):
            return gates.OR([self.encode_bool(a) for a in expr.args])
        if isinstance(expr, T.IffExpr):
            return gates.IFF(self.encode_bool(expr.left), self.encode_bool(expr.right))
        if isinstance(expr, T.IteBoolExpr):
            return gates.ITE(
                self.encode_bool(expr.cond),
                self.encode_bool(expr.then_branch),
                self.encode_bool(expr.else_branch),
            )
        if isinstance(expr, T.IntEq):
            return self._encode_eq(expr.left, expr.right)
        if isinstance(expr, T.IntLt):
            return self._encode_lt(expr.left, expr.right)
        if isinstance(expr, T.IntLe):
            return -self._encode_lt(expr.right, expr.left)
        raise TypeError(f"cannot encode boolean expression {expr!r}")

    # ------------------------------------------------------------------ #
    # Integer encoding
    # ------------------------------------------------------------------ #
    def encode_int(self, expr: T.IntExpr) -> BitVector:
        """Return a bit-vector whose value equals *expr*."""
        key = id(expr)
        cached = self._int_cache.get(key)
        if cached is not None:
            return cached
        vec = self._encode_int_uncached(expr)
        self._int_cache[key] = vec
        self._pinned.append(expr)
        return vec

    def _encode_int_uncached(self, expr: T.IntExpr) -> BitVector:
        if isinstance(expr, T.IntConst):
            return self.constant_vector(expr.value)
        if isinstance(expr, T.IntVar):
            vec = self._int_vars.get(id(expr))
            if vec is None:
                vec = self._allocate_int_var(expr)
                self._int_vars[id(expr)] = vec
            return vec
        if isinstance(expr, T.IntAdd):
            return self._add(self.encode_int(expr.left), self.encode_int(expr.right))
        if isinstance(expr, T.IntSub):
            return self._sub(self.encode_int(expr.left), self.encode_int(expr.right))
        if isinstance(expr, T.IntAbs):
            return self._abs(self.encode_int(expr.arg))
        if isinstance(expr, T.IteIntExpr):
            cond = self.encode_bool(expr.cond)
            then_vec = self.encode_int(expr.then_branch)
            else_vec = self.encode_int(expr.else_branch)
            width = max(then_vec.width, else_vec.width)
            then_vec = self._extend(then_vec, width)
            else_vec = self._extend(else_vec, width)
            bits = [
                self._gates.ITE(cond, t, e) for t, e in zip(then_vec.bits, else_vec.bits)
            ]
            return BitVector(bits)
        raise TypeError(f"cannot encode integer expression {expr!r}")

    def constant_vector(self, value: int) -> BitVector:
        """Encode an integer constant as a bit-vector of constant literals."""
        width = width_for_bounds(min(value, 0), max(value, 0))
        true_lit = self._gates.true_literal()
        false_lit = -true_lit
        bits = []
        rep = value & ((1 << width) - 1)
        for i in range(width):
            bits.append(true_lit if (rep >> i) & 1 else false_lit)
        return BitVector(bits)

    def _allocate_int_var(self, var: T.IntVar) -> BitVector:
        width = width_for_bounds(var.lo, var.hi)
        if var.lo >= 0:
            # A non-negative domain has a constant zero sign bit, which
            # already enforces 0 <= var and folds through every gate above.
            bits = [self._sink.new_var() for _ in range(width - 1)]
            bits.append(self._gates.false_literal())
        else:
            bits = [self._sink.new_var() for _ in range(width)]
        vec = BitVector(bits)
        # Domain constraints lo <= var <= hi (skip when the width is tight).
        min_rep = 0 if var.lo >= 0 else -(1 << (width - 1))
        max_rep = (1 << (width - 1)) - 1
        if var.lo > min_rep:
            lo_vec = self.constant_vector(var.lo)
            self._sink.add_clause([-self._lt_literal(vec, lo_vec)])
        if var.hi < max_rep:
            hi_vec = self.constant_vector(var.hi)
            self._sink.add_clause([-self._lt_literal(hi_vec, vec)])
        return vec

    # ------------------------------------------------------------------ #
    # Bit-vector arithmetic
    # ------------------------------------------------------------------ #
    def _extend(self, vec: BitVector, width: int) -> BitVector:
        """Sign-extend *vec* to *width* bits."""
        if vec.width >= width:
            return vec
        sign = vec.sign_bit()
        return BitVector(vec.bits + [sign] * (width - vec.width))

    def _add(self, a: BitVector, b: BitVector, extra_bit: bool = True) -> BitVector:
        """Ripple-carry addition; the result is wide enough not to overflow.

        Each bit is ``a_i xor b_i xor carry`` and the next carry is the
        full adder's ``MAJ(a_i, b_i, carry)``.
        """
        width = max(a.width, b.width) + (1 if extra_bit else 0)
        a = self._extend(a, width)
        b = self._extend(b, width)
        gates = self._gates
        bits: list[int] = []
        carry = gates.false_literal()
        for ai, bi in zip(a.bits, b.bits):
            bits.append(gates.XOR(gates.XOR(ai, bi), carry))
            carry = gates.MAJ(ai, bi, carry)
        return BitVector(bits)

    def _negate(self, a: BitVector) -> BitVector:
        """Two's-complement negation (with one extra bit to avoid overflow)."""
        extended = self._extend(a, a.width + 1)
        # A constant zero sign bit inverts to two constant one bits, which the
        # adder's gates fold, so negating a non-negative value stays cheap.
        inverted = BitVector([-bit for bit in extended.bits])
        # The +1 constant must carry a zero sign bit, hence two bits wide.
        one = self.constant_vector(1)
        return self._add(inverted, one, extra_bit=False)

    def _sub(self, a: BitVector, b: BitVector) -> BitVector:
        return self._add(a, self._negate(b))

    def _abs(self, a: BitVector) -> BitVector:
        neg = self._negate(a)
        width = max(a.width, neg.width)
        a_ext = self._extend(a, width)
        neg_ext = self._extend(neg, width)
        sign = a.sign_bit()
        bits = [self._gates.ITE(sign, n, p) for p, n in zip(a_ext.bits, neg_ext.bits)]
        return BitVector(bits)

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def _encode_eq(self, left: T.IntExpr, right: T.IntExpr) -> int:
        lvec = self.encode_int(left)
        rvec = self.encode_int(right)
        width = max(lvec.width, rvec.width)
        lvec = self._extend(lvec, width)
        rvec = self._extend(rvec, width)
        gates = self._gates
        return gates.AND([gates.IFF(a, b) for a, b in zip(lvec.bits, rvec.bits)])

    def _encode_lt(self, left: T.IntExpr, right: T.IntExpr) -> int:
        return self._lt_literal(self.encode_int(left), self.encode_int(right))

    def _lt_literal(self, lvec: BitVector, rvec: BitVector) -> int:
        """Signed ``lvec < rvec`` as a literal."""
        width = max(lvec.width, rvec.width)
        lvec = self._extend(lvec, width)
        rvec = self._extend(rvec, width)
        gates = self._gates
        # Iterating LSB -> MSB, ``lt`` holds "lvec < rvec on the bits seen so
        # far": bit i decides when a_i != b_i (then lt = b_i), else the lower
        # bits decide.  That is exactly MAJ(-a_i, b_i, lt), one gate per bit.
        lt = gates.false_literal()
        for a, b in zip(lvec.bits[:-1], rvec.bits[:-1]):
            lt = gates.MAJ(-a, b, lt)
        # The sign bit weighs -2^(w-1): a set sign bit makes its side smaller,
        # so the same step runs with both polarities swapped.  Two constant
        # zero sign bits (non-negative operands) fold the step away.
        return gates.MAJ(lvec.sign_bit(), -rvec.sign_bit(), lt)
