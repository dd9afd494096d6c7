"""A quantifier-free finite-domain SMT layer.

This package plays the role Z3 plays in the paper: it accepts formulas over
booleans and *bounded* integers (the only theory the scheduling encoding
needs) and decides them by bit-blasting onto the CDCL solver in
:mod:`repro.sat`.

The API intentionally mirrors the small subset of the Z3 Python bindings used
by SMT-based compilation passes::

    from repro.smt import Solver, And, Or, Not, Implies, If

    solver = Solver()
    x = solver.int_var("x", 0, 7)
    y = solver.int_var("y", 0, 7)
    b = solver.bool_var("b")
    solver.add(Implies(b, x + 1 < y))
    solver.add(Or(b, x == y))
    if solver.check().is_sat():
        model = solver.model()
        print(model[x], model[y], model[b])
"""

from repro.smt.terms import (
    And,
    BoolConst,
    BoolExpr,
    BoolVar,
    If,
    Iff,
    Implies,
    IntConst,
    IntExpr,
    IntVar,
    Not,
    Or,
    Distinct,
)
from repro.smt.solver import CheckResult, Model, Solver

__all__ = [
    "And",
    "BoolConst",
    "BoolExpr",
    "BoolVar",
    "CheckResult",
    "Distinct",
    "If",
    "Iff",
    "Implies",
    "IntConst",
    "IntExpr",
    "IntVar",
    "Model",
    "Not",
    "Or",
    "Solver",
]
