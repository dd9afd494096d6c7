"""Tests for the Tseitin gate encoder."""

import itertools

import pytest

from repro.sat import CNF, CDCLSolver, SolveResult, TseitinEncoder


def all_models(solver_factory, n_inputs):
    """Yield all combinations of input truth values."""
    return itertools.product([False, True], repeat=n_inputs)


def check_gate(gate_builder, reference, n_inputs):
    """Verify that a Tseitin gate matches its truth-table *reference*.

    For every input combination the gate output is forced to both
    polarities; exactly the polarity agreeing with the reference function
    must be satisfiable.
    """
    for bits in itertools.product([False, True], repeat=n_inputs):
        for forced in (True, False):
            solver = CDCLSolver()
            enc = TseitinEncoder(solver)
            inputs = [solver.new_var() for _ in range(n_inputs)]
            out = gate_builder(enc, inputs)
            for var, value in zip(inputs, bits):
                solver.add_clause([var if value else -var])
            solver.add_clause([out if forced else -out])
            result = solver.solve()
            expected = reference(*bits) == forced
            assert (result is SolveResult.SAT) == expected, (bits, forced)


def test_and_gate_truth_table():
    check_gate(lambda enc, ins: enc.AND(ins), lambda a, b: a and b, 2)


def test_and_gate_three_inputs():
    check_gate(lambda enc, ins: enc.AND(ins), lambda a, b, c: a and b and c, 3)


def test_or_gate_truth_table():
    check_gate(lambda enc, ins: enc.OR(ins), lambda a, b: a or b, 2)


def test_xor_gate_truth_table():
    check_gate(lambda enc, ins: enc.XOR(ins[0], ins[1]), lambda a, b: a != b, 2)


def test_iff_gate_truth_table():
    check_gate(lambda enc, ins: enc.IFF(ins[0], ins[1]), lambda a, b: a == b, 2)


def test_implies_gate_truth_table():
    check_gate(
        lambda enc, ins: enc.IMPLIES(ins[0], ins[1]), lambda a, b: (not a) or b, 2
    )


def test_ite_gate_truth_table():
    check_gate(
        lambda enc, ins: enc.ITE(ins[0], ins[1], ins[2]),
        lambda c, t, e: t if c else e,
        3,
    )


def test_not_gate():
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    v = cnf.new_var()
    assert enc.NOT(v) == -v
    assert enc.NOT(-v) == v


def test_constant_literals():
    solver = CDCLSolver()
    enc = TseitinEncoder(solver)
    t = enc.true_literal()
    f = enc.false_literal()
    assert f == -t
    solver.add_clause([t])
    assert solver.solve() is SolveResult.SAT
    assert solver.model()[abs(t)] is True


def test_and_with_empty_input_is_true():
    solver = CDCLSolver()
    enc = TseitinEncoder(solver)
    out = enc.AND([])
    solver.add_clause([out])
    assert solver.solve() is SolveResult.SAT


def test_and_with_contradictory_inputs_is_false():
    solver = CDCLSolver()
    enc = TseitinEncoder(solver)
    v = solver.new_var()
    out = enc.AND([v, -v])
    solver.add_clause([out])
    assert solver.solve() is SolveResult.UNSAT


def test_gate_caching_reuses_output():
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    a, b = cnf.new_var(), cnf.new_var()
    out1 = enc.AND([a, b])
    out2 = enc.AND([b, a])
    assert out1 == out2


def test_ite_same_branches_shortcut():
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    c, x = cnf.new_var(), cnf.new_var()
    assert enc.ITE(c, x, x) == x


def test_assert_true_and_clause():
    solver = CDCLSolver()
    enc = TseitinEncoder(solver)
    a, b = solver.new_var(), solver.new_var()
    enc.assert_true(a)
    enc.assert_clause([-a, b])
    assert solver.solve() is SolveResult.SAT
    model = solver.model()
    assert model[a] and model[b]


def test_maj_gate_truth_table():
    check_gate(
        lambda enc, ins: enc.MAJ(ins[0], ins[1], ins[2]),
        lambda a, b, c: a + b + c >= 2,
        3,
    )


def test_maj_gate_is_one_variable_and_six_clauses():
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
    out = enc.MAJ(a, b, c)
    assert (cnf.num_vars, cnf.num_clauses) == (4, 6)
    assert enc.MAJ(c, a, b) == out
    assert (cnf.num_vars, cnf.num_clauses) == (4, 6)


GATES = {
    "IFF": (lambda enc, a, b: enc.IFF(a, b), lambda a, b: a == b, 2),
    "XOR": (lambda enc, a, b: enc.XOR(a, b), lambda a, b: a != b, 2),
    "ITE": (lambda enc, c, t, e: enc.ITE(c, t, e), lambda c, t, e: t if c else e, 3),
    "MAJ": (lambda enc, a, b, c: enc.MAJ(a, b, c), lambda a, b, c: a + b + c >= 2, 3),
}

CONSTANT_CASES = [
    (name, position, value)
    for name, (_, _, arity) in GATES.items()
    for position in range(arity)
    for value in (False, True)
]


def _with_constant(enc, inputs, position, value):
    constant = enc.true_literal() if value else enc.false_literal()
    return inputs[:position] + [constant] + inputs[position:]


@pytest.mark.parametrize("name,position,value", CONSTANT_CASES)
def test_gate_with_a_constant_input_keeps_its_truth_table(name, position, value):
    build, reference, arity = GATES[name]
    check_gate(
        lambda enc, ins: build(enc, *_with_constant(enc, list(ins), position, value)),
        lambda *bits: reference(*bits[:position], value, *bits[position:]),
        arity - 1,
    )


@pytest.mark.parametrize("name,position,value", CONSTANT_CASES)
def test_gate_with_a_constant_input_folds(name, position, value):
    """A constant input never costs a gate of the kind asked for: IFF/XOR
    and a constant ITE condition fold to an input literal, a constant ITE
    branch or MAJ input to the (cached) AND/OR of the other two."""
    build, _, arity = GATES[name]
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    free = [cnf.new_var() for _ in range(arity - 1)]
    args = _with_constant(enc, free, position, value)
    num_vars = cnf.num_vars
    out = build(enc, *args)
    if name in ("IFF", "XOR") or (name == "ITE" and position == 0):
        assert cnf.num_vars == num_vars
        assert abs(out) in free
        return
    x, y = free
    if name == "MAJ":
        expected = enc.OR([x, y]) if value else enc.AND([x, y])
    elif position == 1:
        expected = enc.OR([x, y]) if value else enc.AND([-x, y])
    else:
        expected = enc.OR([-x, y]) if value else enc.AND([x, y])
    assert out == expected
    assert cnf.num_vars == num_vars + 1


def test_ite_with_opposite_branches_is_an_iff():
    check_gate(
        lambda enc, ins: enc.ITE(ins[0], ins[1], -ins[1]), lambda c, x: c == x, 2
    )
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    c, x = cnf.new_var(), cnf.new_var()
    assert enc.ITE(c, x, -x) == enc.IFF(c, x)
    assert enc.ITE(c, -x, x) == -enc.IFF(c, x)
    assert cnf.num_vars == 3


@pytest.mark.parametrize(
    "inputs,expected",
    [
        (lambda a, b: (a, a, b), lambda a, b: a),
        (lambda a, b: (b, a, b), lambda a, b: b),
        (lambda a, b: (a, -a, b), lambda a, b: b),
        (lambda a, b: (a, b, -b), lambda a, b: a),
        (lambda a, b: (-b, a, b), lambda a, b: a),
    ],
)
def test_maj_with_equal_or_opposite_inputs_folds(inputs, expected):
    cnf = CNF()
    enc = TseitinEncoder(cnf)
    a, b = cnf.new_var(), cnf.new_var()
    assert enc.MAJ(*inputs(a, b)) == expected(a, b)
    assert (cnf.num_vars, cnf.num_clauses) == (2, 0)
