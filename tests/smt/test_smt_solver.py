"""End-to-end tests of the SMT solver (bit-blasting + CDCL)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import If, Iff, Implies, Not, Or, Solver, CheckResult
from repro.smt import at_most_one, exactly_one


def test_simple_int_constraints():
    solver = Solver()
    x = solver.int_var("x", 0, 7)
    y = solver.int_var("y", 0, 7)
    solver.add(x + 2 == y, x > 3)
    assert solver.check().is_sat()
    model = solver.model()
    assert model[y] == model[x] + 2
    assert model[x] > 3


def test_unsatisfiable_bounds():
    solver = Solver()
    x = solver.int_var("x", 0, 3)
    solver.add(x > 5)
    assert solver.check().is_unsat()


def test_negative_domains():
    solver = Solver()
    x = solver.int_var("x", -4, 4)
    y = solver.int_var("y", -4, 4)
    solver.add(x < -1, y == x + 3, y <= 1)
    assert solver.check().is_sat()
    model = solver.model()
    assert model[x] < -1
    assert model[y] == model[x] + 3


def test_absolute_difference():
    solver = Solver()
    x = solver.int_var("x", 0, 6)
    y = solver.int_var("y", 0, 6)
    solver.add(abs(x - y) < 2, x >= 4, y <= 3)
    assert solver.check().is_sat()
    model = solver.model()
    assert abs(model[x] - model[y]) < 2


def test_absolute_difference_unsat():
    solver = Solver()
    x = solver.int_var("x", 0, 6)
    y = solver.int_var("y", 0, 6)
    solver.add(abs(x - y) < 2, x >= 5, y <= 2)
    assert solver.check().is_unsat()


def test_boolean_and_integer_mix():
    solver = Solver()
    a = solver.bool_var("a")
    x = solver.int_var("x", 0, 3)
    solver.add(Implies(a, x == 3), Implies(Not(a), x == 0), x >= 1)
    assert solver.check().is_sat()
    model = solver.model()
    assert model[a] is True
    assert model[x] == 3


def test_iff_between_bool_and_comparison():
    solver = Solver()
    a = solver.bool_var("a")
    x = solver.int_var("x", 0, 5)
    solver.add(Iff(a, x > 2), Not(a))
    assert solver.check().is_sat()
    assert solver.model()[x] <= 2


def test_ite_integer():
    solver = Solver()
    a = solver.bool_var("a")
    x = solver.int_var("x", 0, 5)
    y = solver.int_var("y", 0, 5)
    solver.add(y == If(a, x + 1, x - 1), x == 3, a)
    assert solver.check().is_sat()
    assert solver.model()[y] == 4


def test_model_before_check_raises():
    solver = Solver()
    solver.int_var("x", 0, 1)
    with pytest.raises(RuntimeError):
        solver.model()


def test_model_lookup_by_name():
    solver = Solver()
    x = solver.int_var("position", 0, 4)
    solver.add(x == 2)
    assert solver.check().is_sat()
    assert solver.model()["position"] == 2
    assert solver.model().get("missing") is None


def test_model_evaluate_expression():
    solver = Solver()
    x = solver.int_var("x", 0, 4)
    y = solver.int_var("y", 0, 4)
    solver.add(x == 1, y == 3)
    assert solver.check().is_sat()
    model = solver.model()
    assert model.evaluate(x + y) == 4
    assert model.evaluate(x < y) is True
    assert model.evaluate(abs(x - y)) == 2


def test_unused_variable_gets_a_value():
    solver = Solver()
    x = solver.int_var("x", 2, 6)
    solver.add(Or(True))
    assert solver.check().is_sat()
    assert 2 <= solver.model()[x] <= 6


def test_statistics_reported():
    solver = Solver()
    x = solver.int_var("x", 0, 7)
    solver.add(x == 5)
    solver.check()
    stats = solver.statistics()
    assert stats["sat_variables"] > 0
    assert stats["sat_clauses"] > 0


def test_cardinality_exactly_one():
    solver = Solver()
    flags = [solver.bool_var(f"f{i}") for i in range(4)]
    solver.add(exactly_one(flags))
    solver.add(Not(flags[0]), Not(flags[1]), Not(flags[2]))
    assert solver.check().is_sat()
    assert solver.model()[flags[3]] is True


def test_cardinality_at_most_one_violation():
    solver = Solver()
    flags = [solver.bool_var(f"f{i}") for i in range(3)]
    solver.add(at_most_one(flags), flags[0], flags[1])
    assert solver.check().is_unsat()


def test_all_different_grid():
    # Mini "placement" instance: 3 qubits at different sites in a 1D row.
    solver = Solver()
    positions = [solver.int_var(f"p{i}", 0, 2) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            solver.add(Not(positions[i] == positions[j]))
    assert solver.check().is_sat()
    values = sorted(solver.model()[p] for p in positions)
    assert values == [0, 1, 2]


def test_all_different_too_many_is_unsat():
    solver = Solver()
    positions = [solver.int_var(f"p{i}", 0, 1) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            solver.add(Not(positions[i] == positions[j]))
    assert solver.check().is_unsat()


def test_check_result_helpers():
    assert CheckResult.SAT.is_sat()
    assert not CheckResult.SAT.is_unsat()
    assert CheckResult.UNSAT.is_unsat()
    assert not CheckResult.UNKNOWN.is_sat()


@settings(max_examples=40, deadline=None)
@given(
    lo1=st.integers(min_value=-6, max_value=3),
    span1=st.integers(min_value=0, max_value=6),
    lo2=st.integers(min_value=-6, max_value=3),
    span2=st.integers(min_value=0, max_value=6),
    c=st.integers(min_value=-5, max_value=5),
)
def test_property_linear_constraints_match_enumeration(lo1, span1, lo2, span2, c):
    """x + c == y with bounded domains: SMT result matches brute force."""
    hi1, hi2 = lo1 + span1, lo2 + span2
    expected = any(
        x + c == y for x in range(lo1, hi1 + 1) for y in range(lo2, hi2 + 1)
    )
    solver = Solver()
    x = solver.int_var("x", lo1, hi1)
    y = solver.int_var("y", lo2, hi2)
    solver.add(x + c == y)
    result = solver.check()
    assert result.is_sat() == expected
    if result.is_sat():
        model = solver.model()
        assert model[x] + c == model[y]
        assert lo1 <= model[x] <= hi1
        assert lo2 <= model[y] <= hi2


@settings(max_examples=40, deadline=None)
@given(
    bound=st.integers(min_value=0, max_value=5),
    xmin=st.integers(min_value=-4, max_value=4),
    ymin=st.integers(min_value=-4, max_value=4),
)
def test_property_abs_difference_matches_enumeration(bound, xmin, ymin):
    xmax, ymax = xmin + 3, ymin + 3
    expected = any(
        abs(x - y) < bound
        for x in range(xmin, xmax + 1)
        for y in range(ymin, ymax + 1)
    )
    solver = Solver()
    x = solver.int_var("x", xmin, xmax)
    y = solver.int_var("y", ymin, ymax)
    solver.add(abs(x - y) < bound)
    result = solver.check()
    assert result.is_sat() == expected
    if result.is_sat():
        model = solver.model()
        assert abs(model[x] - model[y]) < bound


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_random_order_constraints(data):
    """Chains of < / <= / == constraints agree with brute-force enumeration."""
    n = data.draw(st.integers(min_value=2, max_value=4))
    lo = data.draw(st.integers(min_value=-3, max_value=0))
    hi = data.draw(st.integers(min_value=1, max_value=4))
    ops = [data.draw(st.sampled_from(["<", "<=", "=="])) for _ in range(n - 1)]

    def holds(values):
        for i, op in enumerate(ops):
            a, b = values[i], values[i + 1]
            if op == "<" and not a < b:
                return False
            if op == "<=" and not a <= b:
                return False
            if op == "==" and not a == b:
                return False
        return True

    expected = any(
        holds(vals) for vals in itertools.product(range(lo, hi + 1), repeat=n)
    )
    solver = Solver()
    variables = [solver.int_var(f"v{i}", lo, hi) for i in range(n)]
    for i, op in enumerate(ops):
        a, b = variables[i], variables[i + 1]
        if op == "<":
            solver.add(a < b)
        elif op == "<=":
            solver.add(a <= b)
        else:
            solver.add(a == b)
    result = solver.check()
    assert result.is_sat() == expected
    if result.is_sat():
        model = solver.model()
        assert holds([model[v] for v in variables])


# --------------------------------------------------------------------------- #
# Model enumeration against Python: every model the bit-blaster admits, and
# only those.  Domains start at 0 (constant sign bit, no lower comparator),
# above 0 (constant sign bit plus a lower comparator), below 0 (free sign
# bit), and include upper ends that are not 2^k - 1.
# --------------------------------------------------------------------------- #
DOMAINS = [(0, 3), (0, 2), (0, 5), (2, 5), (1, 6), (-3, 2), (-4, -1), (0, 0)]

DOMAIN_PAIRS = [
    ((0, 3), (0, 3)),
    ((0, 2), (0, 5)),
    ((2, 5), (1, 6)),
    ((-3, 2), (0, 5)),
    ((0, 2), (-4, -1)),
    ((1, 6), (-3, 2)),
]

RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "abs(-)": lambda a, b: abs(a - b),
    "abs(+)": lambda a, b: abs(a + b),
    "-(+)": lambda a, b: -(a + b),
}


def enumerate_models(solver, variables):
    """All value tuples of *variables* the solver admits, by blocking clauses."""
    found = set()
    while solver.check().is_sat():
        model = solver.model()
        values = tuple(model[v] for v in variables)
        assert values not in found
        found.add(values)
        solver.add(Or(*[v != value for v, value in zip(variables, values)]))
    return found


def domain(bounds):
    return range(bounds[0], bounds[1] + 1)


@pytest.mark.parametrize("bounds", DOMAINS)
def test_enumerated_domain_is_exactly_the_declared_range(bounds):
    solver = Solver()
    x = solver.int_var("x", *bounds)
    assert enumerate_models(solver, [x]) == {(v,) for v in domain(bounds)}


@pytest.mark.parametrize("bounds", DOMAINS)
def test_negation_and_abs_enumerate_like_python(bounds):
    solver = Solver()
    x = solver.int_var("x", *bounds)
    n = solver.int_var("n", -8, 8)
    a = solver.int_var("a", 0, 8)
    solver.add(n == -x, a == abs(x))
    assert enumerate_models(solver, [x, n, a]) == {
        (v, -v, abs(v)) for v in domain(bounds)
    }


@pytest.mark.parametrize("op", sorted(RELATIONS))
@pytest.mark.parametrize("xb,yb", DOMAIN_PAIRS)
def test_comparisons_enumerate_like_python(op, xb, yb):
    solver = Solver()
    x = solver.int_var("x", *xb)
    y = solver.int_var("y", *yb)
    solver.add(RELATIONS[op](x, y))
    expected = {
        (a, b) for a in domain(xb) for b in domain(yb) if RELATIONS[op](a, b)
    }
    assert enumerate_models(solver, [x, y]) == expected


@pytest.mark.parametrize("op", sorted(ARITHMETIC))
@pytest.mark.parametrize("xb,yb", DOMAIN_PAIRS)
def test_arithmetic_enumerates_like_python(op, xb, yb):
    solver = Solver()
    x = solver.int_var("x", *xb)
    y = solver.int_var("y", *yb)
    z = solver.int_var("z", -16, 16)
    solver.add(z == ARITHMETIC[op](x, y))
    expected = {
        (a, b, ARITHMETIC[op](a, b)) for a in domain(xb) for b in domain(yb)
    }
    assert enumerate_models(solver, [x, y, z]) == expected


@pytest.mark.parametrize("bounds", DOMAINS)
def test_comparisons_against_constants_enumerate_like_python(bounds):
    lo, hi = bounds
    for op, relation in RELATIONS.items():
        for c in range(lo - 2, hi + 3):
            for flipped in (False, True):
                solver = Solver()
                x = solver.int_var("x", lo, hi)
                solver.add(relation(c, x) if flipped else relation(x, c))
                expected = {
                    (v,)
                    for v in domain(bounds)
                    if (relation(c, v) if flipped else relation(v, c))
                }
                assert enumerate_models(solver, [x]) == expected, (op, c, flipped)


def test_bottom_triangle_encoding_size_is_pinned():
    """The bit-blaster's output on one reduced scheduling probe.  Constant
    sign bits on non-negative domains, folded gates and MAJ-based adders
    and comparators took it from 3,975 variables and 13,650 clauses to the
    numbers below; a change that re-inflates the encoding fails here."""
    from repro.sat.bench import scheduling_cnf

    cnf = scheduling_cnf(layout="bottom", instance="triangle", num_stages=4)
    assert (cnf.num_vars, cnf.num_clauses) == (2_210, 8_004)


@pytest.mark.parametrize(
    "instance, num_stages, size",
    [("triangle", 5, (2_805, 10_181)), ("chain-2", 3, (1_609, 5_796))],
)
def test_fixed_horizon_encoding_sizes_are_pinned(instance, num_stages, size):
    """More fixed-S formulas on the bottom layout, beside the pin above."""
    from repro.sat.bench import scheduling_cnf

    cnf = scheduling_cnf(layout="bottom", instance=instance, num_stages=num_stages)
    assert (cnf.num_vars, cnf.num_clauses) == size
