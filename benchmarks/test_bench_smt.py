"""Benchmarks of the exact SMT backend (the paper's ⌛ column).

The paper reports Z3 solving times ranging from sub-second (small codes) to
hundreds of hours (large codes).  With a pure-Python SAT core the same
encoding is exercised here on reduced-but-structurally-identical instances;
the benchmark also cross-checks the optimal stage counts against the
architecture's shielding behaviour (storage zone => extra transfer stage),
pits the incremental minimum-stage search against a fresh one-shot
encoding per horizon,
certifies that both horizon orders reach the same optima without ever
probing the structured witness's own stage count, pins linear's paper-tier
search on the Steane code, and races the
flat-array CDCL core against the preserved seed implementation
(propagation-throughput microbench).
"""

import pytest

from repro.arch import reduced_layout
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import SMTScheduler
from repro.core.validator import validate_schedule
from repro.evaluation.runner import REDUCED_LAYOUT_KWARGS, SMT_INSTANCES
from repro.sat.bench import DEFAULT_CELLS, run_microbench

INSTANCES = SMT_INSTANCES


def bench_layout(kind):
    return reduced_layout(kind, **REDUCED_LAYOUT_KWARGS)


def bench_problem(kind, instance_name):
    num_qubits, gates = INSTANCES[instance_name]
    return SchedulingProblem.from_gates(bench_layout(kind), num_qubits, gates)


@pytest.mark.parametrize("strategy", ["linear", "bisection"])
@pytest.mark.parametrize("layout_kind", ["none", "bottom"])
@pytest.mark.parametrize("instance_name", list(INSTANCES))
def test_bench_smt_optimal_scheduling(benchmark, strategy, layout_kind, instance_name):
    """Time the full optimal solve of a small instance, per strategy."""
    problem = bench_problem(layout_kind, instance_name)
    scheduler = SMTScheduler(time_limit_per_instance=120, strategy=strategy)

    def solve():
        return scheduler.schedule(problem)

    report = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert report.found
    assert report.optimal
    assert report.strategy == strategy
    assert report.lower_bound <= report.schedule.num_stages
    validate_schedule(report.schedule, require_shielding=problem.shielding)


def test_bench_smt_shielding_costs_one_stage(benchmark):
    """The zoned architecture needs exactly one more stage on the chained
    instance (the Fig. 2 shielding behaviour)."""

    def compare():
        results = {}
        for kind in ("none", "bottom"):
            problem = SchedulingProblem.from_gates(
                bench_layout(kind), 3, [(0, 1), (1, 2)]
            )
            scheduler = SMTScheduler(time_limit_per_instance=120)
            results[kind] = scheduler.schedule(problem)
        return results

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    unshielded = results["none"].schedule
    shielded = results["bottom"].schedule
    assert unshielded.num_stages == 2
    assert shielded.num_stages == 3
    assert shielded.num_transfer_stages == unshielded.num_transfer_stages + 1


def test_bench_smt_incremental_beats_coldstart(benchmark):
    """The incremental engine must win on a multi-horizon walk while
    answering every horizon identically, with a validator-clean extraction.

    The v2 analytic bounds certify most suite cells within one or two
    horizons, where incrementality has nothing to amortise; the comparison
    therefore drives the seed-era walk (every horizon from 2 to the
    triangle's optimum of 5) explicitly through the shared context versus a
    fresh one-shot encoding per horizon.
    """
    import time

    from repro.core.encoding import encode_problem
    from repro.core.strategies import SearchLimits
    from repro.core.strategies.base import SearchContext
    from repro.smt import CheckResult

    problem = bench_problem("bottom", "triangle")
    horizons = [2, 3, 4, 5]

    def run(incremental):
        start = time.perf_counter()
        answers = []
        context = SearchContext(problem, SearchLimits(time_limit=120))
        for horizon in horizons:
            if incremental:
                answers.append(context.decide(horizon))
            else:
                instance = encode_problem(problem, horizon)
                answers.append(instance.check(time_limit=120))
        if incremental:
            schedule = context.extract(horizons[-1])
            validate_schedule(schedule, require_shielding=problem.shielding)
            assert schedule.num_stages == 5
        return time.perf_counter() - start, answers

    def compare():
        return {"incremental": run(True), "coldstart": run(False)}

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    incremental_seconds, incremental_answers = results["incremental"]
    coldstart_seconds, coldstart_answers = results["coldstart"]
    assert incremental_answers == coldstart_answers
    assert incremental_answers[-1] is CheckResult.SAT
    assert incremental_seconds < coldstart_seconds, (
        f"incremental walk took {incremental_seconds:.2f}s, "
        f"cold-start {coldstart_seconds:.2f}s"
    )


def test_bench_smt_orders_stop_below_the_witness(benchmark):
    """Bound-driven search under the v2 analytic bounds: cells whose
    interval closes analytically (LB == UB) certify with ZERO probes, open
    cells stay within the binary-search budget ``ceil(log2(width + 1))``,
    and neither order probes at or above the structured witness.  Linear
    walks up from the lower bound and stops at the optimum or just below
    the witness, so across the suite it probes fewer horizons than
    bisection, whose midpoint probes above the optimum."""

    def run(strategy):
        reports = {}
        scheduler = SMTScheduler(time_limit_per_instance=120, strategy=strategy)
        for layout_kind in ("none", "bottom"):
            for name in INSTANCES:
                problem = bench_problem(layout_kind, name)
                reports[(layout_kind, name)] = scheduler.schedule(problem)
        return reports

    def compare():
        return {"linear": run("linear"), "bisection": run("bisection")}

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    closed_cells = 0
    for key, linear in results["linear"].items():
        bisection = results["bisection"][key]
        assert linear.found and linear.optimal
        assert bisection.found and bisection.optimal
        # Identical certified optima on every benchmark instance.
        assert linear.schedule.num_stages == bisection.schedule.num_stages, key
        assert bisection.lower_bound == linear.lower_bound
        assert bisection.upper_bound is not None
        assert bisection.upper_bound == linear.upper_bound
        assert bisection.upper_bound >= bisection.schedule.num_stages
        for report in (linear, bisection):
            assert all(h < report.upper_bound for h in report.stages_tried), key
        last = min(linear.schedule.num_stages, linear.upper_bound - 1)
        assert linear.stages_tried == list(range(linear.lower_bound, last + 1)), key
        width = bisection.upper_bound - bisection.lower_bound
        if width == 0:
            closed_cells += 1
            assert bisection.num_horizons == linear.num_horizons == 0, (
                f"{key}: closed interval still probed {bisection.stages_tried}"
            )
        else:
            budget = width.bit_length()  # ceil(log2(width + 1))
            assert bisection.num_horizons <= budget, (
                f"{key}: bisection probed {bisection.stages_tried} on a "
                f"width-{width} interval"
            )
    assert closed_cells > 0, "suite lost its analytically-closed instances"
    linear_total = sum(r.num_horizons for r in results["linear"].values())
    bisection_total = sum(r.num_horizons for r in results["bisection"].values())
    assert linear_total < bisection_total, (
        f"linear probed {linear_total} horizons across the suite vs "
        f"bisection's {bisection_total}"
    )


def test_bench_smt_linear_pins_steane_paper_labels(benchmark):
    """Linear on the Steane |0>_L circuit in the paper's labels on Layout 2:
    the witness bounds the interval at 12 stages, and the search refutes 3
    and 4 and certifies 5 on one incremental instance.  The flat core is
    deterministic, so probes, conflicts and formula size repeat exactly."""
    from repro.arch import bottom_storage_layout
    from repro.qec import get_code
    from repro.qec.state_prep import state_preparation_circuit

    prep = state_preparation_circuit(get_code("steane"))
    problem = SchedulingProblem.from_gates(
        bottom_storage_layout(), prep.num_qubits, prep.cz_gates
    )
    report = benchmark.pedantic(
        SMTScheduler(strategy="linear").schedule, args=(problem,), rounds=1, iterations=1
    )
    assert report.optimal and report.schedule.num_stages == 5
    assert report.stages_tried == [3, 4, 5]
    assert report.upper_bound == 12
    assert report.statistics["sat_conflicts"] == 4_335
    assert report.statistics["sat_variables"] == 18_878


# --------------------------------------------------------------------------- #
# Flat-array CDCL core vs the preserved seed reference
# --------------------------------------------------------------------------- #
def test_bench_smt_propagation_throughput_microbench(benchmark):
    """The flat-array rewrite must beat the seed CDCL loop on every smoke
    formula (bottom/triangle and bottom/chain-2 probes): strictly faster
    wall-clock AND strictly higher propagation throughput, with identical
    SAT/UNSAT answers.

    Reading the output: each cell reports flat/reference seconds, the
    ``speedup`` (reference/flat wall-clock) and the ``throughput_ratio``
    (flat props/s over reference props/s); both must stay > 1.0 — the
    ``repro-nasp microbench`` CLI prints the same table and CI fails on the
    first cell at or below parity.
    """
    document = benchmark.pedantic(run_microbench, rounds=1, iterations=1)
    assert len(document["cells"]) == len(DEFAULT_CELLS)
    for cell in document["cells"]:
        name = f"{cell['layout']}/{cell['instance']}@{cell['num_stages']}"
        assert cell["flat"]["result"] == cell["reference"]["result"], name
        assert cell["speedup"] > 1.0, (
            f"{name}: flat core no longer strictly faster "
            f"(flat {cell['flat']['seconds']:.3f}s vs "
            f"reference {cell['reference']['seconds']:.3f}s)"
        )
        assert cell["throughput_ratio"] > 1.0, (
            f"{name}: flat propagation throughput regressed "
            f"({cell['flat']['propagations_per_second']:,.0f} vs "
            f"{cell['reference']['propagations_per_second']:,.0f} props/s)"
        )
    assert document["candidate_faster_everywhere"]
