"""End-to-end tests of the graceful-degradation contract.

The contract (PR 8's tentpole): on deadline expiry or backend failure a
strategy never raises and never loses work — the report carries

* a ``termination`` verdict (``certified`` / ``deadline`` / ``infeasible``
  / ``backend-error``),
* the best-known witness (the validated structured schedule, or the last
  SAT model reached), and
* a *sound* interval: completed UNSAT probes lift the lower bound
  (``UNSAT at S`` proves the optimum is ``>= S + 1``), while UNKNOWN
  probes lift nothing.

The triangle on the reduced bottom-storage layout is the canonical
non-degenerate instance: analytic lower bound 4, certified optimum 5,
structured witness 7 — so the search interval is real, every degradation
path has work to lose, and every bound claim can be checked against the
known optimum.
"""

import itertools

import pytest

from repro.arch import reduced_layout
from repro.core.budget import Deadline
from repro.core.problem import SchedulingProblem
from repro.core.report import (
    TERMINATION_BACKEND_ERROR,
    TERMINATION_CERTIFIED,
    TERMINATION_DEADLINE,
    TERMINATION_INFEASIBLE,
    TERMINATIONS,
)
from repro.core.scheduler import SMTScheduler
from repro.core.validator import validate_schedule
from repro.sat.chaos import ChaosBackend
from repro.sat.solver import SolveResult

#: Every search strategy under test.
STRATEGIES = ("linear", "bisection")

#: The certified optimum of the triangle on the reduced bottom layout.
TRIANGLE_OPTIMUM = 5


def triangle_problem():
    layout = reduced_layout("bottom", x_max=2, h_max=1, v_max=1, c_max=2, r_max=2)
    return SchedulingProblem.from_gates(layout, 3, [(0, 1), (1, 2), (0, 2)])


def assert_sound(report, problem):
    """The interval any degraded report claims must contain the optimum."""
    assert report.lower_bound <= TRIANGLE_OPTIMUM
    if report.upper_bound is not None:
        assert report.upper_bound >= TRIANGLE_OPTIMUM
    if report.schedule is not None:
        validate_schedule(report.schedule, require_shielding=problem.shielding)
        assert report.schedule.num_stages >= TRIANGLE_OPTIMUM
    assert report.termination in TERMINATIONS


# --------------------------------------------------------------------------- #
# Deadline expiry
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_expired_deadline_degrades_every_strategy_to_a_witness(strategy):
    """The acceptance contract: a too-short deadline yields
    ``termination="deadline"`` with a valid fallback schedule and a sound
    interval — never an exception, never a lost witness."""
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, deadline=0.0).schedule(problem)
    assert report.termination == TERMINATION_DEADLINE
    assert not report.optimal
    assert report.found  # the structured witness survives as the schedule
    assert report.schedule.metadata["optimal"] is False
    assert_sound(report, problem)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generous_deadline_still_certifies(strategy):
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, deadline=300.0).schedule(problem)
    assert report.termination == TERMINATION_CERTIFIED
    assert report.optimal
    assert report.schedule.num_stages == TRIANGLE_OPTIMUM


def test_per_call_deadline_overrides_the_constructor_budget():
    problem = triangle_problem()
    scheduler = SMTScheduler(strategy="bisection", deadline=300.0)
    report = scheduler.schedule(problem, deadline=0.0)
    assert report.termination == TERMINATION_DEADLINE
    # An already-ticking Deadline instance is accepted too (service-layer
    # request budgets spanning several solves).
    report = scheduler.schedule(problem, deadline=Deadline.after(0.0))
    assert report.termination == TERMINATION_DEADLINE


def test_negative_deadline_is_rejected_eagerly():
    with pytest.raises(ValueError, match="non-negative"):
        SMTScheduler(deadline=-1.0)


def test_mid_search_expiry_keeps_unsat_lifted_bounds(monkeypatch):
    """A deadline expiring mid-bisection must keep the bounds the completed
    probes *proved* — and nothing more.  A stepping clock expires the
    deadline after the first probe window, so the search ends with at most
    one decided horizon; whatever interval the report claims must still
    contain the optimum."""

    class SteppingClock:
        def __init__(self, step):
            self.now = 0.0
            self.step = step

        def __call__(self):
            self.now += self.step
            return self.now

    problem = triangle_problem()
    scheduler = SMTScheduler(strategy="bisection")
    report = scheduler.schedule(
        problem, deadline=Deadline.after(3.0, clock=SteppingClock(1.0))
    )
    assert report.termination == TERMINATION_DEADLINE
    assert report.found
    assert_sound(report, problem)


# --------------------------------------------------------------------------- #
# Chaos: transient faults, retry exhaustion, permanent crashes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_transient_only_faults_certify_the_fault_free_optimum(
    strategy, monkeypatch
):
    """With every solve preceded by exactly one retryable transient fault
    (rate 1.0, consecutive cap 1 <= retry budget), the chaos run must
    certify the same optimum as the fault-free backend and account for the
    retries it burned."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "seed=7,transient=1.0,consecutive=1")
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, sat_backend="chaos:flat").schedule(problem)
    baseline = SMTScheduler(strategy=strategy, sat_backend="flat").schedule(
        triangle_problem()
    )
    assert report.termination == TERMINATION_CERTIFIED
    assert report.optimal
    assert report.schedule.num_stages == baseline.schedule.num_stages
    assert report.statistics["backend_retries"] > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_retries_add_up_over_probes(strategy, monkeypatch):
    """Every probe is one solve on the search's one backend, and every
    solve meets exactly one transient fault: the report counts one retry
    per decided horizon."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "seed=7,transient=1.0,consecutive=1")
    report = SMTScheduler(strategy=strategy, sat_backend="chaos:flat").schedule(
        triangle_problem()
    )
    assert report.termination == TERMINATION_CERTIFIED
    assert report.num_horizons == len(report.stages_tried) > 1
    assert report.statistics["backend_retries"] == report.num_horizons


def test_retry_exhaustion_degrades_with_the_analytic_interval(monkeypatch):
    """A transient streak longer than the retry budget is effectively
    permanent: ``termination="backend-error"``, the analytic interval
    intact, and the structured witness as the fallback schedule."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "transient=1.0,consecutive=10")
    problem = triangle_problem()
    report = SMTScheduler(strategy="bisection", sat_backend="chaos:flat").schedule(
        problem
    )
    assert report.termination == TERMINATION_BACKEND_ERROR
    assert not report.optimal
    assert report.found
    # No probe completed, so the analytic certificates stand untouched.
    assert report.lower_bound == problem.lower_bound()
    assert report.upper_bound == report.schedule.num_stages
    assert_sound(report, problem)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_permanent_crash_mid_search_keeps_completed_probe_bounds(
    strategy, monkeypatch
):
    """A backend dying after its first solve ends the search with
    ``backend-error`` — and the horizons decided *before* the crash still
    tighten the reported interval."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "crash-after=1")
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, sat_backend="chaos:flat").schedule(problem)
    assert report.termination == TERMINATION_BACKEND_ERROR
    assert not report.optimal
    assert report.found
    assert_sound(report, problem)


def test_linear_crash_after_unsat_probe_lifts_the_lower_bound(monkeypatch):
    """Linear probes the analytic lower bound (4, UNSAT) first; a crash on
    the next solve must keep that refutation: the reported lower bound
    rises to 5 with probe provenance."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "crash-after=1")
    problem = triangle_problem()
    report = SMTScheduler(strategy="linear", sat_backend="chaos:flat").schedule(
        problem
    )
    assert report.termination == TERMINATION_BACKEND_ERROR
    assert report.lower_bound == TRIANGLE_OPTIMUM
    assert report.lower_bound_source.endswith("+unsat-probes")


# --------------------------------------------------------------------------- #
# UNKNOWN probes never refute (the soundness regression tests)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_unknown_probes_never_lift_the_lower_bound(strategy, monkeypatch):
    """The soundness invariant: an UNKNOWN probe at S must not be treated
    as a refuted horizon.  With every probe forced to UNKNOWN the search
    decides nothing, so the reported lower bound must stay exactly the
    analytic one (no ``+unsat-probes`` provenance) and the report must not
    claim infeasibility or optimality."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "unknown=1.0")
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, sat_backend="chaos:flat").schedule(problem)
    assert report.termination == TERMINATION_DEADLINE  # degraded, not refuted
    assert report.termination != TERMINATION_INFEASIBLE
    assert not report.optimal
    assert report.lower_bound == problem.lower_bound()
    assert "unsat-probes" not in (report.lower_bound_source or "")
    assert_sound(report, problem)


#: The horizons each single search probes on the triangle when its first
#: probe comes back UNKNOWN: linear steps from the analytic bound 4 to the
#: optimum 5; bisection halves [4, 7] (the witness's 7) at 5, then at 6.
UNKNOWN_FIRST_PROBES = {
    "linear": [4, 5],
    "bisection": [5, 6],
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sat_model_after_an_unknown_probe_bounds_from_above(strategy, monkeypatch):
    """A SAT model reached after an undecided horizon is not certified
    minimal, but it is a schedule: the report ends ``deadline`` with that
    model as its schedule and its stage count as a ``sat-probe`` upper
    bound, while the UNKNOWN probe lifts nothing."""
    monkeypatch.setenv("REPRO_CHAOS_SPEC", "seed=0")
    # The search's first solve is undecided, the rest run for real.
    solves = itertools.count()
    solve = ChaosBackend.solve

    def first_solve_unknown(self, *args, **kwargs):
        if next(solves) == 0:
            return SolveResult.UNKNOWN
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ChaosBackend, "solve", first_solve_unknown)
    problem = triangle_problem()
    report = SMTScheduler(strategy=strategy, sat_backend="chaos:flat").schedule(problem)
    assert report.stages_tried == UNKNOWN_FIRST_PROBES[strategy]
    assert report.termination == TERMINATION_DEADLINE
    assert not report.optimal
    assert report.schedule.metadata["backend"] == "smt"
    assert report.schedule.metadata["optimal"] is False
    assert report.schedule.num_stages == report.stages_tried[-1]
    assert report.upper_bound == report.schedule.num_stages
    assert report.upper_bound_source == "sat-probe"
    assert report.lower_bound == problem.lower_bound()
    assert_sound(report, problem)


def test_mixed_unknown_and_unsat_probes_stay_sound(monkeypatch):
    """Fuzz the invariant across seeds: whatever mix of UNKNOWN answers a
    seed produces, a claimed-optimal report must name the true optimum and
    a degraded report's interval must contain it."""
    problem = triangle_problem()
    for seed in range(6):
        monkeypatch.setenv("REPRO_CHAOS_SPEC", f"seed={seed},unknown=0.5")
        report = SMTScheduler(
            strategy="bisection", sat_backend="chaos:flat"
        ).schedule(triangle_problem())
        if report.optimal:
            assert report.schedule.num_stages == TRIANGLE_OPTIMUM
            assert report.termination == TERMINATION_CERTIFIED
        else:
            assert report.termination == TERMINATION_DEADLINE
        assert_sound(report, problem)
