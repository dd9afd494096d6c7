"""The benchmark's workloads: run, time and check the program's outputs.

Each workload has an untraced run, which measures the end-to-end metrics,
and a traced run, which repeats the work under the layer wrappers of
``tracer.py`` for the per-layer metrics.  Every timed operation gets fresh
seeded inputs, so a run averages over as many relabelings as fit in it.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

import inputs
from hostspeed import HostSpeed

#: Percentile of ``hit_tail_s``, fixed so that at least ten samples lie
#: beyond it at the run length of ``BENCHMARK.json`` (about 170 zero-probe
#: solves per smoke-sweep run, thousands of warm service hits).  Higher
#: percentiles of the service hits swung by half between runs with the
#: host's speed.
TAIL_FRACTION = 0.90

#: Concurrent closed-loop callers of the service (the core count of the
#: machine the numbers were taken on) and sessions per run, each on a fresh
#: service with its own request stream.
SERVICE_CALLERS = 2
SERVICE_SESSIONS = 3

#: Seconds between host-speed samples during a service session.
SPEED_SAMPLE_INTERVAL_S = 0.25


@dataclass
class Outcome:
    """Result of one workload run: operation counts, metrics and detail."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def check(self, ok, message):
        """Count one checked operation; record *message* when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message):
        """Count an already attempted operation as failed after all."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def tail(values, fraction):
    """Nearest-rank *fraction* percentile and the number of samples beyond it."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index], len(ordered) - index - 1


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    """Peak resident set of this process and of its waited-for children.

    Read right after the workload, before the set-up probes start, so the
    children are the service's pool workers only.
    """
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------------- #
# Set-up (shared by the runs and by the fresh-interpreter set-up probes)
# --------------------------------------------------------------------------- #
def prepare(workload, seed):
    """Import the program and build the workload's inputs."""
    from repro.core import SMTScheduler

    if workload == "smoke-sweep":
        cells = inputs.smoke_cells()
        rng = random.Random(seed)
        return {
            "cells": cells,
            "rng": rng,
            "first": inputs.smoke_pass(cells, rng),
            "schedulers": {s: SMTScheduler(strategy=s) for s in inputs.SMOKE_STRATEGIES},
        }
    if workload == "service-mix":
        return {"catalogue": inputs.service_catalogue(), "seed": seed}
    if workload == "paper-steane":
        return {
            "doc": inputs.steane_doc(seed),
            "scheduler": SMTScheduler(strategy="bisection"),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------- #
# Library workloads: certified solves through the scheduler
# --------------------------------------------------------------------------- #
class _Solves:
    """Timings and checks of certified library solves.

    A solve is timed from the request document to the certified report
    (``problem_from_document``, then ``schedule()``), in reference seconds
    of *speed* (see ``hostspeed.py``).  A solve the analytic bounds certify
    without a SAT probe is the library's counterpart of a cache hit: no
    search runs.  Reports are kept only when *keep_reports* is set, for the
    layer values a traced run reads from them.
    """

    def __init__(self, speed, keep_reports=False):
        from repro.core.validator import validate_schedule

        # Bound before any tracer patches the module: the benchmark's own
        # check of a schedule is not the program's validation layer.
        self._validate = validate_schedule
        self.speed = speed
        self.reports = [] if keep_reports else None
        self.count = 0
        self.wall_s = 0.0  # raw schedule() seconds
        self.schedule_s = 0.0  # schedule(), reference seconds
        self.served_s = 0.0  # document -> report, reference seconds
        self.zero_probe = array("d")  # document -> report of zero-probe solves
        self.outside_search = array("d")  # the same minus the search, probing solves

    def solve(self, outcome, scheduler, label, expected, doc):
        from repro.core.validator import ValidationError
        from repro.service.server import problem_from_document

        self.speed.sample()
        start = time.perf_counter()
        problem = problem_from_document(doc)
        built = time.perf_counter()
        report = scheduler.schedule(problem)
        done = time.perf_counter()
        slowdown = self.speed.slowdown()
        self.count += 1
        self.wall_s += done - built
        self.schedule_s += (done - built) / slowdown
        self.served_s += (done - start) / slowdown
        if report.stages_tried:
            self.outside_search.append((done - start - report.solver_seconds) / slowdown)
        else:
            self.zero_probe.append((done - start) / slowdown)
        if self.reports is not None:
            self.reports.append(report)
        stages = report.schedule.num_stages if report.schedule is not None else None
        problems = []
        if report.termination != "certified" or not report.optimal:
            problems.append(f"termination={report.termination} optimal={report.optimal}")
        if stages != expected:
            problems.append(f"stages={stages} expected={expected}")
        if report.schedule is not None:
            try:
                self._validate(report.schedule, require_shielding=problem.shielding)
            except ValidationError as exc:
                problems.append(f"invalid schedule: {exc}")
        outcome.check(not problems, f"{label}: {'; '.join(problems)}")
        return report

    def metrics(self, outcome):
        hit_tail, beyond = tail(self.zero_probe, TAIL_FRACTION)
        outcome.metrics.update(
            solves_per_s=self.count / self.schedule_s,
            served_per_s=self.count / self.served_s,
            hit_p50_s=median(self.zero_probe),
            hit_tail_s=hit_tail,
            miss_wait_p50_s=median(self.outside_search),
        )
        outcome.detail.update(
            solves=self.count,
            zero_probe_solves=len(self.zero_probe),
            probing_solves=len(self.outside_search),
            schedule_raw_s=self.wall_s,
            hit_tail_percentile=TAIL_FRACTION,
            hits_beyond_tail=beyond,
            host=self.speed.summary(),
        )


def _record_reports(tracer, reports):
    """Per-report layer values the wrappers cannot see (summed)."""
    for report in reports:
        tracer.count("problem.lower_bound", report.lower_bound)
        if report.upper_bound is not None:
            tracer.count("structured.upper_bound", report.upper_bound)
        # The program's own whole-search figure, next to sat.search_s.
        tracer.count("sat.report_solve_s", report.statistics.get("solve_seconds", 0.0))


def _smoke_pass(state, outcome, solves, batch):
    """One pass: 26 certified solves."""
    for label, expected, strategy, doc in batch:
        solves.solve(outcome, state["schedulers"][strategy], label, expected, doc)


def _smoke_passes(state, outcome, seconds, plain, traced=None, tracer=None):
    """Warm up on the first pass, then fresh passes until *seconds* are spent.

    With *tracer*, each pass also runs a second time under the tracer (into
    *traced*), so every traced solve has an untraced twin.
    """
    _smoke_pass(state, outcome, _Solves(plain.speed), state["first"])  # warm-up: not timed
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = inputs.smoke_pass(state["cells"], state["rng"])
        _smoke_pass(state, outcome, plain, batch)
        if tracer is not None:
            with tracer:
                _smoke_pass(state, outcome, traced, batch)
        passes += 1
    outcome.detail.update(passes=passes)


def run_smoke_sweep(state, seconds):
    outcome = Outcome()
    solves = _Solves(HostSpeed())
    _smoke_passes(state, outcome, seconds, solves)
    solves.metrics(outcome)
    return outcome


def run_smoke_traced(state, seconds, tracer):
    outcome = Outcome()
    speed = HostSpeed()
    plain, traced = _Solves(speed), _Solves(speed, keep_reports=True)
    _smoke_passes(state, outcome, seconds, plain, traced, tracer)
    _record_reports(tracer, traced.reports)
    return outcome, {
        "timed_wall_s": traced.wall_s,
        "overhead_frac": traced.schedule_s / plain.schedule_s - 1.0,
    }


def _steane_detail(outcome, report):
    outcome.detail.update(
        stages_tried=report.stages_tried,
        lower_bound=report.lower_bound,
        upper_bound=report.upper_bound,
    )


def run_paper_steane(state, seconds):
    """One certified bisection solve of Steane on Layout 2 (*seconds* unused).

    ``certify_s`` is raw seconds: the single solve leaves no room for
    host-speed samples next to it.
    """
    outcome = Outcome()
    solves = _Solves(HostSpeed())
    report = solves.solve(
        outcome, state["scheduler"], "steane", inputs.STEANE_OPTIMUM, state["doc"]
    )
    outcome.metrics["certify_s"] = solves.wall_s
    _steane_detail(outcome, report)
    return outcome


def run_paper_steane_traced(state, seconds, tracer):
    """The Steane solve untraced, then again under the tracer."""
    outcome = Outcome()
    speed = HostSpeed()
    plain, traced = _Solves(speed), _Solves(speed, keep_reports=True)
    args = (outcome, state["scheduler"], "steane", inputs.STEANE_OPTIMUM, state["doc"])
    plain.solve(*args)
    with tracer:
        report = traced.solve(*args)
    _record_reports(tracer, traced.reports)
    _steane_detail(outcome, report)
    return outcome, {
        "timed_wall_s": traced.wall_s,
        "overhead_frac": traced.schedule_s / plain.schedule_s - 1.0,
    }


# --------------------------------------------------------------------------- #
# service-mix: closed-loop callers against an in-process service
# --------------------------------------------------------------------------- #
@dataclass
class _Session:
    """One session's bookkeeping, kept compact: ``peak_rss_mb`` includes it.

    The warm half starts at ``warm_from`` seconds: by then nearly every
    catalogue problem has been solved once, so it is the steady read-mostly
    phase, while the first half is dominated by writes.  Hit latencies and
    solve times are kept in reference seconds of ``speed``.
    """

    speed: HostSpeed = field(default_factory=HostSpeed)
    warm_from: float = 0.0
    warm_completed: int = 0
    warm_slowdowns: list = field(default_factory=list)
    warm_hits: array = field(default_factory=lambda: array("d"))  # latencies
    hit_count: int = 0
    misses: list = field(default_factory=list)  # (latency, solver_seconds), raw
    first_solve: dict = field(default_factory=dict)  # key -> solver_seconds
    optima: dict = field(default_factory=dict)  # key -> optimum of its first miss
    early_hits: list = field(default_factory=list)  # (key, optimum) seen before it
    index_keys: dict = field(default_factory=dict)  # catalogue index -> key
    sent: int = 0
    transport_errors: int = 0
    in_flight: int = 0
    in_flight_max: int = 0
    window: float = 0.0


async def _service_session(
    catalogue, seed, outcome, seconds=None, requests=None, callers=SERVICE_CALLERS
):
    """Closed-loop callers on a fresh service until *seconds* or *requests*."""
    from repro.service import start_service
    from repro.service.client import get_json, stream_schedule

    running = await start_service(jobs=1)
    session = _Session(warm_from=seconds / 2 if seconds is not None else 0.0)
    try:
        status, health = await get_json(running.host, running.port, "/v1/healthz")
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"service not healthy: {status} {health}")
        stream = inputs.RequestStream(catalogue, seed)
        start = time.perf_counter()

        async def sampler():
            # Runs in the event loop between requests; the kernel blocks the
            # loop for about 0.6% of the session.
            while True:
                slowdown = session.speed.sample()
                if time.perf_counter() - start >= session.warm_from:
                    session.warm_slowdowns.append(slowdown)
                await asyncio.sleep(SPEED_SAMPLE_INTERVAL_S)

        async def caller():
            while True:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                if requests is not None and session.sent >= requests:
                    return
                session.sent += 1
                index, doc = stream.next()
                session.in_flight += 1
                session.in_flight_max = max(session.in_flight_max, session.in_flight)
                begin = time.perf_counter()
                try:
                    status, events = await stream_schedule(
                        running.host, running.port, doc, timeout=120.0
                    )
                except (OSError, EOFError, asyncio.TimeoutError, ValueError) as exc:
                    session.transport_errors += 1
                    outcome.check(False, f"transport error: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    session.in_flight -= 1
                done = time.perf_counter()
                _check_response(
                    outcome, session, catalogue, index, status, events,
                    done - begin, done - start,
                )

        sampling = asyncio.ensure_future(sampler())
        try:
            await asyncio.gather(*(caller() for _ in range(callers)))
            session.window = time.perf_counter() - start
        finally:
            sampling.cancel()
            await asyncio.gather(sampling, return_exceptions=True)
    finally:
        await running.aclose()
    for key, optimum in session.early_hits:
        _check_hit(outcome, session, key, optimum)
    return session


def _check_hit(outcome, session, key, optimum):
    """A hit must return the optimum of the miss that filled its entry."""
    filled = session.optima.get(key)
    if filled != optimum:
        outcome.fail(f"hit on {key[:12]} returned {optimum}, miss gave {filled}")


def _check_response(outcome, session, catalogue, index, status, events, latency, at):
    label, expected, _doc = catalogue[index]
    if status != 200 or not events:
        outcome.check(False, f"{label}: HTTP {status} {events[:1]}")
        return
    accepted, result = events[0], events[-1]
    kinds = [event.get("event") for event in events]
    hit = accepted.get("cache") == "hit"
    key = result.get("canonical_key")
    optimum = result.get("num_stages")
    problems = []
    if result.get("event") != "result":
        problems.append(f"events {kinds}")
    if not hit and "witness" not in kinds:
        problems.append("miss without a witness event")
    if result.get("termination") != "certified" or not result.get("optimal"):
        problems.append(f"termination={result.get('termination')}")
    if result.get("validated") is not True:
        problems.append("schedule not validated")
    if optimum != expected:
        problems.append(f"optimum {optimum} != {expected}")
    if session.index_keys.setdefault(index, key) != key:
        problems.append("isomorphic relabeling got another canonical key")
    if not hit and session.optima.setdefault(key, optimum) != optimum:
        problems.append(f"misses disagree: {optimum} != {session.optima[key]}")
    outcome.check(not problems, f"{label}: {'; '.join(problems)}")
    if problems:
        return
    warm = at >= session.warm_from
    session.warm_completed += warm
    if hit:
        session.hit_count += 1
        if warm:
            session.warm_hits.append(session.speed.scale(latency))
        # The caller that missed may not have read its reply yet.
        if key in session.optima:
            _check_hit(outcome, session, key, optimum)
        else:
            session.early_hits.append((key, optimum))
    else:
        solver = float(result.get("solver_seconds", 0.0))
        session.misses.append((latency, solver))
        session.first_solve.setdefault(key, session.speed.scale(solver))


def run_service_mix(state, seconds):
    """Sessions on fresh services, each with its own seeded request stream.

    Each session starts cold, so it solves every catalogue problem it sees
    once from a relabeling of its own.
    """
    outcome = Outcome()
    sessions = []
    for index in range(SERVICE_SESSIONS):
        sessions.append(
            asyncio.run(
                _service_session(
                    state["catalogue"],
                    f"{state['seed']}/{index}",
                    outcome,
                    seconds=seconds / SERVICE_SESSIONS,
                )
            )
        )
    hits = [lat for session in sessions for lat in session.warm_hits]
    # First miss per problem and session: duplicate misses of a problem both
    # callers asked for at once depend on timing (the trace counts them).
    solves = [t for session in sessions for t in session.first_solve.values()]
    hit_tail, beyond = tail(hits, TAIL_FRACTION)
    misses = [miss for session in sessions for miss in session.misses]
    warm_ref_s = sum(
        (s.window - s.warm_from) / median(s.warm_slowdowns or s.speed.factors)
        for s in sessions
    )
    outcome.metrics.update(
        solves_per_s=len(solves) / sum(solves),
        served_per_s=sum(s.warm_completed for s in sessions) / warm_ref_s,
        hit_p50_s=median(hits),
        hit_tail_s=hit_tail,
        # Raw seconds: the wait is mostly the dispatcher's fixed sleeps,
        # which do not stretch with the host's speed.
        miss_wait_p50_s=median(lat - solver for lat, solver in misses),
    )
    outcome.detail.update(
        requests=outcome.attempted,
        hits=sum(s.hit_count for s in sessions),
        misses=len(misses),
        distinct_keys_per_session=[len(s.first_solve) for s in sessions],
        warm_hits=len(hits),
        hit_tail_percentile=TAIL_FRACTION,
        hits_beyond_tail=beyond,
        transport_errors=sum(s.transport_errors for s in sessions),
        callers_in_flight_max=max(s.in_flight_max for s in sessions),
        session_windows_s=[s.window for s in sessions],
        solve_total_s=sum(solves),
        host=[s.speed.summary() for s in sessions],
    )
    return outcome


def run_service_traced(state, seconds, tracer):
    """An untraced and a traced session over the same request stream.

    Both start from an empty cache and send the same number of requests, so
    the ratio of their windows is the tracing overhead.
    """
    outcome = Outcome()
    catalogue, seed = state["catalogue"], state["seed"]
    plain = asyncio.run(_service_session(catalogue, seed, outcome, seconds=seconds / 2))
    with tracer:
        traced = asyncio.run(
            _service_session(catalogue, seed, outcome, requests=plain.sent)
        )
    misses = [lat for lat, _ in traced.misses]
    lookups = traced.hit_count + len(traced.misses)
    tracer.count("cache.hit_rate", traced.hit_count / lookups if lookups else 0.0)
    tracer.count("service.duplicate_misses", len(traced.misses) - len(traced.first_solve))
    tracer.count("service.transport_errors", traced.transport_errors)
    tracer.maximum("callers.in_flight_max", traced.in_flight_max)
    tracer.count("service.miss_p50_s", median(misses))
    if misses:
        tracer.count("service.miss_tail_s", tail(misses, TAIL_FRACTION)[0])
    outcome.detail.update(
        requests_per_session=plain.sent,
        misses=len(traced.misses),
        distinct_keys=len(traced.first_solve),
    )
    overhead = (traced.window / median(traced.speed.factors)) / (
        plain.window / median(plain.speed.factors)
    )
    return outcome, {"timed_wall_s": None, "overhead_frac": overhead - 1.0}


#: Workload name -> (untraced run, traced run).
WORKLOADS = {
    "smoke-sweep": (run_smoke_sweep, run_smoke_traced),
    "service-mix": (run_service_mix, run_service_traced),
    "paper-steane": (run_paper_steane, run_paper_steane_traced),
}
