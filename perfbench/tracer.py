"""Outside-in layer trace: timing wrappers patched onto public calls.

The program carries no tracing of its own yet, so the benchmark wraps the
public entry point of each layer for the duration of a traced run and
restores the originals afterwards.  Every wrapped call is a span; spans
nest per thread, and a span's *self* time excludes the wrapped calls it
made, so the self times of all layers add up without double counting.
Wrappers sit only at coarse boundaries (a few per probe): wrapping the
per-expression encoder calls would distort the run being measured.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: Counters of the SAT core summed as per-solve deltas of ``statistics()``.
SAT_COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learned_clauses",
    "chrono_backtracks",
    "vivified_literals",
    "subsumed_clauses",
)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        # Service bookkeeping: request spec -> try_submit time, task id ->
        # WorkerPool.submit time.
        self._accepted = {}
        self._submitted = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, after=None, sample=False):
        """Wrap *fn* so each call records a *name* span.

        *after(result, args, kwargs)* runs outside the timed region and
        may record counters; with *sample* every call's full duration is
        also kept as a sample of *name*.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_seconds[name] += elapsed - frame[0]
                    self.calls += 1
                    if sample:
                        self.samples[name].append(elapsed)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def count(self, name, value=1.0):
        with self._lock:
            self.counts[name] += value

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(value)

    def maximum(self, name, value):
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch_method(self, owner, attr, name, after=None, around=None):
        """Wrap ``owner.attr`` (a plain method or a classmethod).

        *around(fn)*, when given, wraps the raw function first, for
        bookkeeping that must run right before and after the call.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.span(name, raw.__func__, after))
        else:
            wrapped = self.span(name, around(raw) if around else raw, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def patch_function(self, module_name, attr, name, after=None, sample=False):
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.span(name, original, after, sample)
        for module in list(sys.modules.values()):
            module_name_ = getattr(module, "__name__", "") or ""
            if not module_name_.startswith("repro"):
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                self._patches.append((module, attr, original))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        install_layer_wrappers(self)
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Service hooks (called from the wrappers)
    # ------------------------------------------------------------------ #
    def _on_try_submit(self, job, args, kwargs):
        if job is not None:
            with self._lock:
                self._accepted[id(job.spec)] = (job.spec, time.perf_counter())

    def _on_pool_submit(self, task_id, args, kwargs):
        now = time.perf_counter()
        spec = args[2] if len(args) > 2 else kwargs.get("arg")
        with self._lock:
            accepted = self._accepted.pop(id(spec), None)
            self._submitted[task_id] = now
        if accepted is not None:
            self.sample("service.queue_wait_s", now - accepted[1])

    def _on_pool_poll(self, outcomes, args, kwargs):
        now = time.perf_counter()
        for outcome in outcomes:
            with self._lock:
                submitted = self._submitted.pop(outcome.task_id, None)
            if submitted is None or not isinstance(outcome.value, dict):
                continue
            solver = outcome.value.get("solver_seconds", 0.0)
            self.sample("service.pool_rtt_s", now - submitted - solver)


def install_layer_wrappers(tracer):
    """Patch the public calls of every layer with *tracer*'s spans."""
    from repro.core import encoding, problem, structured
    from repro.evaluation import executor
    from repro.sat import solver as sat_solver
    from repro.service import cache, server
    from repro.smt import solver as smt_solver

    # core.problem: IR construction and analytic bounds.
    Problem = problem.SchedulingProblem
    tracer.patch_method(Problem, "from_gates", "problem.build")
    tracer.patch_method(Problem, "from_circuit", "problem.build")
    tracer.patch_method(Problem, "bound_breakdown", "problem.bounds")

    # core.structured: the witness (upper bound).
    tracer.patch_method(structured.StructuredScheduler, "schedule", "structured.witness")
    tracer.patch_method(
        structured.StructuredScheduler, "schedule_airborne", "structured.witness"
    )

    # core.canonical: the service cache key.
    tracer.patch_function(
        "repro.core.canonical",
        "canonical_key",
        "canonical.key",
        after=lambda result, args, kwargs: tracer.count("canonical.calls"),
    )

    # core.strategies: each probe is one instance check.  The check's own
    # time is the per-horizon guard constraints, i.e. constraint build.
    def on_probe(result, args, kwargs):
        from repro.smt import CheckResult

        instance = args[0]
        horizon = kwargs.get("horizon") or instance.num_stages
        tracer.count("search.probes")
        if result is CheckResult.SAT:
            tracer.count("search.sat_probes")
        elif result is CheckResult.UNSAT:
            tracer.count("search.unsat_probes")
        tracer.maximum("search.max_horizon", horizon)

    tracer.patch_method(encoding.IncrementalInstance, "check", "encode.build", after=on_probe)
    tracer.patch_method(encoding.EncodedInstance, "check", "encode.build", after=on_probe)

    # core.encoding / core.constraints: constraint build.
    tracer.patch_function("repro.core.encoding", "encode_incremental_problem", "encode.build")
    tracer.patch_function("repro.core.encoding", "encode_problem", "encode.build")
    tracer.patch_method(encoding.IncrementalInstance, "extend_to", "encode.build")

    # smt: Solver.check; its self time is bit-blasting plus model readout.
    def on_check(result, args, kwargs):
        solver = args[0]
        stats = solver._last_statistics
        variables = stats.get("sat_variables", 0)
        clauses = stats.get("sat_clauses", 0)
        # Final formula size per solver, summed over solvers.
        seen = getattr(solver, "_perfbench_size", (0, 0))
        solver._perfbench_size = (variables, clauses)
        tracer.count("smt.checks")
        tracer.count("smt.vars", variables - seen[0])
        tracer.count("smt.clauses", clauses - seen[1])

    tracer.patch_method(smt_solver.Solver, "check", "smt.check", after=on_check)

    # sat: backend solve() with whole-search counter deltas.
    def around_solve(solve):
        @functools.wraps(solve)
        def counted(self, *args, **kwargs):
            before = self.statistics()
            try:
                return solve(self, *args, **kwargs)
            finally:
                after = self.statistics()
                for key in SAT_COUNTERS:
                    tracer.count(f"sat.{key}", after.get(key, 0) - before.get(key, 0))

        return counted

    tracer.patch_method(sat_solver.CDCLSolver, "solve", "sat.search", around=around_solve)

    # Extraction and validation.
    tracer.patch_method(encoding.IncrementalInstance, "extract_schedule", "extract")
    tracer.patch_method(encoding.EncodedInstance, "extract_schedule", "extract")
    tracer.patch_function("repro.core.validator", "validate_schedule", "validate")

    # service + evaluation.executor.
    tracer.patch_method(cache.CertifiedResultCache, "get", "cache.get")
    tracer.patch_method(cache.CertifiedResultCache, "put", "cache.put")
    tracer.patch_method(
        server.SchedulingService, "try_submit", "service.submit", after=tracer._on_try_submit
    )
    tracer.patch_method(
        executor.WorkerPool, "submit", "service.dispatch", after=tracer._on_pool_submit
    )
    tracer.patch_method(
        executor.WorkerPool, "poll", "service.poll", after=tracer._on_pool_poll
    )
    tracer.patch_function(
        "repro.service.server", "_witness_event", "service.witness", sample=True
    )
