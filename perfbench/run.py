"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload smoke-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the work under the layer wrappers of ``tracer.py``
and reports the per-layer metrics instead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries run detail (sample counts, percentiles, failures).
The exit code is non-zero only when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Fresh-interpreter starts per run; ``setup_s`` is their median.
SETUP_STARTS = 7
#: Host-speed samples before each start.
SETUP_SPEED_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0

#: Spans of a certified solve whose self times ``trace.coverage_frac`` adds up.
_SOLVE_LAYERS = (
    "problem.bounds",
    "structured.witness",
    "encode.build",
    "smt.check",
    "sat.search",
    "extract",
    "validate",
)


def _per_layer(tracer, summary):
    """Every per-layer metric as ``name -> (value, unit)``; 0 where unused."""
    spans, counts, samples = tracer.self_seconds, tracer.counts, tracer.samples
    search_s = spans["sat.search"]
    wall = summary["timed_wall_s"]
    covered = sum(spans[name] for name in _SOLVE_LAYERS)
    return {
        "problem.build_s": (spans["problem.build"], "s"),
        "problem.bounds_s": (spans["problem.bounds"], "s"),
        "problem.lower_bound": (counts["problem.lower_bound"], "count"),
        "structured.witness_s": (spans["structured.witness"], "s"),
        "structured.upper_bound": (counts["structured.upper_bound"], "count"),
        "canonical.key_s": (spans["canonical.key"], "s"),
        "canonical.calls": (counts["canonical.calls"], "count"),
        "search.probes": (counts["search.probes"], "count"),
        "search.sat_probes": (counts["search.sat_probes"], "count"),
        "search.unsat_probes": (counts["search.unsat_probes"], "count"),
        "search.max_horizon": (counts["search.max_horizon"], "count"),
        "encode.build_s": (spans["encode.build"], "s"),
        "smt.check_s": (spans["smt.check"] + search_s, "s"),
        "smt.bitblast_s": (spans["smt.check"], "s"),
        "smt.checks": (counts["smt.checks"], "count"),
        "smt.vars": (counts["smt.vars"], "count"),
        "smt.clauses": (counts["smt.clauses"], "count"),
        "sat.search_s": (search_s, "s"),
        **{
            f"sat.{key}": (counts[f"sat.{key}"], "count")
            for key in (
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "learned_clauses",
                "chrono_backtracks",
                "vivified_literals",
                "subsumed_clauses",
            )
        },
        "sat.props_per_s": (
            counts["sat.propagations"] / search_s if search_s else 0.0,
            "1/s",
        ),
        "sat.report_solve_s": (counts["sat.report_solve_s"], "s"),
        "extract.s": (spans["extract"], "s"),
        "validate.s": (spans["validate"], "s"),
        "service.queue_wait_s": (workloads.median(samples["service.queue_wait_s"]), "s"),
        "service.pool_rtt_s": (workloads.median(samples["service.pool_rtt_s"]), "s"),
        "cache.get_s": (spans["cache.get"], "s"),
        "cache.put_s": (spans["cache.put"], "s"),
        "cache.hit_rate": (counts["cache.hit_rate"], "ratio"),
        "service.duplicate_misses": (counts["service.duplicate_misses"], "count"),
        "service.transport_errors": (counts["service.transport_errors"], "count"),
        "service.witness_p50_s": (workloads.median(samples["service.witness"]), "s"),
        "service.miss_p50_s": (counts["service.miss_p50_s"], "s"),
        "service.miss_tail_s": (counts["service.miss_tail_s"], "s"),
        "callers.in_flight_max": (counts["callers.in_flight_max"], "count"),
        "trace.overhead_frac": (summary["overhead_frac"], "ratio"),
        "trace.coverage_frac": (covered / wall if wall else 0.0, "ratio"),
    }


_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certify_s": "s",
    "solves_per_s": "1/s",
    "served_per_s": "1/s",
    "hit_p50_s": "s",
    "hit_tail_s": "s",
    "miss_wait_p50_s": "s",
}


def measure_setup(workload, seed):
    """Median time of fresh interpreters reaching "ready", in reference seconds.

    The host-speed kernel runs in this process before each start, while no
    probe is running.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_STARTS):
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter() - start
                child.stdout.read()
                child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {line!r}")
        times.append(speed.scale(ready))
    return statistics.median(times), times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run, run_traced = workloads.WORKLOADS[args.workload]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        state = workloads.prepare(args.workload, args.seed)
        tracer = Tracer()
        outcome, summary = run_traced(state, args.seconds, tracer)
        metrics = _per_layer(tracer, summary)
        detail["wrapped_calls"] = tracer.calls
    else:
        state = workloads.prepare(args.workload, args.seed)
        outcome = run(state, args.seconds)
        outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
        outcome.metrics["setup_s"] = setup_s
        metrics = {name: (value, _UNITS[name]) for name, value in outcome.metrics.items()}
        detail["setup_samples_s"] = setup_samples
    detail.update(outcome.detail)
    detail["errors"] = outcome.errors
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
