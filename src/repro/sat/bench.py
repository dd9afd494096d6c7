"""Propagation-throughput microbench: race two registered SAT backends.

The benchmark bit-blasts reduced scheduling instances (the same cells the
SMT smoke suite uses) into plain CNF and solves each formula once with a
*candidate* backend and once with a *baseline* backend, both constructed
through the :mod:`repro.sat.backend` registry.  The default pairing is the
flat-array :class:`~repro.sat.solver.CDCLSolver` (candidate) against the
preserved seed implementation
:class:`~repro.sat.reference.ReferenceCDCLSolver` (baseline).  Both backends
must return the same SAT/UNSAT answer; the comparison records

* ``seconds`` — wall-clock of the single :meth:`solve` call,
* ``propagations_per_second`` — the hot-loop throughput metric (``None``
  for backends that keep no propagation counter, e.g. an IPASIR library),
* ``speedup`` — baseline seconds / candidate seconds (> 1 means the
  candidate is faster),
* ``throughput_ratio`` — candidate propagations/s over baseline
  propagations/s (``None`` when either side keeps no counter).

Used by ``benchmarks/test_bench_smt.py`` (hard assertions on the default
pairing) and by the ``repro-nasp microbench`` CLI command (CI regression
gate + JSON artifact; ``--backend A B`` races any two registered backends).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.sat.backend import create_backend
from repro.sat.cnf import CNF

#: The default comparison: the flat-array rewrite against the seed core.
DEFAULT_BACKENDS = ("flat", "reference")

#: The microbench cells: one UNSAT probe (optimum - 1) and the SAT probe at
#: the optimum for the multi-horizon smoke instances on the shielded layout.
DEFAULT_CELLS: tuple[dict, ...] = (
    {"layout": "bottom", "instance": "triangle", "num_stages": 4},
    {"layout": "bottom", "instance": "triangle", "num_stages": 5},
    {"layout": "bottom", "instance": "chain-2", "num_stages": 3},
)

def scheduling_cnf(layout: str, instance: str, num_stages: int) -> CNF:
    """Bit-blast a reduced scheduling instance at a fixed stage count."""
    from repro.core.encoding import encode_problem
    from repro.core.problem import problem_from_document
    from repro.evaluation.runner import smt_document

    problem = problem_from_document(smt_document(instance, layout))
    return encode_problem(problem, num_stages).solver.to_cnf()


#: Timing repetitions per (formula, backend) pair; the best run is kept,
#: which filters scheduler noise / CPU-steal spikes on shared CI runners.
DEFAULT_REPEATS = 3


def measure_core(cnf: CNF, factory: Callable, repeats: int = DEFAULT_REPEATS) -> dict:
    """Solve *cnf* with fresh solvers from *factory*; keep the fastest run.

    The search is deterministic, so every repetition does identical work —
    the minimum wall-clock is the least-noisy estimate of the core's speed.
    """
    best = None
    for _ in range(max(1, repeats)):
        solver = factory()
        # Feed the formula through the SatBackend protocol surface only
        # (new_var/add_clause), so any registered backend can be measured.
        while solver.num_vars < cnf.num_vars:
            solver.new_var()
        for clause in cnf:
            solver.add_clause(clause)
        start = time.monotonic()
        result = solver.solve()
        seconds = time.monotonic() - start
        if best is None or seconds < best[0]:
            best = (seconds, result, solver.statistics())
    seconds, result, counters = best
    # Floor at 1 ns: a run below clock granularity is "infinitely fast" and
    # must read as a huge rate, never as zero throughput.
    floored = max(seconds, 1e-9)
    # A backend without a propagation counter (an IPASIR library) reports
    # None, not zero — absence of telemetry is not zero throughput.
    propagations = counters.get("propagations")
    return {
        "result": result.value,
        "seconds": seconds,
        "propagations": propagations,
        "conflicts": counters.get("conflicts"),
        "propagations_per_second": (
            propagations / floored if propagations is not None else None
        ),
    }


def compare_cores(
    cnf: CNF,
    repeats: int = DEFAULT_REPEATS,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> dict:
    """Race the candidate backend against the baseline on one formula.

    The per-backend measurements are keyed by the backend registry names, so
    the default document keeps its historical ``flat`` / ``reference`` keys.
    """
    candidate_name, baseline_name = backends
    if candidate_name == baseline_name:
        raise ValueError(f"cannot compare backend {candidate_name!r} with itself")
    candidate = measure_core(
        cnf, lambda: create_backend(candidate_name), repeats=repeats
    )
    baseline = measure_core(cnf, lambda: create_backend(baseline_name), repeats=repeats)
    if candidate["result"] != baseline["result"]:  # pragma: no cover - soundness net
        raise RuntimeError(
            f"SAT backends disagree: {candidate_name}={candidate['result']} "
            f"{baseline_name}={baseline['result']}"
        )
    # Both wall-clocks are floored at clock granularity so neither a
    # too-fast candidate run nor a too-fast baseline run produces a spurious
    # zero/infinite ratio; everything stays finite and JSON-representable.
    speedup = max(baseline["seconds"], 1e-9) / max(candidate["seconds"], 1e-9)
    candidate_pps = candidate["propagations_per_second"]
    baseline_pps = baseline["propagations_per_second"]
    if candidate_pps is None or baseline_pps is None:
        throughput_ratio: Optional[float] = None
    elif baseline_pps > 0:
        throughput_ratio = candidate_pps / baseline_pps
    else:
        throughput_ratio = 1e9
    return {
        candidate_name: candidate,
        baseline_name: baseline,
        "speedup": speedup,
        "throughput_ratio": throughput_ratio,
    }


def run_microbench(
    cells: Sequence[dict] = DEFAULT_CELLS,
    repeats: int = DEFAULT_REPEATS,
    backends: Optional[Sequence[str]] = None,
) -> dict:
    """Run the full microbench and summarise it as a JSON-ready document."""
    backends = tuple(backends) if backends else DEFAULT_BACKENDS
    results = []
    for cell in cells:
        cnf = scheduling_cnf(**cell)
        comparison = compare_cores(cnf, repeats=repeats, backends=backends)
        results.append(
            {
                **cell,
                "num_vars": cnf.num_vars,
                "num_clauses": cnf.num_clauses,
                **comparison,
            }
        )
    # The gate the CI job (and the CLI exit code) enforces: strictly faster
    # wall-clock on every cell AND, where both backends keep propagation
    # counters, strictly higher propagation throughput.
    faster_everywhere = all(
        cell["speedup"] > 1.0
        and (cell["throughput_ratio"] is None or cell["throughput_ratio"] > 1.0)
        for cell in results
    )
    ratios = [
        cell["throughput_ratio"]
        for cell in results
        if cell["throughput_ratio"] is not None
    ]
    document = {
        "backends": list(backends),
        "cells": results,
        "candidate_faster_everywhere": faster_everywhere,
        "min_speedup": min(cell["speedup"] for cell in results),
        "min_throughput_ratio": min(ratios) if ratios else None,
    }
    return document


def format_microbench(document: dict) -> str:
    """Human-readable summary table of a :func:`run_microbench` document."""
    candidate_name, baseline_name = document.get("backends", DEFAULT_BACKENDS)
    cand_col = f"{candidate_name[:12]}[s]"
    base_col = f"{baseline_name[:12]}[s]"
    lines = [
        f"{'Cell':<28}{'Answer':>8}{cand_col:>16}{base_col:>16}"
        f"{'Speedup':>9}{'Props/s ratio':>15}"
    ]
    for cell in document["cells"]:
        name = f"{cell['layout']}/{cell['instance']}@{cell['num_stages']}"
        ratio = cell["throughput_ratio"]
        lines.append(
            f"{name:<28}{cell[candidate_name]['result']:>8}"
            f"{cell[candidate_name]['seconds']:>16.3f}"
            f"{cell[baseline_name]['seconds']:>16.3f}"
            f"{cell['speedup']:>9.2f}"
            f"{'-' if ratio is None else format(ratio, '.2f'):>15}"
        )
    verdict = (
        "yes" if document["candidate_faster_everywhere"] else "NO - REGRESSION"
    )
    min_ratio = document["min_throughput_ratio"]
    lines.append(
        f"{candidate_name} faster than {baseline_name} everywhere: {verdict} "
        f"(min speedup {document['min_speedup']:.2f}x, "
        f"min throughput ratio "
        f"{'-' if min_ratio is None else format(min_ratio, '.2f') + 'x'})"
    )
    return "\n".join(lines)
