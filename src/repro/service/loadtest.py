"""Load-test harness: service latency percentiles + cache hit-rate.

``repro-nasp loadtest`` stands up an in-process service on an ephemeral
localhost port, fires a seeded mix of requests at it with bounded
concurrency, and reports p50/p99 end-to-end latency plus the certified-
result cache hit-rate as a bench JSON payload (keys
``latency_p50_seconds`` / ``latency_p99_seconds`` / ``cache_hit_rate``,
persisted by :func:`repro.evaluation.runner.save_results`).

The traffic is the cache's worst honest adversary and best showcase at
once: every request is a random **qubit relabeling** of one of the named
bench instances, so requests are pairwise non-identical byte-wise, yet
every request after the first solve of each base instance is isomorphic
to a cached certificate — the hit-rate measures canonicalisation working
end to end, not byte-equality caching.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from typing import Optional, Sequence

from repro.core.strategies import DEFAULT_STRATEGY, get_strategy
from repro.evaluation.runner import SMT_INSTANCES, BenchResult, smt_document
from repro.service.client import get_json, stream_schedule
from repro.service.server import start_service

#: Default request mix: the four fastest-certifying bench instances.
DEFAULT_INSTANCES = ("single-gate", "chain-2", "triangle", "disjoint-pairs")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (inclusive): p50 of [1,2,3,4] is 2.

    Nearest-rank is exact on small samples — the interpolating variants
    report latencies no request actually experienced.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _build_requests(
    requests: int,
    instances: Sequence[str],
    seed: int,
    layout_kind: str,
    strategy: str,
    deadline: Optional[float],
) -> list[dict]:
    """Seeded request mix: isomorphic relabelings of the named instances."""
    rng = random.Random(seed)
    docs = []
    for i in range(requests):
        doc = smt_document(instances[i % len(instances)], layout_kind)
        relabeling = list(range(doc["num_qubits"]))
        rng.shuffle(relabeling)
        relabeled = [[relabeling[a], relabeling[b]] for a, b in doc["gates"]]
        rng.shuffle(relabeled)
        doc.update(gates=relabeled, strategy=strategy)
        if deadline is not None:
            doc["deadline"] = deadline
        docs.append(doc)
    return docs


def run_loadtest(
    requests: int = 24,
    concurrency: int = 4,
    jobs: int = 2,
    seed: int = 0,
    instances: Sequence[str] = DEFAULT_INSTANCES,
    layout_kind: str = "bottom",
    strategy: str = DEFAULT_STRATEGY,
    deadline: Optional[float] = None,
) -> dict:
    """Run the load test; returns the bench payload dict.

    The service queue is sized to hold the whole request budget, so the
    measurement is latency under load, not 503 behaviour.  Unknown
    *instances* or *strategy* raise ``ValueError`` before the service
    starts.
    """
    get_strategy(strategy)
    unknown = set(instances) - set(SMT_INSTANCES)
    if unknown:
        raise ValueError(
            f"unknown instances {sorted(unknown)} "
            f"(choose from {sorted(SMT_INSTANCES)})"
        )
    if requests < 1:
        raise ValueError("at least one request is required")
    return asyncio.run(
        _run_loadtest(
            requests=requests,
            concurrency=max(1, concurrency),
            jobs=max(1, jobs),
            seed=seed,
            instances=tuple(instances),
            layout_kind=layout_kind,
            strategy=strategy,
            deadline=deadline,
        )
    )


async def _run_loadtest(
    requests: int,
    concurrency: int,
    jobs: int,
    seed: int,
    instances: tuple[str, ...],
    layout_kind: str,
    strategy: str,
    deadline: Optional[float],
) -> dict:
    docs = _build_requests(
        requests, instances, seed, layout_kind, strategy, deadline
    )
    running = await start_service(
        jobs=jobs,
        queue_limit=max(4, requests),
        default_strategy=strategy,
        default_time_limit=60.0,
    )
    wall_start = time.monotonic()
    gate = asyncio.Semaphore(concurrency)

    async def one(doc: dict) -> tuple[float, int, list[dict]]:
        """``(latency, status, events)`` of one request."""
        async with gate:
            start = time.monotonic()
            status, events = await stream_schedule(running.host, running.port, doc)
            return time.monotonic() - start, status, events

    try:
        outcomes = await asyncio.gather(
            *(one(doc) for doc in docs), return_exceptions=True
        )
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
    finally:
        await running.aclose()
    wall = time.monotonic() - wall_start

    answered = [o for o in outcomes if not isinstance(o, BaseException)]
    transport_errors = requests - len(answered)
    rejected = sum(1 for _latency, status, _events in answered if status == 503)
    ok = 0
    cached_responses = 0
    terminations: dict[str, int] = {}
    completed_latencies: list[float] = []
    for latency, status, events in answered:
        if status != 200:
            continue
        result = events[-1] if events else {}
        if result.get("event") != "result":
            continue
        ok += 1
        completed_latencies.append(latency)
        termination = str(result.get("termination"))
        terminations[termination] = terminations.get(termination, 0) + 1
        if result.get("cached"):
            cached_responses += 1

    cache_stats = stats.get("cache", {})
    payload = {
        "requests": requests,
        "concurrency": concurrency,
        "jobs": jobs,
        "seed": seed,
        "instances": list(instances),
        "strategy": strategy,
        "ok": ok,
        "errors": requests - ok - rejected,
        "rejected": rejected,
        "transport_errors": transport_errors,
        "cached_responses": cached_responses,
        "cache_hits": cache_stats.get("hits", 0),
        "cache_misses": cache_stats.get("misses", 0),
        "cache_hit_rate": cache_stats.get("hit_rate", 0.0),
        "terminations": terminations,
        "seconds_total": wall,
        "requests_per_second": (requests / wall) if wall > 0 else 0.0,
    }
    if completed_latencies:
        payload.update(
            latency_p50_seconds=percentile(completed_latencies, 0.50),
            latency_p99_seconds=percentile(completed_latencies, 0.99),
            latency_mean_seconds=sum(completed_latencies)
            / len(completed_latencies),
            latency_max_seconds=max(completed_latencies),
        )
    return payload


def loadtest_result(payload: dict) -> BenchResult:
    """Wrap a load-test payload as a bench result for ``save_results``."""
    errors = payload.get("errors", 0)
    return BenchResult(
        name="service/loadtest",
        suite="service",
        status="error" if errors else "ok",
        seconds=float(payload.get("seconds_total", 0.0)),
        payload=payload,
        error=f"{errors} request(s) failed" if errors else None,
    )


def format_loadtest(payload: dict) -> str:
    """Human-readable one-screen summary of a load-test payload."""
    lines = [
        f"loadtest: {payload['requests']} requests, "
        f"concurrency {payload['concurrency']}, {payload['jobs']} workers",
        f"  ok {payload['ok']}  errors {payload['errors']}  "
        f"rejected(503) {payload['rejected']}",
        f"  cache hit-rate {payload['cache_hit_rate']:.2%} "
        f"({payload['cache_hits']} hits / {payload['cache_misses']} misses)",
    ]
    if "latency_p50_seconds" in payload:
        lines.append(
            f"  latency p50 {payload['latency_p50_seconds'] * 1000:.0f} ms  "
            f"p99 {payload['latency_p99_seconds'] * 1000:.0f} ms  "
            f"max {payload['latency_max_seconds'] * 1000:.0f} ms"
        )
    lines.append(
        f"  wall {payload['seconds_total']:.2f} s "
        f"({payload['requests_per_second']:.1f} req/s)"
    )
    terminations = payload.get("terminations") or {}
    if terminations:
        summary = ", ".join(
            f"{name}: {count}" for name, count in sorted(terminations.items())
        )
        lines.append(f"  terminations: {summary}")
    return "\n".join(lines)
