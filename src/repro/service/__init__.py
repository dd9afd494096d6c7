"""Scheduling-as-a-service: the long-lived front end of the scheduler.

The paper's scheduler is a batch library; this package wraps it into a
service shaped for real traffic:

* :mod:`repro.service.server` — the scheduling service: admission, a
  bounded request queue feeding the persistent warm worker pool of
  :mod:`repro.evaluation.executor`, and **anytime** responses as JSON
  lines: a validated structured witness immediately, the certified
  optimum when it lands, every event stamped with its ``termination``
  verdict and bound provenance.
* :mod:`repro.service.http` — the HTTP/1.1 dialect both ends speak
  (stdlib only): request parsing, response framing, keep-alive and the
  server's connection loop.
* :mod:`repro.service.cache` — the certified-result memo store keyed by
  the canonical problem hash of :mod:`repro.core.canonical`, so
  isomorphic re-submissions are answered without a single solver probe.
* :mod:`repro.service.ledger` — the request ledger, reusing the bench
  journal's append-only JSONL format (PR 6) so the same tooling reads it.
* :mod:`repro.service.client` — a minimal asyncio client for the chunked
  streaming protocol (used by the tests and the load-test harness).
* :mod:`repro.service.loadtest` — ``repro-nasp loadtest``: seeded traffic
  of isomorphically relabeled instances, reporting p50/p99 latency and
  the cache hit-rate in the bench JSON schema (v8).
"""

from repro.service.cache import CertifiedResultCache
from repro.service.ledger import RequestLedger, load_ledger
from repro.service.server import (
    SchedulingService,
    problem_from_document,
    run_service,
    start_service,
)
from repro.service.client import get_json, stream_schedule
from repro.service.loadtest import (
    format_loadtest,
    loadtest_result,
    percentile,
    run_loadtest,
)

__all__ = [
    "CertifiedResultCache",
    "RequestLedger",
    "format_loadtest",
    "SchedulingService",
    "get_json",
    "load_ledger",
    "loadtest_result",
    "percentile",
    "problem_from_document",
    "run_loadtest",
    "run_service",
    "start_service",
    "stream_schedule",
]
