"""One fresh-interpreter start of a workload, for the ``setup_s`` metric.

``python3 perfbench/setup_probe.py <workload> <seed>`` imports the program,
builds the workload's inputs (for service-mix: starts the service, whose
pool forks its worker, and waits for ``/v1/healthz`` to answer), prints
``ready`` and then tears everything down.  ``run.py`` times the interval
from spawning this process to reading ``ready``.
"""

from __future__ import annotations

import asyncio
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


async def _serve_until_healthy():
    from repro.service import start_service
    from repro.service.client import get_json

    running = await start_service(jobs=1)
    try:
        status, health = await get_json(running.host, running.port, "/v1/healthz")
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"service not healthy: {status} {health}")
        print("ready", flush=True)
    finally:
        await running.aclose()


def main(workload, seed):
    workloads.prepare(workload, seed)
    if workload == "service-mix":
        asyncio.run(_serve_until_healthy())
    else:
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
