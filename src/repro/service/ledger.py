"""Request ledger: the service's append-only audit journal.

Reuses the bench journal's JSONL line format (PR 6,
:mod:`repro.evaluation.journal`) instead of inventing a new one, so the
same torn-line-tolerant loader reads both: a ``suite`` header marks each
service run, a ``start`` line records every accepted request, and a
``done`` line carries the request's final verdict entry (canonical key,
cache hit/miss, termination, latency).  A request with a ``start`` but no
``done`` died in flight — exactly the bench journal's crash semantics,
surfaced by :meth:`~repro.evaluation.journal.JournalState.crashed_cells`.
"""

from __future__ import annotations

import os

from repro.evaluation.journal import BenchJournal, JournalState, load_journal


class RequestLedger:
    """Append-only, flush-per-line record of request life cycles."""

    def __init__(self, path: str | os.PathLike):
        self._journal = BenchJournal(path)
        # The request set is unknown upfront (unlike a bench suite), so
        # the header carries an empty cell list; its role here is to mark
        # the run boundary and identify the writer.
        self._journal.write_header([], shard={"kind": "service"})

    def record_request(self, request_id: str) -> None:
        """Record acceptance of *request_id* (before any work happens)."""
        self._journal.record_start(request_id, attempt=1)

    def record_verdict(self, request_id: str, entry: dict) -> None:
        """Record the request's terminal verdict entry."""
        self._journal.record_done(request_id, attempt=1, result_entry=entry)

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "RequestLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_ledger(path: str | os.PathLike) -> JournalState:
    """Parse a ledger file (same loader as the bench journal).

    ``state.completed`` maps request ids to verdict entries;
    ``state.crashed_cells()`` lists requests accepted but never
    completed — in-flight when the service died.
    """
    return load_journal(path)
