"""Certified-result memo store keyed by canonical problem hashes.

The cache answers one question: *has any isomorphic copy of this problem
already been solved to a certified optimum?*  Keys are the
process-stable SHA-256 canonical keys of :mod:`repro.core.canonical`, so
a relabeled re-submission of a solved instance hits without a single
solver probe.  Only **certified** results are admitted — a deadline or
backend-error answer is request-specific (a later request with a larger
budget may do better) and must never shadow a future certification.

Entries are plain JSON-serialisable dicts (the service's result-event
payload shape).  With a *path* the store is persistent: every admitted
entry is appended as one JSONL line and flushed, the same
crash-consistency discipline as the bench journal — a torn final line
loses at most that entry.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Optional

from repro.core.report import TERMINATION_CERTIFIED


class CertifiedResultCache:
    """In-memory (optionally file-backed) certified-result store.

    Thread-safe: the service reads and records results on its event-loop
    thread, and the lock keeps a cache shared with other threads
    consistent.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self._entries: dict[str, dict] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()
        self._path = os.fspath(path) if path is not None else None
        self._handle: Optional[IO[str]] = None
        if self._path is not None:
            self._load(self._path)
            self._handle = open(self._path, "a", encoding="utf-8")

    def _load(self, path: str) -> None:
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line: keep what parsed
                if not isinstance(record, dict):
                    continue  # valid JSON but no record: skipped likewise
                key = record.get("key")
                entry = record.get("entry")
                # put()'s admission rule: certified entries only, and the
                # first certificate of a key wins.
                if (
                    isinstance(key, str)
                    and isinstance(entry, dict)
                    and entry.get("termination") == TERMINATION_CERTIFIED
                ):
                    self._entries.setdefault(key, entry)

    # ------------------------------------------------------------------ #
    # Lookup / admission
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[dict]:
        """Return a copy of the entry for *key*, counting hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            return dict(entry)

    def put(self, key: str, entry: dict) -> bool:
        """Admit a certified entry; returns False when *key* is present.

        First certificate wins: certified optima of isomorphic problems
        are equal by definition, so overwriting buys nothing and keeping
        the first makes concurrent duplicate solves idempotent.  Raises
        ``ValueError`` for non-certified entries — caching a
        budget-dependent answer would serve it to requests with budgets
        it never saw.
        """
        if entry.get("termination") != TERMINATION_CERTIFIED:
            raise ValueError(
                "only certified results are cacheable, got termination="
                f"{entry.get('termination')!r}"
            )
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = dict(entry)
            if self._handle is not None:
                self._handle.write(
                    json.dumps({"key": key, "entry": entry}, sort_keys=True) + "\n"
                )
                self._handle.flush()
            return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
