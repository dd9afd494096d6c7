"""Backend failure taxonomy for the retry/degradation machinery.

Backends classify their failures so the SMT facade can decide between
retrying and degrading:

* :class:`TransientBackendError` — the solve *attempt* failed but the
  backend's clause database is intact and a retry may succeed (a flaky
  native library call, an injected chaos fault).  The
  :class:`repro.smt.solver.Solver` retries these with bounded deterministic
  backoff before escalating.
* :class:`PermanentBackendError` — the backend cannot serve further solves
  (unmet runtime requirements, a crash-after-N chaos fault).  Never retried; strategies degrade to a report with
  ``termination="backend-error"`` and the analytic interval intact.

Both derive from :class:`BackendError`, which itself derives from
``RuntimeError`` so pre-existing callers catching ``RuntimeError`` keep
working.
"""

from __future__ import annotations


class BackendError(RuntimeError):
    """Base class of every classified SAT-backend failure."""


class TransientBackendError(BackendError):
    """A retryable failure: backend state intact, a retry may succeed."""


class PermanentBackendError(BackendError):
    """A non-retryable failure: the backend cannot serve further solves."""
