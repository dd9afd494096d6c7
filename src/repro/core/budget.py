"""Deadline/budget governance for anytime solving.

A :class:`Deadline` is the single source of truth for "how much wall-clock
is left" across a whole minimum-stage search.  It is carried by
:class:`~repro.core.strategies.base.SearchLimits`, consulted cooperatively
at every level — the strategy loop between probes, the SMT facade before
and inside each check, and the SAT backends through their native per-call
``time_limit`` — and composed with the per-probe limits so no single probe
can overrun the remaining whole-search budget.

Design points:

* **Monotonic and absolute.**  The expiry is an absolute
  ``time.monotonic()`` instant, so remaining time shrinks as work happens
  instead of resetting at every layer boundary (the pre-existing
  ``time_limit`` knob was handed identically to every probe, letting a
  search burn ``probes x time_limit`` wall-clock).  ``CLOCK_MONOTONIC`` is
  system-wide on Linux, so a pickled deadline keeps meaning the same
  instant inside the service's worker processes.
* **Cooperative.**  Nothing is killed: every enforcement point checks
  :meth:`Deadline.expired` / slices its own budget from
  :meth:`Deadline.remaining` and winds down along the graceful-degradation
  contract (see ``SchedulerReport.termination``).
* **Composable.**  :meth:`Deadline.slice` merges a per-probe cap with the
  remaining whole-search time; :meth:`Deadline.compose_conflicts` scales a
  per-probe conflict budget by the remaining-time fraction so late probes
  do not out-spend the clock on conflicts either.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class DeadlineExceeded(Exception):
    """Raised by cooperative preemption points when the deadline has passed.

    Only loops without a richer degradation path raise this (e.g. the
    table1/exploration evaluation loops, which have no partial result to
    return); the strategy layer never lets it escape — it degrades to a
    report with ``termination="deadline"`` instead.
    """


class Deadline:
    """Remaining-time accounting against an absolute monotonic expiry.

    ``Deadline(None)`` (or :meth:`unbounded`) never expires and reports
    ``remaining() is None`` — callers treat that as "no cap".  The *clock*
    is injectable for deterministic tests and defaults to
    :func:`time.monotonic`; pickling drops a custom clock and restores the
    monotonic default (the only clock that stays meaningful across
    processes).
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(
        self,
        expires_at: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._expires_at = expires_at
        self._clock = clock

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline *seconds* from now (``None`` means unbounded)."""
        if seconds is None:
            return cls(None, clock)
        return cls(clock() + seconds, clock)

    @classmethod
    def unbounded(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def bounded(self) -> bool:
        """Whether this deadline can ever expire."""
        return self._expires_at is not None

    @property
    def expires_at(self) -> Optional[float]:
        """The absolute monotonic expiry instant (``None`` when unbounded)."""
        return self._expires_at

    def remaining(self) -> Optional[float]:
        """Seconds left before expiry, floored at 0 (``None`` when unbounded)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self._expires_at is not None and self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the deadline has passed."""
        if self.expired():
            raise DeadlineExceeded(f"deadline expired before {what} completed")

    # ------------------------------------------------------------------ #
    # Budget composition
    # ------------------------------------------------------------------ #
    def slice(self, per_probe: Optional[float] = None) -> Optional[float]:
        """The per-probe time budget: min(per-probe cap, remaining time).

        Returns ``None`` only when both the per-probe cap and the deadline
        are unbounded.  An expired deadline yields ``0.0`` — callers should
        check :meth:`expired` first and degrade rather than launch a
        zero-budget probe.
        """
        remaining = self.remaining()
        if remaining is None:
            return per_probe
        if per_probe is None:
            return remaining
        return min(per_probe, remaining)

    def compose_conflicts(
        self,
        max_conflicts: Optional[int],
        per_probe: Optional[float] = None,
    ) -> Optional[int]:
        """Scale a per-probe conflict budget by the remaining-time fraction.

        When the remaining whole-search time undercuts the per-probe time
        cap, the conflict budget shrinks proportionally (floored at 1 so a
        probe still makes progress); without a per-probe time cap — nothing
        to scale against — the conflict budget passes through unchanged.
        """
        if max_conflicts is None:
            return None
        remaining = self.remaining()
        if remaining is None or per_probe is None or per_probe <= 0:
            return max_conflicts
        if remaining >= per_probe:
            return max_conflicts
        return max(1, int(max_conflicts * remaining / per_probe))

    # ------------------------------------------------------------------ #
    # Pickling (the service's pool workers receive the deadline in a spec)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {"expires_at": self._expires_at}

    def __setstate__(self, state: dict) -> None:
        self._expires_at = state["expires_at"]
        self._clock = time.monotonic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._expires_at is None:
            return "Deadline.unbounded()"
        return f"Deadline(remaining={self.remaining():.3f}s)"
