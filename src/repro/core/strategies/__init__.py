"""Minimum-stage search strategies.

:data:`STRATEGIES` names every strategy the package offers:

* ``linear`` (:data:`DEFAULT_STRATEGY`) — iterative deepening from the
  analytic lower bound (the paper's Sec. V-A procedure), stopping below the
  structured scheduler's certified upper bound.
* ``bisection`` — binary search between the IR's analytic lower bound and
  the same certified upper bound.

:data:`DEFAULT_STRATEGY` is the one default: :class:`SMTScheduler
<repro.core.scheduler.SMTScheduler>`, the service
(``SchedulingService(default_strategy=)``), the load test and the CLI's
``serve``/``loadtest --strategy`` all read it.  It was decided on the paper
tier: on Steane (Layout 2, ten labelings) and surface (paper labels)
``linear`` certifies the same optima with fewer summed conflicts than
``bisection``, whose SAT probes above the optimum cost the most.

Both are horizon orders over one in-process driver,
:func:`repro.core.strategies.search.search`, which owns the probe loop and
the graceful-degradation contract (the structured witness computed
before the first probe, deadline checks between probes, backend failures,
sound bound lifting, the witness as fallback and the termination
verdict).  Every probe runs on one growable
incremental instance (:class:`~repro.core.strategies.base.SearchContext`).

The table is the one place a strategy name exists: :func:`get_strategy`,
:func:`available_strategies`, the SMT bench suite, the service's admission
check and the CLI's ``--strategy`` choices all read it.
"""

from repro.core.strategies.base import SearchContext, SearchLimits
from repro.core.strategies.search import (
    BisectionStrategy,
    LinearStrategy,
    structured_upper_bound,
)

#: Strategy name -> strategy class (constructed without arguments by
#: :func:`get_strategy`).  The order is the SMT bench suite's cell order.
STRATEGIES = {
    "linear": LinearStrategy,
    "bisection": BisectionStrategy,
}

#: The strategy every entry point runs when none is named.
DEFAULT_STRATEGY = "linear"


def available_strategies() -> list[str]:
    """Names of all strategies (sorted)."""
    return sorted(STRATEGIES)


def get_strategy(name: str):
    """A fresh instance of the strategy named *name*."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        known = ", ".join(available_strategies())
        raise ValueError(f"unknown strategy {name!r} (available: {known})") from None
    return cls()


__all__ = [
    "BisectionStrategy",
    "DEFAULT_STRATEGY",
    "LinearStrategy",
    "STRATEGIES",
    "SearchContext",
    "SearchLimits",
    "available_strategies",
    "get_strategy",
    "structured_upper_bound",
]
