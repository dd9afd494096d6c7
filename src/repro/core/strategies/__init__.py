"""Pluggable minimum-stage search strategies.

Importing this package registers the built-in strategies:

* ``linear`` — iterative deepening from the analytic lower bound (the
  paper's Sec. V-A procedure and the seed's behaviour).
* ``bisection`` — binary search between the IR's analytic lower bound and
  the structured scheduler's certified upper bound, on one incremental
  instance.
* ``portfolio`` — races the single strategies (plus one bisection variant
  per extra usable SAT backend) across worker processes; the first
  certified optimum wins and the losers are cancelled.

``linear`` and ``bisection`` are two horizon orders over one driver,
:func:`repro.core.strategies.search.search`, which owns the probe loop and
the graceful-degradation contract (deadline checks between probes,
backend failures, sound bound lifting, the structured-witness fallback
and the termination verdict).  The probes run through a context
(:mod:`repro.core.strategies.base`): one growable incremental instance, or
a fresh cold-start encoding per horizon with ``incremental=False``.

Strategies are looked up by name through :func:`get_strategy`; third-party
strategies can join the registry with :func:`register_strategy`.
"""

from repro.core.strategies.base import (
    SearchContext,
    SearchLimits,
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.core.strategies.search import (
    BisectionStrategy,
    LinearStrategy,
    structured_upper_bound,
)
from repro.core.strategies.portfolio import PortfolioStrategy

__all__ = [
    "BisectionStrategy",
    "LinearStrategy",
    "PortfolioStrategy",
    "SearchContext",
    "SearchLimits",
    "SearchStrategy",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "structured_upper_bound",
]
