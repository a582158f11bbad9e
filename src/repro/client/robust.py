"""Client-side overload coherence: backoff, retry budgets, circuit breaker.

Retries amplify overload: a server shedding 50 % of arrivals sees its
offered load *double* if every NACK is retried immediately.  The three
pieces here keep a fleet of retrying clients from melting the server they
are trying to protect themselves against (see ``docs/ROBUSTNESS.md``),
and :class:`RetryPolicy` decides each retry with them:

- :class:`BackoffPolicy` - capped exponential backoff with deterministic
  seeded jitter, one independent stream per retry *kind* (loss vs busy).
- :class:`RetryBudget` - a token pool shared across a client's flights;
  retries spend tokens, successes slowly refill them, so sustained
  failure degrades to fast-fail instead of retry storms.
- :class:`CircuitBreaker` - classic closed / open / half-open automaton
  over a sliding simulated-time window of outcomes; while open the
  client fails fast without touching the wire.

Everything is seeded and driven by simulated time, so runs replay
byte-identically.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

#: Circuit-breaker state codes, exported for the ``client.breaker_state``
#: gauge: 0 = closed (normal), 1 = open (failing fast), 2 = half-open.
BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2


class BackoffPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``delay(attempt)`` for attempt 1, 2, 3, ... is::

        min(base_ns * 2**(attempt-1), max_ns) * (1 + jitter * u)

    where ``u`` is drawn from a :class:`random.Random` seeded from
    ``(seed, stream)`` - so two policies with the same seed but different
    streams (say ``"loss"`` and ``"busy"``) produce independent yet fully
    reproducible jitter sequences.  ``jitter=0`` (the default) reproduces
    the historical deterministic schedule exactly.
    """

    def __init__(
        self,
        base_ns: float,
        max_ns: Optional[float] = None,
        jitter: float = 0.0,
        seed: int = 0,
        stream: str = "loss",
    ) -> None:
        if not base_ns >= 0:
            raise ConfigurationError("backoff base must be non-negative")
        if max_ns is not None and not max_ns >= base_ns:
            raise ConfigurationError(
                f"backoff cap {max_ns} below base {base_ns}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(
                f"backoff jitter must be in [0, 1]: {jitter}"
            )
        self.base_ns = base_ns
        self.max_ns = max_ns
        self.jitter = jitter
        self._rng = random.Random(f"backoff:{seed}:{stream}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        # The exponent is capped where a float still holds the power of
        # two, so a long retry run saturates at max_ns instead of raising
        # OverflowError; below the cap the product is the same float.
        delay = self.base_ns * 2.0 ** (attempt - 1 if attempt < 1024 else 1023)
        # min() as a comparison: RetryPolicy.retry_after is a retry's call.
        if self.max_ns is not None and self.max_ns < delay:
            delay = self.max_ns
        if self.jitter:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay


class RetryBudget:
    """A shared token pool bounding total retry work.

    Every retry spends one token; every success earns back
    ``refill_per_success`` (fractional, accumulated).  When the pool is
    empty, :meth:`try_spend` refuses and the caller must fail fast - the
    mechanism that turns a retry storm into graceful fast-fail once the
    server is persistently overloaded.
    """

    def __init__(
        self, capacity: float = 16.0, refill_per_success: float = 0.1
    ) -> None:
        if not capacity > 0:
            raise ConfigurationError("retry budget capacity must be positive")
        if not refill_per_success >= 0:
            raise ConfigurationError("refill per success must be >= 0")
        self.capacity = float(capacity)
        self.refill_per_success = float(refill_per_success)
        self.tokens = float(capacity)
        self.spent = 0
        self.refused = 0

    def try_spend(self) -> bool:
        """Spend one token if available; ``False`` means fail fast."""
        if self.tokens < 1.0:
            self.refused += 1
            return False
        self.tokens -= 1.0
        self.spent += 1
        return True

    def on_success(self) -> None:
        """Credit the pool after one successful flight."""
        self.tokens = min(self.capacity, self.tokens + self.refill_per_success)


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding time window.

    Outcomes (success or failure; which failures count is the caller's,
    see ``docs/ROBUSTNESS.md``) are :meth:`record`-ed with the *simulated*
    clock read from ``clock`` (wire to ``sim: lambda: sim.now``).  When,
    within the last ``window_ns``, at least ``min_samples`` outcomes were
    seen and the failure fraction reaches ``failure_threshold``, the
    breaker *opens*: :meth:`allow` refuses for ``open_ns``.  The first
    call after the open period moves to *half-open* - one probe is
    allowed; its success closes the breaker, its failure re-opens it.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        window_ns: float = 1_000_000.0,
        failure_threshold: float = 0.5,
        min_samples: int = 10,
        open_ns: float = 100_000.0,
    ) -> None:
        if not (window_ns > 0 and open_ns > 0):
            raise ConfigurationError("breaker windows must be positive")
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                f"failure threshold must be in (0, 1]: {failure_threshold}"
            )
        if not min_samples >= 1:
            raise ConfigurationError("need at least one sample to trip")
        self._clock = clock
        self.window_ns = window_ns
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.open_ns = open_ns
        self.state_code = BREAKER_CLOSED
        self._opened_at = 0.0
        self._events: List[Tuple[float, bool]] = []  # (when, ok)
        self.opens = 0

    # -- behaviour ----------------------------------------------------------

    def allow(self) -> bool:
        """May a flight be attempted now?  Advances open -> half-open."""
        if self.state_code == BREAKER_CLOSED:
            return True
        if self.state_code == BREAKER_OPEN:
            if self._clock() - self._opened_at >= self.open_ns:
                self.state_code = BREAKER_HALF_OPEN
                return True
            return False
        # Half-open: exactly one probe at a time; callers serialize on the
        # simulated clock, so allowing is correct here.
        return True

    def wait_ns(self) -> float:
        """Simulated ns until the open period elapses (0 when not open)."""
        if self.state_code != BREAKER_OPEN:
            return 0.0
        remaining = self.open_ns - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def record(self, ok: bool) -> None:
        """Feed one flight outcome into the automaton."""
        now = self._clock()
        if self.state_code == BREAKER_HALF_OPEN:
            if ok:
                self.state_code = BREAKER_CLOSED
                self._events.clear()
            else:
                self._trip(now)
            return
        self._events.append((now, ok))
        self._prune(now)
        if self.state_code != BREAKER_CLOSED:
            return
        if len(self._events) < self.min_samples:
            return
        failures = sum(1 for __, event_ok in self._events if not event_ok)
        if failures / len(self._events) >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state_code = BREAKER_OPEN
        self._opened_at = now
        self.opens += 1
        self._events.clear()

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_ns
        self._events = [
            (when, ok) for when, ok in self._events if when >= cutoff
        ]



#: What :meth:`RetryPolicy.retry_after` answers in place of a delay when
#: the kind's attempt limit is spent, or the shared budget has no token.
LIMIT = "limit"
BUDGET = "budget"


class RetryPolicy:
    """One retry kind's decision: its attempt limit and seeded backoff
    stream over the caller's shared budget and breaker (either ``None``).
    Callers record outcomes themselves, inline on their success paths."""

    __slots__ = ("limit", "backoff", "budget", "breaker")

    def __init__(self, limit: int, backoff: BackoffPolicy,
                 budget: Optional[RetryBudget],
                 breaker: Optional[CircuitBreaker]) -> None:
        if type(limit) is not int or limit < 0:
            raise ConfigurationError(
                f"retry limit must be a non-negative int: {limit!r}"
            )
        self.limit, self.backoff = limit, backoff
        self.budget, self.breaker = budget, breaker

    def hold_ns(self) -> float:
        """Ns to hold a send for an open breaker (at least 1, so the
        re-check is a later instant); 0 sends now."""
        breaker = self.breaker
        if breaker is None or breaker.allow():
            return 0.0
        return max(breaker.wait_ns(), 1.0)

    def retry_after(self, attempt: int) -> Union[float, str]:
        """The backoff before retry ``attempt`` (1-based), or why to give
        up: :data:`LIMIT`, else :data:`BUDGET` if the budget refuses."""
        if attempt > self.limit:
            return LIMIT
        budget = self.budget
        if budget is not None and not budget.try_spend():
            return BUDGET
        return self.backoff.delay(attempt)
