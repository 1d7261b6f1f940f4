"""Circuit breakers and the execution-tier degradation ladder.

PR 2/3 gave every query its own retry budget: a failing worker pool is
retried (with backoff) at full cost on *every* query, forever.  This
module adds the cross-query memory those retries lack.  The persistent
worker pool tier is wrapped in a :class:`CircuitBreaker` with the
classic three states:

* **closed** — requests flow; consecutive failures are counted,
* **open** — after :attr:`BreakerConfig.failure_threshold` consecutive
  failures the breaker trips: the tier is skipped outright (no retry
  cost) until :attr:`BreakerConfig.recovery_seconds` elapse,
* **half-open** — the next query is admitted as a probe; a clean run
  (``half_open_successes`` of them) closes the breaker, a failure
  re-opens it.

:class:`DegradationLadder` stacks the breakers into the engine's tier
order ``pool → serial → approx``: a round executes on the highest
tier whose breaker admits it, so repeated pool failures
deterministically walk the ladder down and self-heal back up, while
every completed *exact* tier stays bit-identical to serial execution
(serial computes the same answer — the ladder is *lossless* down to
serial).  By default serial is the floor and never
breaks: the engine always answers, it just answers with less
parallelism.  An engine built with an approximate floor
(``approx_floor=True``, the serving engine's ``approx=True``) instead
gives serial a breaker too and adds one rung below it: ``approx``
serves sketch-based estimates with an advertised error bound — the
only tier that trades accuracy, and the only one that can never break
(the engine always answers *something*, exact if any exact tier
stands, labelled-approximate otherwise).

Within a round, the pool's supervisor (:mod:`repro.engine.pool`)
feeds per-span failures into the active tier's breaker and stops
burning retries the moment it trips — the breaker replaces retry-only
logic instead of merely sitting above it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: the engine's execution tiers, fastest first; "serial" is the
#: unbreakable floor of the exact tiers, "approx" the sketch-serving
#: rung below it (only selectable on an engine with an approximate
#: floor, and never circuit-broken itself)
TIERS = ("pool", "serial", "approx")

#: the tiers that compute exact answers
EXACT_TIERS = ("pool", "serial")


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery knobs shared by every tier's breaker."""

    #: consecutive failures that trip a closed breaker
    failure_threshold: int = 3
    #: seconds an open breaker waits before admitting a probe
    recovery_seconds: float = 30.0
    #: clean probes required to close a half-open breaker
    half_open_successes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}"
            )
        if self.recovery_seconds < 0:
            raise ValueError(
                f"recovery_seconds must be >= 0, "
                f"got {self.recovery_seconds}"
            )
        if self.half_open_successes < 1:
            raise ValueError(
                f"half_open_successes must be >= 1, "
                f"got {self.half_open_successes}"
            )


class CircuitBreaker:
    """One tier's closed → open → half-open state machine.

    ``clock`` is injectable so recovery timing is testable without
    sleeping; production uses ``time.monotonic``.  All transitions are
    deterministic functions of the recorded failure/success sequence
    and the clock — no randomness, so fault schedules in tests walk
    the ladder reproducibly.
    """

    def __init__(
        self,
        name: str,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self.config = config or BreakerConfig()
        self._clock = clock
        self._state = CLOSED
        self._opened_at = 0.0
        self._half_open_successes = 0
        #: consecutive failures since the last success
        self.consecutive_failures = 0
        #: lifetime failure/success events
        self.failures = 0
        self.successes = 0
        #: transitions into the open state
        self.trips = 0

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, resolving open → half-open by the clock."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at
            >= self.config.recovery_seconds
        ):
            self._state = HALF_OPEN
            self._half_open_successes = 0
        return self._state

    def allow(self) -> bool:
        """Whether the tier may serve the next query (probe included)."""
        return self.state != OPEN

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._half_open_successes = 0
        self.trips += 1

    # -- events --------------------------------------------------------
    def record_failure(self) -> None:
        """One failure event (a failing span, or a failed round)."""
        self.failures += 1
        self.consecutive_failures += 1
        state = self.state
        if state == HALF_OPEN:
            self._trip()  # the probe failed: straight back to open
        elif (
            state == CLOSED
            and self.consecutive_failures
            >= self.config.failure_threshold
        ):
            self._trip()

    def record_success(self) -> None:
        """One clean query at this tier."""
        self.successes += 1
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._half_open_successes += 1
            if (
                self._half_open_successes
                >= self.config.half_open_successes
            ):
                self._state = CLOSED

    def force_open(self) -> None:
        """Trip the breaker administratively (chaos drills, operators).

        An already-open breaker has its recovery window restarted, so
        repeated drills keep the tier down without re-counting trips.
        """
        if self.state == OPEN:
            self._opened_at = self._clock()
        else:
            self._trip()

    def snapshot(self) -> dict:
        """Health-probe view of this breaker."""
        return {
            "state": self.state,
            "trips": self.trips,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
        }


class DegradationLadder:
    """The engine's tier stack: pool → serial(→ approx).

    One breaker per breakable tier; :meth:`select` returns the highest
    *available* tier whose breaker admits the query.  Without an
    approximate floor ``serial`` has no breaker — it is the lossless
    floor every query can always fall back to.  With
    ``approx_floor=True`` serial is circuit-broken like the tiers
    above it and ``approx`` becomes the (unbreakable) floor: the
    engine keeps answering, labelled approximate, while every exact
    tier is down.
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        approx_floor: bool = False,
    ):
        self.config = config or BreakerConfig()
        self.approx_floor = bool(approx_floor)
        self.floor = "approx" if self.approx_floor else "serial"
        self.breakers: dict[str, CircuitBreaker] = {
            tier: CircuitBreaker(tier, self.config, clock)
            for tier in EXACT_TIERS
            if self.approx_floor or tier != "serial"
        }

    def select(self, available: tuple[str, ...]) -> str:
        """The tier the next query should execute on.

        ``available`` is the ordered subset of :data:`TIERS` this query
        could use (e.g. no "pool" entry on an engine without a pool);
        it must end with the ladder's floor tier.
        """
        for tier in available:
            breaker = self.breakers.get(tier)
            if breaker is None or breaker.allow():
                return tier
        return self.floor

    def trip_exact_tiers(self) -> None:
        """Force-open every exact tier's breaker (the ``exact-down``
        chaos fault) — the next queries land on the ladder's floor."""
        for breaker in self.breakers.values():
            breaker.force_open()

    def record(self, tier: str, ok: bool) -> None:
        """Feed one query's outcome into its tier's breaker."""
        breaker = self.breakers.get(tier)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    @property
    def trips(self) -> int:
        """Lifetime breaker trips across every tier."""
        return sum(b.trips for b in self.breakers.values())

    def trips_by_tier(self) -> dict[str, int]:
        """``{tier: lifetime trips}`` — the per-tier split of
        :attr:`trips`, feeding ``pinls_breaker_trips_total{tier=...}``."""
        return {name: b.trips for name, b in self.breakers.items()}

    def states(self) -> dict[str, str]:
        """``{tier: state}`` for every breakable tier."""
        return {name: b.state for name, b in self.breakers.items()}

    def snapshot(self) -> dict:
        """Health-probe view of the whole ladder."""
        return {name: b.snapshot() for name, b in self.breakers.items()}
