"""A circuit breaker for the storage read path.

When the disk under a serving process degrades — a failing device
throwing ``EIO``, an NFS mount stalling, a corrupt segment raising on
every decode — naive retries turn one slow/broken dependency into a
pile-up of blocked handler threads.  A :class:`CircuitBreaker` watches
a sliding window of recent outcomes and **fails fast** once the
dependency is evidently unhealthy:

* **closed** — normal operation; outcomes are recorded.
* **open** — trips when, with at least ``min_samples`` outcomes in the
  window, the failure rate reaches ``failure_threshold`` *or* the
  fraction of calls slower than ``latency_threshold`` seconds reaches
  ``latency_fraction`` (a disk that "works" at 30s/read is down).
  Every call is refused with :class:`~repro.errors.CircuitOpenError`
  (HTTP 503 + ``Retry-After``) until ``reset_timeout`` elapses.
* **half-open** — after the cool-down, up to ``half_open_probes``
  trial calls are let through.  All succeeding closes the breaker
  (window cleared); any failure re-opens it and restarts the timer.

State transitions are counted in
``repro_breaker_transitions_total{from,to}``, the live state is the
``repro_breaker_state`` gauge (0 closed / 1 half-open / 2 open), and
refusals land in ``repro_breaker_rejections_total`` — all on the
process-wide registry, so a single ``/metrics`` scrape tells the whole
story.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import CircuitOpenError
from repro.obs import catalogue

__all__ = ["CircuitBreaker", "CLOSED", "HALF_OPEN", "OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Sliding-window failure-rate + latency circuit breaker."""

    def __init__(
        self,
        window: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 8,
        latency_threshold: float | None = None,
        latency_fraction: float = 0.5,
        reset_timeout: float = 5.0,
        half_open_probes: int = 1,
        name: str = "storage",
        clock=time.monotonic,
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(f"failure_threshold must be in (0, 1], got {failure_threshold}")
        self.window = int(window)
        self.failure_threshold = failure_threshold
        self.min_samples = int(min_samples)
        self.latency_threshold = latency_threshold
        self.latency_fraction = latency_fraction
        self.reset_timeout = float(reset_timeout)
        self.half_open_probes = int(half_open_probes)
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        # (ok: bool, latency: float | None) outcomes, newest last
        self._outcomes: deque = deque(maxlen=self.window)
        self._state = CLOSED
        self._opened_at: float | None = None
        self._probes_inflight = 0
        self._probe_failures = 0
        catalogue.BREAKER_STATE.set(0)

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, to: str) -> None:
        if to == self._state:
            return
        catalogue.BREAKER_TRANSITIONS.inc(**{"from": self._state, "to": to})
        catalogue.BREAKER_STATE.set(_STATE_VALUES[to])
        from repro.obs.logging import get_logger

        get_logger("repro.resilience").info(
            "breaker %s: %s -> %s", self.name, self._state, to
        )
        self._state = to
        if to == OPEN:
            self._opened_at = self._clock()
            self._probes_inflight = 0
            self._probe_failures = 0
        elif to == CLOSED:
            self._outcomes.clear()
            self._opened_at = None

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and self._clock() - self._opened_at >= self.reset_timeout:
            self._transition(HALF_OPEN)

    def _unhealthy(self) -> bool:
        samples = len(self._outcomes)
        if samples < self.min_samples:
            return False
        failures = sum(1 for ok, _ in self._outcomes if not ok)
        if failures / samples >= self.failure_threshold:
            return True
        if self.latency_threshold is not None:
            slow = sum(
                1
                for ok, latency in self._outcomes
                if latency is not None and latency > self.latency_threshold
            )
            if slow / samples >= self.latency_fraction:
                return True
        return False

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits probes.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes_inflight < self.half_open_probes:
                self._probes_inflight += 1
                return True
            catalogue.BREAKER_REJECTIONS.inc()
            return False

    def retry_after(self) -> float:
        """Seconds a refused caller should wait before retrying."""
        with self._lock:
            if self._opened_at is None:
                return self.reset_timeout
            return max(0.1, self.reset_timeout - (self._clock() - self._opened_at))

    def record_success(self, latency: float | None = None) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                if self._probes_inflight == 0 and self._probe_failures == 0:
                    self._transition(CLOSED)
                return
            self._outcomes.append((True, latency))
            # A slow success can still trip the latency trigger.
            if self._state == CLOSED and self._unhealthy():
                self._transition(OPEN)

    def record_failure(self, latency: float | None = None) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._probe_failures += 1
                self._transition(OPEN)
                return
            self._outcomes.append((False, latency))
            if self._state == CLOSED and self._unhealthy():
                self._transition(OPEN)

    # ------------------------------------------------------------------
    def call(self, fn, *args, **kwargs):
        """Run ``fn`` under the breaker, timing it.

        Refused calls raise :class:`CircuitOpenError`; failures
        (any exception from ``fn``) are recorded and re-raised.
        """
        if not self.allow():
            raise CircuitOpenError(
                f"{self.name} circuit breaker is {self._state}; "
                "reads are failing fast while the dependency recovers",
                retry_after=self.retry_after(),
            )
        started = self._clock()
        try:
            value = fn(*args, **kwargs)
        except Exception:
            self.record_failure(self._clock() - started)
            raise
        self.record_success(self._clock() - started)
        return value

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            samples = len(self._outcomes)
            failures = sum(1 for ok, _ in self._outcomes if not ok)
            return {
                "state": self._state,
                "samples": samples,
                "failures": failures,
                "failure_rate": failures / samples if samples else 0.0,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker(name={self.name!r}, state={self.state!r})"
