"""Bounded-queue admission control for the serving layer.

``ThreadingHTTPServer`` spawns a thread per connection, so without a
bound an overload (or a storage stall holding requests open) grows the
thread pile until memory or the OS gives out — the classic congestion
collapse.  :class:`LoadShedder` puts two bounds in front of request
handling:

* at most ``max_inflight`` requests execute concurrently;
* at most ``max_queued`` more may *wait* (up to ``queue_timeout``
  seconds) for a slot.

Anything beyond that is **shed immediately** with
:class:`~repro.errors.OverloadedError`, which the HTTP layer maps to
**503 Service Unavailable** plus a ``Retry-After`` hint — the
well-behaved-client backpressure signal.  Shedding a request costs
microseconds; serving it during an overload can cost unbounded memory.

The shedder doubles as the server's **drain** primitive for graceful
shutdown: :meth:`close` makes new admissions fail, and
:meth:`drain` blocks until in-flight requests complete (or a timeout
passes), so a SIGTERM'd server finishes what it accepted, flushes its
WAL and releases its writer lock before exiting.

Gauges ``repro_inflight_requests`` / ``repro_queued_requests`` and the
``repro_shed_requests_total`` counter live on the process-wide
registry.
"""

from __future__ import annotations

import contextlib
import threading

from repro.errors import OverloadedError
from repro.obs import catalogue

__all__ = ["LoadShedder"]

class LoadShedder:
    """Two-stage admission: bounded concurrency, bounded wait queue."""

    def __init__(
        self,
        max_inflight: int = 64,
        max_queued: int = 128,
        queue_timeout: float = 0.5,
        retry_after: float = 1.0,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.max_queued = int(max_queued)
        self.queue_timeout = float(queue_timeout)
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._closed = False

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Admit one request or raise :class:`OverloadedError`.

        Fast path: a free slot.  Slow path: wait (bounded in count and
        time) for one.  A closed shedder (draining server) refuses
        everything.
        """
        with self._lock:
            if self._closed:
                catalogue.SHED_REQUESTS.inc()
                raise OverloadedError(
                    "server is shutting down", retry_after=self.retry_after
                )
            if self._inflight < self.max_inflight:
                self._inflight += 1
                catalogue.INFLIGHT_REQUESTS.set(self._inflight)
                return
            if self._queued >= self.max_queued:
                catalogue.SHED_REQUESTS.inc()
                raise OverloadedError(
                    f"request queue full ({self._inflight} in flight, "
                    f"{self._queued} queued)",
                    retry_after=self.retry_after,
                )
            self._queued += 1
            catalogue.QUEUED_REQUESTS.set(self._queued)
            try:
                granted = self._slot_freed.wait_for(
                    lambda: self._closed or self._inflight < self.max_inflight,
                    timeout=self.queue_timeout,
                )
            finally:
                self._queued -= 1
                catalogue.QUEUED_REQUESTS.set(self._queued)
            if not granted or self._closed:
                catalogue.SHED_REQUESTS.inc()
                raise OverloadedError(
                    "timed out waiting for an execution slot",
                    retry_after=self.retry_after,
                )
            self._inflight += 1
            catalogue.INFLIGHT_REQUESTS.set(self._inflight)

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            catalogue.INFLIGHT_REQUESTS.set(self._inflight)
            self._slot_freed.notify()

    @contextlib.contextmanager
    def admitted(self):
        """``with shedder.admitted(): handle(request)``"""
        self.acquire()
        try:
            yield
        finally:
            self.release()

    # -- graceful shutdown ---------------------------------------------
    @property
    def closed(self) -> bool:
        """True once draining — long-lived streams use this to end."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Refuse all new admissions (draining)."""
        with self._lock:
            self._closed = True
            self._slot_freed.notify_all()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight requests to finish; True when drained."""
        with self._lock:
            return self._slot_freed.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_inflight": self.max_inflight,
                "max_queued": self.max_queued,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"LoadShedder(inflight={stats['inflight']}/{self.max_inflight}, "
            f"queued={stats['queued']}/{self.max_queued})"
        )
