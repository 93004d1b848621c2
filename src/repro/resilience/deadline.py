"""Per-request deadlines, propagated through the whole read path.

A serving process must never let one slow request hold a handler
thread (and the resources under it) indefinitely.  A :class:`Deadline`
is an absolute monotonic expiry carried in a :mod:`contextvars`
context variable, so it flows from the HTTP handler (the
``X-Deadline-Ms`` request header) through the query engine's cache
miss, into the lazy index build and down to every individual segment
decode — with zero plumbing through signatures.

The layers cooperate by calling :func:`check_deadline` at natural
cancellation points (before a cache-miss compute, per segment file,
before WAL replay).  An expired deadline raises
:class:`~repro.errors.DeadlineExceededError`, which the HTTP layer
maps to **504 Gateway Timeout** — the work is abandoned at the next
checkpoint rather than cancelled preemptively, which is the strongest
guarantee a cooperative runtime can give.

Expiries are counted per-site in ``repro_deadline_expiries_total`` so
operators can see *where* budgets die (all in ``segment.read`` means
storage is the bottleneck; all in ``engine.query`` means compute).
"""

from __future__ import annotations

import contextlib
import contextvars
import time

from repro.errors import DeadlineExceededError
from repro.obs import catalogue

__all__ = [
    "Deadline",
    "bind_deadline",
    "check_deadline",
    "current_deadline",
    "remaining_ms",
]

_CURRENT: contextvars.ContextVar["Deadline | None"] = contextvars.ContextVar(
    "repro_deadline", default=None
)


class Deadline:
    """An absolute expiry on the monotonic clock."""

    __slots__ = ("expires_at", "budget_ms")

    def __init__(self, budget_ms: float):
        if not budget_ms > 0:  # also rejects NaN, which compares false
            raise ValueError(f"deadline budget must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self.expires_at = time.monotonic() + budget_ms / 1000.0

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        return cls(budget_ms)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone."""
        overrun = time.monotonic() - self.expires_at
        if overrun >= 0:
            catalogue.DEADLINE_EXPIRIES.inc(site=site or "unknown")
            raise DeadlineExceededError(site=site, overrun_ms=overrun * 1000.0)

    def __repr__(self) -> str:
        return f"Deadline(budget_ms={self.budget_ms:.0f}, remaining={self.remaining():.3f}s)"


def current_deadline() -> Deadline | None:
    """The deadline bound to this context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def bind_deadline(deadline: Deadline | None):
    """Bind ``deadline`` for the duration of the ``with`` block.

    Binding ``None`` explicitly clears an inherited deadline (used by
    background work that must not die with the request that spawned
    it).
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def check_deadline(site: str = "") -> None:
    """Cooperative cancellation point: no-op unless a bound deadline
    has expired, in which case :class:`DeadlineExceededError`."""
    deadline = _CURRENT.get()
    if deadline is not None:
        deadline.check(site)


def remaining_ms() -> float | None:
    """Milliseconds left on the bound deadline (None when unbound)."""
    deadline = _CURRENT.get()
    return None if deadline is None else deadline.remaining() * 1000.0
