"""Request deadlines and the ambient deadline scope.

A request's optional ``deadline_ms`` becomes a :class:`Deadline`
anchored at receipt.  The serving tier makes it ambient with
:func:`deadline_scope`; the observe loop
(:meth:`repro.core.randomized.GetNextRandomized.observe`) reads it with
:func:`current_deadline` and checks it between chunk groups —
cooperative cancellation that keeps every completed chunk in the pool,
so a retry resumes warm instead of resampling from zero.

The module sits below every tier that reads a deadline and imports
nothing from the package; :mod:`repro.server.resilience` re-exports
its names.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "deadline_scope",
    "current_deadline",
]


class DeadlineExceededError(Exception):
    """A request's deadline expired before (or while) serving it.

    Raised by cooperative cancellation points; the protocol layer maps
    it to the ``deadline_exceeded`` error code.  Work already completed
    (pool samples from finished chunk groups) is kept, so a retry of an
    idempotent read resumes warm.
    """


class Deadline:
    """A wall-deadline anchored on the monotonic clock.

    Built once at request receipt (``deadline_ms`` is *relative* to
    receipt, so client and server clocks never need agreement) and
    threaded — explicitly or via :func:`deadline_scope` — through lock
    waits, dispatch, and the observe path.
    """

    __slots__ = ("deadline_ms", "expires_at")

    def __init__(self, deadline_ms: float, *, expires_at: float | None = None):
        self.deadline_ms = float(deadline_ms)
        self.expires_at = (
            expires_at
            if expires_at is not None
            else time.monotonic() + self.deadline_ms / 1000.0
        )

    @classmethod
    def from_request(cls, payload: dict) -> "Deadline | None":
        """The request's deadline, or ``None`` when it did not name one.

        Assumes the field already passed protocol validation; garbage
        values are ignored rather than raised (defense in depth for
        direct dispatch callers).
        """
        value = payload.get("deadline_ms")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if not value > 0:
            return None
        return cls(value)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past it)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` once the deadline passed."""
        if self.expired():
            raise DeadlineExceededError(
                f"deadline of {self.deadline_ms:g} ms exceeded: {what}"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.deadline_ms:g}ms, {self.remaining():.3f}s left)"


_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The ambient deadline of the request being served (or ``None``)."""
    return _DEADLINE.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make ``deadline`` ambient for the duration of the block.

    ``None`` is a no-op scope, so callers can wrap unconditionally.
    The contextvar is set on the *current thread's* context — dispatch
    runs on an executor thread and sets the scope there, which is
    exactly where the observe loop later reads it.
    """
    if deadline is None:
        yield
        return
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)
