"""The flight recorder: a bounded ring buffer of structured events.

One :class:`FlightRecorder` instance collects the event stream of a
run (and, when installed as the ambient recorder, the host-side build
and cache events too).  The buffer is bounded — old events fall off
the front, like a hardware ETB — so it is always safe to leave
recording on; the tail is what a crash context needs.

Enablement is an *object-identity* question, not a flag check: code at
an emit seam reads ``machine.recorder`` (or :func:`active_recorder`)
and skips emission entirely when it is ``None``.  With tracing off the
hot interpreter loop executes no observability code at all — the
guards live only on cold seams (operation switches, faults, IRQ
dispatch), which is how the disabled-mode overhead stays near zero
(see ``benchmarks/bench_obs.py``).

``REPRO_TRACE`` and ``REPRO_TRACE_BUF`` (:mod:`repro.config`) decide
whether runs started without an explicit recorder record events, and
into how large a ring.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .. import config
from ..config import DEFAULT_CAPACITY
from .events import (
    BEGIN,
    CRASH,
    DOMAIN_HOST,
    DOMAIN_SIM,
    END,
    Event,
    INSTANT,
)


class FlightRecorder:
    """Bounded, deterministic structured-event sink."""

    __slots__ = ("capacity", "seq", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.seq = 0
        self.dropped = 0
        self._events: deque[Event] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._events)

    # -- emission -----------------------------------------------------

    def emit(self, ph: str, kind: str, name: str, ts: Optional[int],
             domain: str = DOMAIN_SIM,
             args: Optional[dict] = None) -> Event:
        """Record one event.  ``ts`` is the DWT cycle count; pass
        ``None`` for host-domain events to timestamp with the sequence
        counter (deterministic ordering, no wall clock)."""
        seq = self.seq
        self.seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = Event(seq, seq if ts is None else ts, ph, kind, name,
                      domain, args)
        self._events.append(event)
        return event

    def begin(self, kind: str, name: str, ts: Optional[int],
              domain: str = DOMAIN_SIM,
              args: Optional[dict] = None) -> Event:
        return self.emit(BEGIN, kind, name, ts, domain, args)

    def end(self, kind: str, name: str, ts: Optional[int],
            domain: str = DOMAIN_SIM,
            args: Optional[dict] = None) -> Event:
        return self.emit(END, kind, name, ts, domain, args)

    def instant(self, kind: str, name: str, ts: Optional[int],
                domain: str = DOMAIN_SIM,
                args: Optional[dict] = None) -> Event:
        return self.emit(INSTANT, kind, name, ts, domain, args)

    # -- inspection ---------------------------------------------------

    def events(self, domain: Optional[str] = None) -> list[Event]:
        """A snapshot of the buffered events, optionally one domain."""
        if domain is None:
            return list(self._events)
        return [e for e in self._events if e.domain == domain]

    def tail(self, count: int) -> list[Event]:
        """The most recent ``count`` events (the crash window)."""
        if count <= 0:
            return []
        events = self._events
        if count >= len(events):
            return list(events)
        return list(events)[-count:]

    def clear(self) -> None:
        self._events.clear()
        self.seq = 0
        self.dropped = 0

    # -- crash context ------------------------------------------------

    def crash_context(self, count: int = 32) -> str:
        """The last ``count`` events, formatted for a fault report."""
        lines = [f"flight recorder: last {min(count, len(self._events))} "
                 f"of {self.seq} events ({self.dropped} dropped)"]
        for event in self.tail(count):
            args = "" if not event.args else " " + " ".join(
                f"{k}={event.args[k]}" for k in sorted(event.args))
            lines.append(
                f"  #{event.seq:<6d} ts={event.ts:<12d} {event.ph} "
                f"{event.kind:<16s} {event.name}{args}")
        return "\n".join(lines)


# -- ambient recorder -----------------------------------------------------
#
# The process-global recorder host-side seams (pipeline stages, cache
# traffic) and recorder-less runs emit into.  Configured lazily from
# the environment; ``install()`` overrides it (the CLI trace verb and
# tests use this), ``reset_active()`` forgets the memo so the
# environment is re-read.

_UNSET = object()
_active = _UNSET


def active_recorder() -> Optional[FlightRecorder]:
    """The ambient recorder, or ``None`` when tracing is off."""
    global _active
    if _active is _UNSET:
        settings = config.current()
        _active = FlightRecorder(settings.trace_buf) if settings.trace \
            else None
    return _active


def install(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Set the ambient recorder; returns the previous one (which may
    be ``None``, or the unset sentinel collapsed to ``None``)."""
    global _active
    previous = None if _active is _UNSET else _active
    _active = recorder
    return previous


def reset_active() -> None:
    """Forget the ambient recorder so the environment is re-read."""
    global _active
    _active = _UNSET


def attach_crash_context(error: BaseException,
                         recorder: Optional[FlightRecorder],
                         ts: Optional[int] = None,
                         count: int = 32) -> None:
    """Dump the recorder tail onto ``error`` as ``crash_context``.

    Called when a terminal fault escapes a run: the exception carries
    the last-N event window so the failure is diagnosable without
    re-running under a debugger.  No-op without a recorder.
    """
    if recorder is None:
        return
    recorder.instant(CRASH, type(error).__name__, ts,
                     args={"reason": str(error)})
    error.crash_context = recorder.crash_context(count)


__all__ = [
    "DEFAULT_CAPACITY", "DOMAIN_HOST", "DOMAIN_SIM", "FlightRecorder",
    "active_recorder", "attach_crash_context", "install", "reset_active",
]
