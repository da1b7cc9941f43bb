"""Deterministic observability: flight recorder + metrics registry.

``repro.obs`` is the instrument every other layer reports into:

* :mod:`repro.obs.events` — the typed event taxonomy (operation-switch
  phases, SVC/IRQ, fault handling, build stages, cache traffic);
* :mod:`repro.obs.recorder` — the bounded ring-buffer
  :class:`FlightRecorder` and the ambient-recorder plumbing
  (``REPRO_TRACE`` / ``REPRO_TRACE_BUF``);
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters
  and cycle histograms (the machine's ``stats`` shim sits on top);
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto), TSV
  event log, summaries.

Everything here is timestamped with simulated DWT cycles or sequence
numbers — never wall clock — so enabled-mode output is byte-identical
across runs; disabled mode (the default) emits nothing and costs one
``is None`` check per cold seam.  See DESIGN.md, "Observability".
"""

from .events import (
    BEGIN,
    DOMAIN_HOST,
    DOMAIN_SIM,
    END,
    Event,
    INSTANT,
)
from .export import chrome_trace, event_tsv, span_pairs, trace_summary
from .metrics import Counter, CycleHistogram, MetricsRegistry
from .recorder import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    active_recorder,
    attach_crash_context,
    install,
    reset_active,
)

__all__ = [
    "BEGIN", "DOMAIN_HOST", "DOMAIN_SIM", "END", "Event", "INSTANT",
    "chrome_trace", "event_tsv", "span_pairs", "trace_summary",
    "Counter", "CycleHistogram", "MetricsRegistry",
    "DEFAULT_CAPACITY", "FlightRecorder", "active_recorder",
    "attach_crash_context", "install", "reset_active",
]
