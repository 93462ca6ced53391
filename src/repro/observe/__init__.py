"""Unified tracing & metrics: measured timelines, predicted-schedule
events, Perfetto export, and predicted-vs-measured validation.

One event vocabulary across every layer of the stack:

* :class:`Tracer` + typed events (:mod:`repro.observe.events`) — the
  measured side: one ``launch`` span per kernel launch recorded by
  ``Executor.run_lowered`` (overlap members run whole there, so there
  are no chunk spans), and the SPMD backend's per-rank ring buffers
  merged in, where the real chunked publication shows up.
* :class:`TraceRing` / :func:`merge_rank_traces`
  (:mod:`repro.observe.ring`) — per-rank buffers of 112-byte records
  in the SPMD launch's shared memory, written without numpy, that
  survive faulty-rank teardown and merge onto the tracer's clock.
* :mod:`repro.observe.compare` — joins a DES-predicted ``Timeline``
  with measured spans into a per-op latency-ratio table.
* :mod:`repro.observe.perfetto` — Chrome/Perfetto ``trace_event``
  JSON export (open at https://ui.perfetto.dev).
"""

from repro import lazy_exports

#: public name -> its submodule; a rank process imports only ``ring``
_EXPORTS = {
    "Tracer": "events",
    "SpanEvent": "events",
    "InstantEvent": "events",
    "CounterEvent": "events",
    "describe_events": "events",
    "MetricsRegistry": "metrics",
    "TraceRing": "ring",
    "merge_rank_traces": "ring",
    "OpComparison": "compare",
    "TimelineComparison": "compare",
    "compare_timelines": "compare",
    "to_trace_events": "perfetto",
    "export": "perfetto",
    "validate": "perfetto",
    "write_trace": "perfetto",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
