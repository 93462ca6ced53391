"""Typed trace events and the low-overhead :class:`Tracer`.

The unified event schema of the observability layer: every producer —
the lowered-stream interpreter, the SPMD communicator rings, the DES
cost model's predicted timeline — emits the same three event types, so
exporters (:mod:`repro.observe.perfetto`) and the predicted-vs-measured
aligner (:mod:`repro.observe.compare`) need exactly one vocabulary.

* :class:`SpanEvent` — a named interval on a (pid, tid) track. ``pid``
  identifies the *process-level* track ("main", "rank0".."rankN",
  "predicted"); ``tid`` the stream/resource within it (an issue stream,
  ``gpu:0``, ``fabric:node0``, "comm").
* :class:`InstantEvent` — a point marker (bucket-table packs).
* :class:`CounterEvent` — a sampled numeric series (bytes moved).

Timestamps are float *seconds* relative to a tracer's epoch (the DES
timeline natively speaks seconds; measured events subtract the epoch of
the owning tracer). The tracer clock is ``time.perf_counter`` — the
highest-resolution monotonic clock Python exposes — and recording one
span costs two clock reads plus one dataclass allocation, cheap enough
to leave enabled around every lowered instruction.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.observe.metrics import MetricsRegistry

__all__ = [
    "SpanEvent",
    "InstantEvent",
    "CounterEvent",
    "Tracer",
    "describe_events",
]


@dataclass
class SpanEvent:
    """A named interval on a (pid, tid) track."""

    name: str
    cat: str
    ts: float
    dur: float
    pid: str
    tid: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass
class InstantEvent:
    """A point marker on a (pid, tid) track."""

    name: str
    cat: str
    ts: float
    pid: str
    tid: str
    args: Dict[str, object] = field(default_factory=dict)


@dataclass
class CounterEvent:
    """One sample of a numeric series."""

    name: str
    ts: float
    value: float
    pid: str
    tid: str = "counters"


class Tracer:
    """Collects typed events against one monotonic epoch.

    The tracer owns an event list, a :class:`MetricsRegistry` for
    scalar counters that do not need a time series, and the epoch all
    measured timestamps are relative to. It is deliberately not
    thread-safe beyond CPython list-append atomicity — each producer
    (process, stream thread) records into its own buffer and buffers
    are merged afterwards (see :func:`repro.observe.ring.merge_rank_traces`).
    """

    def __init__(self, pid: str = "main") -> None:
        self.pid = pid
        self.events: List[object] = []
        self.metrics = MetricsRegistry()
        #: the ``time.perf_counter()`` reading that is this tracer's 0
        self.epoch = time.perf_counter()

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self.epoch

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "", tid: str = "main", **args):
        """Record the enclosed block as one :class:`SpanEvent`."""
        t0 = self.now()
        try:
            yield
        finally:
            self.events.append(
                SpanEvent(name, cat, t0, self.now() - t0, self.pid, tid, args)
            )

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        cat: str = "",
        tid: str = "main",
        pid: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> SpanEvent:
        """Record an externally timed span (caller supplies ts/dur)."""
        ev = SpanEvent(
            name, cat, ts, dur, pid or self.pid, tid, args or {}
        )
        self.events.append(ev)
        return ev

    def instant(
        self,
        name: str,
        cat: str = "",
        tid: str = "main",
        args: Optional[Dict[str, object]] = None,
        ts: Optional[float] = None,
    ) -> InstantEvent:
        ev = InstantEvent(
            name, cat, self.now() if ts is None else ts, self.pid, tid,
            args or {},
        )
        self.events.append(ev)
        return ev

    def record_compile(self, name: str, seconds: float, status: str) -> None:
        """Record a native kernel compile (``status`` ``"compile"`` or
        ``"recompile"``) as a ``compile`` instant named ``<status>:<key>``,
        and count it as ``spmd.<pid>.kernel_compiles`` and
        ``spmd.<pid>.compile_seconds``: the observer that
        :func:`repro.core.codegen.native.load_kernels` reports to."""
        self.instant(
            f"{status}:{name}", "compile", "kernels", {"seconds": seconds}
        )
        self.metrics.inc(f"spmd.{self.pid}.kernel_compiles")
        self.metrics.inc(f"spmd.{self.pid}.compile_seconds", seconds)

    def counter(
        self,
        name: str,
        value: float,
        tid: str = "counters",
        pid: Optional[str] = None,
        ts: Optional[float] = None,
    ) -> CounterEvent:
        ev = CounterEvent(
            name, self.now() if ts is None else ts, float(value),
            pid or self.pid, tid,
        )
        self.events.append(ev)
        return ev

    # -- access ---------------------------------------------------------

    def extend(self, events: Iterable[object]) -> None:
        self.events.extend(events)

    def spans(self, cat: Optional[str] = None) -> List[SpanEvent]:
        out = [e for e in self.events if isinstance(e, SpanEvent)]
        if cat is not None:
            out = [e for e in out if e.cat == cat]
        return out


def describe_events(events: Iterable[object], limit: Optional[int] = None) -> str:
    """Plain-text timeline report, one line per span in start order.

    The measured-trace sibling of ``Timeline.describe`` — same
    microsecond column layout, plus the (pid, tid) track of each span.
    """
    spans = sorted(
        (e for e in events if isinstance(e, SpanEvent)),
        key=lambda e: (e.ts, e.pid, e.tid),
    )
    if limit is not None:
        spans = spans[:limit]
    return "\n".join(
        f"{e.ts * 1e6:10.1f} .. {e.end * 1e6:10.1f} us  "
        f"[{e.pid}/{e.tid}] {e.name}"
        for e in spans
    )
