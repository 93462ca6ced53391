"""Per-rank trace ring buffers for the SPMD backend, in shared memory.

A traced launch of :mod:`repro.runtime.spmd` sizes its flags segment
(an anonymous ``memfd`` every rank inherits) with one ring per rank
after the flags. Each rank appends fixed-size records into its own
ring; the parent merges every rank's ring after the run. The design
constraints come straight from the failure-handling story of
:mod:`repro.runtime.spmd`:

* **Survives faulty teardown.** The parent holds the segment's fd
  after a rank dies (even on ``SIGKILL``), so it still reads every
  record written before the death. A record only becomes visible when
  the header count is bumped *after* the record write, so a torn
  in-flight record is never read.
* **Nothing on disk.** No file or directory is created: the launch's
  ``ftruncate`` of the flags segment zeroes every ring, and the rings
  go when the segment does.
* **Low overhead.** One record is a single structured-dtype row write
  (112 B); no locks, since each rank owns its ring. Names and site
  keys are fixed-width bytes (truncated if longer) so no string table
  needs to survive the process.

Timestamps are ``time.perf_counter_ns()``: the clock of
:class:`~repro.observe.events.Tracer` (``CLOCK_MONOTONIC``, system-wide
on Linux), so spans from different rank processes are directly
comparable, and the merge places them on the parent tracer's timeline
by subtracting its epoch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.observe.metrics import MetricsRegistry

__all__ = [
    "TraceRing",
    "KIND_PUBLISH",
    "KIND_WAIT",
    "KIND_REDUCE",
    "KIND_KERNEL",
    "KIND_STALL",
    "KIND_FAULT",
    "KIND_COMPILE",
    "KIND_NAMES",
    "merge_rank_traces",
]

#: record kinds (the communicator's phases plus generated-kernel spans)
KIND_PUBLISH = 1
KIND_WAIT = 2
KIND_REDUCE = 3
KIND_KERNEL = 4
#: point markers: a soft-deadline escalation inside a wait, and an
#: injected/observed fault (stall_publish, drop_chunk, die, stream-leak)
KIND_STALL = 5
KIND_FAULT = 6
#: a rank opening the native kernel object its launcher resolved
#: (``hit:<key>``); ``dur`` carries the elapsed nanoseconds
KIND_COMPILE = 7

KIND_NAMES = {
    KIND_PUBLISH: "publish",
    KIND_WAIT: "wait",
    KIND_REDUCE: "reduce",
    KIND_KERNEL: "kernel",
    KIND_STALL: "stall",
    KIND_FAULT: "fault",
    KIND_COMPILE: "compile",
}

#: kinds merged as point markers rather than spans
_INSTANT_KINDS = (KIND_STALL, KIND_FAULT, KIND_COMPILE)

#: the total number of appends
HEADER_DTYPE = np.dtype([("count", "i8")])

RECORD_DTYPE = np.dtype(
    [
        ("kind", "i8"),
        ("ts", "i8"),      # perf_counter_ns at span start
        ("dur", "i8"),     # span duration, ns
        ("nbytes", "i8"),  # payload bytes moved (publish records)
        ("seq", "i8"),     # site sequence number / chunk index
        ("site", "S24"),   # communication-site key, truncated
        ("name", "S48"),   # kernel / op name, truncated
    ]
)

DEFAULT_CAPACITY = 32768


class TraceRing:
    """A fixed-capacity ring of trace records over ``buf`` at ``offset``.

    ``buf`` is any writable buffer of at least :meth:`nbytes` bytes
    past ``offset``; zeroed bytes are an empty ring. ``count`` in the
    header is the *total* number of appends; once it exceeds the
    capacity the ring wraps and the oldest records are overwritten
    (``dropped`` = ``count - capacity``). The writer bumps the count only
    after the record row is fully written, so a reader in another
    process never observes a half-written record. The ring's arrays pin
    ``buf`` until :meth:`close`.
    """

    def __init__(
        self, buf, offset: int = 0, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        self.capacity = capacity
        self._header = np.ndarray(
            (), dtype=HEADER_DTYPE, buffer=buf, offset=offset
        )
        self._records = np.ndarray(
            (capacity,), dtype=RECORD_DTYPE, buffer=buf,
            offset=offset + HEADER_DTYPE.itemsize,
        )

    @staticmethod
    def nbytes(capacity: int = DEFAULT_CAPACITY) -> int:
        """Bytes one ring of ``capacity`` records occupies."""
        return HEADER_DTYPE.itemsize + capacity * RECORD_DTYPE.itemsize

    # -- writer side ----------------------------------------------------

    def append(
        self,
        kind: int,
        ts: int,
        dur: int,
        nbytes: int = 0,
        seq: int = 0,
        site: str = "",
        name: str = "",
    ) -> None:
        count = int(self._header["count"])
        rec = self._records[count % self.capacity]
        rec["kind"] = kind
        rec["ts"] = ts
        rec["dur"] = dur
        rec["nbytes"] = nbytes
        rec["seq"] = seq
        rec["site"] = site.encode("ascii", "replace")[:24]
        rec["name"] = name.encode("ascii", "replace")[:48]
        # publish the record: the count bump makes it reader-visible
        self._header["count"] = count + 1

    # -- reader side ----------------------------------------------------

    @property
    def count(self) -> int:
        return int(self._header["count"])

    @property
    def dropped(self) -> int:
        return max(0, self.count - self.capacity)

    def records(self) -> np.ndarray:
        """A copy of the valid records, oldest first."""
        count = self.count
        if count <= self.capacity:
            return self._records[:count].copy()
        cut = count % self.capacity
        return np.concatenate(
            [self._records[cut:], self._records[:cut]]
        )

    def close(self) -> None:
        """Drop the arrays over the buffer, so it can be unmapped."""
        self._records = None
        self._header = None


def merge_rank_traces(
    rings: Sequence[TraceRing],
    epoch: float = 0.0,
    metrics: Optional[MetricsRegistry] = None,
) -> List[object]:
    """Merge the rings of a run, ``rings[r]`` rank ``r``'s, into one
    event list.

    Record timestamps are ``perf_counter`` readings; each event's is
    the reading minus ``epoch`` seconds, the epoch of the
    :class:`~repro.observe.events.Tracer` the events join, so rank
    events land where they ran on its timeline. Publish/wait/reduce
    records land on each rank's ``comm`` track, generated-kernel spans
    on its ``kernels`` track; a per-rank bytes-moved counter series is
    emitted alongside, and ``metrics`` (when given) receives
    ``spmd.rank<N>.bytes_published``, per-rank event counts, and any
    dropped-record count (``spmd.events_dropped``). The launch itself
    adds ``spmd.segment_reuses`` (launches that kept the data segment's
    pages) and ``spmd.segment_bytes_allocated`` (bytes of data segment
    created or grown): see :meth:`repro.runtime.spmd.RankPool.launch`.

    Every rank's ring health is *tagged*, never silently dropped: a
    wrapped ring that lost its oldest records gets a ``ring-truncated``
    instant marker (and ``spmd.rank<N>.ring_truncated`` metric), and a
    ring with zero records gets ``ring-empty``, both stamped at the
    merge. A post-mortem can tell "rank died mid-run" (records up to
    the fault, or a truncated tail) from "rank never traced" (empty
    from the start) while still harvesting every healthy rank.
    """
    from repro.observe.events import CounterEvent, InstantEvent, SpanEvent

    merged_at = time.perf_counter() - epoch
    events: List[object] = []
    dropped_total = 0
    for rank, ring in enumerate(rings):
        recs = ring.records()
        dropped_total += ring.dropped
        status = (
            "truncated" if ring.dropped else "empty" if not len(recs)
            else "ok"
        )
        pid = f"rank{rank}"
        bytes_published = 0
        for rec in recs:
            kind = int(rec["kind"])
            cat = KIND_NAMES.get(kind, f"kind{kind}")
            name = rec["name"].decode("ascii", "replace") or cat
            site = rec["site"].decode("ascii", "replace")
            ts = int(rec["ts"]) / 1e9 - epoch
            dur = int(rec["dur"]) / 1e9
            args: Dict[str, object] = {"seq": int(rec["seq"])}
            if site:
                args["site"] = site
            nbytes = int(rec["nbytes"])
            if nbytes:
                args["bytes"] = nbytes
            if kind in _INSTANT_KINDS:
                if kind == KIND_COMPILE:
                    # the rank's kernel-object open, next to the kernels
                    # it delayed; the record's dur carries its seconds
                    args["seconds"] = dur
                    events.append(
                        InstantEvent(name, cat, ts, pid, "kernels", args)
                    )
                    if metrics is not None:
                        metrics.inc(f"spmd.{pid}.kernel_cache_hits")
                    continue
                events.append(
                    InstantEvent(name, cat, ts, pid, "faults", args)
                )
                continue
            tid = "kernels" if kind == KIND_KERNEL else "comm"
            events.append(SpanEvent(name, cat, ts, dur, pid, tid, args))
            if kind == KIND_PUBLISH:
                bytes_published += nbytes
                events.append(
                    CounterEvent(
                        "bytes_published", ts + dur, bytes_published, pid
                    )
                )
        if status != "ok":
            events.append(
                InstantEvent(
                    f"ring-{status}", "fault", merged_at, pid, "faults",
                    {"rank": rank, "records": int(len(recs))},
                )
            )
            if metrics is not None:
                metrics.set(f"spmd.{pid}.ring_{status}", 1)
        if metrics is not None:
            metrics.set(f"spmd.{pid}.bytes_published", bytes_published)
            metrics.set(f"spmd.{pid}.events", int(len(recs)))
    if metrics is not None and dropped_total:
        metrics.inc("spmd.events_dropped", dropped_total)
    events.sort(key=lambda e: e.ts)
    return events
