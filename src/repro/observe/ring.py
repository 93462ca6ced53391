"""Per-rank trace ring buffers for the SPMD backend, in shared memory.

A traced launch of :mod:`repro.runtime.spmd` sizes its flags segment
(an anonymous ``memfd`` every rank inherits) with one ring per rank
after the flags. Each rank appends fixed-size records into its own
ring; the parent merges every rank's ring after the run:

* **Survives faulty teardown.** The parent holds the segment's fd
  after a rank dies, even on ``SIGKILL``, so it still reads every
  record written before the death. The header count is bumped *after*
  the record write, so a torn in-flight record is never read.
* **Nothing on disk.** The launch's ``ftruncate`` of the flags segment
  zeroes every ring, and the rings go when the segment does.
* **Low overhead, no numpy.** A record is one ``struct`` pack of 112 B
  (:data:`RECORD`), its strings NUL-padded and truncated, so no string
  table needs to survive the process. One lock orders the appends of a
  rank's threads (an overlap schedule's producer stream publishes
  while the main thread waits and reduces).

Timestamps are ``time.perf_counter_ns()``: the clock of
:class:`~repro.observe.events.Tracer` (``CLOCK_MONOTONIC``, system-wide
on Linux), so the merge places every rank's spans on the parent
tracer's timeline by subtracting its epoch.
"""

from __future__ import annotations

import _thread
import struct
import time

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a rank imports neither module
    from typing import Dict, List, Optional, Sequence

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
    "KIND_START",
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
#: a point of a rank's start-up: ``entry`` (its first statement),
#: ``imports done``, ``spec received`` and ``module ready``
KIND_START = 8

KIND_NAMES = {
    KIND_PUBLISH: "publish",
    KIND_WAIT: "wait",
    KIND_REDUCE: "reduce",
    KIND_KERNEL: "kernel",
    KIND_STALL: "stall",
    KIND_FAULT: "fault",
    KIND_COMPILE: "compile",
    KIND_START: "start",
}

#: kinds merged as point markers rather than spans
_INSTANT_KINDS = (KIND_STALL, KIND_FAULT, KIND_COMPILE, KIND_START)

#: the ring's header: the total number of appends
HEADER = struct.Struct("<q")

#: one record: kind, ts (``perf_counter_ns`` at span start), dur (ns),
#: nbytes (payload bytes moved by a publish), seq (site sequence number
#: or chunk index), then the site key and the kernel or op name
RECORD = struct.Struct("<5q24s48s")
_FIELDS = ("kind", "ts", "dur", "nbytes", "seq", "site", "name")

DEFAULT_CAPACITY = 32768


class TraceRing:
    """A fixed-capacity ring of trace records over ``buf`` at ``offset``.

    ``buf`` is any writable buffer of at least :meth:`nbytes` bytes
    past ``offset``; zeroed bytes are an empty ring. ``count`` in the
    header is the *total* number of appends; once it exceeds the
    capacity the ring wraps and the oldest records are overwritten
    (``dropped`` = ``count - capacity``). The writer bumps the count only
    after the record is fully written, so a reader in another process
    never observes a half-written record. The ring holds no view of
    ``buf`` between calls, so it never keeps a mapping from closing.
    """

    def __init__(
        self, buf, offset: int = 0, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        self.capacity = capacity
        self._buf = buf
        self._offset = offset
        self._lock = _thread.allocate_lock()

    @staticmethod
    def nbytes(capacity: int = DEFAULT_CAPACITY) -> int:
        """Bytes one ring of ``capacity`` records occupies."""
        return HEADER.size + capacity * RECORD.size

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
        with self._lock:
            count = self.count
            RECORD.pack_into(
                self._buf,
                self._offset + HEADER.size
                + count % self.capacity * RECORD.size,
                kind, ts, dur, nbytes, seq,
                site.encode("ascii", "replace"),
                name.encode("ascii", "replace"),
            )
            # publish the record: the count bump makes it reader-visible
            HEADER.pack_into(self._buf, self._offset, count + 1)

    # -- reader side ----------------------------------------------------

    @property
    def count(self) -> int:
        return HEADER.unpack_from(self._buf, self._offset)[0]

    @property
    def dropped(self) -> int:
        return max(0, self.count - self.capacity)

    def records(self) -> List[Dict[str, object]]:
        """The valid records, oldest first: one dict per record, its
        ``site`` and ``name`` bytes without their NUL padding."""
        count = self.count
        start = self._offset + HEADER.size
        rows = bytes(
            self._buf[start : start + min(count, self.capacity) * RECORD.size]
        )
        if count > self.capacity:
            cut = count % self.capacity * RECORD.size
            rows = rows[cut:] + rows[:cut]
        return [
            dict(
                zip(_FIELDS, rec),
                site=rec[5].rstrip(b"\0"), name=rec[6].rstrip(b"\0"),
            )
            for rec in RECORD.iter_unpack(rows)
        ]

    def close(self) -> None:
        """Drop the reference to the buffer."""
        self._buf = None


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
    on its ``kernels`` track, start-up instants on its ``start`` track
    and fault markers on its ``faults`` track; a per-rank bytes-moved
    counter series is emitted alongside, and ``metrics`` (when given)
    receives ``spmd.rank<N>.bytes_published``, per-rank event counts,
    and any dropped-record count (``spmd.events_dropped``).

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
            "truncated" if ring.dropped else "empty" if not recs else "ok"
        )
        pid = f"rank{rank}"
        bytes_published = 0
        for rec in recs:
            kind = rec["kind"]
            cat = KIND_NAMES.get(kind, f"kind{kind}")
            name = rec["name"].decode("ascii", "replace") or cat
            site = rec["site"].decode("ascii", "replace")
            ts = rec["ts"] / 1e9 - epoch
            dur = rec["dur"] / 1e9
            args: Dict[str, object] = {"seq": rec["seq"]}
            if site:
                args["site"] = site
            nbytes = rec["nbytes"]
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
                track = "start" if kind == KIND_START else "faults"
                events.append(InstantEvent(name, cat, ts, pid, track, args))
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
                    {"rank": rank, "records": len(recs)},
                )
            )
            if metrics is not None:
                metrics.set(f"spmd.{pid}.ring_{status}", 1)
        if metrics is not None:
            metrics.set(f"spmd.{pid}.bytes_published", bytes_published)
            metrics.set(f"spmd.{pid}.events", len(recs))
    if metrics is not None and dropped_total:
        metrics.inc("spmd.events_dropped", dropped_total)
    events.sort(key=lambda e: e.ts)
    return events
