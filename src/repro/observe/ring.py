"""File-backed per-rank trace ring buffers for the SPMD backend.

Each SPMD rank process appends fixed-size records into its own
memory-mapped file; the parent merges every rank's file after the run.
The design constraints come straight from the failure-handling story of
:mod:`repro.runtime.spmd`:

* **Survives faulty teardown.** Records live in a plain file mapped
  ``MAP_SHARED`` — the page cache keeps every record written before a
  worker dies (even on ``terminate()``), so the parent can still
  harvest the timeline of a failing rank. A record only becomes
  visible when the header count is bumped *after* the record write, so
  a torn in-flight record is never read.
* **No ``/dev/shm`` footprint.** Rings are ordinary files in a caller
  owned directory (the executor uses a temp dir it removes), so the
  backend's no-leaked-segments guarantee is untouched.
* **Low overhead.** One record is a single structured-dtype row write
  into the mmap (~112 B); no locks, since each rank owns its file.
  Names and site keys are fixed-width bytes (truncated if longer) so
  no string table needs to survive the process.

Timestamps are ``time.monotonic_ns()`` — ``CLOCK_MONOTONIC`` is
system-wide on Linux, so spans from different rank processes are
directly comparable; the merge rebases them onto the earliest record.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional

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

_MAGIC = 0x54524143  # "TRAC"

HEADER_DTYPE = np.dtype(
    [("magic", "i8"), ("capacity", "i8"), ("count", "i8"), ("_pad", "i8")]
)

RECORD_DTYPE = np.dtype(
    [
        ("kind", "i8"),
        ("ts", "i8"),      # monotonic_ns at span start
        ("dur", "i8"),     # span duration, ns
        ("nbytes", "i8"),  # payload bytes moved (publish records)
        ("seq", "i8"),     # site sequence number / chunk index
        ("site", "S24"),   # communication-site key, truncated
        ("name", "S48"),   # kernel / op name, truncated
    ]
)

DEFAULT_CAPACITY = 32768


class TraceRing:
    """A fixed-capacity ring of trace records over one mapped file.

    ``count`` in the header is the *total* number of appends; once it
    exceeds the capacity the ring wraps and the oldest records are
    overwritten (``dropped`` = ``count - capacity``). The writer bumps
    the count only after the record row is fully written, so a reader
    in another process never observes a half-written record.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._mm: Optional[np.memmap] = np.memmap(path, dtype=np.uint8,
                                                  mode="r+")
        if self._mm.size < HEADER_DTYPE.itemsize:
            self.close()
            raise ValueError(f"{path!r} is not a trace ring (truncated)")
        self._header = np.ndarray(
            (), dtype=HEADER_DTYPE, buffer=self._mm
        )
        if int(self._header["magic"]) != _MAGIC:
            self.close()
            raise ValueError(f"{path!r} is not a trace ring")
        self.capacity = int(self._header["capacity"])
        body = self._mm.size - HEADER_DTYPE.itemsize
        if self.capacity < 1 or body < self.capacity * RECORD_DTYPE.itemsize:
            self.close()
            raise ValueError(
                f"{path!r} is not a trace ring (corrupt capacity)"
            )
        self._records = np.ndarray(
            (self.capacity,), dtype=RECORD_DTYPE, buffer=self._mm,
            offset=HEADER_DTYPE.itemsize,
        )

    @classmethod
    def create(cls, path: str, capacity: int = DEFAULT_CAPACITY) -> "TraceRing":
        """Preallocate and zero-initialize a ring file."""
        capacity = max(1, int(capacity))
        size = HEADER_DTYPE.itemsize + capacity * RECORD_DTYPE.itemsize
        with open(path, "wb") as f:
            f.truncate(size)
        mm = np.memmap(path, dtype=np.uint8, mode="r+")
        header = np.ndarray((), dtype=HEADER_DTYPE, buffer=mm)
        header["capacity"] = capacity
        header["magic"] = _MAGIC
        del header
        mm.flush()
        del mm
        return cls(path)

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
        self._records = None
        self._header = None
        if self._mm is not None:
            self._mm.flush()
            del self._mm
            self._mm = None


def _rank_of(filename: str) -> Optional[int]:
    stem = os.path.splitext(filename)[0]
    if stem.startswith("rank") and stem[4:].isdigit():
        return int(stem[4:])
    return None


def merge_rank_traces(
    trace_dir: str,
    base: float = 0.0,
    metrics: Optional[MetricsRegistry] = None,
) -> List[object]:
    """Merge every ``rank<N>.ring`` file of a run into one event list.

    Timestamps are rebased so the earliest record across all ranks maps
    to ``base`` seconds (typically the parent tracer's clock reading at
    launch time). Publish/wait/reduce records land on each rank's
    ``comm`` track, generated-kernel spans on its ``kernels`` track; a
    per-rank bytes-moved counter series is emitted alongside, and
    ``metrics`` (when given) receives ``spmd.rank<N>.bytes_published``,
    per-rank event counts, and any dropped-record count
    (``spmd.events_dropped``). The launch itself adds
    ``spmd.segment_reuses`` (launches that kept the data segment's
    pages) and ``spmd.segment_bytes_allocated`` (bytes of data segment
    created or grown): see :meth:`repro.runtime.spmd.RankPool.launch`.

    Every rank's ring health is *tagged*, never silently dropped: a
    rank whose ring file is unreadable gets a ``ring-corrupt`` instant
    marker (and ``spmd.rank<N>.ring_corrupt`` metric), a wrapped ring
    that lost its oldest records gets ``ring-truncated``, and a valid
    ring with zero records gets ``ring-empty`` — so a post-mortem can
    tell "rank died mid-run" (records up to the fault, or a truncated
    tail) from "rank never traced" (empty/corrupt from the start) while
    still harvesting every healthy rank.
    """
    from repro.observe.events import CounterEvent, InstantEvent, SpanEvent

    per_rank: Dict[int, np.ndarray] = {}
    statuses: Dict[int, str] = {}
    dropped_total = 0
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError:
        names = []
    for fn in names:
        rank = _rank_of(fn)
        if rank is None:
            continue
        try:
            ring = TraceRing(os.path.join(trace_dir, fn))
        except (OSError, ValueError):
            per_rank[rank] = np.empty((0,), dtype=RECORD_DTYPE)
            statuses[rank] = "corrupt"
            continue
        try:
            per_rank[rank] = ring.records()
            dropped_total += ring.dropped
            if ring.dropped:
                statuses[rank] = "truncated"
            elif ring.count == 0:
                statuses[rank] = "empty"
            else:
                statuses[rank] = "ok"
        finally:
            ring.close()

    t0 = min(
        (int(recs["ts"].min()) for recs in per_rank.values() if len(recs)),
        default=0,
    )
    events: List[object] = []
    for rank, recs in sorted(per_rank.items()):
        pid = f"rank{rank}"
        bytes_published = 0
        for rec in recs:
            kind = int(rec["kind"])
            cat = KIND_NAMES.get(kind, f"kind{kind}")
            name = rec["name"].decode("ascii", "replace") or cat
            site = rec["site"].decode("ascii", "replace")
            ts = base + (int(rec["ts"]) - t0) / 1e9
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
        status = statuses.get(rank, "ok")
        if status != "ok":
            events.append(
                InstantEvent(
                    f"ring-{status}", "fault", base, pid, "faults",
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
