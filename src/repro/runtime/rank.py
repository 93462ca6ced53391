"""A rank's control plane: everything an SPMD rank needs but arrays.

:mod:`repro.runtime.spmd` runs one process per rank over a data and a
flags segment. This module, which imports no numpy, holds what ranks
and parent agree on besides the payload bytes: :class:`SpmdLayout`
(both segments' layout, carried in every rank's spec, dtypes as
strings), the flags segment's format, :class:`RankCore` (a rank's
counters, spin, deadlines, peer abort, fault hooks and trace ring), the
spec and report messages and the rank's entry point,
:func:`_rank_main`. :class:`~repro.runtime.spmd.SpmdCommunicator`
subclasses :class:`RankCore` with the data plane: slot views, folds,
the collectives and the streams.

Flags segment
-------------

The flags segment is an array of native ``int64`` words, which a rank
reads and writes through ``memoryview(flags).cast("q")``:

* per site, in sorted key order, and per rank, a *ready* word then a
  *done* word (:meth:`SpmdLayout.ready_index`);
* then one *error* word per rank (:meth:`SpmdLayout.error_index`);
* on a traced launch, one trace ring per rank
  (:class:`~repro.observe.ring.TraceRing`, at
  :meth:`SpmdLayout.ring_offset`).

Every operation on a site is one *publication*: a payload released as a
list of chunks. A collective's own operand is one chunk; a §5.3 chunked
publication has one chunk per lowering chunk. The same three steps
serve both:

* release: write chunk ``c`` into the slot, then store
  ``ready = seq * 2^20 + c + 1``;
* consume: spin until a peer's ready word covers chunk ``c``, then copy
  the chunk out or fold it into the reduction;
* finish: once this rank's own chunks are all released, store
  ``done = seq``. A publisher may only reuse its slot for ``seq`` once
  every participant's done word reached ``seq - 1``.

Because the program is SPMD, every member of a group issues that
group's operations in the same order, so the per-site sequence numbers
advance in lockstep and this small protocol is a full rendezvous.

The publish-then-flag ordering relies on total-store-order visibility
between the payload write and the flag store: a ``memoryview`` item
assignment is one aligned 8-byte store, issued after the copy into the
slot returned. That holds on x86-64, every environment this
repository's CI runs, but weakly-ordered ISAs do not guarantee it; a
port to ARM should add an explicit store fence between the two stores.

Failure handling
----------------

A rank that raises, or whose wait passes its hard deadline, stores
:data:`_ERR_FAILED` in its error word. Every spin polls the error
words, so peers blocked mid-collective abort with
:class:`SpmdPeerAbort` instead of deadlocking the rendezvous. The parent
stores :data:`_ERR_DEAD` for a rank whose process died without
reporting (:func:`signal_dead`); peers abort the same way, and their
message names the dead ranks. A wait that passes its soft deadline
backs off and records a stall marker, so a transient hiccup (an
injected stall, a delayed chunk, a straggler) is ridden out visibly.
"""

from __future__ import annotations

import _pickle
import math
import mmap
import os
import sys
import time

from repro.errors import ExecutionError
from repro.observe.ring import (
    KIND_COMPILE, KIND_FAULT, KIND_KERNEL, KIND_STALL, KIND_WAIT, TraceRing,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a rank imports neither module
    from typing import Dict, List, Optional, Sequence, Tuple

    from repro.runtime.faults import FaultPlan

__all__ = [
    "RankCore", "SpmdError", "SpmdLayout", "SpmdPeerAbort", "SpmdTimeout",
    "SpmdWorkerError",
]

#: ready counters encode ``seq * PROGRESS_BASE + chunks_published``
PROGRESS_BASE = 1 << 20
#: error-flag value stored by a failing rank
_ERR_FAILED = 1
#: error-flag value the *parent* stores for a rank whose process died
#: without reporting — peers abort exactly like on a failure, but the
#: message distinguishes "died" from "raised"
_ERR_DEAD = 2
#: spin-wait granularity (seconds) and its escalation ceiling
_SPIN = 5e-5
_SPIN_MAX = 5e-3
#: default per-wait timeout (seconds)
DEFAULT_TIMEOUT = 120.0
#: default soft (escalation) deadline inside a wait: after this many
#: seconds without progress the spin backs off and a stall marker is
#: recorded; the hard ``timeout`` still bounds the wait
DEFAULT_SOFT_TIMEOUT = 2.0
#: exit code of a rank killed by an injected ``die`` fault
_DIE_EXIT_CODE = 86


class SpmdError(ExecutionError):
    """Base error of the SPMD backend."""


class SpmdTimeout(SpmdError):
    """A rendezvous wait exceeded its deadline."""


class SpmdPeerAbort(SpmdError):
    """Another rank failed; this rank aborted its pending waits."""


class SpmdWorkerError(SpmdError):
    """A run failed; ``context`` carries the failing rank's structured
    state — ``{"rank", "op", "site", "seq"}`` — captured at the point
    of failure, so the error is diagnosable from the merged trace
    without parsing the traceback string. ``dead_ranks`` lists ranks
    whose *process* vanished without reporting (killed, ``os._exit``,
    OOM) — the elastic-recovery trigger."""

    def __init__(
        self, message: str, context: Optional[dict] = None,
        dead_ranks: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(message)
        self.context = context or {}
        self.dead_ranks = sorted(dead_ranks or [])


def _round64(n: int) -> int:
    return (n + 63) // 64 * 64


class SpmdLayout:
    """Deterministic layout of both segments, shared by the parent and
    every rank.

    ``sites`` maps a site key to ``(participants, slot_bytes, offset)``
    where ``offset`` is the byte offset of the site's rank-0 slot in the
    data segment; rank ``r``'s slot starts at ``offset + r *
    slot_bytes``. ``regions`` maps ``("in" | "out", tensor name)`` to
    ``(shape, dtype, {rank: offset}, writers)``: one private per-rank
    array for every input a rank holds (its storage, written in place)
    and for every output it returns; ``dtype`` is numpy's dtype string
    (``"<f4"``), and ``writers`` are the ranks whose copies the parent
    reads back. Plain ints, strings and tuples, so it travels in every
    rank's pickled spec and unpickles without numpy.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.sites: Dict[str, Tuple[Tuple[int, ...], int, int]] = {}
        self.regions: Dict[Tuple[str, str], Tuple] = {}
        self.data_size = 64
        self._site_index: Dict[str, int] = {}
        self._pending: Dict[str, Tuple[Tuple[int, ...], int]] = {}
        self._regions_end = 0

    def add_site(
        self, key: str, participants: Sequence[int], payload_bytes: int
    ) -> None:
        participants = tuple(participants)
        slot = _round64(max(64, int(payload_bytes))) + 64
        old = self._pending.get(key)
        if old is not None:
            participants = old[0]
            slot = max(old[1], slot)
        self._pending[key] = (participants, slot)

    def add_region(
        self, key: Tuple[str, str], shape: Sequence[int], dtype: str,
        itemsize: int, ranks: Sequence[int], writers: Sequence[int],
    ) -> None:
        """Reserve one ``shape`` array of ``dtype`` (``itemsize`` bytes
        an element) per rank in ``ranks``.

        Regions come first in the data segment, the slots after them.
        """
        shape = tuple(int(s) for s in shape)
        nbytes = _round64(max(1, math.prod(shape) * itemsize))
        offsets = {}
        for r in ranks:
            offsets[r] = self._regions_end
            self._regions_end += nbytes
        self.regions[key] = (shape, dtype, offsets, tuple(writers))

    def freeze(self) -> int:
        """Assign slot offsets; returns the total data-segment size."""
        offset = self._regions_end
        for key in sorted(self._pending):
            participants, slot = self._pending[key]
            self._site_index[key] = len(self.sites)
            self.sites[key] = (participants, slot, offset)
            offset += slot * self.nranks
        self.data_size = max(offset, 64)
        return self.data_size

    def view(self, buf, key: Tuple[str, str], rank: int):
        """Rank ``rank``'s writable array of region ``key`` over ``buf``.

        The one method that builds an array, so the one that imports
        numpy, which only the data plane calls. The view pins ``buf``:
        drop it before closing the segment.
        """
        import numpy as np

        shape, dtype, offsets, _ = self.regions[key]
        return np.ndarray(
            shape, dtype=dtype, buffer=buf, offset=offsets[rank]
        )

    # -- the flags segment's format --------------------------------------

    def ready_index(self, key: str, rank: int) -> int:
        """Word index of ``rank``'s ready counter at site ``key``; its
        done counter is the next word."""
        return (self._site_index[key] * self.nranks + rank) * 2

    def error_index(self, rank: int) -> int:
        """Word index of ``rank``'s error flag."""
        return len(self.sites) * self.nranks * 2 + rank

    def flags_length(self) -> int:
        """Words of flags: the counters, then the error flags."""
        return self.error_index(self.nranks)

    def flags_bytes(self, traced: bool = False) -> int:
        """Bytes of the flags segment: the flags, then on a traced
        launch one trace ring per rank (see :meth:`ring_offset`)."""
        return self.ring_offset(self.nranks if traced else 0)

    def ring_offset(self, rank: int) -> int:
        """Byte offset of ``rank``'s trace ring in the flags segment."""
        return self.flags_length() * 8 + rank * TraceRing.nbytes()


def signal_dead(layout: SpmdLayout, flags_fd: int, rank: int) -> None:
    """The parent's store of ``rank``'s dead-rank flag through
    ``flags_fd``: peers blocked on its payloads abort instead of
    spinning to their timeouts."""
    os.pwrite(
        flags_fd, _ERR_DEAD.to_bytes(8, sys.byteorder),
        layout.error_index(rank) * 8,
    )


class RankCore:
    """One rank's control plane over the flags segment: its sequence
    counters, deadlines, fault plan and, when traced, its trace ring.
    ``_streams`` are the data plane's stream threads, which
    :meth:`close` joins."""

    def __init__(
        self, layout: SpmdLayout, rank: int, data: mmap.mmap,
        flags: mmap.mmap, wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT, traced: bool = False,
        soft_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.layout = layout
        self.rank = rank
        self.nranks = layout.nranks
        self.wire_s_per_mb = float(wire_s_per_mb)
        self.timeout = float(timeout)
        self.soft_timeout = min(
            self.timeout,
            DEFAULT_SOFT_TIMEOUT if soft_timeout is None
            else float(soft_timeout),
        )
        self._data = data
        self._flags_map = flags
        self._flags = memoryview(flags).cast("q")
        self._seq: Dict[str, int] = {}
        self._closed = False
        self._clean = True
        # the trace ring, and the current operation context (kept
        # without a ring too: worker errors carry it)
        self._ring: Optional[TraceRing] = (
            TraceRing(flags, layout.ring_offset(rank)) if traced else None
        )
        self._op = ""
        self._site = ""
        self._site_seq = 0
        self._streams: List = []
        # the fault plan's per-rank view (None when inert); armed events
        # are traced up front, reached or not
        self._faults = faults.for_rank(rank) if faults is not None else None
        if self._faults is not None and self._ring is not None:
            now = time.perf_counter_ns()
            for desc in self._faults.armed():
                self._ring.append(KIND_FAULT, now, 0, name=f"armed:{desc}")

    @classmethod
    def attach(
        cls, layout: SpmdLayout, rank: int, data_fd: int, flags_fd: int,
        traced: bool = False, **kwargs,
    ) -> "RankCore":
        """Map the segments behind ``data_fd`` and ``flags_fd`` (the
        caller keeps the fds); ``kwargs`` are :meth:`__init__`'s."""
        return cls(
            layout, rank, mmap.mmap(data_fd, layout.data_size),
            mmap.mmap(flags_fd, layout.flags_bytes(traced)),
            traced=traced, **kwargs,
        )

    # -- flags ----------------------------------------------------------

    def _ready(self, key: str, rank: int) -> int:
        return self._flags[self.layout.ready_index(key, rank)]

    def _set_ready(self, key: str, rank: int, value: int) -> None:
        self._flags[self.layout.ready_index(key, rank)] = value

    def _done(self, key: str, rank: int) -> int:
        return self._flags[self.layout.ready_index(key, rank) + 1]

    def _set_done(self, key: str, rank: int, value: int) -> None:
        self._flags[self.layout.ready_index(key, rank) + 1] = value

    def signal_error(self, kind: int = _ERR_FAILED) -> None:
        """Mark this rank failed so peers abort their pending waits."""
        if not self._closed:
            self._flags[self.layout.error_index(self.rank)] = kind

    def _check_peers(self) -> None:
        lo = self.layout.error_index(0)
        errs = self._flags[lo : lo + self.nranks].tolist()
        failed = [r for r, e in enumerate(errs) if e and r != self.rank]
        if failed:
            dead = [r for r in failed if errs[r] == _ERR_DEAD]
            extra = f" (rank(s) {dead} died)" if dead else ""
            raise SpmdPeerAbort(
                f"rank {self.rank}: aborting, peer rank(s) "
                f"{failed} failed{extra}"
            )

    def _spin(self, cond, what: str, site: str = "") -> None:
        """Wait for ``cond`` with escalation instead of one flat wall.

        Under :attr:`soft_timeout` the loop spins at fine granularity;
        each soft deadline that passes without progress is a *soft
        retry* — the spin interval backs off (doubling up to
        ``_SPIN_MAX``) and a stall marker is recorded, so transient
        hiccups (an injected ``stall_publish``, a delayed chunk
        redelivery, a straggler) are ridden out visibly. Only the hard
        :attr:`timeout` raises :class:`SpmdTimeout`, after signalling
        the error flag so every peer aborts its own waits (the
        peer-abort broadcast).
        """
        if cond():
            return
        t0 = time.perf_counter_ns() if self._ring is not None else 0
        start = time.monotonic()
        deadline = start + self.timeout
        next_soft = start + self.soft_timeout
        interval = _SPIN
        retries = 0
        try:
            while not cond():
                self._check_peers()
                now = time.monotonic()
                if now > deadline:
                    self.signal_error(_ERR_FAILED)
                    raise SpmdTimeout(
                        f"rank {self.rank}: timed out after "
                        f"{self.timeout:.0f}s ({retries} soft retries of "
                        f"{self.soft_timeout:.2g}s) waiting for {what}"
                    )
                if now >= next_soft:
                    retries += 1
                    interval = min(interval * 2.0, _SPIN_MAX)
                    next_soft = now + self.soft_timeout
                    if self._ring is not None:
                        self._ring.append(
                            KIND_STALL, time.perf_counter_ns(), 0,
                            seq=retries, site=site or self._site,
                            name=what,
                        )
                time.sleep(interval)
        finally:
            # recorded even when the wait dies (timeout / peer abort):
            # the stall is exactly what the merged trace must show
            if self._ring is not None:
                self._ring.append(
                    KIND_WAIT, t0, time.perf_counter_ns() - t0,
                    seq=self._site_seq, site=site or self._site, name=what,
                )

    # -- the publication protocol -----------------------------------------
    #
    # ``pub`` is the data plane's publication: its site ``key``, its
    # ``seq`` and its ``chunks`` (``chunked`` when there are lowering
    # chunks).

    def _begin(self, key: str, participants: Sequence[int]) -> int:
        """Take site ``key``'s next sequence number, once every
        participant finished the previous operation on it."""
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        self._site = key
        self._site_seq = seq
        if seq > 1:
            # slot reuse: everyone must have finished the previous op
            self._spin(
                lambda: all(
                    self._done(key, p) >= seq - 1 for p in participants
                ),
                f"site {key} seq {seq - 1} completion",
            )
        return seq

    def _wait(self, pub, rank: int, c: int) -> None:
        """Wait until global rank ``rank`` published chunk ``c`` of ``pub``."""
        want = pub.seq * PROGRESS_BASE + c + 1
        self._spin(
            lambda: self._ready(pub.key, rank) >= want,
            f"chunk {c} from rank {rank} at site {pub.key}",
            site=pub.key,
        )

    def _finish(self, pub) -> None:
        if pub.chunked:
            # the consumer's operand is the producer stream's ``out``
            # buffer (a non-root reduce returns it): it is only whole
            # once this rank released its last chunk
            self._wait(pub, self.rank, len(pub.chunks) - 1)
        self._set_done(pub.key, self.rank, pub.seq)

    # -- observability ----------------------------------------------------

    def _trace(
        self, kind: int, t0: int, *, nbytes: int = 0, seq: int = 0,
        site: str = "", name: str = "",
    ) -> None:
        if self._ring is not None:
            self._ring.append(
                kind, t0, time.perf_counter_ns() - t0,
                nbytes=nbytes, seq=seq, site=site, name=name,
            )

    def kernel_span(self, name: str) -> "_KernelSpan":
        """Scope one generated-kernel call: maintains the current-op
        context (attached to worker errors) and, when tracing, records
        the call as a kernel span."""
        return _KernelSpan(self, name)

    def record_kernel_open(self, key: str, seconds: float) -> None:
        """Record opening the kernel object the launcher resolved as a
        ``hit:<key>`` instant, so Perfetto timelines show the load next
        to the kernels it preceded; ``dur`` carries the elapsed time,
        which the merged metrics aggregate per rank."""
        if self._ring is not None:
            self._ring.append(
                KIND_COMPILE, time.perf_counter_ns(), int(seconds * 1e9),
                name=f"hit:{key}",
            )

    def error_context(self) -> Dict[str, object]:
        """The structured where-was-I snapshot for failure reports."""
        return {
            "rank": self.rank, "op": self._op, "site": self._site,
            "seq": self._site_seq,
        }

    # -- fault injection --------------------------------------------------

    def _wire_sleep(self, nbytes: int) -> None:
        if self.wire_s_per_mb > 0.0 and nbytes > 0:
            factor = (
                self._faults.wire_factor if self._faults is not None else 1.0
            )
            time.sleep(self.wire_s_per_mb * factor * nbytes / (1 << 20))

    def _fault_publish(self, site: str, seq: int) -> None:
        """One publish-side injection point: stall, then possibly die.

        Called after the payload is written but before the ready flag —
        a stall delays visibility (peers soft-retry through it), and a
        kill leaves a written-but-unannounced payload behind, exactly
        like a process dying mid-transfer.
        """
        f = self._faults
        if f is None:
            return
        delay = f.publish_delay(site, seq)
        if delay > 0.0:
            self._trace(
                KIND_FAULT, time.perf_counter_ns(), seq=seq, site=site,
                name=f"stall_publish {delay:g}s",
            )
            time.sleep(delay)
        if f.should_die(site):
            self._die(site, seq)

    def _die(self, site: str, seq: int) -> None:
        """Injected hard death: no error flag, no parent message.

        The fault marker is written to the ring first (the parent holds
        the segment, so it outlives the process), then the process
        vanishes — detection is entirely the parent's and the peers'
        problem, which is the point.
        """
        if self._ring is not None:
            self._ring.append(
                KIND_FAULT, time.perf_counter_ns(), 0, seq=seq, site=site,
                name="die",
            )
        os._exit(_DIE_EXIT_CODE)

    # -- teardown ---------------------------------------------------------

    def close(self) -> bool:
        """Join the streams, release the flags and unmap both segments.

        Returns whether it closed cleanly: no stream was left running
        and no view pinned either segment, so this process maps nothing
        of them any more (see :func:`_rank_main`).
        """
        if self._closed:
            return self._clean
        self._closed = True
        # every started stream must be joined by now (the generated
        # orchestrators join in a finally); any thread still alive gets
        # a short grace join and is tagged in the trace — a leaked
        # producer is a teardown bug the post-mortem must show
        for s in self._streams:
            if s.alive():
                s.wait(1.0)
                if s.alive():
                    self._clean = False
                    if self._ring is not None:
                        self._ring.append(
                            KIND_FAULT, time.perf_counter_ns(), 0,
                            name="stream-leak",
                        )
        self._streams = []
        self._flags.release()
        self._ring = None
        for segment in (self._data, self._flags_map):
            try:
                segment.close()
            except BufferError:  # a view still pins the segment
                self._clean = False
        return self._clean


class _KernelSpan:
    """Context manager scoping one generated-kernel call: maintains the
    current-op name (nested when a producer stream publishes while the
    consumer kernel runs) and, when tracing, records a kernel span."""

    def __init__(self, comm: RankCore, name: str) -> None:
        self._comm = comm
        self._name = name
        self._prev = ""
        self._t0 = 0

    def __enter__(self) -> "_KernelSpan":
        comm = self._comm
        self._prev = comm._op
        comm._op = self._name
        faults = comm._faults
        if comm._ring is not None or (
            faults is not None and faults.kernel_factor > 1.0
        ):
            self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        comm = self._comm
        faults = comm._faults
        if (
            faults is not None and faults.kernel_factor > 1.0
            and self._t0 and exc_type is None
        ):
            # straggler: stretch the kernel's elapsed time by the factor
            elapsed = (time.perf_counter_ns() - self._t0) / 1e9
            time.sleep(elapsed * (faults.kernel_factor - 1.0))
        comm._trace(
            KIND_KERNEL, self._t0, seq=comm._site_seq, site=comm._site,
            name=self._name,
        )
        if exc_type is None:
            comm._op = self._prev
        # on failure the op name is left in place so error_context()
        # reports the kernel that raised


# ---------------------------------------------------------------------------
# Messages and the rank process entry point.
# ---------------------------------------------------------------------------


def _send(fd: int, obj) -> None:
    """Send ``obj`` over the socket ``fd`` as one message: its pickle,
    which marks its own end."""
    data = memoryview(_pickle.dumps(obj, -1))
    while data:
        data = data[os.write(fd, data):]


def _recv(stream):
    """The next :func:`_send` message from ``stream``, a binary stream
    over a socket; ``None`` if the peer is gone before a whole one (EOF,
    a message cut short, or a connection reset because the peer exited
    with a message to it unread)."""
    try:
        return _pickle.load(stream)
    except (EOFError, _pickle.UnpicklingError, OSError):
        return None


#: what a rank process runs (``python -S -c``); ``sys.argv[1]`` is the
#: fd of its end of the socket pair to the parent
_RANK_ENTRY = "from repro.runtime.rank import _rank_main; _rank_main()"


def _rank_main() -> None:
    """A rank process: a spec in, a report out, then exit.

    The rank reads and writes its end of the socket pair as a plain fd
    and never closes it: only its exit does, so the parent reading EOF
    knows the process is gone. A clean survivor (an ``aborted`` report
    whose ``clean`` is true) reads its socket again instead of exiting
    (:mod:`repro.runtime.spmd`, "Failure handling").
    """
    # the data plane, and numpy with it, imports while the parent
    # places the inputs: before the spec read, not after it
    import repro.runtime.spmd  # noqa: F401

    fd = int(sys.argv[1])
    while True:
        with open(fd, "rb", closefd=False) as stream:
            spec = _recv(stream)
        if spec is None:
            break
        report = _run_rank(**spec)
        try:
            _send(fd, report)
        except OSError:  # the parent is gone (or gave up on this run)
            break
        if report[0] != "aborted" or not report[2]:
            break
    # reported, segments and ring closed: exit without interpreter
    # teardown (finalizing every imported module takes longer than the
    # rank body of a small step)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def _run_rank(
    rank: int, layout: SpmdLayout, data_fd: int, flags_fd: int,
    source: str, kernels: Optional[tuple], **comm_kwargs,
) -> tuple:
    """Run the module ``source`` as rank ``rank``; returns its report.

    ``("ok", seconds)``, ``("error", summary, traceback, context)`` or
    ``("aborted", message, clean)``, where ``clean`` is what
    :meth:`RankCore.close` returned. The communicator closes outside
    the exception handlers, once the traceback, and with it every view
    its frames held, is gone.
    """
    from repro.runtime.spmd import SpmdCommunicator, _run_body

    comm = None
    try:
        comm = SpmdCommunicator.attach(
            layout, rank, data_fd, flags_fd, **comm_kwargs
        )
        report = ("ok", _run_body(comm, source, kernels))
    except SpmdPeerAbort as exc:
        report = ("aborted", str(exc))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        if comm is not None:
            comm.signal_error(_ERR_FAILED)
            context = comm.error_context()
        else:
            context = {"rank": rank, "op": "", "site": "", "seq": 0}
        summary = f"rank {rank}: {type(exc).__name__}: {exc}"
        if context.get("op") or context.get("site"):
            summary += (
                f" (op {context.get('op') or '?'!r}, "
                f"site {context.get('site') or '?'!r}, "
                f"seq {context.get('seq', 0)})"
            )
        import traceback

        report = ("error", summary, traceback.format_exc(), context)
    clean = comm is not None and comm.close()
    return report + (clean,) if report[0] == "aborted" else report
