"""A rank's control plane, and the one implementation of its collectives.

:mod:`repro.runtime.spmd` runs one process per rank over a data and a
flags segment. This module, which imports no numpy, holds what ranks
and parent agree on besides the payload bytes: :class:`SpmdLayout`
(both segments' layout, carried in every rank's spec, dtypes as
strings), the flags segment's format, :class:`RankCore` (a rank's
counters, spin, deadlines, peer abort, fault hooks, trace ring, the
publication protocol and every collective, over addresses),
:class:`RankFaults` (a fault plan's view for one rank), the kernel
objects (:class:`CompiledKernels`, :func:`open_kernels`), the spec and
report messages and the rank's entry point, :func:`_rank_main`.

A collective copies between slot and buffer addresses by the
``(offset, nbytes)`` runs of its box (:func:`box_runs`: one run for a
dim-0 box), drains its peers in one order and folds through a callable.
So are P2P, §5.3 chunked publications and producer streams. Two data
planes bind them; the generated module says which
(``GeneratedSpmdProgram.plane``):

* :class:`PointerCommunicator` (``"pointer"``) runs the native target's
  module (LAMB, the pipeline, attention, MoE, the tuned Adam): values
  are addresses, computation and folds the program's own C. Such a rank
  never imports numpy.
* :class:`~repro.runtime.spmd.SpmdCommunicator` (``"numpy"``) runs the
  ``spmd`` target's module, which a native program the C does not
  restate gets too. It binds arrays by their addresses, and folds with
  :func:`~repro.runtime.collectives.fold_ranks`.

A rank imports numpy only for the second: before its first spec, when
the launcher started it for a numpy module (``sys.argv[2]``), else once
a numpy module's spec arrives, as when a pointer rank that survived a
failed launch is adopted by a numpy one. Its report says which plane
ran and whether numpy was imported.

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

import _ctypes
import _pickle
import collections
import ctypes
import math
import mmap
import os
import struct
import sys
import time

from repro.errors import CodegenError, ExecutionError
from repro.observe.ring import (
    KIND_COMPILE, KIND_FAULT, KIND_KERNEL, KIND_PUBLISH, KIND_REDUCE,
    KIND_STALL, KIND_WAIT, TraceRing,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a rank does not import typing
    from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CompiledKernels", "PointerCommunicator", "RankCore", "RankFaults",
    "SpmdError", "SpmdLayout", "SpmdPeerAbort", "SpmdTimeout",
    "SpmdWorkerError", "open_kernels",
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
#: ``madvise`` advice that faults a range in writable (Linux 5.14; not
#: every Python's ``mmap`` module names it)
_MADV_POPULATE_WRITE = 23
#: buffers of a huge page or more ask for transparent huge pages, as
#: numpy's arrays do from 4 MiB: one fault then maps 2 MiB, not 4 KiB
_HUGE_BYTES = 1 << 21


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

    def populate(self, buf: mmap.mmap, ranks: Sequence[int]) -> None:
        """Fault the input regions of ``ranks`` into ``buf``, one call
        per region instead of a fault per page: a rank's before its
        timed body, the parent's before it places the inputs."""
        for key, (shape, dtype, offsets, _) in self.regions.items():
            if key[0] != "in":
                continue
            for r in ranks:
                if r not in offsets:
                    continue
                start = offsets[r] // mmap.PAGESIZE * mmap.PAGESIZE
                end = offsets[r] + math.prod(shape) * int(dtype[2:])
                try:
                    buf.madvise(_MADV_POPULATE_WRITE, start, end - start)
                except (OSError, ValueError):  # before Linux 5.14: touch
                    for off in range(start, end, mmap.PAGESIZE):
                        buf[off]

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


class RankFaults:
    """One rank's runtime view of a :class:`~repro.runtime.faults.FaultPlan`.

    :meth:`FaultPlan.for_rank` builds it in the launcher, and the rank
    gets it in its spec: plain numbers, strings and lists, so it
    unpickles without :mod:`repro.runtime.faults`. The counters live
    here, not in the (immutable) plan, so repeated runs of the same
    plan are independent. ``factor`` stretches the rank's wire and
    kernels; ``stalls`` are ``(site, delay, seq)``, ``dies``
    ``(at_site, after)`` and ``drops`` ``(site, chunk, redeliver)``;
    ``armed`` describes them all.
    """

    def __init__(
        self, factor: float, stalls: list, dies: list, drops: list,
        armed: List[str],
    ) -> None:
        self.wire_factor = factor
        self.kernel_factor = factor
        self._stalls = stalls
        self._dies = dies
        self._die_counts = [0] * len(dies)
        self._drops = drops
        self._drops_armed = [True] * len(drops)
        self._armed = armed

    @property
    def active(self) -> bool:
        return bool(
            self.wire_factor > 1.0
            or self._stalls
            or self._dies
            or self._drops
        )

    def armed(self) -> List[str]:
        """Human-readable descriptions of this rank's armed events."""
        return list(self._armed)

    def publish_delay(self, site: str, seq: int) -> float:
        """Total injected stall before this publish's ready bump."""
        return sum(
            delay
            for pattern, delay, at in self._stalls
            if site.startswith(pattern) and (at is None or at == seq)
        )

    def should_die(self, site: str) -> bool:
        """Count this publish against armed kills; True when one lands."""
        for i, (pattern, after) in enumerate(self._dies):
            if site.startswith(pattern):
                self._die_counts[i] += 1
                if self._die_counts[i] == after:
                    return True
        return False

    def drop(self, site: str, chunk: int) -> Optional[float]:
        """The redeliver delay of the armed drop covering this chunk,
        consumed once; ``None`` when no drop covers it."""
        for i, (pattern, at, redeliver) in enumerate(self._drops):
            if (
                self._drops_armed[i] and site.startswith(pattern)
                and at == chunk
            ):
                self._drops_armed[i] = False
                return redeliver
        return None


class _Publication(collections.namedtuple(
    "_Publication", "key ranks seq chunks payload chunked"
)):
    """One operation on a site: a payload of the same bytes per rank.

    ``chunks`` split the payload into the parts a publisher releases one
    at a time, each a tuple of ``(offset, nbytes)`` runs: one chunk of
    one run for a collective's own operand, one per lowering chunk for a
    §5.3 ``chunked`` publication. ``payload`` is the address of what
    this rank releases (unused by a rank that only reads).
    """

    __slots__ = ()


def signal_dead(layout: SpmdLayout, flags_fd: int, rank: int) -> None:
    """The parent's store of ``rank``'s dead-rank flag through
    ``flags_fd``: peers blocked on its payloads abort instead of
    spinning to their timeouts."""
    os.pwrite(
        flags_fd, _ERR_DEAD.to_bytes(8, sys.byteorder),
        layout.error_index(rank) * 8,
    )


class RankCore:
    """One rank's control plane over the flags segment (its sequence
    counters, deadlines, fault plan and, when traced, its trace ring),
    and the one implementation of the collectives over addresses in the
    data segment that both data planes bind: slot copies, drain orders,
    fold drivers, the barrier, P2P, chunked publications and stream
    threads (which :meth:`close` joins)."""

    def __init__(
        self, layout: SpmdLayout, rank: int, data: mmap.mmap,
        flags: mmap.mmap, wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT, traced: bool = False,
        soft_timeout: Optional[float] = None,
        faults: Optional[RankFaults] = None,
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
        # pins the data segment until close(); addresses are plain ints
        self._pin = ctypes.c_char.from_buffer(data)
        self.base = ctypes.addressof(self._pin)
        self._zero = ctypes.c_int64()  # a barrier's payload
        #: per site, the chunked publication its next collective takes
        self._pending: Dict[str, _Publication] = {}
        #: the buffers the data plane allocated, kept until close()
        self._buffers: List = []
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
        # the fault plan's view for this rank (None when inert); armed
        # events are traced up front, reached or not
        self._faults = faults
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
    # Every operation on a site is one :class:`_Publication`: ``_open``
    # takes the site's next sequence number, ``_release`` copies this
    # rank's payload into its slot chunk by chunk, and ``_drain`` and
    # ``_fold`` wait for each chunk and copy it out, or fold it, before
    # ``_finish``. Every collective of both data planes is these calls on
    # addresses: a drain copies ``(slot offset, destination offset,
    # nbytes)`` moves (:func:`box_moves`) out of its peers' slots, and a
    # fold hands the participants' runs to its plane's fold callable.

    def _slot(self, key: str, rank: int) -> Tuple[int, int]:
        """The address and size of ``rank``'s slot at site ``key``."""
        try:
            _, slot, offset = self.layout.sites[key]
        except KeyError:
            raise SpmdError(
                f"rank {self.rank}: no communication site {key!r}; the "
                f"launcher sized sites from the program — this op was "
                f"not part of it"
            ) from None
        return self.base + offset + rank * slot, slot

    def _open(
        self, key: str, ranks: Sequence[int], nbytes: int,
        chunks: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
        payload: int = 0,
    ) -> _Publication:
        """Start the next operation on site ``key`` among ``ranks``: an
        ``nbytes`` payload per rank at ``payload``, released whole or,
        given ``chunks``, chunk by chunk."""
        _, slot = self._slot(key, self.rank)
        if nbytes > slot:
            raise SpmdError(
                f"rank {self.rank}: payload of {nbytes} B exceeds the "
                f"{slot} B slot of site {key!r}"
            )
        seq = self._begin(key, ranks)
        whole = chunks is None
        return _Publication(
            key, tuple(ranks), seq,
            (((0, nbytes),),) if whole else tuple(map(tuple, chunks)),
            payload, not whole,
        )

    def _publish(
        self, key: str, ranks: Sequence[int], x: int, nbytes: int
    ) -> _Publication:
        """Open the next operation on ``key`` and release the ``nbytes``
        at ``x`` whole."""
        pub = self._open(key, ranks, nbytes, payload=x)
        self._release(pub)
        return pub

    def _release(self, pub: _Publication, out: int = 0) -> None:
        """Announce this rank's payload, one wire transfer and one ready
        bump per chunk: the chunk's runs are copied into this rank's
        slot and, given ``out``, into that buffer too (the
        consumer-visible buffer of the lowered ``publish`` mode).

        Fault points count a whole publication by its site sequence and
        a chunked one by chunk index; only a chunked publication can
        drop a chunk. An injected drop_chunk withholds the ready bump:
        the payload is written, but visibility is redelivered later
        (with the next chunk's bump, or after the drop's redeliver delay
        for the last chunk), and consumers soft-retry through the gap.
        """
        key = pub.key
        slot = self._slot(key, self.rank)[0]
        redeliver: Optional[float] = None
        for c, runs in enumerate(pub.chunks):
            t0 = time.perf_counter_ns() if self._ring is not None else 0
            nbytes = 0
            for off, n in runs:
                ctypes.memmove(slot + off, pub.payload + off, n)
                if out:
                    ctypes.memmove(out + off, pub.payload + off, n)
                nbytes += n
            self._wire_sleep(nbytes)
            seq = c if pub.chunked else pub.seq
            self._fault_publish(key, seq)
            if pub.chunked and self._faults is not None:
                delay = self._faults.drop(key, c)
                if delay is not None:
                    self._trace(
                        KIND_FAULT, time.perf_counter_ns(), seq=c,
                        site=key, name=f"drop_chunk {c}",
                    )
                    redeliver = delay
                    continue
            if redeliver is not None:
                time.sleep(redeliver)
                self._trace(
                    KIND_FAULT, time.perf_counter_ns(), seq=c, site=key,
                    name="redeliver",
                )
                redeliver = None
            self._set_ready(key, self.rank, pub.seq * PROGRESS_BASE + c + 1)
            self._trace(
                KIND_PUBLISH, t0, nbytes=nbytes, seq=seq, site=key,
                name=f"chunk{c}" if pub.chunked else self._op or key,
            )
        if redeliver is not None:
            # the dropped chunk was the last one: redeliver it
            last = len(pub.chunks)
            time.sleep(redeliver)
            self._trace(
                KIND_FAULT, time.perf_counter_ns(), seq=last - 1, site=key,
                name="redeliver",
            )
            self._set_ready(key, self.rank, pub.seq * PROGRESS_BASE + last)

    def _drain(
        self, pub: _Publication, ranks: Sequence[int],
        moves: Sequence[Sequence[Tuple[int, int, int]]], out: int,
    ) -> None:
        """For each chunk of ``pub`` and each ``ranks[j]``, in that
        order (a rank may repeat): wait until the rank published the
        chunk, then copy the part of ``moves[j]`` inside it from the
        rank's slot into ``out``. Then finish the operation."""
        slots = [self._slot(pub.key, r)[0] for r in ranks]
        for c, runs in enumerate(pub.chunks):
            for j, r in enumerate(ranks):
                self._wait(pub, r, c)
                for s, d, n in _within(moves[j], runs):
                    ctypes.memmove(out + d, slots[j] + s, n)
        self._finish(pub)

    def _fold(
        self, pub: _Publication, moves: Sequence[Tuple[int, int, int]],
        fold: Callable[[List[int], int, int], None], name: str,
    ) -> None:
        """Wait for each chunk of ``pub`` from every participant, then
        ``fold(sources, d, n)`` each part ``(s, d, n)`` of ``moves``
        inside it, ``sources`` being the participants' slots at ``s`` in
        rank order; finish the operation and record its reduce span
        (``name`` when no kernel is running).

        The reduce span of a chunked publication starts before the first
        wait, since its reduction is interleaved with the waits; a whole
        payload's span starts once every payload is in, so it covers the
        reduction only.
        """
        slots = [self._slot(pub.key, r)[0] for r in pub.ranks]
        t0 = time.perf_counter_ns() if self._ring is not None else 0
        for c, runs in enumerate(pub.chunks):
            for r in pub.ranks:
                self._wait(pub, r, c)
            if not pub.chunked and self._ring is not None:
                t0 = time.perf_counter_ns()
            for s, d, n in _within(moves, runs):
                fold([slot + s for slot in slots], d, n)
        self._finish(pub)
        self._trace(
            KIND_REDUCE, t0, seq=pub.seq, site=pub.key,
            name=self._op or name,
        )

    def _take(
        self, ranks: Sequence[int], x: int, nbytes: int,
        release: bool = True,
    ) -> _Publication:
        """What a collective of the group of ``ranks`` publishes: the
        site's pending chunked publication, else the ``nbytes`` at ``x``
        whole, released unless this rank only reads."""
        key = _group_site(ranks)
        pending = self._pending.pop(key, None)
        if pending is not None:
            return pending
        pub = self._open(key, ranks, nbytes, payload=x)
        if release:
            self._release(pub)
        return pub

    def barrier(self) -> None:
        """Wait until every rank reached its barrier."""
        ranks = range(self.nranks)
        pub = self._publish(
            _group_site(ranks), ranks, ctypes.addressof(self._zero), 8
        )
        self._drain(pub, ranks, [()] * self.nranks, 0)

    # -- P2P --------------------------------------------------------------

    def send(self, x: int, dst: int, nbytes: int) -> None:
        """Send the ``nbytes`` at ``x`` to global rank ``dst``."""
        key = _p2p_site(self.rank, dst)
        self._finish(self._publish(key, (self.rank, dst), x, nbytes))

    def recv(self, src: int, nbytes: int, out: int) -> int:
        """``out``, holding the ``nbytes`` global rank ``src`` sent."""
        key = _p2p_site(src, self.rank)
        pub = self._open(key, (src, self.rank), nbytes)
        self._drain(pub, [src], [((0, 0, nbytes),)], out)
        return out

    # -- chunked ring publication (overlap, §5.3) -------------------------

    def begin_chunked(
        self, ranks: Sequence[int], staging: int, nbytes: int,
        chunks: Sequence[Sequence[Tuple[int, int]]],
    ) -> _Publication:
        """Open a publication of the ``nbytes`` at ``staging`` on the
        group's site, one chunk per run list of ``chunks``, for
        :meth:`publish_chunks` to release. The group's next collective
        takes it (:meth:`_take`) and ingests it chunk by chunk.

        Chunks go out in *index order* on every rank, not ring-rotated
        (Figure 9): the collectives reduce in rank order, so chunk ``c``
        is complete at step ``c``, while under rotation every chunk
        would complete only at the last step, serializing the pipeline.
        """
        pub = self._open(_group_site(ranks), ranks, nbytes, chunks, staging)
        self._pending[pub.key] = pub
        return pub

    def publish_chunks(self, token: _Publication, out: int = 0) -> None:
        """Release ``token``'s chunks, copying each into ``out`` too when
        given (the lowered ``publish`` mode's consumer-visible buffer)."""
        self._release(token, out)

    # -- streams ----------------------------------------------------------

    def start_stream(self, fn):
        """Run ``fn`` on a worker thread, one per GPU stream. What it
        raises sets the error flag; :meth:`join_streams` reraises it."""
        import threading  # only ring overlap chunk loops run a stream

        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised at join
                stream.error = exc
                self.signal_error(_ERR_FAILED)

        stream = threading.Thread(target=run, daemon=True)
        stream.error = None
        stream.start()
        self._streams.append(stream)
        return stream

    def join_streams(self, *streams) -> None:
        """Join ``streams``; raise what one of them raised."""
        for s in streams:
            s.join(self.timeout)
            if s.is_alive():  # pragma: no cover - defensive
                raise SpmdTimeout("stream thread did not finish")
            if s.error is not None:
                raise s.error

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
            if s.is_alive():
                s.join(1.0)
                if s.is_alive():
                    self._clean = False
                    if self._ring is not None:
                        self._ring.append(
                            KIND_FAULT, time.perf_counter_ns(), 0,
                            name="stream-leak",
                        )
        self._streams = []
        self._pin = None
        self._buffers = []
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


def box_runs(
    shape: Sequence[int], itemsize: int, dim: int, lo: int, hi: int
) -> List[Tuple[int, int]]:
    """The ``(offset, nbytes)`` runs, in order, of rows ``lo:hi`` along
    ``dim`` (negative counts from the end) of a C-contiguous ``shape``
    array of ``itemsize``-byte elements: one run per index of the
    dimensions before ``dim``, so a dim-0 box is one run."""
    dim %= len(shape)
    inner = itemsize * math.prod(shape[dim + 1:])
    step = shape[dim] * inner
    return [
        (o * step + lo * inner, (hi - lo) * inner)
        for o in range(math.prod(shape[:dim]))
    ]


def box_moves(
    shape: Sequence[int], itemsize: int, dim: int, lo: int, at: int,
    rows: int, dst: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int, int]]:
    """The ``(source offset, destination offset, nbytes)`` moves that
    copy rows ``lo:lo + rows`` along ``dim`` of a C-contiguous ``shape``
    array into rows ``at:at + rows`` of a ``dst``-shaped one (default:
    ``shape``), equal to it in every other dimension."""
    return [
        (s, d, n) for (s, n), (d, _) in zip(
            box_runs(shape, itemsize, dim, lo, lo + rows),
            box_runs(dst or shape, itemsize, dim, at, at + rows),
        )
    ]


def _within(
    moves: Sequence[Tuple[int, int, int]], runs: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int, int]]:
    """The parts of ``moves`` whose source bytes lie in ``runs`` (one
    chunk of a publication), in order."""
    return [
        (lo, d + lo - s, hi - lo)
        for s, d, n in moves
        for a, m in runs
        for lo, hi in ((max(s, a), min(s + n, a + m)),)
        if lo < hi
    ]


def _group_site(ranks: Sequence[int]) -> str:
    """The site key of the process group of consecutive ``ranks``."""
    return f"g{ranks[0]}x{len(ranks)}"


def _p2p_site(src: int, dst: int) -> str:
    """The site key of the point-to-point pair from ``src`` to ``dst``."""
    return f"p{src}>{dst}"


# ---------------------------------------------------------------------------
# Compiled kernels and the pointer data plane.
# ---------------------------------------------------------------------------


class CompiledKernels:
    """A loaded kernel shared object; ``call`` invokes one C function.

    Every generated function has the uniform ABI
    ``void f(char** bufs, double* scalars)``: a loop's trip count is
    ``scalars[0]`` and only broadcast strides are baked into the
    source, so the Python side marshals base pointers and scalars (a
    ctypes foreign call releases the GIL — the overlap producer stream
    keeps running during compute).
    """

    def __init__(
        self, lib: ctypes.CDLL, key: str, path: str,
        functions: Sequence[str], blas: Optional[Tuple[str, str]] = None,
        sgemm: int = 0,
    ) -> None:
        self._lib = lib
        self.key = key
        self.path = path
        self.functions = tuple(functions)
        #: the ``(path, sgemm symbol)`` of the BLAS the C calls, or None
        self.blas = blas
        #: that ``sgemm``'s address, which a GEMM function takes in ``A``
        self.sgemm = sgemm
        self._fns: Dict[str, object] = {}

    def _fn(self, name: str):
        fn = self._fns.get(name)
        if fn is None:
            fn = getattr(self._lib, name)
            fn.argtypes = [
                ctypes.POINTER(ctypes.c_void_p),
                ctypes.POINTER(ctypes.c_double),
            ]
            fn.restype = None
            self._fns[name] = fn
        return fn

    def call(
        self, name: str, arrays: Sequence, scalars: Sequence[float] = (),
        outputs: Sequence = (),
    ) -> None:
        """Run ``name`` over ``arrays`` then ``outputs`` (``A[k]`` in
        that order) and ``scalars`` (``S``).

        Each buffer is a numpy array or, on the pointer data plane, an
        address (an ``int``). A non-contiguous input array is read from
        a contiguous copy. An output is written where it lies (often a
        tensor's own region), so a non-contiguous one is an error: a
        copy would lose the write.
        """
        # the list keeps each input's copy alive until the call returns
        inputs = [
            a if isinstance(a, int) or a.flags.c_contiguous else a.copy()
            for a in arrays
        ]
        for k, a in enumerate(outputs):
            if not isinstance(a, int) and not a.flags.c_contiguous:
                raise CodegenError(
                    f"kernel {name}: output {k} is not C-contiguous "
                    f"(shape {a.shape}, strides {a.strides})"
                )
        bufs = [
            a if isinstance(a, int) else a.ctypes.data
            for a in (*inputs, *outputs)
        ]
        ptrs = (ctypes.c_void_p * len(bufs))(*bufs)
        sc = (ctypes.c_double * max(1, len(scalars)))(*scalars)
        self._fn(name)(ptrs, sc)


def open_kernels(
    key: str, path: str, functions: Sequence[str],
    blas: Optional[Tuple[str, str]] = None,
) -> Optional[CompiledKernels]:
    """Load ``path`` if it exports every one of ``functions``.

    An object that loads but lacks one is not this source's kernel (a
    stale or misplaced object): it is closed again, since ``dlopen``
    would otherwise hand its handle back for the recompiled file at the
    same path, and counts as unloadable (``None``). ``blas`` is the
    ``(path, sgemm symbol)`` of the library its GEMMs call, numpy's own
    (:func:`repro.core.codegen.native.blas`): it is opened too, without
    numpy, and the symbol's address becomes
    :attr:`CompiledKernels.sgemm`.
    """
    sgemm = 0
    try:
        if blas is not None:
            fn = getattr(ctypes.CDLL(blas[0]), blas[1])
            sgemm = ctypes.cast(fn, ctypes.c_void_p).value
        lib = ctypes.CDLL(path)
    except (OSError, AttributeError):
        return None
    if all(hasattr(lib, name) for name in functions):
        return CompiledKernels(lib, key, path, functions, blas, sgemm)
    _ctypes.dlclose(lib._handle)
    return None


class PointerCommunicator(RankCore):
    """One rank's data plane over raw addresses: the numpy-free rank.

    A pointer module (``GeneratedSpmdProgram.plane == "pointer"``) holds
    every value as the address of this rank's copy of it: an input
    region in the data segment, or a buffer from :meth:`alloc`. Its
    collectives are :class:`RankCore`'s on those addresses. A
    ReduceScatter or AllReduce folds the
    participants' slots with the program's own C helper,
    ``fold_<op>_<in>_<out>``, a rank-order float64 fold rounded once:
    exactly :func:`~repro.runtime.collectives.fold_ranks` then
    ``astype``. An AllGather copies each peer's slot into its row, an
    AllToAll one dim-0 chunk per move of the table the module passes.
    """

    #: the program's kernel object, bound before the body runs
    kernels: Optional[CompiledKernels] = None

    def alloc(self, nbytes: int) -> int:
        """The address of a new zeroed ``nbytes`` buffer, kept until
        :meth:`close`; from :data:`_HUGE_BYTES` up, a private mapping
        advised to use huge pages."""
        if nbytes < _HUGE_BYTES:
            buf = (ctypes.c_char * max(1, nbytes))()
        else:
            m = mmap.mmap(
                -1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            )
            try:
                m.madvise(mmap.MADV_HUGEPAGE)
            except (AttributeError, OSError):  # no THP: plain pages
                pass
            buf = ctypes.c_char.from_buffer(m)
        self._buffers.append(buf)
        return ctypes.addressof(buf)

    def copy(self, x: int, nbytes: int) -> int:
        """A private copy of the ``nbytes`` at ``x``."""
        out = self.alloc(nbytes)
        ctypes.memmove(out, x, nbytes)
        return out

    def scalar(self, x: int, fmt: str) -> float:
        """The 0-d value at ``x``, one ``struct`` element of format
        ``fmt`` (``e``, ``f`` or ``d``), as an exact Python float."""
        return struct.unpack(fmt, ctypes.string_at(x, struct.calcsize(fmt)))[0]

    def _reduce(
        self, x: int, ranks: Sequence[int], nbytes: int, fold: str,
        count: int, out_nbytes: int, part: int = 0, parts: int = 1,
    ) -> int:
        """Fold dim-0 part ``part`` of ``parts`` of every rank's
        ``nbytes`` at ``x`` into ``count`` elements (``out_nbytes``) by
        C helper ``fold``, one run (of a chunk) at a time."""
        pub = self._take(ranks, x, nbytes)
        out, acc = self.alloc(out_nbytes), self.alloc(8 * count)
        size = nbytes // parts
        isize, osize = size // count, out_nbytes // count

        def fold_run(sources: List[int], d: int, n: int) -> None:
            at = d // isize  # the run's first element
            for j, src in enumerate(sources):
                self.kernels.call(
                    fold, (src, acc + 8 * at), (n // isize, j, len(sources)),
                    (out + osize * at,),
                )

        self._fold(pub, ((part * size, 0, size),), fold_run, fold)
        return out

    def allreduce(
        self, x: int, ranks: Sequence[int], nbytes: int, fold: str,
        count: int, out_nbytes: int,
    ) -> int:
        """Every rank receives the reduction of each rank's ``nbytes``
        at ``x``: ``count`` elements (``out_nbytes``) that C helper
        ``fold`` folds."""
        return self._reduce(x, ranks, nbytes, fold, count, out_nbytes)

    def reducescatter(
        self, x: int, ranks: Sequence[int], nbytes: int, fold: str,
        count: int, out_nbytes: int,
    ) -> int:
        """This rank receives its dim-0 shard of the reduction (as
        :meth:`allreduce`), and folds only that shard of every slot."""
        return self._reduce(
            x, ranks, nbytes, fold, count, out_nbytes,
            ranks.index(self.rank), len(ranks),
        )

    def allgather(
        self, x: int, ranks: Sequence[int], nbytes: int,
        out: Optional[int] = None,
    ) -> int:
        """The ranks' ``nbytes`` at ``x`` concatenated along dim 0, in
        rank order, into ``out`` (default: a new buffer). ``x`` is
        published before any row of ``out`` is written, so it may be
        this rank's own row."""
        pub = self._take(ranks, x, nbytes)
        if out is None:
            out = self.alloc(nbytes * len(ranks))
        rows = [((0, j * nbytes, nbytes),) for j in range(len(ranks))]
        self._drain(pub, ranks, rows, out)
        return out

    def alltoall(
        self, x: int, ranks: Sequence[int], nbytes: int,
        moves: Sequence[Tuple[int, int, int]],
    ) -> int:
        """The numpy plane's ``alltoall`` on dim 0 of the ranks'
        ``nbytes`` at ``x``: for each move ``(p, s, d)``, in order,
        chunk ``s`` (of ``len(ranks)``) of global rank ``p``'s slot is
        copied into chunk ``d`` of this rank's result."""
        pub = self._take(ranks, x, nbytes)
        out = self.alloc(nbytes)
        step = nbytes // len(ranks)
        self._drain(
            pub, [p for p, _, _ in moves],
            [((s * step, d * step, step),) for _, s, d in moves], out,
        )
        return out

    def recv(self, src: int, nbytes: int) -> int:
        """A new buffer of the ``nbytes`` global rank ``src`` sent."""
        return super().recv(src, nbytes, self.alloc(nbytes))

    # -- the body's inputs and results -----------------------------------

    def _bind_inputs(self) -> Dict[str, int]:
        """This rank's input regions' addresses, by tensor name."""
        return {
            key[1]: self.base + offsets[self.rank]
            for key, (_, _, offsets, _) in self.layout.regions.items()
            if key[0] == "in" and self.rank in offsets
        }

    def _store_results(self, outputs: Dict, states: Dict) -> None:
        """Copy this rank's results into the regions the parent reads;
        a result already at its region's address is not copied."""
        for key, region in self.layout.regions.items():
            shape, dtype, offsets, writers = region
            if self.rank not in writers:
                continue
            kind, name = key
            x = (outputs if kind == "out" else states).pop(name)
            at = self.base + offsets[self.rank]
            if x != at:
                ctypes.memmove(at, x, math.prod(shape) * int(dtype[2:]))


def _run_body(
    comm: RankCore, source: str, kernels: Optional[tuple]
) -> float:
    """Bind this rank's regions, run ``run_rank`` and store its results;
    returns the body's seconds.

    ``comm`` is either data plane: a
    :class:`~repro.runtime.spmd.SpmdCommunicator` binds array views,
    a :class:`PointerCommunicator` addresses. ``kernels`` is a pointer
    module's ``(key, path, functions)``, plus the BLAS its GEMMs call
    if any: :func:`open_kernels`'s arguments for the kernel object the
    parent resolved, bound as the module's ``_K``. Every view of the
    segment lives in this frame, so none outlives it.
    """
    inputs = comm._bind_inputs()
    comm.layout.populate(comm._data, (comm.rank,))
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<spmd rank {comm.rank}>", "exec"), namespace)
    if kernels is not None:
        # open before the timing barrier: the dlopen counts as
        # start-up (like spawn), not as execution time
        t0 = time.perf_counter()
        namespace["_K"] = comm.kernels = open_kernels(*kernels)
        if comm.kernels is None:
            raise SpmdError(f"kernel object {kernels[1]} is unloadable")
        comm.record_kernel_open(kernels[0][:12], time.perf_counter() - t0)
    # synchronize before timing so spawn stagger (rank 0 idling in
    # its first collective until the last process is up) does not
    # count as execution time
    comm.barrier()
    t0 = time.perf_counter()
    outputs, states = namespace["run_rank"](comm, inputs)
    elapsed = time.perf_counter() - t0
    comm._store_results(outputs, states)
    return elapsed


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
#: fd of its end of the socket pair to the parent, ``sys.argv[2]`` the
#: data plane of the module the parent will send (``"numpy"`` or
#: ``"pointer"``)
_RANK_ENTRY = "from repro.runtime.rank import _rank_main; _rank_main()"


def _rank_main() -> None:
    """A rank process: a spec in, a report out, then exit.

    The rank reads and writes its end of the socket pair as a plain fd
    and never closes it: only its exit does, so the parent reading EOF
    knows the process is gone. A clean survivor (an ``aborted`` report
    whose ``clean`` is true) reads its socket again instead of exiting
    (:mod:`repro.runtime.spmd`, "Failure handling").
    """
    if sys.argv[2:3] != ["pointer"]:
        # the numpy data plane, and numpy with it, imports while the
        # parent places the inputs: before the spec read, not after it
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
    source: str, kernels: Optional[tuple], plane: str = "numpy",
    **comm_kwargs,
) -> tuple:
    """Run the module ``source`` as rank ``rank``; returns its report.

    ``plane`` names the module's data plane: ``"pointer"`` attaches a
    :class:`PointerCommunicator`, anything else a
    :class:`~repro.runtime.spmd.SpmdCommunicator`, importing numpy if
    this process has not yet. The report is ``("ok", seconds, plane,
    numpy imported)``, ``("error", summary, traceback, context)`` or
    ``("aborted", message, clean)``, where ``clean`` is what
    :meth:`RankCore.close` returned. The communicator closes outside
    the exception handlers, once the traceback, and with it every view
    its frames held, is gone.
    """
    comm = None
    try:
        if plane == "pointer":
            cls = PointerCommunicator
        else:
            from repro.runtime.spmd import SpmdCommunicator as cls
        comm = cls.attach(layout, rank, data_fd, flags_fd, **comm_kwargs)
        seconds = _run_body(comm, source, kernels)
        report = ("ok", seconds, plane, "numpy" in sys.modules)
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
