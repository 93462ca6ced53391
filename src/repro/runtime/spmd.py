"""Real SPMD execution: one OS process per rank over shared memory.

The in-process interpreter (``Executor.run_lowered``) executes all
ranks inside one Python process, so "communication" is a library
call over arrays it already owns. This module is the first tier where a
generated program runs as *real concurrent processes*: ``launch`` spawns
one process per rank (``multiprocessing`` spawn context), each process
executes the same generated SPMD module (``CodeGenerator`` with
``target="spmd"``), and ranks rendezvous through a
:class:`SpmdCommunicator` built on ``multiprocessing.shared_memory``.

Transport protocol
------------------

The parent lays out one *slot* per (communication site, rank) in a
single shared data segment, plus an ``int64`` flags segment. A site is
a process group (key ``g<start>x<size>``) or a point-to-point pair
(``p<src>><dst>``). Each slot holds a small self-describing header
(shape + dtype) and the payload; each (site, rank) pair has a *ready*
and a *done* sequence counter in the flags segment:

* publish: write payload, then store ``ready = seq * 2^20 + progress``
  (``progress`` counts published chunks; whole payloads publish 1);
* collect: spin until a peer's ready counter covers the needed chunk,
  then copy the payload out;
* finish: store ``done = seq``. A publisher may only reuse its slot for
  ``seq`` once every participant's ``done`` reached ``seq - 1``.

Because the program is SPMD, every member of a group issues that
group's operations in the same order, so the per-site sequence numbers
advance in lockstep and the tiny protocol above is a full rendezvous.

The publish-then-flag ordering relies on total-store-order visibility
between the payload write and the flag store (plus the fences CPython
itself executes between the two numpy calls). That holds on x86-64 —
every environment this repository's CI runs — but is not guaranteed by
weakly-ordered ISAs; a port to ARM should add an explicit fence (or a
``multiprocessing`` synchronization primitive) between the two stores.

Numerics
--------

Collectives gather peer payloads into a contiguous rank-major stack and
apply the *same* reduction/slicing formulas as
:mod:`repro.runtime.collectives` (float64 accumulation in rank order),
so every collective is bit-identical to its vectorized counterpart —
the property the ``run_spmd`` ≡ ``run_lowered`` acceptance tests rely
on. The pairwise AllToAll drains peers in the step order of
:func:`repro.nccl.algorithms.all_to_all_steps`; chunked publication
(:meth:`SpmdCommunicator.begin_chunked` /
:meth:`SpmdCommunicator.publish_chunks`) releases a producer's output
chunk-by-chunk at the lowering's chunk granularity, and a consuming
reduction ingests each chunk as soon as all ranks have published it.
Reductions over the rank axis are element-wise in the data dimensions,
so chunk-wise accumulation is bit-identical to whole-buffer
accumulation while genuinely pipelining the reduce behind the wire
(:meth:`SpmdCommunicator.begin_chunked` documents why the gather-based
consumer releases chunks index-ordered rather than ring-rotated).

Launch
------

A launch pays an interpreter start per rank, so ``launch`` keeps
everything else off that path:

1. Every rank process starts with small arguments only (layout,
   segment names, deadlines, fault plan, trace path). Only then does
   one sender thread per rank send it its module spec and input shard
   over its own pipe. Shipping the shards as ``Process`` arguments
   would make each ``start()`` wait until that rank had imported numpy
   and repro, so the ranks would start one after another. Shards and
   reports are pickled with their arrays out of band
   (:func:`_send_message`), so neither side holds a pickled copy of an
   array, and the parent drops each shard once it is sent.
2. For the native target the module spec carries the parent's
   :func:`repro.core.codegen.native.toolchain_record` (compiler path
   and version, BLAS candidate paths). Each rank primes its toolchain
   memos from it instead of forking ``cc --version`` and the
   ``find_library`` probes; the record selects the same library and
   kernel cache key that probing would.
3. A rank that has sent its report and closed its segments flushes
   stdio and leaves with ``os._exit(0)``, skipping interpreter
   teardown.

Failure handling
----------------

A rank that raises stores a failure marker in the flags segment; every
spin loop polls the marker, so peers blocked mid-collective abort
promptly instead of deadlocking the rendezvous. The parent tears down
in a ``finally``: joins (then terminates) every worker and closes and
unlinks both shared-memory segments, so a failing kernel can never leak
``/dev/shm`` segments. A rank that dies before it has read its inputs
is reported dead like one that dies mid-run.

Usage
-----

The high-level entry point is ``Executor.run_spmd`` (backend selection,
artifact shipping, elastic recovery); ``launch`` is the raw engine
underneath. Not a doctest — it spawns one real OS process per rank:

.. code-block:: python

    from repro.cli import _seeded_inputs
    from repro.runtime.executor import Executor
    from repro.workloads.adam import AdamWorkload

    sched = AdamWorkload.build(1024, 4).schedules()['fuse(RS-Adam-AG)']
    inputs = _seeded_inputs(sched.program, seed=0)
    out = Executor().run_spmd(sched, inputs, allow_downcast=True)
    # bit-identical to run_lowered(sched, inputs) — the acceptance
    # property tests/test_spmd.py holds the backend to; pass
    # codegen_target="native" for compiled C kernels, elastic=True
    # plus a FaultPlan for recovery from dead ranks.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import traceback
import uuid
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import ops
from repro.core.process_group import ProcessGroup
from repro.core.tensor import Tensor
from repro.errors import ExecutionError
from repro.observe.ring import (
    KIND_COMPILE,
    KIND_FAULT,
    KIND_KERNEL,
    KIND_PUBLISH,
    KIND_REDUCE,
    KIND_STALL,
    KIND_WAIT,
    TraceRing,
)
from repro.runtime.collectives import _reduce_stack
from repro.runtime.faults import FaultPlan
from repro.runtime.world import (
    assemble_rows,
    place_inputs,
    rank_invariant,
    slice_of,
)

__all__ = [
    "SpmdCommunicator",
    "SpmdError",
    "SpmdPeerAbort",
    "SpmdTimeout",
    "SpmdWorkerError",
    "launch",
    "scaled_default_timeout",
    "CollectivePool",
]

#: bytes reserved at the start of every slot for the payload header
HEADER_BYTES = 192
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
        self,
        message: str,
        context: Optional[dict] = None,
        dead_ranks: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(message)
        self.context = context or {}
        self.dead_ranks = sorted(dead_ranks or [])


def _group_key(group: ProcessGroup) -> str:
    return f"g{group.start}x{group.size}"


def _p2p_key(src: int, dst: int) -> str:
    return f"p{src}>{dst}"


def _round64(n: int) -> int:
    return (n + 63) // 64 * 64


class SpmdLayout:
    """Deterministic slot layout shared by the parent and every rank.

    ``sites`` maps a site key to ``(participants, slot_bytes, offset)``
    where ``offset`` is the byte offset of the site's rank-0 slot in the
    data segment; rank ``r``'s slot starts at ``offset + r *
    slot_bytes``. Picklable by construction (plain ints/tuples) so the
    spawn context can ship it to every worker.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.sites: Dict[str, Tuple[Tuple[int, ...], int, int]] = {}
        self.data_size = 64
        self._pending: Dict[str, Tuple[Tuple[int, ...], int]] = {}

    def add_site(
        self, key: str, participants: Sequence[int], payload_bytes: int
    ) -> None:
        participants = tuple(participants)
        slot = HEADER_BYTES + _round64(max(64, int(payload_bytes))) + 64
        old = self._pending.get(key)
        if old is not None:
            participants = old[0]
            slot = max(old[1], slot)
        self._pending[key] = (participants, slot)

    def freeze(self) -> int:
        """Assign offsets; returns the total data-segment size."""
        offset = 0
        for key in sorted(self._pending):
            participants, slot = self._pending[key]
            self.sites[key] = (participants, slot, offset)
            offset += slot * self.nranks
        self.data_size = max(offset, 64)
        return self.data_size

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def flags_length(self) -> int:
        # ready+done per (site, rank), then one error flag per rank
        return self.num_sites * self.nranks * 2 + self.nranks


def build_layout(program) -> SpmdLayout:
    """Enumerate the program's communication sites and size their slots.

    One site per process group touched by a collective or cross-rank
    reduction, one per point-to-point (src, dst) pair of every Send, and
    one world-sized site for barriers. Slot sizes cover the largest
    per-rank payload published at that site (collective inputs, chunked
    staging buffers, gathered scalars).
    """
    world_size = program.inputs[0].group.world_size
    layout = SpmdLayout(world_size)
    layout.add_site(
        _group_key(ProcessGroup(0, world_size, world_size)),
        range(world_size),
        64,
    )
    for e in program.operations:
        if isinstance(e, ops.Send):
            src_group = e.inputs[0].group
            dst_group = e.group
            nbytes = e.inputs[0].per_rank_bytes()
            for local in range(src_group.size):
                src = src_group.global_rank(local)
                dst = dst_group.global_rank(local)
                layout.add_site(_p2p_key(src, dst), (src, dst), nbytes)
        elif isinstance(e, ops.CommOp):
            nbytes = max(
                e.inputs[0].per_rank_bytes(), e.per_rank_bytes()
            )
            layout.add_site(_group_key(e.group), e.group.ranks, nbytes)
        elif (
            isinstance(e, (ops.Norm, ops.ReduceTensor)) and e.crosses_ranks
        ):
            layout.add_site(_group_key(e.group), e.group.ranks, 64)
    layout.freeze()
    return layout


def scaled_default_timeout(
    layout: SpmdLayout, wire_s_per_mb: float,
    compile_allowance_s: float = 0.0,
) -> float:
    """The default per-wait deadline, scaled to the simulated wire.

    Publishing a slot of S MiB costs ``wire_s_per_mb * S`` seconds of
    simulated wire sleep; chunked sites republish the payload per chunk
    and a straggler can serialize every rank's wire time behind it, so
    the flat :data:`DEFAULT_TIMEOUT` gains ``4 x wire x largest-site x
    nranks`` of headroom — slow simulated wires must stretch waits, not
    fail them.

    ``compile_allowance_s`` is the native target's one-time
    cold-kernel-cache headroom: on the first run each rank compiles (or
    waits behind a peer's ``flock`` for) the module's C kernels between
    the barrier and its first rendezvous, which the flat deadline would
    misread as a dead peer. Warm-cache runs pass 0.
    """
    base = DEFAULT_TIMEOUT + max(0.0, compile_allowance_s)
    if wire_s_per_mb <= 0.0 or not layout.sites:
        return base
    largest = max(slot for (_, slot, _) in layout.sites.values())
    scale = 4.0 * wire_s_per_mb * (largest / (1 << 20)) * layout.nranks
    return base + scale


class _ChunkToken:
    """A chunked publication in flight on a group site."""

    def __init__(self, key, group, seq, staging, chunk_dim, bounds) -> None:
        self.key = key
        self.group = group
        self.seq = seq
        self.staging = staging
        self.chunk_dim = chunk_dim
        self.bounds = tuple(bounds)


class SpmdCommunicator:
    """One rank's endpoint of the shared-memory rendezvous."""

    def __init__(
        self,
        layout: SpmdLayout,
        rank: int,
        data: SharedMemory,
        flags: SharedMemory,
        wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT,
        owns_segments: bool = False,
        trace_path: Optional[str] = None,
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
        self._flags_shm = flags
        self._owns = owns_segments
        self._flags = np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=flags.buf
        )
        self._site_order = sorted(layout.sites)
        self._site_idx = {k: i for i, k in enumerate(self._site_order)}
        self._seq: Dict[str, int] = {}
        self._tokens: Dict[str, _ChunkToken] = {}
        self._err_off = layout.num_sites * layout.nranks * 2
        self._closed = False
        # observability: the per-rank trace ring plus the current
        # operation context (kept even without a ring — it is the
        # structured context attached to propagated worker errors)
        self._ring: Optional[TraceRing] = (
            TraceRing(trace_path) if trace_path else None
        )
        self._op = ""
        self._site = ""
        self._site_seq = 0
        self._streams: List["_Stream"] = []
        # fault injection: the plan's per-rank view (None when inert);
        # armed events are recorded up front so a post-mortem trace
        # shows what was injected even if the rank never reaches it
        self._faults = faults.for_rank(rank) if faults is not None else None
        if self._faults is not None and self._ring is not None:
            now = time.monotonic_ns()
            for desc in self._faults.armed():
                self._ring.append(KIND_FAULT, now, 0, name=f"armed:{desc}")

    # -- attach (worker side) -------------------------------------------

    @classmethod
    def attach(
        cls,
        layout: SpmdLayout,
        rank: int,
        data_name: str,
        flags_name: str,
        wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT,
        trace_path: Optional[str] = None,
        soft_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> "SpmdCommunicator":
        data = SharedMemory(name=data_name)
        flags = SharedMemory(name=flags_name)
        # NOTE: attaching does not register with the resource tracker on
        # supported Pythons (3.9+), and spawned workers share the
        # parent's tracker — the parent's unlink() is the only
        # deregistration, so no double-unlink warnings.
        return cls(
            layout, rank, data, flags, wire_s_per_mb, timeout,
            trace_path=trace_path, soft_timeout=soft_timeout,
            faults=faults,
        )

    # -- flags ----------------------------------------------------------

    def _ready_idx(self, key: str, rank: int) -> int:
        return (self._site_idx[key] * self.nranks + rank) * 2

    def _ready(self, key: str, rank: int) -> int:
        return int(self._flags[self._ready_idx(key, rank)])

    def _set_ready(self, key: str, rank: int, value: int) -> None:
        self._flags[self._ready_idx(key, rank)] = value

    def _done(self, key: str, rank: int) -> int:
        return int(self._flags[self._ready_idx(key, rank) + 1])

    def _set_done(self, key: str, rank: int, value: int) -> None:
        self._flags[self._ready_idx(key, rank) + 1] = value

    def signal_error(self, kind: int = _ERR_FAILED) -> None:
        """Mark this rank failed so peers abort their pending waits."""
        if not self._closed:
            self._flags[self._err_off + self.rank] = kind

    def _check_peers(self) -> None:
        errs = self._flags[self._err_off : self._err_off + self.nranks]
        if errs.any():
            failed = [
                r for r in range(self.nranks)
                if errs[r] and r != self.rank
            ]
            if failed:
                dead = [r for r in failed if int(errs[r]) == _ERR_DEAD]
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
        t0 = time.monotonic_ns() if self._ring is not None else 0
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
                            KIND_STALL, time.monotonic_ns(), 0,
                            seq=retries, site=site or self._site,
                            name=what,
                        )
                time.sleep(interval)
        finally:
            # recorded even when the wait dies (timeout / peer abort):
            # the stall is exactly what the merged trace must show
            if self._ring is not None:
                self._ring.append(
                    KIND_WAIT, t0, time.monotonic_ns() - t0,
                    seq=self._site_seq, site=site or self._site, name=what,
                )

    # -- observability ----------------------------------------------------

    def _trace(
        self, kind: int, t0: int, *, nbytes: int = 0, seq: int = 0,
        site: str = "", name: str = "",
    ) -> None:
        if self._ring is not None:
            self._ring.append(
                kind, t0, time.monotonic_ns() - t0,
                nbytes=nbytes, seq=seq, site=site, name=name,
            )

    def kernel_span(self, name: str):
        """Scope one generated-kernel call: maintains the current-op
        context (attached to worker errors) and, when tracing, records
        the call as a kernel span."""
        return _KernelSpan(self, name)

    def record_compile(
        self, name: str, seconds: float, status: str
    ) -> None:
        """Record a native kernel-cache outcome as an instant event.

        Called by :func:`repro.core.codegen.native.load_kernels` when
        the communicator is passed as its observer; Perfetto timelines
        then show cold-cache compile stalls (``compile:<key>``) next to
        the kernels they delayed. ``status`` is ``"compile"``, ``"hit"``
        or ``"recompile"``; ``dur`` carries the elapsed time so the
        merged metrics can aggregate per-rank compile seconds.
        """
        if self._ring is not None:
            self._ring.append(
                KIND_COMPILE,
                time.monotonic_ns(),
                int(seconds * 1e9),
                name=f"{status}:{name}",
            )

    def error_context(self) -> Dict[str, object]:
        """The structured where-was-I snapshot for failure reports."""
        return {
            "rank": self.rank,
            "op": self._op,
            "site": self._site,
            "seq": self._site_seq,
        }

    # -- slots -----------------------------------------------------------

    def _slot_bounds(self, key: str, rank: int) -> Tuple[int, int]:
        try:
            _, slot, offset = self.layout.sites[key]
        except KeyError:
            raise SpmdError(
                f"rank {self.rank}: no communication site {key!r}; the "
                f"launcher sized sites from the program — this op was "
                f"not part of it"
            ) from None
        base = offset + rank * slot
        return base, slot

    def _write_header(self, key: str, arr: np.ndarray) -> None:
        base, slot = self._slot_bounds(key, self.rank)
        if HEADER_BYTES + arr.nbytes > slot:
            raise SpmdError(
                f"rank {self.rank}: payload of {arr.nbytes} B exceeds the "
                f"{slot} B slot of site {key!r}"
            )
        if arr.ndim > 8:
            raise SpmdError(f"payloads are limited to 8 dims, got {arr.ndim}")
        header = np.ndarray((10,), dtype=np.int64, buffer=self._data.buf,
                            offset=base)
        header[0] = arr.nbytes
        header[1] = arr.ndim
        for i in range(8):
            header[2 + i] = arr.shape[i] if i < arr.ndim else 0
        dt = arr.dtype.str.encode("ascii")
        self._data.buf[base + 80 : base + 80 + len(dt)] = dt
        self._data.buf[base + 80 + len(dt)] = 0
        del header

    def _payload_view(
        self, key: str, rank: int, shape: Tuple[int, ...], dtype
    ) -> np.ndarray:
        """A writable ndarray view of a slot's payload region.

        Callers must drop the view before :meth:`close` (views pin the
        shared-memory buffer).
        """
        base, _ = self._slot_bounds(key, rank)
        return np.ndarray(
            shape, dtype=dtype, buffer=self._data.buf,
            offset=base + HEADER_BYTES,
        )

    def _read_payload(self, key: str, rank: int) -> np.ndarray:
        base, _ = self._slot_bounds(key, rank)
        header = np.ndarray((10,), dtype=np.int64, buffer=self._data.buf,
                            offset=base)
        ndim = int(header[1])
        shape = tuple(int(header[2 + i]) for i in range(ndim))
        del header
        raw = bytes(self._data.buf[base + 80 : base + 112])
        dtype = np.dtype(raw.split(b"\0", 1)[0].decode("ascii"))
        view = self._payload_view(key, rank, shape, dtype)
        out = view.copy()
        del view
        return out

    def _wire_sleep(self, nbytes: int) -> None:
        if self.wire_s_per_mb > 0.0 and nbytes > 0:
            factor = (
                self._faults.wire_factor if self._faults is not None else 1.0
            )
            time.sleep(self.wire_s_per_mb * factor * nbytes / (1 << 20))

    # -- fault injection --------------------------------------------------

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
                KIND_FAULT, time.monotonic_ns(), seq=seq, site=site,
                name=f"stall_publish {delay:g}s",
            )
            time.sleep(delay)
        if f.should_die(site):
            self._die(site, seq)

    def _die(self, site: str, seq: int) -> None:
        """Injected hard death: no error flag, no parent message.

        The fault marker is flushed to the ring first (the page cache
        keeps it through process exit), then the process vanishes —
        detection is entirely the parent's and the peers' problem,
        which is the point.
        """
        if self._ring is not None:
            self._ring.append(
                KIND_FAULT, time.monotonic_ns(), 0, seq=seq, site=site,
                name="die",
            )
            self._ring.close()
        os._exit(_DIE_EXIT_CODE)

    # -- rendezvous core --------------------------------------------------

    def _begin(self, key: str, participants: Sequence[int]) -> int:
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

    def _publish(self, key: str, seq: int, arr: np.ndarray) -> None:
        t0 = time.monotonic_ns() if self._ring is not None else 0
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            # (ascontiguousarray unconditionally would promote 0-d
            # scalars to shape (1,) and break the payload round-trip)
            arr = np.ascontiguousarray(arr)
        self._write_header(key, arr)
        view = self._payload_view(key, self.rank, arr.shape, arr.dtype)
        view[...] = arr
        del view
        self._wire_sleep(arr.nbytes)
        self._fault_publish(key, seq)
        self._set_ready(key, self.rank, seq * PROGRESS_BASE + 1)
        self._trace(
            KIND_PUBLISH, t0, nbytes=arr.nbytes, seq=seq, site=key,
            name=self._op or key,
        )

    def _collect(
        self, key: str, seq: int, ranks: Sequence[int]
    ) -> List[np.ndarray]:
        out = []
        want = seq * PROGRESS_BASE + 1
        for r in ranks:
            self._spin(
                lambda r=r: self._ready(key, r) >= want,
                f"rank {r}'s payload at site {key}",
                site=key,
            )
            out.append(self._read_payload(key, r))
        return out

    def _finish(self, key: str, seq: int) -> None:
        self._set_done(key, self.rank, seq)

    def _exchange_group(
        self, group: ProcessGroup, arr: np.ndarray
    ) -> List[np.ndarray]:
        """All-to-all-gather one payload per rank, in rank order."""
        key = _group_key(group)
        parts = tuple(group.ranks)
        seq = self._begin(key, parts)
        self._publish(key, seq, np.asarray(arr))
        rows = self._collect(key, seq, parts)
        self._finish(key, seq)
        return rows

    # -- collectives ------------------------------------------------------
    #
    # Each method mirrors the corresponding ``*_vectorized`` formula of
    # :mod:`repro.runtime.collectives` on a contiguous rank-major stack,
    # so results are bit-identical to the vectorized backend.

    def _reduced_total(self, x, group: ProcessGroup, op: str) -> np.ndarray:
        token = self._tokens.pop(_group_key(group), None)
        if token is not None:
            return self._token_reduce(token, op)
        rows = self._exchange_group(group, x)
        t0 = time.monotonic_ns() if self._ring is not None else 0
        total = _reduce_stack(np.stack(rows, axis=0), op)
        self._trace(
            KIND_REDUCE, t0, seq=self._site_seq, site=_group_key(group),
            name=self._op or op,
        )
        return total

    def allreduce(self, x, group: ProcessGroup, op: str, dtype) -> np.ndarray:
        """Every rank receives the reduction of all ranks' values."""
        return self._reduced_total(x, group, op).astype(dtype)

    def reducescatter(
        self, x, group: ProcessGroup, op: str, dim: int, dtype,
        context: str = "",
    ) -> np.ndarray:
        """This rank receives its slice of the reduction."""
        total = self._reduced_total(x, group, op).astype(dtype)
        i = group.local_rank(self.rank)
        return slice_of(total, dim, i, group.size, context=context).copy()

    def _gather_rows(self, x, group: ProcessGroup) -> List[np.ndarray]:
        token = self._tokens.pop(_group_key(group), None)
        if token is not None:
            return self._token_rows(token)
        return self._exchange_group(group, x)

    def allgather(self, x, group: ProcessGroup, dim: int) -> np.ndarray:
        """Concatenation of all ranks' slices, in rank order."""
        rows = self._gather_rows(x, group)
        return np.concatenate(rows, axis=dim)

    def alltoall(
        self, x, group: ProcessGroup, dim: int, context: str = ""
    ) -> np.ndarray:
        """This rank receives chunk ``i`` of every rank, in source order.

        Peers are drained in the pairwise step order of
        :func:`repro.nccl.algorithms.all_to_all_steps` (in step ``t``
        rank ``r`` receives from ``(r - t - 1) mod n``); the result is
        assembled in source-rank order, matching the reference. A
        pending chunk token on the group is consumed chunk-by-chunk
        like every other collective.
        """
        n = group.size
        i = group.local_rank(self.rank)
        token = self._tokens.pop(_group_key(group), None)
        if token is not None:
            rows = dict(enumerate(self._token_rows(token)))
        else:
            key = _group_key(group)
            parts = tuple(group.ranks)
            seq = self._begin(key, parts)
            self._publish(key, seq, np.asarray(x))
            rows = {}
            order = [i] + [(i - t - 1) % n for t in range(n - 1)]
            for j in order:
                rows[j] = self._collect(
                    key, seq, [group.global_rank(j)]
                )[0]
            self._finish(key, seq)
        parts_out = [
            slice_of(rows[s], dim, i, n, context=context) for s in range(n)
        ]
        return np.concatenate(parts_out, axis=dim)

    def alltoall_intra(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Intra-node phase of the hierarchical AllToAll (this rank)."""
        k, m = self._node_grid(group, node_size)
        n = group.size
        rows = self._gather_rows(x, group)
        local = group.local_rank(self.rank)
        a, q = divmod(local, m)
        parts = [
            slice_of(
                rows[a * m + p], dim, b * m + q, n, context=context
            )
            for b in range(k)
            for p in range(m)
        ]
        return np.concatenate(parts, axis=dim)

    def alltoall_inter(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Inter-node phase of the hierarchical AllToAll (this rank)."""
        k, m = self._node_grid(group, node_size)
        n = group.size
        rows = self._gather_rows(x, group)
        local = group.local_rank(self.rank)
        b, q = divmod(local, m)
        parts = [
            slice_of(
                rows[a * m + q], dim, b * m + p, n, context=context
            )
            for a in range(k)
            for p in range(m)
        ]
        return np.concatenate(parts, axis=dim)

    @staticmethod
    def _node_grid(group: ProcessGroup, node_size: int) -> Tuple[int, int]:
        n = group.size
        m = min(max(1, int(node_size)), n)
        if n % m != 0:
            raise ExecutionError(
                f"group size {n} is not divisible by node size {m}"
            )
        return n // m, m

    def reduce(
        self, x, group: ProcessGroup, op: str, root: int, dtype
    ) -> np.ndarray:
        """Root receives the reduction; non-roots keep their input
        (NCCL leaves non-root receive buffers unmodified).

        Only the root reads (and reduces) the published payloads; every
        rank still contributes one, and the sequence counters keep the
        rendezvous symmetric.
        """
        root_rank = group.global_rank(root)
        token = self._tokens.pop(_group_key(group), None)
        if token is not None:
            total = self._token_reduce(token, op)
            if self.rank == root_rank:
                return total.astype(dtype)
            return np.asarray(x).astype(dtype)
        key = _group_key(group)
        parts = tuple(group.ranks)
        seq = self._begin(key, parts)
        self._publish(key, seq, np.asarray(x))
        if self.rank == root_rank:
            rows = self._collect(key, seq, parts)
            out = _reduce_stack(np.stack(rows, axis=0), op).astype(dtype)
        else:
            out = np.asarray(x).astype(dtype)
        self._finish(key, seq)
        return out

    def broadcast(self, x, group: ProcessGroup, root: int) -> np.ndarray:
        """Every rank receives the root rank's value.

        Only the root publishes a payload — one wire transfer, not one
        per rank — while the sequence counters still rendezvous the
        whole group.
        """
        root_rank = group.global_rank(root)
        token = self._tokens.pop(_group_key(group), None)
        if token is not None:
            rows = self._token_rows(token)
            return rows[group.local_rank(root_rank)]
        key = _group_key(group)
        parts = tuple(group.ranks)
        seq = self._begin(key, parts)
        if self.rank == root_rank:
            self._publish(key, seq, np.asarray(x))
            out = np.array(x, copy=True)
        else:
            out = self._collect(key, seq, [root_rank])[0]
        self._finish(key, seq)
        return out

    def exchange_scalars(self, value, group: ProcessGroup) -> List[np.float64]:
        """Gather one float64 scalar per rank, in rank order (§5.2:
        the AllReduce of partial reductions)."""
        rows = self._exchange_group(
            group, np.asarray(value, dtype=np.float64)
        )
        return [np.float64(r) for r in rows]

    def barrier(self, group: Optional[ProcessGroup] = None) -> None:
        if group is None:
            group = ProcessGroup(0, self.nranks, self.nranks)
        self._exchange_group(group, np.zeros((1,), dtype=np.int64))

    # -- P2P --------------------------------------------------------------

    def send(self, x, dst: int) -> None:
        """Send this rank's value to global rank ``dst``."""
        key = _p2p_key(self.rank, dst)
        seq = self._begin(key, (self.rank, dst))
        self._publish(key, seq, np.asarray(x))
        self._finish(key, seq)

    def recv(self, src: int) -> np.ndarray:
        """Receive the value global rank ``src`` sent to this rank."""
        key = _p2p_key(src, self.rank)
        seq = self._begin(key, (src, self.rank))
        out = self._collect(key, seq, [src])[0]
        self._finish(key, seq)
        return out

    # -- chunked ring publication (overlap, §5.3) -------------------------

    def begin_chunked(
        self,
        group: ProcessGroup,
        staging: np.ndarray,
        chunk_dim: int,
        bounds: Sequence[Tuple[int, int]],
    ) -> _ChunkToken:
        """Open a chunked publication of ``staging`` on the group site.

        The next collective this rank issues on ``group`` consumes the
        token chunk-by-chunk instead of exchanging whole buffers.

        Chunks are released in *index order* on every rank. The real
        backend's ring collective consumes rank-rotated chunks (rank
        ``i`` starts at chunk ``i``, Figure 9) because the reduction
        travels around the ring; this communicator's collectives reduce
        in rank order (the bitwise contract with the lowered oracle), so
        chunk ``c`` is complete once every rank published its ``c``-th
        release — under rotation that only happens at the final step for
        *every* chunk, which would serialize the pipeline, while index
        order completes chunk ``c`` at step ``c`` and genuinely overlaps
        the consumer's reduction with the remaining chunks' wire time.
        """
        key = _group_key(group)
        parts = tuple(group.ranks)
        seq = self._begin(key, parts)
        staging = np.asarray(staging)
        if not staging.flags["C_CONTIGUOUS"]:
            staging = np.ascontiguousarray(staging)
        self._write_header(key, staging)
        token = _ChunkToken(key, group, seq, staging, chunk_dim, bounds)
        self._tokens[key] = token
        return token

    def publish_chunks(
        self, token: _ChunkToken, out: Optional[np.ndarray] = None
    ) -> None:
        """Release the staged chunks, one wire transfer per chunk.

        ``out``, when given, receives each chunk as it is published —
        the consumer-visible buffer of the lowered ``publish`` mode.
        """
        staging = token.staging
        bounds = token.bounds
        view = self._payload_view(
            token.key, self.rank, staging.shape, staging.dtype
        )
        # an injected drop_chunk withholds the ready bump: the payload
        # is written, but visibility is redelivered later (with the next
        # chunk's bump, or after the drop's redeliver delay for the last
        # chunk) — consumers soft-retry through the gap
        redeliver: Optional[float] = None
        try:
            for c in range(len(bounds)):
                t0 = time.monotonic_ns() if self._ring is not None else 0
                lo, hi = bounds[c]
                sl = [slice(None)] * staging.ndim
                sl[token.chunk_dim] = slice(lo, hi)
                sl = tuple(sl)
                view[sl] = staging[sl]
                if out is not None:
                    out[sl] = staging[sl]
                nbytes = staging[sl].nbytes
                self._wire_sleep(nbytes)
                self._fault_publish(token.key, c)
                if self._faults is not None:
                    drop = self._faults.drop(token.key, c)
                    if drop is not None:
                        self._trace(
                            KIND_FAULT, time.monotonic_ns(), seq=c,
                            site=token.key, name=f"drop_chunk {c}",
                        )
                        redeliver = drop.redeliver
                        continue
                if redeliver is not None:
                    time.sleep(redeliver)
                    self._trace(
                        KIND_FAULT, time.monotonic_ns(), seq=c,
                        site=token.key, name="redeliver",
                    )
                    redeliver = None
                self._set_ready(
                    token.key, self.rank,
                    token.seq * PROGRESS_BASE + c + 1,
                )
                self._trace(
                    KIND_PUBLISH, t0, nbytes=nbytes, seq=c, site=token.key,
                    name=f"chunk{c}",
                )
            if redeliver is not None:
                # the dropped chunk was the last one: redeliver it
                time.sleep(redeliver)
                self._trace(
                    KIND_FAULT, time.monotonic_ns(),
                    seq=len(bounds) - 1, site=token.key, name="redeliver",
                )
                self._set_ready(
                    token.key, self.rank,
                    token.seq * PROGRESS_BASE + len(bounds),
                )
        finally:
            del view

    def _chunk_wait(self, token: _ChunkToken, local: int, c: int) -> None:
        """Wait until group-local rank ``local`` published chunk ``c``."""
        want = token.seq * PROGRESS_BASE + c + 1
        r = token.group.global_rank(local)
        self._spin(
            lambda: self._ready(token.key, r) >= want,
            f"chunk {c} from rank {r} at site {token.key}",
            site=token.key,
        )

    def _token_reduce(self, token: _ChunkToken, op: str) -> np.ndarray:
        """Chunk-wise rank-order reduction of a chunked publication.

        Reductions over the rank axis are element-wise in the data
        dimensions, so accumulating chunk ``c`` as soon as every rank
        published it is bit-identical to reducing the whole stack —
        while genuinely overlapping the reduce with the remaining
        chunks' wire time.
        """
        group = token.group
        n = group.size
        shape, dtype = token.staging.shape, token.staging.dtype
        total = np.empty(shape, dtype=np.float64)
        t_all = time.monotonic_ns() if self._ring is not None else 0
        views = [
            self._payload_view(token.key, r, shape, dtype)
            for r in group.ranks
        ]
        try:
            for c in range(len(token.bounds)):
                lo, hi = token.bounds[c]
                sl = [slice(None)] * len(shape)
                sl[token.chunk_dim] = slice(lo, hi)
                sl = tuple(sl)
                rows = []
                for j in range(n):
                    self._chunk_wait(token, j, c)
                    rows.append(np.ascontiguousarray(views[j][sl]))
                total[sl] = _reduce_stack(np.stack(rows, axis=0), op)
        finally:
            del views
        self._finish(token.key, token.seq)
        self._trace(
            KIND_REDUCE, t_all, seq=token.seq, site=token.key,
            name=self._op or op,
        )
        return total

    def _token_rows(self, token: _ChunkToken) -> List[np.ndarray]:
        """Assemble every rank's full chunked publication."""
        group = token.group
        shape, dtype = token.staging.shape, token.staging.dtype
        rows = [np.empty(shape, dtype=dtype) for _ in range(group.size)]
        views = [
            self._payload_view(token.key, r, shape, dtype)
            for r in group.ranks
        ]
        try:
            for c in range(len(token.bounds)):
                lo, hi = token.bounds[c]
                sl = [slice(None)] * len(shape)
                sl[token.chunk_dim] = slice(lo, hi)
                sl = tuple(sl)
                for j in range(group.size):
                    self._chunk_wait(token, j, c)
                    rows[j][sl] = views[j][sl]
        finally:
            del views
        self._finish(token.key, token.seq)
        return rows

    # -- streams ----------------------------------------------------------

    def start_stream(self, fn) -> "_Stream":
        """Run ``fn`` on a worker thread — one per GPU stream, giving
        overlap groups actual intra-rank concurrency."""
        s = _Stream(fn, self)
        self._streams.append(s)
        return s

    def join_streams(self, *streams: "_Stream") -> None:
        for s in streams:
            s.join()

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # every started stream must be joined by now (the generated
        # orchestrators join in a finally); any thread still alive gets
        # a short grace join and is tagged in the trace — a leaked
        # producer is a teardown bug the post-mortem must show
        for s in self._streams:
            if s.alive():
                s.wait(1.0)
                if s.alive() and self._ring is not None:
                    self._ring.append(
                        KIND_FAULT, time.monotonic_ns(), 0,
                        name="stream-leak",
                    )
        self._streams = []
        self._flags = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        for shm in (self._data, self._flags_shm):
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass


class _KernelSpan:
    """Context manager scoping one generated-kernel call.

    Maintains the communicator's current-op name (nested in the
    overlap case: a producer stream publishes while the consumer kernel
    runs) and records the call as a kernel span when tracing.
    """

    def __init__(self, comm: SpmdCommunicator, name: str) -> None:
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
            self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        comm = self._comm
        faults = comm._faults
        if (
            faults is not None
            and faults.kernel_factor > 1.0
            and self._t0
            and exc_type is None
        ):
            # straggler: stretch the kernel's elapsed time by the factor
            elapsed = (time.monotonic_ns() - self._t0) / 1e9
            time.sleep(elapsed * (faults.kernel_factor - 1.0))
        comm._trace(
            KIND_KERNEL, self._t0, seq=comm._site_seq, site=comm._site,
            name=self._name,
        )
        if exc_type is None:
            comm._op = self._prev
        # on failure the op name is left in place so error_context()
        # reports the kernel that raised


class _Stream(object):
    """A worker thread standing in for one GPU stream."""

    def __init__(self, fn, comm: SpmdCommunicator) -> None:
        self._exc: Optional[BaseException] = None
        self._comm = comm

        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised at join
                self._exc = exc
                comm.signal_error(_ERR_FAILED)

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def alive(self) -> bool:
        return self._thread.is_alive()

    def wait(self, timeout: float) -> None:
        """Join without re-raising (teardown-side best effort)."""
        self._thread.join(timeout)

    def join(self) -> None:
        self._thread.join(self._comm.timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise SpmdTimeout("stream thread did not finish")
        if self._exc is not None:
            raise self._exc


# ---------------------------------------------------------------------------
# Worker entry point (must be importable for the spawn context).
# ---------------------------------------------------------------------------


def _module_source(spec) -> str:
    """Resolve a worker module spec to executable source.

    ``spec`` is either raw generated source (a plain string — the
    historical path, still used when a caller hands ``launch`` an
    explicit module) or ``("artifact", text, protocol[, target[,
    toolchain]])``: a serialized :mod:`repro.core.artifact` document
    from which this rank derives its module by deserializing the
    portable IR and running the code generator locally — the worker
    never needs the originating Python objects, only the artifact text.
    The optional fourth element selects the codegen target (``"spmd"``
    when absent — specs shipped by older callers stay valid);
    ``"native"`` workers rebuild the same C source as the parent and
    resolve it through the shared content-addressed kernel cache, so at
    most one rank per machine actually compiles. The optional fifth is
    the launcher's :func:`repro.core.codegen.native.toolchain_record`,
    which primes this rank's toolchain memos so loading the kernels
    forks no ``cc --version`` or ``find_library`` probe.
    """
    if isinstance(spec, str):
        return spec
    kind = spec[0]
    if kind == "artifact":
        from repro.core import artifact as artifact_mod
        from repro.core.codegen import CodeGenerator

        if len(spec) > 4:
            from repro.core.codegen import native

            native.prime(spec[4])
        target = spec[3] if len(spec) > 3 else "spmd"
        art = artifact_mod.loads(spec[1])
        # hand the artifact itself to generate(): the native target
        # memoizes rendered modules by the artifact's content hash
        gen = CodeGenerator(spec[2], target=target).generate(art)
        return gen.source
    raise ExecutionError(f"unknown SPMD module spec kind {kind!r}")


def _send_message(conn, obj) -> None:
    """Send ``obj`` over a pipe with its arrays pickled out of band.

    Each array goes over the pipe straight from its own memory, so the
    sender holds no pickled copy of a shard or an output while it
    sends; the receiver reads it into the buffer its array then wraps.
    """
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    conn.send([b.raw().nbytes for b in buffers])
    conn.send_bytes(head)
    for b in buffers:
        conn.send_bytes(b.raw())


def _recv_message(conn):
    """Receive one object sent by :func:`_send_message`."""
    sizes = conn.recv()
    head = conn.recv_bytes()
    buffers = []
    for nbytes in sizes:
        buf = bytearray(nbytes)  # writable, so are the arrays over it
        conn.recv_bytes_into(buf)
        buffers.append(buf)
    return pickle.loads(head, buffers=buffers)


def _rank_main(
    rank: int,
    layout: SpmdLayout,
    data_name: str,
    flags_name: str,
    wire_s_per_mb: float,
    timeout: float,
    soft_timeout: Optional[float],
    fault_plan: Optional[FaultPlan],
    trace_path: Optional[str],
    conn,
) -> None:
    comm = None
    try:
        # the module spec and this rank's input shard arrive over the
        # pipe once every rank has started (see launch)
        source, inputs = _recv_message(conn)
        comm = SpmdCommunicator.attach(
            layout, rank, data_name, flags_name, wire_s_per_mb, timeout,
            trace_path=trace_path, soft_timeout=soft_timeout,
            faults=fault_plan,
        )
        namespace: Dict[str, object] = {}
        exec(
            compile(_module_source(source), f"<spmd rank {rank}>", "exec"),
            namespace,
        )
        ensure = namespace.get("_ensure_native")
        if ensure is not None:
            # compile/load native kernels before the timing barrier so
            # the one-time cc invocation and dlopen+BLAS bind count as
            # startup (like spawn), not as execution time
            ensure(comm)
        # synchronize before timing so spawn stagger (rank 0 idling in
        # its first collective until the last process is up) does not
        # count as execution time
        comm.barrier()
        t0 = time.perf_counter()
        outputs, states = namespace["run_rank"](comm, inputs)
        elapsed = time.perf_counter() - t0
        _send_message(conn, ("ok", outputs, states, elapsed))
    except SpmdPeerAbort as exc:
        _send_message(conn, ("aborted", str(exc)))
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
        _send_message(
            conn, ("error", summary, traceback.format_exc(), context)
        )
    finally:
        if comm is not None:
            comm.close()
        conn.close()
    # reported, segments and ring closed: exit without interpreter
    # teardown (finalizing every imported module takes longer than the
    # rank body of a small step), as multiprocessing's fork children do
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


# ---------------------------------------------------------------------------
# Parent-side launcher.
# ---------------------------------------------------------------------------


def _place_per_rank(
    program, inputs: Mapping[str, np.ndarray], allow_downcast
) -> List[Dict[str, np.ndarray]]:
    """Cut the placed global inputs into one writable shard dict per rank.

    A replicated tensor is copied once and every rank's shard is that
    one writable array: a row of its stride-0 stack would pickle as a
    read-only buffer and reach the rank read-only. A sliced or local
    tensor's rows are copied one per rank.
    """
    placed = place_inputs(program, inputs, allow_downcast)
    shards: List[Dict[str, np.ndarray]] = [
        {} for _ in range(program.inputs[0].group.world_size)
    ]
    for t in program.inputs:
        stacked = placed[t.name]
        if rank_invariant(stacked):
            rows = [np.array(stacked[0])] * t.group.size
        else:
            rows = [row.copy() for row in stacked]
        for r, row in zip(t.group, rows):
            shards[r][t.name] = row
    return shards


def _send_payload(conn, payload, errors: List[Exception]) -> None:
    try:
        _send_message(conn, payload)
    except OSError:
        # the rank died before reading: the launch loop finds it dead
        # from its process sentinel
        pass
    except Exception as exc:  # noqa: BLE001 - reported by launch
        errors.append(exc)


def _ship_inputs(
    conns: Sequence, payloads: Sequence, errors: List[Exception]
) -> List[threading.Thread]:
    """Send every rank its ``(module spec, input shard)``; the senders.

    One thread per rank: a send larger than the pipe buffer blocks
    until its rank has imported enough to read it, so the ranks receive
    side by side, and a rank that never reads cannot hold the launch
    loop past its deadline. A failure other than a broken pipe lands in
    ``errors`` for the launch loop to report.
    """
    senders = [
        threading.Thread(
            target=_send_payload, args=(conn, payload, errors), daemon=True
        )
        for conn, payload in zip(conns, payloads)
    ]
    for t in senders:
        t.start()
    return senders


#: :func:`_rank_report`'s verdict on a rank that exited without reporting
_DIED = ("died",)


def _rank_report(conn, proc):
    """One look at a running rank: its report, :data:`_DIED` or None.

    Liveness is sampled *before* the pipe is polled. A rank that sends
    its report and exits between the two checks then still has the
    report waiting in the pipe; polling first would find the pipe empty
    and the process gone, and misread a clean exit as a silent death.
    """
    alive = proc.is_alive()
    if conn.poll(0):
        try:
            return _recv_message(conn)
        except (EOFError, OSError):
            return _DIED
    return None if alive else _DIED


def launch(
    source: Optional[str],
    program,
    inputs: Mapping[str, np.ndarray],
    *,
    nranks: Optional[int] = None,
    allow_downcast: Optional[bool] = None,
    wire_s_per_mb: float = 0.0,
    timeout: Optional[float] = None,
    soft_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace_dir: Optional[str] = None,
    trace_capacity: int = 32768,
    artifact_text: Optional[str] = None,
    protocol: str = "Simple",
    codegen_target: str = "spmd",
    compile_allowance_s: float = 0.0,
):
    """Run a generated SPMD module as one process per rank.

    Spawns ``world_size`` processes, scatters the placed inputs, executes
    ``run_rank`` on every rank over a shared-memory communicator, gathers
    per-rank outputs/states and reassembles them into a
    :class:`~repro.runtime.executor.ProgramResult`. Teardown is
    exception-safe: workers are joined (terminated on timeout) and both
    shared-memory segments are closed and unlinked in a ``finally`` even
    when a rank raises mid-collective.

    Start-up order: every rank process is started first; then one
    sender thread per rank ships it its module spec and input shard,
    while this thread already watches for reports and deaths (a send
    waits for its rank to finish importing, and must not hold up the
    deadline). The native target's spec carries
    :func:`repro.core.codegen.native.toolchain_record`, so ranks fork
    no toolchain probe. A rank exits with ``os._exit(0)`` right after
    reporting and closing its segments.

    ``timeout`` bounds every rendezvous wait (default:
    :func:`scaled_default_timeout`, so slow simulated wires stretch the
    deadline instead of false-timing-out); ``soft_timeout`` is the
    escalation (soft-retry) deadline inside each wait. ``fault_plan``
    injects the given :class:`~repro.runtime.faults.FaultPlan` into
    every rank. The parent watches worker *process sentinels* alongside
    their result pipes: a rank that dies without reporting (killed, an
    injected ``die``, OOM) is detected promptly, its error flag is
    broadcast on its behalf so surviving ranks abort their in-flight
    collectives with :class:`SpmdPeerAbort` rather than spinning to
    their own timeouts, and the failure is raised as a
    :class:`SpmdWorkerError` with ``dead_ranks`` populated — the
    elastic-recovery trigger.

    ``trace_dir``, when given, receives one pre-created
    ``rank<N>.ring`` trace file per rank (see
    :mod:`repro.observe.ring`); every rank records its
    publish/wait/reduce/kernel spans there. The files are ordinary
    mapped files owned by the caller — they survive faulty-rank
    teardown and are *not* removed here, so the caller can merge them
    whether or not the run succeeded.

    ``artifact_text``, when given, is a serialized
    :mod:`repro.core.artifact` document: it is what ships to the rank
    processes (each worker deserializes the portable IR and derives its
    module with the code generator at the given ``protocol``), and
    ``source`` may then be ``None``. When ``program`` is also ``None``
    it is reconstructed from the artifact, so a saved artifact file is
    sufficient to launch a full SPMD run. Without ``artifact_text``,
    ``source`` must be the generated module source (the historical
    path).

    ``codegen_target`` selects which module flavour artifact-carrying
    workers derive (``"spmd"`` or ``"native"``);
    ``compile_allowance_s`` widens the rendezvous deadline once for a
    cold native kernel cache (see :func:`scaled_default_timeout`).
    """
    from repro.runtime.executor import ProgramResult

    if artifact_text is not None:
        module_spec = ("artifact", artifact_text, protocol, codegen_target)
        if program is None:
            from repro.core import artifact as artifact_mod

            program = artifact_mod.loads(artifact_text).program
    elif source is None:
        raise ExecutionError(
            "launch needs generated module source or artifact_text"
        )
    else:
        module_spec = source

    world_size = program.inputs[0].group.world_size
    if nranks is not None and nranks != world_size:
        raise ExecutionError(
            f"program was built for {world_size} ranks; cannot launch "
            f"{nranks} SPMD processes — rebuild the workload with "
            f"world_size={nranks}"
        )
    shards = _place_per_rank(program, inputs, allow_downcast)
    layout = build_layout(program)
    timeout = (
        scaled_default_timeout(layout, wire_s_per_mb, compile_allowance_s)
        if timeout is None
        else float(timeout) + max(0.0, compile_allowance_s)
    )

    trace_paths: List[Optional[str]] = [None] * world_size
    if trace_dir is not None:
        import os

        for r in range(world_size):
            path = os.path.join(trace_dir, f"rank{r}.ring")
            TraceRing.create(path, trace_capacity).close()
            trace_paths[r] = path

    uid = uuid.uuid4().hex[:8]
    data_name = f"spmd_{uid}_d"
    flags_name = f"spmd_{uid}_f"
    data = flags = None
    flags_arr: Optional[np.ndarray] = None
    procs: List = []
    conns: List = []
    senders: List[threading.Thread] = []
    ship_errors: List[Exception] = []
    dead_ranks: List[int] = []
    # root-cause classification: a dead process (4) outranks a raised
    # error (3) outranks a silent timeout (2) outranks a peer abort (1)
    # — survivors' aborts are symptoms, never the reported cause
    fail = {"sev": 0, "msg": None, "detail": "", "context": None}

    def _record_failure(
        sev: int, msg: str, det: str = "", ctx: Optional[dict] = None
    ) -> None:
        if sev > fail["sev"]:
            fail.update(sev=sev, msg=msg, detail=det, context=ctx)

    results: Dict[int, Tuple[Dict, Dict]] = {}
    err_off = layout.num_sites * world_size * 2
    try:
        data = SharedMemory(
            create=True, size=layout.data_size, name=data_name
        )
        flags = SharedMemory(
            create=True, size=layout.flags_length() * 8, name=flags_name
        )
        flags_arr = np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=flags.buf
        )
        flags_arr.fill(0)

        def _mark_dead(r: int) -> None:
            dead_ranks.append(r)
            code = procs[r].exitcode
            _record_failure(
                4,
                f"rank {r} died without reporting (exit code {code})",
                ctx={"rank": r, "op": "", "site": "", "seq": 0,
                     "dead": True},
            )
            # broadcast on the corpse's behalf: peers blocked on its
            # payloads abort promptly instead of spinning to timeout
            flags_arr[err_off + r] = _ERR_DEAD

        # start every rank before shipping any input: start() writes
        # the Process args into the child's pipe, and args larger than
        # the pipe buffer block it until that rank has imported numpy
        # and repro, so the ranks would start one after another
        ctx_mp = get_context("spawn")
        for r in range(world_size):
            parent_conn, child_conn = ctx_mp.Pipe()
            p = ctx_mp.Process(
                target=_rank_main,
                args=(
                    r, layout, data_name, flags_name, wire_s_per_mb,
                    timeout, soft_timeout, fault_plan, trace_paths[r],
                    child_conn,
                ),
                name=f"spmd-rank{r}",
                daemon=True,
            )
            p.start()
            child_conn.close()
            procs.append(p)
            conns.append(parent_conn)

        if codegen_target == "native" and not isinstance(module_spec, str):
            from repro.core.codegen import native

            module_spec += (native.toolchain_record(),)
        senders = _ship_inputs(
            conns, [(module_spec, s) for s in shards], ship_errors
        )
        # each sender drops its shard once sent: the copies need not
        # stay resident while the ranks run
        shards = None

        deadline = time.monotonic() + timeout + 60.0
        pending: Dict[int, object] = dict(enumerate(conns))
        while pending:
            remaining = deadline - time.monotonic()
            if ship_errors:
                exc = ship_errors[0]
                _record_failure(
                    3, f"could not ship inputs: {type(exc).__name__}: {exc}"
                )
                break
            if remaining <= 0.0:
                for r in sorted(pending):
                    _record_failure(
                        2, f"rank {r} did not report within {timeout:.0f}s"
                    )
                break
            # wait on result pipes AND process sentinels: a report
            # wakes us, and so does a silent death
            waitables = list(pending.values()) + [
                procs[r].sentinel for r in pending
            ]
            _mp_connection.wait(waitables, timeout=min(remaining, 1.0))
            for r in sorted(pending):
                msg = _rank_report(pending[r], procs[r])
                if msg is None:
                    continue
                del pending[r]
                if msg is _DIED:
                    _mark_dead(r)
                elif msg[0] == "ok":
                    results[r] = (msg[1], msg[2], msg[3])
                elif msg[0] == "error":
                    _record_failure(
                        3, msg[1], msg[2], msg[3] if len(msg) > 3 else None,
                    )
                else:  # aborted by a peer's failure
                    _record_failure(1, msg[1])
    finally:
        flags_arr = None  # drop the view before closing the segment
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():  # pragma: no cover - hung worker
                p.terminate()
                p.join(timeout=5.0)
        for t in senders:
            # the ranks have exited or been terminated, so a send still
            # blocked on one of them fails with a broken pipe
            t.join(timeout=5.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for shm in (data, flags):
            if shm is not None:
                try:
                    shm.close()
                finally:
                    try:
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
    if fail["msg"] is not None:
        detail = fail["detail"]
        raise SpmdWorkerError(
            f"SPMD run failed: {fail['msg']}"
            + (f"\n{detail}" if detail else ""),
            context=fail["context"],
            dead_ranks=dead_ranks,
        )

    outputs = {
        o.name: assemble_rows(
            [results[r][0][o.name] for r in o.group], o.layout, o.shape
        )
        for o in program.outputs
    }
    states = {
        t.name: assemble_rows(
            [results[r][1][t.name] for r in t.group], t.layout, t.shape
        )
        for t in program.inputs
        if isinstance(t, Tensor)
    }
    result = ProgramResult(outputs, states)
    # per-rank wall-clock of the rank bodies (barrier-synchronized, so
    # process spawn time is excluded); the slowest rank is the step time
    result.spmd_rank_seconds = {r: results[r][2] for r in results}
    result.spmd_seconds = max(results[r][2] for r in results)
    return result


# ---------------------------------------------------------------------------
# Persistent worker pool: direct collective calls for the property tests.
# ---------------------------------------------------------------------------


def _pool_worker(
    rank: int,
    layout: SpmdLayout,
    data_name: str,
    flags_name: str,
    timeout: float,
    conn,
) -> None:
    comm = None
    try:
        comm = SpmdCommunicator.attach(
            layout, rank, data_name, flags_name, 0.0, timeout
        )
        while True:
            cmd = conn.recv()
            if cmd[0] == "stop":
                break
            _, method, args, kwargs = cmd
            try:
                result = getattr(comm, method)(*args, **kwargs)
                conn.send(("ok", result))
            except SpmdPeerAbort:  # pragma: no cover - raced abort
                conn.send(("error", "aborted by peer"))
            except Exception as exc:
                comm.signal_error(_ERR_FAILED)
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                # collective state is poisoned; peers saw the error flag
                break
    finally:
        if comm is not None:
            comm.close()
        conn.close()


class CollectivePool:
    """``nranks`` persistent worker processes for direct collective calls.

    Used by the property tests to drive thousands of communicator
    collectives without paying a process spawn per example. ``call``
    broadcasts one method invocation to every worker (each receives its
    own row of the stacked input) and returns the per-rank results in
    rank order.
    """

    def __init__(
        self,
        nranks: int,
        slot_bytes: int = 1 << 20,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.nranks = nranks
        self.timeout = float(timeout)
        layout = SpmdLayout(nranks)
        layout.add_site(
            _group_key(ProcessGroup(0, nranks, nranks)),
            range(nranks),
            slot_bytes,
        )
        layout.freeze()
        self.layout = layout
        uid = uuid.uuid4().hex[:8]
        self._data = SharedMemory(
            create=True, size=layout.data_size,
            name=f"spmdpool_{uid}_d",
        )
        self._flags = SharedMemory(
            create=True, size=layout.flags_length() * 8,
            name=f"spmdpool_{uid}_f",
        )
        np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=self._flags.buf
        ).fill(0)
        ctx = get_context("spawn")
        self._procs = []
        self._conns = []
        for r in range(nranks):
            parent_conn, child_conn = ctx.Pipe()
            p = ctx.Process(
                target=_pool_worker,
                args=(
                    r, layout, self._data.name, self._flags.name,
                    timeout, child_conn,
                ),
                daemon=True,
            )
            p.start()
            child_conn.close()
            self._procs.append(p)
            self._conns.append(parent_conn)

    def call(
        self, method: str, per_rank_args: Sequence[tuple],
        kwargs: Optional[dict] = None,
    ) -> List[np.ndarray]:
        """Invoke ``method`` on every worker; per-rank positional args."""
        kwargs = kwargs or {}
        for conn, args in zip(self._conns, per_rank_args):
            conn.send(("call", method, args, kwargs))
        out = []
        errors = []
        for r, conn in enumerate(self._conns):
            if not conn.poll(self.timeout):
                errors.append(f"rank {r}: no reply")
                continue
            status, payload = conn.recv()
            if status == "ok":
                out.append(payload)
            else:
                errors.append(f"rank {r}: {payload}")
        if errors:
            raise SpmdError("; ".join(errors))
        return out

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover
                p.terminate()
                p.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for shm in (self._data, self._flags):
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
