"""Real SPMD execution: one OS process per rank over shared memory.

The in-process interpreter (``Executor.run_lowered``) executes all
ranks inside one Python process, so "communication" is a library
call over arrays it already owns. This module is the first tier where a
generated program runs as *real concurrent processes*:
:meth:`RankPool.launch` runs one Python interpreter per rank, each
process executes the same generated SPMD module (``CodeGenerator`` with
``target="spmd"``), and ranks rendezvous through a
:class:`SpmdCommunicator` over two anonymous shared-memory files
(``memfd_create``) that every rank maps.

Transport protocol
------------------

One shared data segment carries everything a launch moves, plus an
``int64`` flags segment; :class:`SpmdLayout` lays both out. The data
segment holds:

* one *slot* per (communication site, rank). A site is a process group
  (key ``g<start>x<size>``) or a point-to-point pair (``p<src>><dst>``);
* one *region* per (input, rank holding it) and per (output, rank
  returning it): a rank's private array, so an in-place update on one
  rank is never seen by another.

A slot holds the payload only, with no header: every reader already
knows the payload's shape and dtype from its own operand (``recv``,
whose rank has no operand, gets both from the generated module, which
reads them off the ``Send``). Each (site, rank) pair has a *ready* and a
*done* sequence counter in the flags segment.

Every operation on a site is one *publication*: a payload released as a
list of chunks. A collective's own operand is one chunk, ``(...,)``; a
§5.3 chunked publication has one chunk per lowering chunk. The same
three steps serve both:

* release: write chunk ``c``, then store ``ready = seq * 2^20 + c + 1``;
* consume: spin until a peer's ready counter covers chunk ``c``, then
  copy the chunk out or fold it into the reduction;
* finish: once this rank's own chunks are all released, store
  ``done = seq``. A publisher may only reuse its slot for
  ``seq`` once every participant's ``done`` reached ``seq - 1``.

Because the program is SPMD, every member of a group issues that
group's operations in the same order, so the per-site sequence numbers
advance in lockstep and the tiny protocol above is a full rendezvous.

The publish-then-flag ordering relies on total-store-order visibility
between the payload write and the flag store (plus the fences CPython
itself executes between the two numpy calls). That holds on x86-64 —
every environment this repository's CI runs — but is not guaranteed by
weakly-ordered ISAs; a port to ARM should add an explicit store fence
between the two stores.

Numerics
--------

Reductions fold the participants' slots in rank order straight into
one float64 buffer with the *same* formula as
:mod:`repro.runtime.collectives`
(:func:`~repro.runtime.collectives.fold_ranks`), so every collective
is bit-identical to its vectorized counterpart — the property the
``run_spmd`` ≡ ``run_lowered`` acceptance tests rely on. A
ReduceScatter folds only this rank's shard, and an AllGather copies
each slot once into its place in the result. The pairwise AllToAll
drains peers in the step order of
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

Every launch runs on a :class:`RankPool` (an ``Executor`` owns one
for its lifetime). A launch pays an interpreter start per new rank, so
it keeps everything else off that path, and no array crosses a socket:

1. The pool's first launch creates the data and flags segments with
   ``os.memfd_create``: nothing is named in ``/dev/shm``, so nothing
   outlives the last process holding them, even a killed parent. The
   pool holds them across launches: a later launch zeroes the flags
   segment and keeps the data segment's pages, resizing it only when
   its layout's size differs. It starts every rank as ``python -S -c``
   (:data:`_RANK_ENTRY`), which inherits both segments and its end of
   a ``socket.socketpair`` as fds. The rank's ``PYTHONPATH`` is the
   parent's resolved ``sys.path``, so it finds every module where the
   parent did, and ``-S`` skips ``site``, ``.pth`` files and user site.
   A rank imports only this module, what it imports and the generated
   module's own imports: numpy and a few ``repro`` modules, never the
   caller's ``__main__``, the lowering or the compiler side. A launch
   first adopts the pool's idle ranks (elastic recovery), which already
   hold both fds at the same numbers; it starts fresh ranks only for
   the rest. With an ``observer``, the flags segment also holds one
   trace ring per rank after the flags (:meth:`SpmdLayout.ring_offset`),
   zeroed with them.
2. While the ranks import, the parent casts every input straight into
   the region of each rank that holds it (the checks and downcast
   policy of :func:`repro.runtime.world.place_inputs`) and unmaps the
   segment, so its resident set does not count those pages a second
   time. It first populates the mapping (``MADV_POPULATE_WRITE``) in
   one call rather than a fault per page. On a kept segment those
   pages already exist: the cast writes into them, and neither
   allocates nor zeroes a page. Stale bytes from an earlier launch are
   never read: every byte a launch reads was written by it first
   (inputs are placed here, and a rank writes a slot or result before
   its flag or report says so), and the parent reads only the regions
   of the ranks that write them. On the native target it then resolves
   the module's C kernels
   (:func:`repro.core.codegen.native.load_kernels`): on a cold cache
   that is the one compile, still overlapping the ranks' imports, and
   made before any rendezvous deadline starts.
3. The parent sends each rank one pickled spec: layout, deadlines,
   fault plan, whether to trace, the generated module's ``source``
   and, on the native target, the kernel object's ``(key, path,
   functions)``.
   A spec is a few KB, well inside a socket's send buffer, so the send
   does not wait for the rank.
4. Each rank ``exec``s that source (no rank loads an artifact, runs the
   code generator or compiles), opens the kernel object
   (:func:`repro.core.codegen.device.open_kernels`), binds its tensors
   to writable views of its own regions and runs in place: the
   generated module stores updated tensor states and gathered
   writebacks straight into their regions (on the native target, the
   compiled loop writes an ``Update`` there itself), and copies only
   the inputs it updates. The rank copies every other result the
   parent will read into its region (a replicated result from the
   group's first rank only), closes its segments, sends one pickled
   report, ``("ok", seconds)``, and leaves with ``os._exit(0)``,
   skipping interpreter teardown. Ranks are one-shot; the one
   exception is a clean survivor (see "Failure handling").
5. The parent maps the segment again and copies each result out in one
   pass, so no returned array aliases the segment, which the next
   launch overwrites. The teardown merges the trace rings into the
   ``observer``, after a failed launch too: the parent still holds the
   flags segment a dead rank wrote its ring into. Ranks stamp records
   with ``time.perf_counter_ns()``, the tracer's clock, so each event
   lands on the tracer's timeline where it ran.

Failure handling
----------------

A rank that raises stores a failure marker in the flags segment; every
spin loop polls the marker, so peers blocked mid-collective abort
promptly instead of deadlocking the rendezvous. A rank is dead when its
socket reaches EOF (or a reset, if it exited with its spec unread)
before a whole report arrived: only the rank holds its end, so EOF
means the process is gone, whether it was killed, died of an injected
fault or never got as far as reading its spec. The
parent then stores the failure marker on the rank's behalf, and takes
its exit code from ``Popen.wait``. Teardown runs in a ``finally``: it
closes the parent's socket ends, so a rank still waiting for its spec
(a launch that failed before sending, a kernel that did not compile)
reads EOF and exits, and reaps (after a grace period, kills) every
rank but the clean survivors. The pool keeps its segments and those
survivors until :meth:`RankPool.close`, the end of its ``with`` block
or its collection (``weakref.finalize``). ``Executor.run_spmd`` closes
its pool before any failure propagates: the traceback keeps the
``Executor`` alive, and no segment or rank may outlive a failed call.

Elastic recovery runs on the survivors. A rank whose report is
``("aborted", message, clean)`` with ``clean`` true (a peer failed, and
:meth:`SpmdCommunicator.close` found no stream still running and no
view pinning a segment) does not exit: it reads its socket again.
The ``Executor``'s :class:`RankPool` spans the failed launch and every
attempt of its descent. Each attempt adopts the clean survivors,
renumbered in rank order, and sends them the re-lowered spec over the
same sockets. The segments are the pool's, as for any launch: no rank
maps them any more, since every other rank of the failed launch has
been reaped, so the flags are zeroed (``ftruncate(fd, 0)`` then the
new size) and the data segment resized in place. No fd is passed
again. A survivor that was not clean, or died while it waited, is
replaced by a fresh rank; one beyond the new world size is released
(its socket closed, so it reads EOF). Dead still means EOF, and a rank
that timed out or raised is never reused. Both sides keep one message
invariant: the parent sends spec n+1 only after it has read report n,
so the per-message buffered readers (``open(fd)`` in the rank,
``sock.makefile`` in the parent) never read ahead into the next
message.

Usage
-----

The high-level entry point is ``Executor.run_spmd`` (backend selection,
module generation, elastic recovery); :meth:`RankPool.launch` is the
raw engine underneath and takes the generated module. Not a doctest —
it spawns one real OS process per rank:

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

import mmap
import os
import pickle
import sys
import time
import weakref
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple,
)

import numpy as np

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
    merge_rank_traces,
)
from repro.runtime.collectives import _node_grid, fold_ranks
from repro.runtime.world import (
    assemble_rows, check_divisible, place_inputs, slice_of,
)

if TYPE_CHECKING:  # parent-side only; a sent plan unpickles ``faults``
    import socket
    import subprocess

    from repro.runtime.faults import FaultPlan

__all__ = [
    "RankPool",
    "SpmdCommunicator",
    "SpmdError",
    "SpmdPeerAbort",
    "SpmdTimeout",
    "SpmdWorkerError",
    "scaled_default_timeout",
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
    """Deterministic data-segment layout shared by the parent and every rank.

    ``sites`` maps a site key to ``(participants, slot_bytes, offset)``
    where ``offset`` is the byte offset of the site's rank-0 slot in the
    data segment; rank ``r``'s slot starts at ``offset + r *
    slot_bytes``. ``regions`` maps ``("in" | "out", tensor name)`` to
    ``(shape, dtype, {rank: offset}, writers)``: one private per-rank
    array for every input a rank holds (its storage, written in place)
    and for every output it returns; ``writers`` are the ranks whose
    copies the parent reads back. Plain ints and tuples, so it travels
    in every rank's pickled spec.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.sites: Dict[str, Tuple[Tuple[int, ...], int, int]] = {}
        self.regions: Dict[Tuple[str, str], Tuple] = {}
        self.data_size = 64
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
        self, key: Tuple[str, str], shape: Sequence[int], dtype,
        ranks: Sequence[int], writers: Sequence[int],
    ) -> None:
        """Reserve one ``shape``/``dtype`` array per rank in ``ranks``.

        Regions come first in the data segment, the slots after them.
        """
        dtype = np.dtype(dtype)
        nbytes = _round64(max(1, int(np.prod(shape)) * dtype.itemsize))
        offsets = {}
        for r in ranks:
            offsets[r] = self._regions_end
            self._regions_end += nbytes
        self.regions[key] = (tuple(shape), dtype.str, offsets, tuple(writers))

    def freeze(self) -> int:
        """Assign slot offsets; returns the total data-segment size."""
        offset = self._regions_end
        for key in sorted(self._pending):
            participants, slot = self._pending[key]
            self.sites[key] = (participants, slot, offset)
            offset += slot * self.nranks
        self.data_size = max(offset, 64)
        return self.data_size

    def view(self, buf, key: Tuple[str, str], rank: int) -> np.ndarray:
        """Rank ``rank``'s writable array of region ``key`` over ``buf``.

        The view pins ``buf``: drop it before closing the segment.
        """
        shape, dtype, offsets, _ = self.regions[key]
        return np.ndarray(
            shape, dtype=dtype, buffer=buf, offset=offsets[rank]
        )

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def flags_length(self) -> int:
        # ready+done per (site, rank), then one error flag per rank
        return self.num_sites * self.nranks * 2 + self.nranks

    def flags_bytes(self, traced: bool = False) -> int:
        """Bytes of the flags segment: the flags, then on a traced
        launch one trace ring per rank (see :meth:`ring_offset`)."""
        return self.ring_offset(self.nranks if traced else 0)

    def ring_offset(self, rank: int) -> int:
        """Byte offset of ``rank``'s trace ring in the flags segment."""
        return self.flags_length() * 8 + rank * TraceRing.nbytes()


def build_layout(program) -> SpmdLayout:
    """Enumerate the program's communication sites and data regions.

    One site per process group touched by a collective or cross-rank
    reduction, one per point-to-point (src, dst) pair of every Send, and
    one world-sized site for barriers. Slot sizes cover the largest
    per-rank payload published at that site (collective inputs, chunked
    staging buffers, gathered scalars).

    Every rank of an input's group gets a private region for its shard,
    because a rank may update its storage in place. An output gets one
    region per rank of its group, a replicated one only on the group's
    first rank: the parent reads every replicated result, output or
    state, from that rank.
    """
    from repro.core import ops  # parent-side: a rank never walks ops

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

    def readers(t) -> Tuple[int, ...]:
        ranks = tuple(t.group.ranks)
        return ranks[:1] if t.layout.is_replicated else ranks

    for t in program.inputs:
        layout.add_region(
            ("in", t.name), t.per_rank_shape(), t.dtype.to_numpy(),
            t.group.ranks, readers(t) if isinstance(t, Tensor) else (),
        )
    for o in program.outputs:
        layout.add_region(
            ("out", o.name), o.per_rank_shape(), o.dtype.to_numpy(),
            readers(o), readers(o),
        )
    layout.freeze()
    return layout


def scaled_default_timeout(layout: SpmdLayout, wire_s_per_mb: float) -> float:
    """The default per-wait deadline, scaled to the simulated wire.

    Publishing a slot of S MiB costs ``wire_s_per_mb * S`` seconds of
    simulated wire sleep; chunked sites republish the payload per chunk
    and a straggler can serialize every rank's wire time behind it, so
    the flat :data:`DEFAULT_TIMEOUT` gains ``4 x wire x largest-site x
    nranks`` of headroom — slow simulated wires must stretch waits, not
    fail them.
    """
    if wire_s_per_mb <= 0.0 or not layout.sites:
        return DEFAULT_TIMEOUT
    largest = max(slot for (_, slot, _) in layout.sites.values())
    scale = 4.0 * wire_s_per_mb * (largest / (1 << 20)) * layout.nranks
    return DEFAULT_TIMEOUT + scale


#: the chunk list of a whole-payload publication: one chunk, every element
WHOLE = ((Ellipsis,),)


def _clip(
    chunk: tuple, shape: Tuple[int, ...],
    shard: Optional[Tuple[int, int, int]],
) -> Optional[Tuple[tuple, tuple]]:
    """``(src, dst)``: where ``chunk`` meets ``shard``, indexed in the
    payload and in the shard; ``None`` when they do not meet.

    ``shard = (dim, lo, hi)`` keeps rows ``lo:hi`` of ``dim``; without
    one, both indices are ``chunk``.
    """
    if shard is None:
        return chunk, chunk
    dim, lo, hi = shard
    idx = [slice(None)] * len(shape)
    for axis, sl in enumerate(chunk):
        if sl is not Ellipsis:
            idx[axis] = sl
    start, stop, _ = idx[dim].indices(shape[dim])
    start, stop = max(start, lo), min(stop, hi)
    if start >= stop:
        return None
    src, dst = list(idx), idx
    src[dim] = slice(start, stop)
    dst[dim] = slice(start - lo, stop - lo)
    return tuple(src), tuple(dst)


class _Publication(NamedTuple):
    """One operation on a site: a ``shape``/``dtype`` payload per rank.

    ``chunks`` index the payload: :data:`WHOLE` for a collective's own
    operand, one slice per lowering chunk for a §5.3 chunked
    publication. ``payload`` is the array this rank releases (``None``
    for a rank that only reads).
    """

    key: str
    ranks: Tuple[int, ...]
    seq: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    chunks: Tuple[tuple, ...]
    payload: Optional[np.ndarray]

    @property
    def chunked(self) -> bool:
        return self.chunks is not WHOLE


class SpmdCommunicator:
    """One rank's endpoint of the shared-memory rendezvous."""

    def __init__(
        self,
        layout: SpmdLayout,
        rank: int,
        data: mmap.mmap,
        flags: mmap.mmap,
        wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT,
        traced: bool = False,
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
        self._flags = np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=flags
        )
        self._site_order = sorted(layout.sites)
        self._site_idx = {k: i for i, k in enumerate(self._site_order)}
        self._seq: Dict[str, int] = {}
        self._pending: Dict[str, _Publication] = {}
        self._err_off = layout.num_sites * layout.nranks * 2
        self._closed = False
        self._clean = True
        # observability: the rank's trace ring in the flags segment
        # plus the current operation context (kept even without a ring
        # — it is the structured context attached to propagated worker
        # errors)
        self._ring: Optional[TraceRing] = (
            TraceRing(flags, layout.ring_offset(rank)) if traced else None
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
            now = time.perf_counter_ns()
            for desc in self._faults.armed():
                self._ring.append(KIND_FAULT, now, 0, name=f"armed:{desc}")

    # -- attach (worker side) -------------------------------------------

    @classmethod
    def attach(
        cls, layout: SpmdLayout, rank: int, data_fd: int, flags_fd: int,
        traced: bool = False, **kwargs,
    ) -> "SpmdCommunicator":
        """Map the segments behind ``data_fd`` and ``flags_fd`` (the
        caller keeps the fds); ``kwargs`` are :meth:`__init__`'s."""
        return cls(
            layout, rank, mmap.mmap(data_fd, layout.data_size),
            mmap.mmap(flags_fd, layout.flags_bytes(traced)),
            traced=traced, **kwargs,
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

    def kernel_span(self, name: str):
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
                KIND_COMPILE,
                time.perf_counter_ns(),
                int(seconds * 1e9),
                name=f"hit:{key}",
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

    def _slot_view(self, pub: _Publication, rank: int) -> np.ndarray:
        """A writable view of ``rank``'s slot holding ``pub``'s payload.

        Callers must drop the view before :meth:`close` (views pin the
        shared-memory buffer).
        """
        base, _ = self._slot_bounds(pub.key, rank)
        return np.ndarray(
            pub.shape, dtype=pub.dtype, buffer=self._data, offset=base
        )

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

    # -- rendezvous core --------------------------------------------------
    #
    # Every operation on a site is one publication: ``_open`` takes the
    # site's next sequence number, ``_release`` writes and announces this
    # rank's payload chunk by chunk, and ``_gather``/``_reduce`` wait for
    # each chunk and copy it out or fold it in before ``_finish``.

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

    def _open(
        self, key: str, ranks: Sequence[int], shape, dtype,
        chunks: Tuple[tuple, ...] = WHOLE, payload=None,
    ) -> _Publication:
        """Start the next operation on site ``key`` among ``ranks``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        _, slot = self._slot_bounds(key, self.rank)
        if nbytes > slot:
            raise SpmdError(
                f"rank {self.rank}: payload of {nbytes} B exceeds the "
                f"{slot} B slot of site {key!r}"
            )
        seq = self._begin(key, ranks)
        return _Publication(
            key, tuple(ranks), seq, tuple(shape), dtype, chunks, payload
        )

    def _publish(
        self, key: str, ranks: Sequence[int], x, release: bool = True
    ) -> _Publication:
        """Open the next operation on ``key`` with ``x`` as one chunk,
        and release it unless ``release`` is false (a reader only)."""
        x = np.asarray(x)
        pub = self._open(key, ranks, x.shape, x.dtype, payload=x)
        if release:
            self._release(pub)
        return pub

    def _release(
        self, pub: _Publication, out: Optional[np.ndarray] = None
    ) -> None:
        """Write this rank's payload into its slot, one wire transfer and
        one ready bump per chunk.

        ``out``, when given, receives each chunk as it is published —
        the consumer-visible buffer of the lowered ``publish`` mode.
        Fault points count a whole publication by its site sequence and
        a chunked one by chunk index; only a chunked publication can
        drop a chunk.
        """
        key, payload = pub.key, pub.payload
        view = self._slot_view(pub, self.rank)
        # an injected drop_chunk withholds the ready bump: the payload
        # is written, but visibility is redelivered later (with the next
        # chunk's bump, or after the drop's redeliver delay for the last
        # chunk) — consumers soft-retry through the gap
        redeliver: Optional[float] = None
        try:
            for c, sl in enumerate(pub.chunks):
                t0 = time.perf_counter_ns() if self._ring is not None else 0
                view[sl] = payload[sl]
                if out is not None:
                    out[sl] = payload[sl]
                nbytes = payload[sl].nbytes
                self._wire_sleep(nbytes)
                seq = c if pub.chunked else pub.seq
                self._fault_publish(key, seq)
                if pub.chunked and self._faults is not None:
                    drop = self._faults.drop(key, c)
                    if drop is not None:
                        self._trace(
                            KIND_FAULT, time.perf_counter_ns(), seq=c,
                            site=key, name=f"drop_chunk {c}",
                        )
                        redeliver = drop.redeliver
                        continue
                if redeliver is not None:
                    time.sleep(redeliver)
                    self._trace(
                        KIND_FAULT, time.perf_counter_ns(), seq=c, site=key,
                        name="redeliver",
                    )
                    redeliver = None
                self._set_ready(
                    key, self.rank, pub.seq * PROGRESS_BASE + c + 1
                )
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
                self._set_ready(
                    key, self.rank, pub.seq * PROGRESS_BASE + last
                )
        finally:
            del view

    def _wait(self, pub: _Publication, rank: int, c: int) -> None:
        """Wait until global rank ``rank`` published chunk ``c`` of ``pub``."""
        want = pub.seq * PROGRESS_BASE + c + 1
        self._spin(
            lambda: self._ready(pub.key, rank) >= want,
            f"chunk {c} from rank {rank} at site {pub.key}",
            site=pub.key,
        )

    def _gather(
        self, pub: _Publication, ranks: Optional[Sequence[int]] = None,
        rows: Optional[Sequence[np.ndarray]] = None,
        shards: Optional[Sequence[Tuple[int, int, int]]] = None,
    ) -> List[np.ndarray]:
        """Copy out the payloads of ``ranks`` (default: every participant)
        into ``rows`` (default: new arrays), one row per rank; with
        ``shards``, only the ``shards[j] = (dim, lo, hi)`` of rank
        ``ranks[j]``'s payload (see :func:`_clip`). A rank may repeat.

        Each chunk is drained from the ranks in the order given, as soon
        as that rank published it; then the operation is finished.
        """
        ranks = pub.ranks if ranks is None else ranks
        shards = [None] * len(ranks) if shards is None else shards
        if rows is None:
            rows = [np.empty(pub.shape, dtype=pub.dtype) for _ in ranks]
        views = [self._slot_view(pub, r) for r in ranks]
        try:
            for c, chunk in enumerate(pub.chunks):
                for j, r in enumerate(ranks):
                    self._wait(pub, r, c)
                    box = _clip(chunk, pub.shape, shards[j])
                    if box is not None:
                        rows[j][box[1]] = views[j][box[0]]
        finally:
            del views
        self._finish(pub)
        return rows

    def _reduce(
        self, pub: _Publication, op: str,
        shard: Optional[Tuple[int, int, int]] = None,
    ) -> np.ndarray:
        """Rank-order float64 reduction of every participant's payload,
        or of its ``shard = (dim, lo, hi)`` only (see :func:`_clip`).

        Each chunk, once every rank published it, is folded
        (:func:`~repro.runtime.collectives.fold_ranks`) straight from the
        participants' slots into one float64 result, restricted to the
        shard. Reductions over the rank axis are element-wise in the data
        dimensions, so this is bit-identical to reducing the whole stack
        and slicing — while a chunked publication genuinely overlaps the
        reduce with the remaining chunks' wire time. Every chunk is still
        awaited from every rank, shard or not.

        The reduce span of a chunked publication starts before the first
        wait, since its reduction is interleaved with the waits; a whole
        payload's span starts once every payload is in, so it covers the
        reduction only.
        """
        t0 = time.perf_counter_ns() if self._ring is not None else 0
        shape = list(pub.shape)
        if shard is not None:
            dim, lo, hi = shard
            shape[dim] = hi - lo
        total = np.empty(shape, np.float64)
        views = [self._slot_view(pub, r) for r in pub.ranks]
        try:
            for c, chunk in enumerate(pub.chunks):
                for r in pub.ranks:
                    self._wait(pub, r, c)
                if not pub.chunked and self._ring is not None:
                    t0 = time.perf_counter_ns()
                box = _clip(chunk, pub.shape, shard)
                if box is not None:
                    src, dst = box
                    fold_ranks(total[dst], [v[src] for v in views], op)
        finally:
            del views
        self._finish(pub)
        self._trace(
            KIND_REDUCE, t0, seq=pub.seq, site=pub.key,
            name=self._op or op,
        )
        return total

    def _finish(self, pub: _Publication) -> None:
        if pub.chunked:
            # the consumer's operand is the producer stream's ``out``
            # buffer (a non-root reduce returns it): it is only whole
            # once this rank released its last chunk
            self._wait(pub, self.rank, len(pub.chunks) - 1)
        self._set_done(pub.key, self.rank, pub.seq)

    def _publication(
        self, x, group: ProcessGroup, release: bool = True
    ) -> _Publication:
        """The group's pending chunked publication, else ``x`` published
        whole (see :meth:`_publish`)."""
        key = _group_key(group)
        pending = self._pending.pop(key, None)
        if pending is not None:
            return pending
        return self._publish(key, group.ranks, x, release)

    # -- collectives ------------------------------------------------------
    #
    # Each method mirrors the corresponding ``*_vectorized`` formula of
    # :mod:`repro.runtime.collectives`, reading the peers' slots where
    # they lie, so results are bit-identical to the vectorized backend.
    # Each one consumes the group's pending chunked publication or
    # publishes ``x`` whole, then runs the same code either way.

    def allreduce(self, x, group: ProcessGroup, op: str, dtype) -> np.ndarray:
        """Every rank receives the reduction of all ranks' values."""
        total = self._reduce(self._publication(x, group), op)
        return total.astype(dtype, copy=False)

    def reducescatter(
        self, x, group: ProcessGroup, op: str, dim: int, dtype,
        context: str = "",
    ) -> np.ndarray:
        """This rank receives its slice of the reduction, and reduces
        only that slice of every participant's payload."""
        step = check_divisible(np.shape(x), dim, group.size, context)
        lo = group.local_rank(self.rank) * step
        total = self._reduce(
            self._publication(x, group), op, (dim, lo, lo + step)
        )
        return total.astype(dtype, copy=False)

    def allgather(
        self, x, group: ProcessGroup, dim: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Concatenation of all ranks' slices, in rank order: each slot
        is copied once, straight into its place in the result.

        ``out``, when given, receives the result and is returned; it
        has the result's shape and dtype. ``x`` is published before any
        row of ``out`` is written, so ``x`` may be a view of ``out``,
        its own row included.
        """
        pub = self._publication(x, group)
        n = group.size
        if out is None:
            shape = list(pub.shape)
            shape[dim] *= n
            out = np.empty(shape, pub.dtype)
        self._gather(pub, rows=[slice_of(out, dim, j, n) for j in range(n)])
        return out

    def alltoall(
        self, x, group: ProcessGroup, dim: int, context: str = ""
    ) -> np.ndarray:
        """This rank receives chunk ``i`` of every rank, in source order.

        Peers are drained in the pairwise step order of
        :func:`repro.nccl.algorithms.all_to_all_steps` (in step ``t``
        rank ``r`` receives from ``(r - t - 1) mod n``, after its own
        payload); the result is assembled in source-rank order, matching
        the reference.
        """
        n = group.size
        i = group.local_rank(self.rank)
        order = [(i - t) % n for t in range(n)]
        return self._exchange(
            x, group, dim, [(s, i, s) for s in order], context
        )

    def alltoall_intra(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Intra-node phase of the hierarchical AllToAll (this rank)."""
        k, m = _node_grid(group, node_size)
        a, q = divmod(group.local_rank(self.rank), m)
        moves = [
            (a * m + p, b * m + q, b * m + p)
            for b in range(k) for p in range(m)
        ]
        return self._exchange(x, group, dim, moves, context)

    def alltoall_inter(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Inter-node phase of the hierarchical AllToAll (this rank)."""
        k, m = _node_grid(group, node_size)
        b, q = divmod(group.local_rank(self.rank), m)
        moves = [
            (a * m + q, b * m + p, a * m + p)
            for a in range(k) for p in range(m)
        ]
        return self._exchange(x, group, dim, moves, context)

    def _exchange(
        self, x, group: ProcessGroup, dim: int,
        moves: Sequence[Tuple[int, int, int]], context: str,
    ) -> np.ndarray:
        """An AllToAll phase: for each ``(p, s, d)`` of ``moves``, slice
        ``s`` of group rank ``p``'s payload (of ``n`` along ``dim``) is
        copied once, straight into slice ``d`` of the result."""
        pub = self._publication(x, group)
        n = group.size
        step = check_divisible(pub.shape, dim, n, context)
        out = np.empty(pub.shape, pub.dtype)
        self._gather(
            pub, [group.global_rank(p) for p, _, _ in moves],
            rows=[slice_of(out, dim, d, n) for _, _, d in moves],
            shards=[(dim, s * step, (s + 1) * step) for _, s, _ in moves],
        )
        return out

    def reduce(
        self, x, group: ProcessGroup, op: str, root: int, dtype
    ) -> np.ndarray:
        """Root receives the reduction; non-roots keep their input
        (NCCL leaves non-root receive buffers unmodified).

        Only the root reads (and reduces) the published payloads; every
        rank still contributes one, and the sequence counters keep the
        rendezvous symmetric.
        """
        pub = self._publication(x, group)
        if self.rank == group.global_rank(root):
            return self._reduce(pub, op).astype(dtype, copy=False)
        self._finish(pub)
        return np.asarray(x).astype(dtype)

    def broadcast(self, x, group: ProcessGroup, root: int) -> np.ndarray:
        """Every rank receives the root rank's value.

        Only the root publishes a payload — one wire transfer, not one
        per rank — while the sequence counters still rendezvous the
        whole group.
        """
        root_rank = group.global_rank(root)
        pub = self._publication(x, group, release=self.rank == root_rank)
        return self._gather(pub, [root_rank])[0]

    def exchange_scalars(self, value, group: ProcessGroup) -> List[np.float64]:
        """Gather one float64 scalar per rank, in rank order (§5.2:
        the AllReduce of partial reductions). Never consumes a pending
        chunked publication."""
        pub = self._publish(
            _group_key(group), group.ranks,
            np.asarray(value, dtype=np.float64),
        )
        return [np.float64(r) for r in self._gather(pub)]

    def barrier(self, group: Optional[ProcessGroup] = None) -> None:
        if group is None:
            group = ProcessGroup(0, self.nranks, self.nranks)
        pub = self._publish(
            _group_key(group), group.ranks, np.zeros((1,), dtype=np.int64)
        )
        self._gather(pub)

    # -- P2P --------------------------------------------------------------

    def send(self, x, dst: int) -> None:
        """Send this rank's value to global rank ``dst``."""
        pub = self._publish(_p2p_key(self.rank, dst), (self.rank, dst), x)
        self._finish(pub)

    def recv(self, src: int, shape, dtype) -> np.ndarray:
        """Receive the ``shape``/``dtype`` value global rank ``src`` sent
        to this rank (the generated module knows both from the send's
        operand)."""
        pub = self._open(
            _p2p_key(src, self.rank), (src, self.rank), shape, dtype
        )
        return self._gather(pub, [src])[0]

    # -- chunked ring publication (overlap, §5.3) -------------------------

    def begin_chunked(
        self,
        group: ProcessGroup,
        staging: np.ndarray,
        chunk_dim: int,
        bounds: Sequence[Tuple[int, int]],
    ) -> _Publication:
        """Open a chunked publication of ``staging`` on the group site.

        One chunk per ``(lo, hi)`` of ``bounds`` along ``chunk_dim``;
        :meth:`publish_chunks` releases them. The next collective this
        rank issues on ``group`` consumes this publication instead of
        publishing its own operand whole, and ingests it chunk by chunk
        through the same wait and copy-out/reduce loop as a one-chunk
        publication.

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
        staging = np.asarray(staging)
        lead = (slice(None),) * (chunk_dim % staging.ndim)
        chunks = tuple(lead + (slice(lo, hi),) for lo, hi in bounds)
        pub = self._open(
            _group_key(group), group.ranks, staging.shape, staging.dtype,
            chunks, staging,
        )
        self._pending[pub.key] = pub
        return pub

    def publish_chunks(
        self, token: _Publication, out: Optional[np.ndarray] = None
    ) -> None:
        """Release the staged chunks, one wire transfer per chunk.

        ``out``, when given, receives each chunk as it is published —
        the consumer-visible buffer of the lowered ``publish`` mode.
        """
        self._release(token, out)

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

    def close(self) -> bool:
        """Join the streams, close the ring and unmap both segments.

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
        self._flags = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        for segment in (self._data, self._flags_map):
            try:
                segment.close()
            except BufferError:  # a view still pins the segment
                self._clean = False
        return self._clean


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
            self._t0 = time.perf_counter_ns()
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

        import threading  # only overlap chunk loops run a stream

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
# Rank side: messages, results, the rank process entry point.
# ---------------------------------------------------------------------------


def _send(fd: int, obj) -> None:
    """Send ``obj`` over the socket ``fd`` as one message: its pickle,
    which marks its own end."""
    data = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(fd, data):]


def _recv(stream):
    """The next :func:`_send` message from ``stream``, a binary stream
    over a socket; ``None`` if the peer is gone before a whole one (EOF,
    a message cut short, or a connection reset because the peer exited
    with a message to it unread)."""
    try:
        return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError, OSError):
        return None


def _store_results(
    layout: SpmdLayout, buf, rank: int, outputs: Dict, states: Dict
) -> None:
    """Copy this rank's results into the regions the parent reads.

    A state the module updated in place, or never wrote, already is its
    region: it is not copied. Each result is dropped once copied, so a
    rank holds at most one result beside its regions.
    """
    for key, (_, _, _, writers) in layout.regions.items():
        if rank not in writers:
            continue
        kind, name = key
        value = np.asarray((outputs if kind == "out" else states).pop(name))
        view = layout.view(buf, key, rank)
        if not _same_memory(value, view):
            np.copyto(view, value)
        del value, view


def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` are the same array over the same bytes
    (``layout.view`` builds a new ndarray object on every call)."""
    return (
        a.ctypes.data == b.ctypes.data
        and a.shape == b.shape
        and a.strides == b.strides
        and a.dtype == b.dtype
    )


#: what a rank process runs (``python -S -c``); ``sys.argv[1]`` is the
#: fd of its end of the socket pair to the parent
_RANK_ENTRY = "from repro.runtime.spmd import _rank_main; _rank_main()"


def _rank_main() -> None:
    """A rank process: a spec in, a report out, then exit.

    The spec arrives once every input region is written (see
    :meth:`RankPool.launch`). The rank reads and writes its end of the
    socket pair as a plain fd, and never closes it: only the exit closes
    it, so the parent reading EOF knows the process is gone.

    A clean survivor (an ``aborted`` report whose ``clean`` is true)
    reads its socket again instead of exiting, for the re-lowered step
    of an elastic recovery or for EOF. The module docstring's "Failure
    handling" gives the protocol, and why a new buffered reader per
    spec never reads ahead into the next message.
    """
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
    :meth:`SpmdCommunicator.close` returned. The communicator closes
    outside the exception handlers, once the traceback, and with it
    every view its frames held, is gone.
    """
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


def _run_body(
    comm: SpmdCommunicator, source: str, kernels: Optional[tuple]
) -> float:
    """Bind this rank's regions, run ``run_rank`` and store its results;
    returns the body's seconds.

    ``kernels`` is the native target's ``(key, path, functions)``: the
    kernel object the parent resolved, bound as the module's ``_K``.
    Every view of the segment lives in this frame, so none outlives it.
    """
    layout, rank, buf = comm.layout, comm.rank, comm._data
    inputs = {
        key[1]: layout.view(buf, key, rank)
        for key, (_, _, offsets, _) in layout.regions.items()
        if key[0] == "in" and rank in offsets
    }
    # fault this rank's input pages in before the barrier, so the
    # timed body does not pay for mapping them
    for view in inputs.values():
        view.reshape(-1).view(np.uint8)[::4096].max(initial=0)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<spmd rank {rank}>", "exec"), namespace)
    if kernels is not None:
        # open before the timing barrier: the dlopen counts as
        # start-up (like spawn), not as execution time
        from repro.core.codegen.device import open_kernels

        t0 = time.perf_counter()
        namespace["_K"] = open_kernels(*kernels)
        if namespace["_K"] is None:
            raise SpmdError(f"kernel object {kernels[1]} is unloadable")
        comm.record_kernel_open(kernels[0][:12], time.perf_counter() - t0)
    # synchronize before timing so spawn stagger (rank 0 idling in
    # its first collective until the last process is up) does not
    # count as execution time
    comm.barrier()
    t0 = time.perf_counter()
    outputs, states = namespace["run_rank"](comm, inputs)
    elapsed = time.perf_counter() - t0
    _store_results(layout, buf, rank, outputs, states)
    return elapsed


# ---------------------------------------------------------------------------
# Parent-side launcher.
# ---------------------------------------------------------------------------


def _place_regions(
    layout: SpmdLayout, program, placed: Mapping[str, np.ndarray], buf
) -> None:
    """Cast each placed input into the region of every rank holding it.

    ``placed`` holds :func:`repro.runtime.world.place_inputs` stacks,
    checked but not yet cast: each row is cast straight into its rank's
    region, with no intermediate copy. A replicated input is cast once,
    into its first rank's region, and copied from there.
    """
    for t in program.inputs:
        cast = None
        for r, row in zip(t.group, placed[t.name]):
            view = layout.view(buf, ("in", t.name), r)
            np.copyto(view, row if cast is None else cast, casting="unsafe")
            if t.layout.is_replicated:
                cast = view


def _read_results(layout: SpmdLayout, program, buf):
    """``(outputs, states)`` copied out of the result regions.

    One pass per tensor; no returned array aliases ``buf``.
    """

    def read(key, t) -> np.ndarray:
        writers = layout.regions[key][3]
        return assemble_rows(
            [layout.view(buf, key, r) for r in writers], t.layout, t.shape
        )

    outputs = {o.name: read(("out", o.name), o) for o in program.outputs}
    states = {
        t.name: read(("in", t.name), t)
        for t in program.inputs
        if isinstance(t, Tensor)
    }
    return outputs, states


def _merge_rings(layout: SpmdLayout, flags_fd: int, observer) -> None:
    """Merge the ranks' trace rings in the flags segment into
    ``observer``, on its clock."""
    with mmap.mmap(flags_fd, layout.flags_bytes(traced=True)) as flags:
        rings = [
            TraceRing(flags, layout.ring_offset(r))
            for r in range(layout.nranks)
        ]
        try:
            observer.extend(
                merge_rank_traces(rings, observer.epoch, observer.metrics)
            )
        finally:
            for ring in rings:
                ring.close()


def _segment(name: str, size: int) -> int:
    """A new ``size``-byte anonymous shared-memory file (zero-filled)."""
    fd = os.memfd_create(name)
    os.ftruncate(fd, size)
    return fd


def _start(
    entry: str, fds: Sequence[int]
) -> Tuple[subprocess.Popen, socket.socket]:
    """Start ``python -S -c entry`` holding ``fds`` and its end of a new
    socket pair (fd ``sys.argv[1]``); ``(process, the parent's end)``.

    The process's ``PYTHONPATH`` is this process's ``sys.path``, so it
    resolves modules as the parent did without running ``site``, and
    numpy's BLAS runs one thread unless the caller's environment says
    otherwise: the ranks already fill the cores, and threaded GEMMs in
    every rank would oversubscribe them.
    """
    import socket
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, sys.path))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    sock, child = socket.socketpair()
    with child:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c", entry, str(child.fileno())],
            pass_fds=(child.fileno(), *fds), env=env,
        )
    return proc, sock


def _reap(procs: Sequence[subprocess.Popen]) -> None:
    """Wait for every rank to exit; kill one still running after 5 s."""
    import subprocess

    for p in procs:
        try:
            p.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung rank
            p.kill()
            p.wait()


def _release(ranks: Sequence[tuple]) -> None:
    """Close the parent's end of each ``(origin, process, socket)``
    first, so a rank waiting for a spec reads EOF and exits, then reap
    them all."""
    for _, _, sock in ranks:
        sock.close()
    _reap([proc for _, proc, _ in ranks])


def _free(fds: List[int], idle: List[tuple]) -> None:
    """Release the ranks of ``idle`` and close ``fds``, emptying both
    lists in place: the pool's finalizer holds the lists, not the pool."""
    _release(idle)
    idle.clear()
    for fd in fds:
        os.close(fd)
    fds.clear()


class RankPool:
    """The launcher: rank processes and segments owned across launches.

    An ``Executor`` owns one pool for its lifetime, and every
    :meth:`launch`, elastic recovery attempts included, runs on it.
    The pool holds the two segments and the *idle* ranks: clean
    survivors of the last launch (see :func:`_rank_main`), waiting on
    their sockets for a spec. A launch after the first zeroes the flags
    segment and keeps the data segment's pages, resizing it only when
    the layout's size differs. It adopts idle ranks first, renumbered in
    rank order, starts fresh ranks only for a shortfall and releases
    idle ranks beyond its world size.

    :meth:`close`, the end of a ``with`` block and the pool's collection
    (``weakref.finalize``) release the idle ranks and close both
    segments; the pool can be launched on again after a ``close()``.
    """

    def __init__(self) -> None:
        #: the data and flags segments' fds, once a launch created them
        self.fds: List[int] = []
        #: ``(origin, process, socket)`` of each idle rank, in rank order
        self.idle: List[tuple] = []
        #: per rank of the last launch, its origin: how many rank
        #: processes the pool had started before its own
        self.origins: List[int] = []
        #: rank processes the pool's launches have started
        self.started = 0
        weakref.finalize(self, _free, self.fds, self.idle)

    def close(self) -> None:
        """Release every idle rank and close both segments."""
        _free(self.fds, self.idle)

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def launch(
        self,
        generated,
        inputs: Mapping[str, np.ndarray],
        *,
        allow_downcast: Optional[bool] = None,
        wire_s_per_mb: float = 0.0,
        timeout: Optional[float] = None,
        soft_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        observer=None,
    ):
        """Run a generated SPMD module as one process per rank.

        ``generated`` is a
        :class:`~repro.core.codegen.generator.GeneratedSpmdProgram`;
        every rank ``exec``s its ``source`` as is. Adopts or starts
        ``world_size`` rank processes, places the inputs into their
        shared-memory regions, executes ``run_rank`` on every rank over
        a shared-memory communicator, and copies the per-rank
        outputs/states back into a
        :class:`~repro.runtime.executor.ProgramResult` whose arrays own
        their memory. Teardown is exception-safe: ranks are reaped
        (killed after a grace period) in a ``finally``, even when a rank
        raises mid-collective; only clean survivors stay idle in the
        pool.

        The module docstring's "Launch" section gives the start-up order.

        ``timeout`` bounds every rendezvous wait (default:
        :func:`scaled_default_timeout`, so slow simulated wires stretch
        the deadline instead of false-timing-out). On the native target
        the parent compiles any kernels before the ranks get their
        specs, so a cold kernel cache never counts against it.
        ``soft_timeout`` is the escalation (soft-retry) deadline inside
        each wait. ``fault_plan`` injects the given
        :class:`~repro.runtime.faults.FaultPlan` into every rank. A rank
        whose socket reaches EOF before it reported died (killed, an
        injected ``die``, OOM): its error flag is broadcast on its
        behalf, so surviving ranks abort their in-flight collectives
        with :class:`SpmdPeerAbort` rather than spinning to their own
        timeouts, and the failure is raised as a
        :class:`SpmdWorkerError` with ``dead_ranks`` populated — the
        elastic-recovery trigger.

        ``observer`` (a :class:`~repro.observe.events.Tracer`) hears of
        the native compile, and every rank records its
        publish/wait/reduce/kernel spans into its own trace ring (see
        :mod:`repro.observe.ring`), placed after the flags in the flags
        segment. The teardown merges the rings into ``observer``,
        failed launches included, on the tracer's clock: every rank
        event lies where it ran, after the specs were sent. No file is
        written. Its ``metrics`` also count
        ``spmd.segment_reuses``, the launches that kept the data
        segment's pages, and ``spmd.segment_bytes_allocated``, the bytes
        of data segment created or grown (0 on a launch whose layout has
        the last one's size).
        """
        from repro.runtime.executor import ProgramResult

        program = generated.program
        world_size = program.inputs[0].group.world_size
        placed = place_inputs(program, inputs, allow_downcast, cast=False)
        layout = build_layout(program)
        timeout = (
            scaled_default_timeout(layout, wire_s_per_mb)
            if timeout is None else float(timeout)
        )

        procs: List[subprocess.Popen] = []
        socks: List[socket.socket] = []
        origins: List[int] = []
        idle: List[int] = []  # ranks that report a clean abort
        dead_ranks: List[int] = []
        # root-cause classification: a dead process (4) outranks a raised
        # error (3) outranks a silent timeout (2) outranks a peer abort
        # (1) — survivors' aborts are symptoms, never the reported cause
        fail = {"sev": 0, "msg": None, "detail": "", "context": None}

        def _record_failure(
            sev: int, msg: str, det: str = "", ctx: Optional[dict] = None
        ) -> None:
            if sev > fail["sev"]:
                fail.update(sev=sev, msg=msg, detail=det, context=ctx)

        seconds: Dict[int, float] = {}
        # the first error flag's byte offset, and a dead rank's flag value
        err_off = layout.num_sites * world_size * 2 * 8
        dead_flag = np.int64(_ERR_DEAD).tobytes()
        traced = observer is not None
        flags_fd = None
        try:
            flags_size = layout.flags_bytes(traced)
            held = 0  # bytes of data segment kept from the last launch
            if self.fds:
                data_fd, flags_fd = self.fds
                # no process maps them any more: truncating to zero
                # zeroes the flags, and every rank keeps the same fds.
                # The data keeps its pages: this launch writes every
                # byte it reads
                os.ftruncate(flags_fd, 0)
                os.ftruncate(flags_fd, flags_size)
                held = os.fstat(data_fd).st_size
                if held != layout.data_size:
                    os.ftruncate(data_fd, layout.data_size)
            else:
                self.fds.append(_segment("spmd-data", layout.data_size))
                self.fds.append(_segment("spmd-flags", flags_size))
                data_fd, flags_fd = self.fds
            if observer is not None:
                observer.metrics.inc("spmd.segment_reuses", int(held > 0))
                observer.metrics.inc(
                    "spmd.segment_bytes_allocated",
                    max(0, layout.data_size - held),
                )

            # adopt the idle ranks that are still alive, then start the
            # rest, and place the inputs while the new ones import
            alive = [e for e in self.idle if e[1].poll() is None]
            adopted = alive[:world_size]
            _release([e for e in self.idle if e not in adopted])
            self.idle.clear()
            for origin, proc, sock in adopted:
                origins.append(origin)
                procs.append(proc)
                socks.append(sock)
            while len(procs) < world_size:
                origins.append(self.started)
                proc, sock = _start(_RANK_ENTRY, self.fds)
                self.started += 1
                procs.append(proc)
                socks.append(sock)
            self.origins = origins

            # the ranks map the segment themselves: unmap the pages
            # written here, so the parent's resident set does not count
            # them too
            with mmap.mmap(data_fd, layout.data_size) as data:
                try:
                    # one call maps every page in, instead of a fault
                    # per page while casting
                    data.madvise(_MADV_POPULATE_WRITE)
                except OSError:  # Linux before 5.14: fault them one by one
                    pass
                _place_regions(layout, program, placed, data)
            placed = None
            kernels = None
            if generated.c_source:
                from repro.core.codegen import native

                k = native.load_kernels(generated.c_source, observer=observer)
                kernels = (k.key, k.path, k.functions)
            spec = dict(
                layout=layout, data_fd=data_fd, flags_fd=flags_fd,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, faults=fault_plan,
                source=generated.source, kernels=kernels, traced=traced,
            )
            for r, sock in enumerate(socks):
                try:
                    _send(sock.fileno(), dict(spec, rank=r))
                except OSError:
                    # the rank already died: its EOF reports it below
                    pass

            import select

            deadline = time.monotonic() + timeout + 60.0
            pending = dict(zip(socks, range(world_size)))
            while pending:
                ready, _, _ = select.select(
                    list(pending), [], [],
                    max(0.0, deadline - time.monotonic()),
                )
                if not ready:
                    for r in sorted(pending.values()):
                        _record_failure(
                            2,
                            f"rank {r} did not report within {timeout:.0f}s",
                        )
                    break
                for sock in ready:
                    r = pending.pop(sock)
                    with sock.makefile("rb") as stream:
                        msg = _recv(stream)
                    if msg is None:
                        # broadcast on the corpse's behalf: peers blocked
                        # on its payloads abort instead of spinning to
                        # timeout
                        os.pwrite(flags_fd, dead_flag, err_off + 8 * r)
                        dead_ranks.append(r)
                        # only the rank held its end of the socket: at
                        # EOF it is exiting, so this wait returns promptly
                        code = procs[r].wait()
                        _record_failure(
                            4, f"rank {r} died without reporting "
                            f"(exit code {code})", ctx={
                                "rank": r, "op": "", "site": "", "seq": 0,
                                "dead": True,
                            },
                        )
                    elif msg[0] == "ok":
                        seconds[r] = msg[1]
                    elif msg[0] == "error":
                        _record_failure(3, *msg[1:])
                    else:  # aborted by a peer's failure
                        _record_failure(1, msg[1])
                        if msg[2]:
                            idle.append(r)
            if fail["msg"] is None:
                # every rank has reported: let them exit first, so their
                # memory and the results copied here are not resident at
                # once
                _reap(procs)
                with mmap.mmap(data_fd, layout.data_size) as data:
                    outputs, states = _read_results(layout, program, data)
        finally:
            ranks = list(zip(origins, procs, socks))
            # EOF first: a rank still waiting for its spec exits at once
            _release([e for r, e in enumerate(ranks) if r not in idle])
            self.idle.extend(ranks[r] for r in sorted(idle))
            if traced and flags_fd is not None:
                # every rank has exited or closed its ring
                _merge_rings(layout, flags_fd, observer)
        if fail["msg"] is not None:
            detail = fail["detail"]
            raise SpmdWorkerError(
                f"SPMD run failed: {fail['msg']}"
                + (f"\n{detail}" if detail else ""),
                context=fail["context"],
                dead_ranks=dead_ranks,
            )

        result = ProgramResult(outputs, states)
        # per-rank wall-clock of the rank bodies (barrier-synchronized,
        # so process spawn time is excluded); the slowest rank is the
        # step time
        result.spmd_rank_seconds = seconds
        result.spmd_seconds = max(seconds.values())
        return result
