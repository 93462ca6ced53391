"""Real SPMD execution: one OS process per rank over shared memory.

The in-process interpreter (``Executor.run_lowered``) executes all
ranks inside one Python process, so "communication" is a library
call over arrays it already owns. This module is the first tier where a
generated program runs as *real concurrent processes*:
:meth:`RankPool.launch` runs one Python interpreter per rank, each
process executes the same generated SPMD module (``CodeGenerator`` with
``target="spmd"``), and ranks rendezvous through a
:class:`SpmdCommunicator` over two anonymous shared-memory files
(``memfd_create``) that every rank maps. The rank's control plane (the
flags segment, the spin, the publication protocol, faults, the trace
ring, the spec and report) and every collective, over addresses, are
:mod:`repro.runtime.rank`, which imports no numpy, and so are P2P and
chunked publications. The native target's pointer module runs them on
the pointer data plane
(:class:`~repro.runtime.rank.PointerCommunicator`: its ranks never
import numpy). This module is the launcher and the numpy data plane,
:class:`SpmdCommunicator`, which binds arrays to the same calls for the
``spmd`` target's module.

Transport protocol
------------------

One shared data segment carries everything a launch moves, plus the
flags segment, whose format and publication protocol
:mod:`repro.runtime.rank` gives; :class:`~repro.runtime.rank.SpmdLayout`
lays both out. The data segment holds:

* one *slot* per (communication site, rank). A site is a process group
  (key ``g<start>x<size>``) or a point-to-point pair (``p<src>><dst>``);
* one *region* per (input, rank holding it) and per (output, rank
  returning it, unless the output is an input's final state): a rank's
  private array, so an in-place update on one rank is never seen by
  another.

A slot holds the payload only, with no header: every reader already
knows the payload's shape and dtype from its own operand (``recv``,
whose rank has no operand, gets both from the generated module, which
reads them off the ``Send``).

Numerics
--------

Reductions fold the participants' slots in rank order into float64
with the formula of :func:`~repro.runtime.collectives.fold_ranks`
(over array views here; on the pointer plane, through the program's C
fold helper, which restates it), rounded once, so every collective is
bit-identical to its vectorized counterpart (``run_spmd`` ≡
``run_lowered``). The AllToAll copies its peers' chunks by the moves
of :func:`~repro.runtime.collectives.alltoall_moves`, the list the
vectorized AllToAll gathers by. Chunked publication
(:meth:`~repro.runtime.rank.RankCore.begin_chunked`) releases a
producer's output chunk by chunk, and a consuming collective takes each
chunk's runs once every rank published it: bit-identical to a
whole-buffer collective, while the reduce runs behind the wire.

Launch
------

Every launch runs on a :class:`RankPool` (an ``Executor`` owns one for
its lifetime). A launch pays an interpreter start per new rank, so it
keeps everything else off that path, and no array crosses a socket:

1. The pool's first launch creates both segments with
   ``os.memfd_create``: nothing is named in ``/dev/shm``, so nothing
   outlives the last process holding them, even a killed parent. A
   later launch zeroes the flags segment and keeps the data segment's
   pages, resizing it only when its layout's size differs. A launch
   adopts the pool's idle ranks (elastic recovery), which hold both
   fds at the same numbers, and starts the rest as ``python -S -c``
   (:data:`~repro.runtime.rank._RANK_ENTRY`), inheriting both segments
   and its end of a ``socket.socketpair`` as fds, with the module's data
   plane in its ``argv``. A rank's ``PYTHONPATH`` is the parent's
   resolved ``sys.path``, and ``-S`` skips ``site``. Before it reads
   its spec a rank imports :mod:`repro.runtime.rank` and what it
   imports (a few ``repro`` modules) and, for a numpy module, this
   module and numpy; never the caller's ``__main__``, the lowering or
   the compiler side. With an ``observer``, the flags segment also
   holds one trace ring per rank after the flags, and a new rank's
   ``argv`` says the launch is traced: it records its start-up
   (entry, imports done, spec received, module ready) as instants on
   its ``start`` track.
2. While the ranks import, the parent resolves a pointer module's C
   kernels (:func:`repro.core.codegen.native.load_kernels`): a cold
   compile overlaps the ranks' imports and precedes every deadline.
   Then it places every input in the region of each rank that holds it
   (the checks and downcast policy of
   :func:`repro.runtime.world.place_inputs`), populating the input
   regions first (``MADV_POPULATE_WRITE``), and unmaps the segment, so
   its resident set does not count those pages twice. An input that an
   ``Update`` or ``AllGather`` writeback writes is cast straight into
   the regions; any other input is cast once into a private array, its
   final state, and copied from there. A C-contiguous float64 input of
   an FP16 tensor is cast by the kernels' ``place_f16`` (numpy's
   ``astype``, bit for bit), which reads the source once and writes
   both places the value goes, the state and the region or a
   replicated input's first two regions; every other cast is
   ``np.copyto``. Placement uses every CPU: each cast and copy is cut
   along its leading axis into one part per CPU, run by threads that
   live only for the placement (:func:`_place_regions`). On a kept
   segment the cast writes into pages that already exist. No launch
   reads a stale byte: inputs are placed here, a rank writes a slot or
   result before its flag or report says so, and the parent reads only
   the regions of the ranks that write them.
3. The parent sends each rank one spec, a ``marshal`` of plain data
   (:func:`~repro.runtime.rank._send`): the wire forms of the layout
   and of the rank's view of the fault plan
   (:meth:`~repro.runtime.rank.SpmdLayout.to_wire`,
   :meth:`~repro.runtime.rank.RankFaults.to_wire`), deadlines, whether
   to trace, the generated module's data plane and code object, which
   the parent compiled once (``GeneratedSpmdProgram.code``) and, for a
   pointer module, the kernel object's ``(key, path, functions)``, plus
   the ``(path, sgemm symbol)`` of numpy's BLAS when its GEMM calls it
   (:func:`repro.core.codegen.native.blas`). The parent and every rank
   run the same ``sys.executable``, so they share ``marshal``'s
   format; a rank imports no ``pickle`` and calls no ``compile()``.
4. Each rank ``exec``s that code object (no rank loads an artifact,
   runs the code generator or compiles), opens the kernel object
   (:func:`repro.runtime.rank.open_kernels`), binds its tensors to its
   own regions (array views, or addresses on the pointer plane) and
   runs in place: updated states and gathered writebacks land straight
   in their regions. It copies every other result the parent reads
   into its region (a replicated one from the group's first rank
   only); an output that is an input's final state, like the
   ``AllGather`` into ``p`` of the tuned Adam, has no region and is not
   copied. It closes
   its segments, sends one report, ``("ok", seconds, plane, numpy
   imported)``, and leaves with ``os._exit(0)``. Only a clean survivor
   stays (see "Failure handling").
5. The parent copies out only what the ranks wrote: the outputs and
   the written inputs, each in one pass, so no returned array aliases
   the segment (:func:`_read_results`). An unwritten input's state is
   the array placement cast it into, and an output that is an input's
   final state is that state's array: one array for both. With an
   ``observer``, placement and copy-out are the parent's ``place`` and
   ``copy_out`` spans, each with the ``bytes`` it wrote (``place`` also
   with ``cast_bytes``, those ``place_f16`` wrote). The teardown
   merges the trace rings into the ``observer``, after a failed launch
   too: the parent still holds the flags segment a dead rank wrote its
   ring into. Ranks stamp records with ``time.perf_counter_ns()``, the
   tracer's clock.

Failure handling
----------------

A rank that raises stores its error flag, and its peers abort (see
"Failure handling" in :mod:`repro.runtime.rank`). A rank is dead when
its socket reaches EOF (or a reset, if it exited with its spec unread)
before a whole report arrived: only the rank holds its end, so the
process is gone, killed, dead of an injected fault or never past its
spec read. The parent then stores its dead-rank flag
(:func:`~repro.runtime.rank.signal_dead`) and takes its exit code from
``Popen.wait``. Teardown runs in a ``finally``: it closes the parent's
socket ends, so a rank still waiting for its spec reads EOF and exits,
and reaps (after a grace period, kills) every rank but the clean
survivors, which the pool keeps with its segments until
:meth:`RankPool.close`. ``Executor.run_spmd`` closes its pool before
any failure propagates, so no segment or rank outlives a failed call.

Elastic recovery runs on the survivors. A rank whose report is
``("aborted", message, clean)`` with ``clean`` true (a peer failed, and
:meth:`~repro.runtime.rank.RankCore.close` found no stream running and
no view pinning a segment) reads its socket again. The ``Executor``'s
pool spans the failed launch and every attempt of its descent. Each
attempt adopts the clean survivors, renumbered in rank order, and sends
them the re-lowered spec over the same sockets; the pool's segments,
which no rank maps any more, are zeroed and resized in place, and no fd
is passed again. A survivor that was not clean, or died while it
waited, is replaced by a fresh rank; one beyond the new world size is
released. A rank that timed out or raised is never reused. The parent
sends spec n+1 only after it read report n, so the per-message buffered
readers (``open(fd)`` in the rank, ``sock.makefile`` in the parent)
never read ahead into the next message.

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
    # bit-identical to run_lowered(sched, inputs); codegen_target=
    # "native" runs C kernels, elastic=True recovers from dead ranks.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import sys
import time
import weakref
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.core.tensor import Tensor
from repro.observe.ring import TraceRing, merge_rank_traces
from repro.runtime.collectives import alltoall_moves, fold_ranks
from repro.runtime.rank import (
    _RANK_ENTRY, DEFAULT_TIMEOUT, RankCore, SpmdError, SpmdLayout,
    SpmdWorkerError, _group_site, _p2p_site, _Publication, _recv, _send,
    box_moves, box_runs, signal_dead,
)
from repro.runtime.world import (
    assemble_rows, check_divisible, place_input, place_inputs,
)

if TYPE_CHECKING:  # parent-side only
    import socket
    import subprocess

    from repro.runtime.faults import FaultPlan

__all__ = ["RankPool", "SpmdCommunicator", "scaled_default_timeout"]


def build_layout(program) -> SpmdLayout:
    """Enumerate the program's communication sites and data regions.

    One site per process group touched by a collective or cross-rank
    reduction, one per point-to-point (src, dst) pair of every Send, and
    one world-sized site for barriers. Slot sizes cover the largest
    per-rank payload published at that site (collective inputs, chunked
    staging buffers, gathered scalars).

    Every rank of an input's group gets a private region for its shard,
    because a rank may update its storage in place. Only an input that
    an ``Update`` or an ``AllGather`` writeback writes has writers, the
    ranks the parent reads it back from: every other input's final
    state is its placed value. An output gets one region per rank of
    its group, a replicated one only on the group's first rank (the
    parent reads every replicated result, output or state, from that
    rank), and none when it is an input's final state
    (:func:`_aliased_outputs`).
    """
    from repro.core import ops  # parent-side: a rank never walks ops
    from repro.core.codegen.generator import _storage_writers

    world_size = program.inputs[0].group.world_size
    layout = SpmdLayout(world_size)
    layout.add_site(_group_site(range(world_size)), range(world_size), 64)
    for e in program.operations:
        if isinstance(e, ops.Send):
            src_group = e.inputs[0].group
            dst_group = e.group
            nbytes = e.inputs[0].per_rank_bytes()
            for local in range(src_group.size):
                src = src_group.global_rank(local)
                dst = dst_group.global_rank(local)
                layout.add_site(_p2p_site(src, dst), (src, dst), nbytes)
        elif isinstance(e, ops.CommOp):
            nbytes = max(
                e.inputs[0].per_rank_bytes(), e.per_rank_bytes()
            )
            layout.add_site(_group_site(e.group.ranks), e.group.ranks, nbytes)
        elif (
            isinstance(e, (ops.Norm, ops.ReduceTensor)) and e.crosses_ranks
        ):
            layout.add_site(_group_site(e.group.ranks), e.group.ranks, 64)

    def readers(t) -> Tuple[int, ...]:
        ranks = tuple(t.group.ranks)
        return ranks[:1] if t.layout.is_replicated else ranks

    def region(kind: str, t, ranks, writers) -> None:
        dtype = np.dtype(t.dtype.to_numpy())
        layout.add_region(
            (kind, t.name), t.per_rank_shape(), dtype.str, dtype.itemsize,
            ranks, writers,
        )

    written = _storage_writers(program)
    for t in program.inputs:
        region("in", t, t.group.ranks, readers(t) if t.name in written else ())
    aliased = _aliased_outputs(program)
    for o in program.outputs:
        if o.name not in aliased:
            region("out", o, readers(o), readers(o))
    layout.freeze()
    return layout


def _aliased_outputs(program) -> Dict[str, str]:
    """Output name -> the input whose final state it is.

    An ``AllGather`` that writes back into a replicated input of its own
    shape, dtype and group, after every other op that writes that input
    (each is its DFG ancestor), leaves the gathered value as the input's
    final state (``ag_p_`` of the tuned Adam is ``p``): the parent reads
    it once, as the state.
    """
    from repro.core import dfg, ops
    from repro.core.codegen.generator import _storage_writers

    written = _storage_writers(program)
    aliased = {}
    for o in program.outputs:
        t = o.writeback if isinstance(o, ops.AllGather) else None
        if (
            t is not None and t.layout.is_replicated
            and (t.shape, t.dtype, t.group) == (o.shape, o.dtype, o.group)
        ):
            upstream = dfg.reachable([o])
            if all(w is o or w in upstream for w in written[t.name]):
                aliased[o.name] = t.name
    return aliased


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


def _address(out: np.ndarray, shape, dtype) -> int:
    """The address of ``out``, an array a collective writes in place,
    once it is a C-contiguous ``shape`` array of ``dtype``."""
    if out.shape != tuple(shape) or out.dtype != dtype or not (
        out.flags.c_contiguous
    ):
        raise SpmdError(
            f"output {out.dtype}{list(out.shape)} (strides {out.strides}) "
            f"is not a C-contiguous {np.dtype(dtype)}{list(shape)}"
        )
    return out.ctypes.data


class SpmdCommunicator(RankCore):
    """One rank's array binding of :class:`~repro.runtime.rank.RankCore`'s
    collectives, P2P and chunked publications, the ones the pointer
    plane runs.

    An operand goes in by its address (through a contiguous copy when
    it is not contiguous), a result comes out as an array allocated
    here, and a reduction folds by
    :func:`~repro.runtime.collectives.fold_ranks` over views of the
    participants' runs (the ``spmd`` target has no compiler).
    """

    def _publication(
        self, x, group: ProcessGroup, release: bool = True
    ) -> Tuple[_Publication, np.ndarray]:
        """``(publication, operand)``: what the group's collective takes
        (:meth:`~repro.runtime.rank.RankCore._take`), ``x`` as a
        C-contiguous array."""
        x = np.require(x, requirements="C")
        return self._take(group.ranks, x.ctypes.data, x.nbytes, release), x

    def _fold_into(
        self, pub: _Publication, x: np.ndarray, op: str, dtype,
        shape=None, moves=None,
    ) -> np.ndarray:
        """A new ``shape`` (default: ``x``'s) array of ``dtype``: the
        ``moves`` (default: all) of every participant's payload of
        ``x``'s dtype folded in rank order in float64, rounded once.

        The fold is element-wise along the rank axis, so folding a shard,
        and a chunk of it at a time, gives the bits of the whole fold.
        """
        out = np.empty(x.shape if shape is None else shape, dtype)
        moves = ((0, 0, x.nbytes),) if moves is None else moves
        flat = out.reshape(-1)
        acc = np.empty(flat.size, np.float64)

        def fold(sources: List[int], d: int, n: int) -> None:
            # the participants' runs, viewed where they lie
            rows = [
                np.frombuffer((ctypes.c_char * n).from_address(a), x.dtype)
                for a in sources
            ]
            k, at = n // x.itemsize, d // x.itemsize
            fold_ranks(acc[:k], rows, op)
            flat[at : at + k] = acc[:k]

        self._fold(pub, moves, fold, op)
        return out

    def _rows(
        self, pub: _Publication, ranks: Sequence[int], shape, dtype
    ) -> np.ndarray:
        """A new array of one row per rank of ``ranks``: its whole
        ``shape``/``dtype`` payload of ``pub``."""
        out = np.empty((len(ranks), *shape), dtype)
        size = out.nbytes // len(ranks)
        moves = [((0, j * size, size),) for j in range(len(ranks))]
        self._drain(pub, ranks, moves, out.ctypes.data)
        return out

    # -- collectives ------------------------------------------------------
    #
    # Each method mirrors the corresponding ``*_vectorized`` formula of
    # :mod:`repro.runtime.collectives`, so results are bit-identical to
    # the vectorized backend. Each one consumes the group's pending
    # chunked publication or publishes ``x`` whole, then runs the same
    # code either way.

    def allreduce(self, x, group: ProcessGroup, op: str, dtype) -> np.ndarray:
        """Every rank receives the reduction of all ranks' values."""
        pub, x = self._publication(x, group)
        return self._fold_into(pub, x, op, dtype)

    def reducescatter(
        self, x, group: ProcessGroup, op: str, dim: int, dtype,
        context: str = "",
    ) -> np.ndarray:
        """This rank receives its slice of the reduction, and reduces
        only that slice of every participant's payload."""
        step = check_divisible(np.shape(x), dim, group.size, context)
        pub, x = self._publication(x, group)
        lo = group.local_rank(self.rank) * step
        shape = list(x.shape)
        shape[dim] = step
        moves = box_moves(x.shape, x.itemsize, dim, lo, 0, step, shape)
        return self._fold_into(pub, x, op, dtype, shape, moves)

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
        x = np.asarray(x)
        rows, shape = x.shape[dim], list(x.shape)
        shape[dim] *= group.size
        out = np.empty(shape, x.dtype) if out is None else out
        at = _address(out, shape, x.dtype)  # before anything is published
        pub, x = self._publication(x, group)
        moves = [
            box_moves(x.shape, x.itemsize, dim, 0, j * rows, rows, shape)
            for j in range(group.size)
        ]
        self._drain(pub, pub.ranks, moves, at)
        return out

    def alltoall(
        self, x, group: ProcessGroup, dim: int,
        phase: Optional[str] = None, node_size: Optional[int] = None,
        context: str = "",
    ) -> np.ndarray:
        """This rank's AllToAll output (flat, or one hierarchical phase):
        for each move ``(p, s, d)`` of
        :func:`~repro.runtime.collectives.alltoall_moves`, chunk ``s`` of
        group rank ``p``'s payload (of ``n`` along ``dim``) is copied
        once, straight into chunk ``d`` of the result. Peers are drained
        in the moves' order."""
        step = check_divisible(np.shape(x), dim, group.size, context)
        pub, x = self._publication(x, group)
        moves = alltoall_moves(
            group, group.local_rank(self.rank), phase, node_size
        )
        chunks = [
            box_moves(x.shape, x.itemsize, dim, s * step, d * step, step)
            for _, s, d in moves
        ]
        out = np.empty(x.shape, x.dtype)
        sources = [group.global_rank(p) for p, _, _ in moves]
        self._drain(pub, sources, chunks, out.ctypes.data)
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
        pub, x = self._publication(x, group)
        if self.rank == group.global_rank(root):
            return self._fold_into(pub, x, op, dtype)
        self._finish(pub)
        return x.astype(dtype)

    def broadcast(self, x, group: ProcessGroup, root: int) -> np.ndarray:
        """Every rank receives the root rank's value.

        Only the root publishes a payload — one wire transfer, not one
        per rank — while the sequence counters still rendezvous the
        whole group.
        """
        root_rank = group.global_rank(root)
        pub, x = self._publication(x, group, release=self.rank == root_rank)
        return self._rows(pub, [root_rank], x.shape, x.dtype)[0]

    def exchange_scalars(self, value, group: ProcessGroup) -> List[np.float64]:
        """Gather one float64 scalar per rank, in rank order (§5.2:
        the AllReduce of partial reductions). Never consumes a pending
        chunked publication."""
        x = np.asarray(value, dtype=np.float64)
        key = _group_site(group.ranks)
        pub = self._publish(key, group.ranks, x.ctypes.data, 8)
        return list(self._rows(pub, pub.ranks, (), np.float64))

    # -- P2P, chunked publication: arrays to RankCore's addresses --------

    def send(self, x, dst: int) -> None:
        """Send this rank's value to global rank ``dst``."""
        x = np.require(x, requirements="C")
        super().send(x.ctypes.data, dst, x.nbytes)

    def recv(self, src: int, shape, dtype) -> np.ndarray:
        """The ``shape``/``dtype`` value global rank ``src`` sent."""
        out = np.empty(shape, dtype)
        super().recv(src, out.nbytes, out.ctypes.data)
        return out

    def begin_chunked(
        self, group: ProcessGroup, staging: np.ndarray, chunk_dim: int,
        bounds: Sequence[Tuple[int, int]],
    ) -> Tuple[_Publication, np.ndarray]:
        """``staging`` chunked by ``bounds`` along ``chunk_dim``; the
        token keeps it alive."""
        staging = np.require(staging, requirements="C")
        chunks = [
            box_runs(staging.shape, staging.itemsize, chunk_dim, lo, hi)
            for lo, hi in bounds
        ]
        pub = super().begin_chunked(
            group.ranks, staging.ctypes.data, staging.nbytes, chunks
        )
        return pub, staging

    def publish_chunks(
        self, token: Tuple[_Publication, np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> None:
        """Release the chunks, into ``out`` too when given."""
        pub, staging = token
        at = 0 if out is None else _address(out, staging.shape, staging.dtype)
        super().publish_chunks(pub, at)

    # -- the body's inputs and results -----------------------------------

    def _bind_inputs(self) -> Dict[str, np.ndarray]:
        """Writable views of this rank's input regions, by tensor name."""
        return {
            key[1]: self.layout.view(self._data, key, self.rank)
            for key, (_, _, offsets, _) in self.layout.regions.items()
            if key[0] == "in" and self.rank in offsets
        }

    def _store_results(self, outputs: Dict, states: Dict) -> None:
        _store_results(self.layout, self._data, self.rank, outputs, states)


# ---------------------------------------------------------------------------
# Rank side: the body and its results.
# ---------------------------------------------------------------------------

def _store_results(
    layout: SpmdLayout, buf, rank: int, outputs: Dict, states: Dict
) -> None:
    """Copy this rank's results into the regions the parent reads.

    A state the module updated in place already is its region: it is
    not copied. Each result is dropped once copied, so a rank holds at
    most one result beside its regions.
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


# ---------------------------------------------------------------------------
# Parent-side launcher.
# ---------------------------------------------------------------------------


#: the smallest share of a cast, in bytes, that placement gives a thread
#: of its own: below it, a thread costs more than it saves
_MIN_PART_BYTES = 1 << 20


def _place_regions(
    layout: SpmdLayout, program, placed: Mapping[str, np.ndarray], buf,
    kernels=None,
) -> Tuple[Dict[str, np.ndarray], int]:
    """Cast each placed input into the region of every rank holding it;
    returns the final states of the inputs no rank writes, and the FP16
    bytes ``place_f16`` wrote.

    ``placed`` holds :func:`repro.runtime.world.place_inputs` stacks,
    checked but not necessarily cast. An input with writers is cast
    straight into each rank's region, a replicated one into its first
    rank's region and copied from there. An input without is cast once
    into a private array of its global shape, its final state, and
    copied from it into each rank's region. Each cast is one step of a
    source and one or two destinations: ``np.copyto`` casts the source
    into the first, and the second copies it. A C-contiguous float64
    source of an FP16 input, when ``kernels`` (the program's kernel
    object) has ``place_f16``, is read once instead, rounded by
    ``repro_d2h`` straight into both (the state and the region, or a
    replicated input's first two places). Every cast and copy is
    cut along its leading axis into one part per CPU (parts of at least
    :data:`_MIN_PART_BYTES`); ``np.copyto`` and a ctypes call release
    the GIL, so the parts run at once, one thread per CPU, each taking
    the same part of every step, in order: a part is copied on by the
    thread that cast it.
    """
    import threading  # parent-side

    cast = kernels is not None and "place_f16" in kernels.functions
    cast_bytes = 0
    states: Dict[str, np.ndarray] = {}
    # (parts, [(source, destinations, by place_f16), ...])
    jobs: List[Tuple[int, list]] = []
    cpus = len(os.sched_getaffinity(0))
    for t in program.inputs:
        key = ("in", t.name)
        rows = placed[t.name]
        dsts = [layout.view(buf, key, r) for r in t.group]
        if isinstance(t, Tensor) and not layout.regions[key][3]:
            shape = (
                (t.group.size,) + t.shape if t.layout.is_local else t.shape
            )
            state = states[t.name] = np.empty(shape, dsts[0].dtype)
            stage = (
                [state] if t.layout.is_replicated
                else place_input(t, state, True)
            )
        else:
            stage = dsts
        if t.layout.is_replicated:
            # one cast into the first two places, the rest copy the first
            places = dsts if stage is dsts else stage + dsts
            pairs = [(rows[0], places[:2])]
            pairs += [(places[0], [dst]) for dst in places[2:]]
        else:
            pairs = [
                (row, [stage[r]] + ([dst] if stage is not dsts else []))
                for r, (dst, row) in enumerate(zip(dsts, rows))
            ]
        steps = []
        for src, out in pairs:
            src = np.asarray(src)  # a 0-d input's rows are numpy scalars
            c = cast and src.dtype == np.float64 and src.flags.c_contiguous
            c = c and out[0].dtype == np.float16 and all(
                o.flags.c_contiguous for o in out
            )
            cast_bytes += c * out[0].nbytes * len(out)
            steps.append((src, out, c))
        lead = dsts[0].shape[0] if dsts[0].ndim else 1
        parts = max(1, min(cpus, lead, dsts[0].nbytes // _MIN_PART_BYTES))
        jobs.append((parts, steps))

    errors: List[BaseException] = []

    def run(part: int) -> None:
        try:
            for parts, steps in jobs:
                if part >= parts:
                    continue
                for src, out, c in steps:
                    if parts > 1:
                        n = src.shape[0]
                        cut = slice(n * part // parts, n * (part + 1) // parts)
                        src, out = src[cut], [o[cut] for o in out]
                    if c:  # one place is passed as both
                        kernels.call(
                            "place_f16", (src,), (src.size,), (out * 2)[:2]
                        )
                        continue
                    np.copyto(out[0], src, casting="unsafe")
                    for dst in out[1:]:
                        np.copyto(dst, out[0])
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(part,))
        for part in range(1, max(parts for parts, _ in jobs))
    ]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return states, cast_bytes


def _region_bytes(layout: SpmdLayout, kind: Optional[str] = None) -> int:
    """Bytes of the ``kind`` regions of every rank holding them, or,
    without ``kind``, of every region the parent reads back."""
    return sum(
        math.prod(shape) * int(dtype[2:])
        * len(writers if kind is None else offsets)
        for (k, _), (shape, dtype, offsets, writers) in layout.regions.items()
        if kind in (None, k)
    )


def _read_results(
    layout: SpmdLayout, program, buf, states: Mapping[str, np.ndarray]
):
    """``(outputs, states)``: ``states`` (the placed final states of the
    inputs no rank writes), plus every result copied out of the regions
    of the ranks that write it.

    One pass per region read; no returned array aliases ``buf``. An
    output that is an input's final state (:func:`_aliased_outputs`) is
    that state's array.
    """

    def read(key, t) -> np.ndarray:
        writers = layout.regions[key][3]
        return assemble_rows(
            [layout.view(buf, key, r) for r in writers], t.layout, t.shape
        )

    states = dict(states)
    for t in program.inputs:
        if isinstance(t, Tensor) and t.name not in states:
            states[t.name] = read(("in", t.name), t)
    aliased = _aliased_outputs(program)
    outputs = {
        o.name: (
            states[aliased[o.name]] if o.name in aliased
            else read(("out", o.name), o)
        )
        for o in program.outputs
    }
    return outputs, states


def _segment(name: str, size: int) -> int:
    """A new ``size``-byte anonymous shared-memory file (zero-filled)."""
    fd = os.memfd_create(name)
    os.ftruncate(fd, size)
    return fd


def _start(
    entry: str, fds: Sequence[int], plane: str = "numpy",
    traced: bool = False,
) -> Tuple[subprocess.Popen, socket.socket]:
    """Start ``python -S -c entry`` holding ``fds`` and its end of a new
    socket pair (fd ``sys.argv[1]``); ``(process, the parent's end)``.
    ``sys.argv[2]`` is ``plane``, the data plane of the module the
    process will run first (``"pointer"``: it need not import numpy),
    and ``sys.argv[3:]`` is ``["traced"]`` when that launch is traced.

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
            [sys.executable, "-S", "-c", entry, str(child.fileno()), plane]
            + ["traced"] * traced,
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

    The pool holds the two segments and the *idle* ranks, the clean
    survivors of the last launch, waiting on their sockets for a spec
    (the module docstring's "Launch" and "Failure handling"). Its
    :meth:`close`, the end of a ``with`` block and its collection
    (``weakref.finalize``) release both; it can launch again after.
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
        every rank ``exec``s its ``code``, the code object of its
        ``source`` as is, on its data plane
        (``generated.plane``). Returns a
        :class:`~repro.runtime.executor.ProgramResult` whose arrays own
        their memory, and whose ``spmd_rank_kinds`` maps each rank to
        the ``(plane, numpy imported)`` it reported; the module
        docstring's "Launch" section gives the steps, and "Failure
        handling" the teardown.

        ``timeout`` bounds every rendezvous wait (default:
        :func:`scaled_default_timeout`, so slow simulated wires stretch
        the deadline instead of false-timing-out); a native compile
        happens before the ranks get their specs, so it never counts
        against it. ``soft_timeout`` is the escalation (soft-retry)
        deadline inside each wait. ``fault_plan`` injects the given
        :class:`~repro.runtime.faults.FaultPlan` into every rank. A
        failure raises :class:`~repro.runtime.rank.SpmdWorkerError`,
        whose ``dead_ranks`` (ranks that died before reporting) are the
        elastic-recovery trigger.

        ``observer`` (a :class:`~repro.observe.events.Tracer`) hears of
        the native compile, and every rank records its
        publish/wait/reduce/kernel spans into its own trace ring (see
        :mod:`repro.observe.ring`); the teardown merges the rings into
        ``observer``, failed launches included. Its ``metrics`` also count
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
        # plain floats: a numpy scalar would take numpy into the spec
        wire_s_per_mb = float(wire_s_per_mb)
        timeout = float(
            scaled_default_timeout(layout, wire_s_per_mb)
            if timeout is None else timeout
        )
        if soft_timeout is not None:
            soft_timeout = float(soft_timeout)

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
        kinds: Dict[int, Tuple[str, bool]] = {}
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
                proc, sock = _start(
                    _RANK_ENTRY, self.fds, generated.plane, traced
                )
                self.started += 1
                procs.append(proc)
                socks.append(sock)
            self.origins = origins

            # while the ranks import: the kernels, then the inputs, cast
            # by the kernels' place_f16 where the program has one
            compiled = kernels = None
            if generated.c_source:
                from repro.core.codegen import native

                compiled = native.load_kernels(generated.c_source, observer)
                kernels = (compiled.key, compiled.path, compiled.functions)
                if compiled.blas is not None:  # its GEMMs call numpy's BLAS
                    kernels += (compiled.blas,)
            # the ranks map the segment themselves: unmap the pages
            # written here, so the parent's resident set does not count
            # them too
            if traced:
                t0 = observer.now()
            with mmap.mmap(data_fd, layout.data_size) as data:
                layout.populate(data, range(world_size))
                states, cast_bytes = _place_regions(
                    layout, program, placed, data, compiled
                )
            placed = None
            if traced:
                observer.complete(
                    "place", t0, observer.now() - t0,
                    cat="repro.runtime.spmd",
                    args={"bytes": _region_bytes(layout, "in") + sum(
                        a.nbytes for a in states.values()
                    ), "cast_bytes": cast_bytes},
                )
            spec = dict(
                layout=layout.to_wire(), data_fd=data_fd,
                flags_fd=flags_fd, wire_s_per_mb=wire_s_per_mb,
                timeout=timeout, soft_timeout=soft_timeout,
                code=generated.code, kernels=kernels,
                plane=generated.plane, traced=traced,
            )
            for r, sock in enumerate(socks):
                # the rank's own view of the plan, as plain data: it
                # needs no fault module
                faults = fault_plan.for_rank(r) if fault_plan else None
                if faults is not None:
                    faults = faults.to_wire()
                try:
                    _send(sock.fileno(), dict(spec, rank=r, faults=faults))
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
                        signal_dead(layout, flags_fd, r)
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
                        kinds[r] = tuple(msg[2:])
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
                if traced:
                    t0 = observer.now()
                with mmap.mmap(data_fd, layout.data_size) as data:
                    outputs, states = _read_results(
                        layout, program, data, states
                    )
                if traced:
                    observer.complete(
                        "copy_out", t0, observer.now() - t0,
                        cat="repro.runtime.spmd",
                        args={"bytes": _region_bytes(layout)},
                    )
        finally:
            ranks = list(zip(origins, procs, socks))
            # EOF first: a rank still waiting for its spec exits at once
            _release([e for r, e in enumerate(ranks) if r not in idle])
            self.idle.extend(ranks[r] for r in sorted(idle))
            if traced and flags_fd is not None:
                # every rank has exited or closed its ring
                with mmap.mmap(flags_fd, layout.flags_bytes(True)) as flags:
                    rings = [
                        TraceRing(flags, layout.ring_offset(r))
                        for r in range(world_size)
                    ]
                    observer.extend(merge_rank_traces(
                        rings, observer.epoch, observer.metrics
                    ))
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
        # per rank, its data plane and whether it imported numpy
        result.spmd_rank_kinds = kinds
        return result
