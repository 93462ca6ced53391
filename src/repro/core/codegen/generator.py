"""Generator: scheduled program → per-rank Python module.

The emitted module mirrors the structure of CoCoNet's generated CUDA:
one program per rank with one function per kernel, plus a
``run_rank(comm, inputs)`` harness that takes this rank's placed
inputs, launches kernels in order, and returns this rank's outputs and
tensor states. Launch order, overlap orchestration and bucket metadata
all come from the shared lowering (:mod:`repro.core.lower`) — the same
instruction stream the numeric executor interprets and the cost model
prices — so nothing about the schedule is re-derived here. Collectives
are rendezvous calls on the rank's communicator (the NCCL analogue,
:class:`~repro.runtime.rank.RankCore`'s collectives over addresses);
fused collectives evaluate their operations in program order on this
rank's slice; lowered :class:`~repro.core.lower.ChunkLoop` instructions
become chunk orchestrators: a ring GEMM overlap with a producer stream
thread (Section 5.3), a tiled one calling its members in order.

The native target has one form of module: a *pointer* module, whose
kernels are C (loops, GEMMs calling numpy's own ``sgemm``, norms and
sums) and whose collectives, P2P sends and chunked publications take
addresses, not arrays; its ranks run
:class:`~repro.runtime.rank.PointerCommunicator` without numpy, as
CoCoNet's kernels and library calls run on device pointers. A program
the C does not restate gets exactly the ``spmd`` target's module.
"""

from __future__ import annotations

import math
import textwrap
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core import dfg, ops
from repro.core.codegen.loc import count_loc
from repro.core.layout import normalize_dim
from repro.core.lower import (
    ChunkLoop,
    LoweredProgram,
    PackScattered,
    lower,
)
from repro.core.process_group import ProcessGroup
from repro.core.program import Program
from repro.core.tensor import Const, Expr, Tensor
from repro.core.transforms.plan import Kernel, KernelKind
from repro.core.transforms.schedule import Schedule
from repro.errors import CodegenError
from repro.runtime.rank import box_runs

_MODULE_HEADER = '''\
"""Generated by the CoCoNet reproduction code generator (SPMD target).

This module is executed by *every rank in its own OS process*: kernels
take ``(V, T, comm)`` where ``V``/``T`` hold only this rank's values and
``comm`` is the rank's :class:`repro.runtime.spmd.SpmdCommunicator`.
Collectives are real rendezvous over shared memory; kernels whose
process group does not include this rank return immediately.
"""
import numpy as np

from repro.core.codegen import device as dev
from repro.core.process_group import ProcessGroup
'''

_POINTER_HEADER = '''\
"""Generated by the CoCoNet reproduction code generator (native target,
pointer data plane).

This module is executed by *every rank in its own OS process*, which
imports no numpy: a value in ``V``/``T`` is the address of this rank's
copy of it, and ``comm`` is the rank's
:class:`repro.runtime.rank.PointerCommunicator`. Computation is the C
functions of ``_K``; collectives are rendezvous over shared memory that
copy with ``memmove`` and fold in ``_K``'s C. Kernels whose process
group does not include this rank return immediately.
"""
# bound, before run_rank runs, to the kernel object the launcher
# compiled (GeneratedSpmdProgram.c_source), as the rank opened it
_K = None

'''


def _np_dtype(e: Expr) -> str:
    return f"np.{e.dtype.to_numpy().name}"


def _reduction(e: Expr) -> str:
    """The device-library reduction of a Norm or ReduceTensor."""
    return "norm" if isinstance(e, ops.Norm) else e.reduction


class _Emitter:
    """Line buffer with indentation management."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def block(self, text: str) -> None:
        for line in textwrap.dedent(text).splitlines():
            self.emit(line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class GeneratedSpmdProgram:
    """A generated per-rank module for
    :meth:`repro.runtime.spmd.RankPool.launch`.

    The module is not executed in this process: the launch sends its
    code object, :attr:`code`, in the spec of every rank process it
    starts; each rank ``exec``s it and binds ``run_rank`` to that rank's
    communicator. Every rank runs the text generated here, so a copy
    whose ``source`` was edited (the fault-injection tests do this)
    launches as edited.
    """

    def __init__(
        self,
        program: Program,
        source: str,
        kernel_sources: Dict[str, str],
        schedule_lines: int,
        target: str = "spmd",
        c_source: "str | None" = None,
        plane: str = "numpy",
    ) -> None:
        self.program = program
        self.source = source
        self.kernel_sources = kernel_sources
        self.schedule_lines = schedule_lines
        self.target = target
        #: C source of the compiled segments (native target, else None)
        self.c_source = c_source
        #: the rank data plane the module runs on: ``"pointer"`` (no
        #: numpy in the rank) or ``"numpy"``
        self.plane = plane
        #: ``(source, its code object)``, compiled here, which checks
        #: the syntax too
        self._compiled = (None, None)
        self.code

    @property
    def code(self):
        """The code object of :attr:`source`, which every rank ``exec``s,
        compiled again only when ``source`` is no longer the text it was
        compiled from (no ``__future__`` flag of this file applies)."""
        if self._compiled[0] != self.source:
            self._compiled = (self.source, compile(
                self.source, f"<generated-spmd:{self.program.name}>",
                "exec", dont_inherit=True,
            ))
        return self._compiled[1]

    def loc(self) -> int:
        return count_loc(self.source)

    def kernel_loc(self, name: str) -> int:
        return count_loc(self.kernel_sources[name])


#: rendered native modules memoized by artifact content_hash
_NATIVE_MEMO: Dict[str, GeneratedSpmdProgram] = {}


class CodeGenerator:
    """Emit the per-rank module for a scheduled program.

    Every rank runs the same module in its own process; kernels take
    ``(V, T, comm)``, and each collective is one call on the rank's
    communicator (:meth:`_emit_library_collective`) — the lowered
    instruction stream, executed by real communicating processes, and
    bit-identical to the lowered interpreter. ``target="spmd"``
    (default) keeps every kernel in Python: device-library calls on the
    arrays of :class:`~repro.runtime.spmd.SpmdCommunicator`.

    ``target="native"`` emits a *pointer* module when
    :meth:`_pointer_ready` finds every kernel restated in C
    (:class:`~repro.core.codegen.native.NativeEmitter`): values are
    addresses, collectives the same calls on
    :class:`~repro.runtime.rank.PointerCommunicator` (an AllToAll's move
    table and a ring overlap's chunk runs built here), and its ranks
    never import numpy. Any other program gets the ``spmd`` module.
    """

    def __init__(self, target: str = "spmd") -> None:
        if target not in ("spmd", "native"):
            raise CodegenError(f"unknown codegen target {target!r}")
        self.target = target
        self._native = target == "native"
        #: the NativeEmitter of a pointer module, per generate() call
        self._nat = None
        #: input name -> the ops writing its storage, per generate() call
        self._writers: Dict[str, List[Expr]] = {}

    @property
    def _pointer(self) -> bool:
        """Whether this generate() call emits a pointer module."""
        return self._nat is not None

    # -- public -----------------------------------------------------------

    def generate(
        self, scheduled: Union[Schedule, Program]
    ) -> GeneratedSpmdProgram:
        """Emit a module for a Schedule, Program, LoweredProgram or a
        deserialized :class:`repro.core.artifact.Artifact` — a loaded
        artifact generates the identical module a live lowering does."""
        from repro.core.artifact import Artifact

        memo_key: Optional[str] = None
        if isinstance(scheduled, Artifact):
            if self._native:
                # artifacts carry a content hash — reuse the rendered
                # module (and its C source, hence the compiled kernel
                # cache key) across repeat generations of the same
                # payload, e.g. elastic recovery or --repeat loops
                memo_key = scheduled.content_hash
                cached = _NATIVE_MEMO.get(memo_key)
                if cached is not None:
                    return cached
            lowered = scheduled.lowered()
            schedule_lines = 0
        elif isinstance(scheduled, Schedule):
            lowered = scheduled.lowered()
            schedule_lines = len(scheduled.steps)
        elif isinstance(scheduled, LoweredProgram):
            lowered = scheduled
            schedule_lines = 0
        else:
            lowered = lower(scheduled)
            schedule_lines = 0
        program = lowered.program
        self._writers = _storage_writers(program)
        self._nat = None
        if self._native:
            from repro.core.codegen.native import NativeEmitter

            nat = NativeEmitter(lowered)
            if self._pointer_ready(lowered, nat):
                self._nat = nat
        em = _Emitter()
        em.block(_POINTER_HEADER if self._pointer else _MODULE_HEADER)
        self._emit_constants(em, program)
        kernel_sources: Dict[str, str] = {}
        call_order = self._emit_kernels(em, lowered, kernel_sources)
        self._emit_run(em, program, call_order)
        c_source = self._nat.c_source() if self._pointer else None
        generated = GeneratedSpmdProgram(
            program, em.source(), kernel_sources, schedule_lines,
            target=self.target, c_source=c_source,
            plane="pointer" if self._pointer else "numpy",
        )
        if memo_key is not None:
            _NATIVE_MEMO[memo_key] = generated
        return generated

    # -- constants & groups -------------------------------------------------

    def _groups(self, program: Program) -> List[ProcessGroup]:
        seen: List[ProcessGroup] = []
        for e in dfg.topological(program.roots):
            if e.group not in seen:
                seen.append(e.group)
        return seen

    def _gname(self, group: ProcessGroup) -> str:
        return f"G{group.start}_{group.size}"

    def _emit_constants(self, em: _Emitter, program: Program) -> None:
        for g in self._groups(program):
            name = self._gname(g)
            group = f"ProcessGroup({g.start}, {g.size}, {g.world_size})"
            if not self._pointer:
                em.emit(f"{name} = {group}")
            em.emit(f"RANKS_{name} = {tuple(g.ranks)!r}")
        em.emit()

    def _pointer_ready(self, lowered: LoweredProgram, nat) -> bool:
        """Whether ``nat`` can render the program as a pointer module.

        Every op must be a C loop op (``NativeEmitter._c_able``: a
        Dropout whole or sliced on dim 0), a GEMM numpy runs as plain
        ``sgemm`` calls (``_gemm_able``), a norm or sum, a dim-0 slice
        copy, a whole dim-0 ReduceScatter, AllGather or AllReduce that
        folds by a C helper, a dim-0 AllToAll or a P2P send, on float
        values. Every Update and gathered writeback must be stored where
        its target lives, and a constant may only feed a C loop.
        """
        from repro.core.codegen.native import FOLDS

        for k in lowered.plan.kernels:
            for e in k.exprs:
                if isinstance(e, (
                    ops.CommOp, ops.Slice, ops.Norm, ops.ReduceTensor
                )) and not all(
                    _float(x) and not isinstance(x, Const)
                    for x in (e, e.inputs[0])
                ):
                    return False
                if isinstance(e, ops.ReduceScatter):
                    ok = e.reduction in FOLDS and _dim0(e.layout.dim, e)
                elif isinstance(e, ops.AllReduce):
                    ok = e.reduction in FOLDS
                elif isinstance(e, (ops.AllToAll, ops.AllToAllPhase)):
                    ok = e.dim == 0
                elif isinstance(e, ops.AllGather):
                    ok = e.dim == 0 and (
                        e.writeback is None
                        or self._gather_region(e) is not None
                    )
                elif isinstance(e, ops.Slice):
                    ok = _dim0(e.layout.dim, e)
                elif isinstance(e, ops.Update):
                    ok = nat._c_able(e) and self._update_region(e) is not None
                elif isinstance(e, ops.MatMul):
                    ok = nat._gemm_able(e)
                elif isinstance(e, (ops.Norm, ops.ReduceTensor)):
                    ok = _reduction(e) in ("norm", "+")
                else:
                    ok = isinstance(e, ops.Send) or nat._c_able(e)
                if not ok:
                    return False
        return all(_float(t) for t in lowered.program.inputs)

    # -- kernel emission ------------------------------------------------------

    def _emit_kernels(
        self,
        em: _Emitter,
        lowered: LoweredProgram,
        kernel_sources: Dict[str, str],
    ) -> List[Tuple[str, str]]:
        """Emit all kernel functions; return (function, label) call order.

        Both the kernel bodies and the launch order come straight from
        the lowered instruction stream: plain launches call their kernel
        function, chunk loops become overlap orchestrators, and the
        §5.4 bucket-table metadata of a fused exchange is documented on
        its kernel.
        """
        packs = {
            launch.name: launch.pack
            for launch in lowered.launches()
            if getattr(launch, "pack", None) is not None
        }
        for k in lowered.plan.kernels:
            start = len(em.lines)
            self._emit_kernel(em, k, packs.get(k.name))
            kernel_sources[k.name] = "\n".join(em.lines[start:])
        call_order: List[Tuple[str, str]] = []
        for instr in lowered.instructions:
            if isinstance(instr, PackScattered):
                continue  # table built once on the CPU; documented on
                # the fused kernel it feeds
            if isinstance(instr, ChunkLoop):
                start = len(em.lines)
                self._emit_overlap(em, instr)
                kernel_sources[instr.name] = "\n".join(em.lines[start:])
                call_order.append((f"kernel_{instr.name}", instr.name))
            else:
                call_order.append(
                    (f"kernel_{_sanitize(instr.name)}", instr.name)
                )
        return call_order

    def _kernel_groups(self, k: Kernel) -> List[ProcessGroup]:
        """Every process group whose ranks participate in a kernel."""
        groups: List[ProcessGroup] = []
        for e in k.exprs:
            for g in (
                (e.inputs[0].group, e.group)
                if isinstance(e, ops.Send)
                else (e.group,)
            ):
                if g not in groups:
                    groups.append(g)
        return groups

    def _emit_rank_guard(self, em: _Emitter, k: Kernel) -> None:
        """Return early on ranks outside the kernel's groups."""
        names = [f"RANKS_{self._gname(g)}" for g in self._kernel_groups(k)]
        cond = " and ".join(f"comm.rank not in {n}" for n in names)
        em.emit(f"if {cond}:")
        em.indent += 1
        em.emit("return")
        em.indent -= 1

    def _emit_kernel(
        self, em: _Emitter, k: Kernel, pack: "PackScattered | None" = None
    ) -> None:
        fn = f"kernel_{_sanitize(k.name)}"
        ops_desc = ", ".join(e.name for e in k.exprs)
        em.emit(f"def {fn}(V, T, comm):")
        em.indent += 1
        em.emit(f'"""{k.kind.value} kernel: {ops_desc}"""')
        self._emit_rank_guard(em, k)
        if pack is not None:
            em.emit(
                f"# scattered-tensor bucket table (§5.4): "
                f"{pack.num_buckets} buckets of <= 1024 elements,"
            )
            em.emit(
                f"# {pack.metadata_bytes} B of (address, offset) metadata "
                f"read by the exchange"
            )
        if k.kind in (KernelKind.GEMM, KernelKind.CONV):
            self._emit_compute_region(em, k.exprs)
        elif k.kind in (
            KernelKind.ELEMENTWISE, KernelKind.FUSED_ELEMENTWISE
        ):
            self._emit_compute_region(em, k.exprs)
        elif k.kind is KernelKind.COLLECTIVE:
            self._emit_library_collective(em, k.exprs[0])
        elif k.kind is KernelKind.FUSED_COLLECTIVE:
            self._emit_fused_collective(em, k)
        elif k.kind in (KernelKind.P2P, KernelKind.FUSED_P2P):
            self._emit_p2p(em, k)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"cannot generate kernel kind {k.kind}")
        em.indent -= 1
        em.emit()

    # -- computation ---------------------------------------------------------

    def _emit_compute_region(
        self, em: _Emitter, exprs: Sequence[Expr]
    ) -> None:
        """This rank's computation, segmented at cross-rank reductions.

        Each segment computes this rank's shard only; the cross-rank
        reductions between segments become scalar exchanges over the
        communicator.
        """
        group = exprs[-1].group
        segments: List[List[Expr]] = [[]]
        combines: List[Expr] = []
        for e in exprs:
            if (
                isinstance(e, (ops.Norm, ops.ReduceTensor))
                and e.crosses_ranks
            ):
                combines.append(e)
                segments.append([])
            else:
                segments[-1].append(e)
        em.emit("_rank = comm.rank")
        em.emit(f"_i = _rank - {group.start}")
        for si, segment in enumerate(segments):
            if segment:
                if self._nat is not None:
                    # native target: maximal runs of C-able ops in this
                    # segment become one compiled loop each
                    self._nat.emit_segment(self, em, segment)
                else:
                    for e in segment:
                        self._emit_op(em, e)
            if si < len(combines):
                self._emit_cross_rank_reduction(em, combines[si])

    def _emit_cross_rank_reduction(self, em: _Emitter, e: Expr) -> None:
        """Local reduction + AllReduce of partials (§5.2).

        This rank's float64 partial (``dev.partial``) is exchanged in
        rank order and combined by ``dev.total``, the lowered
        interpreter's own calls (in a pointer module, the C helpers that
        restate them, :meth:`NativeEmitter.emit_reduction`), so the
        result is bit-identical to ``run_lowered``.
        """
        op, g = _reduction(e), self._gname(e.group)
        em.emit("# tensor reduction over a sliced tensor: local reduce,")
        em.emit("# then an AllReduce reusing the established connections")
        if self._pointer:
            self._nat.emit_reduction(em, e, f"RANKS_{g}", e.group.size)
            return
        em.emit(f"_part = dev.partial({self._ref(e.inputs[0])}, {op!r})")
        em.emit(f"_parts = comm.exchange_scalars(_part, {g})")
        em.emit(f"V[{e.name!r}] = dev.total(_parts, {op!r}, {_np_dtype(e)})")

    def _ref(self, e: Expr) -> str:
        if isinstance(e, Const):
            return f"np.asarray({e.value!r}, dtype={_np_dtype(e)})"
        return f"V[{e.name!r}]"

    def _emit_op(self, em: _Emitter, e: Expr) -> None:
        o = ops
        out = f"V[{e.name!r}]"
        dt = _np_dtype(e)
        if isinstance(e, o.MatMul):
            em.emit("# library GEMM call (cuBLAS analogue)")
            a, b = (self._ref(x) for x in e.inputs)
            em.emit(f"{out} = dev.gemm({a}, {b}, {dt})")
        elif isinstance(e, o.Conv2D):
            em.emit("# library convolution call (cuDNN analogue)")
            em.emit(
                f"{out} = dev.conv2d({self._ref(e.inputs[0])}, "
                f"{self._ref(e.inputs[1])}, {e.stride}, {e.padding}, {dt})"
            )
        elif isinstance(e, o.Binary):
            a, b = (self._ref(x) for x in e.inputs)
            em.emit(f"{out} = dev.binary({e.op!r}, {a}, {b}, {dt})")
        elif isinstance(e, o.Unary):
            x = self._ref(e.inputs[0])
            em.emit(f"{out} = dev.unary({e.op!r}, {x}, {dt})")
        elif isinstance(e, o.Dropout):
            shape = tuple(e.shape)
            if e.layout.is_sliced:
                dim = e.layout.dim
                em.emit(
                    f"_mask = dev.dropout_mask({e.seed}, {e.prob}, "
                    f"{shape}, slice_dim={dim}, slice_index=_i, "
                    f"num_slices={e.group.size})"
                )
            else:
                em.emit(
                    f"_mask = dev.dropout_mask({e.seed}, {e.prob}, {shape})"
                )
            em.emit(
                f"{out} = dev.dropout({self._ref(e.inputs[0])}, _mask, {dt})"
            )
        elif isinstance(e, o.Cast):
            em.emit(f"{out} = {self._ref(e.inputs[0])}.astype({dt})")
        elif isinstance(e, o.Slice) and self._pointer:
            em.emit(
                f"{out} = comm.copy({self._rows(self._ref(e.inputs[0]), e)}, "
                f"{e.per_rank_bytes()})"
            )
        elif isinstance(e, o.Slice):
            dim = e.layout.dim
            em.emit(
                f"{out} = dev.slice_of({self._ref(e.inputs[0])}, "
                f"{dim}, _i, {e.group.size}, context={e.name!r}).copy()"
            )
        elif isinstance(e, (o.Norm, o.ReduceTensor)) and self._pointer:
            self._nat.emit_reduction(em, e)
        elif isinstance(e, (o.Norm, o.ReduceTensor)):
            # non-cross-rank only (cross-rank handled by segmentation)
            em.emit(
                f"{out} = dev.reduce_local({self._ref(e.inputs[0])}, "
                f"{_reduction(e)!r}, {dt})"
            )
        elif isinstance(e, o.Update):
            # the value, then its write into the target's storage array
            # itself (the rank's region under RankPool.launch), cast the
            # way astype casts
            t = e.target
            em.emit(f"{out} = {self._ref(e.inputs[0])}.astype({dt})")
            if e.layout.is_sliced and t.layout.is_replicated:
                em.emit(
                    f"dev.slice_of(T[{t.name!r}], {e.layout.dim}, _i, "
                    f"{e.group.size}, context={t.name!r})[...] = {out}"
                )
            else:
                em.emit(
                    f"np.copyto(T[{t.name!r}], {out}, casting='unsafe')"
                )
        else:  # pragma: no cover - defensive
            raise CodegenError(f"cannot emit {type(e).__name__}")

    def _writes_after(self, e: Expr, name: str) -> List[Expr]:
        """The writers of input ``name``'s storage that may run after
        ``e``: every one that is not upstream of it."""
        upstream = dfg.reachable([e])
        return [w for w in self._writers.get(name, ()) if w not in upstream]

    def _update_region(self, e: ops.Update) -> Optional[str]:
        """The address a pointer module's loop stores an Update's value
        at: ``T[target]``, or this rank's dim-0 rows of a replicated
        target, of the value's dtype and element count. ``None`` when
        the value would need a buffer of its own: another slice
        dimension, or a later write to the target other than an
        AllGather of this very value (whose own row rewrites the same
        bytes).
        """
        t = e.target
        if any(
            not (isinstance(w, ops.AllGather) and w.inputs[0] is e)
            for w in self._writes_after(e, t.name)
        ):
            return None
        if e.layout.is_sliced and t.layout.is_replicated:
            if not _dim0(e.layout.dim, e):
                return None
            return self._rows(f"T[{t.name!r}]", e)
        if math.prod(e.per_rank_shape()) != math.prod(t.per_rank_shape()):
            return None
        return f"T[{t.name!r}]"

    @staticmethod
    def _rows(ref: str, e: Expr) -> str:
        """The address of this rank's dim-0 slice ``e`` of the value at
        ``ref`` (a pointer module's ``dev.slice_of``)."""
        return f"{ref} + _i * {e.per_rank_bytes()}"

    def _gather_region(self, e: ops.AllGather) -> Optional[str]:
        """The writeback storage an AllGather can gather straight into:
        ``T[writeback]`` when it has the gather's dtype and shape and
        no write to it follows; else ``None``."""
        wb = e.writeback
        if (
            wb is None
            or wb.dtype != e.dtype
            or tuple(wb.per_rank_shape()) != tuple(e.per_rank_shape())
            or self._writes_after(e, wb.name)
        ):
            return None
        return f"T[{wb.name!r}]"

    # -- communication ---------------------------------------------------------

    def _emit_library_collective(self, em: _Emitter, e: Expr) -> None:
        """One rendezvous call on this rank's communicator: the operand
        and its ``ProcessGroup`` or, in a pointer module, its address,
        the group's ranks and its per-rank bytes; a pointer fold names
        its C helper, and a pointer AllToAll takes this rank's row of the
        move table (:func:`~repro.runtime.collectives.alltoall_moves`).
        The result is bit-identical to the lowered interpreter's.
        """
        x, g = e.inputs[0], self._gname(e.group)
        pointer = self._pointer
        args = [f"V[{x.name!r}]"]
        args += [f"RANKS_{g}", str(x.per_rank_bytes())] if pointer else [g]
        # an AllGather with a writeback gathers into its storage when it
        # can (the slot is published before any row is written, so an
        # operand aliasing its own row is safe), else copies there after
        region = (
            self._gather_region(e) if isinstance(e, ops.AllGather) else None
        )
        if isinstance(e, ops.AllGather):
            args += [] if pointer else [str(e.dim)]
            args += [] if region is None else [f"out={region}"]
        elif isinstance(e, (ops.AllToAll, ops.AllToAllPhase)) and pointer:
            from repro.runtime.collectives import alltoall_moves

            # one row of (source rank, source chunk, destination chunk)
            # per local rank, in global ranks
            g0 = e.group.start
            phase = (getattr(e, "phase", None), getattr(e, "node_size", None))
            moves = tuple(
                tuple(
                    (g0 + p, s, d)
                    for p, s, d in alltoall_moves(e.group, i, *phase)
                )
                for i in range(e.group.size)
            )
            args.append(f"{moves!r}[comm.rank - {g0}]")
        elif isinstance(e, (ops.AllToAll, ops.AllToAllPhase)):
            args.append(str(e.dim))
            if isinstance(e, ops.AllToAllPhase):
                args += [f"phase={e.phase!r}", f"node_size={e.node_size}"]
            args.append(f"context={e.name!r}")
        elif pointer:  # a fold: AllReduce or dim-0 ReduceScatter
            fold = self._nat.fold(e.reduction, x.dtype, e.dtype)
            args += [repr(fold), str(e.per_rank_elements())]
            args.append(str(e.per_rank_bytes()))
        elif isinstance(e, ops.Broadcast):
            args.append(str(e.root))
        else:  # AllReduce, ReduceScatter or Reduce
            args.append(repr(e.reduction))
            if isinstance(e, ops.ReduceScatter):
                args.append(str(e.layout.dim))
            if isinstance(e, ops.Reduce):
                args.append(str(e.root))
            args.append(_np_dtype(e))
            if isinstance(e, ops.ReduceScatter):
                args.append(f"context={e.name!r}")
        method = e.comm_kind.partition("_")[0]
        em.emit(f"# NCCL {e.comm_kind} — shared-memory rendezvous")
        em.emit(f"V[{e.name!r}] = comm.{method}({', '.join(args)})")
        if region is None and getattr(e, "writeback", None) is not None:
            em.emit(
                f"np.copyto(T[{e.writeback.name!r}], V[{e.name!r}], "
                f"casting='unsafe')"
            )

    def _emit_fused_collective(self, em: _Emitter, k: Kernel) -> None:
        """A fused collective, evaluated in program order.

        Communication runs as rendezvous and computation on this rank's
        slice — exactly how the lowered interpreter executes a fused
        block, so the generated module stays bit-identical to
        ``run_lowered``. (The real CUDA backend would unroll ring phases
        here; the ring's accumulation order is not bitwise-equal to the
        rank-order oracle.) Rank-local element-wise work that nothing
        before a collective needs waits until after it
        (:func:`_sink_past`), so it joins the computation there.
        """
        group = k.output.group
        em.emit(
            f"# Fused collective over {group!r}: compute rides the "
            f"exchange (§5.2)"
        )
        pending: List[Expr] = []
        for e in k.exprs:
            if isinstance(e, ops.CommOp):
                pending, later = _sink_past(pending, e)
                if pending:
                    self._emit_compute_region(em, pending)
                if isinstance(e, ops.Send):
                    self._emit_send(em, e)
                else:
                    self._emit_library_collective(em, e)
                pending = later
            else:
                pending.append(e)
        if pending:
            self._emit_compute_region(em, pending)

    def _emit_send(self, em: _Emitter, send: ops.Send) -> None:
        """Source ranks send to the same local rank of the peer group:
        one call on each side, the peer by index into its group's ranks;
        a pointer module passes the payload's bytes, a numpy one the
        received value's shape and dtype."""
        x = send.inputs[0]
        src, dst = x.group, send.group
        sg, dg = self._gname(src), self._gname(dst)
        em.emit(
            f"# P2P send {src!r} -> {dst!r} (same local rank, {send.dst!r})"
        )
        em.emit(f"if comm.rank in RANKS_{sg}:")
        em.indent += 1
        size = [str(x.per_rank_bytes())] if self._pointer else []
        em.emit("comm.send(" + ", ".join([
            f"V[{x.name!r}]", f"RANKS_{dg}[comm.rank - {src.start}]", *size
        ]) + ")")
        em.indent -= 1
        em.emit(f"if comm.rank in RANKS_{dg}:")
        em.indent += 1
        if not self._pointer:
            size = [repr(tuple(x.per_rank_shape())), _np_dtype(x)]
        em.emit(f"V[{send.name!r}] = comm.recv(" + ", ".join([
            f"RANKS_{sg}[comm.rank - {dst.start}]", *size
        ]) + ")")
        em.indent -= 1

    def _emit_p2p(self, em: _Emitter, k: Kernel) -> None:
        send = next(e for e in k.exprs if isinstance(e, ops.Send))
        comps = [e for e in k.exprs if not isinstance(e, ops.CommOp)]
        if comps:
            sg = self._gname(send.inputs[0].group)
            em.emit(f"if comm.rank in RANKS_{sg}:")
            em.indent += 1
            em.emit("# fused computation feeding the P2P send")
            self._emit_compute_region(em, comps)
            em.indent -= 1
        self._emit_send(em, send)

    # -- overlap -----------------------------------------------------------------

    def _emit_overlap(self, em: _Emitter, loop: ChunkLoop) -> None:
        """Emit the orchestrator of one lowered :class:`ChunkLoop`.

        The chunk structure — count, ring order, member chain — comes
        from the lowering; nothing is re-derived here.
        """
        kernels = [e.instr.kernel for e in loop.entries]
        em.emit(f"def kernel_{loop.name}(V, T, comm):")
        em.indent += 1
        names = ", ".join(k.name for k in kernels)
        em.emit(f'"""Fine-grained overlap of: {names} (§5.3)."""')
        if _ring_overlap(loop):
            self._emit_gemm_overlap(em, loop)
        else:
            self._emit_tiled_overlap(em, loop)
        em.indent -= 1
        em.emit()

    def _emit_gemm_overlap(self, em: _Emitter, loop: ChunkLoop) -> None:
        """GEMM→collective overlap with real intra-rank concurrency.

        The GEMM kernel is launched once (§5.3 publish mode — row-chunked
        BLAS is not bitwise stable), its output the staging buffer, then a
        producer *stream thread* releases its output chunks over the
        wire while the consuming collective, called on the main thread,
        ingests and reduces every chunk as soon as all ranks published
        it. The reduction is element-wise along the rank axis, so the
        chunked pipeline is bit-identical to whole-buffer execution (see
        ``RankCore.begin_chunked`` for why the consumer wants
        index-ordered, not ring-rotated, release). A pointer module
        passes each chunk as its ``(offset, nbytes)`` runs.
        """
        entry = loop.entries[0]
        mm_kernel = entry.instr.kernel
        cons_kernel = loop.entries[1].instr.kernel
        mm = mm_kernel.exprs[0]
        group = mm.group
        g = self._gname(group)
        em.emit(f"if comm.rank not in RANKS_{g}:")
        em.indent += 1
        em.emit("return")
        em.indent -= 1
        em.emit("# one kernel launch (§5.3 publish mode)")
        em.emit(f"kernel_{_sanitize(mm_kernel.name)}(V, T, comm)")
        em.emit(f"_staging = V[{mm.name!r}]")
        # The chunk-token pipeline is only sound when the consumer's
        # first exchange is a collective of the GEMM output on the
        # producer's group, which takes the token: a P2P send would
        # leave it dangling (deadlocking the site's next sequence), and
        # another collective or a cross-rank reduction's partials must
        # exchange their own data, not the staging buffer.
        exchanges = [
            e for e in cons_kernel.exprs
            if isinstance(e, ops.CommOp) or (
                isinstance(e, (ops.Norm, ops.ReduceTensor))
                and e.crosses_ranks
            )
        ]
        first = exchanges[0] if exchanges else None
        chunkable = (
            isinstance(first, ops.CommOp)
            and not isinstance(first, ops.Send)
            and first.group == group
            and first.inputs[0] is mm
        )
        if not chunkable:
            em.emit("# consumer cannot ingest chunks; publish whole")
            em.emit(f"V[{mm.name!r}] = _staging")
            em.emit(f"kernel_{_sanitize(cons_kernel.name)}(V, T, comm)")
            return
        if self._pointer:
            shape, nbytes = mm.per_rank_shape(), mm.per_rank_bytes()
            chunks = [
                box_runs(shape, mm.dtype.itemsize, entry.chunk_dim, lo, hi)
                for lo, hi in entry.bounds
            ]
            em.emit(f"V[{mm.name!r}] = comm.alloc({nbytes})")
            em.emit(
                f"_token = comm.begin_chunked(RANKS_{g}, _staging, "
                f"{nbytes}, {chunks!r})"
            )
        else:
            em.emit(f"V[{mm.name!r}] = np.empty_like(_staging)")
            em.emit(
                f"_token = comm.begin_chunked({g}, _staging, "
                f"chunk_dim={entry.chunk_dim}, bounds={entry.bounds!r})"
            )
        em.emit("# producer stream: chunk-by-chunk release over the wire")
        em.emit("_producer = comm.start_stream(")
        em.indent += 1
        em.emit(
            f"lambda: comm.publish_chunks(_token, out=V[{mm.name!r}])"
        )
        em.indent -= 1
        em.emit(")")
        em.emit("# consumer stream: the collective ingests chunk-by-chunk;")
        em.emit("# the producer is joined even when the consumer aborts")
        em.emit("try:")
        em.indent += 1
        em.emit(f"kernel_{_sanitize(cons_kernel.name)}(V, T, comm)")
        em.indent -= 1
        em.emit("finally:")
        em.indent += 1
        em.emit("comm.join_streams(_producer)")
        em.indent -= 1

    def _emit_tiled_overlap(self, em: _Emitter, loop: ChunkLoop) -> None:
        """Tile-wise overlap of a communication chain (Figure 7b).

        Members execute in dependency order. Chunk-wise execution of the
        element-wise members is bit-identical to whole-kernel execution,
        so the module calls the member kernels in order; tile
        concurrency across links is modeled by the cost model.
        """
        em.emit(f"# {loop.num_chunks} tiles hand off along the chain")
        for entry in loop.entries:
            em.emit(f"kernel_{_sanitize(entry.name)}(V, T, comm)")

    # -- run harness ----------------------------------------------------------

    def _emit_run(
        self, em: _Emitter, program: Program,
        call_order: List[Tuple[str, str]],
    ) -> None:
        """The per-rank harness: place this rank's shard, launch, return.

        Inputs arrive already placed: each is this rank's storage array
        (its region under :meth:`repro.runtime.spmd.RankPool.launch`),
        read where it lies unless :func:`_inputs_to_copy` finds a read
        that can follow an in-place write. Outputs and states are returned
        per-rank and reassembled by the launcher.
        """
        copied = _inputs_to_copy(program)
        em.emit("def run_rank(comm, inputs):")
        em.indent += 1
        em.emit('"""Execute this rank\'s shard; returns local outputs/states."""')
        em.emit("T = {}")
        em.emit("V = {}")
        em.emit("_rank = comm.rank")
        for t in program.inputs:
            g = self._gname(t.group)
            em.emit(f"if _rank in RANKS_{g}:")
            em.indent += 1
            if isinstance(t, Tensor):
                em.emit(f"T[{t.name!r}] = inputs[{t.name!r}]")
                if t.name not in copied:
                    em.emit(f"V[{t.name!r}] = T[{t.name!r}]")
                elif self._pointer:
                    em.emit(
                        f"V[{t.name!r}] = comm.copy(T[{t.name!r}], "
                        f"{t.per_rank_bytes()})"
                    )
                else:
                    em.emit(f"V[{t.name!r}] = T[{t.name!r}].copy()")
            else:
                em.emit(f"V[{t.name!r}] = inputs[{t.name!r}]")
            em.indent -= 1
        for e in dfg.topological(program.roots):
            # a pointer module's constants are its C loops' scalars
            if isinstance(e, Const) and not self._pointer:
                g = self._gname(e.group)
                em.emit(f"if _rank in RANKS_{g}:")
                em.indent += 1
                em.emit(
                    f"V[{e.name!r}] = "
                    f"np.asarray({e.value!r}, dtype={_np_dtype(e)})"
                )
                em.indent -= 1
        for fn, label in call_order:
            # kernel_span maintains the current-op error context and,
            # when tracing, records the call on the rank's kernel track
            em.emit(f"with comm.kernel_span({label!r}):")
            em.indent += 1
            em.emit(f"{fn}(V, T, comm)")
            em.indent -= 1
        em.emit("outputs = {}")
        for o in program.outputs:
            g = self._gname(o.group)
            em.emit(f"if _rank in RANKS_{g}:")
            em.indent += 1
            em.emit(f"outputs[{o.name!r}] = V[{o.name!r}]")
            em.indent -= 1
        em.emit("states = {}")
        for t in program.inputs:
            if not isinstance(t, Tensor):
                continue
            g = self._gname(t.group)
            em.emit(f"if _rank in RANKS_{g}:")
            em.indent += 1
            em.emit(f"states[{t.name!r}] = T[{t.name!r}]")
            em.indent -= 1
        em.emit("return outputs, states")
        em.indent -= 1
        em.emit()


def _ring_overlap(loop: ChunkLoop) -> bool:
    """Whether ``loop`` is the GEMM→collective ring overlap, whose
    producer stream publishes the GEMM's chunks."""
    return loop.ring and loop.entries[0].bounds is not None


def _dim0(dim: int, e: Expr) -> bool:
    """Whether ``dim`` of ``e``'s shape is its first dimension."""
    return normalize_dim(dim, len(e.shape)) == 0


def _float(e: Expr) -> bool:
    """Whether ``e``'s dtype is one the C loops compute in."""
    from repro.core.codegen.native import _cdt

    return _cdt(e.dtype) is not None


def _sink_past(
    pending: List[Expr], comm: Expr
) -> Tuple[List[Expr], List[Expr]]:
    """Split ``pending`` into the work that runs before ``comm`` and the
    element-wise work that can run after it, each in program order.

    An element-wise op moves past ``comm`` when ``comm`` does not read
    it (directly or through other ops), it reads no storage ``comm``
    writes back into, and every consumer of it in ``pending`` moves
    too. Cross-rank reductions and communication never move, so the
    communication order (and every fault site) is unchanged.
    """
    read = dfg.reachable([comm])
    wb = getattr(comm, "writeback", None)
    consumers: Dict[int, List[Expr]] = {}
    for e in pending:
        for x in e.inputs:
            consumers.setdefault(id(x), []).append(e)
    later: Set[int] = set()
    for e in reversed(pending):
        if (
            isinstance(e, (ops.Binary, ops.Unary, ops.Cast))
            and e not in read
            and all(x is not wb for x in e.inputs)
            and all(id(c) in later for c in consumers.get(id(e), ()))
        ):
            later.add(id(e))
    return (
        [e for e in pending if id(e) not in later],
        [e for e in pending if id(e) in later],
    )


def _storage_writers(program: Program) -> Dict[str, List[Expr]]:
    """Input name -> the ops that write its storage in place: its
    ``Update`` and any ``AllGather`` writing back into it."""
    writers: Dict[str, List[Expr]] = {}
    for e in program.operations:
        if isinstance(e, ops.Update):
            writers.setdefault(e.target.name, []).append(e)
        elif isinstance(e, ops.AllGather) and e.writeback is not None:
            writers.setdefault(e.writeback.name, []).append(e)
    return writers


def _inputs_to_copy(program: Program) -> Set[str]:
    """Names of the inputs ``run_rank`` must copy before any kernel runs.

    An input is written in place by its ``Update`` and by any
    ``AllGather`` writeback, and every op reading it means its value at
    program start. A reader that is a DFG ancestor of every writer runs
    before them all, so it sees that value in the storage itself; only
    an input with some other reader (or one that is itself an output)
    needs a private copy.
    """
    readers: Dict[str, List[Expr]] = {}
    for e in program.operations:
        for x in e.inputs:
            if isinstance(x, Tensor):
                readers.setdefault(x.name, []).append(e)
    outputs = {o.name for o in program.outputs}
    copy: Set[str] = set()
    for name, ws in _storage_writers(program).items():
        upstream = [dfg.reachable([w]) for w in ws]
        if name in outputs or any(
            r not in up for r in readers.get(name, ()) for up in upstream
        ):
            copy.add(name)
    return copy


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
