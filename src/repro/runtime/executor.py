"""Numeric executor: run a CoCoNet program on a simulated world.

This is the correctness oracle of the reproduction: every schedule —
original, split, reordered, fused or overlapped — must produce the same
numbers here. :meth:`Executor.run_lowered` is the one in-process
interpreter. It executes the *lowered* instruction stream of a schedule
(:mod:`repro.core.lower`): fused blocks execute as units and overlap
groups execute chunk-by-chunk, so fusion and overlap — which do not
change the DFG — are numerically exercised as scheduled (chunk
boundaries, ring release order, bucket layouts). Given a bare
:class:`~repro.core.program.Program`, it lowers it first, one kernel
per expression, so split and reorder (which rewrite the DFG) are
checked on the rewritten program directly.

Evaluation is rank-major: each expression's value is one stacked
``(group.size, *per_rank_shape)`` array, every collective is a single
numpy expression over the stack, and element-wise math runs once over
all ranks (or once *total* when every operand is provably
rank-invariant — a stride-0 replicated view). :meth:`Executor.run_spmd`
runs the same schedule as one OS process per rank and is bit-identical
(``np.array_equal`` on all outputs and tensor states): float64
accumulations happen in the same rank order over identically laid-out
buffers, matmuls issue the same per-rank BLAS calls, and dropout draws
the same counter-based masks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core import ops
from repro.core.layout import normalize_dim
from repro.core.tensor import Const, Expr, Scalar, Tensor
from repro.errors import ExecutionError
from repro.runtime import collectives, rng
from repro.runtime.world import (
    SimWorld,
    astype_stacked,
    copy_stacked,
    place_inputs,
    rank_invariant,
    replicate,
    scatter_axis,
    slice_of,
    unstack_global,
)


class ProgramResult:
    """Outputs and final tensor states of one simulated run."""

    def __init__(
        self,
        outputs: Dict[str, np.ndarray],
        tensor_states: Dict[str, np.ndarray],
    ) -> None:
        self._outputs = outputs
        self._tensor_states = tensor_states

    def output(self, name: str) -> np.ndarray:
        """Global value of a program output, reassembled across ranks."""
        try:
            return self._outputs[name]
        except KeyError:
            raise ExecutionError(
                f"no output named {name!r}; have {sorted(self._outputs)}"
            ) from None

    def tensor_state(self, name: str) -> np.ndarray:
        """Final (possibly updated) global value of an input tensor."""
        try:
            return self._tensor_states[name]
        except KeyError:
            raise ExecutionError(
                f"no input tensor named {name!r}; have "
                f"{sorted(self._tensor_states)}"
            ) from None

    @property
    def output_names(self):
        return sorted(self._outputs)


class Executor:
    """Runs programs in-process over a :class:`SimWorld` or as SPMD ranks."""

    def __init__(self) -> None:
        # Elastic recovery memo: (structural hash of the original
        # schedule, world size) -> re-lowered Artifact, so repeated
        # recoveries of the same workload skip re-lowering entirely.
        self._elastic_cache: Dict[tuple, object] = {}
        self.elastic_cache_hits = 0
        self.elastic_cache_misses = 0

    # -- real-process SPMD execution --------------------------------------

    def run_spmd(
        self,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        nranks: Optional[int] = None,
        allow_downcast: Optional[bool] = None,
        protocol: str = "Simple",
        wire_s_per_mb: float = 0.0,
        timeout: Optional[float] = None,
        soft_timeout: Optional[float] = None,
        fault_plan=None,
        tracer=None,
        elastic: bool = False,
        relower=None,
        codegen_target: str = "spmd",
    ) -> ProgramResult:
        """Run a schedule as one real OS process per rank.

        Generates the SPMD module for ``scheduled`` (the same lowered
        instruction stream every backend consumes), spawns one process
        per rank over :mod:`repro.runtime.spmd`'s shared-memory
        communicator, and reassembles the per-rank outputs. Bit-identical
        (``np.array_equal``) to :meth:`run_lowered` on every schedule —
        the communicator applies the same rank-order float64 reduction
        formulas as the vectorized collectives.

        ``nranks``, when given, must equal the program's world size (a
        program's placement is baked in at construction). ``wire_s_per_mb``
        charges simulated wire time per published megabyte, letting
        benchmarks measure real overlap; ``timeout`` bounds every
        rendezvous wait so a failing rank cannot deadlock the run, and
        ``soft_timeout`` sets the escalation (soft-retry) deadline
        inside each wait. ``fault_plan`` injects a deterministic
        :class:`~repro.runtime.faults.FaultPlan` into every rank.

        ``elastic=True`` arms recovery from dead ranks: when the run
        fails because one or more rank *processes* died (an injected
        ``die``, a kill, an OOM), the program is re-lowered for the
        surviving world size via ``relower`` and re-executed — see
        :meth:`_recover_spmd`. ``relower(world_size)`` must return
        ``(scheduled, inputs)`` (or just ``scheduled`` to reuse
        ``inputs``) built for that world size; world sizes descend from
        the survivor count until one both lowers and runs. The returned
        result carries the recovery record in ``result.elastic``.

        ``tracer``, when given (a :class:`repro.observe.Tracer`), makes
        every rank record publish/wait/reduce/kernel spans into a
        file-backed ring buffer; the rings are merged into the tracer's
        event list after the run — *including* when a rank faults, so
        the timeline of a failed run is still harvested.

        ``codegen_target="native"`` executes the same schedule with the
        compute segments compiled to C through the content-addressed
        kernel cache (:mod:`repro.core.codegen.native`): elementwise
        chains fuse into single compiled loops, GEMMs dispatch to BLAS.
        Elementwise-only programs remain bit-identical to
        :meth:`run_lowered`; GEMM-bearing programs carry the documented
        fp tolerance (BLAS reassociates the accumulation).
        """
        from repro.runtime.spmd import SpmdWorkerError

        try:
            return self._run_spmd_once(
                scheduled, inputs, nranks=nranks,
                allow_downcast=allow_downcast, protocol=protocol,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, fault_plan=fault_plan,
                tracer=tracer, codegen_target=codegen_target,
            )
        except SpmdWorkerError as exc:
            if not elastic or not exc.dead_ranks:
                raise
            return self._recover_spmd(
                exc, scheduled, inputs, relower=relower,
                allow_downcast=allow_downcast, protocol=protocol,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, tracer=tracer,
                codegen_target=codegen_target,
            )

    def _run_spmd_once(
        self,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        *,
        nranks: Optional[int] = None,
        allow_downcast: Optional[bool] = None,
        protocol: str = "Simple",
        wire_s_per_mb: float = 0.0,
        timeout: Optional[float] = None,
        soft_timeout: Optional[float] = None,
        fault_plan=None,
        tracer=None,
        codegen_target: str = "spmd",
    ) -> ProgramResult:
        """One generate-and-launch attempt (no recovery)."""
        from repro.core.codegen import CodeGenerator

        generated = CodeGenerator(
            protocol, target=codegen_target
        ).generate(scheduled)
        if tracer is None:
            return generated.run(
                inputs,
                nranks=nranks,
                allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb,
                timeout=timeout,
                soft_timeout=soft_timeout,
                fault_plan=fault_plan,
            )

        import shutil
        import tempfile

        from repro.observe.ring import merge_rank_traces

        trace_dir = tempfile.mkdtemp(prefix="repro_trace_")
        t_base = tracer.now()
        try:
            return generated.run(
                inputs,
                nranks=nranks,
                allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb,
                timeout=timeout,
                soft_timeout=soft_timeout,
                fault_plan=fault_plan,
                trace_dir=trace_dir,
            )
        finally:
            tracer.extend(
                merge_rank_traces(
                    trace_dir, base=t_base, metrics=tracer.metrics
                )
            )
            shutil.rmtree(trace_dir, ignore_errors=True)

    def _recover_spmd(
        self,
        exc,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        *,
        relower,
        allow_downcast: Optional[bool],
        protocol: str,
        wire_s_per_mb: float,
        timeout: Optional[float],
        soft_timeout: Optional[float],
        tracer,
        codegen_target: str = "spmd",
    ) -> ProgramResult:
        """Reform the group over the survivors and re-execute.

        A simulated process group cannot shrink in place — the layouts
        of the global tensors (and hence the per-rank shards, slot
        sizes, even the schedule's chunk bounds) are functions of the
        world size. So recovery *re-lowers*: world sizes descend from
        the survivor count, ``relower(ws)`` rebuilds the scheduled
        program (and inputs) at each size, and the first size that both
        lowers and runs wins. The re-run injects no faults: the plan
        described the failed step, and the survivors' re-execution is
        the recovery being measured. ``result.elastic`` records the
        failed ranks, attempted sizes and recovery wall-clock; outputs
        are bit-identical to a direct run at the recovered world size
        (same relowered program, same deterministic backend).

        Re-lowered programs are memoized on the executor as serialized
        artifacts keyed by (structural hash of the original schedule,
        recovered world size): a second recovery of the same workload at
        the same world size skips the lower-and-serialize step entirely
        and executes the cached artifact (``relower`` is still called —
        it also rebuilds the inputs for the smaller world). The hit is
        recorded in ``result.elastic["artifact_cache"]`` and in the
        executor's ``elastic_cache_hits`` / ``elastic_cache_misses``
        counters.
        """
        import time as _time

        from repro.core import artifact as artifact_mod
        from repro.errors import CoCoNetError

        program = scheduled.program if hasattr(scheduled, "program") \
            else scheduled
        world_size = program.inputs[0].group.world_size
        dead = list(exc.dead_ranks)
        if relower is None:
            raise type(exc)(
                f"{exc}\nelastic recovery needs relower=: pass a "
                f"callable rebuilding the workload for a smaller world "
                f"size (rank(s) {dead} died)",
                context=exc.context,
                dead_ranks=dead,
            ) from exc
        t0 = _time.perf_counter()
        base_sig = artifact_mod.as_artifact(scheduled).structural_hash
        attempted = []
        last_error: Exception = exc
        for ws in range(world_size - len(dead), 0, -1):
            attempted.append(ws)
            try:
                relowered = relower(ws)
            except CoCoNetError:
                continue  # the workload cannot be built at this size
            if isinstance(relowered, tuple):
                scheduled2, inputs2 = relowered
            else:
                scheduled2, inputs2 = relowered, inputs
            cached = self._elastic_cache.get((base_sig, ws))
            if cached is not None:
                self.elastic_cache_hits += 1
                cache_state = "hit"
            else:
                self.elastic_cache_misses += 1
                cache_state = "miss"
                cached = artifact_mod.as_artifact(scheduled2)
                self._elastic_cache[(base_sig, ws)] = cached
            if tracer is not None:
                tracer.instant(
                    "elastic-relower", cat="fault",
                    args={
                        "world_size": ws, "dead_ranks": dead,
                        "artifact_cache": cache_state,
                    },
                )
            try:
                result = self._run_spmd_once(
                    cached, inputs2,
                    allow_downcast=allow_downcast, protocol=protocol,
                    wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                    soft_timeout=soft_timeout, tracer=tracer,
                    codegen_target=codegen_target,
                )
            except CoCoNetError as err:
                last_error = err
                continue
            result.elastic = {
                "failed_ranks": dead,
                "original_world": world_size,
                "world_size": ws,
                "attempted": attempted,
                "recovery_seconds": _time.perf_counter() - t0,
                "cause": str(exc).splitlines()[0],
                "artifact_cache": cache_state,
            }
            return result
        raise last_error

    # -- lowered (plan-aware) execution ----------------------------------

    def run_lowered(
        self,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        allow_downcast: Optional[bool] = None,
        tracer=None,
    ) -> ProgramResult:
        """Interpret the lowered instruction stream of a schedule.

        Interprets the :class:`~repro.core.lower.LoweredProgram`: fused
        blocks execute as units, and overlap groups execute
        chunk-by-chunk — pure element-wise members genuinely compute per
        chunk, single-call kernels (GEMMs, library collectives) release
        their output chunks in order (ring order for the Figure 9
        GEMM→collective pair), and side-effecting members run whole once
        their producers finish. Chunked execution is bit-identical to
        whole-kernel execution, so this is the correctness oracle *of
        the scheduled execution*, chunk boundaries included.

        ``scheduled`` may be a Schedule, a Program, an Artifact or an
        already lowered program. ``tracer``, when a
        :class:`repro.observe.Tracer`, receives typed *timed*
        :class:`~repro.observe.SpanEvent` records for every instruction
        and chunk (see :class:`repro.observe.LoweredRunRecorder`).
        """
        from repro.core.artifact import Artifact
        from repro.core.lower import (
            ChunkLoop,
            LoweredProgram,
            PackScattered,
            lower,
        )
        from repro.core.transforms.schedule import Schedule

        if isinstance(scheduled, Artifact):
            lowered = scheduled.lowered()
        elif isinstance(scheduled, LoweredProgram):
            lowered = scheduled
        elif isinstance(scheduled, Schedule):
            lowered = scheduled.lowered()
        else:
            lowered = lower(scheduled)
        program = lowered.program
        world = SimWorld(place_inputs(program, inputs, allow_downcast))

        from repro.core import dfg

        values: Dict[Expr, np.ndarray] = {}
        for e in dfg.topological(program.roots):
            if isinstance(e, Const):
                values[e] = replicate(
                    np.asarray(e.value, dtype=e.dtype.to_numpy()),
                    e.group.size,
                )
            elif isinstance(e, (Tensor, Scalar)):
                values[e] = world.state(e.name)

        rec = None
        if tracer is not None:
            from repro.observe.record import LoweredRunRecorder

            rec = LoweredRunRecorder(tracer)

        for instr in lowered.instructions:
            if isinstance(instr, PackScattered):
                if rec is not None:
                    rec.pack(instr)
                continue
            if isinstance(instr, ChunkLoop):
                self._run_chunk_loop(instr, values, world, rec)
                continue
            t0 = rec.now() if rec is not None else 0.0
            for e in instr.exprs:
                values[e] = self._eval(e, values, world)
            if rec is not None:
                rec.launch(instr, t0)

        outputs = {
            o.name: unstack_global(values[o], o.layout, o.shape)
            for o in program.outputs
        }
        states = {
            t.name: world.read_back(t)
            for t in program.inputs
            if isinstance(t, Tensor)
        }
        return ProgramResult(outputs, states)

    def _run_chunk_loop(self, loop, values, world: SimWorld, rec) -> None:
        """Execute one overlap group chunk-by-chunk.

        A member advances at most one chunk per sweep, so producer and
        consumer chunks interleave exactly as the chunk-synchronized
        schedule prescribes (chunk *c* of a consumer only ever reads
        chunk *c* of its producer after it was published).
        """
        loop_t0 = rec.now() if rec is not None else 0.0
        states = {
            entry.name: {
                "staging": None, "buffer": None, "buffers": {},
                "published": 0, "done": False,
            }
            for entry in loop.entries
        }
        by_name = {entry.name: entry for entry in loop.entries}

        def producers_done(entry) -> bool:
            return all(states[d]["done"] for d in entry.group_deps)

        def chunk_available(entry, c: int) -> bool:
            for d in entry.group_deps:
                st = states[d]
                if st["done"]:
                    continue
                p = by_name[d]
                if p.mode == "whole" or p.chunk_dim != entry.chunk_dim:
                    return False
                if st["published"] <= c:
                    return False
            return True

        step = 0
        limit = (loop.num_chunks + 2) * (len(loop.entries) + 2)
        while not all(st["done"] for st in states.values()):
            progressed = False
            for entry in loop.entries:
                st = states[entry.name]
                if st["done"]:
                    continue
                if entry.mode == "whole":
                    if not producers_done(entry):
                        continue
                    t0 = rec.now() if rec is not None else 0.0
                    for e in entry.instr.exprs:
                        values[e] = self._eval(e, values, world)
                    st["done"] = True
                    progressed = True
                    if rec is not None:
                        rec.whole(entry, step, t0)
                elif entry.mode == "publish":
                    t0 = rec.now() if rec is not None else 0.0
                    if st["staging"] is None:
                        if not producers_done(entry):
                            continue
                        # one kernel launch: a single evaluation (one
                        # BLAS call per rank, one exchange); the chunk
                        # loop below releases its result chunk-by-chunk
                        e = entry.instr.exprs[0]
                        staging = self._eval(e, values, world)
                        st["staging"] = staging
                        st["buffer"] = np.empty(
                            staging.shape, staging.dtype
                        )
                        values[e] = st["buffer"]
                    c = st["published"]
                    self._publish_chunk(entry, loop, st, c)
                    st["published"] = c + 1
                    progressed = True
                    if rec is not None:
                        rec.chunk(entry, step, c, t0)
                    if st["published"] == loop.num_chunks:
                        st["done"] = True
                else:  # "compute": genuinely chunked element-wise math
                    c = st["published"]
                    if not chunk_available(entry, c):
                        continue
                    t0 = rec.now() if rec is not None else 0.0
                    self._compute_chunk(entry, values, st["buffers"], c)
                    st["published"] = c + 1
                    progressed = True
                    if rec is not None:
                        rec.chunk(entry, step, c, t0)
                    if st["published"] == loop.num_chunks:
                        st["done"] = True
            if not progressed or step > limit:
                raise ExecutionError(
                    f"chunk loop {loop.name} stalled at step {step}"
                )
            step += 1
        if rec is not None:
            rec.chunkloop_end(loop, loop_t0)

    @staticmethod
    def _publish_chunk(entry, loop, st, c: int) -> None:
        """Release chunk ``c`` of a singly-launched kernel's output."""
        staging, buf = st["staging"], st["buffer"]
        axis = entry.chunk_dim + 1  # stacked coords: axis 0 is the rank
        bounds = entry.bounds
        if bounds[-1][1] != staging.shape[axis]:
            raise ExecutionError(
                f"{entry.name}: lowered chunk bounds cover "
                f"{bounds[-1][1]} elements but the value has extent "
                f"{staging.shape[axis]} on dim {entry.chunk_dim}"
            )
        if loop.ring:
            # rank i releases chunk (i + step) % n — the order the ring
            # collective consumes them (Figure 9)
            for i in range(staging.shape[0]):
                ci = (i + c) % loop.num_chunks
                lo, hi = bounds[ci]
                sl = [slice(None)] * buf.ndim
                sl[0] = i
                sl[axis] = slice(lo, hi)
                buf[tuple(sl)] = staging[tuple(sl)]
        else:
            lo, hi = bounds[c]
            sl = [slice(None)] * buf.ndim
            sl[axis] = slice(lo, hi)
            buf[tuple(sl)] = staging[tuple(sl)]

    def _compute_chunk(self, entry, values, buffers, c: int) -> None:
        """Evaluate chunk ``c`` of a pure element-wise kernel.

        Element-wise operations are per-element, so computing on input
        slices is bit-identical to slicing the whole-kernel result —
        this member genuinely executes chunk-by-chunk.
        """
        o = ops
        lo, hi = entry.bounds[c]
        extent = entry.bounds[-1][1]
        for e in entry.instr.exprs:
            if isinstance(e, o.Binary):
                fn = _BINARY_FNS[e.op]
            elif isinstance(e, o.Unary):
                fn = _UNARY_FNS[e.op]
            elif isinstance(e, o.Cast):
                fn = lambda x: x  # noqa: E731
            else:  # pragma: no cover - excluded by the lowering
                raise ExecutionError(
                    f"cannot chunk-execute {type(e).__name__}"
                )
            args = [values[i] for i in e.inputs]
            dtype = e.dtype.to_numpy()
            target = max(a.ndim - 1 for a in args)
            aligned = []
            for a in args:
                while a.ndim - 1 < target:
                    a = a[:, None]
                aligned.append(a)
            sliced = []
            for a in aligned:
                if a.shape[1] == extent:
                    sliced.append(a[:, lo:hi])
                elif a.shape[1] == 1:
                    sliced.append(a)
                else:
                    raise ExecutionError(
                        f"{e.name}: operand extent {a.shape[1]} does not "
                        f"match the chunked extent {extent}"
                    )
            chunk = np.asarray(fn(*sliced)).astype(dtype)
            buf = buffers.get(e)
            if buf is None:
                full_shape = (
                    chunk.shape[:1] + (extent,) + chunk.shape[2:]
                )
                buf = np.empty(full_shape, dtype)
                buffers[e] = buf
                values[e] = buf
            buf[:, lo:hi] = chunk

    # -- expression evaluation ------------------------------------------

    def _eval(
        self, e: Expr, values: Dict[Expr, np.ndarray], world: SimWorld
    ) -> np.ndarray:
        o = ops
        if isinstance(e, o.AllReduce):
            return collectives.allreduce_vectorized(
                values[e.inputs[0]], e.group, e.reduction, e.dtype.to_numpy()
            )
        if isinstance(e, o.ReduceScatter):
            return collectives.reducescatter_vectorized(
                values[e.inputs[0]],
                e.group,
                e.reduction,
                normalize_dim(e.layout.dim, len(e.shape)),
                e.dtype.to_numpy(),
                context=e.name,
            )
        if isinstance(e, o.AllGather):
            gathered = collectives.allgather_vectorized(
                values[e.inputs[0]], e.group, e.dim
            )
            if e.writeback is not None:
                wb = e.writeback
                world.set_state(
                    wb.name,
                    replicate(
                        gathered[0].astype(wb.dtype.to_numpy()), e.group.size
                    ),
                )
            return gathered
        if isinstance(e, o.AllToAllPhase):
            fn = (
                collectives.alltoall_intra_vectorized
                if e.phase == "intra"
                else collectives.alltoall_inter_vectorized
            )
            return fn(
                values[e.inputs[0]], e.group, e.dim, e.node_size,
                context=e.name,
            )
        if isinstance(e, o.AllToAll):
            return collectives.alltoall_vectorized(
                values[e.inputs[0]], e.group, e.dim, context=e.name
            )
        if isinstance(e, o.Reduce):
            return collectives.reduce_vectorized(
                values[e.inputs[0]], e.group, e.reduction, e.root,
                e.dtype.to_numpy(),
            )
        if isinstance(e, o.Broadcast):
            return collectives.broadcast_vectorized(
                values[e.inputs[0]], e.group, e.root
            )
        if isinstance(e, o.Send):
            # Same local rank in the destination group: row order carries
            # over unchanged.
            return copy_stacked(values[e.inputs[0]])
        if isinstance(e, o.MatMul):
            return self._matmul(e, values)
        if isinstance(e, o.Conv2D):
            return self._conv(e, values)
        if isinstance(e, o.Binary):
            return self._elementwise(e, values, _BINARY_FNS[e.op])
        if isinstance(e, o.Unary):
            return self._elementwise(e, values, _UNARY_FNS[e.op])
        if isinstance(e, o.Dropout):
            return self._eval_dropout(e, values)
        if isinstance(e, o.Cast):
            return self._elementwise(e, values, lambda x: x)
        if isinstance(e, o.Slice):
            return self._eval_slice(e, values)
        if isinstance(e, (o.Norm, o.ReduceTensor)):
            return self._eval_reduction(e, values)
        if isinstance(e, o.Update):
            return self._eval_update(e, values, world)
        raise ExecutionError(f"cannot execute {type(e).__name__}")

    def _elementwise(self, e: Expr, values, fn) -> np.ndarray:
        args = [values[i] for i in e.inputs]
        n = e.group.size
        dtype = e.dtype.to_numpy()
        if all(rank_invariant(a) for a in args):
            # Replicated math: compute one representative rank, O(1) fan
            # back out. Per-rank results on identical inputs are
            # identical, so this is bit-equal to the stacked evaluation.
            out = np.asarray(fn(*[a[0] for a in args])).astype(dtype)
            return replicate(out, n)
        target = max(a.ndim - 1 for a in args)
        aligned = []
        for a in args:
            # Insert singleton axes after the rank axis so per-rank
            # broadcasting (trailing-dim aligned) is preserved.
            while a.ndim - 1 < target:
                a = a[:, None]
            aligned.append(a)
        return np.asarray(fn(*aligned)).astype(dtype)

    def _matmul(self, e: ops.MatMul, values) -> np.ndarray:
        a, b = (values[i] for i in e.inputs)
        n = e.group.size
        dtype = e.dtype.to_numpy()
        if rank_invariant(a) and rank_invariant(b):
            out = np.asarray(np.matmul(a[0], b[0])).astype(dtype)
            return replicate(out, n)
        # Per-rank BLAS calls (not one batched matmul) keep the result
        # bit-identical to the SPMD ranks' per-rank gemms.
        rows = [
            np.asarray(
                np.matmul(
                    np.ascontiguousarray(a[i]), np.ascontiguousarray(b[i])
                )
            ).astype(dtype)
            for i in range(n)
        ]
        return np.stack(rows, axis=0)

    def _conv(self, e: ops.Conv2D, values) -> np.ndarray:
        x, w = (values[i] for i in e.inputs)
        n = e.group.size
        dtype = e.dtype.to_numpy()
        if rank_invariant(x) and rank_invariant(w):
            out = _conv2d(x[0], w[0], e.stride, e.padding).astype(dtype)
            return replicate(out, n)
        rows = [
            _conv2d(x[i], w[i], e.stride, e.padding).astype(dtype)
            for i in range(n)
        ]
        return np.stack(rows, axis=0)

    def _eval_dropout(self, e: ops.Dropout, values) -> np.ndarray:
        x = values[e.inputs[0]]
        n = e.group.size
        dtype = e.dtype.to_numpy()
        if e.layout.is_sliced:
            # Per-rank masks are slices of the full counter-based mask —
            # the sliced-dropout determinism the reorder transform relies
            # on — so one mask evaluation serves all ranks.
            dim = normalize_dim(e.layout.dim, len(e.shape))
            full_mask = rng.dropout_mask(e.seed, e.prob, e.shape)
            mask = scatter_axis(full_mask, dim, n, context=e.name)
            return (x.astype(np.float64) * mask).astype(dtype)
        mask = rng.dropout_mask(e.seed, e.prob, e.shape)
        if rank_invariant(x):
            out = (x[0].astype(np.float64) * mask).astype(dtype)
            return replicate(out, n)
        return (x.astype(np.float64) * mask).astype(dtype)

    def _eval_slice(self, e: ops.Slice, values) -> np.ndarray:
        dim = normalize_dim(e.layout.dim, len(e.shape))
        x = values[e.inputs[0]]
        n = e.group.size
        if rank_invariant(x):
            return np.ascontiguousarray(
                scatter_axis(x[0], dim, n, context=e.name)
            )
        rows = [
            slice_of(x[i], dim, i, n, context=e.name) for i in range(n)
        ]
        return np.stack(rows, axis=0)

    def _eval_reduction(self, e: Expr, values) -> np.ndarray:
        x = values[e.inputs[0]]
        n = e.group.size
        is_norm = isinstance(e, ops.Norm)
        op = "+" if is_norm else e.reduction
        dtype = e.dtype.to_numpy()
        local_reduce = _local_reduce_fn(is_norm, op)

        if e.crosses_ranks:
            # Row-wise partials in rank order, combined exactly as the
            # SPMD ranks' scalar exchange does, keep the float64
            # accumulation bit-identical.
            partials = [local_reduce(x[i]) for i in range(n)]
            total = _combine_partials(partials, is_norm, op)
            return replicate(np.asarray(total).astype(dtype), n)
        if rank_invariant(x):
            v = local_reduce(x[0])
            if is_norm:
                v = np.sqrt(v)
            return replicate(np.asarray(v).astype(dtype), n)
        rows = []
        for i in range(n):
            v = local_reduce(x[i])
            if is_norm:
                v = np.sqrt(v)
            rows.append(np.asarray(v).astype(dtype))
        return np.stack(rows, axis=0)

    def _eval_update(
        self, e: ops.Update, values, world: SimWorld
    ) -> np.ndarray:
        target = e.target
        dtype = target.dtype.to_numpy()
        out = astype_stacked(values[e.inputs[0]], dtype)
        if e.layout.is_sliced and target.layout.is_replicated:
            # Write each rank's slice into a fresh copy of the full-size
            # storage (np.array materializes replicated views); the rest
            # becomes valid when an AllGather writes back.
            dim = normalize_dim(e.layout.dim, len(e.shape))
            full = np.array(world.state(target.name))
            n = e.group.size
            extent = full.shape[dim + 1] // n
            for i in range(n):
                idx = [slice(None)] * full.ndim
                idx[0] = i
                idx[dim + 1] = slice(i * extent, (i + 1) * extent)
                full[tuple(idx)] = out[i]
            world.set_state(target.name, full)
        else:
            # Replace, never mutate: snapshots taken earlier stay valid.
            world.set_state(target.name, out)
        return out


def _local_reduce_fn(is_norm: bool, op: str):
    def local_reduce(x: np.ndarray) -> np.ndarray:
        x64 = x.astype(np.float64)
        if is_norm:
            return np.sum(x64 * x64)
        if op == "+":
            return np.sum(x64)
        if op == "*":
            return np.prod(x64)
        if op == "max":
            return np.max(x64)
        return np.min(x64)

    return local_reduce


def _combine_partials(partials, is_norm: bool, op: str):
    if op in ("+", "*"):
        total = np.sum(partials) if op == "+" else np.prod(partials)
    elif op == "max":
        total = np.max(partials)
    else:
        total = np.min(partials)
    if is_norm:
        total = np.sqrt(total)
    return total


def _conv2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct 2-D convolution (correctness reference; small sizes only)."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    ho = (x.shape[2] - r) // stride + 1
    wo = (x.shape[3] - s) // stride + 1
    out = np.zeros((n, k, ho, wo), dtype=np.float64)
    x64 = x.astype(np.float64)
    w64 = w.astype(np.float64)
    for i in range(r):
        for j in range(s):
            patch = x64[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride]
            out += np.einsum("nchw,kc->nkhw", patch, w64[:, :, i, j])
    return out


_BINARY_FNS = {
    "+": lambda a, b: a.astype(np.float64) + b.astype(np.float64),
    "-": lambda a, b: a.astype(np.float64) - b.astype(np.float64),
    "*": lambda a, b: a.astype(np.float64) * b.astype(np.float64),
    "/": lambda a, b: a.astype(np.float64) / b.astype(np.float64),
    "pow": lambda a, b: np.power(a.astype(np.float64), b.astype(np.float64)),
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
}

_UNARY_FNS = {
    "sqrt": lambda x: np.sqrt(x.astype(np.float64)),
    "rsqrt": lambda x: 1.0 / np.sqrt(x.astype(np.float64)),
    "relu": lambda x: np.maximum(x, 0),
    "tanh": lambda x: np.tanh(x.astype(np.float64)),
    "exp": lambda x: np.exp(x.astype(np.float64)),
    "abs": lambda x: np.abs(x),
}
