"""Numeric executor: run a CoCoNet program on a simulated world.

This is the correctness oracle of the reproduction: every schedule —
original, split, reordered, fused or overlapped — must produce the same
numbers here. :meth:`Executor.run_lowered` is the one in-process
interpreter. It executes the *lowered* instruction stream of a schedule
(:mod:`repro.core.lower`): fused blocks execute as units, so fusion —
which does not change the DFG — is numerically exercised as scheduled
(bucket layouts included). Overlap groups run their members whole, in
order, as the generated module does: chunked execution is element-wise
or a rank-order fold, bit-identical to whole execution, and the only
real chunking (a GEMM's output released to its collective chunk by
chunk) lives in ``SpmdCommunicator.begin_chunked``. Given a bare
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
buffers, GEMMs and convolutions are the generated kernels' own library
calls (:func:`repro.core.codegen.device.gemm`, ``conv2d``) issued per
rank, and dropout draws the same counter-based masks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core import ops
from repro.core.codegen.device import conv2d, gemm
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
        surviving world size via ``relower`` and re-executed by the
        surviving rank processes — see :meth:`_recover_spmd`.
        ``relower(world_size)`` must return ``(scheduled, inputs)`` (or
        just ``scheduled`` to reuse ``inputs``) built for that world
        size; world sizes descend from the survivor count until one
        both lowers and runs. The returned result carries the recovery
        record in ``result.elastic``.

        ``tracer``, when given (a :class:`repro.observe.Tracer`), makes
        every rank record publish/wait/reduce/kernel spans into a
        file-backed ring buffer; the rings are merged into the tracer's
        event list after the run — *including* when a rank faults, so
        the timeline of a failed run is still harvested.

        ``codegen_target="native"`` executes the same schedule with the
        elementwise chains compiled to C through the content-addressed
        kernel cache (:mod:`repro.core.codegen.native`), each fused into
        one loop. GEMMs stay the device library's ``dev.gemm``, as on
        every tier, so results are bit-identical to :meth:`run_lowered`.
        """
        from repro.runtime.spmd import RankPool, SpmdWorkerError

        # one owner of the rank processes and segments across the
        # failed launch and every recovery attempt
        pool = RankPool() if elastic else None
        try:
            return self._run_spmd_once(
                scheduled, inputs, nranks=nranks,
                allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, fault_plan=fault_plan,
                tracer=tracer, codegen_target=codegen_target, pool=pool,
            )
        except SpmdWorkerError as exc:
            if not elastic or not exc.dead_ranks:
                raise
            return self._recover_spmd(
                exc, scheduled, inputs, relower=relower,
                allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, tracer=tracer,
                codegen_target=codegen_target, pool=pool,
            )
        finally:
            if pool is not None:
                pool.close()

    def _run_spmd_once(
        self,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        *,
        nranks: Optional[int] = None,
        allow_downcast: Optional[bool] = None,
        wire_s_per_mb: float = 0.0,
        timeout: Optional[float] = None,
        soft_timeout: Optional[float] = None,
        fault_plan=None,
        tracer=None,
        codegen_target: str = "spmd",
        pool=None,
    ) -> ProgramResult:
        """One generate-and-launch attempt (no recovery) on ``pool``'s
        ranks (a :class:`~repro.runtime.spmd.RankPool`), if given."""
        import shutil
        import tempfile

        from repro.core.codegen import CodeGenerator
        from repro.observe.ring import merge_rank_traces
        from repro.runtime import spmd

        generated = CodeGenerator(target=codegen_target).generate(scheduled)
        trace_dir = None
        if tracer is not None:
            trace_dir = tempfile.mkdtemp(prefix="repro_trace_")
            t_base = tracer.now()
        try:
            return spmd.launch(
                generated,
                inputs,
                nranks=nranks,
                allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb,
                timeout=timeout,
                soft_timeout=soft_timeout,
                fault_plan=fault_plan,
                trace_dir=trace_dir,
                observer=tracer,
                pool=pool,
            )
        finally:
            if trace_dir is not None:
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
        wire_s_per_mb: float,
        timeout: Optional[float],
        soft_timeout: Optional[float],
        tracer,
        codegen_target: str = "spmd",
        pool,
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
        the recovery being measured. Outputs are bit-identical to a
        direct run at the recovered world size (same relowered program,
        same deterministic backend).

        Every attempt runs on ``pool``, the
        :class:`~repro.runtime.spmd.RankPool` of the failed launch:
        survivors that aborted cleanly are still running, with numpy and
        ``repro`` imported, so an attempt adopts them, renumbered in rank
        order, in the same two segments resized, and starts a fresh rank
        only for a shortfall (a survivor that did not close cleanly, or
        died while it waited). ``run_spmd`` closes the pool once the
        descent ends. ``result.elastic`` records the failed ranks, the
        attempted sizes, the recovery wall-clock, ``reused_ranks`` (the
        original ranks of the adopted processes) and ``spawned`` (the
        ranks started during the recovery).

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
        started = pool.started
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
            ts = tracer.now() if tracer is not None else 0.0
            try:
                result = self._run_spmd_once(
                    cached, inputs2,
                    allow_downcast=allow_downcast,
                    wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                    soft_timeout=soft_timeout, tracer=tracer,
                    codegen_target=codegen_target, pool=pool,
                )
            except CoCoNetError as err:
                last_error = err
                continue
            finally:
                # how the attempt's ranks were sourced is known once
                # the launch adopted them; the instant marks its start
                ranks = {
                    "reused_ranks": [o for o in pool.origins if o is not None],
                    "spawned": pool.started - started,
                }
                if tracer is not None:
                    tracer.instant(
                        "elastic-relower", cat="fault", ts=ts,
                        args={
                            "world_size": ws, "dead_ranks": dead,
                            "artifact_cache": cache_state, **ranks,
                        },
                    )
            result.elastic = {
                "failed_ranks": dead,
                "original_world": world_size,
                "world_size": ws,
                "attempted": attempted,
                "recovery_seconds": _time.perf_counter() - t0,
                "cause": str(exc).splitlines()[0],
                "artifact_cache": cache_state,
                **ranks,
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
        blocks execute as units, and each member of an overlap group's
        :class:`~repro.core.lower.ChunkLoop` runs whole, in entry order,
        as the generated module calls it. Chunked execution is
        bit-identical to whole execution, so this is the correctness
        oracle every tier is compared against; the chunk-by-chunk
        release of a GEMM's output to its collective happens only in the
        SPMD ranks (``SpmdCommunicator.begin_chunked``).

        ``scheduled`` may be a Schedule, a Program, an Artifact or an
        already lowered program. ``tracer``, when a
        :class:`repro.observe.Tracer`, receives one timed ``launch``
        :class:`~repro.observe.SpanEvent` per kernel launch (overlap
        members included) and one ``pack`` instant per
        :class:`~repro.core.lower.PackScattered`.
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

        for instr in lowered.instructions:
            if isinstance(instr, PackScattered):
                if tracer is not None:
                    tracer.instant(
                        instr.name, cat="pack", tid=instr.stream,
                        args={
                            "num_buckets": instr.num_buckets,
                            "metadata_bytes": instr.metadata_bytes,
                        },
                    )
                continue
            # an overlap group's members run whole, in entry order, as
            # the generated module calls them
            launches = (
                [entry.instr for entry in instr.entries]
                if isinstance(instr, ChunkLoop) else [instr]
            )
            for launch in launches:
                t0 = tracer.now() if tracer is not None else 0.0
                for e in launch.exprs:
                    values[e] = self._eval(e, values, world)
                if tracer is not None:
                    tracer.complete(
                        launch.name, t0, tracer.now() - t0, cat="launch",
                        tid=launch.stream, args={"deps": list(launch.deps)},
                    )

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
            return self._library_call(e, values, gemm, e.dtype.to_numpy())
        if isinstance(e, o.Conv2D):
            return self._library_call(
                e, values, conv2d, e.stride, e.padding, e.dtype.to_numpy()
            )
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

    @staticmethod
    def _library_call(e: Expr, values, fn, *args) -> np.ndarray:
        """``fn(a, b, *args)``, the generated kernels' own library call,
        once when both operands are rank-invariant, else once per rank:
        per-rank calls (not one batched matmul) keep a GEMM bit-identical
        to the SPMD ranks' per-rank BLAS calls."""
        a, b = (values[i] for i in e.inputs)
        n = e.group.size
        if rank_invariant(a) and rank_invariant(b):
            return replicate(fn(a[0], b[0], *args), n)
        rows = [
            fn(np.ascontiguousarray(a[i]), np.ascontiguousarray(b[i]), *args)
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
