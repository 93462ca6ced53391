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
chunk) lives in ``RankCore.begin_chunked``. Given a bare
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
buffers, every op's numerics is the generated kernels' own device
function (:mod:`repro.core.codegen.device`: ``binary``, ``unary``,
``dropout``, the reductions, ``gemm`` and ``conv2d``, the last two
issued per rank), and dropout draws the same counter-based masks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core import ops
from repro.core.codegen import device
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
    """Outputs and final tensor states of one simulated run.

    Every array is the result's own: none aliases an input or a buffer
    of the run. After ``run_spmd``, an output that is an input's final
    state (an ``AllGather`` written back into it, like ``ag_p_`` into
    ``p`` of the fused Adam) is one array for both :meth:`output` and
    :meth:`tensor_state`; no other two arrays share memory.
    """

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
    """Runs programs in-process over a :class:`SimWorld` or as SPMD ranks.

    Every :meth:`run_spmd` call launches on the executor's one
    :class:`~repro.runtime.spmd.RankPool`, which keeps the shared-memory
    segments between calls. :meth:`close` (also the end of a ``with``
    block) releases them, and so does collecting the executor, which
    collects its pool.
    """

    def __init__(self) -> None:
        from repro.runtime.spmd import RankPool

        self._pool = RankPool()

    def close(self) -> None:
        """Release the rank pool: its segments and idle ranks. A later
        :meth:`run_spmd` launches on it again."""
        self._pool.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- real-process SPMD execution --------------------------------------

    def run_spmd(
        self,
        scheduled,
        inputs: Mapping[str, np.ndarray],
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

        The program's world size is the number of rank processes (a
        program's placement is baked in at construction).
        ``wire_s_per_mb`` charges simulated wire time per published
        megabyte, letting benchmarks measure real overlap; ``timeout``
        bounds every rendezvous wait so a failing rank cannot deadlock
        the run, and ``soft_timeout`` sets the escalation (soft-retry)
        deadline inside each wait. ``fault_plan`` injects a deterministic
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
        every rank record publish/wait/reduce/kernel spans into a ring
        buffer in the launch's shared memory; the rings are merged into
        the tracer's event list, on its clock, after the run —
        *including* when a rank faults, so the timeline of a failed run
        is still harvested.

        ``codegen_target="native"`` executes the same schedule as a
        pointer module, its computation compiled to C through the
        content-addressed kernel cache (:mod:`repro.core.codegen.native`)
        and its ranks without numpy, when the C restates every kernel
        (else as the ``spmd`` module); results are bit-identical to
        :meth:`run_lowered`.

        Every call launches on the executor's one
        :class:`~repro.runtime.spmd.RankPool`: the parent places the
        inputs into the data segment the last call left, and a recovery
        adopts the failed launch's clean survivors. Every output and
        tensor state is copied out before the call returns. A call that
        raises closes the pool first, so a failed call leaves no
        segment and no rank process behind; a successful one leaves the
        two segments to :meth:`close`.
        """
        from repro.core.codegen import CodeGenerator
        from repro.runtime.rank import SpmdWorkerError

        def attempt(scheduled, inputs, **kwargs) -> ProgramResult:
            generated = CodeGenerator(target=codegen_target).generate(
                scheduled
            )
            return self._pool.launch(
                generated, inputs, allow_downcast=allow_downcast,
                wire_s_per_mb=wire_s_per_mb, timeout=timeout,
                soft_timeout=soft_timeout, observer=tracer, **kwargs,
            )

        first = self._pool.started  # the origin of this call's first rank
        try:
            try:
                return attempt(scheduled, inputs, fault_plan=fault_plan)
            except SpmdWorkerError as exc:
                if not elastic or not exc.dead_ranks:
                    raise
                return self._recover_spmd(
                    exc, scheduled, inputs, attempt, relower=relower,
                    tracer=tracer, first=first,
                )
        except BaseException:
            # the traceback keeps this executor alive: release the
            # segments and idle ranks now, not when it is collected
            self._pool.close()
            raise

    def _recover_spmd(
        self,
        exc,
        scheduled,
        inputs: Mapping[str, np.ndarray],
        attempt,
        *,
        relower,
        tracer,
        first: int,
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

        Every attempt is ``attempt(scheduled, inputs)``, the call's
        generate-and-launch on the executor's
        :class:`~repro.runtime.spmd.RankPool`, which the failed launch
        ran on too: survivors that aborted cleanly are still running,
        with numpy and ``repro`` imported, so an attempt adopts them,
        renumbered in rank order, in the same two segments resized, and
        starts a fresh rank only for a shortfall (a survivor that did
        not close cleanly, or died while it waited). ``result.elastic``
        records the failed ranks, the attempted sizes, the recovery
        wall-clock, ``reused_ranks`` (the adopted processes' ranks in
        the failed launch, whose first rank has origin ``first``) and
        ``spawned`` (the ranks started during the recovery), both
        counted within this call however many steps the pool ran before.

        Every attempt runs what ``relower`` returned for it: a later
        recovery that re-lowers differently runs its own schedule.
        Native kernels are keyed by their fused structure, so an attempt
        that fuses like an earlier launch loads them from the
        in-process memo instead of compiling.
        """
        import time as _time

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
        pool = self._pool
        t0 = _time.perf_counter()
        started = pool.started
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
            ts = tracer.now() if tracer is not None else 0.0
            try:
                result = attempt(scheduled2, inputs2)
            except CoCoNetError as err:
                last_error = err
                continue
            finally:
                # how the attempt's ranks were sourced is known once
                # the launch adopted them; the instant marks its start
                ranks = {
                    "reused_ranks": [
                        o - first for o in pool.origins if o < started
                    ],
                    "spawned": pool.started - started,
                }
                if tracer is not None:
                    tracer.instant(
                        "elastic-relower", cat="fault", ts=ts,
                        args={
                            "world_size": ws, "dead_ranks": dead, **ranks,
                        },
                    )
            result.elastic = {
                "failed_ranks": dead,
                "original_world": world_size,
                "world_size": ws,
                "attempted": attempted,
                "recovery_seconds": _time.perf_counter() - t0,
                "cause": str(exc).splitlines()[0],
                **ranks,
            }
            # a failed attempt's traceback holds this frame: drop it, so
            # the cycle does not keep this executor (and its pool) alive
            last_error = None
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
        SPMD ranks (``RankCore.begin_chunked``).

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
        if isinstance(e, (o.AllToAll, o.AllToAllPhase)):
            return collectives.alltoall_vectorized(
                values[e.inputs[0]], e.group, e.dim,
                getattr(e, "phase", None), getattr(e, "node_size", None),
                context=e.name,
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
            return self._library_call(
                e, values, device.gemm, e.dtype.to_numpy()
            )
        if isinstance(e, o.Conv2D):
            return self._library_call(
                e, values, device.conv2d, e.stride, e.padding,
                e.dtype.to_numpy(),
            )
        if isinstance(e, o.Binary):
            return self._elementwise(e, values, device.binary, e.op)
        if isinstance(e, o.Unary):
            return self._elementwise(e, values, device.unary, e.op)
        if isinstance(e, o.Dropout):
            return self._eval_dropout(e, values)
        if isinstance(e, o.Cast):
            return self._elementwise(e, values, lambda x, dt: x.astype(dt))
        if isinstance(e, o.Slice):
            return self._eval_slice(e, values)
        if isinstance(e, (o.Norm, o.ReduceTensor)):
            return self._eval_reduction(e, values)
        if isinstance(e, o.Update):
            return self._eval_update(e, values, world)
        raise ExecutionError(f"cannot execute {type(e).__name__}")

    def _elementwise(self, e: Expr, values, fn, *op) -> np.ndarray:
        """``fn(*op, *operands, dtype)``, which rounds to ``e``'s dtype."""
        args = [values[i] for i in e.inputs]
        dtype = e.dtype.to_numpy()
        if all(rank_invariant(a) for a in args):
            # Replicated math: compute one representative rank, O(1) fan
            # back out. Per-rank results on identical inputs are
            # identical, so this is bit-equal to the stacked evaluation.
            rows = [a[0] for a in args]
            return replicate(fn(*op, *rows, dtype), e.group.size)
        target = max(a.ndim - 1 for a in args)
        aligned = []
        for a in args:
            # Insert singleton axes after the rank axis so per-rank
            # broadcasting (trailing-dim aligned) is preserved.
            while a.ndim - 1 < target:
                a = a[:, None]
            aligned.append(a)
        return fn(*op, *aligned, dtype)

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
            return device.dropout(x, mask, dtype)
        mask = rng.dropout_mask(e.seed, e.prob, e.shape)
        if rank_invariant(x):
            return replicate(device.dropout(x[0], mask, dtype), n)
        return device.dropout(x, mask, dtype)

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
        op = "norm" if isinstance(e, ops.Norm) else e.reduction
        dtype = e.dtype.to_numpy()
        if e.crosses_ranks:
            # Row-wise partials in rank order, combined exactly as the
            # SPMD ranks' scalar exchange does, keep the float64
            # accumulation bit-identical.
            parts = [device.partial(x[i], op) for i in range(n)]
            return replicate(device.total(parts, op, dtype), n)
        if rank_invariant(x):
            return replicate(device.reduce_local(x[0], op, dtype), n)
        return np.stack(
            [device.reduce_local(x[i], op, dtype) for i in range(n)], axis=0
        )

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

