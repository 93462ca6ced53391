"""Program-level cost model: lowered instruction stream → simulated time.

Turns a scheduled program into a task graph over simulated resources
and runs the discrete-event engine. The task structure comes from the
shared lowering (:mod:`repro.core.lower`) — the same instruction stream
the numeric executor interprets and the code generator emits:

* every launch becomes one task (GPU stream, node fabric, or IB NICs);
* launches outside chunk loops are serialized per stream, as a single
  CUDA stream would;
* chunk loops expand into chunk tasks with the producer-consumer chunk
  dependencies of Figure 9 — chunk *c* of the consumer waits for chunk
  *c* of the producer, each kernel is launched once, and a per-chunk
  spin-lock synchronization cost is charged;
* fused collectives additionally pay the §5.4 scattered-tensor bucket
  table (12 · ⌈N / 2^10⌉ bytes) as HBM traffic, and one ring allgather
  for every AllGather beyond the one their RS..AG ring covers.

This model is the autotuner's objective function and the basis of every
benchmark figure. Its prices depend only on the cluster and on module
constants (the NCCL protocol × channel sweep, the ``kernel_cost``
parameter sets), so one model instance prices each distinct kernel,
collective sweep and ring once, in one memo table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.topology import Cluster
from repro.core import ops
from repro.core.lower import (
    ChunkLoop,
    LoweredProgram,
    PackScattered,
    fabric_of,
    fused_pack_info,
    lower,
    stream_of,
)
from repro.core.program import Program
from repro.core.tensor import Const, Expr
from repro.core.transforms.plan import Kernel, KernelKind
from repro.core.transforms.schedule import Schedule
from repro.errors import CoCoNetError
from repro.nccl.config import CHANNEL_CHOICES, choose_config
from repro.nccl.cost_model import Algorithm, collective_time, p2p_time
from repro.nccl.protocol import ALL_PROTOCOLS
from repro.nccl.ring import build_ring
from repro.perf import kernel_cost
from repro.perf.engine import Engine, Task, Timeline

#: Cost of one fine-grained spin-lock wake between overlapped kernels
#: ("an efficient fine-grained spin-lock on a memory buffer", §5.3).
SPINLOCK_SYNC_OVERHEAD = 1.2e-6

#: Version of the pricing rules. Bump it whenever a rule change can
#: change which schedule wins: the autotuner files schedule-cache
#: records under it, so a record tuned by an older model misses instead
#: of serving a stale pick. Version 2 charges every AllGather of a
#: fused collective beyond the first.
COST_MODEL_VERSION = 2


def _exchange_bytes(comm: Expr) -> int:
    """Per-rank bytes a collective moves: the larger of its two sides."""
    return max(comm.inputs[0].per_rank_bytes(), comm.per_rank_bytes())


@dataclass
class KernelCost:
    """Cost decomposition of one kernel."""

    duration: float          # total, including launch and latency
    resource: str
    head: float              # non-divisible part (launch + latency + setup)

    @property
    def stream_part(self) -> float:
        return max(0.0, self.duration - self.head)


@dataclass
class CostEvaluation:
    """Result of :meth:`ProgramCostModel.evaluate`.

    When ``pruned`` is true, ``time`` is a *lower bound* on the true
    makespan, already known to be no better than the caller's cutoff —
    the full discrete-event simulation was skipped.
    """

    time: float
    pruned: bool = False


class ProgramCostModel:
    """Estimate execution time of scheduled programs on a cluster.

    Prices come from the cluster's GPU, every NCCL protocol in
    ``ALL_PROTOCOLS`` × every channel count in ``CHANNEL_CHOICES``, and
    the ``kernel_cost`` parameter sets. All of them are fixed, so every
    price is a pure function of its key, and the model keeps one memo
    table (:meth:`_memo`) over kernels, collective sweeps, latencies and
    rings. The autotuner constructs one model per tune, paying each
    distinct kernel and collective configuration once instead of once
    per candidate schedule. ``engine`` substitutes the discrete-event
    engine (the tests pass their O(n²) reference engine).
    """

    def __init__(
        self,
        cluster: Cluster,
        gemm_efficiency: float = 0.72,
        overlap_chunks: Optional[int] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.cluster = cluster
        self.gpu = cluster.node.gpu
        self.gemm_efficiency = gemm_efficiency
        self.overlap_chunks = overlap_chunks
        self.engine = engine or Engine()
        self._table: Dict[tuple, object] = {}
        self._memo_hits = 0
        self._memo_misses = 0

    # -- public API -----------------------------------------------------

    def time(self, scheduled: Union[Schedule, Program]) -> float:
        """Simulated makespan of one invocation."""
        timeline, _ = self.timeline(scheduled)
        return timeline.makespan

    def evaluate(
        self,
        scheduled: Union[Schedule, Program],
        cutoff: Optional[float] = None,
    ) -> CostEvaluation:
        """Makespan, with an optional best-so-far lower-bound prune.

        ``cutoff`` is the fastest time seen so far. Each resource
        executes its kernels serially, so the largest per-resource sum
        of (un-overlapped) kernel durations lower-bounds the makespan;
        if that bound already reaches the cutoff the candidate cannot
        win and the discrete-event run is skipped.
        """
        lowered = self._lowered_of(scheduled)
        costs = {
            k.name: self._kernel_cost_cached(k)
            for k in lowered.plan.kernels
        }
        if cutoff is not None:
            busy: Dict[str, float] = {}
            for c in costs.values():
                busy[c.resource] = busy.get(c.resource, 0.0) + c.duration
            bound = max(busy.values(), default=0.0)
            if bound >= cutoff:
                return CostEvaluation(bound, pruned=True)
        tasks = self._build_tasks(lowered, costs)
        return CostEvaluation(self.engine.run(tasks).makespan)

    def timeline(
        self, scheduled: Union[Schedule, Program]
    ) -> Tuple[Timeline, List[Task]]:
        """Full task timeline (for breakdowns and inspection)."""
        lowered = self._lowered_of(scheduled)
        tasks = self._build_tasks(lowered)
        return self.engine.run(tasks), tasks

    def kernel_breakdown(
        self, scheduled: Union[Schedule, Program]
    ) -> Dict[str, float]:
        """Per-kernel cost (unoverlapped durations) for bar charts."""
        lowered = self._lowered_of(scheduled)
        return {
            k.name: self._kernel_cost_cached(k).duration
            for k in lowered.plan.kernels
        }

    def memo_stats(self) -> Dict[str, float]:
        """Hit/miss counters of the memo table."""
        total = self._memo_hits + self._memo_misses
        return {
            "memo_hits": float(self._memo_hits),
            "memo_misses": float(self._memo_misses),
            "memo_hit_rate": self._memo_hits / total if total else 0.0,
        }

    # -- internals ------------------------------------------------------

    def _memo(self, key: tuple, compute: Callable[[], object]):
        """The value under ``key``, computed once per model instance."""
        if key in self._table:
            self._memo_hits += 1
            return self._table[key]
        self._memo_misses += 1
        value = self._table[key] = compute()
        return value

    def _lowered_of(
        self, scheduled: Union[Schedule, Program, LoweredProgram]
    ) -> LoweredProgram:
        """The shared lowered instruction stream of a scheduled program.

        Schedules cache their lowering per version; plain programs are
        lowered on the fly (they have no transformation state to key a
        cache on). A deserialized :class:`repro.core.artifact.Artifact`
        prices identically to the live lowering it was saved from — the
        DES tasks are built from the reconstructed instruction stream.
        """
        from repro.core.artifact import Artifact

        if isinstance(scheduled, Artifact):
            return scheduled.lowered()
        if isinstance(scheduled, Schedule):
            return scheduled.lowered(
                cluster=self.cluster, overlap_chunks=self.overlap_chunks
            )
        if isinstance(scheduled, LoweredProgram):
            return scheduled
        return lower(
            scheduled,
            cluster=self.cluster,
            overlap_chunks=self.overlap_chunks,
        )

    def _kernel_cost_cached(self, kernel: Kernel) -> KernelCost:
        """Kernel cost memoized by member-expression identity.

        Expressions are immutable and shared across forked schedules,
        so a kernel over the same member objects always costs the same;
        the same collective or GEMM reappearing in many candidate plans
        is priced once per tune. The stored value keeps the expression
        tuple alive, so no id in the key can be recycled.
        """
        key = ("kernel", kernel.kind, tuple(id(e) for e in kernel.exprs))
        return self._memo(
            key, lambda: (self._kernel_cost(kernel), kernel.exprs)
        )[0]

    def _kernel_cost(self, kernel: Kernel) -> KernelCost:
        kind = kernel.kind
        launch = self.gpu.kernel_launch_overhead
        if kind is KernelKind.GEMM:
            mm = kernel.exprs[0]
            bytes_touched = sum(
                i.per_rank_bytes() for i in mm.inputs
            ) + mm.per_rank_bytes()
            d = kernel_cost.gemm_time(
                mm.flops(),
                bytes_touched,
                self.gpu,
                itemsize=mm.dtype.itemsize,
                efficiency=self.gemm_efficiency,
            )
            return KernelCost(d, stream_of(kernel), launch)
        if kind is KernelKind.CONV:
            conv = kernel.exprs[0]
            n, k, ho, wo = conv.shape
            _, c, r, s = conv.inputs[1].shape
            flops = 2 * n * k * c * r * s * ho * wo
            bytes_touched = sum(
                i.per_rank_bytes() for i in conv.inputs
            ) + conv.per_rank_bytes()
            d = kernel_cost.gemm_time(
                flops, bytes_touched, self.gpu,
                itemsize=conv.dtype.itemsize,
                efficiency=self.gemm_efficiency,
            )
            return KernelCost(d, stream_of(kernel), launch)
        if kind is KernelKind.ELEMENTWISE:
            e = kernel.exprs[0]
            if isinstance(e, ops.Slice):
                return KernelCost(0.0, stream_of(kernel), 0.0)
            traffic = self._compute_traffic([e])
            d = kernel_cost.pointwise_time(
                traffic, self.gpu, kernel_cost.DEFAULT
            )
            d += self._cross_rank_reduction_cost([e])
            return KernelCost(d, stream_of(kernel), launch)
        if kind is KernelKind.FUSED_ELEMENTWISE:
            traffic = self._compute_traffic(kernel.exprs)
            d = kernel_cost.pointwise_time(
                traffic, self.gpu, kernel_cost.FUSED_REGISTER_PRESSURE
            )
            d += self._cross_rank_reduction_cost(kernel.exprs)
            return KernelCost(d, stream_of(kernel), launch)
        if kind is KernelKind.COLLECTIVE:
            comm = kernel.exprs[0]
            t, head = self._collective_cost(comm)
            return KernelCost(
                t + launch,
                fabric_of(comm, self.cluster.node.gpus_per_node),
                head + launch,
            )
        if kind is KernelKind.FUSED_COLLECTIVE:
            return self._fused_collective_cost(kernel)
        if kind in (KernelKind.P2P, KernelKind.FUSED_P2P):
            return self._p2p_cost(kernel)
        raise CoCoNetError(f"no cost rule for kernel kind {kind}")

    def _compute_traffic(self, exprs: Sequence[Expr]) -> float:
        """HBM bytes moved by a (possibly fused) compute region."""
        members = set(exprs)
        read = 0.0
        seen: set = set()
        for e in exprs:
            for i in e.inputs:
                if i in members or isinstance(i, Const) or id(i) in seen:
                    continue
                seen.add(id(i))
                read += i.per_rank_bytes()
        written = 0.0
        for e in exprs:
            externally_used = isinstance(e, ops.Update) or e is exprs[-1]
            if externally_used:
                written += e.per_rank_bytes()
        return read + written

    def _extra_operand_traffic(
        self, comp_ops: Sequence[Expr], anchor: Expr
    ) -> float:
        """HBM bytes a fused exchange adds beyond its own data path.

        The exchange streams one buffer in and one out; the largest
        external operand rides that stream, every other distinct
        external operand is an extra read.
        """
        path = set(comp_ops) | {anchor, anchor.inputs[0]}
        seen: set = set()
        external: List[int] = []
        for e in comp_ops:
            for i in e.inputs:
                if i in path or isinstance(i, Const) or id(i) in seen:
                    continue
                seen.add(id(i))
                external.append(i.per_rank_bytes())
        if not external:
            return 0.0
        return float(sum(external) - max(external))

    def _cross_rank_reduction_cost(self, exprs: Sequence[Expr]) -> float:
        """Extra AllReduce latency for Norm/ReduceTensor on sliced data."""
        extra = 0.0
        for e in exprs:
            if isinstance(e, (ops.Norm, ops.ReduceTensor)) and e.crosses_ranks:
                group = e.group
                extra += self._memo(
                    ("xrank", group.start, group.size),
                    lambda: collective_time(
                        "allreduce", 8, self.cluster, self._ring(group),
                        ALL_PROTOCOLS[0], 2, Algorithm.TREE,
                        include_setup=False,
                    ),
                )
            elif isinstance(e, (ops.Norm, ops.ReduceTensor)):
                # a full reduction is an extra pass over the data
                extra += e.inputs[0].per_rank_bytes() / self.gpu.hbm_bandwidth
        return extra

    # -- memoized collective sweeps -------------------------------------

    def _ring(self, group):
        """Per-group ring topology, built once per model instance."""
        return self._memo(
            ("ring", group.start, group.size),
            lambda: build_ring(self.cluster, group),
        )

    def _ring_min_time(
        self, kind: str, nbytes: int, group, node_size
    ) -> float:
        """Cheapest ring-algorithm time over all protocols × channels."""
        def sweep() -> float:
            ring = self._ring(group)
            return min(
                collective_time(
                    kind, nbytes, self.cluster, ring, p, c,
                    Algorithm.RING, node_size=node_size,
                )
                for p in ALL_PROTOCOLS
                for c in CHANNEL_CHOICES
            )

        return self._memo(
            ("ring_sweep", kind, nbytes, group.start, group.size, node_size),
            sweep,
        )

    def _collective_latency(self, kind: str, group, node_size) -> float:
        """Latency + setup of the cheapest same-kind near-zero-size call."""
        def sweep() -> float:
            ring = self._ring(group)
            return min(
                collective_time(
                    kind, 1, self.cluster, ring, p, c, Algorithm.RING,
                    include_setup=True, node_size=node_size,
                )
                for p in ALL_PROTOCOLS
                for c in CHANNEL_CHOICES
            )

        return self._memo(
            ("latency", kind, group.start, group.size, node_size), sweep
        )

    def _collective_cost(self, comm: Expr) -> Tuple[float, float]:
        """(time, head) of a collective; head = latency + setup part."""
        kind = comm.comm_kind
        nbytes = _exchange_bytes(comm)
        group = comm.group
        node_size = getattr(comm, "node_size", None)
        if group.size <= 1:
            return 0.0, 0.0

        def price() -> Tuple[float, float]:
            _, t = choose_config(
                kind, nbytes, self.cluster, group, node_size=node_size
            )
            # The head (non-chunkable part) is the latency + setup of
            # the cheapest same-kind call at near-zero size.
            lat = self._collective_latency(kind, group, node_size)
            return t, max(0.0, min(lat, t))

        return self._memo(
            ("collective", kind, nbytes, group.start, group.size, node_size),
            price,
        )

    def _fused_collective_cost(self, kernel: Kernel) -> KernelCost:
        """One fused collective kernel: ring exchange ∥ fused compute.

        The communication is a ring AllReduce of the ReduceScatter's
        bytes when the kernel holds RS..AG (its second half is the
        first AllGather), a ring ReduceScatter when it holds no gather,
        and the anchor collective's own ring otherwise. Every AllGather
        beyond the first is one more ring allgather of its own bytes:
        gathering ``p``, ``m`` and ``v`` costs more than gathering
        ``p`` alone, which is what lets the tuner prefer sliced
        optimizer state (Figure 6b, ``slice_state``). The compute
        streams alongside; the kernel takes the longer of the two.
        """
        comm_ops = [e for e in kernel.exprs if isinstance(e, ops.CommOp)]
        comp_ops = [e for e in kernel.exprs if not isinstance(e, ops.CommOp)]
        scatters = [e for e in comm_ops if isinstance(e, ops.ReduceScatter)]
        extra_gathers: List[Expr] = []
        if scatters:
            anchor = scatters[0]
            kind = "allreduce"
            gathers = [e for e in comm_ops if isinstance(e, ops.AllGather)]
            if not gathers:
                kind = "reducescatter"
            extra_gathers = gathers[1:]
        else:
            anchor = comm_ops[0]
            kind = anchor.comm_kind
        group = anchor.group
        node_size = getattr(anchor, "node_size", None)
        comm_time = self._ring_min_time(
            kind, _exchange_bytes(anchor), group, node_size
        )
        for ag in extra_gathers:
            comm_time += self._ring_min_time(
                "allgather", _exchange_bytes(ag), ag.group,
                getattr(ag, "node_size", None),
            )
        if kind.startswith("alltoall"):
            # A fused AllToAll applies the pointwise ops to each chunk
            # as the exchange stages it — "directly passing the output
            # of communication to following computations through
            # registers" (§2.3) — so the comm stream's own loads/stores
            # already cover the data path; only *extra* operands (a
            # bias tensor, say) add HBM traffic.
            traffic = self._extra_operand_traffic(comp_ops, anchor)
        else:
            traffic = self._compute_traffic(comp_ops) if comp_ops else 0.0
        # §5.4: the fused kernel addresses scattered tensors through a
        # bucket table of 12 · ⌈N / 2^10⌉ bytes, read during the
        # exchange — extra HBM traffic on the compute side
        pack = fused_pack_info(kernel)
        if pack is not None:
            traffic += pack.metadata_bytes
        compute_time = kernel_cost.pointwise_time(
            traffic, self.gpu, kernel_cost.FUSED_REGISTER_PRESSURE,
            include_launch=False,
        ) if traffic else 0.0
        compute_time += self._cross_rank_reduction_cost(comp_ops)
        launch = self.gpu.kernel_launch_overhead
        duration = max(comm_time, compute_time) + launch
        lat = self._collective_latency(kind, group, node_size)
        head = min(duration, lat + launch)
        return KernelCost(
            duration,
            fabric_of(anchor, self.cluster.node.gpus_per_node),
            head,
        )

    def _p2p_cost(self, kernel: Kernel) -> KernelCost:
        send = next(e for e in kernel.exprs if isinstance(e, ops.Send))
        src_group = send.inputs[0].group
        dst_group = send.group
        node = self.cluster.node
        intra = (
            src_group.start // node.gpus_per_node
            == dst_group.start // node.gpus_per_node
        )
        pairs = min(src_group.size, node.gpus_per_node)
        nbytes = send.inputs[0].per_rank_bytes()
        t = p2p_time(nbytes, self.cluster, pairs, intra)
        comp_ops = [
            e for e in kernel.exprs if not isinstance(e, ops.CommOp)
        ]
        launch = self.gpu.kernel_launch_overhead
        if comp_ops:
            traffic = self._compute_traffic(comp_ops)
            ct = kernel_cost.pointwise_time(
                traffic, self.gpu, kernel_cost.FUSED_REGISTER_PRESSURE,
                include_launch=False,
            )
            t = max(t, ct)
        lat = (node.nvlink if intra else node.nic).latency
        resource = (
            f"fabric:node{src_group.start // node.gpus_per_node}"
            if intra
            else f"ib:node{src_group.start // node.gpus_per_node}"
        )
        return KernelCost(t + launch, resource, lat + launch)

    # -- task graph construction ------------------------------------------

    def _build_tasks(
        self,
        lowered: LoweredProgram,
        costs: Optional[Dict[str, KernelCost]] = None,
    ) -> List[Task]:
        """Map the lowered instruction stream onto discrete-event tasks.

        A 1:1 translation: launches become tasks serialized per issue
        stream, chunk loops expand via :meth:`_emit_chunk_tasks`, and
        bucket-table preparations are free (built once on the CPU; their
        read traffic is already folded into the fused kernel's cost).
        All structure — dependencies, streams, chunk counts, member
        chains — comes from the lowering; nothing is re-derived here.
        """
        if costs is None:
            costs = {
                k.name: self._kernel_cost_cached(k)
                for k in lowered.plan.kernels
            }
        tasks: List[Task] = []
        completion: Dict[str, str] = {}
        prev_on_stream: Dict[str, Optional[str]] = {}
        for instr in lowered.instructions:
            if isinstance(instr, PackScattered):
                continue
            if isinstance(instr, ChunkLoop):
                self._emit_chunk_tasks(
                    instr, costs, completion, prev_on_stream, tasks
                )
                continue
            c = costs[instr.name]
            deps = [
                completion[d] for d in instr.deps if d in completion
            ]
            prev = prev_on_stream.get(instr.stream)
            if prev and prev not in deps:
                deps.append(prev)
            tasks.append(
                Task(instr.name, c.resource, c.duration, tuple(deps))
            )
            completion[instr.name] = instr.name
            prev_on_stream[instr.stream] = instr.name
        return tasks

    def _emit_chunk_tasks(
        self, loop: ChunkLoop, costs, completion, prev_on_stream, tasks
    ) -> None:
        """Expand one lowered chunk loop into per-chunk tasks (Figure 9)."""
        member_names = set(loop.member_names)
        nchunks = loop.num_chunks
        for entry in loop.entries:
            c = costs[entry.name]
            ext_deps = [
                completion[d]
                for d in entry.external_deps
                if d in completion
            ]
            stream = entry.instr.stream
            prev = prev_on_stream.get(stream)
            # Members of the group share the rank's stream conceptually
            # but are launched together and synchronize via chunk flags,
            # so don't serialize them against each other.
            prev_is_member = (
                prev is not None and prev.split("#")[0] in member_names
            )
            if prev and not prev_is_member and prev not in ext_deps:
                ext_deps.append(prev)
            chunk_dur = c.stream_part / nchunks
            last_name = None
            for ci in range(nchunks):
                name = f"{entry.name}#c{ci}"
                dur = chunk_dur + SPINLOCK_SYNC_OVERHEAD
                if ci == 0:
                    dur += c.head
                deps = []
                if ci == 0:
                    deps.extend(ext_deps)
                else:
                    deps.append(f"{entry.name}#c{ci - 1}")
                if entry.upstream is not None:
                    deps.append(f"{entry.upstream}#c{ci}")
                tasks.append(Task(name, c.resource, dur, tuple(deps)))
                last_name = name
            completion[entry.name] = last_name
            prev_on_stream[stream] = last_name
