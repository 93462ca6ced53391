"""Lowering: one pass from an execution plan to a shared instruction IR.

CoCoNet's premise is that a single representation should drive both the
computation and the communication of a distributed program. Before this
module existed the repo had quietly rebuilt the abstraction barrier
internally: the numeric executor interpreted the raw DFG and ignored the
execution plan, while the code generator and the program cost model each
re-derived kernel grouping, stream assignment and overlap chunking from
the plan on their own. :func:`lower` is the one place that walk happens
now. It turns a :class:`~repro.core.transforms.plan.ExecutionPlan` into a
:class:`LoweredProgram` — a linear, explicitly ordered instruction stream
with per-instruction stream assignment, dependency edges, chunk shapes /
slice bounds, and scattered-tensor bucket metadata (§5.4) — and the
three consumers interpret it:

* the numeric runtime (``Executor.run_lowered``) executes the stream,
  running fused blocks as units and overlap members whole, in order
  (chunked execution is bit-identical to whole execution; the SPMD
  ranks' ``RankCore.begin_chunked`` is where chunks are really
  released);
* the code generator emits one function per instruction and derives the
  overlap orchestrators from :class:`ChunkLoop` instead of re-walking
  the plan;
* the program cost model builds its discrete-event tasks directly from
  the stream, and the autotuner's structural dedup signature is computed
  on the lowered instructions.

Instruction kinds
-----------------

``LocalCompute``
    A GEMM / convolution / (fused) element-wise kernel launch.
``CollectiveStep``
    A communication kernel launch — a plain library collective, a fused
    collective (ring phases with computation riding the exchange), or a
    P2P send. Fused collectives carry a :class:`PackScattered` handle.
``PackScattered``
    The one-time bucket-table preparation of §5.4 for a fused
    collective over scattered tensors: ``12 · ⌈N / 2^10⌉`` bytes of
    (tensor address, offset) metadata.
``ChunkLoop``
    One overlap group: an ordered list of member launches executed at
    chunk granularity, with per-member chunk mode, slice bounds, and the
    chunk-to-chunk dependency chain of Figure 9.

Chunk modes
-----------

Overlap members execute in one of three modes, chosen statically here so
every consumer agrees on the chunking:

``"compute"``
    Chunked computation: pure element-wise kernels, priced as chunk
    ``c`` computed from chunk ``c`` of their inputs. Element-wise math
    is per-element, so running them whole, as the generated module and
    ``run_lowered`` do, is bit-identical.
``"publish"``
    The kernel is *launched once* (GEMMs issue a single BLAS call per
    rank — BLAS row-blocking is not bitwise invariant under partitioning
    of the M dimension, so per-chunk GEMM calls would diverge from the
    DFG oracle) but its output chunks are released to consumers in
    order, ring order for the Figure 9 GEMM→collective pair.
``"whole"``
    Kernels with side effects or non-chunkable structure (fused
    collectives, writeback AllGathers, dropout) run as one unit at the
    first step where every in-group producer has completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import ops
from repro.core.layout import normalize_dim
from repro.core.program import Program
from repro.core.tensor import Expr
from repro.core.transforms.plan import ExecutionPlan, Kernel, KernelKind
from repro.errors import CoCoNetError
from repro.scattered.bucketing import BUCKET_ELEMENTS, bucket_memory_overhead

#: Kernel kinds that occupy a communication resource.
COMM_KINDS = (
    KernelKind.COLLECTIVE,
    KernelKind.FUSED_COLLECTIVE,
    KernelKind.P2P,
    KernelKind.FUSED_P2P,
)

#: Overlap tile buffer: NCCL-style 8 slots × 4 MiB. Communication-chain
#: overlap groups keep only a few tiles in flight (Figure 7b shows
#: T0–T2); the chunk count follows from the exchanged bytes over this.
OVERLAP_BUFFER_BYTES = 8 * 4 * 1024 * 1024

Bounds = Tuple[Tuple[int, int], ...]


@dataclass
class Launch:
    """One kernel launch: the base instruction of the lowered stream.

    ``stream`` is the issuing GPU stream (kernels on one stream
    serialize); ``resource`` is the hardware resource the launch
    occupies for cost purposes — the GPU stream for computation, the
    node fabric or NIC group for communication. ``deps`` names every
    producer kernel whose output this launch reads.
    """

    name: str
    kernel: Kernel
    stream: str
    resource: str
    deps: Tuple[str, ...] = ()

    @property
    def exprs(self) -> Tuple[Expr, ...]:
        return self.kernel.exprs

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}, stream={self.stream}, "
            f"deps={list(self.deps)})"
        )


@dataclass
class LocalCompute(Launch):
    """A computation kernel: GEMM, convolution, or (fused) element-wise."""


@dataclass
class PackScattered:
    """Bucket-table preparation for a fused collective (§5.4).

    Scattered (non-contiguous) tensors are addressed through buckets of
    at most 2^10 elements; each bucket costs 12 bytes of metadata (a
    64-bit tensor address and a 32-bit offset). The table is built once
    on the CPU, but the fused kernel *reads* it, so the cost model
    charges ``metadata_bytes`` of extra HBM traffic to the exchange.
    """

    name: str
    target: str             # the fused-collective kernel this feeds
    stream: str
    num_elements: int       # per-rank elements addressed through buckets
    num_buckets: int
    metadata_bytes: int


@dataclass
class CollectiveStep(Launch):
    """A communication kernel: library collective, fused exchange or P2P."""

    pack: Optional[PackScattered] = None


@dataclass
class ChunkEntry:
    """One member of an overlap group, with its chunk execution mode."""

    instr: Launch
    #: chain predecessor inside the group (chunk c waits for its chunk c)
    upstream: Optional[str]
    #: producers outside the group (kernel names)
    external_deps: Tuple[str, ...]
    #: producers inside the group (kernel names, data edges)
    group_deps: Tuple[str, ...]
    mode: str = "whole"     # "compute" | "publish" | "whole"
    #: chunked per-rank data dimension (valid for compute/publish)
    chunk_dim: Optional[int] = None
    #: half-open per-chunk slice bounds along ``chunk_dim``
    bounds: Optional[Bounds] = None

    @property
    def name(self) -> str:
        return self.instr.name


@dataclass
class ChunkLoop:
    """One overlap group lowered to a chunk-synchronized loop.

    ``ring`` marks the Figure 9 GEMM→collective pair, where the producer
    releases 2-D chunks in ring order (rank *i* starts at chunk *i*).
    """

    name: str
    entries: List[ChunkEntry]
    num_chunks: int
    ring: bool

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def __repr__(self) -> str:
        members = ", ".join(self.member_names)
        kind = "ring" if self.ring else "tiled"
        return (
            f"ChunkLoop({self.name}, {self.num_chunks} chunks, {kind}: "
            f"{members})"
        )


Instruction = Union[Launch, PackScattered, ChunkLoop]


@dataclass
class LoweredProgram:
    """The linear instruction stream all three backends consume."""

    program: Program
    plan: ExecutionPlan
    instructions: List[Instruction] = field(default_factory=list)
    #: lazily built name -> Launch index; consumers call :meth:`launch_of`
    #: once per kernel, which a linear rescan would make quadratic
    _launch_index: Optional[Dict[str, Launch]] = field(
        default=None, repr=False, compare=False
    )

    def launches(self) -> List[Launch]:
        """Every kernel launch, flattening chunk loops."""
        out: List[Launch] = []
        for instr in self.instructions:
            if isinstance(instr, ChunkLoop):
                out.extend(e.instr for e in instr.entries)
            elif isinstance(instr, Launch):
                out.append(instr)
        return out

    def launch_of(self, kernel_name: str) -> Launch:
        if self._launch_index is None:
            self._launch_index = {l.name: l for l in self.launches()}
        try:
            return self._launch_index[kernel_name]
        except KeyError:
            raise CoCoNetError(
                f"no launch for kernel {kernel_name!r}"
            ) from None

    def chunk_loops(self) -> List[ChunkLoop]:
        return [i for i in self.instructions if isinstance(i, ChunkLoop)]

    def describe(self) -> str:
        lines = []
        for instr in self.instructions:
            if isinstance(instr, ChunkLoop):
                members = " <-> ".join(instr.member_names)
                kind = "ring" if instr.ring else "tiled"
                lines.append(
                    f"chunk_loop {instr.name} [{instr.num_chunks} chunks, "
                    f"{kind}]: {members}"
                )
                for e in instr.entries:
                    lines.append(
                        f"  {e.name}: {e.mode} @ {e.instr.stream} "
                        f"-> {e.instr.resource}"
                    )
            elif isinstance(instr, PackScattered):
                lines.append(
                    f"pack_scattered {instr.name}: {instr.num_buckets} "
                    f"buckets, {instr.metadata_bytes} B metadata"
                )
            else:
                lines.append(
                    f"{type(instr).__name__.lower()} {instr.name} "
                    f"@ {instr.stream} -> {instr.resource}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Derivation helpers (shared facts, derived once here).
# ---------------------------------------------------------------------------


def stream_of(kernel: Kernel) -> str:
    """The issuing GPU stream of a kernel (one per rank group origin)."""
    return f"gpu:{kernel.output.group.start}"


def fabric_of(comm: Expr, gpus_per_node: Optional[int]) -> str:
    """The communication resource a collective occupies.

    With a known node width the name distinguishes the intra-node
    fabric from cross-node groups, matching the cost model's historical
    resource naming; without one, a generic per-group channel is used.
    """
    group = comm.group
    if gpus_per_node is None:
        return f"comm:g{group.start}x{group.size}"
    first = group.start // gpus_per_node
    last = (group.start + group.size - 1) // gpus_per_node
    if first == last:
        return f"fabric:node{first}"
    return f"fabric:g{group.start}x{group.size}"


def fused_pack_info(kernel: Kernel) -> Optional[PackScattered]:
    """§5.4 bucket metadata for a fused-collective kernel.

    The exchange anchor (the ReduceScatter of an RS..AG ring, else the
    first communication op) addresses its input through the bucket
    table; the table costs 12 bytes per 2^10-element bucket.
    """
    comm = [e for e in kernel.exprs if isinstance(e, ops.CommOp)]
    if not comm:
        return None
    scatters = [e for e in comm if isinstance(e, ops.ReduceScatter)]
    anchor = scatters[0] if scatters else comm[0]
    src = anchor.inputs[0]
    elems = src.per_rank_bytes() // max(1, src.dtype.itemsize)
    if elems <= 0:
        return None
    buckets = -(-elems // BUCKET_ELEMENTS)
    return PackScattered(
        name=f"pack_{kernel.name}",
        target=kernel.name,
        stream=stream_of(kernel),
        num_elements=elems,
        num_buckets=buckets,
        metadata_bytes=bucket_memory_overhead(elems),
    )


def _per_rank_extent(e: Expr, dim: int) -> int:
    """Extent of a per-rank value of ``e`` along data dimension ``dim``."""
    shape = e.shape
    extent = shape[dim]
    lay = e.layout
    if lay.is_sliced and normalize_dim(lay.dim, len(shape)) == dim:
        extent //= e.group.size
    return extent


def _even_bounds(extent: int, parts: int) -> Optional[Bounds]:
    if parts <= 0 or extent % parts != 0:
        return None
    step = extent // parts
    return tuple((i * step, (i + 1) * step) for i in range(parts))


_CHUNKABLE_POINTWISE = (ops.Binary, ops.Unary, ops.Cast)


def _num_chunks(
    kernels: Sequence[Kernel], overlap_chunks: Optional[int]
) -> int:
    """Chunk count of an overlap group (the historical cost-model rule)."""
    comm_members = [k for k in kernels if k.kind in COMM_KINDS]
    first_comm = comm_members[0] if comm_members else None
    if overlap_chunks is not None:
        return overlap_chunks
    if kernels[0].kind is KernelKind.GEMM:
        # GEMM producer: 2-D chunks in ring order, one per rank
        # (Figure 9)
        anchor = first_comm if first_comm is not None else kernels[0]
        return min(32, max(4, anchor.output.group.size))
    if first_comm is not None:
        # Communication chain (Figure 7b): tiles are communication
        # buffers handed from stage to stage; NCCL's buffer-slot
        # recycling keeps only a few tiles in flight.
        nbytes = max(
            first_comm.output.per_rank_bytes(),
            first_comm.exprs[0].inputs[0].per_rank_bytes(),
        )
        return min(4, max(2, -(-nbytes // OVERLAP_BUFFER_BYTES)))
    return 8


def _entry_chunking(
    kernel: Kernel,
    nchunks: int,
    ring_producer: bool,
    common_extent: Optional[int],
) -> Tuple[str, Optional[int], Optional[Bounds]]:
    """(mode, chunk_dim, bounds) of one overlap member.

    Ring producers chunk the second-to-last output dimension (the GEMM
    M rows of Figure 9); everything else chunks the leading per-rank
    data dimension, and only while every chunked member of the group
    agrees on that extent — mismatched extents would let a consumer
    read an unpublished region.
    """
    out = kernel.output
    if ring_producer:
        if len(out.shape) < 2:
            return "whole", None, None
        dim = len(out.shape) - 2
        bounds = _even_bounds(_per_rank_extent(out, dim), nchunks)
        if bounds is None:
            return "whole", None, None
        return "publish", dim, bounds
    if not out.shape:
        return "whole", None, None
    extent = _per_rank_extent(out, 0)
    if common_extent is not None and extent != common_extent:
        return "whole", None, None
    bounds = _even_bounds(extent, nchunks)
    if bounds is None:
        return "whole", None, None
    if kernel.kind in (KernelKind.GEMM, KernelKind.CONV):
        # single BLAS/library call, chunk-wise release of the result
        return ("publish", 0, bounds) if len(kernel.exprs) == 1 else (
            "whole", None, None
        )
    if kernel.kind in (KernelKind.ELEMENTWISE, KernelKind.FUSED_ELEMENTWISE):
        chunkable = all(
            isinstance(e, _CHUNKABLE_POINTWISE)
            and e.shape
            and _per_rank_extent(e, 0) == extent
            for e in kernel.exprs
        )
        return ("compute", 0, bounds) if chunkable else ("whole", None, None)
    if kernel.kind is KernelKind.COLLECTIVE and len(kernel.exprs) == 1:
        e = kernel.exprs[0]
        # writeback gathers mutate tensor storage: keep them atomic
        if getattr(e, "writeback", None) is None:
            return "publish", 0, bounds
    return "whole", None, None


# ---------------------------------------------------------------------------
# The lowering pass.
# ---------------------------------------------------------------------------


def lower(
    scheduled,
    cluster=None,
    overlap_chunks: Optional[int] = None,
) -> LoweredProgram:
    """Lower a schedule (or a plain program) to a :class:`LoweredProgram`.

    ``cluster`` (anything with ``.node.gpus_per_node``) refines the
    communication resource names; the instruction structure itself is
    cluster-independent. ``overlap_chunks`` overrides the per-group
    chunk count, mirroring the cost model's historical knob.
    """
    from repro.core.transforms.schedule import Schedule

    if isinstance(scheduled, LoweredProgram):
        return scheduled
    if isinstance(scheduled, Schedule):
        sched = scheduled
    elif isinstance(scheduled, Program):
        sched = Schedule(scheduled)
    else:
        raise CoCoNetError(
            f"cannot lower {type(scheduled).__name__}; expected a "
            f"Schedule, Program or LoweredProgram"
        )
    plan = sched.plan()
    program = sched.program
    gpus_per_node = (
        cluster.node.gpus_per_node if cluster is not None else None
    )

    producer: Dict[int, str] = {}
    for k in plan.kernels:
        for e in k.exprs:
            producer[id(e)] = k.name
    kernel_deps: Dict[str, Tuple[str, ...]] = {}
    for k in plan.kernels:
        deps: List[str] = []
        for e in k.exprs:
            for i in e.inputs:
                p = producer.get(id(i))
                if p and p != k.name and p not in deps:
                    deps.append(p)
        kernel_deps[k.name] = tuple(deps)

    def make_launch(k: Kernel) -> Launch:
        stream = stream_of(k)
        if k.kind in COMM_KINDS:
            comm = next(e for e in k.exprs if isinstance(e, ops.CommOp))
            resource = fabric_of(comm, gpus_per_node)
            pack = (
                fused_pack_info(k)
                if k.kind is KernelKind.FUSED_COLLECTIVE
                else None
            )
            return CollectiveStep(
                k.name, k, stream, resource, kernel_deps[k.name], pack
            )
        return LocalCompute(k.name, k, stream, stream, kernel_deps[k.name])

    plan_index = {k.name: i for i, k in enumerate(plan.kernels)}

    def _span_closure(names: set) -> set:
        """Close a member set over its plan span.

        The loop spans the plan region from the first to the last
        member. A non-member kernel inside that span that (transitively)
        depends on a member sits on the group's producer→consumer path
        — e.g. the ReduceScatter of an ``overlap(mm, ar); split(ar)``
        script, where the group holds the MatMul and the AllGather —
        and must execute inside the loop; it joins as a member, which
        also models the real chunk pipeline (MM→RS→AG) instead of
        dropping the dependency. Span kernels independent of the group
        keep their position before the loop.
        """
        included = set(names)
        while True:
            positions = [plan_index[n] for n in included]
            lo, hi = min(positions), max(positions)
            grew = False
            for k in plan.kernels[lo : hi + 1]:
                if k.name in included:
                    continue
                if any(d in included for d in kernel_deps[k.name]):
                    included.add(k.name)
                    grew = True
            if not grew:
                return included

    def _merged_groups() -> List[set]:
        """Span-closed overlap groups, merged when their regions share
        kernels — one kernel must belong to exactly one chunk loop, and
        two groups whose lowered regions interleave are in reality one
        chunk-synchronized pipeline."""
        merged: List[set] = []
        for group in plan.overlap_groups:
            acc = _span_closure(set(group))
            keep: List[set] = []
            for m in merged:
                if m & acc:
                    acc |= m
                else:
                    keep.append(m)
            merged = keep + [acc]
        # merging can widen a span over new interposed kernels; close
        # and re-merge until the partition is stable
        while True:
            before = {frozenset(m) for m in merged}
            regrouped: List[set] = []
            for acc in (_span_closure(m) for m in merged):
                keep: List[set] = []
                for m in regrouped:
                    if m & acc:
                        acc |= m
                    else:
                        keep.append(m)
                regrouped = keep + [acc]
            merged = regrouped
            if {frozenset(m) for m in merged} == before:
                break
        merged.sort(key=lambda m: min(plan_index[n] for n in m))
        return merged

    def make_chunk_loop(gi: int, included: set) -> ChunkLoop:
        kernels = [k for k in plan.kernels if k.name in included]
        nchunks = _num_chunks(kernels, overlap_chunks)
        ring = (
            kernels[0].kind is KernelKind.GEMM
            and len(kernels) == 2
            and kernels[1].kind in COMM_KINDS
        )
        entries: List[ChunkEntry] = []
        common_extent: Optional[int] = None
        for ki, k in enumerate(kernels):
            deps = kernel_deps[k.name]
            mode, dim, bounds = _entry_chunking(
                k, nchunks, ring and ki == 0, common_extent
            )
            if not ring and mode != "whole" and common_extent is None:
                common_extent = _per_rank_extent(k.output, 0)
            entries.append(
                ChunkEntry(
                    instr=make_launch(k),
                    upstream=kernels[ki - 1].name if ki > 0 else None,
                    external_deps=tuple(
                        d for d in deps if d not in included
                    ),
                    group_deps=tuple(d for d in deps if d in included),
                    mode=mode,
                    chunk_dim=dim,
                    bounds=bounds,
                )
            )
        return ChunkLoop(f"overlap_{gi}", entries, nchunks, ring)

    loops: List[ChunkLoop] = []
    consumed: Dict[str, ChunkLoop] = {}
    for gi, included in enumerate(_merged_groups()):
        loop = make_chunk_loop(gi, included)
        loops.append(loop)
        for name in loop.member_names:
            consumed[name] = loop

    instructions: List[Instruction] = []
    loop_emit_at = {
        id(loop): max(plan_index[n] for n in loop.member_names)
        for loop in loops
    }
    for pi, k in enumerate(plan.kernels):
        loop = consumed.get(k.name)
        if loop is not None:
            # the loop is issued at its last member's plan position,
            # after every kernel the group depends on
            if loop_emit_at[id(loop)] == pi:
                instructions.append(loop)
            continue
        launch = make_launch(k)
        if isinstance(launch, CollectiveStep) and launch.pack is not None:
            instructions.append(launch.pack)
        instructions.append(launch)
    return LoweredProgram(program, plan, instructions)
