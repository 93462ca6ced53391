"""Execution plans: how a program's DFG maps onto kernels.

The paper's ``fuse`` and ``overlap`` transformations do not change what a
program computes — they change *how* it executes: which operations share
a GPU kernel, and which kernels run concurrently at chunk granularity.
We model that explicitly: a :class:`Kernel` is an ordered set of DFG
vertices executed together; an :class:`ExecutionPlan` is the ordered
kernel list plus overlap groups. The default plan gives every operation
its own library kernel — exactly the state of the art the paper starts
from ("computation and communication kernels are invoked separately").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import ops
from repro.core.tensor import Expr


class SplitPolicy(Enum):
    """Policies for the split transformation (Section 3.1)."""

    AR_SPLIT_RS_AG = "ARSplitRSAG"
    AR_SPLIT_REDUCE_BCAST = "ARSplitReduceBroadcast"
    A2A_SPLIT_HIERARCHICAL = "A2ASplitHierarchical"


class FusePolicy(Enum):
    """Policies for the fuse transformation (Section 3.3)."""

    COMPUTATION = "ComputationFuse"
    ALLREDUCE = "AllReduceFuse"
    SEND = "SendFuse"
    ALLTOALL = "AllToAllFuse"


class KernelKind(Enum):
    """What kind of GPU kernel executes a set of operations."""

    GEMM = "gemm"                    # cuBLAS/CUTLASS call
    CONV = "conv"                    # cuDNN call
    ELEMENTWISE = "elementwise"      # one pointwise op per kernel
    FUSED_ELEMENTWISE = "fused_elementwise"
    COLLECTIVE = "collective"        # plain NCCL call
    FUSED_COLLECTIVE = "fused_collective"  # NCCL kernel with fused compute
    P2P = "p2p"
    FUSED_P2P = "fused_p2p"


_block_counter = [0]


class FusedBlock:
    """A group of DFG vertices fused into one kernel.

    Returned by ``Schedule.fuse``; can be passed back into subsequent
    transformations (reorder of a fused computation block, overlap of a
    FusedAllReduce with a MatMul, ...). Members are kept up to date by
    the owning Schedule when later transformations rewrite the graph.
    """

    def __init__(self, policy: FusePolicy, members: Sequence[Expr]):
        self.policy = policy
        self.members: List[Expr] = list(members)
        _block_counter[0] += 1
        self.name = f"{policy.value.lower()}_{_block_counter[0]}"

    @property
    def output(self) -> Expr:
        """The last member — the block's externally visible result."""
        return self.members[-1]

    def kernel_kind(self) -> KernelKind:
        if self.policy is FusePolicy.COMPUTATION:
            return KernelKind.FUSED_ELEMENTWISE
        if self.policy in (FusePolicy.ALLREDUCE, FusePolicy.ALLTOALL):
            return KernelKind.FUSED_COLLECTIVE
        return KernelKind.FUSED_P2P

    def __repr__(self) -> str:
        names = ", ".join(m.name for m in self.members)
        return f"FusedBlock<{self.policy.value}>({names})"


class OverlapGroup:
    """Kernels overlapped in a fine-grained, chunk-synchronized manner.

    "CoCoNet provides the overlap transformation to overlap a series of
    producer-consumer operations to utilize multiple resources of
    hardware simultaneously" (Section 3.4). Items are exprs or fused
    blocks, ordered producer → consumer.
    """

    def __init__(self, items: Sequence["Expr | FusedBlock"]):
        self.items: List["Expr | FusedBlock"] = list(items)
        _block_counter[0] += 1
        self.name = f"overlap_{_block_counter[0]}"

    def __repr__(self) -> str:
        names = ", ".join(
            i.name if isinstance(i, FusedBlock) else i.name for i in self.items
        )
        return f"OverlapGroup({names})"


@dataclass
class Kernel:
    """One GPU kernel launch: an ordered set of operations it executes."""

    name: str
    kind: KernelKind
    exprs: Tuple[Expr, ...]
    #: name of the overlap group this kernel belongs to, if any — set
    #: during plan derivation so a kernel is debuggable on its own
    overlap_group: Optional[str] = None

    @property
    def output(self) -> Expr:
        return self.exprs[-1]

    def __repr__(self) -> str:
        member = (
            f", in {self.overlap_group}" if self.overlap_group else ""
        )
        return (
            f"Kernel({self.name}, {self.kind.value}, "
            f"{len(self.exprs)} ops{member})"
        )


@dataclass
class ExecutionPlan:
    """Ordered kernels plus overlap groups for one scheduled program."""

    kernels: List[Kernel] = field(default_factory=list)
    overlap_groups: List[List[str]] = field(default_factory=list)

    def describe(self, lowered=None) -> str:
        """Render the plan; with a lowered program, annotate each kernel
        with its stream assignment and each overlap group with its chunk
        count and mode (the facts only the lowering knows)."""
        streams: Dict[str, str] = {}
        chunk_info: Dict[int, str] = {}
        if lowered is not None:
            for launch in lowered.launches():
                streams[launch.name] = launch.stream
            loops = lowered.chunk_loops()
            for gi, group in enumerate(self.overlap_groups):
                # the lowered loop may hold *more* kernels than the plan
                # group (interposed dependents, merged groups), so match
                # on containment, not equality
                loop = next(
                    (
                        lo for lo in loops
                        if set(group) <= set(lo.member_names)
                    ),
                    None,
                )
                if loop is not None:
                    kind = "ring" if loop.ring else "tiled"
                    chunk_info[gi] = f" [{loop.num_chunks} chunks, {kind}]"
        lines = []
        for k in self.kernels:
            members = ", ".join(e.name for e in k.exprs)
            at = f" @ {streams[k.name]}" if k.name in streams else ""
            lines.append(f"{k.name}: {k.kind.value} [{members}]{at}")
        for gi, group in enumerate(self.overlap_groups):
            lines.append(
                f"overlap: {' <-> '.join(group)}{chunk_info.get(gi, '')}"
            )
        return "\n".join(lines)


def singleton_kind(e: Expr) -> KernelKind:
    """Kernel kind for an operation executed on its own."""
    if isinstance(e, ops.MatMul):
        return KernelKind.GEMM
    if isinstance(e, ops.Conv2D):
        return KernelKind.CONV
    if isinstance(e, ops.Send):
        return KernelKind.P2P
    if isinstance(e, ops.CommOp):
        return KernelKind.COLLECTIVE
    return KernelKind.ELEMENTWISE
