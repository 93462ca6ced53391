"""Step counts and tree depth of the collectives, as the cost model
prices them.

Ring ReduceScatter and AllGather take ``n-1`` steps on ``n`` ranks;
ring AllReduce is ReduceScatter followed by AllGather: ``2(n-1)``
steps. The pairwise AllToAll takes ``n-1`` steps too: after its own
chunk, a rank takes one peer's chunk per step, in the order of
:func:`repro.runtime.collectives.alltoall_moves`.
"""

from __future__ import annotations


def num_steps(kind: str, n: int) -> int:
    """Sequential step count of a ring collective on ``n`` ranks."""
    if n <= 1:
        return 0
    if kind == "allreduce":
        return 2 * (n - 1)
    if kind in (
        "reducescatter", "allgather", "broadcast", "reduce", "alltoall"
    ):
        return n - 1
    raise ValueError(f"unknown collective {kind!r}")


def tree_depth(n: int) -> int:
    """Depth of NCCL's binary reduction tree over ``n`` ranks."""
    depth = 0
    while (1 << depth) < n:
        depth += 1
    return depth
