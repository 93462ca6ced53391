"""Per-rank collective oracle for the property tests.

Each function takes and returns a dict ``{global rank -> ndarray}``, one
array per rank, and computes a collective one rank at a time, the way a
reader would on paper. The runtime's rank-major collectives
(:mod:`repro.runtime.collectives`), the in-process interpreter and the
SPMD communicator are all compared against these functions.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.runtime.collectives import _node_grid, _reduce_stack
from repro.runtime.world import slice_of

RankValues = Dict[int, np.ndarray]


def _accumulate(values: RankValues, group: ProcessGroup, op: str) -> np.ndarray:
    stack = np.stack([values[r] for r in group], axis=0)
    return _reduce_stack(stack, op)


def assemble_slices(parts: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Concatenate per-rank slices back into the global array."""
    return np.concatenate(list(parts), axis=dim)


def allreduce_reference(
    values: RankValues, group: ProcessGroup, op: str, dtype: np.dtype
) -> RankValues:
    """Every rank receives the reduction of all ranks' values."""
    total = _accumulate(values, group, op).astype(dtype)
    return {r: total.copy() for r in group}


def reducescatter_reference(
    values: RankValues,
    group: ProcessGroup,
    op: str,
    dim: int,
    dtype: np.dtype,
    context: str = "",
) -> RankValues:
    """Rank i receives slice i of the reduction."""
    total = _accumulate(values, group, op).astype(dtype)
    return {
        r: slice_of(total, dim, i, group.size, context=context).copy()
        for i, r in enumerate(group)
    }


def allgather_reference(
    values: RankValues, group: ProcessGroup, dim: int
) -> RankValues:
    """Every rank receives the concatenation of all ranks' slices."""
    full = assemble_slices([values[r] for r in group], dim)
    return {r: full.copy() for r in group}


def alltoall_reference(
    values: RankValues, group: ProcessGroup, dim: int, context: str = ""
) -> RankValues:
    """Rank ``i`` receives chunk ``i`` of every rank, in source order.

    Each rank's buffer is split into ``group.size`` equal chunks along
    ``dim``; chunk ``j`` travels to the rank with local index ``j``, and
    the receiver concatenates incoming chunks in source-rank order —
    GShard's MoE dispatch/combine exchange.
    """
    n = group.size
    out: RankValues = {}
    for i, r in enumerate(group):
        out[r] = np.concatenate(
            [slice_of(values[s], dim, i, n, context=context) for s in group],
            axis=dim,
        )
    return out


def alltoall_intra_reference(
    values: RankValues,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> RankValues:
    """Intra-node phase of the hierarchical AllToAll.

    Rank ``(a, q)`` (node ``a``, local index ``q``) collects, from every
    rank ``(a, p)`` of its node, the chunks destined for the ranks that
    share local index ``q``, regrouped by destination node: output chunk
    ``b*m + p`` holds source ``(a, p)``'s chunk for rank ``(b, q)``.
    Composing :func:`alltoall_inter_reference` after this phase
    reproduces the flat :func:`alltoall_reference` exactly.
    """
    n = group.size
    k, m = _node_grid(group, node_size)
    out: RankValues = {}
    for a in range(k):
        for q in range(m):
            r = group.global_rank(a * m + q)
            parts = [
                slice_of(
                    values[group.global_rank(a * m + p)],
                    dim,
                    b * m + q,
                    n,
                    context=context,
                )
                for b in range(k)
                for p in range(m)
            ]
            out[r] = np.concatenate(parts, axis=dim)
    return out


def alltoall_inter_reference(
    values: RankValues,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> RankValues:
    """Inter-node phase of the hierarchical AllToAll.

    Applied to the intra-phase output: rank ``(b, q)`` receives block
    ``b`` (the ``m`` chunks regrouped for it) from the rank with local
    index ``q`` on every node ``a``, concatenated in node order — which
    restores exact source-rank order.
    """
    n = group.size
    k, m = _node_grid(group, node_size)
    out: RankValues = {}
    for b in range(k):
        for q in range(m):
            r = group.global_rank(b * m + q)
            parts = [
                slice_of(
                    values[group.global_rank(a * m + q)],
                    dim,
                    b * m + p,
                    n,
                    context=context,
                )
                for a in range(k)
                for p in range(m)
            ]
            out[r] = np.concatenate(parts, axis=dim)
    return out


def reduce_reference(
    values: RankValues, group: ProcessGroup, op: str, root: int, dtype: np.dtype
) -> RankValues:
    """The root rank receives the reduction; non-root ranks keep their
    input values (cast to ``dtype``).

    Matches NCCL, where ``ncclReduce`` leaves non-root receive buffers
    unmodified. The previous behaviour — zero-filling non-root ranks —
    could launder a schedule that wrongly reads a non-root buffer into an
    all-zero "correct-looking" result.
    """
    total = _accumulate(values, group, op).astype(dtype)
    root_rank = group.global_rank(root)
    return {
        r: total.copy()
        if r == root_rank
        else np.asarray(values[r]).astype(dtype)
        for r in group
    }


def broadcast_reference(
    values: RankValues, group: ProcessGroup, root: int
) -> RankValues:
    """Every rank receives the root rank's value."""
    root_rank = group.global_rank(root)
    src = values[root_rank]
    return {r: src.copy() for r in group}
