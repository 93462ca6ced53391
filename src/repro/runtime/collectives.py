"""Numpy implementations of the collective operations.

These define the *semantics* the SPMD communicator and generated
kernels must match. Reductions accumulate in float64 in rank order, so an
AllReduce and its ReduceScatter+AllGather split produce identical
results — the determinism the transformation-equivalence tests rely on.

Every collective works on one stacked ``(group.size, *per_rank_shape)``
array whose axis 0 indexes the group's local ranks. AllReduce is one
rank-order fold (:func:`fold_ranks`) broadcast back,
ReduceScatter/AllGather are reshape+axis-move views, the AllToAll
(flat and hierarchical intra/inter phases) is one gather of the chunk
moves of :func:`alltoall_moves`, and Reduce/Broadcast are indexed
assignments. The in-process interpreter calls these functions; the SPMD
communicator folds its peers' slots with the same :func:`fold_ranks`
and copies the same AllToAll moves out of its peers' slots. Tests compare
both against a per-rank oracle (``tests/collective_oracle.py``).

``context`` parameters thread the originating tensor/op name into
divisibility errors so uneven-sharding mistakes are debuggable from the
message alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.runtime.world import (
    check_divisible,
    gather_axis,
    replicate,
    scatter_axis,
)


#: the element-wise ufunc of each rank-axis reduction
_FOLD = {"+": np.add, "*": np.multiply, "max": np.maximum, "min": np.minimum}


def fold_ranks(out: np.ndarray, rows, op: str) -> np.ndarray:
    """Reduce ``rows`` over the rank axis into the float64 array ``out``.

    ``out = rows[0]``, then ``out = out op rows[r]`` for each later rank:
    the one reduction formula of every tier. ``rows`` is a rank-major
    stack or a list of per-rank arrays (an SPMD rank folds its peers'
    slots in place, with no stack). The fold is element-wise, so folding
    a chunk or a shard at a time gives the bits of the whole fold.
    """
    try:
        ufunc = _FOLD[op]
    except KeyError:
        raise ValueError(f"unknown reduction {op!r}") from None
    np.copyto(out, rows[0])
    for row in rows[1:]:
        ufunc(out, row, out=out)
    return out


def _reduce_stack(stack: np.ndarray, op: str) -> np.ndarray:
    """Float64 rank-order reduction of a ``(n, *shape)`` stack."""
    stack = np.asarray(stack)
    return fold_ranks(np.empty(stack.shape[1:], np.float64), stack, op)


def _node_grid(group: ProcessGroup, node_size: int) -> "Tuple[int, int]":
    """(nodes k, gpus-per-node m) of a group under a node size."""
    n = group.size
    m = min(max(1, int(node_size)), n)
    if n % m != 0:
        raise ValueError(
            f"group size {n} is not divisible by node size {m}"
        )
    return n // m, m


def allreduce_vectorized(
    stacked: np.ndarray, group: ProcessGroup, op: str, dtype: np.dtype
) -> np.ndarray:
    """AllReduce as one reduction over the rank axis, broadcast back."""
    total = _reduce_stack(stacked, op).astype(dtype)
    return replicate(total, group.size)


def reducescatter_vectorized(
    stacked: np.ndarray,
    group: ProcessGroup,
    op: str,
    dim: int,
    dtype: np.dtype,
    context: str = "",
) -> np.ndarray:
    """ReduceScatter as a rank-axis reduction plus a scatter view."""
    total = _reduce_stack(stacked, op).astype(dtype)
    return np.ascontiguousarray(
        scatter_axis(total, dim, group.size, context=context)
    )


def allgather_vectorized(
    stacked: np.ndarray, group: ProcessGroup, dim: int
) -> np.ndarray:
    """AllGather as a gather view of the stack, broadcast back."""
    full = gather_axis(stacked, dim)
    return replicate(full, group.size)


def alltoall_moves(
    group: ProcessGroup,
    i: int,
    phase: Optional[str] = None,
    node_size: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """The chunk moves that fill local rank ``i``'s AllToAll output.

    Each ``(p, s, d)`` copies chunk ``s`` of local rank ``p``'s buffer
    (one of ``group.size`` equal chunks along the exchange dim) into
    chunk ``d`` of rank ``i``'s result; every tier's AllToAll is these
    copies. With ranks viewed as ``(node, local)`` pairs on a grid of
    ``node_size`` ranks per node:

    * flat (``phase=None``): chunk ``i`` of every rank ``p`` into chunk
      ``p``, drained pairwise: the rank's own chunk first, then rank
      ``(i - t) mod n`` at step ``t``;
    * ``"intra"``: rank ``(a, q)`` takes, from every rank ``(a, p)`` of
      its node, the chunk for rank ``(b, q)`` into chunk ``b*m + p``;
    * ``"inter"``: rank ``(b, q)`` takes block ``b`` of the intra output
      from rank ``(a, q)`` of every node ``a``, into block ``a``, which
      restores source order: ``inter`` after ``intra`` is the flat
      exchange.
    """
    n = group.size
    if phase is None:
        return [(s, i, s) for s in ((i - t) % n for t in range(n))]
    k, m = _node_grid(group, node_size)
    if phase == "intra":
        a, q = divmod(i, m)
        return [
            (a * m + p, b * m + q, b * m + p)
            for b in range(k) for p in range(m)
        ]
    if phase == "inter":
        b, q = divmod(i, m)
        return [
            (a * m + q, b * m + p, a * m + p)
            for a in range(k) for p in range(m)
        ]
    raise ValueError(f"unknown AllToAll phase {phase!r}")


def alltoall_vectorized(
    stacked: np.ndarray,
    group: ProcessGroup,
    dim: int,
    phase: Optional[str] = None,
    node_size: Optional[int] = None,
    context: str = "",
) -> np.ndarray:
    """AllToAll (flat, or one hierarchical phase) as one gather.

    Viewing the stack as ``(rank, chunk, ...)`` along ``dim``, output
    row ``i`` chunk ``d`` is input row ``p`` chunk ``s`` for every move
    ``(p, s, d)`` of :func:`alltoall_moves`.
    """
    n = group.size
    per = stacked.shape[1:]
    step = check_divisible(per, dim, n, context)
    rows = np.empty((n, n), np.intp)
    chunks = np.empty((n, n), np.intp)
    for i in range(n):
        for p, s, d in alltoall_moves(group, i, phase, node_size):
            rows[i, d], chunks[i, d] = p, s

    def by_chunk(x: np.ndarray) -> np.ndarray:
        split = x.reshape((n,) + per[:dim] + (n, step) + per[dim + 1 :])
        return np.moveaxis(split, dim + 1, 1)

    out = np.empty(stacked.shape, stacked.dtype)
    by_chunk(out)[...] = by_chunk(stacked)[rows, chunks]
    return out


def reduce_vectorized(
    stacked: np.ndarray,
    group: ProcessGroup,
    op: str,
    root: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Reduce as an indexed assignment onto the root's row.

    Non-root rows keep their input values (cast to ``dtype``), matching
    NCCL semantics (``ncclReduce`` leaves non-root receive buffers
    unmodified).
    """
    group.global_rank(root)  # raises GroupError on a bad root
    total = _reduce_stack(stacked, op).astype(dtype)
    out = np.asarray(stacked).astype(dtype)  # astype copies; rows writable
    out[root] = total
    return out


def broadcast_vectorized(
    stacked: np.ndarray, group: ProcessGroup, root: int
) -> np.ndarray:
    """Broadcast as a stride-0 replication of the root's row."""
    group.global_rank(root)  # raises GroupError on a bad root
    return replicate(np.ascontiguousarray(stacked[root]), group.size)

