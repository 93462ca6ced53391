"""Numpy implementations of the collective operations.

These define the *semantics* the NCCL simulator and generated kernels
must match. Reductions accumulate in float64 in rank order, so an
AllReduce and its ReduceScatter+AllGather split produce identical
results — the determinism the transformation-equivalence tests rely on.

Every collective works on one stacked ``(group.size, *per_rank_shape)``
array whose axis 0 indexes the group's local ranks. AllReduce is one
rank-order fold (:func:`fold_ranks`) broadcast back,
ReduceScatter/AllGather are reshape+axis-move views, the AllToAlls
(flat and hierarchical intra/inter phases) are reshape/transpose
compositions, and Reduce/Broadcast are indexed assignments. The
in-process interpreter calls these functions; the SPMD communicator
folds its peers' slots with the same :func:`fold_ranks`. Tests compare
both against a per-rank oracle (``tests/collective_oracle.py``).

``context`` parameters thread the originating tensor/op name into
divisibility errors so uneven-sharding mistakes are debuggable from the
message alone.
"""

from __future__ import annotations

from typing import Tuple

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


def alltoall_vectorized(
    stacked: np.ndarray, group: ProcessGroup, dim: int, context: str = ""
) -> np.ndarray:
    """Flat AllToAll as one reshape/transpose composition.

    Splitting each rank's buffer into ``n`` chunks along ``dim`` exposes
    a ``(src, ..., chunk, step, ...)`` view; swapping the source-rank
    axis with the chunk axis performs the whole exchange, and the final
    reshape restores source-rank chunk order on every destination.
    """
    n = group.size
    per = stacked.shape[1:]
    step = _chunk_extent(per, dim, n, context)
    x = stacked.reshape((n,) + per[:dim] + (n, step) + per[dim + 1 :])
    x = np.swapaxes(x, 0, dim + 1)
    return np.ascontiguousarray(x.reshape((n,) + per))


def alltoall_intra_vectorized(
    stacked: np.ndarray,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> np.ndarray:
    """Intra-node hierarchical phase as a transpose over the node grid.

    With ranks viewed as ``(node a, local p)`` and chunks as
    ``(dest node b, dest local q)``, the intra phase is exactly the swap
    of the source-local and dest-local axes.
    """
    k, m = _node_grid(group, node_size)
    n = k * m
    per = stacked.shape[1:]
    step = _chunk_extent(per, dim, n, context)
    x = stacked.reshape(
        (k, m) + per[:dim] + (k, m, step) + per[dim + 1 :]
    )
    # axes: 0=a (node), 1=p (src local), then dim leading dims,
    # dim+2=b (dest node), dim+3=q (dest local), dim+4=step
    x = np.swapaxes(x, 1, dim + 3)
    return np.ascontiguousarray(x.reshape((n,) + per))


def alltoall_inter_vectorized(
    stacked: np.ndarray,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> np.ndarray:
    """Inter-node hierarchical phase: the swap of the node axes.

    Applied to the intra-phase output, rank ``(b, q)`` receives block
    ``b`` from the rank with local index ``q`` on every node — the swap
    of the source-node axis with the dest-node chunk axis.
    """
    k, m = _node_grid(group, node_size)
    n = k * m
    per = stacked.shape[1:]
    step = _chunk_extent(per, dim, n, context)
    x = stacked.reshape(
        (k, m) + per[:dim] + (k, m, step) + per[dim + 1 :]
    )
    # axes: 0=a (src node), 1=q (local), dim+2=b (dest node), dim+3=p
    x = np.swapaxes(x, 0, dim + 2)
    return np.ascontiguousarray(x.reshape((n,) + per))


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


def _chunk_extent(
    per_rank_shape: Tuple[int, ...], dim: int, parts: int, context: str
) -> int:
    return check_divisible(per_rank_shape, dim, parts, context)
