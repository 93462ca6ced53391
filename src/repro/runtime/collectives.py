"""Numpy implementations of the collective operations, in two backends.

These define the *semantics* the NCCL simulator and generated kernels
must match. Reductions accumulate in float64 in rank order, so an
AllReduce and its ReduceScatter+AllGather split produce identical
results — the determinism the transformation-equivalence tests rely on.

Each collective exists in two forms sharing one public name:

* ``*_reference`` — the original dict-of-ranks implementation
  (``{global rank -> ndarray}``), kept as the oracle;
* ``*_vectorized`` — a rank-major implementation over one stacked
  ``(group.size, *per_rank_shape)`` array whose axis 0 indexes the
  group's local ranks. AllReduce is one ``np.sum(..., axis=0)``
  broadcast back, ReduceScatter/AllGather are reshape+axis-move views,
  the AllToAlls (flat and hierarchical intra/inter phases) are
  reshape/transpose compositions, and Reduce/Broadcast are indexed
  assignments.

The public functions (``allreduce``, ``alltoall``, ...) dispatch on the
input representation — a dict selects the reference backend, an ndarray
the vectorized one. The executor calls the two backends by name and
generated modules call the rank's communicator, so tests are now the
only callers of the dict dispatch. The two backends are property-tested
bit-identical (``np.array_equal``); see ``tests/test_runtime_vectorized``.

``context`` parameters thread the originating tensor/op name into
divisibility errors so uneven-sharding mistakes are debuggable from the
message alone.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.core.process_group import ProcessGroup
from repro.runtime.world import (
    assemble_slices,
    check_divisible,
    gather_axis,
    replicate,
    scatter_axis,
    slice_of,
)

RankValues = Dict[int, np.ndarray]
Values = Union[RankValues, np.ndarray]


def _accumulate(values: RankValues, group: ProcessGroup, op: str) -> np.ndarray:
    stack = np.stack([values[r] for r in group], axis=0)
    return _reduce_stack(stack, op)


def _accumulate_stacked(stacked: np.ndarray, op: str) -> np.ndarray:
    # np.ascontiguousarray materializes broadcast views and matches the
    # memory layout np.stack gives the reference path, so the float64
    # rank-order accumulation is bit-identical between backends.
    return _reduce_stack(np.ascontiguousarray(stacked), op)


def _reduce_stack(stack: np.ndarray, op: str) -> np.ndarray:
    if op == "+":
        return np.sum(stack.astype(np.float64), axis=0)
    if op == "*":
        return np.prod(stack.astype(np.float64), axis=0)
    if op == "max":
        return np.max(stack, axis=0).astype(np.float64)
    if op == "min":
        return np.min(stack, axis=0).astype(np.float64)
    raise ValueError(f"unknown reduction {op!r}")


def _node_grid(group: ProcessGroup, node_size: int) -> "Tuple[int, int]":
    """(nodes k, gpus-per-node m) of a group under a node size."""
    n = group.size
    m = min(max(1, int(node_size)), n)
    if n % m != 0:
        raise ValueError(
            f"group size {n} is not divisible by node size {m}"
        )
    return n // m, m


# ---------------------------------------------------------------------------
# Reference backend: dict of per-rank arrays (the oracle).
# ---------------------------------------------------------------------------


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
    Composing :func:`alltoall_inter` after this phase reproduces the flat
    :func:`alltoall` exactly.
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


# ---------------------------------------------------------------------------
# Vectorized backend: one (group.size, *per_rank_shape) stacked array.
# ---------------------------------------------------------------------------


def allreduce_vectorized(
    stacked: np.ndarray, group: ProcessGroup, op: str, dtype: np.dtype
) -> np.ndarray:
    """AllReduce as one reduction over the rank axis, broadcast back."""
    total = _accumulate_stacked(stacked, op).astype(dtype)
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
    total = _accumulate_stacked(stacked, op).astype(dtype)
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
    NCCL semantics — see :func:`reduce_reference`.
    """
    group.global_rank(root)  # same root range check as the reference
    total = _accumulate_stacked(stacked, op).astype(dtype)
    out = np.asarray(stacked).astype(dtype)  # astype copies; rows writable
    out[root] = total
    return out


def broadcast_vectorized(
    stacked: np.ndarray, group: ProcessGroup, root: int
) -> np.ndarray:
    """Broadcast as a stride-0 replication of the root's row."""
    group.global_rank(root)  # same root range check as the reference
    return replicate(np.ascontiguousarray(stacked[root]), group.size)


def _chunk_extent(
    per_rank_shape: Tuple[int, ...], dim: int, parts: int, context: str
) -> int:
    return check_divisible(per_rank_shape, dim, parts, context)


# ---------------------------------------------------------------------------
# Public API: one name per collective, dispatching on the representation.
# ---------------------------------------------------------------------------


def allreduce(
    values: Values, group: ProcessGroup, op: str, dtype: np.dtype
) -> Values:
    """Every rank receives the reduction of all ranks' values."""
    if isinstance(values, dict):
        return allreduce_reference(values, group, op, dtype)
    return allreduce_vectorized(values, group, op, dtype)


def reducescatter(
    values: Values,
    group: ProcessGroup,
    op: str,
    dim: int,
    dtype: np.dtype,
    context: str = "",
) -> Values:
    """Rank i receives slice i of the reduction."""
    if isinstance(values, dict):
        return reducescatter_reference(values, group, op, dim, dtype, context)
    return reducescatter_vectorized(values, group, op, dim, dtype, context)


def allgather(values: Values, group: ProcessGroup, dim: int) -> Values:
    """Every rank receives the concatenation of all ranks' slices."""
    if isinstance(values, dict):
        return allgather_reference(values, group, dim)
    return allgather_vectorized(values, group, dim)


def alltoall(
    values: Values, group: ProcessGroup, dim: int, context: str = ""
) -> Values:
    """Rank ``i`` receives chunk ``i`` of every rank, in source order."""
    if isinstance(values, dict):
        return alltoall_reference(values, group, dim, context)
    return alltoall_vectorized(values, group, dim, context)


def alltoall_intra(
    values: Values,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> Values:
    """Intra-node phase of the hierarchical AllToAll."""
    if isinstance(values, dict):
        return alltoall_intra_reference(values, group, dim, node_size, context)
    return alltoall_intra_vectorized(values, group, dim, node_size, context)


def alltoall_inter(
    values: Values,
    group: ProcessGroup,
    dim: int,
    node_size: int,
    context: str = "",
) -> Values:
    """Inter-node phase of the hierarchical AllToAll."""
    if isinstance(values, dict):
        return alltoall_inter_reference(values, group, dim, node_size, context)
    return alltoall_inter_vectorized(values, group, dim, node_size, context)


def reduce(
    values: Values, group: ProcessGroup, op: str, root: int, dtype: np.dtype
) -> Values:
    """The root rank receives the reduction; non-root ranks keep their
    input values (NCCL leaves non-root receive buffers unmodified)."""
    if isinstance(values, dict):
        return reduce_reference(values, group, op, root, dtype)
    return reduce_vectorized(values, group, op, root, dtype)


def broadcast(values: Values, group: ProcessGroup, root: int) -> Values:
    """Every rank receives the root rank's value."""
    if isinstance(values, dict):
        return broadcast_reference(values, group, root)
    return broadcast_vectorized(values, group, root)
