"""The simulated world: rank-major tensor storage for N ranks.

Every tensor is stored as one stacked numpy array of shape
``(group.size, *per_rank_shape)``, axis 0 indexing the local ranks of
the tensor's group. Collectives and element-wise computation become
single numpy expressions over the stack (see
:mod:`repro.runtime.collectives`), and replicated values are stored as
stride-0 broadcast views of a single per-rank array, so rank-invariant
work is done once instead of once per rank.

Input placement (:func:`place_inputs`) distributes each *global* array
according to the tensor's layout: replicated tensors are visible on
every rank, sliced tensors are partitioned along their slice dimension,
and local tensors take per-rank values stacked on a leading axis. The
in-process interpreter stores the placed stacks in a :class:`SimWorld`;
the SPMD launcher cuts them into per-rank shards. Results come back
through :func:`unstack_global` (from a stack) or :func:`assemble_rows`
(from per-rank rows).

Storage invariant: stacked arrays are never mutated in place. Updates
*replace* a tensor's array (copying first when they must write per-rank
slices), which is what lets leaf snapshots and replicated broadcast
views alias storage safely.
"""

from __future__ import annotations

import warnings
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.layout import normalize_dim
from repro.core.tensor import Expr
from repro.errors import ExecutionError


def context_suffix(context: str) -> str:
    """``" (in <name>)"`` — appended to sharding errors so uneven-split
    mistakes are attributable to a tensor/op from the message alone."""
    return f" (in {context})" if context else ""


def check_divisible(
    shape: Sequence[int], dim: int, parts: int, context: str = ""
) -> int:
    """Assert ``shape[dim]`` splits into ``parts``; return the step."""
    extent = shape[dim]
    if extent % parts != 0:
        raise ExecutionError(
            f"dim {dim} of shape {tuple(shape)} not divisible into "
            f"{parts} parts{context_suffix(context)}"
        )
    return extent // parts


def slice_of(
    array: np.ndarray, dim: int, index: int, parts: int, context: str = ""
) -> np.ndarray:
    """The ``index``-th of ``parts`` equal slices of ``array`` along ``dim``."""
    step = check_divisible(array.shape, dim, parts, context)
    sl = [slice(None)] * array.ndim
    sl[dim] = slice(index * step, (index + 1) * step)
    return array[tuple(sl)]


# ---------------------------------------------------------------------------
# Rank-major (stacked) helpers — shared by the collectives, the
# interpreter and the SPMD launcher.
# ---------------------------------------------------------------------------


def replicate(base: np.ndarray, num_ranks: int) -> np.ndarray:
    """A read-only ``(num_ranks, *base.shape)`` stride-0 view of ``base``.

    The rank-major representation of a replicated value: every rank's row
    aliases the same memory, so producing it is O(1) and downstream code
    can detect the invariance (see :func:`rank_invariant`) to compute on
    a single representative rank.
    """
    base = np.asarray(base)
    return np.broadcast_to(base, (num_ranks,) + base.shape)


def rank_invariant(stacked: np.ndarray) -> bool:
    """True when every rank's row provably aliases the same data.

    Detected via the stride-0 leading axis that :func:`replicate`
    produces. A ``False`` answer does not mean rows differ — only that
    they are stored separately.
    """
    return stacked.ndim > 0 and stacked.strides[0] == 0


def scatter_axis(
    array: np.ndarray, dim: int, parts: int, context: str = ""
) -> np.ndarray:
    """View ``array`` as its ``parts`` equal slices along ``dim``, stacked.

    The rank-major equivalent of ``[slice_of(array, dim, i, parts) for i
    in range(parts)]``: a reshape plus axis move, no data copied. The
    result has shape ``(parts, *slice_shape)``.
    """
    step = check_divisible(array.shape, dim, parts, context)
    view = array.reshape(
        array.shape[:dim] + (parts, step) + array.shape[dim + 1 :]
    )
    return np.moveaxis(view, dim, 0)


def gather_axis(stacked: np.ndarray, dim: int) -> np.ndarray:
    """Merge a ``(parts, *slice_shape)`` stack back along ``dim``.

    Inverse of :func:`scatter_axis`; equals concatenating the rows along
    ``dim`` in rank order.
    """
    moved = np.moveaxis(stacked, 0, dim)
    shape = (
        moved.shape[:dim]
        + (moved.shape[dim] * moved.shape[dim + 1],)
        + moved.shape[dim + 2 :]
    )
    return moved.reshape(shape)


def unstack_global(stacked: np.ndarray, layout, shape) -> np.ndarray:
    """Reassemble a stacked value into its global array, for callers.

    The result boundary of the in-process interpreter (program outputs
    and ``read_back`` tensor states). The returned array never aliases
    the stack and is always writable, so internal stride-0 replicated
    views never leak.
    """
    if layout.is_replicated:
        base = stacked[0]
    elif layout.is_sliced:
        base = gather_axis(stacked, normalize_dim(layout.dim, len(shape)))
    else:
        base = np.ascontiguousarray(stacked)
    if np.may_share_memory(base, stacked):
        base = base.copy()
    return base


def assemble_rows(rows: Sequence[np.ndarray], layout, shape) -> np.ndarray:
    """Reassemble per-rank rows, in group order, into the global array.

    The result boundary of the SPMD launcher, whose ranks each return
    their own row; :func:`unstack_global` does the same for a stack.
    """
    if layout.is_replicated:
        return rows[0]
    if layout.is_sliced:
        return np.concatenate(
            list(rows), axis=normalize_dim(layout.dim, len(shape))
        )
    return np.stack(rows, axis=0)


def copy_stacked(stacked: np.ndarray) -> np.ndarray:
    """Snapshot a stacked value, preserving replicated stride-0 views."""
    if rank_invariant(stacked):
        return replicate(stacked[0].copy(), stacked.shape[0])
    return stacked.copy()


def astype_stacked(stacked: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast a stacked value, preserving replicated stride-0 views."""
    if rank_invariant(stacked):
        return replicate(stacked[0].astype(dtype), stacked.shape[0])
    return stacked.astype(dtype)


# ---------------------------------------------------------------------------
# Input placement.
# ---------------------------------------------------------------------------


def _dtype_lossy(src: np.dtype, dst: np.dtype) -> bool:
    """Is a ``src`` → ``dst`` cast a precision-losing downcast?

    float64 → float32 is the simulator's standard working precision
    (every test feeds ``randn`` float64 into FP32 tensors) and stays
    silent; casts to below-single-precision floats (FP16) and casts that
    numpy itself calls unsafe across kinds (float → int, narrowing int)
    are flagged.
    """
    src, dst = np.dtype(src), np.dtype(dst)
    if src == dst or np.can_cast(src, dst, casting="safe"):
        return False
    if src.kind in "fc" and dst.kind in "fc":
        return dst.itemsize < 4
    return True


def _checked_cast(
    tensor: Expr, value: np.ndarray, allow_downcast: Optional[bool]
) -> np.ndarray:
    """Cast an input to the tensor dtype, policing lossy downcasts.

    ``allow_downcast=True`` casts silently, ``False`` raises on a
    value-changing lossy downcast, and ``None`` (the default) warns.
    """
    value = np.asarray(value)
    target = tensor.dtype.to_numpy()
    if allow_downcast is not True and _dtype_lossy(value.dtype, target):
        cast = value.astype(target)
        if not np.array_equal(
            cast.astype(value.dtype), value, equal_nan=True
        ):
            msg = (
                f"placing input {tensor.name!r}: lossy downcast "
                f"{value.dtype} -> {target} changes values; pass "
                f"allow_downcast=True to accept"
            )
            if allow_downcast is False:
                raise ExecutionError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        return cast
    return value.astype(target) if value.dtype != target else value


def place_input(
    tensor: Expr,
    value: np.ndarray,
    allow_downcast: Optional[bool] = None,
) -> np.ndarray:
    """One global input as its rank-major ``(group.size, *shard)`` stack.

    Casts ``value`` to the tensor dtype and checks its shape. Nothing is
    copied beyond the cast, so the stack may be a view of ``value``; a
    replicated tensor's stack is a stride-0 :func:`replicate` view.
    """
    value = _checked_cast(tensor, value, allow_downcast)
    group = tensor.group
    if tensor.layout.is_replicated:
        if tuple(value.shape) != tensor.shape:
            raise ExecutionError(
                f"{tensor.name}: expected shape {tensor.shape}, "
                f"got {value.shape}"
            )
        return replicate(value, group.size)
    if tensor.layout.is_sliced:
        if tuple(value.shape) != tensor.shape:
            raise ExecutionError(
                f"{tensor.name}: expected global shape {tensor.shape}, "
                f"got {value.shape}"
            )
        dim = normalize_dim(tensor.layout.dim, len(tensor.shape))
        return scatter_axis(value, dim, group.size, context=tensor.name)
    # local: leading axis indexes ranks of the group
    expected = (group.size,) + tensor.shape
    if tuple(value.shape) != expected:
        raise ExecutionError(
            f"{tensor.name} is local: expected shape {expected} "
            f"(group size leading), got {value.shape}"
        )
    return value


def place_inputs(
    program,
    inputs: Mapping[str, np.ndarray],
    allow_downcast: Optional[bool] = None,
) -> Dict[str, np.ndarray]:
    """Every input of ``program``, by name, placed by :func:`place_input`.

    Raises :class:`~repro.errors.ExecutionError` on a missing or an
    unknown input name.
    """
    placed: Dict[str, np.ndarray] = {}
    for t in program.inputs:
        if t.name not in inputs:
            raise ExecutionError(f"missing input {t.name!r}")
        placed[t.name] = place_input(t, inputs[t.name], allow_downcast)
    extra = set(inputs) - set(placed)
    if extra:
        raise ExecutionError(f"unknown inputs: {sorted(extra)}")
    return placed


class SimWorld:
    """Rank-major tensor storage for one in-process run.

    Built from :func:`place_inputs` stacks, which it copies, so storage
    never aliases the caller's arrays.
    """

    def __init__(self, placed: Mapping[str, np.ndarray]) -> None:
        self._state: Dict[str, np.ndarray] = {
            name: copy_stacked(stacked) for name, stacked in placed.items()
        }

    def state(self, name: str) -> np.ndarray:
        """The stacked ``(group.size, *per_rank_shape)`` array of a tensor."""
        try:
            return self._state[name]
        except KeyError:
            raise ExecutionError(f"no value for tensor {name!r}") from None

    def set_state(self, name: str, stacked: np.ndarray) -> None:
        """Replace a tensor's stacked array (never mutate one in place)."""
        self._state[name] = stacked

    def read_back(self, tensor: Expr) -> np.ndarray:
        """Reassemble a tensor's global value from its storage."""
        return unstack_global(
            self.state(tensor.name), tensor.layout, tensor.shape
        )
