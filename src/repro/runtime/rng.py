"""Counter-based random numbers for dropout.

Why not `np.random`: the reorder transformation turns a replicated
Dropout into a *sliced* Dropout executed on a different extent of data
per rank. For the transformation to be semantics-preserving, every
element must draw the same random mask regardless of which rank computes
it or how the tensor is partitioned. We therefore hash
``(seed, global element index)`` with a SplitMix64-style mixer — a
counter-based RNG in the spirit of Philox, which is also what real GPU
dropout kernels use.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MAX = float(2**64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over uint64 values."""
    x = (x + _GOLDEN).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def seed_key(seed: int) -> int:
    """The 64-bit key a seed's indices are xored with."""
    return (seed * 0x9E3779B97F4A7C15) & (2**64 - 1)


def uniform(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) values keyed by ``(seed, index)``."""
    keyed = indices.astype(np.uint64) ^ np.uint64(seed_key(seed))
    return splitmix64(keyed).astype(np.float64) / _U64_MAX


def global_indices(
    global_shape: Sequence[int],
    slice_dim: Optional[int] = None,
    slice_index: int = 0,
    num_slices: int = 1,
) -> np.ndarray:
    """Global linear indices of a rank's sub-block of a tensor.

    With no slicing this is just ``arange(prod(shape))`` reshaped. With
    slicing along ``slice_dim``, returns the indices of slice
    ``slice_index`` of ``num_slices`` — each element's index in the
    *full* tensor, which is what keys the dropout mask.
    """
    shape = tuple(int(s) for s in global_shape)
    if not shape:
        return np.zeros((), dtype=np.uint64)
    if slice_dim is None:
        n = int(np.prod(shape))
        return np.arange(n, dtype=np.uint64).reshape(shape)
    extent = shape[slice_dim] // num_slices
    coords = []
    for d, s in enumerate(shape):
        if d == slice_dim:
            coords.append(np.arange(
                slice_index * extent, (slice_index + 1) * extent, dtype=np.uint64
            ))
        else:
            coords.append(np.arange(s, dtype=np.uint64))
    strides = np.ones(len(shape), dtype=np.uint64)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * np.uint64(shape[d + 1])
    grid = np.zeros(tuple(len(c) for c in coords), dtype=np.uint64)
    for d, c in enumerate(coords):
        view = [np.newaxis] * len(shape)
        view[d] = slice(None)
        grid = grid + c[tuple(view)] * strides[d]
    return grid


def dropout_mask(
    seed: int,
    prob: float,
    global_shape: Sequence[int],
    slice_dim: Optional[int] = None,
    slice_index: int = 0,
    num_slices: int = 1,
) -> np.ndarray:
    """Inverted-dropout mask (0 or 1/(1-p)) for a rank's sub-block.

    Identical elements get identical mask values no matter how the
    tensor is sliced — the property transformation tests rely on.
    """
    idx = global_indices(global_shape, slice_dim, slice_index, num_slices)
    keep = uniform(seed, idx) >= prob
    return keep.astype(np.float64) / (1.0 - prob)
