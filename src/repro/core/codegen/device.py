"""Device-function library imported by generated kernels.

Real CoCoNet kernels call CUDA device functions and NCCL primitives;
our generated Python kernels call these helpers for slicing, dropout
masks and convolution, and the rank's communicator for collectives.
Keeping them in a
library (rather than inlining) mirrors how generated CUDA links against
device-side headers.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.rng import dropout_mask  # noqa: F401  (re-export)
from repro.runtime.world import check_divisible


def slice_bounds(extent: int, index: int, parts: int, context: str = ""):
    """Half-open bounds of slice ``index`` of ``parts`` over ``extent``.

    Uneven extents raise instead of silently truncating the tail (which
    would leave stale values in the untouched region); ``context`` names
    the tensor/op for the error message.
    """
    step = check_divisible((extent,), 0, parts, context)
    return index * step, (index + 1) * step


def take_slice(
    array: np.ndarray, dim: int, index: int, parts: int, context: str = ""
) -> np.ndarray:
    lo, hi = slice_bounds(array.shape[dim], index, parts, context)
    sl = [slice(None)] * array.ndim
    sl[dim] = slice(lo, hi)
    return array[tuple(sl)]


def write_slice(
    array: np.ndarray,
    dim: int,
    index: int,
    parts: int,
    value: np.ndarray,
    context: str = "",
) -> None:
    lo, hi = slice_bounds(array.shape[dim], index, parts, context)
    sl = [slice(None)] * array.ndim
    sl[dim] = slice(lo, hi)
    array[tuple(sl)] = value


def conv2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Library convolution call (cuDNN analogue)."""
    from repro.runtime.executor import _conv2d

    return _conv2d(x, w, stride, padding)
