"""Device-function library imported by generated kernels.

Real CoCoNet kernels call CUDA device functions and NCCL primitives;
our generated Python kernels call these helpers for slicing, dropout
masks and convolution, and the rank's communicator for collectives.
Keeping them in a
library (rather than inlining) mirrors how generated CUDA links against
device-side headers. The native target's compiled kernels bind here too
(:func:`open_kernels`): a rank opens the shared object its launcher
resolved, and never compiles.
"""

from __future__ import annotations

import _ctypes
import ctypes
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import CodegenError
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


class CompiledKernels:
    """A loaded kernel shared object; ``call`` invokes one C function.

    Every generated function has the uniform ABI
    ``void f(char** bufs, double* scalars)`` with shapes, loop bounds
    and broadcast strides baked into the source, so the Python side
    only marshals base pointers (a ctypes foreign call releases the
    GIL — the overlap producer stream keeps running during compute).
    """

    def __init__(
        self, lib: ctypes.CDLL, key: str, path: str,
        functions: Sequence[str],
    ) -> None:
        self._lib = lib
        self.key = key
        self.path = path
        self.functions = tuple(functions)
        self._fns: Dict[str, object] = {}

    def _fn(self, name: str):
        fn = self._fns.get(name)
        if fn is None:
            fn = getattr(self._lib, name)
            fn.argtypes = [
                ctypes.POINTER(ctypes.c_void_p),
                ctypes.POINTER(ctypes.c_double),
            ]
            fn.restype = None
            self._fns[name] = fn
        return fn

    def call(
        self,
        name: str,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[float] = (),
        outputs: Sequence[np.ndarray] = (),
    ) -> None:
        """Run ``name`` over ``arrays`` then ``outputs`` (``A[k]`` in
        that order) and ``scalars`` (``S``).

        A non-contiguous input is read from a contiguous copy. An output
        is written where it lies (often a tensor's own region), so a
        non-contiguous one is an error: a copy would lose the write.
        """
        # the list keeps each input's copy alive until the call returns
        inputs = [np.ascontiguousarray(a) for a in arrays]
        for k, a in enumerate(outputs):
            if not a.flags["C_CONTIGUOUS"]:
                raise CodegenError(
                    f"kernel {name}: output {k} is not C-contiguous "
                    f"(shape {a.shape}, strides {a.strides})"
                )
        bufs = [a.ctypes.data for a in (*inputs, *outputs)]
        ptrs = (ctypes.c_void_p * len(bufs))(*bufs)
        sc = (ctypes.c_double * max(1, len(scalars)))(*scalars)
        self._fn(name)(ptrs, sc)


def open_kernels(
    key: str, path: str, functions: Sequence[str]
) -> Optional[CompiledKernels]:
    """Load ``path`` if it exports every one of ``functions``.

    An object that loads but lacks one is not this source's kernel (a
    stale or misplaced object): it is closed again, since ``dlopen``
    would otherwise hand its handle back for the recompiled file at the
    same path, and counts as unloadable (``None``).
    """
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    if all(hasattr(lib, name) for name in functions):
        return CompiledKernels(lib, key, path, functions)
    _ctypes.dlclose(lib._handle)
    return None
