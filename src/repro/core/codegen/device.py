"""Device-function library: the one numerics of every op.

Real CoCoNet kernels call CUDA device functions, cuBLAS and NCCL
(§5). Here every op's formula is one function of this module, and both
the lowered interpreter (:class:`repro.runtime.executor.Executor`) and
the generated per-rank modules call it: :func:`binary`,
:func:`unary`, :func:`dropout`, the reductions (:func:`partial`,
:func:`reduce_local`, :func:`total`), :func:`gemm` and
:func:`conv2d`, plus :func:`slice_of` and the counter-based
:func:`dropout_mask`. Each computes in float64 where the op does
arithmetic and rounds once to the expression dtype, so the tiers agree
bit for bit by construction. The native target's C loop
(:mod:`repro.core.codegen.native`) re-states :func:`binary` and
:func:`unary` for the ops it compiles and is held to them bit for bit.
Its compiled kernels bind here too (:func:`open_kernels`): a rank
opens the shared object its launcher resolved, and never compiles.
"""

from __future__ import annotations

import _ctypes
import ctypes
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import CodegenError
from repro.runtime.rng import dropout_mask  # noqa: F401  (re-export)
from repro.runtime.world import slice_of  # noqa: F401  (re-export)


def _rounded(x, dtype) -> np.ndarray:
    """``x`` rounded once to ``dtype``, always an array."""
    return np.asarray(x).astype(dtype)


def _wide(x) -> np.ndarray:
    return np.asarray(x).astype(np.float64)


#: every Binary and Unary op's formula; all but the ``_AS_GIVEN`` ones
#: run on float64 upcasts
_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "pow": np.power, "max": np.maximum, "min": np.minimum,
    "sqrt": np.sqrt, "rsqrt": lambda x: 1.0 / np.sqrt(x), "tanh": np.tanh,
    "exp": np.exp, "relu": lambda x: np.maximum(x, 0), "abs": np.abs,
}
_AS_GIVEN = ("max", "min", "relu", "abs")


def binary(op: str, a, b, dtype) -> np.ndarray:
    """Binary op ``a op b`` rounded once to ``dtype``.

    ``+ - * / pow`` compute on the float64 upcasts. ``max`` and ``min``
    compare the operands as given, in numpy's loop for their result
    type, which decides a signed-zero tie: the half loop keeps the
    first operand (``>=``), the float and double loops the second.

    >>> z, nz = 0.0, -0.0
    >>> binary("max", np.float16(nz), np.float16(z), np.float16)
    array(-0., dtype=float16)
    >>> binary("max", np.float32(nz), np.float32(z), np.float32)
    array(0., dtype=float32)
    """
    if op not in _AS_GIVEN:
        a, b = _wide(a), _wide(b)
    return _rounded(_OPS[op](a, b), dtype)


def unary(op: str, x, dtype) -> np.ndarray:
    """Unary op on ``x`` rounded once to ``dtype``: ``relu`` and ``abs``
    on the value as given, the rest on its float64 upcast."""
    return _rounded(_OPS[op](x if op in _AS_GIVEN else _wide(x)), dtype)


def dropout(x, mask: np.ndarray, dtype) -> np.ndarray:
    """``x`` times its (scaled) dropout mask, in float64, rounded once."""
    return _rounded(_wide(x) * mask, dtype)


_REDUCE = {"+": np.sum, "*": np.prod, "max": np.max, "min": np.min}


def partial(x, op: str) -> np.float64:
    """One rank's float64 partial of reduction ``op`` (``"norm"``: the
    sum of squares)."""
    x = _wide(x)
    return np.sum(x * x) if op == "norm" else _REDUCE[op](x)


def reduce_local(x, op: str, dtype) -> np.ndarray:
    """A reduction that stays on one rank: its partial, finished (a
    norm's square root) and rounded once. The partial is not re-reduced:
    ``np.sum([-0.0])`` is ``+0.0``."""
    v = partial(x, op)
    return _rounded(np.sqrt(v) if op == "norm" else v, dtype)


def total(parts: Sequence[float], op: str, dtype) -> np.ndarray:
    """The cross-rank result of reduction ``op`` from every rank's
    :func:`partial`, in rank order, rounded once."""
    v = _REDUCE["+" if op == "norm" else op](parts)
    return _rounded(np.sqrt(v) if op == "norm" else v, dtype)


def gemm(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """Library GEMM call (cuBLAS analogue), the one MatMul numerics.

    FP16 operands are upcast to FP32, numpy's BLAS multiplies, and the
    product is rounded once to ``dtype``: a V100 tensor-core GEMM's
    FP16 inputs with FP32 accumulation. numpy's half loop has no BLAS
    path. The interpreter and both generated targets call this.
    """
    a, b = (
        x.astype(np.float32) if x.dtype == np.float16 else x for x in (a, b)
    )
    return np.asarray(np.matmul(a, b)).astype(dtype)


def conv2d(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int, dtype
) -> np.ndarray:
    """Library convolution call (cuDNN analogue), the one Conv2D
    numerics: a direct float64 convolution rounded once to ``dtype``
    (small sizes only)."""
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    r, s = w.shape[2:]
    ho = (x.shape[2] - r) // stride + 1
    wo = (x.shape[3] - s) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], ho, wo), dtype=np.float64)
    x64 = x.astype(np.float64)
    w64 = w.astype(np.float64)
    for i in range(r):
        for j in range(s):
            patch = x64[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride]
            out += np.einsum("nchw,kc->nkhw", patch, w64[:, :, i, j])
    return out.astype(dtype)


class CompiledKernels:
    """A loaded kernel shared object; ``call`` invokes one C function.

    Every generated function has the uniform ABI
    ``void f(char** bufs, double* scalars)``: the loop's trip count is
    ``scalars[0]`` and only broadcast strides are baked into the
    source, so the Python side marshals base pointers and scalars (a
    ctypes foreign call releases the GIL — the overlap producer stream
    keeps running during compute).
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
