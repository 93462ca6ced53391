"""Element datatypes for distributed tensors.

CoCoNet tensors carry an item datatype "like FP32 and FP16" (Section 2.1).
This module defines those datatypes, their sizes (needed by the
communication cost model and the memory model), their numpy equivalents
(needed by the numeric executor), and the mixed-precision promotion rules
used by code generation (Section 5.2, "Mixed Precision").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DTypeError


@dataclass(frozen=True)
class DType:
    """An element datatype.

    Attributes:
        name: canonical name used in printed programs, e.g. ``"FP16"``.
        itemsize: size of one element in bytes.
        np_dtype: the numpy dtype string used by the simulated executor.
        is_float: whether the type is a floating-point type.
    """

    name: str
    itemsize: int
    np_dtype: str
    is_float: bool = True

    def to_numpy(self) -> np.dtype:
        """Return the numpy dtype used to hold values of this type."""
        return np.dtype(self.np_dtype)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name


FP16 = DType("FP16", 2, "float16")
BF16 = DType("BF16", 2, "float32")  # numpy lacks bfloat16; simulate in fp32
FP32 = DType("FP32", 4, "float32")
FP64 = DType("FP64", 8, "float64")
INT32 = DType("INT32", 4, "int32", is_float=False)
INT64 = DType("INT64", 8, "int64", is_float=False)

ALL_DTYPES = (FP16, BF16, FP32, FP64, INT32, INT64)

_BY_NAME = {d.name: d for d in ALL_DTYPES}

# Promotion lattice position: higher rank wins in mixed-type arithmetic.
_PROMOTION_RANK = {
    "INT32": 0,
    "INT64": 1,
    "FP16": 2,
    "BF16": 2,
    "FP32": 3,
    "FP64": 4,
}


def dtype_by_name(name: str) -> DType:
    """Look up a datatype by its canonical name.

    Raises:
        DTypeError: if ``name`` is not a known datatype.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DTypeError(f"unknown dtype {name!r}; known: {sorted(_BY_NAME)}") from None


def promote(a: DType, b: DType) -> DType:
    """Return the result datatype of an arithmetic op between ``a`` and ``b``.

    This mirrors the paper's mixed-precision handling: "CoCoNet finds the
    largest element type" (Section 5.2). FP16 op FP32 promotes to FP32;
    equal-rank types resolve to the left operand.
    """
    ra, rb = _PROMOTION_RANK[a.name], _PROMOTION_RANK[b.name]
    if ra == rb:
        return a
    return a if ra > rb else b
