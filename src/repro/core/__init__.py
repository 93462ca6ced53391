"""The CoCoNet DSL core: distributed tensors, operations, programs,
transformations, the autotuner and the code generator.

This package is the paper's primary contribution. Quick tour::

    from repro.core import (
        FP16, Sliced, Replicated, world, RANK,
        Tensor, MatMul, AllReduce, Dropout, Execute,
    )

    W = world(16)
    w   = Tensor(FP16, (H, H), Sliced(0), W, RANK)
    b   = Tensor(FP16, (H,), Replicated, W)
    in_ = Tensor(FP16, (B, S, H), Sliced(2), W, RANK)
    r   = Tensor(FP16, (B, S, H), Replicated, W)

    layer = MatMul(in_, w)
    out   = Dropout(AllReduce("+", layer) + b, 0.1) + r
    prog  = Execute("self_attention", [w, in_, b, r], [out])
"""

from repro import lazy_exports


def _names(module: str, names: str):
    return {name: module for name in names.split()}


#: public name -> its submodule, imported on first access: a rank
#: process needs a few of these modules, never the lowering or the
#: transformations. ``repro.core.lower`` is the module; its function
#: is ``from repro.core.lower import lower``.
_EXPORTS = {
    # dtypes
    **_names(
        "dtypes",
        "DType FP16 BF16 FP32 FP64 INT32 INT64 ALL_DTYPES dtype_by_name "
        "promote",
    ),
    # layouts & groups
    **_names("layout", "Layout Sliced Replicated Local"),
    **_names("process_group", "ProcessGroup world split_world RANK"),
    # leaves
    **_names("tensor", "Expr Tensor Scalar Const reset_names"),
    # ops
    **_names(
        "ops",
        "GROUP GroupRank AllReduce AllGather AllToAll AllToAllPhase "
        "ReduceScatter Reduce Broadcast Send MatMul Conv2D Binary Unary "
        "Dropout Cast Slice Norm ReduceTensor Update Sqrt Rsqrt ReLU Tanh "
        "Pow CommOp ComputeOp PointwiseOp",
    ),
    # programs
    **_names("program", "Execute Program"),
    # lowering (the shared instruction IR)
    **_names(
        "lower",
        "LoweredProgram LocalCompute CollectiveStep PackScattered ChunkLoop",
    ),
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
