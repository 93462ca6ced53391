"""Operations of the CoCoNet DSL (Table 1 of the paper).

Operations are classified as "(i) local computations, such as pointwise
computations, matrix multiplication, and convolution, and (ii) cross rank
communication operations, such as AllReduce, AllGather, and P2P Send-Recv"
(Section 2.2). Each operation is an :class:`Expr` vertex whose output
shape and layout are inferred at construction time — the static checking
the paper highlights as a benefit of carrying layouts in the type system.

Constructor functions use the paper's capitalized names so programs read
like Figure 3::

    layer = MatMul(in_, w)
    sum_  = AllReduce("+", layer)
    drop  = Dropout(sum_ + b, 0.1)
    out   = drop + r
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple, Union

from repro.core import inference
from repro.core.dtypes import DType, promote
from repro.core.layout import (
    Local,
    Replicated,
    Sliced,
    normalize_dim,
)
from repro.core.tensor import Const, Expr, Number, Tensor, as_expr, _fresh_name
from repro.errors import LayoutError, ShapeError

REDUCTION_OPS = ("+", "max", "min", "*")

_seed_counter = itertools.count(0x5EED)


def _check_reduction(op: str) -> str:
    if op not in REDUCTION_OPS:
        raise ValueError(f"unknown reduction {op!r}; expected one of {REDUCTION_OPS}")
    return op


class CommOp(Expr):
    """Base class for cross-rank communication operations."""

    #: the collective's kind, which the cost model prices
    comm_kind: str = "comm"


class ComputeOp(Expr):
    """Base class for local computation operations."""


class PointwiseOp(ComputeOp):
    """Computation applied independently per element (fusable, sliceable)."""


# ---------------------------------------------------------------------------
# Communication operations
# ---------------------------------------------------------------------------


class AllReduce(CommOp):
    """Reduce values across all ranks of the group; everyone gets the sum.

    Input must be *local* (per-rank partial values); output is replicated.
    """

    comm_kind = "allreduce"

    def __init__(self, op: str, x: Expr, name: Optional[str] = None):
        self.reduction = _check_reduction(op)
        if not (x.layout.is_local or x.layout.is_replicated):
            raise LayoutError(
                f"AllReduce input must be local (per-rank partial values), "
                f"got {x.signature()}"
            )
        super().__init__(
            name or _fresh_name(f"ar_{x.name}"), x.dtype, x.shape, Replicated, x.group, (x,)
        )


class ReduceScatter(CommOp):
    """Reduce across ranks, leaving each rank with one slice of the result."""

    comm_kind = "reducescatter"

    def __init__(self, op: str, x: Expr, dim: int = 0, name: Optional[str] = None):
        self.reduction = _check_reduction(op)
        if not (x.layout.is_local or x.layout.is_replicated):
            raise LayoutError(
                f"ReduceScatter input must be local, got {x.signature()}"
            )
        dim = normalize_dim(dim, len(x.shape))
        super().__init__(
            name or _fresh_name(f"rs_{x.name}"), x.dtype, x.shape, Sliced(dim), x.group, (x,)
        )


class AllGather(CommOp):
    """Gather slices from all ranks; everyone gets the full tensor.

    ``writeback`` names an input tensor whose replicated storage must
    receive the gathered value: the reorder transformation sets it when
    gathering the result of a sliced in-place Update (e.g. ``agP`` in
    Figure 6b restores the replicated parameter tensor ``p``).
    """

    comm_kind = "allgather"
    writeback: Optional[Tensor] = None

    def __init__(self, x: Expr, name: Optional[str] = None):
        if not x.layout.is_sliced:
            raise LayoutError(f"AllGather input must be sliced, got {x.signature()}")
        self.dim = normalize_dim(x.layout.dim, len(x.shape))
        super().__init__(
            name or _fresh_name(f"ag_{x.name}"), x.dtype, x.shape, Replicated, x.group, (x,)
        )


class Reduce(CommOp):
    """Reduce across ranks onto a single root rank."""

    comm_kind = "reduce"

    def __init__(self, op: str, x: Expr, root: int = 0, name: Optional[str] = None):
        self.reduction = _check_reduction(op)
        self.root = root
        if not (x.layout.is_local or x.layout.is_replicated):
            raise LayoutError(f"Reduce input must be local, got {x.signature()}")
        super().__init__(
            name or _fresh_name(f"red_{x.name}"), x.dtype, x.shape, Local, x.group, (x,)
        )


class Broadcast(CommOp):
    """Broadcast the root rank's value to all ranks of the group."""

    comm_kind = "broadcast"

    def __init__(self, x: Expr, root: int = 0, name: Optional[str] = None):
        self.root = root
        super().__init__(
            name or _fresh_name(f"bc_{x.name}"), x.dtype, x.shape, Replicated, x.group, (x,)
        )


class AllToAll(CommOp):
    """Exchange chunk ``i`` of every rank's buffer with rank ``i``.

    The collective behind Mixture-of-Experts dispatch/combine (GShard):
    each rank splits its *local* buffer into ``group.size`` equal chunks
    along ``dim``, sends chunk ``j`` to rank ``j``, and concatenates the
    chunks it receives in source-rank order. Input and output are both
    Local — same shape on every rank, different values — so an AllToAll
    composed with itself along the same dimension is the identity
    (dispatch followed by combine restores token ownership).
    """

    comm_kind = "alltoall"

    def __init__(self, x: Expr, dim: int = 0, name: Optional[str] = None):
        layout, self.dim = inference.alltoall_layout(x, dim)
        super().__init__(
            name or _fresh_name(f"a2a_{x.name}"),
            x.dtype, x.shape, layout, x.group, (x,),
        )


class AllToAllPhase(CommOp):
    """One phase of a hierarchical (intra-node / inter-node) AllToAll.

    The split transformation decomposes a flat AllToAll over ``k * m``
    ranks (``k`` nodes of ``m`` GPUs) into two phases:

    * **intra** — ranks exchange within their node, regrouping chunks by
      destination-local index; moves ``(m-1)/m`` of the buffer over the
      NVSwitch fabric;
    * **inter** — ranks exchange the regrouped blocks across nodes with
      the peers sharing their local index; moves ``(k-1)/k`` of the
      buffer over the NICs.

    ``inter(intra(x))`` equals the flat ``AllToAll(x)`` exactly (see
    :mod:`repro.runtime.collectives` and the equivalence tests), while
    the cost model charges each phase only its own fabric.

    A ``node_size`` larger than the group degenerates (with a clamp to
    the group size) to a single-level decomposition: the intra phase is
    the whole exchange and the inter phase a no-op. A non-positive
    ``node_size`` is rejected.
    """

    def __init__(
        self,
        x: Expr,
        dim: int,
        phase: str,
        node_size: int,
        name: Optional[str] = None,
    ):
        if phase not in ("intra", "inter"):
            raise ValueError(f"unknown AllToAll phase {phase!r}")
        if int(node_size) < 1:
            raise LayoutError(
                f"hierarchical AllToAll node size must be >= 1, got "
                f"{node_size}"
            )
        layout, self.dim = inference.alltoall_layout(x, dim)
        n = x.group.size
        m = min(int(node_size), n)
        if n % m != 0:
            raise LayoutError(
                f"hierarchical AllToAll needs the group size {n} divisible "
                f"by the node size {m}"
            )
        self.phase = phase
        self.node_size = m
        super().__init__(
            name or _fresh_name(f"a2a_{phase}_{x.name}"),
            x.dtype, x.shape, layout, x.group, (x,),
        )

    @property
    def comm_kind(self) -> str:
        return f"alltoall_{self.phase}"


class _SymbolicGroup:
    """The GROUP placeholder; ``GROUP + 1`` addresses the next group."""

    def __add__(self, offset: int) -> "GroupShift":
        return GroupShift(int(offset))

    def __repr__(self) -> str:
        return "GROUP"


GROUP = _SymbolicGroup()


class GroupShift:
    """Result of ``GROUP + k``: the group ``k`` positions after ours."""

    def __init__(self, offset: int):
        self.offset = offset

    def __repr__(self) -> str:
        return f"GROUP+{self.offset}"


class GroupRank:
    """Addressing helper for P2P sends: ``GroupRank(GROUP + 1, RANK)``.

    Names the process with the *same local rank* in another group, exactly
    as used by the pipeline-parallel program of Figure 8a.
    """

    def __init__(self, group: "GroupShift | _SymbolicGroup", rank: object):
        if isinstance(group, _SymbolicGroup):
            group = GroupShift(0)
        if not isinstance(group, GroupShift):
            raise TypeError("GroupRank expects GROUP or GROUP + offset")
        self.group_offset = group.offset
        self.rank = rank

    def __repr__(self) -> str:
        return f"GroupRank(GROUP+{self.group_offset}, RANK)"


class Send(CommOp):
    """P2P send to the same local rank of another group (Figure 8a).

    The result expression lives in the *destination* group with the same
    layout: sending a sliced tensor delivers a sliced tensor there, which
    is what makes the reorder of P2P sends with AllGather well-typed.
    """

    comm_kind = "send"

    def __init__(self, x: Expr, dst: GroupRank, name: Optional[str] = None):
        self.dst = dst
        dst_group = x.group.next_group(dst.group_offset)
        super().__init__(
            name or _fresh_name(f"send_{x.name}"), x.dtype, x.shape, x.layout, dst_group, (x,)
        )


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class MatMul(ComputeOp):
    """Matrix multiplication [..., M, K] x [K, N] → [..., M, N].

    Layout behaviour follows Section 2.2: a MatMul between an input sliced
    along its contraction dimension and a row-sliced weight produces a
    *local* partial result, which an AllReduce then combines.
    """

    def __init__(self, a: Expr, b: Expr, name: Optional[str] = None):
        inference.require_same_group(a, b)
        shape = inference.matmul_shape(a, b)
        layout = inference.matmul_layout(a, b)
        dtype = promote(a.dtype, b.dtype)
        super().__init__(name or _fresh_name(f"mm_{a.name}"), dtype, shape, layout, a.group, (a, b))

    def flops(self) -> int:
        """Multiply-accumulate FLOPs performed per rank."""
        m = 1
        for s in self.inputs[0].per_rank_shape()[:-1]:
            m *= s
        k = self.inputs[0].per_rank_shape()[-1]
        n = self.inputs[1].per_rank_shape()[-1]
        return 2 * m * k * n


class Conv2D(ComputeOp):
    """2-D convolution [N,C,H,W] * [K,C,R,S] → [N,K,H',W'] (stride/pad)."""

    def __init__(
        self,
        x: Expr,
        w: Expr,
        stride: int = 1,
        padding: int = 0,
        name: Optional[str] = None,
    ):
        inference.require_same_group(x, w)
        if len(x.shape) != 4 or len(w.shape) != 4:
            raise ShapeError("Conv2D expects 4-D input and weight")
        if x.shape[1] != w.shape[1]:
            raise ShapeError(
                f"Conv2D channel mismatch: input {x.shape}, weight {w.shape}"
            )
        n, _, h, wdt = x.shape
        k, _, r, s = w.shape
        ho = (h + 2 * padding - r) // stride + 1
        wo = (wdt + 2 * padding - s) // stride + 1
        if ho <= 0 or wo <= 0:
            raise ShapeError("Conv2D output has non-positive spatial dims")
        if x.layout.is_sliced or w.layout.is_sliced:
            raise LayoutError("Conv2D supports replicated/local operands only")
        layout = Local if (x.layout.is_local or w.layout.is_local) else Replicated
        self.stride, self.padding = stride, padding
        super().__init__(
            name or _fresh_name(f"conv_{x.name}"),
            promote(x.dtype, w.dtype),
            (n, k, ho, wo),
            layout,
            x.group,
            (x, w),
        )


# ---------------------------------------------------------------------------
# Pointwise computation
# ---------------------------------------------------------------------------

BINARY_OPS = ("+", "-", "*", "/", "pow", "max", "min")
UNARY_OPS = ("sqrt", "relu", "tanh", "exp", "abs", "rsqrt")


class Binary(PointwiseOp):
    """Elementwise binary operation with broadcast semantics.

    Python numbers are lifted to constants, so ``Binary("+", x, 1.0)``
    works like ``x + 1.0``.
    """

    def __init__(
        self,
        op: str,
        a: "Expr | Number",
        b: "Expr | Number",
        name: Optional[str] = None,
    ):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        if not isinstance(a, Expr) and not isinstance(b, Expr):
            raise TypeError("at least one operand must be an expression")
        like = a if isinstance(a, Expr) else b
        a = as_expr(a, like)
        b = as_expr(b, like)
        inference.require_same_group(a, b)
        self.op = op
        shape = inference.broadcast_shapes(a.shape, b.shape)
        layout = inference.pointwise_layout(a, b, shape)
        dtype = promote(a.dtype, b.dtype)
        super().__init__(name or _fresh_name(f"bin_{op}"), dtype, shape, layout, a.group, (a, b))


class Unary(PointwiseOp):
    """Elementwise unary operation (sqrt, relu, tanh, ...)."""

    def __init__(self, op: str, x: Expr, name: Optional[str] = None):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        super().__init__(
            name or _fresh_name(f"{op}_{x.name}"), x.dtype, x.shape, x.layout, x.group, (x,)
        )


class Dropout(PointwiseOp):
    """Dropout activation.

    The mask is drawn from a counter-based RNG keyed on the *global*
    element index (see :mod:`repro.runtime.rng`), so a sliced execution of
    a reordered program draws exactly the same mask as the replicated
    original — the property that makes the reorder transformation
    semantics-preserving for Dropout.
    """

    def __init__(
        self,
        x: Expr,
        prob: float,
        seed: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if not 0.0 <= prob < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {prob}")
        self.prob = float(prob)
        self.seed = seed if seed is not None else next(_seed_counter)
        super().__init__(
            name or _fresh_name(f"drop_{x.name}"), x.dtype, x.shape, x.layout, x.group, (x,)
        )


class Cast(PointwiseOp):
    """Elementwise datatype conversion (mixed-precision support)."""

    def __init__(self, dtype: DType, x: Expr, name: Optional[str] = None):
        super().__init__(
            name or _fresh_name(f"cast_{x.name}"), dtype, x.shape, x.layout, x.group, (x,)
        )


class Slice(PointwiseOp):
    """Take the executing rank's slice of a replicated tensor.

    Introduced by the reorder transformation: "all tensors input to the
    computations are also sliced along the same dimension as the input of
    AllGather" (Section 3.2) — e.g. ``Slice(r)`` in Figure 4 program 2.
    """

    def __init__(self, x: Expr, dim: int, name: Optional[str] = None):
        if not x.layout.is_replicated:
            raise LayoutError(f"Slice input must be replicated, got {x.signature()}")
        dim = normalize_dim(dim, len(x.shape))
        super().__init__(
            name or _fresh_name(f"slice_{x.name}"), x.dtype, x.shape, Sliced(dim), x.group, (x,)
        )


class Norm(ComputeOp):
    """L2 norm of a tensor, as a zero-dimensional result.

    Norm of a *sliced* tensor is still the global norm: "To reduce a
    sliced tensor, each rank reduces locally and do an AllReduce"
    (Section 5.2). The executor and cost model implement exactly that.
    """

    def __init__(self, x: Expr, name: Optional[str] = None):
        layout = Local if x.layout.is_local else Replicated
        self.crosses_ranks = x.layout.is_sliced
        super().__init__(name or _fresh_name(f"norm_{x.name}"), x.dtype, (), layout, x.group, (x,))


class ReduceTensor(ComputeOp):
    """Full reduction of a tensor to a zero-dimensional value."""

    def __init__(self, op: str, x: Expr, name: Optional[str] = None):
        self.reduction = _check_reduction(op)
        layout = Local if x.layout.is_local else Replicated
        self.crosses_ranks = x.layout.is_sliced
        super().__init__(name or _fresh_name(f"rt_{x.name}"), x.dtype, (), layout, x.group, (x,))


class Update(PointwiseOp):
    """In-place update of an input tensor (Figure 6a, lines 2-3).

    "Update updates the values of a tensor and reflects the new values in
    that position in the DFG." The output represents the tensor's new
    value; the runtime writes it back to the input's storage.
    """

    def __init__(self, target: Tensor, value: Expr, name: Optional[str] = None):
        if not isinstance(target, Tensor):
            raise TypeError("Update target must be an input Tensor")
        inference.require_same_group(target, value)
        if value.shape != target.shape:
            raise ShapeError(
                f"Update value shape {value.shape} != target shape {target.shape}"
            )
        self.target = target
        super().__init__(
            name or _fresh_name(f"upd_{target.name}"),
            target.dtype,
            target.shape,
            value.layout,
            target.group,
            (value,),
        )


# ---------------------------------------------------------------------------
# Constructor helpers (paper-style free functions)
# ---------------------------------------------------------------------------


def binary(op: str, a: "Expr | Number", b: "Expr | Number") -> Binary:
    if not isinstance(a, Expr) and not isinstance(b, Expr):
        raise TypeError("at least one operand must be an expression")
    like = a if isinstance(a, Expr) else b
    return Binary(op, as_expr(a, like), as_expr(b, like))


def Sqrt(x: Expr) -> Unary:
    return Unary("sqrt", x)


def Rsqrt(x: Expr) -> Unary:
    return Unary("rsqrt", x)


def ReLU(x: Expr) -> Unary:
    return Unary("relu", x)


def Tanh(x: Expr) -> Unary:
    return Unary("tanh", x)


def Pow(a: "Expr | Number", b: "Expr | Number") -> Binary:
    return binary("pow", a, b)


COMM_OP_TYPES = (
    AllReduce, ReduceScatter, AllGather, Reduce, Broadcast, Send,
    AllToAll, AllToAllPhase,
)

__all__ = [
    "AllReduce",
    "AllGather",
    "AllToAll",
    "AllToAllPhase",
    "ReduceScatter",
    "Reduce",
    "Broadcast",
    "Send",
    "GroupRank",
    "GroupShift",
    "GROUP",
    "MatMul",
    "Conv2D",
    "Binary",
    "Unary",
    "Dropout",
    "Cast",
    "Slice",
    "Norm",
    "ReduceTensor",
    "Update",
    "binary",
    "Sqrt",
    "Rsqrt",
    "ReLU",
    "Tanh",
    "Pow",
    "CommOp",
    "ComputeOp",
    "PointwiseOp",
    "COMM_OP_TYPES",
    "REDUCTION_OPS",
]
