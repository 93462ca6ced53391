"""Expression graph leaves: distributed tensors, scalars and constants.

A CoCoNet program is a data-flow graph (DFG) "with operations as vertices
and data dependencies as edges" (Section 2.2). Every vertex is an
:class:`Expr`. This module defines the base class and the three leaf
kinds:

* :class:`Tensor` — a distributed input tensor with dtype, shape, layout
  and process group (Section 2.1);
* :class:`Scalar` — "a zero-dimensional tensor that represents a variable
  available on all ranks";
* :class:`Const` — a literal constant lifted from Python numbers.

Operation vertices live in :mod:`repro.core.ops`; arithmetic operators on
expressions (``+``, ``-``, ``*``, ``/``) build those vertices so programs
read like the paper's examples.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.core.dtypes import DType, FP32
from repro.core.layout import Layout, Local, Replicated, slice_shape
from repro.core.process_group import RANK, ProcessGroup, _SymbolicRank
from repro.errors import LayoutError, ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    pass

_counter = itertools.count()


def _fresh_name(prefix: str) -> str:
    return f"{prefix}_{next(_counter)}"


def reset_names() -> None:
    """Reset the global name counter (used by tests for stable output)."""
    global _counter
    _counter = itertools.count()


Number = Union[int, float]


class Expr:
    """A vertex of the data-flow graph.

    Attributes:
        name: unique name of the value this vertex produces.
        dtype: element datatype.
        shape: the *global* logical shape; the per-rank shape follows from
            the layout (see :meth:`per_rank_shape`).
        layout: distribution layout (sliced / replicated / local).
        group: process group the value lives in.
        inputs: upstream expressions this vertex depends on.
    """

    def __init__(
        self,
        name: str,
        dtype: DType,
        shape: Sequence[int],
        layout: Layout,
        group: ProcessGroup,
        inputs: Sequence["Expr"] = (),
    ) -> None:
        self.name = name
        self.dtype = dtype
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ShapeError(f"{name}: shape {self.shape} has non-positive dims")
        self.layout = layout
        self.group = group
        self.inputs: Tuple[Expr, ...] = tuple(inputs)
        # Validate slicing divides evenly, eagerly.
        slice_shape(self.shape, layout, group.size)

    # -- structural queries -------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.inputs

    @property
    def num_elements(self) -> int:
        """Total number of elements in the global tensor."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def per_rank_shape(self) -> Tuple[int, ...]:
        """Shape of the portion stored on each rank of the group."""
        return slice_shape(self.shape, self.layout, self.group.size)

    def per_rank_elements(self) -> int:
        n = 1
        for s in self.per_rank_shape():
            n *= s
        return n

    def per_rank_bytes(self) -> int:
        """Bytes stored per rank (drives the memory and comm cost models)."""
        return self.per_rank_elements() * self.dtype.itemsize

    # -- operator sugar (defined in ops.py to avoid the import cycle) -------

    def __add__(self, other: "Expr | Number") -> "Expr":
        from repro.core import ops

        return ops.binary("+", self, other)

    def __radd__(self, other: Number) -> "Expr":
        from repro.core import ops

        return ops.binary("+", other, self)

    def __sub__(self, other: "Expr | Number") -> "Expr":
        from repro.core import ops

        return ops.binary("-", self, other)

    def __rsub__(self, other: Number) -> "Expr":
        from repro.core import ops

        return ops.binary("-", other, self)

    def __mul__(self, other: "Expr | Number") -> "Expr":
        from repro.core import ops

        return ops.binary("*", self, other)

    def __rmul__(self, other: Number) -> "Expr":
        from repro.core import ops

        return ops.binary("*", other, self)

    def __truediv__(self, other: "Expr | Number") -> "Expr":
        from repro.core import ops

        return ops.binary("/", self, other)

    def __rtruediv__(self, other: Number) -> "Expr":
        from repro.core import ops

        return ops.binary("/", other, self)

    def __neg__(self) -> "Expr":
        from repro.core import ops

        return ops.binary("*", -1.0, self)

    # Graph nodes compare by identity; hash accordingly.
    __hash__ = object.__hash__

    def signature(self) -> str:
        """One-line description, e.g. ``sum(FP16, [8,1024,3072], Replicated)``."""
        dims = ",".join(str(s) for s in self.shape)
        return f"{self.name}({self.dtype.name}, [{dims}], {self.layout!r})"

    def __repr__(self) -> str:
        return self.signature()


class Tensor(Expr):
    """A distributed input tensor (Section 2.1).

    Mirrors the paper's declaration syntax::

        Tensor w(FP16, [H, H], Sliced(0), WORLD, RANK)
        Tensor b(FP16, [H],    Replicated, WORLD)

    ``rank`` is the symbolic RANK marker required for sliced and local
    tensors ("A local tensor requires RANK to identify the values") and
    disallowed for replicated ones ("it does not have a rank identifier").
    """

    def __init__(
        self,
        dtype: DType,
        shape: Sequence[int],
        layout: Layout,
        group: ProcessGroup,
        rank: Optional[_SymbolicRank] = None,
        name: Optional[str] = None,
    ) -> None:
        if layout.is_replicated and rank is not None:
            raise LayoutError(
                "a replicated tensor does not take a rank identifier"
            )
        if (layout.is_sliced or layout.is_local) and rank is not RANK:
            raise LayoutError(
                f"a {layout!r} tensor requires the RANK identifier"
            )
        super().__init__(name or _fresh_name("t"), dtype, shape, layout, group)


class Scalar(Expr):
    """A zero-dimensional tensor available with the same value on all ranks."""

    def __init__(
        self,
        dtype: DType,
        name: Optional[str] = None,
        group: Optional[ProcessGroup] = None,
    ) -> None:
        if group is None:
            raise LayoutError("Scalar requires a process group")
        super().__init__(name or _fresh_name("s"), dtype, (), Replicated, group)


class Const(Expr):
    """A literal constant, e.g. the ``0.1`` in ``Dropout(sum + b, 0.1)``."""

    def __init__(
        self,
        value: Number,
        group: ProcessGroup,
        dtype: DType = FP32,
    ) -> None:
        super().__init__(_fresh_name("c"), dtype, (), Replicated, group)
        self.value = float(value)

    def signature(self) -> str:
        return f"const({self.value})"


def as_expr(value: "Expr | Number", like: Expr) -> Expr:
    """Lift a Python number to a :class:`Const` in ``like``'s group."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value, like.group)
    raise TypeError(f"cannot use {type(value).__name__} as a CoCoNet expression")


__all__ = [
    "Expr",
    "Tensor",
    "Scalar",
    "Const",
    "as_expr",
    "reset_names",
    "Local",
    "Replicated",
]
