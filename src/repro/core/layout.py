"""Distribution layouts for CoCoNet tensors.

Section 2.1 of the paper defines three layouts:

* **Sliced(d)** — "equally distributed among all nodes in a group along a
  specified dimension with RANK identifying the slice for that process."
* **Replicated** — "same value on each rank and it does not have a rank
  identifier."
* **Local** — "same shape on all ranks but different values on all ranks."

Layouts participate in static type checking: every operation's output
layout is inferred from its inputs (see :mod:`repro.core.inference`), and
transformations rewrite layouts (e.g. `reorder` turns replicated
computations into sliced ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

from repro.errors import LayoutError


class LayoutKind(Enum):
    SLICED = "sliced"
    REPLICATED = "replicated"
    LOCAL = "local"


@dataclass(frozen=True)
class Layout:
    """A distribution layout. Use :func:`Sliced`, :data:`Replicated`, or
    :data:`Local` rather than constructing directly.

    Attributes:
        kind: one of the three layout kinds.
        dim: for sliced layouts, the dimension along which the tensor is
            split among the ranks of its group; ``None`` otherwise.
    """

    kind: LayoutKind
    dim: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind is LayoutKind.SLICED and self.dim is None:
            raise LayoutError("a sliced layout requires a dimension")
        if self.kind is not LayoutKind.SLICED and self.dim is not None:
            raise LayoutError(f"{self.kind.value} layout takes no dimension")

    @property
    def is_sliced(self) -> bool:
        return self.kind is LayoutKind.SLICED

    @property
    def is_replicated(self) -> bool:
        return self.kind is LayoutKind.REPLICATED

    @property
    def is_local(self) -> bool:
        return self.kind is LayoutKind.LOCAL

    def __repr__(self) -> str:
        if self.is_sliced:
            return f"Sliced({self.dim})"
        return self.kind.value.capitalize()


def Sliced(dim: int) -> Layout:
    """Layout of a tensor split along dimension ``dim`` across its group."""
    if dim < 0:
        raise LayoutError(f"slice dimension must be non-negative, got {dim}")
    return Layout(LayoutKind.SLICED, dim)


Replicated = Layout(LayoutKind.REPLICATED)
Local = Layout(LayoutKind.LOCAL)


def normalize_dim(dim: int, rank: int) -> int:
    """Normalize a possibly-negative dimension index against ``rank`` dims."""
    if dim < 0:
        dim += rank
    if not 0 <= dim < rank:
        raise LayoutError(f"dimension {dim} out of range for {rank}-d tensor")
    return dim


def slice_shape(
    global_shape: Sequence[int], layout: Layout, group_size: int
) -> Tuple[int, ...]:
    """Return the per-rank shape of a tensor with ``global_shape``.

    For sliced tensors the sliced dimension shrinks by the group size
    ("equally distributed"); replicated and local tensors keep the full
    shape on every rank.

    Raises:
        LayoutError: if a sliced dimension does not divide evenly.
    """
    shape = tuple(int(s) for s in global_shape)
    if not layout.is_sliced:
        return shape
    # per-rank slice and per-peer exchange chunk share the same math
    return exchange_chunk_shape(shape, layout.dim, group_size)


def exchange_chunk_shape(
    global_shape: Sequence[int], dim: int, group_size: int
) -> Tuple[int, ...]:
    """Shape of one AllToAll exchange chunk.

    An AllToAll keeps the per-rank shape intact but moves ``group_size``
    equal chunks along ``dim`` between ranks; this is the shape of each
    chunk on the wire. Backs the AllToAll shape rule in
    :func:`repro.core.inference.alltoall_layout`.

    Raises:
        LayoutError: if ``dim`` does not divide evenly.
    """
    shape = tuple(int(s) for s in global_shape)
    dim = normalize_dim(dim, len(shape))
    if shape[dim] % group_size != 0:
        raise LayoutError(
            f"dimension {dim} of shape {shape} is not divisible by "
            f"group size {group_size}"
        )
    return shape[:dim] + (shape[dim] // group_size,) + shape[dim + 1 :]
