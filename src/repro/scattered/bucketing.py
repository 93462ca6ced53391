"""Bucketing of scattered (non-contiguous) tensors (Section 5.4).

"CoCoNet solves this problem by first dividing each tensor into buckets
of size at most 2^10 elements and then assigning buckets to warps in a
round-robin manner. This mechanism allows each thread to quickly find
the offset in a tensor, since a warp can directly index in its assigned
bucket. ... Each bucket is represented by a pair of 64-bit tensor
address and a 32-bit offset into the associated tensor, leading to
12 · ⌈N / 2^10⌉ bytes of extra memory for a tensor with N elements."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import CoCoNetError

#: Maximum bucket size: 2^10 elements.
BUCKET_ELEMENTS = 1024

#: Bytes of metadata per bucket: 64-bit tensor address + 32-bit offset.
BUCKET_METADATA_BYTES = 12

#: CUDA warp size; buckets are assigned to warps round-robin.
WARP_SIZE = 32


@dataclass(frozen=True)
class Bucket:
    """One bucket: a (tensor, offset, length) triple."""

    tensor_index: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if not 0 < self.length <= BUCKET_ELEMENTS:
            raise CoCoNetError(
                f"bucket length {self.length} outside (0, {BUCKET_ELEMENTS}]"
            )


def bucket_memory_overhead(num_elements: int) -> int:
    """Extra bytes of bucket metadata for a tensor of ``num_elements``.

    The paper's 12 · ⌈N / 2^10⌉ formula; e.g. BERT's 334M elements cost
    ~0.6% extra (§5.4).
    """
    if num_elements < 0:
        raise CoCoNetError("negative element count")
    return BUCKET_METADATA_BYTES * -(-num_elements // BUCKET_ELEMENTS)


class ScatteredTensorSet:
    """A set of non-contiguous tensors addressed through buckets.

    Provides (i) the bucket table a generated kernel indexes, (ii) warp
    assignment round-robin, (iii) flat gather/scatter used by the
    copy-based baselines, and (iv) the one-time CPU bucketing whose cost
    the paper amortizes over training ("this bucketing is done only once
    on the CPU and training tasks run for thousands of iterations").
    """

    def __init__(self, tensors: Sequence[np.ndarray]) -> None:
        if not tensors:
            raise CoCoNetError("ScatteredTensorSet needs at least one tensor")
        self.tensors: List[np.ndarray] = [np.asarray(t) for t in tensors]
        self.buckets: List[Bucket] = []
        for ti, t in enumerate(self.tensors):
            n = t.size
            off = 0
            while off < n:
                length = min(BUCKET_ELEMENTS, n - off)
                self.buckets.append(Bucket(ti, off, length))
                off += length

    @property
    def total_elements(self) -> int:
        return sum(t.size for t in self.tensors)

    @property
    def metadata_bytes(self) -> int:
        """Total bucket-table bytes (pre-computed once on the CPU)."""
        return BUCKET_METADATA_BYTES * len(self.buckets)

    def metadata_fraction(self) -> float:
        """Metadata overhead relative to the data itself."""
        data_bytes = sum(t.nbytes for t in self.tensors)
        return self.metadata_bytes / data_bytes

    # -- flat <-> scattered movement ------------------------------------

    def gather_flat(self) -> np.ndarray:
        """Copy all tensors into one contiguous buffer (baseline path)."""
        return np.concatenate([t.reshape(-1) for t in self.tensors])

    def scatter_flat(self, flat: np.ndarray) -> None:
        """Copy a contiguous buffer back into the scattered tensors."""
        if flat.size != self.total_elements:
            raise CoCoNetError(
                f"flat buffer has {flat.size} elements, expected "
                f"{self.total_elements}"
            )
        off = 0
        for t in self.tensors:
            t.reshape(-1)[:] = flat[off : off + t.size].astype(t.dtype)
            off += t.size

    def iter_bucket_views(self) -> Iterator[Tuple[Bucket, np.ndarray]]:
        """Direct per-bucket views — what the scattered kernel indexes."""
        for b in self.buckets:
            flat = self.tensors[b.tensor_index].reshape(-1)
            yield b, flat[b.offset : b.offset + b.length]

    def apply_elementwise(self, fn) -> None:
        """Apply ``fn`` in place through bucket views (single 'kernel')."""
        for _, view in self.iter_bucket_views():
            view[:] = fn(view).astype(view.dtype)
