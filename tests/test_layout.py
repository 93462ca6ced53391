"""Tests for distribution layouts (Section 2.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.layout import (
    Layout,
    LayoutKind,
    Local,
    Replicated,
    Sliced,
    normalize_dim,
    slice_shape,
)
from repro.errors import LayoutError


class TestLayoutConstruction:
    def test_sliced_carries_dim(self):
        layout = Sliced(2)
        assert layout.is_sliced and layout.dim == 2

    def test_replicated_flags(self):
        assert Replicated.is_replicated
        assert not Replicated.is_sliced and not Replicated.is_local

    def test_local_flags(self):
        assert Local.is_local

    def test_sliced_requires_dim(self):
        with pytest.raises(LayoutError):
            Layout(LayoutKind.SLICED)

    def test_non_sliced_rejects_dim(self):
        with pytest.raises(LayoutError):
            Layout(LayoutKind.REPLICATED, dim=0)

    def test_negative_slice_dim_rejected(self):
        with pytest.raises(LayoutError):
            Sliced(-1)

    def test_reprs(self):
        assert repr(Sliced(1)) == "Sliced(1)"
        assert repr(Replicated) == "Replicated"
        assert repr(Local) == "Local"

    def test_layout_equality(self):
        assert Sliced(0) == Sliced(0)
        assert Sliced(0) != Sliced(1)
        assert Replicated != Local


class TestNormalizeDim:
    def test_positive(self):
        assert normalize_dim(1, 3) == 1

    def test_negative(self):
        assert normalize_dim(-1, 3) == 2

    def test_out_of_range(self):
        with pytest.raises(LayoutError):
            normalize_dim(3, 3)


class TestSliceShape:
    def test_sliced_divides_dimension(self):
        assert slice_shape((8, 1024, 16), Sliced(2), 4) == (8, 1024, 4)

    def test_replicated_keeps_shape(self):
        assert slice_shape((8, 16), Replicated, 4) == (8, 16)

    def test_local_keeps_shape(self):
        assert slice_shape((8, 16), Local, 4) == (8, 16)

    def test_indivisible_raises(self):
        with pytest.raises(LayoutError, match="not divisible"):
            slice_shape((10,), Sliced(0), 4)

    @given(
        dims=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        dim=st.integers(0, 3),
        parts=st.integers(1, 8),
    )
    def test_slice_unslice_roundtrip_property(self, dims, dim, parts):
        dim = dim % len(dims)
        shape = tuple(d * parts if i == dim else d for i, d in enumerate(dims))
        layout = Sliced(dim)
        per_rank = slice_shape(shape, layout, parts)
        assert per_rank[dim] * parts == shape[dim]
