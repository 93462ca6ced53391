"""Tests for repro.core.dtypes."""

import numpy as np
import pytest

from repro.core.dtypes import (
    ALL_DTYPES,
    BF16,
    FP16,
    FP32,
    FP64,
    INT32,
    INT64,
    dtype_by_name,
    promote,
)
from repro.errors import DTypeError


class TestDTypeBasics:
    def test_fp16_itemsize(self):
        assert FP16.itemsize == 2

    def test_fp32_itemsize(self):
        assert FP32.itemsize == 4

    def test_fp64_itemsize(self):
        assert FP64.itemsize == 8

    def test_int_types_not_float(self):
        assert not INT32.is_float
        assert not INT64.is_float

    def test_float_types_are_float(self):
        assert FP16.is_float and FP32.is_float

    def test_numpy_mapping(self):
        assert FP16.to_numpy() == np.dtype("float16")
        assert FP32.to_numpy() == np.dtype("float32")
        assert INT32.to_numpy() == np.dtype("int32")

    def test_bf16_simulated_as_fp32(self):
        # numpy has no bfloat16; we store in float32 but keep 2-byte size
        assert BF16.itemsize == 2
        assert BF16.to_numpy() == np.dtype("float32")

    def test_repr_is_name(self):
        assert repr(FP16) == "FP16"


class TestLookup:
    def test_by_name(self):
        assert dtype_by_name("FP16") is FP16
        assert dtype_by_name("INT64") is INT64

    def test_unknown_name_raises(self):
        with pytest.raises(DTypeError, match="unknown dtype"):
            dtype_by_name("FP8")

    def test_all_dtypes_registered(self):
        for d in ALL_DTYPES:
            assert dtype_by_name(d.name) is d


class TestPromotion:
    def test_fp16_fp32_promotes_to_fp32(self):
        assert promote(FP16, FP32) is FP32
        assert promote(FP32, FP16) is FP32

    def test_same_type_identity(self):
        assert promote(FP16, FP16) is FP16

    def test_int_float_promotes_to_float(self):
        assert promote(INT32, FP16) is FP16
        assert promote(FP32, INT64) is FP32

    def test_equal_rank_prefers_left(self):
        assert promote(FP16, BF16) is FP16
        assert promote(BF16, FP16) is BF16

    def test_fp64_wins(self):
        for d in (FP16, FP32, INT32):
            assert promote(d, FP64) is FP64
