"""Tests for scattered-tensor bucketing (§5.4, Table 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoCoNetError
from repro.scattered import (
    BUCKET_ELEMENTS,
    Bucket,
    ScatteredTensorSet,
    bucket_memory_overhead,
)


def element_view(s):
    """Every element of ``s``, read through its bucket table."""
    return np.concatenate([v for _, v in s.iter_bucket_views()])


@pytest.fixture
def rng():
    return np.random.RandomState(13)


def make_set(rng, sizes):
    return ScatteredTensorSet(
        [rng.randn(s).astype(np.float32) for s in sizes]
    )


class TestBuckets:
    def test_bucket_size_cap(self):
        with pytest.raises(CoCoNetError):
            Bucket(0, 0, BUCKET_ELEMENTS + 1)
        with pytest.raises(CoCoNetError):
            Bucket(0, 0, 0)

    def test_bucketing_splits_large_tensor(self, rng):
        s = make_set(rng, [2500])
        lengths = [b.length for b in s.buckets]
        assert lengths == [1024, 1024, 452]

    def test_small_tensors_one_bucket_each(self, rng):
        s = make_set(rng, [10, 20, 30])
        assert len(s.buckets) == 3

    def test_memory_overhead_formula(self):
        # 12 * ceil(N / 2^10) bytes (§5.4)
        assert bucket_memory_overhead(1024) == 12
        assert bucket_memory_overhead(1025) == 24
        assert bucket_memory_overhead(0) == 0

    def test_bert_overhead_is_fraction_of_percent(self):
        # "for BERT model with 334M elements, the memory requirement
        # is 0.6%" — of the fp16 parameter bytes
        n = 334_000_000
        overhead = bucket_memory_overhead(n)
        assert overhead / (2 * n) == pytest.approx(0.006, rel=0.03)

    def test_metadata_bytes_matches_formula(self, rng):
        s = make_set(rng, [3000, 500])
        expected = bucket_memory_overhead(3000) + bucket_memory_overhead(500)
        assert s.metadata_bytes == expected


def _warp_of_bucket(bucket_index, num_warps):
    """Round-robin warp assignment (§5.4)."""
    return bucket_index % num_warps


class TestWarpAssignment:
    def test_round_robin(self, rng):
        s = make_set(rng, [1024 * 8])
        warps = [_warp_of_bucket(i, 4) for i in range(len(s.buckets))]
        assert warps == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_buckets_of_warp_partition(self, rng):
        s = make_set(rng, [1024 * 9])
        all_buckets = []
        for w in range(4):
            all_buckets.extend(
                b for i, b in enumerate(s.buckets)
                if _warp_of_bucket(i, 4) == w
            )
        assert len(all_buckets) == len(s.buckets)


class TestDataMovement:
    def test_gather_flat_concatenates(self, rng):
        s = make_set(rng, [4, 6])
        flat = s.gather_flat()
        np.testing.assert_array_equal(flat[:4], s.tensors[0])
        np.testing.assert_array_equal(flat[4:], s.tensors[1])

    def test_scatter_flat_roundtrip(self, rng):
        s = make_set(rng, [4, 6, 2000])
        original = s.gather_flat()
        s.scatter_flat(original * 2.0)
        np.testing.assert_allclose(s.gather_flat(), original * 2.0)

    def test_scatter_wrong_size_rejected(self, rng):
        s = make_set(rng, [4])
        with pytest.raises(CoCoNetError):
            s.scatter_flat(np.zeros(5))

    def test_element_view_equals_gather(self, rng):
        s = make_set(rng, [300, 1500, 7])
        np.testing.assert_array_equal(element_view(s), s.gather_flat())

    def test_apply_elementwise_through_buckets(self, rng):
        # the scattered kernel path: update in place via bucket views
        s = make_set(rng, [100, 2048])
        before = s.gather_flat()
        s.apply_elementwise(lambda x: x * 3.0)
        np.testing.assert_allclose(s.gather_flat(), before * 3.0, rtol=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(CoCoNetError):
            ScatteredTensorSet([])

    @given(
        sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_bucket_views_cover_exactly_once(self, sizes, seed):
        rng = np.random.RandomState(seed)
        s = make_set(rng, sizes)
        assert s.total_elements == sum(sizes)
        assert element_view(s).size == sum(sizes)
        # every bucket stays within its tensor
        for b in s.buckets:
            assert b.offset + b.length <= s.tensors[b.tensor_index].size


class TestScatteredAdamParity:
    def test_scattered_update_equals_contiguous(self, rng):
        """Table 2's semantic core: updating through buckets equals
        updating the equivalent contiguous buffer."""
        sizes = [7, 1024, 555, 2049]
        s = make_set(rng, sizes)
        contiguous = s.gather_flat().copy()

        def adam_like(x):
            return x - 0.01 * x / (np.sqrt(np.abs(x)) + 1e-6)

        s.apply_elementwise(adam_like)
        np.testing.assert_allclose(
            s.gather_flat(), adam_like(contiguous), rtol=1e-6
        )
