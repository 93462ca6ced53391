"""Tests for the per-rank collective oracle, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.process_group import ProcessGroup, world
from tests import collective_oracle as oracle


def _values(rng, n, shape):
    return {r: rng.randn(*shape).astype(np.float32) for r in range(n)}


@pytest.fixture
def rng():
    return np.random.RandomState(7)


class TestAllReduce:
    def test_sum(self, rng):
        vals = _values(rng, 4, (8,))
        out = oracle.allreduce_reference(vals, world(4), "+", np.float32)
        expected = sum(vals[r].astype(np.float64) for r in range(4))
        for r in range(4):
            np.testing.assert_allclose(out[r], expected.astype(np.float32))

    def test_max(self, rng):
        vals = _values(rng, 4, (8,))
        out = oracle.allreduce_reference(vals, world(4), "max", np.float32)
        expected = np.max(np.stack(list(vals.values())), axis=0)
        np.testing.assert_array_equal(out[0], expected)

    def test_all_ranks_identical(self, rng):
        vals = _values(rng, 4, (4, 4))
        out = oracle.allreduce_reference(vals, world(4), "+", np.float32)
        for r in range(1, 4):
            np.testing.assert_array_equal(out[0], out[r])

    def test_results_are_copies(self, rng):
        vals = _values(rng, 2, (4,))
        out = oracle.allreduce_reference(vals, world(2), "+", np.float32)
        out[0][0] = 999
        assert out[1][0] != 999

    def test_unknown_op(self, rng):
        vals = _values(rng, 2, (4,))
        with pytest.raises(ValueError):
            oracle.allreduce_reference(vals, world(2), "avg", np.float32)


class TestReduceScatterAllGather:
    def test_rs_slices(self, rng):
        vals = _values(rng, 4, (8,))
        out = oracle.reducescatter_reference(
            vals, world(4), "+", 0, np.float32
        )
        total = sum(vals[r].astype(np.float64) for r in range(4))
        for i in range(4):
            np.testing.assert_allclose(
                out[i], total[i * 2 : (i + 1) * 2].astype(np.float32)
            )

    def test_rs_then_ag_equals_allreduce(self, rng):
        # the foundation of the split transformation's validity (§3.1)
        vals = _values(rng, 4, (8, 4))
        ar = oracle.allreduce_reference(vals, world(4), "+", np.float32)
        rs = oracle.reducescatter_reference(vals, world(4), "+", 0, np.float32)
        ag = oracle.allgather_reference(rs, world(4), 0)
        for r in range(4):
            np.testing.assert_array_equal(ar[r], ag[r])

    def test_rs_along_dim1(self, rng):
        vals = _values(rng, 2, (4, 8))
        out = oracle.reducescatter_reference(
            vals, world(2), "+", 1, np.float32
        )
        assert out[0].shape == (4, 4)

    def test_ag_concatenates_in_rank_order(self, rng):
        slices = {r: np.full((2,), r, dtype=np.float32) for r in range(4)}
        out = oracle.allgather_reference(slices, world(4), 0)
        np.testing.assert_array_equal(
            out[2], np.repeat(np.arange(4, dtype=np.float32), 2)
        )

    def test_subgroup_collective(self, rng):
        g = ProcessGroup(4, 4, 8)
        vals = {r: rng.randn(4).astype(np.float32) for r in g}
        out = oracle.allreduce_reference(vals, g, "+", np.float32)
        assert set(out) == set(g.ranks)


class TestReduceBroadcast:
    def test_reduce_root_only(self, rng):
        vals = _values(rng, 4, (4,))
        out = oracle.reduce_reference(vals, world(4), "+", 1, np.float32)
        total = sum(vals[r].astype(np.float64) for r in range(4))
        np.testing.assert_allclose(out[1], total.astype(np.float32))

    def test_reduce_non_root_keeps_input(self, rng):
        # NCCL leaves non-root receive buffers unmodified; zero-filling
        # them could launder a schedule that wrongly reads a non-root
        # buffer into an all-zero "correct-looking" result.
        vals = _values(rng, 4, (4,))
        out = oracle.reduce_reference(vals, world(4), "+", 1, np.float32)
        for r in (0, 2, 3):
            np.testing.assert_array_equal(out[r], vals[r])

    def test_broadcast_from_root(self, rng):
        vals = _values(rng, 4, (4,))
        out = oracle.broadcast_reference(vals, world(4), 2)
        for r in range(4):
            np.testing.assert_array_equal(out[r], vals[2])

    def test_reduce_then_broadcast_equals_allreduce(self, rng):
        # validity of the ARSplitReduceBroadcast policy
        vals = _values(rng, 4, (8,))
        ar = oracle.allreduce_reference(vals, world(4), "+", np.float32)
        red = oracle.reduce_reference(vals, world(4), "+", 0, np.float32)
        bc = oracle.broadcast_reference(red, world(4), 0)
        np.testing.assert_array_equal(ar[3], bc[3])


class TestProperties:
    @given(
        n=st.integers(2, 8),
        per=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_rs_ag_equals_ar_property(self, n, per, seed):
        rng = np.random.RandomState(seed)
        shape = (n * per,)
        vals = {r: rng.randn(*shape).astype(np.float32) for r in range(n)}
        ar = oracle.allreduce_reference(vals, world(n), "+", np.float32)
        rs = oracle.reducescatter_reference(vals, world(n), "+", 0, np.float32)
        ag = oracle.allgather_reference(rs, world(n), 0)
        np.testing.assert_array_equal(ar[0], ag[0])

    @given(n=st.integers(1, 8), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_invariant_under_rank_permutation(self, n, seed):
        rng = np.random.RandomState(seed)
        vals = {r: rng.randn(6).astype(np.float32) for r in range(n)}
        out1 = oracle.allreduce_reference(vals, world(n), "+", np.float32)
        perm = {r: vals[(r + 1) % n] for r in range(n)}
        out2 = oracle.allreduce_reference(perm, world(n), "+", np.float32)
        np.testing.assert_allclose(out1[0], out2[0], rtol=1e-6)

    @given(
        n=st.integers(2, 6),
        rows=st.integers(1, 4),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_gather_scatter_roundtrip(self, n, rows, seed):
        rng = np.random.RandomState(seed)
        full = rng.randn(n * rows, 3).astype(np.float32)
        slices = {
            r: full[r * rows : (r + 1) * rows] for r in range(n)
        }
        out = oracle.allgather_reference(slices, world(n), 0)
        np.testing.assert_array_equal(out[n - 1], full)
