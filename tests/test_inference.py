"""Tests for shape/layout inference — the static type checking of §2.2."""

import pytest

from repro.core import (
    FP16,
    FP32,
    RANK,
    AllGather,
    AllReduce,
    Binary,
    Broadcast,
    Conv2D,
    Dropout,
    Local,
    MatMul,
    Norm,
    Reduce,
    ReduceScatter,
    ReduceTensor,
    Replicated,
    Scalar,
    Slice,
    Sliced,
    Tensor,
    Update,
    world,
)
from repro.core.inference import broadcast_shapes, covers_dim
from repro.errors import LayoutError, ShapeError


@pytest.fixture
def W():
    return world(4)


class TestBroadcastShapes:
    def test_equal(self):
        assert broadcast_shapes((4, 8), (4, 8)) == (4, 8)

    def test_trailing_alignment(self):
        assert broadcast_shapes((2, 8, 16), (16,)) == (2, 8, 16)

    def test_ones_expand(self):
        assert broadcast_shapes((4, 1), (1, 8)) == (4, 8)

    def test_scalar(self):
        assert broadcast_shapes((4, 8), ()) == (4, 8)

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            broadcast_shapes((4, 8), (3, 8))


class TestCoversDim:
    def test_full_rank_covers(self):
        assert covers_dim((4, 8, 16), 3, 1)

    def test_trailing_bias_does_not_cover_middle(self):
        # b[H] aligned to the last dim does not span dim 1 of [B,S,H]
        assert not covers_dim((16,), 3, 1)

    def test_trailing_bias_covers_last(self):
        assert covers_dim((16,), 3, 2)

    def test_size_one_does_not_cover(self):
        assert not covers_dim((4, 1, 16), 3, 1)


class TestMatMulInference:
    def test_megatron_row_parallel_produces_local(self, W):
        # Figure 3: in Sliced(2) x w Sliced(0) -> Local partial sums
        a = Tensor(FP16, (4, 8, 16), Sliced(2), W, RANK)
        w = Tensor(FP16, (16, 16), Sliced(0), W, RANK)
        assert MatMul(a, w).layout.is_local

    def test_replicated_matmul_stays_replicated(self, W):
        a = Tensor(FP16, (8, 16), Replicated, W)
        w = Tensor(FP16, (16, 4), Replicated, W)
        assert MatMul(a, w).layout.is_replicated

    def test_column_parallel_slices_output(self, W):
        # Megatron column parallelism: replicated x Sliced(1) weight
        a = Tensor(FP16, (8, 16), Replicated, W)
        w = Tensor(FP16, (16, 8), Sliced(1), W, RANK)
        out = MatMul(a, w)
        assert out.layout == Sliced(1)

    def test_batch_sliced_input(self, W):
        a = Tensor(FP16, (8, 4, 16), Sliced(0), W, RANK)
        w = Tensor(FP16, (16, 4), Replicated, W)
        assert MatMul(a, w).layout == Sliced(0)

    def test_contraction_sliced_input_needs_row_sliced_weight(self, W):
        a = Tensor(FP16, (8, 16), Sliced(1), W, RANK)
        w = Tensor(FP16, (16, 4), Replicated, W)
        with pytest.raises(LayoutError, match="Sliced\\(0\\)"):
            MatMul(a, w)

    def test_row_sliced_weight_needs_contraction_sliced_input(self, W):
        a = Tensor(FP16, (8, 16), Replicated, W)
        w = Tensor(FP16, (16, 4), Sliced(0), W, RANK)
        with pytest.raises(LayoutError):
            MatMul(a, w)

    def test_shape_inference(self, W):
        a = Tensor(FP16, (2, 8, 16), Replicated, W)
        w = Tensor(FP16, (16, 4), Replicated, W)
        assert MatMul(a, w).shape == (2, 8, 4)

    def test_contraction_mismatch(self, W):
        a = Tensor(FP16, (8, 16), Replicated, W)
        w = Tensor(FP16, (8, 4), Replicated, W)
        with pytest.raises(ShapeError, match="contraction"):
            MatMul(a, w)

    def test_mixed_dtype_promotes(self, W):
        a = Tensor(FP16, (8, 16), Replicated, W)
        w = Tensor(FP32, (16, 4), Replicated, W)
        assert MatMul(a, w).dtype is FP32

    def test_different_groups_rejected(self):
        from repro.core import split_world

        g0, g1 = split_world(8, 2)
        a = Tensor(FP16, (8, 16), Replicated, g0)
        w = Tensor(FP16, (16, 4), Replicated, g1)
        with pytest.raises(LayoutError, match="different groups"):
            MatMul(a, w)


class TestPointwiseInference:
    def test_local_plus_replicated_is_local(self, W):
        a = Tensor(FP16, (8,), Local, W, RANK)
        b = Tensor(FP16, (8,), Replicated, W)
        assert (a + b).layout.is_local

    def test_replicated_plus_replicated(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        b = Tensor(FP16, (8,), Replicated, W)
        assert (a + b).layout.is_replicated

    def test_sliced_same_dim_ok(self, W):
        a = Tensor(FP16, (8,), Sliced(0), W, RANK)
        b = Tensor(FP16, (8,), Sliced(0), W, RANK)
        assert (a + b).layout == Sliced(0)

    def test_sliced_different_dims_rejected(self, W):
        a = Tensor(FP16, (8, 8), Sliced(0), W, RANK)
        b = Tensor(FP16, (8, 8), Sliced(1), W, RANK)
        with pytest.raises(LayoutError, match="different dims"):
            a + b

    def test_sliced_plus_covering_replicated_requires_slice(self, W):
        # the static check that forces reorder to insert Slice()
        a = Tensor(FP16, (4, 8, 16), Sliced(1), W, RANK)
        r = Tensor(FP16, (4, 8, 16), Replicated, W)
        with pytest.raises(LayoutError, match="apply Slice"):
            a + r

    def test_sliced_plus_trailing_bias_ok(self, W):
        # b[H] broadcast does not span the sliced S dimension
        a = Tensor(FP16, (4, 8, 16), Sliced(1), W, RANK)
        b = Tensor(FP16, (16,), Replicated, W)
        assert (a + b).layout == Sliced(1)

    def test_sliced_plus_local_rejected(self, W):
        a = Tensor(FP16, (8,), Sliced(0), W, RANK)
        b = Tensor(FP16, (8,), Local, W, RANK)
        with pytest.raises(LayoutError):
            a + b

    def test_scalar_operand_keeps_layout(self, W):
        a = Tensor(FP16, (8,), Sliced(0), W, RANK)
        s = Scalar(FP32, name="lr", group=W)
        assert (a * s).layout == Sliced(0)


class TestCommInference:
    def test_allreduce_local_to_replicated(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        assert AllReduce("+", x).layout.is_replicated

    def test_allreduce_rejects_sliced(self, W):
        x = Tensor(FP16, (8,), Sliced(0), W, RANK)
        with pytest.raises(LayoutError):
            AllReduce("+", x)

    def test_reducescatter_layout(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        rs = ReduceScatter("+", x)
        assert rs.layout == Sliced(0)
        assert rs.per_rank_shape() == (2,)

    def test_allgather_restores_replicated(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        rs = ReduceScatter("+", x)
        ag = AllGather(rs)
        assert ag.layout.is_replicated
        assert ag.shape == (8,)

    def test_allgather_rejects_replicated(self, W):
        x = Tensor(FP16, (8,), Replicated, W)
        with pytest.raises(LayoutError):
            AllGather(x)

    def test_broadcast_replicates(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        assert Broadcast(x, root=0).layout.is_replicated

    def test_reduce_is_rooted(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        red = Reduce("+", x, root=1)
        assert red.root == 1

    def test_unknown_reduction_rejected(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        with pytest.raises(ValueError, match="unknown reduction"):
            AllReduce("avg", x)


class TestMiscOps:
    def test_slice_of_replicated(self, W):
        r = Tensor(FP16, (4, 8, 16), Replicated, W)
        s = Slice(r, 1)
        assert s.layout == Sliced(1)
        assert s.per_rank_shape() == (4, 2, 16)

    def test_slice_rejects_sliced(self, W):
        x = Tensor(FP16, (8,), Sliced(0), W, RANK)
        with pytest.raises(LayoutError):
            Slice(x, 0)

    def test_norm_of_sliced_crosses_ranks(self, W):
        x = Tensor(FP16, (8,), Sliced(0), W, RANK)
        n = Norm(x)
        assert n.crosses_ranks
        assert n.layout.is_replicated
        assert n.shape == ()

    def test_norm_of_replicated_is_rank_local(self, W):
        x = Tensor(FP16, (8,), Replicated, W)
        assert not Norm(x).crosses_ranks

    def test_reducetensor_of_local_is_local(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        assert ReduceTensor("max", x).layout.is_local

    def test_update_requires_tensor_target(self, W):
        a = Tensor(FP32, (8,), Replicated, W)
        b = Tensor(FP32, (8,), Replicated, W)
        value = a + b
        with pytest.raises(TypeError):
            Update(value, a)

    def test_update_shape_mismatch(self, W):
        a = Tensor(FP32, (8,), Replicated, W)
        b = Tensor(FP32, (4,), Replicated, W)
        with pytest.raises(ShapeError):
            Update(a, b)

    def test_update_records_target(self, W):
        a = Tensor(FP32, (8,), Replicated, W)
        u = Update(a, a * 2.0)
        assert u.target is a

    def test_dropout_prob_validation(self, W):
        x = Tensor(FP32, (8,), Replicated, W)
        with pytest.raises(ValueError):
            Dropout(x, 1.0)
        with pytest.raises(ValueError):
            Dropout(x, -0.1)

    def test_conv2d_shape(self, W):
        x = Tensor(FP32, (2, 3, 8, 8), Replicated, W)
        k = Tensor(FP32, (4, 3, 3, 3), Replicated, W)
        out = Conv2D(x, k, stride=1, padding=1)
        assert out.shape == (2, 4, 8, 8)

    def test_conv2d_channel_mismatch(self, W):
        x = Tensor(FP32, (2, 3, 8, 8), Replicated, W)
        k = Tensor(FP32, (4, 5, 3, 3), Replicated, W)
        with pytest.raises(ShapeError):
            Conv2D(x, k)
