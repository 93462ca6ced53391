"""Tests for the numeric multi-rank executor."""

import numpy as np
import pytest

from repro.core import (
    FP16,
    FP32,
    GROUP,
    RANK,
    AllGather,
    AllReduce,
    Binary,
    Broadcast,
    Cast,
    Conv2D,
    Dropout,
    Execute,
    GroupRank,
    Local,
    MatMul,
    Norm,
    Reduce,
    ReduceScatter,
    ReduceTensor,
    Replicated,
    Scalar,
    Send,
    Slice,
    Sliced,
    Sqrt,
    Tanh,
    Tensor,
    Update,
    split_world,
    world,
)
from repro.errors import ExecutionError
from repro.runtime import Executor


@pytest.fixture
def rng():
    return np.random.RandomState(11)


def run_single(expr_builder, inputs, n=4):
    """Helper: build a one-output program and run it."""
    prog, out_name = expr_builder
    return Executor().run_lowered(prog, inputs).output(out_name)


class TestLeafPlacement:
    def test_replicated_input(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        prog = Execute("p", [a], [a + 0.0])
        out = Executor().run_lowered(prog, {"a": np.arange(8.0)})
        np.testing.assert_array_equal(
            out.output(prog.outputs[0].name), np.arange(8.0)
        )

    def test_sliced_input_global_array(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Sliced(0), W, RANK, name="a")
        ag = AllGather(a, name="ag")
        prog = Execute("p", [a], [ag])
        out = Executor().run_lowered(prog, {"a": np.arange(8.0)})
        np.testing.assert_array_equal(out.output("ag"), np.arange(8.0))

    def test_local_input_needs_leading_rank_axis(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Local, W, RANK, name="a")
        prog = Execute("p", [a], [AllReduce("+", a, name="ar")])
        with pytest.raises(ExecutionError, match="local"):
            Executor().run_lowered(prog, {"a": np.arange(8.0)})

    def test_missing_input_raises(self):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        prog = Execute("p", [a], [a + 1.0])
        with pytest.raises(ExecutionError, match="missing input"):
            Executor().run_lowered(prog, {})

    def test_unknown_input_raises(self):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        prog = Execute("p", [a], [a + 1.0])
        with pytest.raises(ExecutionError, match="unknown inputs"):
            Executor().run_lowered(
                prog, {"a": np.zeros(8), "zzz": np.zeros(8)}
            )

    def test_wrong_shape_raises(self):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        prog = Execute("p", [a], [a + 1.0])
        with pytest.raises(ExecutionError, match="expected shape"):
            Executor().run_lowered(prog, {"a": np.zeros(9)})


class TestComputeOps:
    def test_matmul(self, rng):
        W = world(2)
        a = Tensor(FP32, (4, 6), Replicated, W, name="a")
        b = Tensor(FP32, (6, 3), Replicated, W, name="b")
        prog = Execute("p", [a, b], [MatMul(a, b, name="mm")])
        av, bv = rng.randn(4, 6), rng.randn(6, 3)
        out = Executor().run_lowered(prog, {"a": av, "b": bv}).output("mm")
        np.testing.assert_allclose(out, av @ bv, rtol=1e-6)

    def test_distributed_matmul_partial_sums(self, rng):
        # sliced-K matmul + AllReduce equals the full matmul
        W = world(4)
        a = Tensor(FP32, (4, 8), Sliced(1), W, RANK, name="a")
        b = Tensor(FP32, (8, 3), Sliced(0), W, RANK, name="b")
        mm = MatMul(a, b, name="mm")
        prog = Execute("p", [a, b], [AllReduce("+", mm, name="ar")])
        av, bv = rng.randn(4, 8), rng.randn(8, 3)
        out = Executor().run_lowered(prog, {"a": av, "b": bv}).output("ar")
        np.testing.assert_allclose(out, av @ bv, rtol=1e-5)

    def test_binary_ops(self, rng):
        W = world(2)
        a = Tensor(FP32, (6,), Replicated, W, name="a")
        b = Tensor(FP32, (6,), Replicated, W, name="b")
        av, bv = rng.randn(6), np.abs(rng.randn(6)) + 0.5
        cases = {
            "+": av + bv, "-": av - bv, "*": av * bv, "/": av / bv,
            "max": np.maximum(av, bv), "min": np.minimum(av, bv),
        }
        for op, expected in cases.items():
            prog = Execute("p", [a, b], [Binary(op, a, b, name="o")])
            got = Executor().run_lowered(prog, {"a": av, "b": bv}).output("o")
            np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_unary_ops(self, rng):
        W = world(2)
        a = Tensor(FP32, (6,), Replicated, W, name="a")
        av = np.abs(rng.randn(6)) + 0.1
        prog = Execute("p", [a], [Sqrt(a)])
        got = Executor().run_lowered(prog, {"a": av})
        np.testing.assert_allclose(
            got.output(prog.outputs[0].name), np.sqrt(av), rtol=1e-6
        )
        prog2 = Execute("p", [a], [Tanh(a)])
        got2 = Executor().run_lowered(prog2, {"a": av})
        np.testing.assert_allclose(
            got2.output(prog2.outputs[0].name), np.tanh(av), rtol=1e-6
        )

    def test_cast(self, rng):
        W = world(2)
        a = Tensor(FP32, (6,), Replicated, W, name="a")
        prog = Execute("p", [a], [Cast(FP16, a, name="c")])
        got = Executor().run_lowered(prog, {"a": rng.randn(6)}).output("c")
        assert got.dtype == np.float16

    def test_conv2d_matches_direct(self, rng):
        W = world(2)
        x = Tensor(FP32, (1, 2, 5, 5), Replicated, W, name="x")
        k = Tensor(FP32, (3, 2, 3, 3), Replicated, W, name="k")
        prog = Execute("p", [x, k], [Conv2D(x, k, padding=1, name="c")])
        xv, kv = rng.randn(1, 2, 5, 5), rng.randn(3, 2, 3, 3)
        got = Executor().run_lowered(prog, {"x": xv, "k": kv}).output("c")
        assert got.shape == (1, 3, 5, 5)
        # centre value check against a manual window
        window = xv[0, :, 1:4, 1:4]
        expected = np.sum(window * kv[1])
        np.testing.assert_allclose(got[0, 1, 2, 2], expected, rtol=1e-5)

    def test_norm_sliced_is_global(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Sliced(0), W, RANK, name="a")
        prog = Execute("p", [a], [Norm(a, name="n")])
        av = rng.randn(8)
        got = Executor().run_lowered(prog, {"a": av}).output("n")
        np.testing.assert_allclose(got, np.linalg.norm(av), rtol=1e-6)

    def test_reducetensor_max_sliced(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Sliced(0), W, RANK, name="a")
        prog = Execute("p", [a], [ReduceTensor("max", a, name="n")])
        av = rng.randn(8)
        got = Executor().run_lowered(prog, {"a": av}).output("n")
        np.testing.assert_allclose(got, av.max(), rtol=1e-6)

    def test_dropout_scaling(self, rng):
        W = world(2)
        a = Tensor(FP32, (1000,), Replicated, W, name="a")
        prog = Execute("p", [a], [Dropout(a, 0.5, seed=3, name="d")])
        got = Executor().run_lowered(prog, {"a": np.ones(1000)}).output("d")
        kept = got[got != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_slice_takes_rank_portion(self, rng):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        sl = Slice(a, 0, name="sl")
        prog = Execute("p", [a], [AllGather(sl, name="ag")])
        av = rng.randn(8)
        got = Executor().run_lowered(prog, {"a": av}).output("ag")
        np.testing.assert_array_equal(got, av.astype(np.float32))


class TestUpdateSemantics:
    def test_update_writes_storage(self, rng):
        W = world(2)
        p = Tensor(FP32, (4,), Replicated, W, name="p")
        u = Update(p, p * 2.0, name="u")
        res = Executor().run_lowered(Execute("p", [p], [u]), {"p": np.ones(4)})
        np.testing.assert_array_equal(res.tensor_state("p"), 2 * np.ones(4))

    def test_leaf_reads_snapshot_not_updated_value(self, rng):
        # DFG edges to a leaf see its value at program start
        W = world(2)
        p = Tensor(FP32, (4,), Replicated, W, name="p")
        u = Update(p, p * 2.0, name="u")
        later = Binary("+", p, 0.0, name="later")  # reads original p
        prog = Execute("p", [p], [later], effects=[u])
        res = Executor().run_lowered(prog, {"p": np.ones(4)})
        np.testing.assert_array_equal(res.output("later"), np.ones(4))
        np.testing.assert_array_equal(res.tensor_state("p"), 2 * np.ones(4))

    def test_chained_updates_compose(self, rng):
        W = world(2)
        p = Tensor(FP32, (4,), Replicated, W, name="p")
        u1 = Update(p, p + 1.0, name="u1")
        u2 = Update(p, u1 * 3.0, name="u2")
        res = Executor().run_lowered(
            Execute("p", [p], [u2]), {"p": np.zeros(4)}
        )
        np.testing.assert_array_equal(res.tensor_state("p"), 3 * np.ones(4))


class TestCommOps:
    def test_reduce_and_broadcast(self, rng):
        W = world(4)
        a = Tensor(FP32, (4,), Local, W, RANK, name="a")
        red = Reduce("+", a, root=2, name="red")
        bc = Broadcast(red, root=2, name="bc")
        prog = Execute("p", [a], [bc])
        av = rng.randn(4, 4)
        got = Executor().run_lowered(prog, {"a": av}).output("bc")
        np.testing.assert_allclose(got, av.sum(axis=0), rtol=1e-6)

    def test_send_moves_to_next_group(self, rng):
        g0, g1 = split_world(4, 2)
        a = Tensor(FP32, (4,), Replicated, g0, name="a")
        s = Send(a, GroupRank(GROUP + 1, RANK), name="s")
        prog = Execute("p", [a], [s])
        av = rng.randn(4)
        res = Executor().run_lowered(prog, {"a": av})
        np.testing.assert_array_equal(res.output("s"), av.astype(np.float32))
        assert s.group is not g0 and s.group.start == 2

    def test_send_sliced_stays_sliced(self, rng):
        g0, g1 = split_world(4, 2)
        a = Tensor(FP32, (4,), Sliced(0), g0, RANK, name="a")
        s = Send(a, GroupRank(GROUP + 1, RANK), name="s")
        ag = AllGather(s, name="ag")
        prog = Execute("p", [a], [ag])
        av = rng.randn(4)
        got = Executor().run_lowered(prog, {"a": av}).output("ag")
        np.testing.assert_array_equal(got, av.astype(np.float32))

    def test_scalar_input(self, rng):
        W = world(2)
        a = Tensor(FP32, (4,), Replicated, W, name="a")
        s = Scalar(FP32, name="lr", group=W)
        prog = Execute("p", [a, s], [Binary("*", a, s, name="o")])
        got = Executor().run_lowered(
            prog, {"a": np.ones(4), "lr": 0.5}
        ).output("o")
        np.testing.assert_array_equal(got, 0.5 * np.ones(4))

    def test_local_output_stacks_ranks(self, rng):
        W = world(3)
        a = Tensor(FP32, (4,), Local, W, RANK, name="a")
        o = Binary("*", a, 2.0, name="o")
        prog = Execute("p", [a], [o])
        av = rng.randn(3, 4)
        got = Executor().run_lowered(prog, {"a": av}).output("o")
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, 2 * av, rtol=1e-6)

    def test_missing_output_name_raises(self):
        W = world(2)
        a = Tensor(FP32, (4,), Replicated, W, name="a")
        prog = Execute("p", [a], [a + 1.0])
        res = Executor().run_lowered(prog, {"a": np.zeros(4)})
        with pytest.raises(ExecutionError, match="no output named"):
            res.output("nope")


class TestRankSemantics:
    """Per-rank semantics the interpreter keeps, checked by hand."""

    def test_reduce_non_root_keeps_input(self, rng):
        # regression: reduce used to zero-fill non-root ranks; NCCL (and
        # now this runtime) leaves non-root buffers unmodified, so a
        # post-reduce read on a non-root rank sees the original data
        W = world(4)
        a = Tensor(FP32, (4,), Local, W, RANK, name="a")
        red = Reduce("+", a, root=1, name="red")
        prog = Execute("p", [a], [red])
        av = rng.randn(4, 4).astype(np.float32)
        out = Executor().run_lowered(prog, {"a": av}).output("red")
        np.testing.assert_array_equal(out[0], av[0])
        np.testing.assert_array_equal(out[3], av[3])

    def test_read_before_update_sees_the_old_value(self, rng):
        W = world(2)
        p = Tensor(FP32, (4,), Replicated, W, name="p")
        u = Update(p, p * 2.0, name="u")
        later = Binary("+", p, 0.0, name="later")
        prog = Execute("p", [p], [later], effects=[u])
        pv = rng.randn(4).astype(np.float32)
        res = Executor().run_lowered(prog, {"p": pv})
        np.testing.assert_array_equal(res.output("later"), pv)
        np.testing.assert_array_equal(res.tensor_state("p"), pv * 2)

    def test_allow_downcast_threads_through_run(self, rng):
        W = world(2)
        p = Tensor(FP16, (4,), Replicated, W, name="p")
        prog = Execute("p", [p], [p + 0.0])
        with pytest.raises(ExecutionError, match="lossy downcast"):
            Executor().run_lowered(
                prog, {"p": rng.randn(4)}, allow_downcast=False
            )
