"""Additional code-generation coverage: collectives, Conv2D, mixed
precision, cross-rank norms, AR-form fused collectives, and emitted-source
details.

Each ``*_program`` function returns ``(program or schedule, input
shapes)``. The tests here check the emitted per-rank source;
``tests/test_spmd.py`` runs every one on real rank processes and
holds it bit-identical to the lowered interpreter.
"""

from repro.core import (
    FP16,
    FP32,
    RANK,
    AllGather,
    AllReduce,
    Binary,
    Broadcast,
    Cast,
    Conv2D,
    Execute,
    Local,
    Norm,
    Reduce,
    ReduceScatter,
    ReduceTensor,
    Replicated,
    Tensor,
    world,
)
from repro.core.codegen import CodeGenerator
from repro.core.transforms import (
    AllReduceFuse,
    ComputationFuse,
    Schedule,
)


def reduce_broadcast_program():
    W = world(4)
    x = Tensor(FP32, (8,), Local, W, RANK, name="x")
    red = Reduce("+", x, root=1, name="red")
    bc = Broadcast(red, root=1, name="bc")
    return Execute("p", [x], [bc]), {"x": (4, 8)}


def reducescatter_allgather_program():
    W = world(4)
    x = Tensor(FP32, (8,), Local, W, RANK, name="x")
    rs = ReduceScatter("+", x, name="rs")
    ag = AllGather(rs, name="ag")
    return Execute("p", [x], [ag]), {"x": (4, 8)}


def max_allreduce_program():
    W = world(4)
    x = Tensor(FP32, (8,), Local, W, RANK, name="x")
    ar = AllReduce("max", x, name="ar")
    return Execute("p", [x], [ar]), {"x": (4, 8)}


def conv2d_program():
    W = world(2)
    x = Tensor(FP32, (1, 2, 6, 6), Replicated, W, name="x")
    k = Tensor(FP32, (3, 2, 3, 3), Replicated, W, name="k")
    conv = Conv2D(x, k, padding=1, name="conv")
    return (
        Execute("p", [x, k], [conv]),
        {"x": (1, 2, 6, 6), "k": (3, 2, 3, 3)},
    )


def cast_chain_program():
    W = world(2)
    x = Tensor(FP32, (16,), Replicated, W, name="x")
    half = Cast(FP16, x, name="half")
    back = Cast(FP32, half, name="back")
    y = Binary("*", back, 2.0, name="y")
    return Execute("p", [x], [y]), {"x": (16,)}


def norm_reducetensor_program():
    W = world(2)
    x = Tensor(FP32, (16,), Replicated, W, name="x")
    n = Norm(x, name="n")
    rt = ReduceTensor("max", x, name="rt")
    return (
        Execute("p", [x], [Binary("+", n, rt, name="out")]),
        {"x": (16,)},
    )


def cross_rank_norm_program():
    W = world(4)
    x = Tensor(FP32, (8,), Local, W, RANK, name="x")
    rs = ReduceScatter("+", x, name="rs")
    n = Norm(rs, name="n")
    scaled = Binary("*", rs, n, name="scaled")
    ag = AllGather(scaled, name="ag")
    sched = Schedule(Execute("p", [x], [ag]))
    sched.fuse(n, scaled, policy=ComputationFuse)
    return sched, {"x": (4, 8)}


def allreduce_fuse_program():
    """AllReduceFuse over a plain AR (no split)."""
    W = world(4)
    x = Tensor(FP32, (8,), Local, W, RANK, name="x")
    ar = AllReduce("+", x, name="ar")
    y = Binary("*", ar, 3.0, name="y")
    z = Binary("+", y, 1.0, name="z")
    sched = Schedule(Execute("p", [x], [z]))
    sched.fuse(ar, y, z, policy=AllReduceFuse)
    return sched, {"x": (4, 8)}


def generated_source(make_program):
    return CodeGenerator().generate(make_program()[0]).source


class TestLibraryCollectives:
    def test_reduce_and_broadcast(self):
        src = generated_source(reduce_broadcast_program)
        assert "comm.reduce(V['x'], G0_4, '+', 1, np.float32)" in src
        assert "comm.broadcast(V['red'], G0_4, 1)" in src

    def test_reducescatter_standalone(self):
        src = generated_source(reducescatter_allgather_program)
        assert "comm.reducescatter" in src
        assert "comm.allgather" in src

    def test_max_allreduce(self):
        src = generated_source(max_allreduce_program)
        assert "comm.allreduce(V['x'], G0_4, 'max', np.float32)" in src


class TestComputeCodegen:
    def test_conv2d(self):
        assert "dev.conv2d" in generated_source(conv2d_program)

    def test_mixed_precision_cast_chain(self):
        assert "astype(np.float16)" in generated_source(cast_chain_program)

    def test_norm_and_reducetensor_non_cross(self):
        # a replicated operand reduces locally: no scalar exchange
        src = generated_source(norm_reducetensor_program)
        assert "dev.reduce_local(" in src
        assert "exchange_scalars" not in src

    def test_cross_rank_norm_in_fused_block(self):
        src = generated_source(cross_rank_norm_program)
        assert "AllReduce reusing the established connections" in src
        assert "comm.exchange_scalars(_part, G0_4)" in src


class TestFusedARForm:
    def test_allreduce_plus_compute_fusion(self):
        """AllReduceFuse over a plain AR (no split): the fused kernel
        calls the AllReduce, then computes on the replicated result."""
        assert "comm.allreduce" in generated_source(allreduce_fuse_program)


class TestEmittedSource:
    def test_groups_emitted_as_constants(self):
        from repro.core import split_world, Send
        from repro.core.ops import GROUP, GroupRank

        g0, g1 = split_world(8, 2)
        x = Tensor(FP32, (8,), Replicated, g0, name="x")
        s = Send(x, GroupRank(GROUP + 1, RANK), name="s")
        prog = Execute("p", [x], [s])
        gen = CodeGenerator().generate(prog)
        assert "G0_4 = ProcessGroup(0, 4, 8)" in gen.source
        assert "G4_4 = ProcessGroup(4, 4, 8)" in gen.source

    def test_recv_carries_the_sent_shape_and_dtype(self):
        # slots carry no header: the receiver learns the payload's
        # shape and dtype from the module
        from repro.core import split_world, Send
        from repro.core.ops import GROUP, GroupRank

        g0, _ = split_world(4, 2)
        x = Tensor(FP16, (2, 3), Replicated, g0, name="x")
        s = Send(x, GroupRank(GROUP + 1, RANK), name="s")
        gen = CodeGenerator().generate(Execute("p", [x], [s]))
        assert (
            "comm.recv(RANKS_G0_2[comm.rank - 2], (2, 3), np.float16)"
            in gen.source
        )

    def test_docstrings_name_fused_ops(self):
        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        ar = AllReduce("+", x, name="ar")
        a = Binary("+", ar, 1.0, name="a")
        b = Binary("*", a, 2.0, name="b")
        prog = Execute("p", [x], [b])
        sched = Schedule(prog)
        sched.fuse(a, b, policy=ComputationFuse)
        gen = CodeGenerator().generate(sched)
        fused_src = next(
            s for name, s in gen.kernel_sources.items()
            if "computationfuse" in name
        )
        assert "a, b" in fused_src

    def test_schedule_lines_recorded(self):
        prog_w = world(4)
        x = Tensor(FP32, (8,), Local, prog_w, RANK, name="x")
        ar = AllReduce("+", x, name="ar")
        prog = Execute("p", [x], [ar])
        sched = Schedule(prog)
        gen = CodeGenerator().generate(sched)
        assert gen.schedule_lines == 0
