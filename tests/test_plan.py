"""Tests for execution-plan structures (Kernel, ExecutionPlan, blocks)."""

import pytest

from repro.core import (
    FP16,
    FP32,
    RANK,
    AllReduce,
    Binary,
    Conv2D,
    Local,
    MatMul,
    Replicated,
    Send,
    Sliced,
    Tensor,
    world,
)
from repro.core.ops import GROUP, CommOp, GroupRank
from repro.core.transforms import (
    ComputationFuse,
    KernelKind,
    Schedule,
)
from repro.core.transforms.plan import (
    ExecutionPlan,
    FusedBlock,
    FusePolicy,
    Kernel,
    singleton_kind,
)
from tests.conftest import build_attention_program


@pytest.fixture
def W():
    return world(4)


def _comm_bytes(kernel):
    """Per-rank bytes of the communication ops in a kernel."""
    return sum(
        e.inputs[0].per_rank_bytes()
        for e in kernel.exprs
        if isinstance(e, CommOp)
    )


class TestSingletonKind:
    def test_matmul_is_gemm(self, W):
        a = Tensor(FP16, (8, 16), Replicated, W)
        b = Tensor(FP16, (16, 4), Replicated, W)
        assert singleton_kind(MatMul(a, b)) is KernelKind.GEMM

    def test_conv_is_conv(self, W):
        x = Tensor(FP32, (1, 2, 8, 8), Replicated, W)
        k = Tensor(FP32, (2, 2, 3, 3), Replicated, W)
        assert singleton_kind(Conv2D(x, k)) is KernelKind.CONV

    def test_allreduce_is_collective(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        assert singleton_kind(AllReduce("+", x)) is KernelKind.COLLECTIVE

    def test_send_is_p2p(self):
        from repro.core import split_world

        g0, _ = split_world(8, 2)
        x = Tensor(FP16, (8,), Replicated, g0)
        s = Send(x, GroupRank(GROUP + 1, RANK))
        assert singleton_kind(s) is KernelKind.P2P

    def test_binary_is_elementwise(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        assert singleton_kind(a + a) is KernelKind.ELEMENTWISE


class TestKernel:
    def test_output_is_last_expr(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        x = a + 1.0
        y = x * 2.0
        k = Kernel("k", KernelKind.FUSED_ELEMENTWISE, (x, y))
        assert k.output is y

    def test_comm_bytes_counts_comm_inputs(self, W):
        x = Tensor(FP16, (8,), Local, W, RANK)
        ar = AllReduce("+", x)
        k = Kernel("k", KernelKind.COLLECTIVE, (ar,))
        assert _comm_bytes(k) == 8 * 2

    def test_comm_bytes_zero_for_compute(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        k = Kernel("k", KernelKind.ELEMENTWISE, (a + 1.0,))
        assert _comm_bytes(k) == 0


class TestExecutionPlan:
    def test_default_plan_one_kernel_per_op(self):
        prog, _ = build_attention_program()
        plan = Schedule(prog).plan()
        assert len(plan.kernels) == len(prog.operations)

    def test_kernel_of_lookup(self):
        prog, h = build_attention_program()
        plan = Schedule(prog).plan()
        def kernel_of(expr):
            return next(
                (k for k in plan.kernels if any(e is expr for e in k.exprs)),
                None,
            )

        k = kernel_of(h["layer"])
        assert k is not None and k.kind is KernelKind.GEMM
        assert kernel_of(h["w"]) is None

    def test_num_launches_drops_with_fusion(self):
        prog, h = build_attention_program()
        sched = Schedule(prog)
        # one launch per kernel, overlapped or not
        before = len(sched.plan().kernels)
        sched.fuse(h["sum_b"], h["drop"], h["out"], policy=ComputationFuse)
        assert len(sched.plan().kernels) == before - 2

    def test_describe_lists_kernels_and_overlaps(self):
        prog, h = build_attention_program()
        sched = Schedule(prog)
        sched.overlap(h["layer"], h["allreduce"])
        text = sched.plan().describe()
        assert "gemm" in text and "overlap:" in text

    def test_plan_kernels_cover_all_ops_once(self):
        prog, h = build_attention_program()
        sched = Schedule(prog)
        sched.fuse(h["sum_b"], h["drop"], policy=ComputationFuse)
        plan = sched.plan()
        covered = [e for k in plan.kernels for e in k.exprs]
        assert len(covered) == len(set(map(id, covered)))
        assert len(covered) == len(sched.program.operations)


class TestFusedBlock:
    def test_kernel_kind_by_policy(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        x = a + 1.0
        y = x * 2.0
        assert FusedBlock(
            FusePolicy.COMPUTATION, [x, y]
        ).kernel_kind() is KernelKind.FUSED_ELEMENTWISE
        assert FusedBlock(
            FusePolicy.ALLREDUCE, [x, y]
        ).kernel_kind() is KernelKind.FUSED_COLLECTIVE
        assert FusedBlock(
            FusePolicy.SEND, [x, y]
        ).kernel_kind() is KernelKind.FUSED_P2P

    def test_block_names_unique(self, W):
        a = Tensor(FP16, (8,), Replicated, W)
        x = a + 1.0
        b1 = FusedBlock(FusePolicy.COMPUTATION, [x])
        b2 = FusedBlock(FusePolicy.COMPUTATION, [x])
        assert b1.name != b2.name

    def test_repr(self, W):
        a = Tensor(FP16, (8,), Replicated, W, name="a")
        x = Binary("+", a, 1.0, name="x")
        block = FusedBlock(FusePolicy.COMPUTATION, [x])
        assert "x" in repr(block)
