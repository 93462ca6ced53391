"""Tests for the workload builders (programs match the paper's figures)."""

import pytest

from repro.core import FP16, ops
from repro.workloads import (
    AdamWorkload,
    AttentionWorkload,
    LambWorkload,
    PipelineWorkload,
)
from repro.workloads.models import BERT_336M, GPT3_175B


class TestAdamProgram:
    def test_figure_6a_structure(self):
        wl = AdamWorkload.build(1024, 16)
        text = wl.program.pretty()
        assert 'AllReduce("+", g)' in text
        assert "Update(m" in text and "Update(v" in text and "Update(p" in text
        assert "Sqrt" in text

    def test_mixed_precision_defaults(self):
        wl = AdamWorkload.build(1024, 16)
        assert wl.grads.dtype is FP16
        assert wl.params.dtype is FP16  # fp16 params, fp32 moments
        assert wl.momentum.dtype.name == "FP32"

    def test_inputs_match_figure(self):
        wl = AdamWorkload.build(1024, 16)
        names = [t.name for t in wl.program.inputs]
        assert names == ["g", "p", "m", "v", "lr", "t"]

    def test_gradient_is_local(self):
        wl = AdamWorkload.build(1024, 16)
        assert wl.grads.layout.is_local

    def test_fused_schedule_is_single_collective_kernel(self):
        from repro.core.transforms import KernelKind

        wl = AdamWorkload.build(1024, 16)
        plan = wl.schedule_fused().plan()
        kinds = [k.kind for k in plan.kernels]
        assert kinds.count(KernelKind.FUSED_COLLECTIVE) == 1
        assert KernelKind.COLLECTIVE not in kinds

    def test_schedules_dictionary(self):
        wl = AdamWorkload.build(1024, 16)
        assert set(wl.schedules()) == {
            "AR-Adam", "RS-Adam-AG", "fuse(RS-Adam-AG)"
        }


class TestLambProgram:
    def test_has_trust_ratio_norms(self):
        wl = LambWorkload.build(1024, 16)
        norms = [
            e for e in wl.program.operations if isinstance(e, ops.Norm)
        ]
        assert len(norms) == 2

    def test_distributed_lamb_norms_cross_ranks(self):
        # the capability ZeRO lacks: norms over sliced state
        wl = LambWorkload.build(1024, 16)
        sched = wl.schedule_fused()
        norms = [
            e for e in sched.program.operations if isinstance(e, ops.Norm)
        ]
        assert norms and all(n.crosses_ranks for n in norms)


class TestAttentionProgram:
    def test_figure_3_shapes(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        assert wl.program.find("w").shape == (3072, 3072)
        assert wl.program.find("in").shape == (8, 1024, 3072)
        assert wl.matmul.layout.is_local

    def test_mlp_expansion(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16, expansion=4)
        assert wl.program.find("w").shape == (4 * 3072, 3072)
        assert wl.program.find("in").shape == (8, 1024, 4 * 3072)

    def test_four_schedules(self):
        wl = AttentionWorkload.build(4, 8, 16, 4)
        assert set(wl.schedules()) == {
            "MegatronLM", "MM-AR-C", "GShard-Eq", "CoCoNet"
        }

    def test_megatron_unfused_kernel_count(self):
        wl = AttentionWorkload.build(4, 8, 16, 4)
        plan = wl.schedule_megatron().plan()
        # MatMul + AR + 3 pointwise = 5 kernels
        assert len(plan.kernels) == 5

    def test_coconet_overlaps_matmul_with_fused_collective(self):
        wl = AttentionWorkload.build(4, 8, 16, 4)
        plan = wl.schedule_coconet().plan()
        assert len(plan.overlap_groups) == 1
        assert any("layer" in g for g in plan.overlap_groups)


class TestPipelineProgram:
    def test_figure_8a_structure(self):
        wl = PipelineWorkload.build(2, 8, 16, world_size=8, num_groups=2)
        text = wl.program.pretty()
        assert "Send(" in text and "GroupRank(GROUP+1" in text

    def test_send_crosses_groups(self):
        wl = PipelineWorkload.build(2, 8, 16, world_size=8, num_groups=2)
        assert wl.send.group.start == 4
        assert wl.send.inputs[0].group.start == 0

    def test_megatron_sends_replicated_redundant_data(self):
        # "each GPU sends redundant data" (Figure 7a)
        wl = PipelineWorkload.build(2, 8, 16, world_size=8, num_groups=2)
        assert wl.send.layout.is_replicated

    def test_coconet_overlap_covers_three_comm_stages(self):
        wl = PipelineWorkload.build(2, 8, 16, world_size=8, num_groups=2)
        plan = wl.schedule_coconet().plan()
        assert len(plan.overlap_groups) == 1
        assert len(plan.overlap_groups[0]) == 3  # RS, fused C-P2P, AG


class TestModelConfigs:
    def test_flops_per_sample(self):
        assert BERT_336M.flops_per_sample() == pytest.approx(
            6 * 336e6 * 512, rel=0.01
        )

    def test_inference_flops_smaller(self):
        # forward only: ~2 · P · tokens
        inference = 2.0 * GPT3_175B.num_params * GPT3_175B.seq_length
        assert inference < GPT3_175B.flops_per_sample()

    def test_param_bytes_fp16(self):
        assert BERT_336M.param_bytes_fp16 == 2 * 336_000_000
