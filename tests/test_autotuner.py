"""Tests for the autotuner (§3.5 and the schedule findings of §6)."""

import pytest

from repro.cluster import Cluster
from repro.core.artifact import structural_hash
from repro.core.autotuner import Autotuner, _fuse_pointwise_regions
from repro.core.dtypes import FP32
from repro.core.transforms import Schedule
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload
from tests.conftest import build_attention_program


class TestPointwiseFusionPrepass:
    def test_connected_ops_form_one_block(self):
        wl = AdamWorkload.build(2**16, 16)
        sched = Schedule(wl.program)
        blocks = _fuse_pointwise_regions(sched)
        # all of Adam's pointwise ops are def-use connected
        assert len(blocks) == 1
        assert len(blocks[0].members) == len(wl.compute_ops)

    def test_prepass_skips_single_op(self):
        prog, h = build_attention_program()
        sched = Schedule(prog)
        # the attention epilogue has 3 connected pointwise ops
        blocks = _fuse_pointwise_regions(sched)
        assert len(blocks) == 1 and len(blocks[0].members) == 3


class TestSearch:
    def test_explores_multiple_schedules(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert len(result.candidates) >= 5
        names = [c.name for c in result.candidates]
        assert "default" in names

    def test_attention_best_is_overlap(self):
        # §6.2.1: "The autotuner returned this [ol(MM,fuse(RS-C-AG))] as
        # the best schedule"
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert "overlap" in result.best.name
        assert "split" in result.best.name

    def test_adam_small_prefers_ar_opt(self):
        # Figure 10a: "AR-Adam runs best till 2^16"
        wl = AdamWorkload.build(2**12, 256)
        result = Autotuner(Cluster(16)).tune(wl.program)
        assert result.best.name == "fused-compute"

    def test_adam_large_prefers_distributed(self):
        # Figure 10a: "fuse(RS-A-AG) runs best after 2^17": split +
        # reorder + arfuse + slice_state is the fused FusedAllReduce
        # update over sliced optimizer state (TestPaperOptimizerSchedule)
        wl = AdamWorkload.build(2**28, 256)
        result = Autotuner(Cluster(16)).tune(wl.program)
        assert "split" in result.best.name
        assert "arfuse" in result.best.name

    def test_crossover_exists(self):
        # there must be a size where the best schedule flips — "There is
        # no schedule that performs best for all sizes" (§6.1.1)
        small = Autotuner(Cluster(16)).tune(
            AdamWorkload.build(2**12, 256).program
        )
        large = Autotuner(Cluster(16)).tune(
            AdamWorkload.build(2**28, 256).program
        )
        assert small.best.name != large.best.name

    def test_pipeline_best_overlaps_comm(self):
        wl = PipelineWorkload.build(
            2, 2048, 12288, world_size=32, num_groups=2
        )
        result = Autotuner(Cluster(2)).tune(wl.program)
        assert "split" in result.best.name

    def test_candidates_timed_consistently(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        best_time = min(c.time for c in result.candidates)
        assert result.best.time == best_time

    def test_report_format(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        text = result.report()
        assert "explored" in text and "best" in text

    def test_elapsed_recorded(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert result.elapsed_seconds > 0

    def test_candidate_schedules_are_executable_programs(self):
        # every candidate is a standalone valid program (Figure 4 note)
        wl = AttentionWorkload.build(4, 8, 16, 4)
        result = Autotuner(Cluster(1)).tune(wl.program)
        for c in result.candidates:
            assert c.schedule.program.operations  # validates the DFG


class TestPaperOptimizerSchedule:
    """The tuned Adam/LAMB is the paper's fuse(RS-Opt-AG) (Figure 6b):
    the state is sliced and only p is gathered, because every extra
    AllGather of a fused collective is priced."""

    @pytest.mark.parametrize(
        "workload, n, world_size, nodes",
        [
            (AdamWorkload, 2**22, 2, 1),
            (AdamWorkload, 2**18, 16, 1),
            (AdamWorkload, 2**16, 2, 1),
            (AdamWorkload, 2**16, 1, 1),
            (AdamWorkload, 2**12, 2, 1),
            (AdamWorkload, 2**26, 64, 4),
            (LambWorkload, 2**26, 64, 4),
            (LambWorkload, 2**18, 16, 1),
        ],
    )
    def test_tuned_optimizer_is_the_named_fused_schedule(
        self, workload, n, world_size, nodes
    ):
        wl = workload.build(n, world_size)
        cluster = Cluster(nodes)
        best = Autotuner(cluster).tune(wl.program).best
        assert best.name.endswith("slice_state")
        assert structural_hash(
            best.schedule.lowered(cluster=cluster)
        ) == structural_hash(wl.schedule_fused().lowered(cluster=cluster))

    @pytest.mark.parametrize(
        "build, nodes, name, time",
        [
            (
                lambda: AttentionWorkload.build(4, 64, 256, 2), 1,
                "split(sum) ; reorder(ag_sum) ; arfuse(rs_sum)",
                1.5987821176470587e-05,
            ),
            (
                lambda: AttentionWorkload.build(4, 256, 1024, 16), 1,
                "split(sum) ; reorder(ag_sum) ; arfuse(rs_sum)",
                5.851794196078432e-05,
            ),
            (
                lambda: MoEWorkload.build(
                    capacity=512, model_dim=512, ffn_dim=2048,
                    world_size=2, dtype=FP32,
                ), 1,
                "a2areorder(combine) ; a2afuse(a2a_out) ; overlap",
                0.00044042994152782987,
            ),
            (
                lambda: MoEWorkload.build(128, 512, 2048, 32), 2,
                "a2areorder(combine) ; a2asplit(a2a_out) ; overlap ; "
                "a2asplit(dispatch)",
                0.0009185090509803922,
            ),
        ],
    )
    def test_attention_and_moe_picks_unchanged(
        self, build, nodes, name, time
    ):
        # their fused kernels gather once (or not at all), so pricing
        # extra gathers leaves the pick and its predicted time alone
        best = Autotuner(Cluster(nodes)).tune(build().program).best
        assert best.name == name
        assert best.time == pytest.approx(time, rel=1e-12)
