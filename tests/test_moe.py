"""The MoE expert-MLP workload: schedule equivalence, plan shape, and
the autotuner finding the overlapped schedule (acceptance criteria of
the AllToAll subsystem)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.transforms.plan import KernelKind
from repro.perf import ProgramCostModel
from repro.runtime import Executor
from repro.workloads.moe import MoEWorkload, moe_reference


@pytest.fixture
def rng():
    return np.random.RandomState(0x30E)


def _inputs(rng, n, C, M, F):
    return {
        "x": rng.randn(n, n, C, M),
        "w1": rng.randn(n, M, F),
        "w2": rng.randn(n, F, M),
    }


class TestBuild:
    def test_program_shape(self):
        wl = MoEWorkload.build(4, 8, 16, world_size=4)
        assert wl.experts == 4
        assert wl.program.name == "moe"
        comm = [e.comm_kind for e in wl.program.comm_ops]
        assert comm == ["alltoall", "alltoall"]

    def test_dsl_renders_alltoall(self):
        wl = MoEWorkload.build(4, 8, 16, world_size=4)
        text = wl.program.pretty()
        assert "AllToAll(x, dim=0)" in text
        assert "AllToAll(expert_out, dim=0)" in text

    def test_three_schedules_exposed(self):
        wl = MoEWorkload.build(4, 8, 16, world_size=4)
        names = set(wl.schedules())
        assert {"GShard-Eq", "fused", "overlapped"} <= names


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 4])
    def test_all_schedules_match_reference(self, rng, n):
        C, M, F = 3, 6, 8
        wl = MoEWorkload.build(C, M, F, world_size=n, dtype=FP32)
        inputs = _inputs(rng, n, C, M, F)
        ref = moe_reference(inputs["x"], inputs["w1"], inputs["w2"])
        for name, sched in wl.schedules().items():
            res = Executor().run_lowered(sched.program, inputs)
            got = res.output(sched.program.outputs[0].name)
            np.testing.assert_allclose(ref, got, rtol=1e-4, atol=1e-6, err_msg=name)

    def test_hierarchical_schedule_matches(self, rng):
        n, C, M, F = 4, 3, 6, 8
        wl = MoEWorkload.build(C, M, F, world_size=n, dtype=FP32)
        inputs = _inputs(rng, n, C, M, F)
        ref = moe_reference(inputs["x"], inputs["w1"], inputs["w2"])
        sched = wl.schedule_hierarchical(node_size=2)
        res = Executor().run_lowered(sched.program, inputs)
        got = res.output(sched.program.outputs[0].name)
        np.testing.assert_allclose(ref, got, rtol=1e-4, atol=1e-6)

    def test_reference_rejects_bad_expert_count(self, rng):
        with pytest.raises(ValueError):
            moe_reference(
                rng.randn(3, 4, 2, 6), rng.randn(3, 6, 8), rng.randn(3, 8, 6)
            )


class TestPlans:
    def test_gshard_kernel_count(self):
        wl = MoEWorkload.build(64, 128, 512, world_size=16)
        plan = wl.schedule_gshard().plan()
        # a2a, gemm, relu, gemm, a2a, scale — the siloed baseline
        assert len(plan.kernels) == 6

    def test_fused_kernel_count(self):
        wl = MoEWorkload.build(64, 128, 512, world_size=16)
        plan = wl.schedule_fused().plan()
        assert len(plan.kernels) == 5
        kinds = [k.kind for k in plan.kernels]
        assert KernelKind.FUSED_COLLECTIVE in kinds

    def test_overlapped_group_spans_pipeline(self):
        wl = MoEWorkload.build(64, 128, 512, world_size=16)
        plan = wl.schedule_overlapped().plan()
        assert len(plan.overlap_groups) == 1
        assert len(plan.overlap_groups[0]) == 5  # a2a, mm, relu, mm, fused

    def test_hierarchical_plan_has_four_exchanges(self):
        wl = MoEWorkload.build(64, 128, 512, world_size=16)
        plan = wl.schedule_hierarchical(node_size=4).plan()
        comm = [
            k for k in plan.kernels if k.kind is KernelKind.COLLECTIVE
        ]
        assert len(comm) == 4


class TestSimulatedPerformance:
    @pytest.fixture(scope="class")
    def cluster(self):
        return Cluster(1)

    @pytest.fixture(scope="class")
    def wl(self):
        return MoEWorkload.build(512, 1024, 4096, world_size=16)

    def test_overlapped_fastest(self, cluster, wl):
        pcm = ProgramCostModel(cluster)
        times = {n: pcm.time(s) for n, s in wl.schedules().items()}
        assert times["overlapped"] < times["fused"] < times["GShard-Eq"]

    def test_autotuner_returns_overlapped_strictly_better(self, cluster, wl):
        # acceptance: the autotuner, run on the MoE program over the
        # default simulated cluster, returns the overlapped schedule
        # with simulated time strictly better than GShard-Eq
        result = Autotuner(cluster).tune(wl.program)
        assert "overlap" in result.best.name
        gshard = ProgramCostModel(cluster).time(wl.schedule_gshard())
        assert result.best.time < gshard
        assert len(result.candidates) >= 4

    def test_autotuner_candidates_include_fusion_path(self, cluster, wl):
        result = Autotuner(cluster).tune(wl.program)
        names = [c.name for c in result.candidates]
        assert any("a2areorder" in n for n in names)
        assert any("a2afuse" in n for n in names)

    def test_a2asplit_explored_across_nodes(self):
        cluster = Cluster(4)
        wl = MoEWorkload.build(64, 256, 1024, world_size=cluster.num_ranks)
        result = Autotuner(cluster).tune(wl.program)
        names = [c.name for c in result.candidates]
        assert any("a2asplit" in n for n in names)
