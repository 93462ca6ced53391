"""The shared lowering IR and the backends that consume it.

Structural tests of :func:`repro.core.lower.lower`, differential
property tests that ``run_lowered`` of a schedule is bit-identical
(outputs *and* tensor states) to ``run_lowered`` of its program lowered
unscheduled, one kernel per expression, across every workload's
original / named / autotuned schedules, the cost model's consumption
of the stream, and the §5.4 bucket metadata wiring.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.lower import (
    ChunkLoop,
    CollectiveStep,
    Launch,
    LoweredProgram,
    PackScattered,
    fused_pack_info,
    lower,
)
from repro.core.tensor import Tensor
from repro.core.transforms import KernelKind, Schedule
from repro.errors import CoCoNetError
from repro.perf import Engine, ProgramCostModel
from repro.runtime import Executor
from repro.scattered.bucketing import bucket_memory_overhead
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload


@pytest.fixture
def rng():
    return np.random.RandomState(0x10E7)


def optimizer_inputs(rng, n=4, N=64):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def assert_scheduled_parity(sched, inputs):
    """run_lowered(schedule) ≡ run_lowered(its program), bit-for-bit.

    The program alone lowers unscheduled, one kernel per expression, so
    the schedule's fusion, overlap and chunking must not change a bit.
    """
    program = sched.program if isinstance(sched, Schedule) else sched
    low = Executor().run_lowered(sched, inputs, allow_downcast=True)
    plain = Executor().run_lowered(program, inputs, allow_downcast=True)
    for o in program.outputs:
        np.testing.assert_array_equal(
            low.output(o.name), plain.output(o.name), err_msg=o.name
        )
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                low.tensor_state(t.name),
                plain.tensor_state(t.name),
                err_msg=f"state {t.name}",
            )


class TestLoweringStructure:
    def test_default_plan_is_all_launches(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        lowered = Schedule(wl.program).lowered()
        assert all(isinstance(i, Launch) for i in lowered.instructions)
        assert len(lowered.instructions) == len(wl.program.operations)

    def test_launches_cover_every_operation_once(self):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        for sched in wl.schedules().values():
            lowered = sched.lowered()
            covered = [
                e for launch in lowered.launches() for e in launch.exprs
            ]
            assert len(covered) == len(set(map(id, covered)))
            assert len(covered) == len(sched.program.operations)

    def test_deps_reference_only_kernels(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        lowered = wl.schedule_gshard().lowered()
        names = {k.name for k in lowered.plan.kernels}
        for launch in lowered.launches():
            assert set(launch.deps) <= names - {launch.name}

    def test_streams_and_resources_assigned(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        lowered = wl.schedule_megatron().lowered(cluster=Cluster(1))
        comm = [
            i for i in lowered.instructions
            if isinstance(i, CollectiveStep)
        ]
        assert comm and all(
            i.resource.startswith("fabric:") for i in comm
        )
        compute = [
            i for i in lowered.instructions
            if isinstance(i, Launch) and not isinstance(i, CollectiveStep)
        ]
        assert compute and all(
            i.resource == i.stream == "gpu:0" for i in compute
        )

    def test_attention_overlap_lowered_to_ring_chunk_loop(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        lowered = wl.schedule_coconet().lowered()
        loops = lowered.chunk_loops()
        assert len(loops) == 1
        loop = loops[0]
        assert loop.ring
        assert loop.num_chunks == 4
        producer, consumer = loop.entries
        assert producer.instr.kernel.kind is KernelKind.GEMM
        assert producer.mode == "publish"
        # 2-D chunks over the GEMM M rows (seq = 8, 4 chunks of 2)
        assert producer.chunk_dim == 1
        assert producer.bounds == ((0, 2), (2, 4), (4, 6), (6, 8))
        assert consumer.mode == "whole"
        assert consumer.upstream == producer.name

    def test_moe_overlap_chunks_the_compute_chain(self):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        lowered = wl.schedule_overlapped().lowered()
        (loop,) = lowered.chunk_loops()
        assert not loop.ring
        modes = {e.name: e.mode for e in loop.entries}
        kinds = {
            e.name: e.instr.kernel.kind for e in loop.entries
        }
        # dispatch exchange and both GEMMs release chunks; the ReLU
        # genuinely computes chunk-by-chunk; the fused combine is atomic
        assert modes["dispatch"] == "publish"
        compute = [
            n for n, m in modes.items()
            if m == "compute"
        ]
        assert compute and all(
            kinds[n] is KernelKind.ELEMENTWISE for n in compute
        )
        fused = [
            n for n, k in kinds.items()
            if k is KernelKind.FUSED_COLLECTIVE
        ]
        assert fused and all(modes[n] == "whole" for n in fused)

    def test_pack_scattered_precedes_fused_collective(self):
        wl = AdamWorkload.build(64, 4, grad_dtype=FP32)
        lowered = wl.schedule_fused().lowered()
        instrs = lowered.instructions
        packs = [i for i in instrs if isinstance(i, PackScattered)]
        assert len(packs) == 1
        pack = packs[0]
        target = next(
            i for i in instrs
            if isinstance(i, CollectiveStep) and i.name == pack.target
        )
        assert instrs.index(pack) == instrs.index(target) - 1
        assert target.pack is pack
        # 12 · ⌈N / 2^10⌉ over the exchange anchor's per-rank elements
        assert pack.metadata_bytes == bucket_memory_overhead(
            pack.num_elements
        )
        assert pack.num_buckets == -(-pack.num_elements // 1024)

    def test_interleaved_overlap_groups_merge_into_one_loop(self, rng):
        # two overlap groups whose lowered regions interleave (each
        # group's span pulls in the other's members) must become ONE
        # chunk loop — a kernel belongs to exactly one loop, the cost
        # model must not see duplicate tasks, and the executor must run
        # every kernel exactly once
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        sched = Schedule(wl.program)
        sched.overlap(wl.dispatch, wl.act)
        sched.overlap(wl.gemm1, wl.combine)
        lowered = sched.lowered()
        loops = lowered.chunk_loops()
        assert len(loops) == 1
        covered = [e for la in lowered.launches() for e in la.exprs]
        assert len(covered) == len(set(map(id, covered)))
        assert len(covered) == len(sched.program.operations)
        # no duplicate task names in the DES graph
        pcm = ProgramCostModel(Cluster(1))
        assert pcm.time(sched) > 0.0
        inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        assert_scheduled_parity(sched, inputs)

    def test_interposed_kernel_joins_the_loop(self, rng):
        # overlap(mm, ar); split(ar): the plan group holds {mm, ag} with
        # the rs interposed on the dependency path — the lowering pulls
        # it into the loop (old codegen/cost silently mis-handled this)
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = Schedule(wl.program)
        sched.overlap(wl.matmul, wl.allreduce)
        sched.split(wl.allreduce)
        (loop,) = sched.lowered().chunk_loops()
        kinds = [e.instr.kernel.kind for e in loop.entries]
        assert KernelKind.COLLECTIVE in kinds  # rs and ag joined
        assert len(loop.entries) == 3
        # the describe annotation still finds the (superset) loop
        text = sched.plan().describe(sched.lowered())
        assert "chunks" in text
        inputs = {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        }
        assert_scheduled_parity(sched, inputs)

    def test_lower_accepts_program_and_is_idempotent(self):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        lowered = lower(wl.program)
        assert isinstance(lowered, LoweredProgram)
        assert lower(lowered) is lowered
        with pytest.raises(CoCoNetError, match="cannot lower"):
            lower(42)

    def test_schedule_lowered_is_cached_per_version(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = Schedule(wl.program)
        first = sched.lowered()
        assert sched.lowered() is first
        sched.split(wl.allreduce)
        assert sched.lowered() is not first

    def test_describe_lists_streams_and_chunks(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        lowered = wl.schedule_coconet().lowered()
        text = lowered.describe()
        assert "gpu:0" in text and "chunks" in text


class TestPlanAnnotations:
    def test_plan_describe_with_lowering_shows_streams_and_chunks(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = wl.schedule_coconet()
        text = sched.plan().describe(sched.lowered())
        assert "@ gpu:0" in text
        assert "4 chunks, ring" in text
        # the lowering-free rendering stays unchanged
        plain = sched.plan().describe()
        assert "@ gpu:0" not in plain and "overlap:" in plain

    def test_kernel_repr_names_overlap_group(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = wl.schedule_coconet()
        plan = sched.plan()
        member = next(k for k in plan.kernels if k.overlap_group)
        assert f"in {member.overlap_group}" in repr(member)
        loner = next(
            k for k in plan.kernels if k.overlap_group is None
        )
        assert "in " not in repr(loner)


class TestRunLoweredParity:
    """Scheduled ≡ unscheduled lowered runs on every schedule family."""

    def test_adam_all_schedules(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_scheduled_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_scheduled_parity(sched, inputs)

    def test_lamb_all_schedules(self, rng):
        wl = LambWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_scheduled_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_scheduled_parity(sched, inputs)

    def test_attention_all_schedules(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=7)
        inputs = {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        }
        assert_scheduled_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_scheduled_parity(sched, inputs)

    def test_moe_all_schedules(self, rng):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        assert_scheduled_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_scheduled_parity(sched, inputs)
        assert_scheduled_parity(
            wl.schedule_hierarchical(node_size=2), inputs
        )

    def test_pipeline_all_schedules(self, rng):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=5
        )
        inputs = {
            "in": rng.randn(4, 2, 8, 16),
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        assert_scheduled_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_scheduled_parity(sched, inputs)

    def test_autotuned_schedules_parity(self, rng):
        # every candidate the autotuner enumerated, incl. the winner
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        inputs = {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        }
        for cand in result.candidates:
            assert_scheduled_parity(cand.schedule, inputs)


class TestCostFromLowering:
    def test_time_equals_engine_run_of_lowered_tasks(self):
        wl = AttentionWorkload.build(4, 64, 256, 16)
        pcm = ProgramCostModel(Cluster(1))
        for sched in wl.schedules().values():
            lowered = sched.lowered(cluster=pcm.cluster)
            tasks = pcm._build_tasks(lowered)
            assert pcm.time(sched) == pytest.approx(
                Engine().run(tasks).makespan
            )

    def test_chunk_tasks_follow_the_lowered_loop(self):
        wl = AttentionWorkload.build(4, 64, 256, 16)
        sched = wl.schedule_coconet()
        pcm = ProgramCostModel(Cluster(1))
        lowered = sched.lowered(cluster=pcm.cluster)
        (loop,) = lowered.chunk_loops()
        tasks = pcm._build_tasks(lowered)
        for entry in loop.entries:
            chunk_tasks = [
                t for t in tasks
                if t.name.startswith(f"{entry.name}#c")
            ]
            assert len(chunk_tasks) == loop.num_chunks

    def test_overlap_chunks_override_threads_through_lowering(self):
        wl = AttentionWorkload.build(4, 64, 256, 16)
        sched = wl.schedule_coconet()
        pcm = ProgramCostModel(Cluster(1), overlap_chunks=2)
        (loop,) = pcm._lowered_of(sched).chunk_loops()
        assert loop.num_chunks == 2

    def test_fused_pack_info_formula(self):
        wl = AdamWorkload.build(4096, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        kernel = next(
            k for k in sched.plan().kernels
            if k.kind is KernelKind.FUSED_COLLECTIVE
        )
        pack = fused_pack_info(kernel)
        assert pack is not None
        assert pack.num_elements == 4096
        assert pack.num_buckets == 4
        assert pack.metadata_bytes == 48

    def test_scattered_metadata_is_costed(self, monkeypatch):
        # the bucket table is read by the fused kernel: with the §5.4
        # metadata charged, the fused collective can only get slower —
        # and strictly slower once the kernel is compute-bound (a slow
        # fused-compute parameterization makes the extra HBM traffic
        # observable rather than hidden under the exchange time)
        from repro.perf import kernel_cost, program_cost

        def no_metadata(m):
            m.setattr(program_cost, "fused_pack_info", lambda kernel: None)

        wl = AdamWorkload.build(2**22, 64, grad_dtype=FP32)
        sched = wl.schedule_fused()
        kernel = next(
            k for k in sched.plan().kernels
            if k.kind is KernelKind.FUSED_COLLECTIVE
        )
        with monkeypatch.context() as m:
            m.setattr(
                kernel_cost, "FUSED_REGISTER_PRESSURE",
                kernel_cost.CostParams(peak_fraction=0.0005),
            )
            with_meta = ProgramCostModel(Cluster(4))._kernel_cost(kernel)
            no_metadata(m)
            without = ProgramCostModel(Cluster(4))._kernel_cost(kernel)
        assert with_meta.duration > without.duration
        # default parameters: never cheaper with the metadata charged
        t_on = ProgramCostModel(Cluster(4)).time(sched)
        with monkeypatch.context() as m:
            no_metadata(m)
            t_off = ProgramCostModel(Cluster(4)).time(sched)
        assert t_on >= t_off


class TestSignatureOnLoweredIR:
    def test_same_schedule_same_signature(self):
        tuner = Autotuner(Cluster(1))
        a = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        b = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        assert tuner._plan_signature(a.schedule_coconet()) == (
            tuner._plan_signature(b.schedule_coconet())
        )

    def test_overlap_changes_signature(self):
        tuner = Autotuner(Cluster(1))
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        fused_only = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = fused_only.schedule_coconet()
        # same kernels, no overlap group vs with one: the chunk-loop
        # layout keeps them apart
        sig_overlap = tuner._plan_signature(sched)
        plain = wl.schedule_gshard()
        assert tuner._plan_signature(plain) != sig_overlap
