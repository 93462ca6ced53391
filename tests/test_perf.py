"""Tests for the discrete-event engine and the program cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import (
    FP16,
    RANK,
    AllGather,
    AllReduce,
    Execute,
    MatMul,
    Sliced,
    Tensor,
    world,
)
from repro.core.transforms import AllReduceFuse, ComputationFuse, Schedule
from repro.errors import CoCoNetError
from repro.perf import Engine, ProgramCostModel, Task
from repro.perf.kernel_cost import (
    APEX_FUSED_OPTIMIZER,
    DEFAULT,
    FUSED_REGISTER_PRESSURE,
    gemm_time,
    pointwise_time,
)
from tests.conftest import build_attention_program
from tests.des_oracle import ReferenceEngine


def busy_time(timeline, resource_prefix, tasks):
    """Total occupied time of resources whose name has the prefix.

    Tasks absent from ``spans`` (e.g. from a different run, or not yet
    scheduled) are skipped before any subscripting.
    """
    return sum(
        timeline.end(t.name) - timeline.start(t.name) for t in tasks
        if t.name in timeline.spans and t.resource.startswith(resource_prefix)
    )


class TestEngine:
    def test_sequential_chain(self):
        tasks = [
            Task("a", "r1", 1.0),
            Task("b", "r1", 2.0, ("a",)),
            Task("c", "r1", 3.0, ("b",)),
        ]
        tl = Engine().run(tasks)
        assert tl.makespan == pytest.approx(6.0)
        assert tl.start("b") == pytest.approx(1.0)

    def test_parallel_resources(self):
        tasks = [Task("a", "r1", 5.0), Task("b", "r2", 3.0)]
        tl = Engine().run(tasks)
        assert tl.makespan == pytest.approx(5.0)

    def test_resource_serialization(self):
        tasks = [Task("a", "r1", 2.0), Task("b", "r1", 2.0)]
        tl = Engine().run(tasks)
        assert tl.makespan == pytest.approx(4.0)

    def test_dependency_across_resources(self):
        tasks = [
            Task("a", "compute", 2.0),
            Task("b", "network", 4.0, ("a",)),
        ]
        tl = Engine().run(tasks)
        assert tl.start("b") == pytest.approx(2.0)
        assert tl.makespan == pytest.approx(6.0)

    def test_pipeline_overlap(self):
        # classic 2-stage pipeline: makespan = first + max stage sum
        tasks = []
        for i in range(4):
            deps = (f"p{i-1}",) if i else ()
            tasks.append(Task(f"p{i}", "compute", 1.0, deps))
            tasks.append(Task(f"c{i}", "network", 2.0, (f"p{i}",)))
        tl = Engine().run(tasks)
        assert tl.makespan == pytest.approx(1.0 + 4 * 2.0)

    def test_cycle_detected(self):
        tasks = [Task("a", "r", 1.0, ("b",)), Task("b", "r", 1.0, ("a",))]
        with pytest.raises(CoCoNetError, match="cycle"):
            Engine().run(tasks)

    def test_unknown_dep_rejected(self):
        with pytest.raises(CoCoNetError, match="unknown task"):
            Engine().run([Task("a", "r", 1.0, ("ghost",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CoCoNetError, match="duplicate"):
            Engine().run([Task("a", "r", 1.0), Task("a", "r", 1.0)])

    def test_negative_duration_rejected(self):
        with pytest.raises(CoCoNetError):
            Task("a", "r", -1.0)

    def test_busy_time(self):
        tasks = [Task("a", "net:0", 2.0), Task("b", "net:1", 3.0)]
        tl = Engine().run(tasks)
        assert busy_time(tl, "net:", tasks) == pytest.approx(5.0)

    def test_busy_time_skips_unscheduled_tasks(self):
        # a task list mentioning work the timeline never saw must not
        # raise — missing names are filtered before subscripting
        tasks = [Task("a", "net:0", 2.0)]
        tl = Engine().run(tasks)
        extra = tasks + [Task("ghost", "net:1", 9.0)]
        assert busy_time(tl, "net:", extra) == pytest.approx(2.0)

    def test_utilization_from_recorded_resources(self):
        tasks = [
            Task("a", "gpu:0", 2.0),
            Task("b", "net:0", 3.0, ("a",)),
        ]
        tl = Engine().run(tasks)
        # makespan 5: gpu busy 2, net busy 3
        assert tl.utilization("gpu:0") == pytest.approx(2.0 / 5.0)
        assert tl.utilization("net:") == pytest.approx(3.0 / 5.0)
        assert tl.utilization("nowhere") == 0.0

    def test_utilization_exact_name_does_not_prefix_match(self):
        # "gpu:1" must not absorb gpu:10..gpu:15; only a ":"-terminated
        # query means a whole family
        tasks = [
            Task("a", "gpu:1", 2.0),
            Task("b", "gpu:10", 3.0),
        ]
        tl = Engine().run(tasks)
        assert tl.utilization("gpu:1") == pytest.approx(2.0 / 3.0)
        # a family query averages over its members, staying in [0, 1]
        assert tl.utilization("gpu:") == pytest.approx(
            (2.0 / 3.0 + 3.0 / 3.0) / 2
        )

    def test_utilization_empty_timeline(self):
        from repro.perf.engine import Timeline

        assert Timeline().utilization("gpu:") == 0.0


def _random_task_graph(draw) -> list:
    """Random DAG: deps only point at earlier tasks, so it is acyclic.

    Durations are drawn from a tiny integer set to force start-time
    ties, the case where the heap's (start, submission order) key must
    reproduce the reference scan's first-in-input-order tie-breaking.
    """
    n = draw(st.integers(1, 24))
    n_resources = draw(st.integers(1, 4))
    tasks = []
    for i in range(n):
        resource = f"r{draw(st.integers(0, n_resources - 1))}"
        duration = float(draw(st.sampled_from([0, 1, 1, 2, 3])))
        if i == 0:
            deps = ()
        else:
            k = draw(st.integers(0, min(3, i)))
            deps = tuple(
                f"t{j}"
                for j in sorted(
                    draw(
                        st.sets(
                            st.integers(0, i - 1), min_size=k, max_size=k
                        )
                    )
                )
            )
        tasks.append(Task(f"t{i}", resource, duration, deps))
    return tasks


class TestEngineEquivalence:
    """The heap scheduler is a drop-in for the O(n²) ready-scan oracle."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_heap_matches_reference_on_random_graphs(self, data):
        tasks = _random_task_graph(data.draw)
        heap_tl = Engine().run(tasks)
        ref_tl = ReferenceEngine().run(tasks)
        assert heap_tl.spans == ref_tl.spans
        assert heap_tl.resources == ref_tl.resources

    def test_reference_flag_routes_run(self):
        tasks = [Task("a", "r", 1.0), Task("b", "r", 2.0, ("a",))]
        assert ReferenceEngine().run(tasks).spans == {
            "a": (0.0, 1.0), "b": (1.0, 3.0),
        }
        assert ReferenceEngine().run(tasks).spans == (
            Engine().run(tasks).spans
        )

    def test_heap_detects_cycle(self):
        tasks = [Task("a", "r", 1.0, ("b",)), Task("b", "r", 1.0, ("a",))]
        with pytest.raises(CoCoNetError, match="cycle"):
            Engine().run(tasks)
        with pytest.raises(CoCoNetError, match="cycle"):
            ReferenceEngine().run(tasks)

    def test_equivalence_on_cost_model_task_graphs(self):
        # the graphs that matter: chunked overlap pipelines from the
        # program cost model, where stale heap keys actually occur
        from repro.workloads.moe import MoEWorkload

        wl = MoEWorkload.build(256, 512, 2048, 16)
        pcm = ProgramCostModel(Cluster(1))
        for sched in wl.schedules().values():
            lowered = sched.lowered(cluster=pcm.cluster)
            tasks = pcm._build_tasks(lowered)
            assert Engine().run(tasks).spans == (
                ReferenceEngine().run(tasks).spans
            )


class TestKernelCost:
    def test_pointwise_scales_with_bytes(self):
        t1 = pointwise_time(1e6)
        t2 = pointwise_time(1e9)
        assert t2 > t1 * 100

    def test_launch_floor(self):
        assert pointwise_time(0) == pytest.approx(4e-6)

    def test_apex_setup_hurts_small(self):
        small = 2**12 * 28
        assert pointwise_time(small, params=APEX_FUSED_OPTIMIZER) > (
            pointwise_time(small, params=DEFAULT)
        )

    def test_apex_wins_at_large(self):
        # "its benefit shows up for larger tensors" (§6.1.1)
        from repro.perf.kernel_cost import GENERATED_OPTIMIZER

        big = 2**30 * 28
        assert pointwise_time(big, params=APEX_FUSED_OPTIMIZER) < (
            pointwise_time(big, params=GENERATED_OPTIMIZER)
        )

    def test_register_pressure_hurts_small(self):
        small = 2**14
        assert pointwise_time(small, params=FUSED_REGISTER_PRESSURE) > (
            pointwise_time(small, params=DEFAULT)
        )

    def test_gemm_roofline(self):
        math_bound = gemm_time(10**13, 10**6, efficiency=1.0)
        assert math_bound == pytest.approx(10**13 / 112e12, rel=0.01)


def _mm_ar_program(B=8):
    W = world(16)
    M, K, N = B * 1024, 768, 3072
    a = Tensor(FP16, (M, K * 16), Sliced(1), W, RANK, name="a")
    w = Tensor(FP16, (K * 16, N), Sliced(0), W, RANK, name="w")
    layer = MatMul(a, w, name="layer")
    s = AllReduce("+", layer, name="sum")
    return Execute("mm_ar", [a, w], [s]), layer, s


class TestProgramCost:
    def test_sequential_is_sum_of_kernels(self):
        prog, layer, s = _mm_ar_program()
        pcm = ProgramCostModel(Cluster(1))
        total = pcm.time(prog)
        parts = pcm.kernel_breakdown(prog)
        assert total == pytest.approx(sum(parts.values()), rel=0.01)

    def test_overlap_beats_sequential(self):
        prog, layer, s = _mm_ar_program()
        pcm = ProgramCostModel(Cluster(1))
        t_seq = pcm.time(prog)
        prog2, layer2, s2 = _mm_ar_program()
        sched = Schedule(prog2)
        sched.overlap(layer2, s2)
        t_ovl = ProgramCostModel(Cluster(1)).time(sched)
        assert t_ovl < t_seq

    def test_overlap_bounded_below_by_components(self):
        # overlap cannot beat the slower of the two kernels
        prog, layer, s = _mm_ar_program()
        pcm = ProgramCostModel(Cluster(1))
        parts = pcm.kernel_breakdown(prog)
        prog2, layer2, s2 = _mm_ar_program()
        sched = Schedule(prog2)
        sched.overlap(layer2, s2)
        t_ovl = ProgramCostModel(Cluster(1)).time(sched)
        assert t_ovl >= max(parts.values())

    def test_overlap_hides_most_of_matmul(self):
        # Figure 1: "hide more than 80% of the execution time of MatMul"
        prog, layer, s = _mm_ar_program()
        pcm = ProgramCostModel(Cluster(1))
        parts = pcm.kernel_breakdown(prog)
        prog2, layer2, s2 = _mm_ar_program()
        sched = Schedule(prog2)
        sched.overlap(layer2, s2)
        t_ovl = ProgramCostModel(Cluster(1)).time(sched)
        hidden = 1 - (t_ovl - parts["sum"]) / parts["layer"]
        assert hidden > 0.8

    def test_fused_compute_reduces_time(self):
        prog, h = build_attention_program(n=4, batch=4, seq=64, hidden=256)
        pcm = ProgramCostModel(Cluster(1))
        t_unfused = pcm.time(prog)
        sched = Schedule(prog)
        sched.fuse(h["sum_b"], h["drop"], h["out"], policy=ComputationFuse)
        t_fused = ProgramCostModel(Cluster(1)).time(sched)
        assert t_fused < t_unfused

    def test_fused_collective_fewer_launches(self):
        prog, h = build_attention_program(n=4, batch=4, seq=64, hidden=256)
        sched = Schedule(prog)
        rs, ag = sched.split(h["allreduce"])
        results = sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
        before = len(sched.plan().kernels)
        sched.fuse(rs, *results, policy=AllReduceFuse)
        after = len(sched.plan().kernels)
        assert after < before

    def test_breakdown_has_all_kernels(self):
        prog, h = build_attention_program()
        pcm = ProgramCostModel(Cluster(1))
        parts = pcm.kernel_breakdown(prog)
        assert set(parts) == {k.name for k in Schedule(prog).plan().kernels}

    def test_slice_kernel_is_free(self):
        prog, h = build_attention_program()
        sched = Schedule(prog)
        _, ag = sched.split(h["allreduce"])
        sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
        parts = ProgramCostModel(Cluster(1)).kernel_breakdown(sched)
        slice_costs = [v for k, v in parts.items() if k.startswith("slice")]
        assert slice_costs and all(v == 0.0 for v in slice_costs)


def _fused_optimizer(wl, gathered):
    """split ; reorder ; arfuse of ``wl``'s update, with the state not
    in ``gathered`` sliced and its AllGather dead (Figure 6b)."""
    sched = Schedule(wl.program)
    comps = sched.fuse(*wl.compute_ops, policy=ComputationFuse)
    rs, ag = sched.split(wl.avg)
    block, *gathers = sched.reorder(ag, comps)
    for state in (wl.momentum, wl.velocity):
        if state.name not in gathered:
            sched.asSlice(state, dim=0)
    kept = []
    for gather in map(sched.resolve, gathers):
        if gather.writeback.name in gathered:
            kept.append(gather)
        else:
            sched.dead(gather)
    sched.fuse(rs, block, *kept, policy=AllReduceFuse)
    return sched


class TestFusedCollectiveGathers:
    def test_each_extra_gather_is_priced(self):
        from repro.workloads.adam import AdamWorkload

        wl = AdamWorkload.build(2**22, 2)
        pcm = ProgramCostModel(Cluster(1))
        prices = []
        for gathered in (["p"], ["p", "m"], ["p", "m", "v"]):
            sched = _fused_optimizer(wl, gathered)
            (fused,) = [
                k for k in sched.plan().kernels
                if k.kind.value == "fused_collective"
            ]
            assert sum(
                isinstance(e, AllGather) for e in fused.exprs
            ) == len(gathered)
            prices.append(pcm.kernel_breakdown(sched)[fused.name])
        assert prices[0] < prices[1] < prices[2]
        # one gather rides the RS..AG ring: the price before extra
        # gathers were charged, and the named schedule's
        assert prices[0] == pytest.approx(7.819300392156862e-05, rel=1e-12)
        assert pcm.time(wl.schedule_fused()) == pytest.approx(
            prices[0], rel=1e-12
        )
