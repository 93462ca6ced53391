"""Fault injection, graceful degradation, and elastic recovery.

Three layers of coverage over :mod:`repro.runtime.faults`:

* the plan itself — immutable, picklable, seeded, and deterministic
  (the same ``FaultPlan.scenario(seed)`` must reproduce the same
  failure forever);
* the degraded backend — stragglers and stalled publishes survive
  bit-identically via soft-retry escalation, dead ranks tear the run
  down with a structured ``SpmdWorkerError`` (no leaked ``/dev/shm``
  segments, producer threads joined, peers aborting rather than
  timing out);
* elastic recovery — ``run_spmd(elastic=True)`` re-lowers for the
  surviving world size and its outputs are bit-identical to running
  the re-lowered program directly.

Plus the prediction side: DES ``Engine(slowdown=...)`` straggler
factors (heap ≡ reference under slowdowns) and degraded cluster links.
"""

import os
import pickle
import sys

import numpy as np
import pytest

from repro.cluster.links import IB_EDR, NVLINK_V100, Link
from repro.core import (
    FP32, RANK, AllReduce, Binary, Execute, MatMul, Replicated, Sliced,
    world,
)
from repro.core.tensor import Tensor
from repro.core.transforms import Schedule
from repro.errors import CoCoNetError
from repro.observe import Tracer
from repro.observe.events import InstantEvent
from repro.perf.engine import Engine, Task
from repro.runtime import Executor, FaultPlan, SpmdWorkerError
from repro.runtime.faults import Die, DropChunk, SlowRank, StallPublish
from repro.runtime.spmd import (
    DEFAULT_TIMEOUT,
    build_layout,
    scaled_default_timeout,
)
from repro.workloads.adam import AdamWorkload
from repro.workloads.moe import MoEWorkload
from tests.des_oracle import ReferenceEngine


@pytest.fixture
def rng():
    return np.random.RandomState(0xFA17)


def adam_inputs(rng, n, N=56):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def moe_inputs(rng, ws, capacity=2, model_dim=4, ffn_dim=6):
    return {
        "x": rng.randn(ws, ws, capacity, model_dim),
        "w1": rng.randn(ws, model_dim, ffn_dim),
        "w2": rng.randn(ws, ffn_dim, model_dim),
    }


def overlap_schedule(num_ranks, batch=4, seq=8, hidden=64):
    """The bench_spmd mm→AllReduce chunked-overlap pipeline."""
    W = world(num_ranks)
    w = Tensor(FP32, (hidden, hidden), Sliced(0), W, RANK, name="w")
    x = Tensor(FP32, (batch, seq, hidden), Sliced(2), W, RANK, name="x")
    b = Tensor(FP32, (hidden,), Replicated, W, name="b")
    mm = MatMul(x, w, name="mm")
    ar = AllReduce("+", mm, name="ar")
    out = Binary("+", ar, b, name="out")
    prog = Execute("overlap_faults", [w, x, b], [out])
    sched = Schedule(prog)
    sched.overlap(mm, ar)
    return sched


def overlap_inputs(rng, batch=4, seq=8, hidden=64):
    return {
        "w": rng.randn(hidden, hidden),
        "x": rng.randn(batch, seq, hidden),
        "b": rng.randn(hidden),
    }


def _shm_spmd_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("spmd_")]


def assert_outputs_equal(a, b):
    """Every program output of two runs, bit-for-bit."""
    assert sorted(a._outputs) == sorted(b._outputs)
    for name in a._outputs:
        np.testing.assert_array_equal(
            a.output(name), b.output(name), err_msg=name
        )


class TestFaultPlan:
    """The plan is immutable data: builders, queries, determinism."""

    def test_builders_compose_and_do_not_mutate(self):
        base = FaultPlan(seed=7)
        plan = base.slow_rank(2, 3.0).die(5, at_site="g").stall_publish(
            "g0x4", 0.01
        ).drop_chunk("g", 1, rank=0)
        assert base.events == ()
        kinds = [type(e) for e in plan.events]
        assert kinds == [SlowRank, Die, StallPublish, DropChunk]
        assert plan.seed == 7

    def test_builder_validation(self):
        with pytest.raises(ValueError, match="factor"):
            FaultPlan().slow_rank(0, 0.5)
        with pytest.raises(ValueError, match="after"):
            FaultPlan().die(0, after=0)
        with pytest.raises(ValueError, match="delay"):
            FaultPlan().stall_publish("g", -1.0)

    def test_dead_ranks_and_without_deaths(self):
        plan = (
            FaultPlan().die(3).slow_rank(1, 2.0).die(0, after=2).die(3)
        )
        assert plan.dead_ranks() == (3, 0)
        survivors = plan.without_deaths()
        assert survivors.dead_ranks() == ()
        assert [type(e) for e in survivors.events] == [SlowRank]

    def test_resource_slowdowns_mapping(self):
        plan = FaultPlan().slow_rank(3, 2.5).slow_rank(1, 1.5)
        slow = plan.resource_slowdowns()
        assert slow["gpu:3"] == 2.5
        assert slow["gpu:1"] == 1.5
        # collectives run at the slowest member's pace
        assert slow["fabric:"] == 2.5
        assert slow["ib:"] == 2.5
        assert FaultPlan().die(2).resource_slowdowns() == {}

    def test_for_rank_is_none_when_inert(self):
        plan = FaultPlan().slow_rank(1, 2.0).die(2, at_site="g")
        assert plan.for_rank(0) is None
        assert plan.for_rank(1).wire_factor == 2.0
        assert plan.for_rank(2).armed()

    def test_rank_view_counters(self):
        plan = FaultPlan().die(0, at_site="g", after=2).drop_chunk("g", 1)
        view = plan.for_rank(0)
        assert not view.should_die("g0x4")   # first matching publish
        assert not view.should_die("p0>1")   # p2p does not match "g"
        assert view.should_die("g0x4")       # second one lands
        assert view.drop("g0x4", 1) is not None
        assert view.drop("g0x4", 1) is None  # consumed once

    def test_publish_delay_sums_matching_stalls(self):
        plan = (
            FaultPlan()
            .stall_publish("g", 0.01)
            .stall_publish("g0x4", 0.02, seq=1)
        )
        view = plan.for_rank(0)
        assert view.publish_delay("g0x4", 1) == pytest.approx(0.03)
        assert view.publish_delay("g0x4", 0) == pytest.approx(0.01)
        assert view.publish_delay("p0>1", 1) == 0.0

    def test_plans_pickle_roundtrip(self):
        plan = FaultPlan(seed=3).slow_rank(1, 2.0).die(2).drop_chunk("g", 0)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_scenario_is_deterministic_and_cycles_kinds(self):
        for seed in range(8):
            a = FaultPlan.scenario(seed, 8)
            b = FaultPlan.scenario(seed, 8)
            assert a == b
            assert a.seed == seed
            assert len(a.events) == 1
        kinds = [type(FaultPlan.scenario(s, 8).events[0]) for s in range(4)]
        assert kinds == [SlowRank, StallPublish, DropChunk, Die]
        for seed in range(8):
            for e in FaultPlan.scenario(seed, 4).events:
                assert 0 <= e.rank < 4

    def test_describe_mentions_every_event(self):
        plan = FaultPlan(seed=9).slow_rank(2, 3.0).die(1, at_site="g")
        text = plan.describe()
        assert "seed=9" in text
        assert "slow_rank" in text and "die" in text
        assert "no faults" in FaultPlan().describe()


class TestScaledTimeout:
    def test_zero_wire_is_flat_default(self):
        wl = AdamWorkload.build(64, 4)
        layout = build_layout(wl.program)
        assert scaled_default_timeout(layout, 0.0) == DEFAULT_TIMEOUT

    def test_grows_with_wire_cost(self):
        wl = AdamWorkload.build(64, 4)
        layout = build_layout(wl.program)
        slow = scaled_default_timeout(layout, 0.5)
        slower = scaled_default_timeout(layout, 1.0)
        assert DEFAULT_TIMEOUT < slow < slower


class TestDegradedRuns:
    """Stalls, stragglers, and dropped chunks survive bit-identically."""

    def test_stall_publish_survives_via_soft_retries(self, rng):
        wl = AdamWorkload.build(56, 4)
        inputs = adam_inputs(rng, 4)
        ex = Executor()
        oracle = ex.run_lowered(wl.schedule_fused(), inputs,
                                allow_downcast=True)
        tracer = Tracer()
        res = ex.run_spmd(
            wl.schedule_fused(), inputs, allow_downcast=True,
            fault_plan=FaultPlan(seed=1).stall_publish("g", 0.05, rank=0),
            soft_timeout=0.005, timeout=30.0, tracer=tracer,
        )
        assert_outputs_equal(res, oracle)
        stalls = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.cat == "stall"
        ]
        assert stalls, "peers should have recorded soft-retry escalations"
        armed = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.name.startswith("armed:")
        ]
        assert armed, "the injecting rank should record its armed plan"

    def test_straggler_survives_bit_identical(self, rng):
        wl = AdamWorkload.build(56, 4)
        inputs = adam_inputs(rng, 4)
        ex = Executor()
        oracle = ex.run_lowered(wl.program, inputs, allow_downcast=True)
        res = ex.run_spmd(
            wl.program, inputs, allow_downcast=True,
            fault_plan=FaultPlan().slow_rank(2, 3.0),
            wire_s_per_mb=0.05, timeout=30.0,
        )
        assert_outputs_equal(res, oracle)

    def test_drop_chunk_redelivers_on_overlap_pipeline(self, rng):
        sched = overlap_schedule(4)
        inputs = overlap_inputs(rng)
        ex = Executor()
        oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
        tracer = Tracer()
        res = ex.run_spmd(
            sched, inputs, allow_downcast=True,
            fault_plan=FaultPlan().drop_chunk("g", 1, rank=0,
                                              redeliver=0.05),
            soft_timeout=0.01, timeout=30.0, tracer=tracer,
        )
        assert_outputs_equal(res, oracle)
        names = {
            e.name for e in tracer.events if isinstance(e, InstantEvent)
        }
        assert any(n.startswith("drop_chunk") for n in names)
        assert "redeliver" in names

    def test_hard_timeout_reports_soft_retry_escalation(self, rng):
        wl = AdamWorkload.build(56, 4)
        inputs = adam_inputs(rng, 4)
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                wl.program, inputs, allow_downcast=True,
                fault_plan=FaultPlan().stall_publish("g", 3.0, rank=0),
                soft_timeout=0.1, timeout=0.8,
            )
        assert "soft retries" in str(err.value)
        assert err.value.dead_ranks == []


class TestDeadRanks:
    """Graceful degradation: clean teardown, structured errors."""

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_die_on_first_publish(self, rng):
        wl = AdamWorkload.build(56, 4)
        before = set(_shm_spmd_segments())
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                wl.program, adam_inputs(rng, 4), allow_downcast=True,
                fault_plan=FaultPlan().die(1, at_site="g"),
                soft_timeout=0.5, timeout=20.0,
            )
        assert err.value.dead_ranks == [1]
        assert "died" in str(err.value)
        # survivors abort on the peer flag, they do not time out
        assert "timed out" not in str(err.value)
        assert set(_shm_spmd_segments()) == before

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_die_mid_chunked_publish_on_producer_stream(self, rng):
        """A rank killed inside publish_chunks — mid-overlap, on the
        producer stream thread — must not wedge survivors' consumer
        loops or leak their producer threads."""
        sched = overlap_schedule(4)
        before = set(_shm_spmd_segments())
        tracer = Tracer()
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                sched, overlap_inputs(rng), allow_downcast=True,
                fault_plan=FaultPlan().die(2, at_site="g", after=2),
                soft_timeout=0.5, timeout=20.0, tracer=tracer,
            )
        assert err.value.dead_ranks == [2]
        assert "timed out" not in str(err.value)
        assert set(_shm_spmd_segments()) == before
        instants = [
            e for e in tracer.events if isinstance(e, InstantEvent)
        ]
        # the dying rank's last ring record is the injected kill ...
        assert any(e.name == "die" and e.pid == "rank2" for e in instants)
        # ... and no survivor left its producer thread unjoined
        assert not any(e.name == "stream-leak" for e in instants)

    def test_without_elastic_the_error_propagates(self, rng):
        wl = AdamWorkload.build(56, 4)
        with pytest.raises(SpmdWorkerError):
            Executor().run_spmd(
                wl.program, adam_inputs(rng, 4), allow_downcast=True,
                fault_plan=FaultPlan().die(0, at_site="g"),
                soft_timeout=0.5, timeout=20.0,
            )


class TestElasticRecovery:
    """die → re-lower for the survivors → bit-identical re-execution."""

    def _adam_relower(self, rng_seed, N=56):
        def relower(ws):
            wl = AdamWorkload.build(N, ws)
            return wl.program, adam_inputs(
                np.random.RandomState(rng_seed), ws, N
            )
        return relower

    def test_adam_original_8_ranks(self):
        plan = FaultPlan(seed=11).die(3, at_site="g")
        relower = self._adam_relower(5)
        res = Executor().run_spmd(
            AdamWorkload.build(56, 8).program,
            adam_inputs(np.random.RandomState(5), 8),
            allow_downcast=True, fault_plan=plan,
            soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )
        assert res.elastic["failed_ranks"] == [3]
        assert res.elastic["original_world"] == 8
        assert res.elastic["world_size"] == 7
        assert res.elastic["attempted"] == [7]
        assert res.elastic["recovery_seconds"] > 0
        assert "died" in res.elastic["cause"]
        # bit-identical to running the re-lowered program directly
        sched7, inputs7 = relower(7)
        direct = Executor().run_spmd(
            sched7, inputs7, allow_downcast=True, timeout=30.0
        )
        assert_outputs_equal(res, direct)

    def test_adam_fused_8_ranks(self):
        def relower(ws):
            wl = AdamWorkload.build(56, ws)
            return wl.schedule_fused(), adam_inputs(
                np.random.RandomState(6), ws
            )
        res = Executor().run_spmd(
            AdamWorkload.build(56, 8).schedule_fused(),
            adam_inputs(np.random.RandomState(6), 8),
            allow_downcast=True,
            fault_plan=FaultPlan(seed=12).die(5, at_site="g", after=1),
            soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )
        assert res.elastic["world_size"] == 7
        sched7, inputs7 = relower(7)
        oracle = Executor().run_lowered(
            sched7, inputs7, allow_downcast=True
        )
        assert_outputs_equal(res, oracle)

    def test_moe_original_8_ranks(self):
        def relower(ws):
            wl = MoEWorkload.build(2, 4, 6, world_size=ws, dtype=FP32)
            return wl.program, moe_inputs(np.random.RandomState(7), ws)
        res = Executor().run_spmd(
            MoEWorkload.build(2, 4, 6, world_size=8, dtype=FP32).program,
            moe_inputs(np.random.RandomState(7), 8),
            allow_downcast=True,
            fault_plan=FaultPlan(seed=13).die(2),
            soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )
        assert res.elastic["world_size"] == 7
        sched7, inputs7 = relower(7)
        oracle = Executor().run_lowered(
            sched7, inputs7, allow_downcast=True
        )
        assert_outputs_equal(res, oracle)

    def test_moe_overlapped_8_ranks(self):
        def relower(ws):
            wl = MoEWorkload.build(2, 4, 6, world_size=ws, dtype=FP32)
            return wl.schedule_overlapped(), moe_inputs(
                np.random.RandomState(8), ws
            )
        res = Executor().run_spmd(
            MoEWorkload.build(
                2, 4, 6, world_size=8, dtype=FP32
            ).schedule_overlapped(),
            moe_inputs(np.random.RandomState(8), 8),
            allow_downcast=True,
            fault_plan=FaultPlan(seed=14).die(6, after=2),
            soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )
        assert res.elastic["world_size"] == 7
        sched7, inputs7 = relower(7)
        oracle = Executor().run_lowered(
            sched7, inputs7, allow_downcast=True
        )
        assert_outputs_equal(res, oracle)

    def test_elastic_without_relower_explains_itself(self, rng):
        wl = AdamWorkload.build(56, 4)
        with pytest.raises(SpmdWorkerError, match="needs relower"):
            Executor().run_spmd(
                wl.program, adam_inputs(rng, 4), allow_downcast=True,
                fault_plan=FaultPlan().die(1, at_site="g"),
                soft_timeout=0.5, timeout=20.0, elastic=True,
            )

    def test_descent_skips_unbuildable_world_sizes(self):
        # the fused schedule's RS/AG split needs N divisible by the
        # world size: killing two of 8 ranks leaves 6 survivors, but
        # 56 % 6 != 0 and 56 % 5 != 0, so the descent must land on 4
        def relower(ws):
            wl = AdamWorkload.build(56, ws)
            return wl.schedule_fused(), adam_inputs(
                np.random.RandomState(9), ws
            )
        res = Executor().run_spmd(
            AdamWorkload.build(56, 8).schedule_fused(),
            adam_inputs(np.random.RandomState(9), 8),
            allow_downcast=True,
            fault_plan=FaultPlan().die(1, at_site="g").die(2, at_site="g"),
            soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )
        assert res.elastic["failed_ranks"] == [1, 2]
        assert res.elastic["attempted"] == [6, 5, 4]
        assert res.elastic["world_size"] == 4


class TestEngineSlowdown:
    """Straggler-aware prediction in the DES cost engine."""

    @staticmethod
    def _tasks(rng, n=40, resources=("gpu:0", "gpu:1", "gpu:2", "fabric:0")):
        tasks = []
        for i in range(n):
            deps = tuple(
                f"t{j}" for j in rng.choice(i, size=min(i, 2), replace=False)
            ) if i else ()
            tasks.append(Task(
                f"t{i}", resources[int(rng.randint(len(resources)))],
                float(rng.random_sample() + 0.1), deps,
            ))
        return tasks

    def test_exact_match_stretches_duration(self):
        t = [Task("a", "gpu:1", 2.0), Task("b", "gpu:2", 2.0, ("a",))]
        tl = Engine(slowdown={"gpu:1": 3.0}).run(t)
        assert tl.end("a") == pytest.approx(6.0)
        assert tl.end("b") == pytest.approx(8.0)

    def test_family_match_and_no_bare_prefix(self):
        t = [Task("a", "gpu:1", 1.0), Task("b", "gpu:10", 1.0)]
        tl = Engine(slowdown={"gpu:": 2.0}).run(t)
        assert tl.end("a") == pytest.approx(2.0)
        assert tl.end("b") == pytest.approx(2.0)
        # a bare resource name matches exactly, never as a prefix
        tl = Engine(slowdown={"gpu:1": 2.0}).run(t)
        assert tl.end("a") == pytest.approx(2.0)
        assert tl.end("b") == pytest.approx(1.0)

    def test_factors_multiply(self):
        t = [Task("a", "gpu:1", 1.0)]
        tl = Engine(slowdown={"gpu:1": 2.0, "gpu:": 3.0}).run(t)
        assert tl.end("a") == pytest.approx(6.0)

    def test_invalid_factor_rejected(self):
        with pytest.raises(CoCoNetError, match="slowdown factor"):
            Engine(slowdown={"gpu:0": 0.0})

    def test_heap_and_reference_bit_identical_under_slowdown(self):
        rng = np.random.RandomState(0x51)
        slow = {"gpu:1": 2.5, "fabric:": 1.7}
        for _ in range(5):
            tasks = self._tasks(rng)
            fast = Engine(slowdown=slow).run(tasks)
            ref = ReferenceEngine(slowdown=slow).run(tasks)
            assert fast.spans == ref.spans
            assert fast.resources == ref.resources

    def test_fault_plan_feeds_the_engine(self):
        plan = FaultPlan().slow_rank(1, 2.0)
        tasks = [
            Task("k0", "gpu:0", 1.0),
            Task("k1", "gpu:1", 1.0),
            Task("ar", "fabric:0", 1.0, ("k0", "k1")),
        ]
        clean = Engine().run(tasks)
        faulty = Engine(slowdown=plan.resource_slowdowns()).run(tasks)
        assert faulty.makespan > clean.makespan
        assert faulty.end("k1") == pytest.approx(2.0)
        assert faulty.end("k0") == pytest.approx(1.0)


class TestDegradedLinks:
    def test_slowdown_reduces_effective_bandwidth(self):
        link = NVLINK_V100.degraded(2.0)
        assert link.effective_bandwidth == NVLINK_V100.bandwidth / 2.0
        assert link.bandwidth == NVLINK_V100.bandwidth  # nominal kept
        assert link.transfer_time(1 << 20) > NVLINK_V100.transfer_time(
            1 << 20
        )

    def test_degradation_composes(self):
        assert IB_EDR.degraded(2.0).degraded(3.0).slowdown == 6.0
        assert IB_EDR.contended(4).slowdown == 4.0

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            NVLINK_V100.degraded(0.5)
        with pytest.raises(ValueError, match="flow count"):
            NVLINK_V100.contended(0)
        with pytest.raises(ValueError, match="slowdown"):
            Link(name="bad", bandwidth=1e9, latency=1e-6, slowdown=0.1)


class TestRingTagging:
    """merge_rank_traces tags unhealthy rings instead of skipping them."""

    def test_statuses_are_tagged_and_metered(self, tmp_path):
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.ring import (
            KIND_FAULT, KIND_PUBLISH, TraceRing, merge_rank_traces,
        )

        # rank0: healthy ring with a publish span and a fault instant
        ring = TraceRing.create(str(tmp_path / "rank0.ring"))
        ring.append(KIND_PUBLISH, 1000, 500, nbytes=64, site="g0x4")
        ring.append(KIND_FAULT, 1600, 0, site="g0x4", name="die")
        ring.close()
        # rank1: valid but never written
        TraceRing.create(str(tmp_path / "rank1.ring")).close()
        # rank2: garbage bytes
        (tmp_path / "rank2.ring").write_bytes(b"not a ring at all")
        # rank3: wrapped — capacity 4, six appends
        ring = TraceRing.create(str(tmp_path / "rank3.ring"), capacity=4)
        for i in range(6):
            ring.append(KIND_PUBLISH, 1000 + i, 10, site="g0x4")
        ring.close()

        metrics = MetricsRegistry()
        events = merge_rank_traces(str(tmp_path), metrics=metrics)
        instants = {
            (e.pid, e.name) for e in events if isinstance(e, InstantEvent)
        }
        assert ("rank0", "die") in instants
        assert ("rank1", "ring-empty") in instants
        assert ("rank2", "ring-corrupt") in instants
        assert ("rank3", "ring-truncated") in instants
        assert metrics.get("spmd.rank1.ring_empty") == 1
        assert metrics.get("spmd.rank2.ring_corrupt") == 1
        assert metrics.get("spmd.rank3.ring_truncated") == 1
        assert metrics.get("spmd.events_dropped") == 2
        # the healthy and truncated ranks still contribute their spans
        assert metrics.get("spmd.rank0.bytes_published") == 64
        assert metrics.get("spmd.rank3.events") == 4

    def test_fault_instants_land_on_the_faults_track(self, tmp_path):
        from repro.observe.ring import (
            KIND_STALL, TraceRing, merge_rank_traces,
        )

        ring = TraceRing.create(str(tmp_path / "rank0.ring"))
        ring.append(KIND_STALL, 2000, 0, seq=3, site="g0x4",
                    name="soft-retry")
        ring.close()
        events = merge_rank_traces(str(tmp_path))
        (ev,) = [e for e in events if isinstance(e, InstantEvent)]
        assert ev.tid == "faults"
        assert ev.cat == "stall"
        assert ev.args["seq"] == 3
