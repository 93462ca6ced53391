"""Fault injection, graceful degradation, and elastic recovery.

Three layers of coverage over :mod:`repro.runtime.faults`:

* the plan itself — immutable, picklable, seeded, and deterministic
  (the same ``FaultPlan.scenario(seed)`` must reproduce the same
  failure forever);
* the degraded backend — stragglers and stalled publishes survive
  bit-identically via soft-retry escalation, dead ranks tear the run
  down with a structured ``SpmdWorkerError`` (no segment fd left
  open, producer threads joined, peers aborting rather than
  timing out);
* elastic recovery — ``run_spmd(elastic=True)`` re-lowers for the
  surviving world size and its outputs are bit-identical to running
  the re-lowered program directly.

Plus the prediction side: DES ``Engine(slowdown=...)`` straggler
factors (heap ≡ reference under slowdowns) and degraded cluster links.
"""

import os
import pickle
import signal
import sys
import time

import numpy as np
import pytest

from repro.cluster.links import IB_EDR, NVLINK_V100, Link
from repro.core import (
    FP32, RANK, AllReduce, Binary, Execute, MatMul, Replicated, Sliced,
    world,
)
from repro.core.codegen import CodeGenerator, native
from repro.core.tensor import Tensor
from repro.core.transforms import Schedule
from repro.errors import CoCoNetError
from repro.observe import Tracer
from repro.observe.events import InstantEvent
from repro.perf.engine import Engine, Task
from repro.runtime import Executor, FaultPlan, SpmdWorkerError, spmd
from repro.runtime.faults import Die, DropChunk, SlowRank, StallPublish
from repro.runtime.rank import DEFAULT_TIMEOUT
from repro.runtime.spmd import build_layout, scaled_default_timeout
from repro.workloads.adam import AdamWorkload
from repro.workloads.moe import MoEWorkload
from tests.des_oracle import ReferenceEngine
from tests.spmd_leaks import (
    children, count_starts, spmd_segments, watch_sends,
)


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


def adam_relower(seed, N=56):
    """``relower`` rebuilding the op-level Adam and its inputs at any
    world size, the same inputs on every call."""
    def relower(ws):
        return AdamWorkload.build(N, ws).program, adam_inputs(
            np.random.RandomState(seed), ws, N
        )
    return relower


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
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_die_on_first_publish(self, rng):
        wl = AdamWorkload.build(56, 4)
        before = set(spmd_segments())
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
        assert set(spmd_segments()) == before

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_die_mid_chunked_publish_on_producer_stream(self, rng):
        """A rank killed inside publish_chunks — mid-overlap, on the
        producer stream thread — must not wedge survivors' consumer
        loops or leak their producer threads."""
        sched = overlap_schedule(4)
        before = set(spmd_segments())
        tracer = Tracer()
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                sched, overlap_inputs(rng), allow_downcast=True,
                fault_plan=FaultPlan().die(2, at_site="g", after=2),
                soft_timeout=0.5, timeout=20.0, tracer=tracer,
            )
        assert err.value.dead_ranks == [2]
        assert "timed out" not in str(err.value)
        assert set(spmd_segments()) == before
        instants = [
            e for e in tracer.events if isinstance(e, InstantEvent)
        ]
        # the dying rank's last ring record is the injected kill ...
        assert any(e.name == "die" and e.pid == "rank2" for e in instants)
        # ... and no survivor left its producer thread unjoined
        assert not any(e.name == "stream-leak" for e in instants)

    @pytest.mark.skipif(
        sys.platform != "linux" or not native.available(),
        reason="/proc/self/fd is Linux-only; needs a C compiler",
    )
    def test_die_at_the_pointer_plane_alltoall(self, tmp_path, monkeypatch):
        """Rank 1 of the native MoE, whose ranks run the pointer plane,
        dies publishing its dispatch AllToAll (the second operation on
        its group's site, after the timing barrier): the survivor
        aborts, and no segment or rank process is left."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        wl = MoEWorkload.build(32, 32, 64, 2, dtype=FP32)
        sched = wl.schedule_overlapped()
        assert CodeGenerator(target="native").generate(sched).plane == (
            "pointer"
        )
        inputs = moe_inputs(np.random.RandomState(0), 2, 32, 32, 64)
        before = set(spmd_segments())
        tracer = Tracer()
        t0 = time.monotonic()
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                sched, inputs, allow_downcast=True,
                codegen_target="native",
                fault_plan=FaultPlan(seed=1).die(1, at_site="g0x2", after=2),
                soft_timeout=0.5, timeout=20.0, tracer=tracer,
            )
        assert time.monotonic() - t0 < 20.0
        assert err.value.dead_ranks == [1]
        assert "timed out" not in str(err.value)
        (die,) = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.name == "die"
        ]
        assert (die.pid, die.args) == ("rank1", {"seq": 2, "site": "g0x2"})
        assert children() == []
        assert set(spmd_segments()) == before

    @staticmethod
    def _die_on_the_pointer_plane(sched, inputs, at_site, after):
        """Run ``sched``'s native module, a pointer module, with rank 1
        dying at its ``after``-th publish on ``at_site``; returns the
        injected death's trace instant. The survivors abort without
        timing out, join their producer streams, and leave no segment
        or rank process behind."""
        assert CodeGenerator(target="native").generate(sched).plane == (
            "pointer"
        )
        before, kids = set(spmd_segments()), set(children())
        tracer = Tracer()
        t0 = time.monotonic()
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                sched, inputs, allow_downcast=True, codegen_target="native",
                fault_plan=FaultPlan(seed=1).die(
                    1, at_site=at_site, after=after
                ),
                soft_timeout=0.5, timeout=20.0, tracer=tracer,
            )
        assert time.monotonic() - t0 < 20.0
        assert err.value.dead_ranks == [1]
        assert "timed out" not in str(err.value)
        instants = [
            e for e in tracer.events if isinstance(e, InstantEvent)
        ]
        assert not any(e.name == "stream-leak" for e in instants)
        assert set(children()) == kids
        assert set(spmd_segments()) == before
        (die,) = [e for e in instants if e.name == "die"]
        assert die.pid == "rank1"
        return die

    @pytest.mark.skipif(
        sys.platform != "linux" or not native.available(),
        reason="/proc/self/fd is Linux-only; needs a C compiler",
    )
    def test_die_at_the_pointer_plane_send(self, tmp_path, monkeypatch):
        """Rank 1 of the native pipeline (two groups of two ranks)
        dies publishing its P2P send to rank 3, which is waiting to
        receive it."""
        from repro.cli import _seeded_inputs
        from repro.workloads.pipeline import PipelineWorkload

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        sched = PipelineWorkload.build(2, 4, 16, 4).schedule_megatron()
        die = self._die_on_the_pointer_plane(
            sched, _seeded_inputs(sched.program, seed=0), "p1>3", 1
        )
        assert die.args == {"seq": 1, "site": "p1>3"}

    @pytest.mark.skipif(
        sys.platform != "linux" or not native.available(),
        reason="/proc/self/fd is Linux-only; needs a C compiler",
    )
    def test_die_in_the_pointer_plane_ring_overlap(
        self, tmp_path, monkeypatch
    ):
        """Rank 1 of attention's CoCoNet schedule dies on its producer
        stream, publishing the second chunk of the GEMM's output to the
        ring ReduceScatter (its third publish on the group's site, after
        the timing barrier and the first chunk); rank 0's consumer is
        folding the chunks as they arrive."""
        from repro.cli import _seeded_inputs
        from repro.workloads.attention import AttentionWorkload

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        sched = AttentionWorkload.build(2, 8, 64, 2).schedule_coconet()
        (loop,) = sched.lowered().chunk_loops()
        assert loop.ring
        die = self._die_on_the_pointer_plane(
            sched, _seeded_inputs(sched.program, seed=0), "g0x2", 3
        )
        # a chunked publication counts its chunks
        assert die.args == {"seq": 1, "site": "g0x2"}

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

    def test_adam_original_8_ranks(self):
        plan = FaultPlan(seed=11).die(3, at_site="g")
        relower = adam_relower(5)
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


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
class TestSurvivorReuse:
    """Recovery runs on the ranks that outlived the failed launch: a
    clean survivor takes the re-lowered spec, any other rank is
    replaced by a fresh one, and nothing outlives ``run_spmd``."""

    def test_adam_8_to_7_starts_no_process(self, monkeypatch):
        started = count_starts(monkeypatch)
        relower = adam_relower(15)
        before = set(spmd_segments())
        res = Executor().run_spmd(
            AdamWorkload.build(56, 8).program,
            adam_inputs(np.random.RandomState(15), 8),
            allow_downcast=True,
            fault_plan=FaultPlan(seed=11).die(3, at_site="g"),
            soft_timeout=0.5, timeout=30.0, elastic=True, relower=relower,
        )
        assert len(started) == 8  # the failed launch's ranks only
        assert res.elastic["world_size"] == 7
        assert res.elastic["reused_ranks"] == [0, 1, 2, 4, 5, 6, 7]
        assert res.elastic["spawned"] == 0
        assert children() == []
        assert set(spmd_segments()) == before
        sched7, inputs7 = relower(7)
        direct = Executor().run_spmd(
            sched7, inputs7, allow_downcast=True, timeout=30.0
        )
        assert_outputs_equal(res, direct)

    @pytest.mark.parametrize("leak_stream", [False, True])
    def test_moe_overlapped_any_survivor_mix(self, monkeypatch, leak_stream):
        """The MoE die scenario of ``test_moe_overlapped_8_ranks``:
        bit-identical however many survivors closed cleanly. With
        ``leak_stream``, rank 2 of the failed launch leaves a stream
        running, so it cannot be reused and a fresh rank takes its
        place."""
        from repro.core.codegen import CodeGenerator

        if leak_stream:
            generate = CodeGenerator.generate

            def leak_on_rank2(self, scheduled):
                gen = generate(self, scheduled)
                if gen.program.inputs[0].group.world_size == 8:
                    head = "def run_rank(comm, inputs):\n"
                    assert head in gen.source
                    gen.source = gen.source.replace(
                        head, head + "    if comm.rank == 2:\n"
                        "        import time\n"
                        "        comm.start_stream(lambda: time.sleep(5))\n",
                        1,
                    )
                return gen

            monkeypatch.setattr(CodeGenerator, "generate", leak_on_rank2)
        started = count_starts(monkeypatch)

        def relower(ws):
            wl = MoEWorkload.build(2, 4, 6, world_size=ws, dtype=FP32)
            return wl.schedule_overlapped(), moe_inputs(
                np.random.RandomState(8), ws
            )

        tracer = Tracer()
        res = Executor().run_spmd(
            MoEWorkload.build(
                2, 4, 6, world_size=8, dtype=FP32
            ).schedule_overlapped(),
            moe_inputs(np.random.RandomState(8), 8),
            allow_downcast=True,
            fault_plan=FaultPlan(seed=14).die(6, after=2),
            soft_timeout=0.5, timeout=30.0, tracer=tracer,
            elastic=True, relower=relower,
        )
        reused = res.elastic["reused_ranks"]
        assert res.elastic["world_size"] == 7
        assert 6 not in reused
        assert res.elastic["spawned"] == 7 - len(reused)
        assert len(started) == 8 + res.elastic["spawned"]
        if leak_stream:
            assert 2 not in reused and res.elastic["spawned"] >= 1
            assert any(
                e.name == "stream-leak" and e.pid == "rank2"
                for e in tracer.events
            )
        (instant,) = [
            e for e in tracer.events if e.name == "elastic-relower"
        ]
        assert instant.args["reused_ranks"] == reused
        assert instant.args["spawned"] == res.elastic["spawned"]
        assert children() == []
        sched7, inputs7 = relower(7)
        oracle = Executor().run_lowered(
            sched7, inputs7, allow_downcast=True
        )
        assert_outputs_equal(res, oracle)

    def test_non_elastic_dead_rank_leaves_no_process(self, rng):
        before = set(spmd_segments())
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                AdamWorkload.build(56, 4).program, adam_inputs(rng, 4),
                allow_downcast=True,
                fault_plan=FaultPlan().die(1, at_site="g"),
                soft_timeout=0.5, timeout=20.0,
            )
        assert err.value.dead_ranks == [1]
        assert children() == []
        assert set(spmd_segments()) == before

    @pytest.mark.parametrize("when", ["in_relower", "after_its_spec"])
    def test_second_death_during_recovery(self, monkeypatch, when):
        """A survivor SIGKILLed while it waits (``relower`` kills it
        before returning), or right after its re-lowered spec went out:
        the run recovers bit-identically at a smaller world size or
        raises a classified error, within 10 s, leaving nothing."""
        started = count_starts(monkeypatch)
        relower_, killed = adam_relower(17), []

        def relower(ws):
            if when == "in_relower" and not killed:
                killed.append(children()[0])
                os.kill(killed[0], signal.SIGKILL)
            return relower_(ws)

        if when == "after_its_spec":
            send = spmd._send

            def send_then_kill(fd, obj):
                send(fd, obj)
                if (
                    isinstance(obj, dict) and obj["layout"].nranks == 3
                    and obj["rank"] == 1 and not killed
                ):
                    # recovery rank 1 is rank 2 of the failed launch
                    killed.append(started[2].pid)
                    started[2].send_signal(signal.SIGKILL)
                    started[2].wait(timeout=10.0)

            monkeypatch.setattr(spmd, "_send", send_then_kill)
        before = set(spmd_segments())
        t0 = time.monotonic()
        try:
            res = Executor().run_spmd(
                AdamWorkload.build(56, 4).program,
                adam_inputs(np.random.RandomState(17), 4),
                allow_downcast=True,
                fault_plan=FaultPlan(seed=2).die(1, at_site="g"),
                soft_timeout=0.5, timeout=20.0,
                elastic=True, relower=relower,
            )
        except SpmdWorkerError as exc:
            assert when == "in_relower", exc
            assert exc.dead_ranks and "died" in str(exc)
        else:
            ws = res.elastic["world_size"]
            assert ws in (3, 2)
            if when == "after_its_spec":
                assert res.elastic["attempted"] == [3, 2]
                assert res.elastic["reused_ranks"] == [0, 3]
                assert res.elastic["spawned"] == 0
            sched, inputs = relower_(ws)
            oracle = Executor().run_lowered(
                sched, inputs, allow_downcast=True
            )
            assert_outputs_equal(res, oracle)
        assert time.monotonic() - t0 < 10.0
        assert len(killed) == 1
        assert children() == []
        assert set(spmd_segments()) == before


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

    @staticmethod
    def _ring(capacity=8):
        from repro.observe.ring import TraceRing

        return TraceRing(
            bytearray(TraceRing.nbytes(capacity)), capacity=capacity
        )

    def test_statuses_are_tagged_and_metered(self):
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.ring import (
            KIND_FAULT, KIND_PUBLISH, merge_rank_traces,
        )

        # rank0: healthy ring with a publish span and a fault instant
        healthy = self._ring()
        healthy.append(KIND_PUBLISH, 1000, 500, nbytes=64, site="g0x4")
        healthy.append(KIND_FAULT, 1600, 0, site="g0x4", name="die")
        # rank1: never written
        empty = self._ring()
        # rank2: wrapped — capacity 4, six appends
        wrapped = self._ring(capacity=4)
        for i in range(6):
            wrapped.append(KIND_PUBLISH, 1000 + i, 10, site="g0x4")

        metrics = MetricsRegistry()
        events = merge_rank_traces(
            [healthy, empty, wrapped], metrics=metrics
        )
        instants = {
            (e.pid, e.name) for e in events if isinstance(e, InstantEvent)
        }
        assert ("rank0", "die") in instants
        assert ("rank1", "ring-empty") in instants
        assert ("rank2", "ring-truncated") in instants
        assert metrics.get("spmd.rank1.ring_empty") == 1
        assert metrics.get("spmd.rank2.ring_truncated") == 1
        assert metrics.get("spmd.events_dropped") == 2
        # the healthy and truncated ranks still contribute their spans
        assert metrics.get("spmd.rank0.bytes_published") == 64
        assert metrics.get("spmd.rank2.events") == 4

    def test_dead_rank_marker_lies_where_it_died(self, monkeypatch):
        """A dead rank's ``die`` record, harvested from the flags
        segment, lies between the first spec send and the failure."""
        tracer = Tracer()
        sent = []
        watch_sends(monkeypatch, lambda: sent.append(tracer.now()))
        with pytest.raises(SpmdWorkerError) as err:
            Executor().run_spmd(
                AdamWorkload.build(56, 4).program,
                adam_inputs(np.random.RandomState(3), 4),
                allow_downcast=True, tracer=tracer, timeout=30.0,
                fault_plan=FaultPlan(seed=11).die(2, at_site="g"),
            )
        raised = tracer.now()
        assert err.value.dead_ranks == [2]
        (die,) = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.name == "die"
        ]
        assert die.pid == "rank2"
        assert sent[0] <= die.ts <= raised

    def test_fault_instants_land_on_the_faults_track(self):
        from repro.observe.ring import KIND_STALL, merge_rank_traces

        ring = self._ring()
        ring.append(KIND_STALL, 2000, 0, seq=3, site="g0x4",
                    name="soft-retry")
        events = merge_rank_traces([ring])
        (ev,) = [e for e in events if isinstance(e, InstantEvent)]
        assert ev.tid == "faults"
        assert ev.cat == "stall"
        assert ev.args["seq"] == 3
