"""The real-process SPMD backend against the lowered-interpreter oracle.

Differential harness: ``Executor.run_spmd`` — one OS process per rank,
shared-memory collectives — must be *bit-identical* (``np.array_equal``
on outputs and tensor states) to ``Executor.run_lowered`` across every
workload's original / named / autotuned schedules at real rank counts
(4 and 8), and across op-level programs at 2–4 ranks. Plus the
exception-safety regression: a kernel failing on one rank must tear the
whole run down without leaking shared-memory segments or deadlocking
peers.
"""

import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import connection as mp_connection

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import FP32
from repro.core import Replicated as Replicated_
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator, GeneratedSpmdProgram
from repro.core.tensor import Tensor
from repro.core.transforms import Schedule
from repro.errors import CodegenError, ExecutionError
from repro.runtime import Executor
from repro.runtime import spmd
from repro.runtime.spmd import SpmdWorkerError, build_layout, launch
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload
from tests import test_codegen_extra as extra
from tests.test_alltoall import exchange_schedules
from tests.test_two_layer import fused_mlp_program

#: op-level programs beyond the named workload schedules: functions
#: returning (program or schedule, input shapes), plus launch kwargs —
#: every collective kind, Conv2D, mixed precision, cross-rank norms,
#: AR-form and AllToAll fusion, hierarchical exchange
OP_LEVEL_PROGRAMS = [
    pytest.param(extra.reduce_broadcast_program, {}, id="reduce_broadcast"),
    pytest.param(extra.reducescatter_allgather_program, {}, id="rs_ag"),
    pytest.param(extra.max_allreduce_program, {}, id="max_allreduce"),
    pytest.param(extra.conv2d_program, {}, id="conv2d"),
    pytest.param(extra.cast_chain_program, {}, id="cast_chain"),
    pytest.param(extra.norm_reducetensor_program, {}, id="norm_reducetensor"),
    pytest.param(
        extra.cross_rank_norm_program, {}, id="cross_rank_norm_fused"
    ),
    pytest.param(extra.allreduce_fuse_program, {}, id="allreduce_fuse"),
    pytest.param(
        fused_mlp_program, {"protocol": "LL128"}, id="two_layer_mlp_ll128"
    ),
] + [
    pytest.param(
        lambda name=name: (exchange_schedules()[name], {"x": (4, 8, 3)}),
        {},
        id=f"alltoall_{name}",
    )
    for name in ("library", "fused", "hierarchical")
]


@pytest.fixture
def rng():
    return np.random.RandomState(0x59D0)


def optimizer_inputs(rng, n=4, N=64):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def attention_inputs(rng, hidden=16, batch=4, seq=8):
    return {
        "w": rng.randn(hidden, hidden),
        "b": rng.randn(hidden),
        "in": rng.randn(batch, seq, hidden),
        "r": rng.randn(batch, seq, hidden),
    }


def assert_spmd_parity(sched, inputs, **spmd_kwargs):
    """run_spmd ≡ run_lowered, bit-for-bit, outputs and states."""
    program = sched.program if isinstance(sched, Schedule) else sched
    ex = Executor()
    low = ex.run_lowered(sched, inputs, allow_downcast=True)
    spmd = ex.run_spmd(sched, inputs, allow_downcast=True, **spmd_kwargs)
    for o in program.outputs:
        np.testing.assert_array_equal(
            spmd.output(o.name), low.output(o.name), err_msg=o.name
        )
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                spmd.tensor_state(t.name),
                low.tensor_state(t.name),
                err_msg=f"state {t.name}",
            )


class TestSpmdParity:
    """Every workload × original/named schedules, at ≥ 4 real ranks."""

    def test_adam_all_schedules(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_lamb_all_schedules(self, rng):
        wl = LambWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_attention_all_schedules(self, rng):
        # includes CoCoNet: the ring GEMM→fused-collective chunk loop
        # executes with a real producer stream thread per rank
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        inputs = attention_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_moe_all_schedules(self, rng):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)
        assert_spmd_parity(wl.schedule_hierarchical(node_size=2), inputs)

    def test_pipeline_all_schedules_at_8_ranks(self, rng):
        # 8 real processes, two stage groups, P2P sends between them
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=5
        )
        inputs = {
            "in": rng.randn(4, 2, 8, 16),
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_autotuned_schedules(self, rng):
        # the autotuner's winner plus a sample of enumerated candidates
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        inputs = attention_inputs(rng)
        assert_spmd_parity(result.best.schedule, inputs)
        others = [c for c in result.candidates if c is not result.best]
        for cand in others[:3]:
            assert_spmd_parity(cand.schedule, inputs)

    def test_wire_simulation_does_not_change_numerics(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        assert_spmd_parity(
            wl.schedule_coconet(), attention_inputs(rng),
            wire_s_per_mb=0.5,
        )

    @pytest.mark.parametrize("make_program, spmd_kwargs", OP_LEVEL_PROGRAMS)
    def test_op_level_programs(self, rng, make_program, spmd_kwargs):
        sched, shapes = make_program()
        inputs = {name: rng.randn(*shape) for name, shape in shapes.items()}
        assert_spmd_parity(sched, inputs, **spmd_kwargs)

    def test_ring_overlap_with_alltoall_consumer(self, rng):
        # regression: overlap(mm, a2a) lowers to a ring loop whose
        # consumer is NOT a reduction — the orchestrator must fall back
        # to whole-buffer publication instead of opening a chunk token
        # the AllToAll's pair-wise exchange would leave dangling
        # (which deadlocked the site's next sequence number)
        from repro.core import (
            RANK, AllToAll, Execute, Local, MatMul, world,
        )
        from repro.core.tensor import Tensor as T

        W = world(4)
        x = T(FP32, (8, 16), Local, W, RANK, name="x")
        w = T(FP32, (16, 16), Replicated_, W, name="w")
        mm = MatMul(x, w, name="mm")
        a2a = AllToAll(mm, dim=0, name="a2a")
        prog = Execute("mm_a2a", [x, w], [a2a])
        sched = Schedule(prog)
        sched.overlap(mm, a2a)
        loops = sched.lowered().chunk_loops()
        assert loops and loops[0].ring
        inputs = {"x": rng.randn(4, 8, 16), "w": rng.randn(16, 16)}
        assert_spmd_parity(sched, inputs, timeout=60.0)


class TestSpmdInterface:
    def test_nranks_must_match_program_world(self, rng):
        wl = AdamWorkload.build(64, 4)
        with pytest.raises(ExecutionError, match="built for 4 ranks"):
            Executor().run_spmd(
                wl.program, optimizer_inputs(rng), nranks=8,
                allow_downcast=True,
            )

    def test_generator_rejects_unknown_target(self):
        with pytest.raises(CodegenError, match="target"):
            CodeGenerator(target="cuda")

    def test_generated_spmd_program_metadata(self):
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(
            wl.schedule_fused()
        )
        assert isinstance(gen, GeneratedSpmdProgram)
        assert "run_rank(comm, inputs)" in gen.source
        assert gen.loc() > 0
        assert gen.kernel_sources  # one entry per kernel
        for name in gen.kernel_sources:
            assert gen.kernel_loc(name) > 0

    def test_layout_enumerates_groups_and_p2p_pairs(self):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32
        )
        layout = build_layout(wl.program)
        keys = set(layout.sites)
        assert any(k.startswith("g") for k in keys)
        # one p2p site per same-local-rank pair between the stage groups
        assert {f"p{r}>{r + 4}" for r in range(4)} <= keys

    def test_missing_and_unknown_inputs_rejected(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        del inputs["v"]
        with pytest.raises(ExecutionError, match="missing input 'v'"):
            Executor().run_spmd(wl.program, inputs, allow_downcast=True)
        inputs = optimizer_inputs(rng)
        inputs["bogus"] = np.zeros(3)
        with pytest.raises(ExecutionError, match="unknown inputs"):
            Executor().run_spmd(wl.program, inputs, allow_downcast=True)

    def test_place_per_rank_ships_writable_shards(self, rng):
        # a replicated tensor ships one writable copy that every rank's
        # shard shares; sliced and local tensors ship one copy per rank
        from repro.core import RANK, Binary, Execute, Local, Sliced, world

        W = world(4)
        rep = Tensor(FP32, (8,), Replicated_, W, name="rep")
        sl = Tensor(FP32, (8, 3), Sliced(0), W, RANK, name="sl")
        loc = Tensor(FP32, (8,), Local, W, RANK, name="loc")
        prog = Execute(
            "p", [rep, sl, loc],
            [
                Binary("+", loc, rep, name="o1"),
                Binary("*", sl, 2.0, name="o2"),
            ],
        )
        inputs = {
            "rep": rng.randn(8).astype(np.float32),
            "sl": rng.randn(8, 3),
            "loc": rng.randn(4, 8),
        }
        shards = spmd._place_per_rank(prog, inputs, allow_downcast=True)
        assert len(shards) == 4
        for r, shard in enumerate(shards):
            assert all(a.flags.writeable for a in shard.values())
            assert shard["sl"].flags.owndata and shard["loc"].flags.owndata
            np.testing.assert_array_equal(shard["rep"], inputs["rep"])
            np.testing.assert_array_equal(
                shard["sl"], inputs["sl"][2 * r:2 * r + 2].astype(np.float32)
            )
            np.testing.assert_array_equal(
                shard["loc"], inputs["loc"][r].astype(np.float32)
            )
        assert not np.shares_memory(shards[0]["rep"], inputs["rep"])
        assert all(
            np.shares_memory(shards[0]["rep"], s["rep"]) for s in shards[1:]
        )


def _shm_spmd_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("spmd_")]


class TestSpmdTeardown:
    """A rank failing mid-collective must not leak segments or hang."""

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_failing_kernel_on_rank_1_tears_down_cleanly(self, rng):
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        # inject a fault: rank 1 dies inside the collective kernel,
        # while ranks 0/2/3 are already blocked in the rendezvous
        source = gen.source.replace(
            '"""collective kernel: avg"""',
            '"""collective kernel: avg"""\n'
            "    if comm.rank == 1:\n"
            "        raise RuntimeError('injected kernel fault')",
            1,
        )
        assert "injected kernel fault" in source
        before = set(_shm_spmd_segments())
        with pytest.raises(ExecutionError, match="rank 1") as err:
            launch(
                source, gen.program, optimizer_inputs(rng),
                allow_downcast=True, timeout=30.0,
            )
        assert "injected kernel fault" in str(err.value)
        # every shared-memory segment created by the run was unlinked
        assert set(_shm_spmd_segments()) == before

    def test_successful_run_leaves_no_segments(self, rng):
        wl = AdamWorkload.build(64, 4)
        before = set(_shm_spmd_segments())
        Executor().run_spmd(
            wl.program, optimizer_inputs(rng), allow_downcast=True
        )
        assert set(_shm_spmd_segments()) == before

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_rank_killed_before_reading_its_shard(self, rng, monkeypatch):
        # ranks start before any input ships; one killed in that window
        # is a dead rank, found within the deadline, and leaks nothing
        ship = spmd._ship_inputs

        def kill_rank1_then_ship(conns, payloads, errors):
            victim = next(
                p for p in multiprocessing.active_children()
                if p.name == "spmd-rank1"
            )
            os.kill(victim.pid, signal.SIGKILL)
            mp_connection.wait([victim.sentinel], timeout=30.0)
            return ship(conns, payloads, errors)

        monkeypatch.setattr(spmd, "_ship_inputs", kill_rank1_then_ship)
        wl = AdamWorkload.build(64, 2)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        before = set(_shm_spmd_segments())
        timeout = 20.0
        t0 = time.monotonic()
        with pytest.raises(SpmdWorkerError, match="rank 1 died") as err:
            launch(
                gen.source, gen.program, optimizer_inputs(rng, n=2),
                allow_downcast=True, timeout=timeout,
            )
        assert time.monotonic() - t0 < timeout
        assert err.value.dead_ranks == [1]
        assert set(_shm_spmd_segments()) == before


class _Proc:
    """A rank process as the launch loop sees it: alive or not.

    With ``report``, it sends that report over ``conn`` and exits at
    the moment its liveness is sampled.
    """

    def __init__(self, alive: bool, conn=None, report=None) -> None:
        self.alive, self.conn, self.report = alive, conn, report

    def is_alive(self) -> bool:
        if self.report is not None:
            spmd._send_message(self.conn, self.report)
            self.alive, self.report = False, None
        return self.alive


class TestLaunchLoop:
    """How the launch loop reads one rank's state."""

    OK = ("ok", {"out": np.arange(3.0)}, {}, 0.0)

    def _check(self, got) -> None:
        assert got[0] == "ok"
        np.testing.assert_array_equal(got[1]["out"], self.OK[1]["out"])
        assert got[1]["out"].flags.writeable

    def test_report_then_exit_is_not_a_death(self):
        # regression: polling the pipe before sampling liveness misread
        # a rank that reported "ok" and exited in between as one that
        # died without reporting
        parent, child = multiprocessing.Pipe()
        self._check(
            spmd._rank_report(parent, _Proc(True, child, self.OK))
        )

    def test_running_reporting_and_dead_ranks(self):
        parent, child = multiprocessing.Pipe()
        assert spmd._rank_report(parent, _Proc(True)) is None
        spmd._send_message(child, self.OK)
        self._check(spmd._rank_report(parent, _Proc(True)))
        spmd._send_message(child, self.OK)
        self._check(spmd._rank_report(parent, _Proc(False)))
        assert spmd._rank_report(parent, _Proc(False)) is spmd._DIED
        # a closed pipe polls readable, then yields no message
        child.close()
        assert spmd._rank_report(parent, _Proc(False)) is spmd._DIED
