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

import inspect
import mmap
import os
import select
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
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
from repro.runtime.rank import SpmdWorkerError
from repro.runtime.spmd import build_layout
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload
from tests import test_codegen_extra as extra
from tests.spmd_leaks import children, count_starts, spmd_segments
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
    pytest.param(fused_mlp_program, {}, id="two_layer_mlp"),
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


#: modules a rank process must not import: the launch machinery of
#: ``multiprocessing`` (and its re-import of the caller's ``__main__``),
#: the interpreter, the lowering and transformations, the code
#: generator and the kernel compiler, artifacts and offline tracing
RANK_NEVER_IMPORTS = {
    "multiprocessing",
    "__mp_main__",
    "repro.runtime.executor",
    "repro.core.lower",
    "repro.core.transforms",
    "repro.scattered",
    "repro.core.codegen.generator",
    "repro.core.codegen.native",
    "repro.core.artifact",
    "repro.observe.perfetto",
    "repro.observe.compare",
    "hashlib",
    "subprocess",
}


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

    def test_ring_overlap_with_reduce_consumer(self, rng):
        # regression: a non-root rank of overlap(mm, reduce) returns its
        # own chunked GEMM output, which the producer stream fills chunk
        # by chunk; with a slow wire the rows must still come back whole
        from repro.core import (
            RANK, Execute, Local, MatMul, Reduce, world,
        )
        from repro.core.tensor import Tensor as T

        W = world(4)
        x = T(FP32, (32, 16), Local, W, RANK, name="x")
        w = T(FP32, (16, 64), Replicated_, W, name="w")
        mm = MatMul(x, w, name="mm")
        red = Reduce("+", mm, root=1, name="red")
        prog = Execute("mm_red", [x, w], [red])
        sched = Schedule(prog)
        sched.overlap(mm, red)
        loops = sched.lowered().chunk_loops()
        assert loops and loops[0].ring
        inputs = {"x": rng.randn(4, 32, 16), "w": rng.randn(16, 64)}
        assert_spmd_parity(sched, inputs, wire_s_per_mb=5.0, timeout=60.0)


class TestSpmdInterface:
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

    @pytest.mark.parametrize("target, program", [
        pytest.param("spmd", "adam", id="spmd"),
        pytest.param("native", "adam", id="native"),
        pytest.param("spmd", "conv2d", id="conv2d"),
    ])
    def test_ranks_receive_the_parent_module(
        self, rng, target, program, monkeypatch, tmp_path
    ):
        # every rank gets the module text generated here and runs it as
        # is: once its kernels have run, no rank has loaded an artifact,
        # run the code generator or compiled, nor imported anything else
        # beyond the communicator and the device helpers (nor the fault
        # injector, with no plan sent; nor the executor, for a library
        # convolution); it skipped ``site`` and resolves modules on the
        # parent's path
        from repro.core.codegen import native

        if target == "native" and not native.available():
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        if program == "adam":
            sched = AdamWorkload.build(64, 2).schedule_fused()
            inputs = optimizer_inputs(rng, n=2)
        else:
            sched, shapes = extra.conv2d_program()
            inputs = {n: rng.randn(*shape) for n, shape in shapes.items()}
        gen = CodeGenerator(target=target).generate(sched)
        never = RANK_NEVER_IMPORTS | {"repro.runtime.faults"}
        parent_path = [p for p in sys.path if p]
        source = gen.source.replace(
            "    return outputs, states\n",
            "    import sys\n"
            f"    assert not set(sys.modules) & {never!r}\n"
            "    assert sys.flags.no_site\n"
            f"    assert not set({parent_path!r}) - set(sys.path)\n"
            "    return outputs, states\n",
            1,
        )
        assert source != gen.source
        gen.source = source
        sent = []
        send = spmd._send

        def record(fd, obj):
            sent.append(obj)
            send(fd, obj)

        monkeypatch.setattr(spmd, "_send", record)
        with spmd.RankPool() as pool:
            out = pool.launch(gen, inputs, allow_downcast=True)
        monkeypatch.setattr(spmd, "_send", send)
        assert [spec["rank"] for spec in sent] == [0, 1]
        for spec in sent:
            assert spec["source"].encode() == source.encode()
            if target == "native":
                k = native.load_kernels(gen.c_source)
                assert spec["kernels"] == (k.key, k.path, k.functions)
            else:
                assert spec["kernels"] is None
        oracle = Executor().run_lowered(sched, inputs, allow_downcast=True)
        for name in oracle.output_names:
            np.testing.assert_array_equal(
                out.output(name), oracle.output(name), err_msg=name
            )

    def test_layout_enumerates_groups_and_p2p_pairs(self):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32
        )
        layout = build_layout(wl.program)
        keys = set(layout.sites)
        assert any(k.startswith("g") for k in keys)
        # one p2p site per same-local-rank pair between the stage groups
        assert {f"p{r}>{r + 4}" for r in range(4)} <= keys

    def test_trace_rings_follow_the_flags(self):
        from repro.observe.ring import TraceRing

        layout = build_layout(AdamWorkload.build(64, 4).program)
        flags = layout.flags_length() * 8
        assert layout.flags_bytes() == flags == layout.ring_offset(0)
        assert [
            layout.ring_offset(r + 1) - layout.ring_offset(r)
            for r in range(4)
        ] == [TraceRing.nbytes()] * 4
        assert layout.flags_bytes(traced=True) == layout.ring_offset(4)
        assert all(layout.ring_offset(r) % 8 == 0 for r in range(4))

    def test_flags_segment_holds_rings_only_when_traced(self, rng):
        from repro.observe import Tracer

        program = AdamWorkload.build(64, 4).program
        layout = build_layout(program)
        gen = CodeGenerator(target="spmd").generate(program)
        tracer = Tracer()
        with spmd.RankPool() as pool:
            sizes, starts = [], []
            for observer in (tracer, None, tracer):
                starts.append((tracer.now(), len(tracer.events)))
                pool.launch(
                    gen, optimizer_inputs(rng), allow_downcast=True,
                    observer=observer,
                )
                sizes.append(os.fstat(pool.fds[1]).st_size)
        assert sizes == [
            layout.flags_bytes(True), layout.flags_bytes(),
            layout.flags_bytes(True),
        ]
        # the untraced launch merged nothing, and the zeroing emptied
        # the rings: the last launch merged no record of the first
        assert starts[1][1] == starts[2][1]
        started, first = starts[2]
        assert all(e.ts >= started for e in tracer.events[first:])

    def test_launch_starts_the_program_world(self, rng):
        with Executor() as ex:
            for n in (2, 3):
                ex.run_spmd(
                    AdamWorkload.build(48, n).program,
                    optimizer_inputs(rng, n=n, N=48),
                    allow_downcast=True,
                )
                assert len(ex._pool.origins) == n

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

    def test_rank_input_views_are_writable(self, rng):
        # every rank holding an input gets a private writable region:
        # a replicated tensor one copy per rank, sliced and local
        # tensors their own rows, each cast to the tensor dtype
        from repro.core import RANK, Binary, Execute, Local, Sliced, world
        from repro.runtime.world import place_inputs

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
        layout = build_layout(prog)
        fd = spmd._segment("test-data", layout.data_size)
        data = mmap.mmap(fd, layout.data_size)
        try:
            spmd._place_regions(
                layout, prog,
                place_inputs(prog, inputs, True, cast=False), data,
            )
            views = [
                {n: layout.view(data, ("in", n), r)
                 for n in ("rep", "sl", "loc")}
                for r in range(4)
            ]
            for r, shard in enumerate(views):
                assert all(a.flags.writeable for a in shard.values())
                assert all(a.dtype == np.float32 for a in shard.values())
                np.testing.assert_array_equal(shard["rep"], inputs["rep"])
                np.testing.assert_array_equal(
                    shard["sl"],
                    inputs["sl"][2 * r:2 * r + 2].astype(np.float32),
                )
                np.testing.assert_array_equal(
                    shard["loc"], inputs["loc"][r].astype(np.float32)
                )
            assert not any(
                np.shares_memory(views[0]["rep"], v["rep"])
                for v in views[1:]
            )
        finally:
            views = shard = None  # a view left alive makes close() raise
            data.close()
            os.close(fd)

        # and the ranks see them writable too
        gen = CodeGenerator(target="spmd").generate(prog)
        source = gen.source.replace(
            "def run_rank(comm, inputs):\n",
            "def run_rank(comm, inputs):\n"
            "    assert all(a.flags.writeable for a in inputs.values())\n",
            1,
        )
        assert source != gen.source
        gen.source = source
        with spmd.RankPool() as pool:
            out = pool.launch(gen, inputs, allow_downcast=True)
        np.testing.assert_array_equal(
            out.output("o2"), (inputs["sl"].astype(np.float32) * 2.0)
        )

    def test_results_already_in_their_regions_are_not_copied(
        self, monkeypatch
    ):
        wl = AdamWorkload.build(64, 2)
        layout = build_layout(wl.program)
        buf = bytearray(layout.data_size)

        def results():
            held = {"in": {}, "out": {}}
            for key, (_, _, _, writers) in layout.regions.items():
                if 0 in writers:
                    held[key[0]][key[1]] = layout.view(buf, key, 0)
            return held["out"], held["in"]

        copied = []
        monkeypatch.setattr(
            np, "copyto", lambda dst, src, **kw: copied.append(dst)
        )
        # ``p`` stands for a state updated in place, ``g`` for a Local
        # input never written: each is its region, in a new ndarray
        outputs, states = results()
        assert {"g", "p"} <= set(states)
        spmd._store_results(layout, buf, 0, outputs, states)
        assert not outputs and not states
        assert copied == []
        # a result held anywhere else is copied
        outputs, states = results()
        states["g"] = states["g"].copy()
        spmd._store_results(layout, buf, 0, outputs, states)
        assert len(copied) == 1
        region = layout.view(buf, ("in", "g"), 0)
        assert copied[0].ctypes.data == region.ctypes.data


class TestSpmdTeardown:
    """A rank failing mid-collective must not leak segments or hang."""

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
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
        gen.source = source
        before = set(spmd_segments())
        with spmd.RankPool() as pool:
            with pytest.raises(ExecutionError, match="rank 1") as err:
                pool.launch(
                    gen, optimizer_inputs(rng), allow_downcast=True,
                    timeout=30.0,
                )
        assert "injected kernel fault" in str(err.value)
        # every segment fd the run opened was closed with its pool
        assert set(spmd_segments()) == before

    def test_successful_run_leaves_no_segments(self, rng):
        wl = AdamWorkload.build(64, 4)
        before = set(spmd_segments())
        Executor().run_spmd(
            wl.program, optimizer_inputs(rng), allow_downcast=True
        )
        assert set(spmd_segments()) == before

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_rank_killed_before_reading_its_shard(self, rng, monkeypatch):
        # ranks start before the inputs are placed; one killed in that
        # window is a dead rank, found within the deadline, and leaks
        # nothing: no segment, no process
        place = spmd._place_regions
        started = count_starts(monkeypatch)

        def kill_rank1_then_place(*args):
            started[1].send_signal(signal.SIGKILL)
            started[1].wait(timeout=30.0)
            return place(*args)

        monkeypatch.setattr(spmd, "_place_regions", kill_rank1_then_place)
        wl = AdamWorkload.build(64, 2)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        before = set(spmd_segments())
        timeout = 20.0
        t0 = time.monotonic()
        with spmd.RankPool() as pool:
            with pytest.raises(SpmdWorkerError, match="rank 1 died") as err:
                pool.launch(
                    gen, optimizer_inputs(rng, n=2), allow_downcast=True,
                    timeout=timeout,
                )
            assert time.monotonic() - t0 < timeout
        assert err.value.dead_ranks == [1]
        assert f"exit code {-signal.SIGKILL}" in str(err.value)
        # the pool held rank 0, a clean survivor, until it closed
        assert set(spmd_segments()) == before
        assert [p.returncode for p in started][1] == -signal.SIGKILL
        assert all(p.returncode is not None for p in started)


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
class TestRankPool:
    """A pool keeps its two segments across launches, and releases them
    and its idle ranks on ``close()``, at the end of its ``with`` block
    and when it is collected."""

    @staticmethod
    def _program():
        from repro.cli import _seeded_inputs

        program = AdamWorkload.build(64, 2).program
        gen = CodeGenerator(target="spmd").generate(program)
        return gen, _seeded_inputs(program, seed=0)

    @classmethod
    def _fail(cls, pool):
        # rank 1 dies; rank 0 aborts cleanly and stays idle in the pool
        from repro.runtime.faults import FaultPlan

        gen, inputs = cls._program()
        pool.launch(
            gen, inputs, allow_downcast=True,
            fault_plan=FaultPlan(seed=1).die(1, at_site="g"),
            soft_timeout=0.5, timeout=20.0,
        )

    def test_two_launches_keep_two_segments(self):
        gen, inputs = self._program()
        before = set(spmd_segments())
        with spmd.RankPool() as pool:
            pool.launch(gen, inputs, allow_downcast=True)
            kept = set(spmd_segments()) - before
            assert sorted(link for _, link in kept) == [
                "/memfd:spmd-data (deleted)", "/memfd:spmd-flags (deleted)",
            ]
            pool.launch(gen, inputs, allow_downcast=True)
            assert set(spmd_segments()) - before == kept
        assert set(spmd_segments()) == before
        assert children() == []
        # a closed pool launches again, on new segments
        pool.launch(gen, inputs, allow_downcast=True)
        assert len(set(spmd_segments()) - before) == 2
        pool.close()
        assert set(spmd_segments()) == before

    def test_dropped_pool_leaves_nothing(self):
        import weakref

        before = set(spmd_segments())
        pool = spmd.RankPool()
        try:
            self._fail(pool)
        except SpmdWorkerError as exc:
            assert exc.dead_ranks == [1]
        assert len(pool.idle) == 1
        assert len(set(spmd_segments()) - before) == 2
        collected = weakref.ref(pool)
        del pool
        # no reference cycle holds it: the last reference released it
        assert collected() is None
        assert set(spmd_segments()) == before
        assert children() == []

    def test_launch_raising_in_with_leaves_nothing(self):
        before = set(spmd_segments())
        with pytest.raises(SpmdWorkerError, match="rank 1 died"):
            with spmd.RankPool() as pool:
                self._fail(pool)
        assert set(spmd_segments()) == before
        assert children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
class TestExecutorPool:
    """An ``Executor`` keeps its two segments between ``run_spmd``
    calls, and releases them on ``close()``, at the end of its ``with``
    block and when it is collected."""

    @staticmethod
    def _step(ex, n=64, ranks=2, **kwargs):
        from repro.cli import _seeded_inputs

        program = AdamWorkload.build(n, ranks).program
        return ex.run_spmd(
            program, _seeded_inputs(program, seed=0), allow_downcast=True,
            **kwargs,
        )

    def test_segments_are_kept_until_close(self):
        before = set(spmd_segments())
        with Executor() as ex:
            self._step(ex)
            kept = set(spmd_segments()) - before
            assert sorted(link for _, link in kept) == [
                "/memfd:spmd-data (deleted)", "/memfd:spmd-flags (deleted)",
            ]
            self._step(ex)
            assert set(spmd_segments()) - before == kept
            assert children() == []
        assert set(spmd_segments()) == before
        # a closed executor starts a new pool on its next call
        self._step(ex)
        assert len(set(spmd_segments()) - before) == 2
        ex.close()
        assert set(spmd_segments()) == before

    def test_collected_executor_leaves_nothing(self):
        import weakref

        before = set(spmd_segments())
        ex = Executor()
        self._step(ex)
        assert len(set(spmd_segments()) - before) == 2
        collected = weakref.ref(ex)
        del ex
        # no reference cycle holds it: the last reference released it
        assert collected() is None
        assert set(spmd_segments()) == before
        assert children() == []

    def test_segment_counts_per_launch(self):
        from repro.observe import Tracer

        def counts(n):
            tracer = Tracer()
            self._step(ex, n, tracer=tracer)
            return (
                tracer.metrics.get("spmd.segment_reuses"),
                tracer.metrics.get("spmd.segment_bytes_allocated"),
            )

        def data_size(n):
            return build_layout(AdamWorkload.build(n, 2).program).data_size

        small, large = data_size(64), data_size(4096)
        with Executor() as ex:
            assert counts(64) == (0, small)  # created
            assert counts(64) == (1, 0)  # same size: pages kept
            assert counts(4096) == (1, large - small)  # grown
            assert counts(64) == (1, 0)  # shrunk


class TestSpmdResults:
    """Results through the shared-memory regions, not pipes."""

    def test_sliced_update_of_replicated_target_at_4_ranks(self, rng):
        # each rank writes its slice of a replicated tensor in place:
        # ranks must not see one another's writes. Adam gathers the
        # updated slices back into p; the op-level program keeps the
        # sliced update as p's final state, so the state returned (rank
        # 0's copy) shows any other rank's write into shared storage
        from repro.core import RANK, Binary, Execute, Sliced, Update, world
        from repro.core.ops import Slice

        W = world(4)
        p = Tensor(FP32, (8,), Replicated_, W, name="p")
        g = Tensor(FP32, (8,), Sliced(0), W, RANK, name="g")
        prog = Execute(
            "upd", [p, g],
            [Update(p, Binary("+", g, Slice(p, 0)), name="p_")],
        )
        wl = AdamWorkload.build(64, 4)
        for sched, inputs in [
            (prog, {"p": rng.randn(8), "g": rng.randn(8)}),
            (wl.schedules()["RS-Adam-AG"], optimizer_inputs(rng)),
            (wl.schedules()["fuse(RS-Adam-AG)"], optimizer_inputs(rng)),
        ]:
            source = CodeGenerator(target="spmd").generate(sched).source
            assert "dev.slice_of(T['p'], 0, _i, 4, context='p')[...]" in source
            assert_spmd_parity(sched, inputs)

    @staticmethod
    def _check_owned(result, oracle, program) -> None:
        """Every output and state is writable, right, and ours to keep:
        mutating it after the launch unlinked its segment works."""
        arrays = [
            (result.output(o.name), oracle.output(o.name))
            for o in program.outputs
        ] + [
            (result.tensor_state(t.name), oracle.tensor_state(t.name))
            for t in program.inputs
            if isinstance(t, Tensor)
        ]
        assert len(arrays) > len(program.outputs)
        for arr, want in arrays:
            assert arr.flags.writeable
            np.testing.assert_array_equal(arr, want)
            arr.fill(7)
            assert (arr == 7).all()

    def test_results_outlive_the_segment(self, rng):
        sched = AdamWorkload.build(64, 2).schedule_fused()
        inputs = optimizer_inputs(rng, n=2)
        before = set(spmd_segments())
        res = Executor().run_spmd(sched, inputs, allow_downcast=True)
        assert set(spmd_segments()) == before
        oracle = Executor().run_lowered(sched, inputs, allow_downcast=True)
        self._check_owned(res, oracle, sched.program)

    def test_elastic_results_outlive_the_segment(self):
        from repro.runtime.faults import FaultPlan

        def relower(ws):
            return AdamWorkload.build(64, ws).program, optimizer_inputs(
                np.random.RandomState(3), n=ws
            )

        program, inputs = relower(2)
        before = set(spmd_segments())
        res = Executor().run_spmd(
            program, inputs, allow_downcast=True,
            fault_plan=FaultPlan(seed=1).die(1, at_site="g"),
            soft_timeout=0.5, timeout=20.0, elastic=True, relower=relower,
        )
        assert res.elastic["world_size"] == 1
        assert set(spmd_segments()) == before
        program1, inputs1 = relower(1)
        oracle = Executor().run_lowered(
            program1, inputs1, allow_downcast=True
        )
        self._check_owned(res, oracle, program1)


def _readable(sock) -> bool:
    return bool(select.select([sock], [], [], 0)[0])


class TestRankCore:
    """A rank's control plane, :mod:`repro.runtime.rank`, imports no
    numpy: a rank can read its spec, its flags and its trace ring
    without it."""

    #: receives ``(spec, key)``, attaches as the spec says, reads rank
    #: 1's ready flag at site ``key``, traces one record into its ring
    #: (``repro.observe.ring``, which the core imports) and reports
    #: ``(flag, clean close, numpy imported)``
    ENTRY = textwrap.dedent(
        """
        import sys
        from repro.runtime.rank import RankCore, _recv, _send
        fd = int(sys.argv[1])
        with open(fd, "rb", closefd=False) as stream:
            spec, key = _recv(stream)
        del spec["source"], spec["kernels"]
        core = RankCore.attach(**spec)
        flag = core._ready(key, 1)
        core.record_kernel_open("no-numpy", 0.5)
        _send(fd, (flag, core.close(), "numpy" in sys.modules))
        """
    )

    def test_a_rank_core_never_imports_numpy(self, rng, monkeypatch):
        from repro.observe import Tracer
        from repro.observe.ring import TraceRing
        from repro.runtime.rank import _send

        gen = CodeGenerator(target="spmd").generate(
            AdamWorkload.build(64, 4).program
        )
        sent = []

        def record(fd, obj):
            sent.append(obj)
            _send(fd, obj)

        monkeypatch.setattr(spmd, "_send", record)
        with spmd.RankPool() as pool:
            # numpy scalars from a caller must not reach the spec
            pool.launch(
                gen, optimizer_inputs(rng), allow_downcast=True,
                observer=Tracer(), timeout=np.float64(60.0),
                soft_timeout=np.float32(2.0), wire_s_per_mb=np.float64(0),
            )
        spec = sent[0]
        layout = spec["layout"]
        assert spec["traced"] and spec["rank"] == 0
        key = sorted(layout.sites)[-1]
        flags_size = layout.flags_bytes(traced=True)
        fds = [
            spmd._segment("test-data", layout.data_size),
            spmd._segment("test-flags", flags_size),
        ]
        try:
            os.pwrite(
                fds[1], (7).to_bytes(8, sys.byteorder),
                layout.ready_index(key, 1) * 8,
            )
            spec = dict(spec, data_fd=fds[0], flags_fd=fds[1])
            proc, sock = spmd._start(self.ENTRY, fds)
            with sock, sock.makefile("rb") as stream:
                _send(sock.fileno(), (spec, key))
                assert spmd._recv(stream) == (7, True, False)
            assert proc.wait(timeout=60.0) == 0
            with mmap.mmap(fds[1], flags_size) as flags:
                ring = TraceRing(flags, layout.ring_offset(0))
                assert [r["name"] for r in ring.records()] == [
                    b"hit:no-numpy"
                ]
        finally:
            for fd in fds:
                os.close(fd)


class TestLaunchLoop:
    """How the launch loop reads one rank's socket: a whole report, or
    EOF before one, which is a death."""

    OK = ("ok", 0.25)

    def test_report_then_exit_is_not_a_death(self):
        # a rank process that reports and exits before the parent looks:
        # its report is still read whole, ahead of the EOF
        proc, sock = spmd._start(
            "import sys; from repro.runtime.rank import _send; "
            f"_send(int(sys.argv[1]), {self.OK!r})",
            (),
        )
        with sock, sock.makefile("rb") as stream:
            assert proc.wait(timeout=60.0) == 0
            assert spmd._recv(stream) == self.OK
            assert spmd._recv(stream) is None

    def test_running_reporting_and_dead_ranks(self):
        parent, child = socket.socketpair()
        with parent, child, parent.makefile("rb") as stream:
            assert not _readable(parent)  # running: nothing to read
            spmd._send(child.fileno(), self.OK)
            assert _readable(parent)
            assert spmd._recv(stream) == self.OK
            # a report cut short by the rank's death
            spmd._send(child.fileno(), self.OK)
            whole = parent.recv(1 << 10)
            child.sendall(whole[:-3])
            child.close()
            assert spmd._recv(stream) is None
        # a bare EOF: the rank died before reporting anything
        parent, child = socket.socketpair()
        with parent, parent.makefile("rb") as stream:
            child.close()
            assert _readable(parent)
            assert spmd._recv(stream) is None

    def test_exit_with_its_spec_unread_is_a_death(self):
        # a rank that dies before reading the spec sent to it resets the
        # connection rather than closing it cleanly: still a death
        parent, child = socket.socketpair()
        with parent, parent.makefile("rb") as stream:
            spmd._send(parent.fileno(), {"rank": 0})
            child.close()
            assert _readable(parent)
            assert spmd._recv(stream) is None

    def test_rank_killed_with_its_spec_unread(self, rng, monkeypatch):
        # rank 1 is killed right after its spec is sent, while it is
        # most likely still importing: a dead rank, not a raw OSError
        send = spmd._send
        started = count_starts(monkeypatch)

        def send_then_kill_rank1(fd, obj):
            send(fd, obj)
            if obj["rank"] == 1:
                started[1].send_signal(signal.SIGKILL)
                started[1].wait(timeout=30.0)

        monkeypatch.setattr(spmd, "_send", send_then_kill_rank1)
        gen = CodeGenerator(target="spmd").generate(
            AdamWorkload.build(64, 2).program
        )
        with spmd.RankPool() as pool:
            with pytest.raises(SpmdWorkerError, match="rank 1 died") as err:
                pool.launch(
                    gen, optimizer_inputs(rng, n=2), allow_downcast=True,
                    timeout=20.0,
                )
        assert err.value.dead_ranks == [1]
        assert f"exit code {-signal.SIGKILL}" in str(err.value)
        # the pool held rank 0, a clean survivor, until it closed
        assert all(p.returncode is not None for p in started)


#: a user's script calling ``run_spmd``: it checks the result against
#: ``run_lowered`` and that no process it started outlives the call
USER_SCRIPT = textwrap.dedent("""
    import os, sys
    sys.path.insert(0, {src!r})
    import numpy as np
    from repro.cli import _seeded_inputs
    from repro.runtime import Executor
    from repro.workloads.adam import AdamWorkload


    {children}

    sched = AdamWorkload.build(64, 2).schedule_fused()
    inputs = _seeded_inputs(sched.program, seed=0)
    out = Executor().run_spmd(
        sched, inputs, allow_downcast=True, codegen_target={target!r}
    )
    assert children() == [], children()
    ref = Executor().run_lowered(sched, inputs, allow_downcast=True)
    for name in ref.output_names:
        assert np.array_equal(out.output(name), ref.output(name)), name
    assert "multiprocessing" not in sys.modules
    print("user script ok")
""")


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
class TestRankProcesses:
    """Ranks are plain interpreters the launch owns: they need no
    importable ``__main__``, no ``PYTHONPATH`` from the caller, and
    leave no process or ``/dev/shm`` entry behind."""

    @pytest.fixture(scope="class")
    def kernel_cache(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("kernels"))

    @pytest.mark.parametrize("given", [None, "2"])
    def test_one_blas_thread_unless_the_caller_sets_it(
        self, monkeypatch, given
    ):
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
        proc, sock = spmd._start(
            "import os, sys; from repro.runtime.rank import _send; "
            "_send(int(sys.argv[1]), "
            "os.environ['OPENBLAS_NUM_THREADS'])",
            (),
        )
        with sock, sock.makefile("rb") as stream:
            assert spmd._recv(stream) == (given or "1")
            assert proc.wait(timeout=60.0) == 0

    @pytest.mark.parametrize("target", ["spmd", "native"])
    @pytest.mark.parametrize("how", ["stdin", "sys_path"])
    def test_user_script(self, target, how, kernel_cache, tmp_path):
        # "stdin": ``python - < script.py`` has no __main__ a rank could
        # re-import; "sys_path": the script finds repro only through
        # sys.path, with no PYTHONPATH at all
        from repro.core.codegen import native

        if target == "native" and not native.available():
            pytest.skip("no C compiler on PATH")
        script = USER_SCRIPT.format(
            src=os.path.dirname(os.path.dirname(repro.__file__)),
            target=target, children=inspect.getsource(children),
        )
        env = dict(os.environ, REPRO_KERNEL_CACHE=kernel_cache)
        env.pop("PYTHONPATH", None)
        if how == "stdin":
            cmd = [sys.executable, "-"]
        else:
            path = tmp_path / "user_script.py"
            path.write_text(script)
            cmd, script = [sys.executable, str(path)], None
        done = subprocess.run(
            cmd, input=script, env=env, cwd=str(tmp_path),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "user script ok" in done.stdout

    @pytest.mark.parametrize("failure", ["place_regions", "compile"])
    def test_launch_failing_before_the_specs_returns_at_once(
        self, rng, monkeypatch, tmp_path, failure
    ):
        # ranks still waiting for their spec read EOF and exit: the
        # launch raises within 2 s, not after the 5 s reap per rank
        from repro.core.codegen import native

        target = "spmd"
        if failure == "place_regions":
            def fail(*args):
                raise ExecutionError("placement failed")

            monkeypatch.setattr(spmd, "_place_regions", fail)
            expected = ExecutionError
        else:
            if not native.available():
                pytest.skip("no C compiler on PATH")
            # a compiler that exits 1, and a cache it has never filled
            monkeypatch.setenv("CC", "false")
            monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
            target, expected = "native", CodegenError
        gen = CodeGenerator(target=target).generate(
            AdamWorkload.build(64, 2).schedule_fused()
        )
        inputs = optimizer_inputs(rng, n=2)
        t0 = time.monotonic()
        with spmd.RankPool() as pool:
            with pytest.raises(expected):
                pool.launch(gen, inputs, allow_downcast=True)
            assert time.monotonic() - t0 < 2.0
            assert children() == []

    def test_stalled_run_creates_no_shm_entry(self, rng):
        # the segments are memfds: nothing appears in /dev/shm even
        # while a run is in flight
        from repro.runtime.faults import FaultPlan

        before = set(os.listdir("/dev/shm"))
        seen = set()
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                seen.update(os.listdir("/dev/shm"))
                stop.wait(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            sched = AdamWorkload.build(64, 2).schedule_fused()
            inputs = optimizer_inputs(rng, n=2)
            plan = FaultPlan(seed=0).stall_publish("g", 0.5, rank=1, seq=2)
            t0 = time.monotonic()
            out = Executor().run_spmd(
                sched, inputs, allow_downcast=True, fault_plan=plan,
                soft_timeout=0.1,
            )
            assert time.monotonic() - t0 >= 0.5  # the stall happened
        finally:
            stop.set()
            watcher.join()
        assert seen <= before
        oracle = Executor().run_lowered(sched, inputs, allow_downcast=True)
        for name in oracle.output_names:
            np.testing.assert_array_equal(
                out.output(name), oracle.output(name), err_msg=name
            )
