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
import marshal
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
from repro.runtime.faults import FaultPlan
from repro.runtime.rank import (
    RankFaults, SpmdError, SpmdLayout, SpmdWorkerError,
)
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

#: modules the rank entry, :func:`repro.runtime.rank._rank_main`, must
#: not import: a rank's messages are ``marshal``, built in, and its
#: code object comes compiled; a new import of one of these fails the
#: rank core test (CI's "Rank imports" step gates the same set)
RANK_CORE_NEVER_IMPORTS = {
    "_pickle", "pickle", "collections", "functools", "importlib",
    "typing", "numpy",
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
        # the hierarchical exchange on real ranks, on both targets
        from repro.core.codegen import native

        hier = wl.schedule_hierarchical(node_size=2)
        targets = ["spmd", "native"] if native.available() else ["spmd"]
        for target in targets:
            assert_spmd_parity(hier, inputs, codegen_target=target)

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
        # every rank gets the code object of the module text generated
        # (and edited) here, compiled by the parent, and runs it as is:
        # once its kernels have run, no rank has loaded an artifact,
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
        code = compile(source, f"<generated-spmd:{gen.program.name}>", "exec")
        for spec in sent:
            # the code object of the edited text, and no source at all
            assert spec["code"] == code
            assert not [v for v in spec.values() if isinstance(v, str)
                        and "run_rank" in v]
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
        # ``p`` and ``m`` stand for states updated in place: each is its
        # region, in a new ndarray. No rank writes ``g``, a Local input,
        # so no rank stores it
        outputs, states = results()
        assert {"m", "p"} <= set(states) and "g" not in states
        spmd._store_results(layout, buf, 0, outputs, states)
        assert not outputs and not states
        assert copied == []
        # a result held anywhere else is copied
        outputs, states = results()
        states["m"] = states["m"].copy()
        spmd._store_results(layout, buf, 0, outputs, states)
        assert len(copied) == 1
        region = layout.view(buf, ("in", "m"), 0)
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
        mutating it after the launch unlinked its segment works. (An
        output that is a state's final value is that state's array, so
        every value is checked before any is mutated.)"""
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
        for arr, _ in arrays:
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
    """A rank's control plane, :mod:`repro.runtime.rank`, imports none
    of :data:`RANK_CORE_NEVER_IMPORTS`: a rank can read its spec, its
    flags and its trace ring without numpy, ``pickle`` or the
    ``collections`` and ``functools`` that ``pickle`` brings."""

    #: imports the rank entry and records which of
    #: :data:`RANK_CORE_NEVER_IMPORTS` are loaded, receives ``(spec,
    #: key)``, attaches as the spec says, reads rank 1's ready flag at
    #: site ``key``, traces one record into its ring
    #: (``repro.observe.ring``, which the core imports) and reports
    #: ``(flag, clean close, those modules, numpy imported)``
    ENTRY = textwrap.dedent(
        f"""
        import sys
        from repro.runtime.rank import _rank_main
        banned = sorted(set(sys.modules) & {RANK_CORE_NEVER_IMPORTS!r})
        from repro.runtime.rank import RankCore, SpmdLayout, _recv, _send
        fd = int(sys.argv[1])
        with open(fd, "rb", closefd=False) as stream:
            spec, key = _recv(stream)
        core = RankCore.attach(
            SpmdLayout.from_wire(spec["layout"]), spec["rank"],
            spec["data_fd"], spec["flags_fd"], traced=spec["traced"],
            timeout=spec["timeout"], soft_timeout=spec["soft_timeout"],
        )
        flag = core._ready(key, 1)
        core.record_kernel_open("no-numpy", 0.5)
        _send(fd, (flag, core.close(), banned, "numpy" in sys.modules))
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
        layout = SpmdLayout.from_wire(spec["layout"])
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
                assert spmd._recv(stream) == (7, True, [], False)
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

    @pytest.mark.parametrize("body", [
        pytest.param(b"\xde\xad\xbe\xef" * 4, id="a_garbage_length"),
        pytest.param(
            (8).to_bytes(8, "little") + b"\xff" * 8, id="garbage_marshal"
        ),
    ])
    def test_garbage_is_no_message(self, body):
        parent, child = socket.socketpair()
        with parent, parent.makefile("rb") as stream:
            child.sendall(body)
            child.close()
            assert spmd._recv(stream) is None

    def test_a_rank_that_sends_garbage_is_dead(self, rng, monkeypatch):
        # rank processes that write bytes that are no message and exit
        monkeypatch.setattr(
            spmd, "_RANK_ENTRY",
            "import os, sys; os.write(int(sys.argv[1]), b'\\xff' * 64)",
        )
        gen = CodeGenerator(target="spmd").generate(
            AdamWorkload.build(64, 2).program
        )
        with spmd.RankPool() as pool:
            with pytest.raises(SpmdWorkerError, match="died") as err:
                pool.launch(
                    gen, optimizer_inputs(rng, n=2), allow_downcast=True,
                    timeout=20.0,
                )
        assert err.value.dead_ranks == [0, 1]
        assert children() == []


class TestWireFormat:
    """A rank's spec is plain data: ``marshal``, with the layout and the
    fault plan's view in their wire forms."""

    @pytest.mark.parametrize("program", [
        pytest.param(lambda: AdamWorkload.build(64, 4).program, id="adam"),
        pytest.param(
            lambda: PipelineWorkload.build(
                2, 8, 16, world_size=8, num_groups=2, dtype=FP32
            ).program,
            id="pipeline_p2p",
        ),
    ])
    def test_layout_round_trips(self, program):
        layout = build_layout(program())
        wire = marshal.loads(marshal.dumps(layout.to_wire()))
        back = SpmdLayout.from_wire(wire)
        # every field but the builder's, which a frozen layout no
        # longer uses
        builder = {"_pending", "_regions_end"}
        fields = set(vars(layout)) - builder
        assert fields == set(vars(back)) - builder
        for field in fields:
            assert getattr(back, field) == getattr(layout, field), field
        assert list(back.sites) == list(layout.sites)
        assert back.flags_bytes(True) == layout.flags_bytes(True)

    def test_rank_faults_round_trip(self):
        plan = (
            FaultPlan(seed=3).slow_rank(0, 1.5).stall_publish("g", 0.25, seq=2)
            .die(0, at_site="g0x2", after=2).drop_chunk("g", 1, rank=0)
        )
        faults = plan.for_rank(0)
        wire = marshal.loads(marshal.dumps(faults.to_wire()))
        assert vars(RankFaults(*wire)) == vars(faults)
        assert faults.should_die("g0x2") is False
        # a copy starts with its counters unspent
        assert vars(RankFaults(*faults.to_wire())) != vars(faults)

    @pytest.mark.parametrize("value, name", [
        pytest.param(np.float64(60.0), "numpy.float64", id="numpy_scalar"),
        pytest.param(
            FaultPlan(seed=1), "repro.runtime.faults.FaultPlan",
            id="fault_plan",
        ),
    ])
    def test_a_non_plain_spec_fails_at_send(
        self, rng, monkeypatch, value, name
    ):
        send = spmd._send
        monkeypatch.setattr(
            spmd, "_send", lambda fd, obj: send(fd, dict(obj, faults=value))
        )
        before = set(spmd_segments())
        with pytest.raises(SpmdError, match=(
            rf"message\['faults'\] is a {name}, which a rank message "
            "cannot carry"
        )):
            Executor().run_spmd(
                AdamWorkload.build(64, 2).program,
                optimizer_inputs(rng, n=2), allow_downcast=True,
            )
        assert children() == []
        assert set(spmd_segments()) == before

    def test_send_names_the_value(self):
        parent, child = socket.socketpair()
        with parent, child:
            with pytest.raises(SpmdError, match=(
                r"message\['a'\]\[1\] is a numpy.int32"
            )):
                spmd._send(child.fileno(), {"a": [1, np.int32(2)]})
            assert not _readable(parent)  # nothing was sent

    def test_code_is_compiled_once_and_again_when_edited(self):
        gen = CodeGenerator(target="spmd").generate(
            AdamWorkload.build(64, 2).program
        )
        code = gen.code
        assert gen.code is code
        gen.source += "EDITED = 1\n"
        assert gen.code is not code
        assert gen.code == compile(
            gen.source, code.co_filename, "exec"
        )
        namespace = {}
        exec(gen.code, namespace)
        assert namespace["EDITED"] == 1


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


def _half_specials(n: int) -> np.ndarray:
    """``n`` float16 values cycling through NaNs with payloads, ±0,
    subnormals, ±65504, ±inf and ordinary numbers."""
    bits = np.array(
        [0x7E01, 0xFE55, 0x7FFF, 0x0000, 0x8000, 0x0001, 0x83FF,
         0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x3C00, 0xB555],
        dtype=np.uint16,
    )
    return np.resize(bits, n).view(np.float16)


def _double_specials(n: int) -> np.ndarray:
    """``n`` float64 values whose FP16 casts hit the edges: payload
    NaNs, ±0, FP16 subnormals, ±65504, the values just below and at
    the overflow threshold (65520 rounds to inf), and ordinary numbers."""
    nans = np.array(
        [0x7FFAB00000000000, 0xFFF5500000000000], dtype=np.uint64
    ).view(np.float64)
    values = np.concatenate([nans, [
        0.0, -0.0, 2.0 ** -24, -3 * 2.0 ** -24, 65504.0, -65504.0,
        65519.99, 65520.0, -65520.0, 1e6, 1.0 / 3.0, -2.5,
    ]])
    return np.resize(values, n)


def _f16_sweep() -> np.ndarray:
    """float64 values at every edge of the FP16 cast: each finite half,
    every rounding boundary (the midpoint of two neighbouring halves)
    and the doubles one ulp either side of it, quiet and signalling NaNs
    with payloads of both signs, ±0, subnormals, 2^-25, ±65504, the
    largest double below 65520, 65520 (which rounds to inf) and ±inf."""
    halves = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    exact = np.sort(halves[np.isfinite(halves)].astype(np.float64))
    mids = (exact[:-1] + exact[1:]) / 2.0
    edges = np.array([
        0.0, -0.0, 2.0 ** -24, -(2.0 ** -24), 2.0 ** -25, -(2.0 ** -25),
        65504.0, -65504.0, 65520.0, -65520.0, np.inf, -np.inf,
    ])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0)])
    rng = np.random.default_rng(16)
    payload = rng.integers(1, 1 << 51, 512, dtype=np.uint64)
    payload[:4] = [1, 1 << 41, (1 << 42) - 1, (1 << 51) - 1]
    quiet = np.uint64(1 << 51) * rng.integers(0, 2, 512, dtype=np.uint64)
    sign = rng.integers(0, 2, 512, dtype=np.uint64) << np.uint64(63)
    nans = (sign | np.uint64(0x7FF0 << 48) | quiet | payload).view(np.float64)
    return np.concatenate([
        exact, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
        edges, nans, [np.nan, -np.nan],
    ])


class TestLaunchDataPath:
    """The parent's copy-in and copy-out: placement cut into one part
    per CPU, inputs no rank writes returned as placed, and an output
    that is a state's final value read once."""

    @staticmethod
    def _program():
        from repro.core import (
            FP16, RANK, AllReduce, Binary, Execute, Local, Sliced, world,
        )

        W = world(2)
        loc = Tensor(FP16, (7, 5), Local, W, RANK, name="loc")
        rep = Tensor(FP16, (7, 5), Replicated_, W, name="rep")
        col = Tensor(FP32, (9, 6), Sliced(1), W, RANK, name="col")
        tr = Tensor(FP32, (10, 3), Sliced(0), W, RANK, name="tr")
        prog = Execute(
            "data_path", [loc, rep, col, tr],
            [
                Binary("+", loc, rep, name="lr"),
                AllReduce("+", Binary("*", rep, 2.0), name="ar"),
                Binary("*", col, 3.0, name="col3"),
                Binary("-", tr, 1.0, name="tr1"),
            ],
        )
        inputs = {
            # FP16 bit patterns, placed as they are
            "loc": _half_specials(2 * 7 * 5).reshape(2, 7, 5),
            # float64 cast to FP16 at placement: no NaN meets loc's
            "rep": np.where(
                np.isnan(_double_specials(35)), 0.5, _double_specials(35)
            ).reshape(7, 5),
            "col": _double_specials(54).reshape(9, 6),
            # a non-contiguous float64 input: a transposed view
            "tr": np.arange(30, dtype=np.float64).reshape(3, 10).T * 0.1,
        }
        assert not inputs["tr"].flags.c_contiguous
        return prog, inputs

    @staticmethod
    def _check(result, oracle, program, aliased=()):
        """Bit-identical results that share no memory, but for the
        ``aliased`` (output, state) pairs, which are one array."""
        arrays = {
            ("out", o.name): result.output(o.name) for o in program.outputs
        }
        arrays.update(
            (("state", t.name), result.tensor_state(t.name))
            for t in program.inputs if isinstance(t, Tensor)
        )
        for (kind, name), have in arrays.items():
            want = (
                oracle.output(name) if kind == "out"
                else oracle.tensor_state(name)
            )
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes(), (kind, name)
        keys = list(arrays)
        shared = {
            (a[1], b[1]) for i, a in enumerate(keys) for b in keys[i + 1:]
            if np.shares_memory(arrays[a], arrays[b])
        }
        assert shared == set(aliased)
        for o, t in aliased:
            assert result.output(o) is result.tensor_state(t)

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_bit_identical_with_uneven_parts(self, target, monkeypatch):
        # three parts of odd extents, however many CPUs this machine has
        monkeypatch.setattr(spmd, "_MIN_PART_BYTES", 1)
        monkeypatch.setattr(
            spmd.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        program, inputs = self._program()
        layout = build_layout(program)
        assert all(not w for _, _, _, w in (
            layout.regions[("in", t.name)] for t in program.inputs
        ))
        threads = threading.active_count()
        with Executor() as ex:
            with pytest.warns(RuntimeWarning, match="lossy downcast"):
                oracle = ex.run_lowered(program, inputs)
            with pytest.warns(RuntimeWarning, match="lossy downcast"):
                result = ex.run_spmd(program, inputs, codegen_target=target)
            assert threading.active_count() == threads
        assert result.spmd_rank_kinds[0][0] == (
            "pointer" if target == "native" else "numpy"
        )
        self._check(result, oracle, program)
        # the states are the parent's own: the caller's arrays stay theirs
        states = {
            t.name: result.tensor_state(t.name).copy()
            for t in program.inputs
        }
        for value in inputs.values():
            value[...] = 0
        for name, state in states.items():
            assert result.tensor_state(name).tobytes() == state.tobytes()

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_adam_output_is_its_state(self, target, rng, monkeypatch):
        monkeypatch.setattr(spmd, "_MIN_PART_BYTES", 1)
        monkeypatch.setattr(
            spmd.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        sched = AdamWorkload.build(1030, 2).schedules()["fuse(RS-Adam-AG)"]
        inputs = optimizer_inputs(rng, n=2, N=1030)
        inputs["p"][:6] = [0.0, -0.0, 2.0 ** -24, 65504.0, 65520.0, -65519.0]
        assert spmd._aliased_outputs(sched.program) == {"ag_p_": "p"}
        with Executor() as ex:
            oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
            result = ex.run_spmd(
                sched, inputs, allow_downcast=True, codegen_target=target
            )
        assert result.spmd_rank_kinds[0][0] == (
            "pointer" if target == "native" else "numpy"
        )
        self._check(result, oracle, sched.program, aliased={("ag_p_", "p")})

    def test_adam_copies_out_neither_g_nor_a_second_p(self, rng):
        from repro.observe import Tracer

        n = 1 << 12
        sched = AdamWorkload.build(n, 2).schedules()["fuse(RS-Adam-AG)"]
        layout = build_layout(sched.program)
        assert layout.regions[("in", "g")][3] == ()
        assert not any(kind == "out" for kind, _ in layout.regions)
        tracer = Tracer()
        with Executor() as ex:
            ex.run_spmd(
                sched, optimizer_inputs(rng, n=2, N=n), allow_downcast=True,
                codegen_target="native", tracer=tracer,
            )
        spans = {
            e.name: e for e in tracer.spans("repro.runtime.spmd")
            if e.pid == tracer.pid
        }
        # p (FP16) once, m and v (FP32) from both ranks
        assert spans["copy_out"].args["bytes"] == 2 * n + 2 * 4 * n
        # every rank's inputs, and g once more as the parent's own state
        assert spans["place"].args["bytes"] == (
            2 * 2 * n + 2 * 2 * n + 2 * 4 * n + 2 * 2 * 4 + 2 * 2 * n
        )
        assert spans["place"].end <= spans["copy_out"].ts

    def test_an_untraced_launch_records_nothing(self, rng, monkeypatch):
        monkeypatch.setattr(
            spmd, "_region_bytes", lambda *a: pytest.fail("counted bytes")
        )
        sched = AdamWorkload.build(64, 2).schedules()["fuse(RS-Adam-AG)"]
        with Executor() as ex:
            ex.run_spmd(
                sched, optimizer_inputs(rng, n=2), allow_downcast=True
            )

    @staticmethod
    def _cast_program():
        """Three ranks and float64 inputs of FP16 tensors placed every
        way: a local one and a replicated one that no rank writes (state
        and regions), a replicated and a sliced one that an ``Update``
        writes (regions only), and a transposed one, whose source is not
        contiguous; the sweep fills each."""
        from repro.core import (
            FP16, RANK, Binary, Execute, Local, Sliced, Update, world,
        )

        sweep = _f16_sweep()
        n = 3 * 8 * (-(-sweep.size // 24))
        values = np.resize(sweep, n)
        W = world(3)
        loc = Tensor(FP16, (n // 3,), Local, W, RANK, name="loc")
        rep = Tensor(FP16, (n // 3,), Replicated_, W, name="rep")
        upd = Tensor(FP16, (n // 24, 8), Replicated_, W, name="upd")
        sl = Tensor(FP16, (n // 8, 8), Sliced(0), W, RANK, name="sl")
        tr = Tensor(FP16, (n // 24, 8), Replicated_, W, name="tr")
        prog = Execute(
            "cast_path", [loc, rep, upd, sl, tr],
            [
                Binary("+", loc, rep, name="lr"),
                Update(upd, Binary("*", upd, 2.0), name="u2"),
                Update(sl, Binary("-", sl, 1.0), name="s1"),
                Binary("*", tr, 3.0, name="tr3"),
            ],
        )
        inputs = {
            "loc": values.reshape(3, n // 3),
            "rep": np.roll(values, 1)[: n // 3],
            "upd": np.roll(values, 2)[: n // 3].reshape(n // 24, 8),
            "sl": np.roll(values, 3).reshape(n // 8, 8),
            "tr": np.roll(values, 4)[: n // 3].reshape(8, n // 24).T,
        }
        assert not inputs["tr"].flags.c_contiguous
        return prog, inputs

    @staticmethod
    def _no_copyto_cast(monkeypatch):
        """Patch ``np.copyto`` to record, in the list returned, every
        float64 -> FP16 cast it makes."""
        copyto, casts = np.copyto, []

        def spy(dst, src, *args, **kwargs):
            if (np.asarray(src).dtype == np.float64
                    and dst.dtype == np.float16):
                casts.append(dst.shape)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", spy)
        return casts

    @pytest.mark.parametrize("with_c", [False, True])
    def test_place_f16_is_astype_at_uneven_parts(self, with_c, monkeypatch):
        from repro.core.codegen import native
        from repro.runtime.world import place_inputs

        if with_c and not native.available():
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(spmd, "_MIN_PART_BYTES", 1)
        monkeypatch.setattr(
            spmd.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        program, inputs = self._cast_program()
        gen = CodeGenerator(target="native").generate(program)
        assert gen.plane == "pointer"
        assert "void place_f16(char** A, double* S)" in gen.c_source
        kernels = native.load_kernels(gen.c_source) if with_c else None
        layout = build_layout(program)
        data = mmap.mmap(-1, layout.data_size)
        placed = place_inputs(program, inputs, True, cast=False)
        casts = self._no_copyto_cast(monkeypatch)
        states, cast_bytes = spmd._place_regions(
            layout, program, placed, data, kernels
        )
        with np.errstate(invalid="ignore", over="ignore"):
            want = {k: v.astype(np.float16) for k, v in inputs.items()}
        shards = place_inputs(program, want, True)
        for t in program.inputs:
            for r in t.group:
                have = layout.view(data, ("in", t.name), r)
                assert have.tobytes() == shards[t.name][r].tobytes(), t.name
        assert sorted(states) == ["loc", "rep", "tr"]
        for name, state in states.items():
            assert state.tobytes() == want[name].tobytes(), name
        n = inputs["rep"].size
        if with_c:
            # each C-contiguous float64 source once, into two places:
            # loc's states and regions, rep's state and first region,
            # upd's first two regions and sl's regions once each
            assert cast_bytes == 2 * (2 * 3 * n + 2 * n + 2 * n + 3 * n)
            # the transposed source alone took numpy's cast, in 3 parts
            rows = inputs["tr"].shape[0]
            assert sorted(casts) == sorted(
                (rows * (p + 1) // 3 - rows * p // 3, 8) for p in range(3)
            )
        else:  # 3 parts of each rank's loc and sl, of upd, rep and tr
            assert cast_bytes == 0 and len(casts) == 3 * (3 + 1 + 1 + 3 + 1)

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_a_native_launch_casts_fp16_inputs_in_c(
        self, target, monkeypatch
    ):
        from repro.observe import Tracer

        monkeypatch.setattr(spmd, "_MIN_PART_BYTES", 1)
        monkeypatch.setattr(
            spmd.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        program, inputs = self._cast_program()
        inputs["tr"] = np.ascontiguousarray(inputs["tr"])
        tracer = Tracer()
        with Executor() as ex, np.errstate(invalid="ignore", over="ignore"):
            oracle = ex.run_lowered(program, inputs, allow_downcast=True)
            casts = self._no_copyto_cast(monkeypatch)
            result = ex.run_spmd(
                program, inputs, allow_downcast=True, codegen_target=target,
                tracer=tracer,
            )
        self._check(result, oracle, program)
        (place,) = [
            e for e in tracer.spans("repro.runtime.spmd")
            if e.pid == tracer.pid and e.name == "place"
        ]
        if target == "native":
            assert result.spmd_rank_kinds[0][0] == "pointer"
            assert casts == []
            n = inputs["rep"].size
            # loc's states and regions, sl's regions, and two places
            # each of rep, upd and the contiguous tr: the third rank's
            # replicated region is a copy
            assert place.args["cast_bytes"] == 2 * (6 * n + 3 * n + 3 * 2 * n)
        else:
            assert casts and place.args["cast_bytes"] == 0


class TestArrayBinding:
    """``SpmdCommunicator`` on one rank, in this process: it writes only
    into outputs that fit, and copies runs of any box."""

    @staticmethod
    def _comm():
        from repro.runtime.rank import _group_site

        layout = spmd.SpmdLayout(1)
        layout.add_site(_group_site(range(1)), range(1), 1024)
        layout.freeze()
        data = mmap.mmap(-1, layout.data_size)
        return spmd.SpmdCommunicator(
            layout, 0, data, mmap.mmap(-1, layout.flags_bytes()),
            timeout=5.0,
        )

    @pytest.mark.parametrize(
        "out", [np.empty((4,), np.float32), np.empty((2, 3), np.float16),
                np.empty((2, 6), np.float32)[:, ::2]],
    )
    def test_a_gather_into_an_output_that_does_not_fit_raises(self, out):
        from repro.core import world

        comm = self._comm()
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        with pytest.raises(spmd.SpmdError, match="not a C-contiguous"):
            comm.allgather(x, world(1), 0, out=out)
        # nothing was published: the site's next gather runs as usual
        np.testing.assert_array_equal(comm.allgather(x, world(1), 1), x)
        assert comm.close()

    def test_a_non_contiguous_operand_is_published_by_a_copy(self):
        from repro.core import world

        comm = self._comm()
        x = np.arange(24, dtype=np.float16).reshape(4, 6)[:, 1::2]
        got = comm.reducescatter(x, world(1), "+", -1, np.float32)
        np.testing.assert_array_equal(got, x.astype(np.float32))
        assert comm.close()
