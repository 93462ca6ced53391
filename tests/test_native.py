"""The native compiled codegen target and its content-hash kernel cache.

Three layers of coverage:

* **Numerics** — the C prelude's half<->double conversions are checked
  bit-for-bit against numpy over the *entire* fp16 space (and a sweep
  of doubles for the rounding direction), because the native target's
  bit-identity claim rests on them; and every Binary and Unary op at
  FP16, FP32 and FP64, special values included, on every tier.
* **Cache** — cold compile, in-process memo hit, disk hit with zero
  compiles, and a corrupt ``.so`` being deleted and recompiled once,
  all against an isolated ``REPRO_KERNEL_CACHE``; a launch compiles in
  its own process, and its ranks only open the object.
* **Golden artifacts and GEMMs** — the committed
  ``tests/golden/*.repro.json`` execute on the native backend and must
  match the lowered interpreter's SHA-256 digest exactly, and so must
  every GEMM program, FP16 included: every tier's MatMul is the device
  library's ``dev.gemm``.
"""

import ctypes
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.core import artifact
from repro.core.codegen import CodeGenerator, native
from repro.errors import CodegenError
from repro.runtime import Executor, FaultPlan

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

needs_cc = pytest.mark.skipif(
    not native.available(), reason="no C compiler on PATH"
)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An isolated on-disk kernel cache (and a clean in-process memo)."""
    cache = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    saved = dict(native._MEMO)
    native._MEMO.clear()
    yield str(cache)
    native._MEMO.clear()
    native._MEMO.update(saved)


def _digest(result) -> str:
    h = hashlib.sha256()
    for name in result.output_names:
        arr = result.output(name)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    states = getattr(result, "_tensor_states", {})
    for name in sorted(states):
        h.update(name.encode())
        h.update(states[name].tobytes())
    return h.hexdigest()


def _assert_bit_identical(got, low):
    assert got.output_names == low.output_names
    for name in low.output_names:
        assert np.array_equal(got.output(name), low.output(name)), name
    states = getattr(low, "_tensor_states", {})
    assert sorted(getattr(got, "_tensor_states", {})) == sorted(states)
    for name, value in states.items():
        assert np.array_equal(got._tensor_states[name], value), name


def _fp64_gemm_allreduce(overlapped, ranks=2):
    """FP64 ``AllReduce(x @ w)`` on ``ranks`` ranks; ``overlapped`` runs
    it as the §5.3 GEMM→AllReduce ring ChunkLoop."""
    from repro.core import (
        FP64, RANK, AllReduce, Execute, Local, MatMul, Tensor, world,
    )
    from repro.core.transforms import Schedule

    W = world(ranks)
    x = Tensor(FP64, (24, 96), Local, W, RANK, name="x")
    w = Tensor(FP64, (96, 40), Local, W, RANK, name="w")
    mm = MatMul(x, w, name="mm")
    ar = AllReduce("+", mm, name="ar")
    sched = Schedule(Execute("gemm_allreduce", [x, w], [ar]))
    if overlapped:
        sched.overlap(mm, ar)
        assert sched.lowered().chunk_loops()
    rng = np.random.RandomState(11)
    values = {"x": rng.randn(ranks, 24, 96), "w": rng.randn(ranks, 96, 40)}
    return sched, values


_CONV_HARNESS = (
    native.PRELUDE
    + r"""
void conv_h2d(char** A, double* S) {
    const uint16_t* in = (const uint16_t*)A[0];
    double* out = (double*)A[1];
    (void)S;
    for (long long i = 0; i < 65536; ++i) out[i] = repro_h2d(in[i]);
}
void conv_d2h(char** A, double* S) {
    const double* in = (const double*)A[0];
    uint16_t* out = (uint16_t*)A[1];
    long long n = (long long)S[0];
    for (long long i = 0; i < n; ++i) out[i] = repro_d2h(in[i]);
}
"""
)


@needs_cc
class TestHalfConversions:
    """repro_h2d / repro_d2h vs numpy, exhaustively."""

    def test_h2d_all_65536_bit_patterns(self, kernel_cache):
        k = native.load_kernels(_CONV_HARNESS)
        bits = np.arange(65536, dtype=np.uint16)
        out = np.empty(65536, dtype=np.float64)
        k.call("conv_h2d", (bits, out))
        ref = bits.view(np.float16).astype(np.float64)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(out[~nan], ref[~nan])
        assert np.isnan(out[nan]).all()

    def test_d2h_matches_numpy_direct_rounding(self, kernel_cache):
        k = native.load_kernels(_CONV_HARNESS)
        rng = np.random.RandomState(7)
        # every fp16 regime: normals, subnormals, overflow, underflow,
        # halfway cases (the double-rounding trap), zeros, infinities
        vals = np.concatenate(
            [
                rng.standard_normal(20000),
                rng.standard_normal(20000) * 1e-4,
                rng.standard_normal(5000) * 1e-8,   # half-subnormal
                rng.standard_normal(5000) * 1e-12,  # underflow to 0
                rng.standard_normal(5000) * 1e5,    # overflow to inf
                np.arange(65536, dtype=np.uint16)
                .view(np.float16).astype(np.float64),  # exact halves
                np.float64(2049) / 2048.0 * np.float64([1.0, -1.0]),
                np.array([0.0, -0.0, np.inf, -np.inf, 65504.0, 65520.0,
                          -65520.0, 5.96e-8, 2.98e-8, 6.10352e-5]),
            ]
        )
        vals = vals[~np.isnan(vals)]
        out = np.empty(len(vals), dtype=np.uint16)
        k.call("conv_d2h", (vals, out), (float(len(vals)),))
        with np.errstate(over="ignore"):
            ref = vals.astype(np.float16).view(np.uint16)
        np.testing.assert_array_equal(out, ref)

    def test_d2h_one_ulp_around_every_half_midpoint(self, kernel_cache):
        # the rounding boundary of every binade, subnormals and the
        # 65504 -> inf edge included: a midpoint ties to even, one
        # double ulp either side must round away from the tie
        k = native.load_kernels(_CONV_HARNESS)
        halves = (
            np.arange(0x7c00, dtype=np.uint16)
            .view(np.float16).astype(np.float64)
        )
        upper = np.append(halves[1:], 65536.0)
        mids = (halves + upper) / 2.0
        vals = np.concatenate([
            mids,
            np.nextafter(mids, np.inf),
            np.nextafter(mids, -np.inf),
        ])
        vals = np.concatenate([vals, -vals])
        out = np.empty(len(vals), dtype=np.uint16)
        k.call("conv_d2h", (vals, out), (float(len(vals)),))
        with np.errstate(over="ignore"):
            ref = vals.astype(np.float16).view(np.uint16)
        np.testing.assert_array_equal(out, ref)

    def test_d2h_nan_and_overflow(self, kernel_cache):
        k = native.load_kernels(_CONV_HARNESS)
        vals = np.array([np.nan, -np.nan, np.inf, -np.inf, 1e300])
        out = np.empty(len(vals), dtype=np.uint16)
        k.call("conv_d2h", (vals, out), (float(len(vals)),))
        assert list(out) == [0x7e00, 0xfe00, 0x7c00, 0xfc00, 0x7c00]


@needs_cc
class TestKernelCache:
    def test_cold_compile_then_memo_then_disk_hit(self, kernel_cache):
        src = native.PRELUDE + "\nvoid noop_a(char** A, double* S) {}\n"
        before = native.metrics.snapshot()

        native.load_kernels(src)  # cold: compiles
        after1 = native.metrics.snapshot()
        assert (
            after1.get("native.cache.compiles", 0)
            == before.get("native.cache.compiles", 0) + 1
        )

        native.load_kernels(src)  # warm: in-process memo
        after2 = native.metrics.snapshot()
        assert after2.get("native.cache.compiles", 0) == after1.get(
            "native.cache.compiles", 0
        )
        assert (
            after2.get("native.cache.memo_hits", 0)
            == after1.get("native.cache.memo_hits", 0) + 1
        )

        native._MEMO.clear()  # fresh process analogue: disk hit
        native.load_kernels(src)
        after3 = native.metrics.snapshot()
        assert after3.get("native.cache.compiles", 0) == after1.get(
            "native.cache.compiles", 0
        ), "warm-cache load must perform zero compiles"
        assert (
            after3.get("native.cache.disk_hits", 0)
            == after2.get("native.cache.disk_hits", 0) + 1
        )

    def test_corrupt_entry_recompiled(self, kernel_cache):
        src = native.PRELUDE + "\nvoid noop_b(char** A, double* S) {}\n"
        # plant a corrupt entry *before* any load, as a crashed or
        # truncated earlier writer would have left it (corrupting after
        # a load is invisible: dlopen returns the cached handle for an
        # already-open pathname)
        path = os.path.join(
            native.cache_dir(), native.source_key(src) + ".so"
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(b"not a shared object")
        before = native.metrics.snapshot()
        k2 = native.load_kernels(src)
        after = native.metrics.snapshot()
        assert (
            after.get("native.cache.recompiles", 0)
            == before.get("native.cache.recompiles", 0) + 1
        )
        k2.call("noop_b", (np.zeros(1),))

    def test_foreign_entry_recompiled(self, kernel_cache):
        # a loadable object built from other source, planted under this
        # source's key: it lacks this source's function, so it is
        # deleted and recompiled once
        other = native.PRELUDE + "\nvoid noop_g(char** A, double* S) {}\n"
        src = native.PRELUDE + "\nvoid noop_h(char** A, double* S) {}\n"
        native.load_kernels(other)
        path = os.path.join(
            native.cache_dir(), native.source_key(src) + ".so"
        )
        shutil.copy(
            os.path.join(native.cache_dir(), native.source_key(other) + ".so"),
            path,
        )
        before = native.metrics.snapshot()
        k = native.load_kernels(src)
        after = native.metrics.snapshot()
        for counter in ("native.cache.recompiles", "native.cache.compiles"):
            assert after.get(counter, 0) == before.get(counter, 0) + 1
        k.call("noop_h", (np.zeros(1),))

    def test_observer_receives_cache_outcomes(self, kernel_cache):
        # the observer hears of compiles only: a disk or memo hit is
        # the ranks' to record (each opens the object itself)
        src = native.PRELUDE + "\nvoid noop_d(char** A, double* S) {}\n"
        seen = []

        class Obs:
            def record_compile(self, name, seconds, status):
                seen.append((name, status))

        native.load_kernels(src, observer=Obs())
        native.load_kernels(src, observer=Obs())  # memo hit
        native._MEMO.clear()
        native.load_kernels(src, observer=Obs())  # disk hit
        assert [s for _, s in seen] == ["compile"]
        # a corrupt entry planted before any load is recompiled
        other = native.PRELUDE + "\nvoid noop_e(char** A, double* S) {}\n"
        path = os.path.join(
            native.cache_dir(), native.source_key(other) + ".so"
        )
        with open(path, "wb") as f:
            f.write(b"not a shared object")
        native.load_kernels(other, observer=Obs())
        assert [s for _, s in seen] == ["compile", "recompile"]

    def test_source_key_covers_source_and_toolchain(self, kernel_cache):
        a = native.source_key(native.PRELUDE + "/* a */")
        b = native.source_key(native.PRELUDE + "/* b */")
        assert a != b
        assert a == native.source_key(native.PRELUDE + "/* a */")


class TestTargetDispatch:
    def test_unknown_target_rejected(self):
        with pytest.raises(CodegenError):
            CodeGenerator(target="cuda")

    def test_native_target_accepted(self):
        gen = CodeGenerator(target="native")
        assert gen.target == "native"

    @needs_cc
    def test_module_memoized_by_content_hash(self, kernel_cache):
        art = artifact.load(
            os.path.join(GOLDEN, "adam_fused.repro.json")
        )
        gen = CodeGenerator(target="native")
        g1 = gen.generate(art)
        g2 = CodeGenerator(target="native").generate(art)
        assert g1 is g2, "native modules memoize on artifact content_hash"
        assert g1.c_source is not None
        assert g1.target == "native"

    @needs_cc
    def test_generated_module_embeds_c_dispatch(self, kernel_cache):
        art = artifact.load(
            os.path.join(GOLDEN, "adam_fused.repro.json")
        )
        gen = CodeGenerator(target="native").generate(art)
        # the rank binds _K to the object its launcher compiled: the
        # module neither embeds the C source nor compiles it
        assert "_K.call(" in gen.source
        assert "\n_K = None\n" in gen.source
        assert "load_kernels" not in gen.source
        assert "repro_d2h" not in gen.source

    def test_matmul_emits_no_c_function(self):
        # a GEMM is the device library's dev.gemm on every tier: a
        # MatMul-only program compiles nothing
        sched, _ = _fp64_gemm_allreduce(overlapped=False)
        gen = CodeGenerator(target="native").generate(sched)
        assert gen.c_source is None
        assert "dev.gemm(" in gen.source


@needs_cc
class TestRankDataPath:
    def test_adam_copies_only_updated_inputs_and_states_stay_regions(
        self, kernel_cache
    ):
        from repro.cli import _seeded_inputs
        from repro.runtime.spmd import RankPool
        from repro.workloads.adam import AdamWorkload

        sched = AdamWorkload.build(1024, 2).schedules()["fuse(RS-Adam-AG)"]
        gen = CodeGenerator(target="native").generate(sched)
        copied = re.findall(r"V\['(\w+)'\] = T\['\1'\]\.copy\(\)", gen.source)
        # every read of m, v and p is upstream of the write that
        # updates it in place: no input needs a private copy
        assert copied == []
        assert "V['g'] = T['g']\n" in gen.source
        # every rank checks that each state it returns is its input
        # region, updated in place or never written
        gen.source += textwrap.dedent(
            """
            _run_rank = run_rank


            def run_rank(comm, inputs):
                from repro.runtime.spmd import _same_memory

                outputs, states = _run_rank(comm, inputs)
                assert sorted(states) == ["g", "m", "p", "v"]
                for name, value in states.items():
                    assert _same_memory(value, inputs[name]), name
                return outputs, states
            """
        )
        inputs = _seeded_inputs(sched.program, seed=0)
        with RankPool() as pool:
            nat = pool.launch(gen, inputs, allow_downcast=True, timeout=240.0)
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(nat) == _digest(low)

    def test_update_overwritten_later_keeps_its_own_array(
        self, kernel_cache
    ):
        # ``x`` is written twice and the first value is read after the
        # second write: only the last writer may store into ``x`` itself
        from repro.core import (
            FP32, Binary, Execute, Replicated, Tensor, Update, world,
        )

        x = Tensor(FP32, (8, 16), Replicated, world(2), name="x")
        u1 = Update(x, Binary("*", x, 0.5), name="u1")
        u2 = Update(x, Binary("+", u1, 1.0), name="u2")
        prog = Execute("twice", [x], [Binary("+", u2, u1, name="out")])
        gen = CodeGenerator(target="native").generate(prog)
        assert "V['u1'] = np.empty(" in gen.source
        assert "V['u2'] = T['x']\n" in gen.source
        inputs = {"x": np.random.RandomState(2).randn(8, 16)}
        ex = Executor()
        low = ex.run_lowered(prog, inputs, allow_downcast=True)
        got = ex.run_spmd(
            prog, inputs, allow_downcast=True, codegen_target="native",
            timeout=120.0,
        )
        assert _digest(got) == _digest(low)

    @staticmethod
    def _read_after_update(overlapped):
        """``out = Update(x, 0.5x) + (x @ w or 3x)``: the second operand
        reads x after the Update wrote its storage, so x keeps its copy.
        ``overlapped`` puts that read in an overlapped MatMul→AllReduce
        ChunkLoop."""
        from repro.core import (
            FP32, RANK, AllReduce, Binary, Execute, Local, MatMul,
            Replicated, Tensor, Update, world,
        )
        from repro.core.transforms import Schedule

        W = world(2)
        x = Tensor(FP32, (8, 16), Replicated, W, name="x")
        u = Update(x, Binary("*", x, 0.5), name="x_")
        if overlapped:
            w = Tensor(FP32, (16, 16), Local, W, RANK, name="w")
            mm = MatMul(x, w, name="mm")
            late = AllReduce("+", mm, name="ar")
            inputs = [x, w]
        else:
            late = Binary("*", x, 3.0, name="x3")
            inputs = [x]
        out = Binary("+", u, late, name="out")
        sched = Schedule(Execute("read_after_update", inputs, [out]))
        if overlapped:
            sched.overlap(mm, late)
            assert sched.lowered().chunk_loops()
        rng = np.random.RandomState(5)
        values = {"x": rng.randn(8, 16)}
        if overlapped:
            values["w"] = rng.randn(2, 16, 16)
        return sched, values

    @pytest.mark.parametrize("overlapped", [False, True])
    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_read_after_update_keeps_its_copy(
        self, kernel_cache, target, overlapped
    ):
        sched, inputs = self._read_after_update(overlapped)
        gen = CodeGenerator(target=target).generate(sched)
        copied = re.findall(r"V\['(\w+)'\] = T\['\1'\]\.copy\(\)", gen.source)
        assert copied == ["x"]
        ex = Executor()
        low = ex.run_lowered(sched, inputs, allow_downcast=True)
        got = ex.run_spmd(
            sched, inputs, allow_downcast=True, codegen_target=target,
            timeout=120.0,
        )
        assert _digest(got) == _digest(low)


def _tuned(workload, num_elements=1024, ranks=2):
    """The autotuner's pick for ``workload`` (as e2e tunes it)."""
    from repro.cluster import Cluster
    from repro.core.autotuner import Autotuner

    wl = workload.build(num_elements, ranks)
    return Autotuner(Cluster(1)).tune(wl.program).best.schedule


@needs_cc
class TestInPlaceFusedCollective:
    """The tuned fuse(RS-Opt-AG) module on the native target: one loop
    after the ReduceScatter, writing optimizer state where it lives."""

    @staticmethod
    def _fused_kernel(gen) -> str:
        (src,) = [
            text for text in gen.kernel_sources.values()
            if "comm.reducescatter(" in text
        ]
        return src

    @staticmethod
    def _assert_in_place(source: str) -> None:
        for name in ("m_", "v_", "p_"):
            assert f"V['{name}'] = np.empty(" not in source, name
        assert "np.copyto(T[" not in source
        assert ")[...] = " not in source
        assert "V['m_'] = T['m']\n" in source
        assert "V['v_'] = T['v']\n" in source
        assert "V['p_'] = dev.slice_of(T['p'], 0, _i, 2" in source
        assert "comm.allgather(V['p_'], G0_2, 0, out=T['p'])" in source

    def test_adam_one_loop_after_the_reducescatter(self):
        from repro.workloads.adam import AdamWorkload

        gen = CodeGenerator(target="native").generate(_tuned(AdamWorkload))
        kernel = self._fused_kernel(gen)
        assert kernel.count("_K.call(") == 1
        assert kernel.index("comm.reducescatter(") < kernel.index("_K.call(")
        assert gen.c_source.count("\nvoid ") == 1
        self._assert_in_place(gen.source)

    def test_lamb_one_loop_each_side_of_the_update_norm(self):
        from repro.workloads.lamb import LambWorkload

        gen = CodeGenerator(target="native").generate(_tuned(LambWorkload))
        kernel = self._fused_kernel(gen)
        calls = [m.start() for m in re.finditer(r"_K\.call\(", kernel)]
        exchanges = [
            m.start() for m in re.finditer(r"comm\.exchange_scalars", kernel)
        ]
        # w_norm's exchange, the RS, one loop, u_norm's exchange, one loop
        assert len(calls) == 2 and len(exchanges) == 2
        assert kernel.index("comm.reducescatter(") < calls[0]
        assert calls[0] < exchanges[1] < calls[1]
        self._assert_in_place(gen.source)

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_tuned_lamb_bit_identical(self, kernel_cache, target):
        from repro.cli import _seeded_inputs
        from repro.workloads.lamb import LambWorkload

        sched = _tuned(LambWorkload)
        inputs = _seeded_inputs(sched.program, seed=0)
        ex = Executor()
        low = ex.run_lowered(sched, inputs, allow_downcast=True)
        got = ex.run_spmd(
            sched, inputs, allow_downcast=True, codegen_target=target,
            timeout=120.0,
        )
        assert _digest(got) == _digest(low)


@needs_cc
class TestNativeFusedCollectiveFaults:
    """Faults at the tuned fuse(RS-Adam-AG) kernel's collectives on the
    native target: the compiled loop sits between the ReduceScatter and
    the AllGather, and a fault on either side leaves no segment fd or
    rank process behind."""

    # rank 1's publishes on the world site: the timing barrier (1), the
    # ReduceScatter before the loop (2) and the AllGather after it (3)
    @pytest.mark.parametrize("after", [2, 3])
    def test_die_recovers_elastic(self, kernel_cache, after):
        from repro.cli import _seeded_inputs
        from repro.observe import InstantEvent, Tracer
        from repro.workloads.adam import AdamWorkload

        from tests.spmd_leaks import children, spmd_segments

        def relower(ws):
            program = AdamWorkload.build(1024, ws).program
            return program, _seeded_inputs(program, seed=ws)

        sched = _tuned(AdamWorkload)
        before = set(spmd_segments())
        tracer = Tracer()
        res = Executor().run_spmd(
            sched, _seeded_inputs(sched.program, seed=0),
            allow_downcast=True, codegen_target="native",
            fault_plan=FaultPlan(seed=3).die(
                1, at_site="g", after=after
            ),
            soft_timeout=0.5, timeout=30.0, elastic=True, relower=relower,
            tracer=tracer,
        )
        (die,) = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.name == "die"
        ]
        assert (die.pid, die.args["seq"]) == ("rank1", after)
        assert res.elastic["world_size"] == 1
        # rank 0 closed cleanly (no view of a segment outlived its
        # kernel), so it ran the recovery itself
        assert res.elastic["reused_ranks"] == [0]
        assert res.elastic["spawned"] == 0
        program1, inputs1 = relower(1)
        oracle = Executor().run_lowered(
            program1, inputs1, allow_downcast=True
        )
        _assert_bit_identical(res, oracle)
        assert children() == []
        assert set(spmd_segments()) == before

    def test_consecutive_elastic_steps_on_one_executor(self, kernel_cache):
        # the second step's recovery record counts within its own call,
        # not from the executor's first launch
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        from tests.spmd_leaks import children, spmd_segments

        def relower(ws):
            program = AdamWorkload.build(1024, ws).program
            return program, _seeded_inputs(program, seed=ws)

        sched = _tuned(AdamWorkload)
        inputs = _seeded_inputs(sched.program, seed=0)
        program1, inputs1 = relower(1)
        oracle = Executor().run_lowered(
            program1, inputs1, allow_downcast=True
        )
        before = set(spmd_segments())
        with Executor() as ex:
            for _ in range(2):
                res = ex.run_spmd(
                    sched, inputs, allow_downcast=True,
                    codegen_target="native",
                    fault_plan=FaultPlan(seed=3).die(1, at_site="g"),
                    soft_timeout=0.5, timeout=30.0, elastic=True,
                    relower=relower,
                )
                assert res.elastic["world_size"] == 1
                assert res.elastic["reused_ranks"] == [0]
                assert res.elastic["spawned"] == 0
                _assert_bit_identical(res, oracle)
        assert children() == []
        assert set(spmd_segments()) == before

    def test_stall_completes_bit_identical(self, kernel_cache):
        from repro.cli import _seeded_inputs
        from repro.observe import InstantEvent, SpanEvent, Tracer
        from repro.workloads.adam import AdamWorkload

        from tests.spmd_leaks import children, spmd_segments

        sched = _tuned(AdamWorkload)
        inputs = _seeded_inputs(sched.program, seed=0)
        before = set(spmd_segments())
        tracer = Tracer()
        res = Executor().run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            fault_plan=FaultPlan(seed=3).stall_publish(
                "g", 0.05, rank=1, seq=2
            ),
            soft_timeout=0.005, timeout=30.0, tracer=tracer,
        )
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        _assert_bit_identical(res, low)
        stalls = [
            e for e in tracer.events
            if isinstance(e, InstantEvent) and e.cat == "stall"
        ]
        # rank 1 stalled its ReduceScatter publish, and rank 0
        # soft-retried while waiting for that slot
        assert any(
            e.pid == "rank1" and e.name.startswith("stall_publish")
            and e.args["seq"] == 2
            for e in tracer.events if isinstance(e, InstantEvent)
        )
        assert any(e.pid == "rank0" for e in stalls)
        reduces = [
            e for e in tracer.events
            if isinstance(e, SpanEvent) and e.cat == "reduce"
        ]
        assert sorted(e.pid for e in reduces) == ["rank0", "rank1"]
        assert children() == []
        assert set(spmd_segments()) == before


@needs_cc
class TestStructureKeyedKernels:
    """A kernel depends only on its program's fused structure: the
    loop's trip count travels in ``S[0]`` and functions are named by
    position, so one size or world size of a schedule emits the C of
    every other."""

    def test_tuned_adam_at_any_size_and_world_one_source(self):
        from repro.workloads.adam import AdamWorkload
        from repro.workloads.lamb import LambWorkload

        gen = CodeGenerator(target="native")
        two = gen.generate(_tuned(AdamWorkload, 4096, 2)).c_source
        one = gen.generate(_tuned(AdamWorkload, 8192, 1)).c_source
        lamb = gen.generate(_tuned(LambWorkload, 4096, 2)).c_source
        assert two == one
        assert native.source_key(two) == native.source_key(one)
        assert "void s0(char** A, double* S)" in two
        assert "n % 64" in two
        assert lamb != two
        assert native.source_key(lamb) != native.source_key(two)

    def test_ragged_trip_count_gets_no_hint(self, kernel_cache):
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        sched = _tuned(AdamWorkload, 200, 2)  # 100 elements a rank
        gen = CodeGenerator(target="native").generate(sched)
        assert "const long long n = (long long)S[0];" in gen.c_source
        assert "__builtin_unreachable" not in gen.c_source
        inputs = _seeded_inputs(sched.program, seed=0)
        ex = Executor()
        low = ex.run_lowered(sched, inputs, allow_downcast=True)
        got = ex.run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            timeout=120.0,
        )
        _assert_bit_identical(got, low)

    def test_elastic_step_compiles_once(self, kernel_cache):
        # the 2-rank launch compiles; its 1-rank recovery emits the
        # same source and finds it in the in-process memo
        from repro.cli import _seeded_inputs
        from repro.observe import InstantEvent, Tracer
        from repro.workloads.adam import AdamWorkload

        def relower(ws):
            sched = _tuned(AdamWorkload, 1024, ws)
            return sched, _seeded_inputs(sched.program, seed=ws)

        sched = _tuned(AdamWorkload)
        sched1, inputs1 = relower(1)
        oracle = Executor().run_lowered(sched1, inputs1, allow_downcast=True)
        before = native.metrics.snapshot()
        tracer = Tracer()
        res = Executor().run_spmd(
            sched, _seeded_inputs(sched.program, seed=0),
            allow_downcast=True, codegen_target="native",
            fault_plan=FaultPlan(seed=0).die(1, at_site="g"),
            soft_timeout=0.5, timeout=30.0, elastic=True, relower=relower,
            tracer=tracer,
        )
        after = native.metrics.snapshot()
        assert res.elastic["world_size"] == 1
        assert after.get("native.cache.compiles", 0) == (
            before.get("native.cache.compiles", 0) + 1
        )
        assert after.get("native.cache.memo_hits", 0) >= (
            before.get("native.cache.memo_hits", 0) + 1
        )
        compiles = [
            e.name.split(":")[0] for e in tracer.events
            if isinstance(e, InstantEvent) and e.cat == "compile"
            and e.pid == tracer.pid
        ]
        assert compiles == ["compile"]
        _assert_bit_identical(res, oracle)


_IO_SOURCE = native.PRELUDE + r"""
void diff(char** A, double* S) {
    const double* a = (const double*)A[0];
    const double* b = (const double*)A[1];
    double* o = (double*)A[2];
    (void)S;
    for (long long i = 0; i < 4; ++i) o[i] = a[i] - b[i];
}
"""


@needs_cc
class TestCompiledKernelsCall:
    def test_non_contiguous_inputs_are_read_from_copies(self, kernel_cache):
        k = native.load_kernels(_IO_SOURCE)
        x = np.arange(8.0)[::2]
        y = np.arange(8.0)[::2] * 10.0
        out = np.zeros(4)
        k.call("diff", (x, y), (), (out,))
        np.testing.assert_array_equal(out, x - y)

    def test_non_contiguous_output_is_refused(self, kernel_cache):
        # an output is often a tensor's own region: writing into a
        # contiguous copy would silently lose the write
        k = native.load_kernels(_IO_SOURCE)
        base = np.zeros(8)
        with pytest.raises(CodegenError, match="output 0 is not C-contig"):
            k.call("diff", (np.ones(4), np.ones(4)), (), (base[::2],))
        assert not base.any()


@needs_cc
class TestGemmsBitIdentical:
    """Every tier runs one GEMM (``dev.gemm``): bit for bit."""

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_moe_fp32_schedules_and_tuned_pick(self, kernel_cache, ranks):
        from repro.cli import _seeded_inputs
        from repro.cluster import Cluster
        from repro.core.autotuner import Autotuner
        from repro.core.dtypes import FP32
        from repro.workloads.moe import MoEWorkload

        wl = MoEWorkload.build(32, 32, 64, world_size=ranks, dtype=FP32)
        schedules = wl.schedules()
        assert schedules["overlapped"].lowered().chunk_loops()
        tuned = Autotuner(Cluster(1)).tune(wl.program).best
        schedules["tuned"] = tuned.schedule
        inputs = _seeded_inputs(wl.program, seed=0)
        ex = Executor()
        for name, sched in schedules.items():
            low = ex.run_lowered(sched, inputs, allow_downcast=True)
            nat = ex.run_spmd(
                sched, inputs, allow_downcast=True,
                codegen_target="native", timeout=120.0,
            )
            _assert_bit_identical(nat, low)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_fp64_gemm_overlap(self, kernel_cache, ranks):
        sched, inputs = _fp64_gemm_allreduce(overlapped=True, ranks=ranks)
        ex = Executor()
        low = ex.run_lowered(sched, inputs)
        nat = ex.run_spmd(
            sched, inputs, codegen_target="native", timeout=120.0
        )
        _assert_bit_identical(nat, low)

    @pytest.mark.parametrize("program", ["moe", "attention"])
    def test_fp16_contraction_512(self, kernel_cache, program):
        # a per-rank contraction of 512, where numpy's half matmul loop
        # rounds differently from dev.gemm: a tier multiplying in half
        # would digest apart
        from repro.cli import _seeded_inputs
        from repro.workloads.attention import AttentionWorkload
        from repro.workloads.moe import MoEWorkload

        if program == "moe":
            sched = MoEWorkload.build(64, 512, 128, 2).schedule_overlapped()
        else:
            sched = AttentionWorkload.build(2, 16, 1024, 2).schedule_coconet()
        inputs = _seeded_inputs(sched.program, seed=0)
        ex = Executor()
        digests = {
            _digest(ex.run_lowered(sched, inputs, allow_downcast=True))
        }
        for target in ("spmd", "native"):
            digests.add(_digest(ex.run_spmd(
                sched, inputs, allow_downcast=True, timeout=120.0,
                codegen_target=target,
            )))
        assert len(digests) == 1


def _every_op_program(dtype):
    """One output per Binary and per Unary op over two sliced operands,
    and inputs pairing ±0, ±inf, NaN, 65504, FP16 subnormals and
    random values with each other in both orders."""
    from repro.core import RANK, Execute, Sliced, Tensor, world
    from repro.core.ops import BINARY_OPS, UNARY_OPS, Binary, Unary

    w = world(2)
    x = Tensor(dtype, (256,), Sliced(0), w, RANK, name="x")
    y = Tensor(dtype, (256,), Sliced(0), w, RANK, name="y")
    outs = [Binary(op, x, y) for op in BINARY_OPS]
    outs += [Unary(op, x) for op in UNARY_OPS]
    special = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0, -65504.0,
        2.0 ** -24, -(2.0 ** -24), 3 * 2.0 ** -24, 1.0, -1.0, 0.5, 3.0,
    ])
    rand = np.random.default_rng(0).uniform(-4.0, 4.0, (2, 60))
    np_dt = dtype.to_numpy()
    inputs = {
        "x": np.concatenate([np.repeat(special, 14), rand[0]]).astype(np_dt),
        "y": np.concatenate([np.tile(special, 14), rand[1]]).astype(np_dt),
    }
    return Execute("every_op", [x, y], outs), inputs


@needs_cc
class TestEveryOpBitIdentical:
    """Every Binary and Unary op at every float dtype, on every tier:
    the C loop restates the device functions bit for bit, signed zeros
    and NaNs included."""

    @pytest.mark.parametrize("dtype", ["FP16", "FP32", "FP64"])
    def test_op_by_dtype(self, kernel_cache, dtype):
        from repro.core import dtypes

        program, inputs = _every_op_program(getattr(dtypes, dtype))
        ex = Executor()
        with np.errstate(all="ignore"):
            low = ex.run_lowered(program, inputs)
        for target in ("spmd", "native"):
            got = ex.run_spmd(
                program, inputs, codegen_target=target, timeout=120.0
            )
            for name in low.output_names:
                assert (
                    got.output(name).tobytes() == low.output(name).tobytes()
                ), (target, name)


@needs_cc
class TestGoldenArtifactsNative:
    """Committed goldens on the native backend vs the lowered oracle."""

    def _run_both(self, name, timeout=240.0):
        from repro.cli import _seeded_inputs

        art = artifact.load(os.path.join(GOLDEN, name))
        inputs = _seeded_inputs(art.program, seed=0)
        ex = Executor()
        low = ex.run_lowered(art, inputs, allow_downcast=True)
        nat = ex.run_spmd(
            art, inputs, allow_downcast=True, timeout=timeout,
            codegen_target="native",
        )
        return low, nat

    def test_adam_fused_bit_identical(self):
        # elementwise-only kernels: the compiled path must reproduce
        # the lowered interpreter bit-for-bit, digest included
        low, nat = self._run_both("adam_fused.repro.json")
        assert _digest(nat) == _digest(low)

    def test_moe_overlapped_bit_identical(self):
        # FP16 GEMMs are one dev.gemm on every tier, digest included
        low, nat = self._run_both("moe_overlapped.repro.json")
        assert _digest(nat) == _digest(low)


def _kept_program(name):
    """A golden artifact, or the autotuner's pick for a small LAMB or
    attention workload."""
    from repro.cluster import Cluster
    from repro.core.autotuner import Autotuner
    from repro.workloads.attention import AttentionWorkload
    from repro.workloads.lamb import LambWorkload

    if name == "lamb":
        return _tuned(LambWorkload)
    if name == "attention":
        wl = AttentionWorkload.build(2, 8, 64, 2)
        return Autotuner(Cluster(1)).tune(wl.program).best.schedule
    return artifact.load(os.path.join(GOLDEN, f"{name}.repro.json"))


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
class TestKeptSegment:
    """An ``Executor``'s second launch places into the data segment its
    first one left: no launch reads a byte it did not write."""

    @pytest.mark.parametrize("target", [
        "spmd", pytest.param("native", marks=needs_cc),
    ])
    @pytest.mark.parametrize(
        "name", ["adam_fused", "moe_overlapped", "lamb", "attention"]
    )
    def test_stale_bytes_are_never_read(self, kernel_cache, name, target):
        from repro.cli import _seeded_inputs

        from tests.spmd_leaks import spmd_segments

        sched = _kept_program(name)
        inputs = _seeded_inputs(sched.program, seed=0)
        before = set(spmd_segments())
        with Executor() as ex:
            low = ex.run_lowered(sched, inputs, allow_downcast=True)
            for launch in range(2):
                if launch:
                    # every byte of the kept data segment is stale
                    (fd,) = [
                        fd for fd, link in set(spmd_segments()) - before
                        if link.startswith("/memfd:spmd-data")
                    ]
                    size = os.fstat(fd).st_size
                    assert os.pwrite(fd, b"\xff" * size, 0) == size
                got = ex.run_spmd(
                    sched, inputs, allow_downcast=True,
                    codegen_target=target, timeout=120.0,
                )
                _assert_bit_identical(got, low)
        assert set(spmd_segments()) == before


def _gcc():
    """The C compiler when it is gcc, whose ``-fopt-info`` reports the
    vectorizer's decisions; else ``None``."""
    cc = native._find_cc()
    if cc is None:
        return None
    out = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=30
    ).stdout
    return cc if "Free Software Foundation" in out else None


@pytest.mark.skipif(_gcc() is None, reason="needs gcc's -fopt-info")
class TestLoopsVectorize:
    """Every loop the native target emits vectorizes at ``_CFLAGS``.

    One ``?:`` select on a floating-point result in the half
    conversions makes gcc leave a loop scalar, at half its speed, while
    every bit-identity test still passes.
    """

    @staticmethod
    def _scalar_loops(c_source, tmp_path):
        c_file = tmp_path / "kernels.c"
        c_file.write_text(c_source)
        proc = subprocess.run(
            [_gcc(), *native._CFLAGS, "-fopt-info-vec-optimized",
             "-o", str(tmp_path / "kernels.so"), str(c_file), "-lm"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        loops = {
            n for n, line in enumerate(c_source.splitlines(), 1)
            if line.lstrip().startswith("for (")
        }
        assert loops
        vectorized = {
            int(m.group(1)) for m in re.finditer(
                r"kernels\.c:(\d+):\d+: optimized: loop vectorized",
                proc.stderr,
            )
        }
        return sorted(loops - vectorized)

    def test_half_conversions(self, tmp_path):
        assert self._scalar_loops(_CONV_HARNESS, tmp_path) == []

    @pytest.mark.parametrize(
        "workload", ["adam", "lamb", "adam_world1", "moe_fp32"]
    )
    def test_tuned_optimizer_loops(self, tmp_path, workload):
        from repro.cluster import Cluster
        from repro.core.autotuner import Autotuner
        from repro.core.dtypes import FP32
        from repro.workloads.adam import AdamWorkload
        from repro.workloads.lamb import LambWorkload
        from repro.workloads.moe import MoEWorkload

        if workload == "moe_fp32":  # the moe_ep_overlap benchmark's kernel
            program = MoEWorkload.build(
                capacity=32, model_dim=32, ffn_dim=64, world_size=2,
                dtype=FP32,
            ).program
            sched = Autotuner(Cluster(1)).tune(program).best.schedule
        elif workload == "adam_world1":  # an elastic recovery's kernel
            sched = _tuned(AdamWorkload, ranks=1)
        else:
            wl = {"adam": AdamWorkload, "lamb": LambWorkload}[workload]
            sched = _tuned(wl)
        gen = CodeGenerator(target="native").generate(sched)
        assert self._scalar_loops(gen.c_source, tmp_path) == []


def _refuse(*args, **kwargs):
    raise AssertionError("toolchain probe ran")


class TestToolchainProbes:
    def test_report_names_numpys_blas_without_loading_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(ctypes, "CDLL", _refuse)
        blas = native.toolchain_report()["blas"]
        assert blas is None or isinstance(blas, str)
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        if deps["blas"].get("found"):
            assert blas.startswith(deps["blas"]["name"])

    @needs_cc
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="no /proc maps"
    )
    def test_rank_maps_only_the_kernel_object(self, kernel_cache):
        # a rank has numpy loaded; opening the kernels its launcher
        # resolved must map the kernel .so and nothing else (no BLAS,
        # no BLAS dependencies), and import none of the compile side
        src = native.PRELUDE + "\nvoid noop_i(char** A, double* S) {}\n"
        k = native.load_kernels(src)  # the launcher's compile
        child = textwrap.dedent(
            f"""
            import json
            import sys
            import numpy
            from repro.core.codegen.device import open_kernels

            def mapped():
                with open("/proc/self/maps") as f:
                    rows = (line.split(maxsplit=5) for line in f)
                    return {{r[5].strip() for r in rows if len(r) == 6}}

            before = mapped()
            assert open_kernels(*{(k.key, k.path, k.functions)!r})
            assert "repro.core.codegen.native" not in sys.modules
            print(json.dumps(sorted(mapped() - before)))
            """
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        assert json.loads(out) == [k.path]


@needs_cc
def _counted(tracer, suffix: str) -> float:
    """The sum of ``tracer``'s metrics named ``*<suffix>``, as
    ``benchmarks/bench_native.py`` adds them up."""
    snap = tracer.metrics.snapshot()
    return sum(v for k, v in snap.items() if k.endswith(suffix))


class TestParentCompile:
    """The launching process resolves kernels; its ranks only open them."""

    def _adam(self):
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        sched = AdamWorkload.build(64, 2).schedule_fused()
        return sched, _seeded_inputs(sched.program, seed=0)

    def _run(self, sched, inputs, **kwargs):
        return Executor().run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            **kwargs,
        )

    def test_cold_launch_compiles_once_in_the_parent(self, kernel_cache):
        # traced cold run, then traced warm run: the parent's compile
        # is one ``compile`` instant on the tracer's own track, and each
        # rank records one ``hit:`` (its dlopen) every time
        from repro.observe import InstantEvent, Tracer

        sched, inputs = self._adam()
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        for parent_instants in (["compile"], []):
            tracer = Tracer()
            before = native.metrics.get("native.cache.compiles")
            out = self._run(sched, inputs, tracer=tracer)
            assert _digest(out) == _digest(low)
            assert native.metrics.get("native.cache.compiles") == (
                before + len(parent_instants)
            )
            loads = [
                e for e in tracer.events
                if isinstance(e, InstantEvent) and e.cat == "compile"
            ]
            assert [
                e.name.split(":")[0] for e in loads if e.pid == tracer.pid
            ] == parent_instants
            ranks = sorted(
                (e.pid, e.name.split(":")[0])
                for e in loads if e.pid != tracer.pid
            )
            assert ranks == [("rank0", "hit"), ("rank1", "hit")]
            assert _counted(tracer, ".kernel_compiles") == len(
                parent_instants
            )
            assert _counted(tracer, ".kernel_cache_hits") == 2

    def test_warm_run_that_recompiles_counts_its_compile(self, kernel_cache):
        # the metric bench_native gates warm runs on: a run after a warm
        # one that has to compile again (its object evicted) counts it
        from repro.observe import Tracer

        sched, inputs = self._adam()
        self._run(sched, inputs)
        tracer = Tracer()
        self._run(sched, inputs, tracer=tracer)
        assert _counted(tracer, ".kernel_compiles") == 0
        gen = CodeGenerator(target="native").generate(sched)
        os.remove(os.path.join(
            native.cache_dir(), native.source_key(gen.c_source) + ".so"
        ))
        tracer = Tracer()
        self._run(sched, inputs, tracer=tracer)
        assert _counted(tracer, ".kernel_compiles") == 1
        assert _counted(tracer, ".compile_seconds") > 0

    def test_slow_compile_is_not_charged_to_the_rendezvous(
        self, kernel_cache, monkeypatch
    ):
        # the compile ends before any rank gets its spec, so a compile
        # slower than every rendezvous deadline still succeeds
        compile_ = native._compile

        def slow(c_source, so_path):
            time.sleep(2.0)
            compile_(c_source, so_path)

        monkeypatch.setattr(native, "_compile", slow)
        sched, inputs = self._adam()
        out = self._run(sched, inputs, timeout=1.0)
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(out) == _digest(low)

    def test_stale_object_recompiled_once(self, kernel_cache):
        # a loadable object of other source, planted under this
        # module's key: the parent rejects it and recompiles once
        sched, inputs = self._adam()
        gen = CodeGenerator(target="native").generate(sched)
        other = native.PRELUDE + "\nvoid noop_j(char** A, double* S) {}\n"
        stale = native.load_kernels(other).path
        shutil.copy(stale, os.path.join(
            native.cache_dir(), native.source_key(gen.c_source) + ".so"
        ))
        before = native.metrics.snapshot()
        out = self._run(sched, inputs)
        after = native.metrics.snapshot()
        for counter in ("native.cache.recompiles", "native.cache.compiles"):
            assert after.get(counter, 0) == before.get(counter, 0) + 1
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(out) == _digest(low)
