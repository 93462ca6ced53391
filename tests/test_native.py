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
  library's ``dev.gemm``, or on the pointer plane the C that makes
  ``dev.gemm``'s ``sgemm`` calls, checked against it by bytes.
"""

import contextlib
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
from repro.core.codegen.generator import _ring_overlap
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


#: a ``$CC`` that refuses ``-march=native`` and is ``cc`` otherwise
_NO_NATIVE_CC = """#!/bin/sh
for a in "$@"; do
    if [ "$a" = "-march=native" ]; then
        echo "error: bad value 'native' for '-march='" >&2
        exit 1
    fi
done
exec {cc} "$@"
"""


@needs_cc
class TestHostTarget:
    """Kernels are built for the CPU ``-march=native`` resolves to, and
    the cache key names that CPU: an object built for one CPU's
    instructions is never another host's hit."""

    @pytest.fixture
    def fresh_probe(self, monkeypatch):
        monkeypatch.setattr(native, "_TOOLCHAINS", {})

    def test_resolved_targets_key_apart(self, kernel_cache, monkeypatch):
        cc = native._find_cc()
        found = native._toolchain(cc)
        src = native.PRELUDE + "/* isa */"
        keys = {}
        for name in ("cooperlake", "znver3"):
            target = (f"-march={name}", "-mavx2", "-mno-avx512f")
            monkeypatch.setitem(
                native._TOOLCHAINS, cc, found._replace(target=target)
            )
            keys[name] = native.source_key(src)
            assert native.source_key(src) == keys[name]
            assert native.compile_flags()[-1] == "-march=native"
            assert native.toolchain_report()["target"] == name
        assert keys["cooperlake"] != keys["znver3"]
        # the same CPU name with one feature fewer (a VM masking it) is
        # another target too
        monkeypatch.setitem(native._TOOLCHAINS, cc, found._replace(
            target=("-march=cooperlake", "-mno-avx2", "-mno-avx512f")
        ))
        assert native.source_key(src) not in keys.values()

    def test_compiler_rejecting_native_keeps_the_baseline(
        self, kernel_cache, fresh_probe, monkeypatch, tmp_path
    ):
        wrapper = tmp_path / "no-native-cc"
        wrapper.write_text(_NO_NATIVE_CC.format(cc=native._find_cc()))
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        assert native.compile_flags() == native._CFLAGS
        assert native.toolchain_report()["target"] == "default"
        src = native.PRELUDE + "\nvoid noop_n(char** A, double* S) {}\n"
        # the key without a target: compiler path, identity and flags
        version = subprocess.run(
            [str(wrapper), "--version"], capture_output=True, text=True,
            check=True,
        ).stdout.splitlines()[0]
        want = hashlib.sha256(
            src.encode() + b"\x00" + str(wrapper).encode()
            + version.encode() + " ".join(native._CFLAGS).encode()
        ).hexdigest()
        assert native.source_key(src) == want
        # the wrapper fails any compile given -march=native
        k = native.load_kernels(src)
        assert os.path.basename(k.path) == want + ".so"
        k.call("noop_n", (np.zeros(1),))

    def test_probe_runs_once_per_process(
        self, kernel_cache, fresh_probe, monkeypatch
    ):
        probes = []
        run = subprocess.run

        def counted(args, *rest, **kwargs):
            if "--version" in args:
                probes.append(args)
            return run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        src = native.PRELUDE + "\nvoid noop_p(char** A, double* S) {}\n"
        native.source_key(src)
        first = len(probes)
        # one process where the compiler shows its target, and a plain
        # --version after it only where it does not
        if native.compile_flags() != native._CFLAGS:
            assert first == 1
        assert 1 <= first <= 2
        native.source_key(src)
        native.toolchain_report()
        native.compile_flags()
        native.load_kernels(src)
        native._MEMO.clear()
        native.load_kernels(src)
        assert len(probes) == first

    def test_cc1_line_parsing(self):
        line = (' /usr/lib/gcc/x86_64-linux-gnu/12/cc1 -E -quiet /dev/null'
                ' "-march=cooperlake" -mavx2 -mno-sse4a --param'
                ' l1-cache-size=48 -mtune=generic -dumpbase null')
        assert native._cc1_target("Target: x86_64\n" + line + "\n") == (
            "-march=cooperlake", "-mavx2", "-mno-sse4a", "-mtune=generic"
        )
        # unresolved, or no cc1 line at all (clang stops at --version)
        unresolved = line.replace('"-march=cooperlake"', "-march=native")
        assert native._cc1_target(unresolved) == ()
        assert native._cc1_target("clang version 17.0.6\n") == ()


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

    def test_one_form_of_native_module(self):
        # a native module is a pointer module, or exactly the module the
        # spmd target emits, with no C
        from repro.core import dtypes
        from repro.workloads.adam import AdamWorkload
        from repro.workloads.attention import AttentionWorkload
        from repro.workloads.lamb import LambWorkload
        from repro.workloads.moe import MoEWorkload
        from repro.workloads.pipeline import PipelineWorkload

        from tests import test_codegen_extra as extra

        programs = []
        for wl in (
            AdamWorkload.build(64, 2), LambWorkload.build(64, 4),
            PipelineWorkload.build(2, 4, 16, 4),
            AttentionWorkload.build(2, 8, 64, 2),
            MoEWorkload.build(3, 6, 8, 2),
        ):
            programs += list(wl.schedules().values())
        programs += [
            make()[0] for name, make in vars(extra).items()
            if name.endswith("_program")
        ]
        for dt in (dtypes.FP16, dtypes.FP32, dtypes.FP64):
            programs += [_every_op_program(dt)[0], _c_op_program(dt)[0]]
        programs += [_fp64_gemm_allreduce(ov)[0] for ov in (False, True)]
        planes = set()
        for sched in programs:
            gen = CodeGenerator(target="native").generate(sched)
            planes.add(gen.plane)
            if gen.plane != "pointer":
                assert gen.c_source is None
                assert gen.source == CodeGenerator().generate(sched).source
        assert planes == {"pointer", "numpy"}

    def test_matmul_emits_no_c_function(self):
        # an FP64 GEMM is the device library's dev.gemm on every tier
        # (the C GEMM calls sgemm): this program compiles nothing
        sched, _ = _fp64_gemm_allreduce(overlapped=False)
        gen = CodeGenerator(target="native").generate(sched)
        assert gen.c_source is None
        assert "dev.gemm(" in gen.source


#: an input copied before any kernel runs, on either data plane
_COPIED = re.compile(
    r"V\['(\w+)'\] = (?:T\['\1'\]\.copy\(\)|comm\.copy\(T\['\1'\], \d+\))"
)


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
        assert gen.plane == "pointer"
        # every read of m, v and p is upstream of the write that
        # updates it in place: no input needs a private copy
        assert _COPIED.findall(gen.source) == []
        assert "V['g'] = T['g']\n" in gen.source
        # every rank checks that each state it returns is its input
        # region (the same address), updated in place or never written
        gen.source += textwrap.dedent(
            """
            _run_rank = run_rank


            def run_rank(comm, inputs):
                outputs, states = _run_rank(comm, inputs)
                assert sorted(states) == ["g", "m", "p", "v"]
                for name, value in states.items():
                    assert value == inputs[name], name
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
        # u1 cannot be stored where x lives: the native module is the
        # spmd target's, whose u1 is an array of its own
        gen = CodeGenerator(target="native").generate(prog)
        assert gen.c_source is None
        assert gen.source == CodeGenerator().generate(prog).source
        assert "V['u1'] = V[" in gen.source
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
        assert _COPIED.findall(gen.source) == ["x"]
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
    def _assert_in_place(source: str, pointer: bool = False) -> None:
        for name in ("m_", "v_", "p_"):
            assert f"V['{name}'] = np.empty(" not in source, name
            assert f"V['{name}'] = comm.alloc(" not in source, name
        assert "np.copyto(T[" not in source
        assert ")[...] = " not in source
        assert "V['m_'] = T['m']\n" in source
        assert "V['v_'] = T['v']\n" in source
        if pointer:
            # this rank's dim-0 rows of p, and the gather into p itself
            assert "V['p_'] = T['p'] + _i * 1024\n" in source
            assert (
                "comm.allgather(V['p_'], RANKS_G0_2, 1024, out=T['p'])"
            ) in source
        else:
            assert "V['p_'] = dev.slice_of(T['p'], 0, _i, 2" in source
            assert "comm.allgather(V['p_'], G0_2, 0, out=T['p'])" in source

    def test_adam_one_loop_after_the_reducescatter(self):
        # the 0-d prologue (s0) and the one loop (s1) run after the RS,
        # which folds by the source's own helper
        from repro.workloads.adam import AdamWorkload

        gen = CodeGenerator(target="native").generate(_tuned(AdamWorkload))
        assert gen.plane == "pointer"
        kernel = self._fused_kernel(gen)
        calls = [m.start() for m in re.finditer(r"_K\.call\(", kernel)]
        assert len(calls) == 2
        assert kernel.index("comm.reducescatter(") < calls[0]
        assert "'fold_sum_f16_f16'" in kernel
        assert re.findall(r"^void (\w+)\(", gen.c_source, re.M) == [
            "fold_sum_f16_f16", "s0", "s1",
        ]
        s0 = gen.c_source[gen.c_source.index("void s0"):]
        assert s0.count("for (") == 1  # s1's loop; s0 has none
        self._assert_in_place(gen.source, pointer=True)

    def test_lamb_one_loop_each_side_of_the_update_norm(self):
        from repro.workloads.lamb import LambWorkload

        gen = CodeGenerator(target="native").generate(_tuned(LambWorkload))
        assert gen.plane == "pointer"
        kernel = self._fused_kernel(gen)
        # the functions with a loop of their own: not the 0-d ones
        looped = [
            m.group(1) for m in re.finditer(
                r"^void (s\d+)\(.*?\n}\n", gen.c_source, re.M | re.S
            ) if "for (" in m.group(0)
        ]
        calls = [kernel.index(f"_K.call('{fn}'") for fn in looped]
        exchanges = [
            m.start()
            for m in re.finditer(r"comm\.allgather\(_part, ", kernel)
        ]
        # w_norm's exchange, the RS, one loop, u_norm's exchange, one loop
        assert len(calls) == 2 and len(exchanges) == 2
        assert exchanges[0] < kernel.index("comm.reducescatter(") < calls[0]
        assert calls[0] < exchanges[1] < calls[1]
        self._assert_in_place(gen.source, pointer=True)

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
    native target, whose ranks run the pointer data plane: the compiled
    loop sits between the ReduceScatter and the AllGather, and a fault
    on either side leaves no segment fd or rank process behind."""

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
        # kernel), so it ran the recovery itself, without numpy
        assert res.elastic["reused_ranks"] == [0]
        assert res.elastic["spawned"] == 0
        assert res.spmd_rank_kinds == {0: ("pointer", False)}
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
                assert res.spmd_rank_kinds == {0: ("pointer", False)}
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
        assert _kinds(res) == {("pointer", False)}
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


#: the fold checks' operands: signed zeros, infinities,
#: NaN, FP16's largest finite value and values whose sum overflows it,
#: FP16 subnormals and its smallest normal, and plain numbers
_SPECIAL = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0, -65504.0, 60000.0,
    2.0 ** -24, -(2.0 ** -24), 3 * 2.0 ** -24, 2.0 ** -14, 1.0, -1.0,
    0.5, 3.0,
])


def _fold_rows(dtype, k):
    """``k`` rank rows of ``dtype``: every combination of three
    :data:`_SPECIAL` values across the first three ranks (a fourth rank
    repeats the first, shifted), then random values large enough that
    FP16 sums overflow."""
    n = len(_SPECIAL)
    combos = np.array(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"))
    combos = combos.reshape(3, -1)
    rng = np.random.default_rng(k)
    rows = []
    for r in range(k):
        pick = _SPECIAL[combos[r % 3]]
        if r == 3:
            pick = np.roll(pick, 1)
        rand = rng.normal(0.0, 3e4, 1024)
        with np.errstate(over="ignore"):
            rows.append(np.concatenate([pick, rand]).astype(dtype))
    return rows


@needs_cc
class TestPointerPlaneNumerics:
    """The C a pointer module adds to its source, against the numerics
    every other tier runs: the fold helpers against ``fold_ranks`` then
    ``astype``, and the 0-d prologue against ``device.binary`` and
    ``device.unary``."""

    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
    def test_fold_helpers_are_fold_ranks(self, kernel_cache, dtype):
        from repro.runtime.collectives import fold_ranks

        uint = {2: np.uint16, 4: np.uint32, 8: np.uint64}
        for op, (kind, _, _) in native.FOLDS.items():
            short = native._SHORT[dtype]
            name = f"fold_{kind}_{short}_{short}"
            k = native.load_kernels(
                native.PRELUDE + native.FOLD_NAN
                + native._fold_source(name, op, dtype, dtype)
            )
            for ranks in (1, 2, 3, 4):
                rows = _fold_rows(dtype, ranks)
                n = rows[0].size
                acc = np.empty(n, np.float64)
                out = np.empty(n, dtype)
                for r, row in enumerate(rows):
                    k.call(name, (row, acc), (n, r, ranks), (out,))
                with np.errstate(all="ignore"):
                    want = fold_ranks(
                        np.empty(n, np.float64), rows, op
                    ).astype(dtype)
                bits = uint[out.itemsize]
                np.testing.assert_array_equal(
                    out.view(bits), want.view(bits),
                    err_msg=f"{op} over {ranks} ranks",
                )

    #: the optimizers' betas (FP32 constants) and the step counts
    BETAS = (0.9, 0.999)
    STEPS = (0.0, 1.0, 2.0, 1000.0, 2.0 ** 24)

    def test_c_pow_is_numpys_float64_power(self, kernel_cache):
        # the prologue's pow is libm's; numpy's float64 power may be a
        # SIMD loop of its own. Both must agree on every beta and step
        # count the optimizers use, to the last bit
        src = native.PRELUDE + native.POW + textwrap.dedent(
            """
            void p(char** A, double* S) {
                double* out = (double*)A[0];
                out[0] = pow(S[0], S[1]);
            }
            """
        )
        k = native.load_kernels(src)
        out = np.empty(1)
        for beta in self.BETAS:
            for b in (beta, float(np.float32(beta))):
                for t in self.STEPS:
                    k.call("p", (), (b, t), (out,))
                    want = np.power(np.float64(b), np.float64(t))
                    assert out.view(np.uint64)[0] == np.float64(
                        want
                    ).view(np.uint64), (b, t)

    @pytest.mark.parametrize("dtype", ["FP16", "FP32"])
    def test_prologue_ops_bit_identical(self, kernel_cache, dtype):
        # a program of 0-d ops only: pow with each beta, then the
        # bias correction's '-', a '/' and a sqrt, run as a pointer
        # module's prologue and by run_lowered, for every step count
        from repro.core import (
            Binary, Const, Execute, Pow, Scalar, Sqrt, dtypes, world,
        )

        dt = getattr(dtypes, dtype)
        W = world(2)
        t = Scalar(dt, name="t", group=W)
        x = Scalar(dt, name="x", group=W)
        outs = []
        for beta in self.BETAS:
            powed = Pow(Const(beta, W, dt), t)
            corr = Binary("-", Const(1.0, W, dt), powed)
            outs += [powed, corr, Binary("/", x, corr), Sqrt(corr / x)]
        assert {o.dtype for o in outs} == {dt}
        program = Execute("prologue", [t, x], outs)
        gen = CodeGenerator(target="native").generate(program)
        assert gen.plane == "pointer"
        assert "pow(" in gen.c_source and "for (" not in gen.c_source
        with Executor() as ex:
            for step in self.STEPS:
                for value in (0.0, -0.0, np.inf, np.nan, 2.0 ** -24, 3.0):
                    inputs = {"t": step, "x": value}
                    # 2^24 overflows an FP16 step to inf, on both sides
                    with np.errstate(all="ignore"):
                        low = ex.run_lowered(
                            program, inputs, allow_downcast=True
                        )
                        got = ex.run_spmd(
                            program, inputs, allow_downcast=True,
                            codegen_target="native", timeout=60.0,
                        )
                    assert set(got.spmd_rank_kinds.values()) == {
                        ("pointer", False)
                    }
                    assert _digest(got) == _digest(low), (step, value)


class _InProcessRank:
    """Just enough of :class:`~repro.runtime.rank.PointerCommunicator`
    to run a one-rank pointer module without collectives in this
    process: every buffer is a numpy array, kept by its address."""

    rank = 0

    def __init__(self) -> None:
        self.buffers = {}

    def alloc(self, nbytes):
        buf = np.zeros(max(1, nbytes), np.uint8)
        self.buffers[buf.ctypes.data] = buf
        return buf.ctypes.data

    def kernel_span(self, name):
        return contextlib.nullcontext()


def _run_pointer_module(program, inputs):
    """The outputs of ``program``'s one-rank pointer module, run in this
    process on the arrays ``inputs``: its C, no rank process."""
    gen = CodeGenerator(target="native").generate(program)
    assert gen.plane == "pointer"
    namespace = {}
    exec(gen.source, namespace)
    namespace["_K"] = native.load_kernels(gen.c_source)
    comm = _InProcessRank()
    arrays = {k: np.ascontiguousarray(v) for k, v in inputs.items()}
    outputs, _ = namespace["run_rank"](
        comm, {k: a.ctypes.data for k, a in arrays.items()}
    )
    return {
        o.name: comm.buffers[outputs[o.name]][: o.per_rank_bytes()]
        .view(o.dtype.to_numpy()).reshape(o.per_rank_shape())
        for o in program.outputs
    }


def _replicated(arrays):
    """One-rank tensors named and shaped like the numpy ``arrays``."""
    from repro.core import Replicated, Tensor, dtypes, world

    dtype = {"float16": dtypes.FP16, "float32": dtypes.FP32}
    return [
        Tensor(dtype[a.dtype.name], a.shape, Replicated, world(1), name=n)
        for n, a in arrays.items()
    ]


@needs_cc
class TestHalfNanPayloads:
    """numpy's float64 -> float16 cast keeps a NaN's top ten payload
    bits (forced nonzero): so do ``repro_d2h`` and every FP16 result of
    a C loop."""

    def test_d2h_keeps_every_half_nan_payload(self, kernel_cache):
        k = native.load_kernels(_CONV_HARNESS)
        halves = np.arange(65536, dtype=np.uint16)
        nans = halves[np.isnan(halves.view(np.float16))]
        assert len(nans) == 2046
        # and doubles whose payload lies below a half's ten bits
        low = np.arange(1, 1 << 12, dtype=np.uint64) | np.uint64(
            0x7FF0000000000000
        )
        vals = np.concatenate([
            nans.view(np.float16).astype(np.float64),
            low.view(np.float64),
            (low | np.uint64(1 << 63)).view(np.float64),
        ])
        out = np.empty(len(vals), dtype=np.uint16)
        k.call("conv_d2h", (vals, out), (float(len(vals)),))
        np.testing.assert_array_equal(
            out, vals.astype(np.float16).view(np.uint16)
        )
        np.testing.assert_array_equal(out[: len(nans)], nans)

    def test_payload_nan_sums_and_products_are_device_binary(
        self, kernel_cache
    ):
        # every FP16 NaN + and * a number, in both operand orders, is
        # device.binary's to the byte (the loop of attention's `+ r`)
        from repro.core import Binary, Execute
        from repro.core.codegen import device

        halves = np.arange(65536, dtype=np.uint16)
        nans = halves[np.isnan(halves.view(np.float16))].view(np.float16)
        one, two = (np.full(len(nans), v, np.float16) for v in (1.0, 2.0))
        x = np.concatenate([nans, nans])
        y = np.concatenate([one, two])
        tx, ty = _replicated({"x": x, "y": y})
        outs = [
            Binary(op, *pair) for op in ("+", "*")
            for pair in ((tx, ty), (ty, tx))
        ]
        got = _run_pointer_module(
            Execute("payloads", [tx, ty], outs), {"x": x, "y": y}
        )
        with np.errstate(invalid="ignore"):
            for e in outs:
                a, b = (x, y) if e.inputs[0] is tx else (y, x)
                want = device.binary(e.op, a, b, np.float16)
                assert got[e.name].tobytes() == want.tobytes(), e

    def test_two_payload_nans_keep_one_of_them(self, kernel_cache):
        # with two NaN operands numpy's own choice depends on where the
        # element falls in its SIMD loop (the first operand in whole
        # vectors, the second in a long array's tail on AVX-512), so
        # no tier can promise either one: each result is one operand's
        # NaN, quieted, its ten payload bits kept
        from repro.core import Binary, Execute

        halves = np.arange(65536, dtype=np.uint16)
        nans = halves[np.isnan(halves.view(np.float16))]
        x, y = nans.view(np.float16), np.roll(nans, 1).view(np.float16)
        tx, ty = _replicated({"x": x, "y": y})
        outs = [
            Binary(op, *pair) for op in ("+", "*")
            for pair in ((tx, ty), (ty, tx))
        ]
        got = _run_pointer_module(
            Execute("nan_pairs", [tx, ty], outs), {"x": x, "y": y}
        )
        quiet = [v.view(np.uint16) | np.uint16(0x0200) for v in (x, y)]
        for e in outs:
            bits = got[e.name].view(np.uint16)
            assert ((bits == quiet[0]) | (bits == quiet[1])).all(), e


def _gemm_operand(shape, dtype, seed):
    """Normal random values of scale 4, of ``dtype``."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 4.0).astype(dtype)


#: every FP16 bit pattern once, in order: the rows hold subnormals,
#: normals up to 65504, infinities and NaN payloads (sNaNs included)
_ALL_HALVES = np.arange(65536, dtype=np.uint16).view(np.float16)


@needs_cc
@pytest.mark.skipif(
    native.blas() is None, reason="no BLAS with a known sgemm mapped"
)
class TestCGemm:
    """A pointer module's GEMM, C calling numpy's own ``sgemm`` per
    leading batch, against :func:`repro.core.codegen.device.gemm`, by
    bytes."""

    @staticmethod
    def _check(a, b):
        from repro.core import Execute, MatMul
        from repro.core.codegen import device

        ta, tb = _replicated({"a": a, "b": b})
        mm = MatMul(ta, tb, name="mm")
        got = _run_pointer_module(
            Execute("gemm", [ta, tb], [mm]), {"a": a, "b": b}
        )["mm"]
        with np.errstate(all="ignore"):
            want = device.gemm(a, b, mm.dtype.to_numpy())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtypes", [
        ("float16", "float16"), ("float32", "float32"),
        ("float16", "float32"),
    ])
    @pytest.mark.parametrize("ashape, n", [
        ((64, 128), 256),
        ((4, 64, 128), 256),
        ((3, 7, 129), 33),   # one flattened sgemm would block apart
        ((2, 5, 1000), 7),   # K beyond OpenBLAS's blocking
        ((17, 2000), 3),
    ])
    def test_shapes(self, kernel_cache, dtypes, ashape, n):
        a = _gemm_operand(ashape, dtypes[0], 0)
        b = _gemm_operand((ashape[-1], n), dtypes[1], 1)
        self._check(a, b)

    def test_every_half_pattern_in_a(self, kernel_cache):
        b = _gemm_operand((128, 16), np.float16, 2)
        self._check(_ALL_HALVES.reshape(4, 128, 128), b)

    def test_every_half_pattern_in_b(self, kernel_cache):
        a = _gemm_operand((2, 8, 256), np.float16, 3)
        self._check(a, _ALL_HALVES.reshape(256, 256))

    def test_fp32_special_values(self, kernel_cache):
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38, 1e-45,
             -1e-45, 1.0, -1.0, 0.5], dtype=np.float32,
        )
        nan = np.array([0x7F800001, 0xFFC00123], np.uint32).view(np.float32)
        a = _gemm_operand((3, 6, 14), np.float32, 4)
        a.reshape(-1)[: 14 * 14] = np.resize(
            np.concatenate([special, nan]), 14 * 14
        )
        b = _gemm_operand((14, 14), np.float32, 5)
        b[3] = np.resize(np.concatenate([nan, special]), 14)
        self._check(a, b)


def _plane(program) -> str:
    return CodeGenerator(target="native").generate(program).plane


class TestPointerReady:
    """What gives a native program the ``spmd`` target's module, on the
    numpy data plane: a GEMM that numpy would not run as plain ``sgemm``
    calls, a Dropout sliced or an AllToAll exchanging on another
    dimension than 0, an op or reduction the C does not restate. Each
    case has a control that differs in that one respect and runs on the
    pointer plane. The ring GEMM overlap, P2P and norms run there too."""

    needs_blas = pytest.mark.skipif(
        native.blas() is None, reason="no BLAS with a known sgemm mapped"
    )

    @staticmethod
    def _matmul(ashape, bshape=None):
        """``a @ b``, or ``a @ a`` without ``bshape``."""
        from repro.core import (
            FP16, Execute, MatMul, Replicated, Tensor, world,
        )

        a = b = Tensor(FP16, ashape, Replicated, world(1), name="a")
        if bshape is not None:
            b = Tensor(FP16, bshape, Replicated, world(1), name="b")
        return Execute("mm", [a] if b is a else [a, b], [MatMul(a, b)])

    @needs_blas
    def test_vector_operand_keeps_numpy(self):
        assert _plane(self._matmul((8, 16), (16, 1))) == "numpy"
        assert _plane(self._matmul((1, 16), (16, 4))) == "numpy"
        assert _plane(self._matmul((8, 16), (16, 4))) == "pointer"

    @needs_blas
    def test_syrk_shaped_pair_keeps_numpy(self):
        assert _plane(self._matmul((16, 16))) == "numpy"
        assert _plane(self._matmul((16, 16), (16, 16))) == "pointer"

    @pytest.mark.parametrize("dim, plane", [(2, "numpy"), (0, "pointer")])
    def test_dropout_sliced_on_dim(self, dim, plane):
        from repro.core import (
            FP16, RANK, Dropout, Execute, Sliced, Tensor, world,
        )

        x = Tensor(FP16, (4, 4, 8), Sliced(dim), world(2), RANK, name="x")
        program = Execute("drop", [x], [Dropout(x, 0.1, seed=5)])
        assert _plane(program) == plane

    @pytest.mark.parametrize("dim, plane", [(1, "numpy"), (0, "pointer")])
    def test_alltoall_on_dim(self, dim, plane):
        from repro.core import (
            FP32, RANK, AllToAll, Binary, Execute, Local, Tensor, world,
        )

        shape = (4, 3) if dim == 0 else (3, 4)
        x = Tensor(FP32, shape, Local, world(2), RANK, name="x")
        a2a = AllToAll(x, dim)
        program = Execute("a2a", [x], [Binary("+", a2a, a2a)])
        assert _plane(program) == plane

    @needs_blas
    def test_ring_chunk_loop_runs_on_the_pointer_plane(self):
        # the ring GEMM overlap's producer stream publishes chunks of
        # runs; a tiled chunk loop only calls its members in order
        from repro.workloads.attention import AttentionWorkload
        from repro.workloads.moe import MoEWorkload

        ring = AttentionWorkload.build(2, 8, 64, 2).schedule_coconet()
        tiled = MoEWorkload.build(3, 6, 8, 2).schedule_overlapped()
        for sched, ringed in ((ring, True), (tiled, False)):
            (loop,) = sched.lowered().chunk_loops()
            assert _ring_overlap(loop) == ringed
            assert _plane(sched) == "pointer"
        assert "comm.begin_chunked(RANKS_G0_2, _staging, " in (
            CodeGenerator(target="native").generate(ring).source
        )

    @pytest.mark.parametrize("op, plane", [
        ("+", "pointer"), ("max", "numpy"), ("min", "numpy"), ("*", "numpy"),
    ])
    def test_reduce_tensor_by_op(self, op, plane):
        from repro.core import (
            FP32, RANK, Execute, ReduceTensor, Sliced, Tensor, world,
        )

        x = Tensor(FP32, (8, 4), Sliced(0), world(2), RANK, name="x")
        program = Execute("reduce", [x], [ReduceTensor(op, x)])
        assert _plane(program) == plane

    @pytest.mark.parametrize("op, plane", [
        ("sqrt", "pointer"), ("tanh", "numpy"), ("exp", "numpy"),
    ])
    def test_unary_by_op(self, op, plane):
        from repro.core import FP32, Execute, Replicated, Tensor, world
        from repro.core.ops import Unary

        x = Tensor(FP32, (16,), Replicated, world(2), name="x")
        assert _plane(Execute("unary", [x], [Unary(op, x)])) == plane

    @pytest.mark.parametrize("name, plane", [
        ("MegatronLM", "pointer"), ("GShard-Eq", "pointer"),
        ("CoCoNet", "pointer"), ("AR-C-P2P-AG", "numpy"),
    ])
    def test_pipeline_p2p(self, name, plane):
        # AR-C-P2P-AG slices and gathers on dim 1
        from repro.workloads.pipeline import PipelineWorkload

        sched = PipelineWorkload.build(2, 4, 16, 4).schedules()[name]
        assert _plane(sched) == plane


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


def _c_op_program(dtype):
    """:func:`_every_op_program` with only the ops the C loop restates,
    plus a Cast to every float dtype."""
    from repro.core import RANK, Execute, Sliced, Tensor, dtypes, world
    from repro.core.ops import Binary, Cast, Unary

    _, inputs = _every_op_program(dtype)
    w = world(2)
    x = Tensor(dtype, (256,), Sliced(0), w, RANK, name="x")
    y = Tensor(dtype, (256,), Sliced(0), w, RANK, name="y")
    outs = [Binary(op, x, y) for op in native._C_BINARY]
    outs += [Unary(op, x) for op in native._C_UNARY]
    outs += [Cast(to, x) for to in (dtypes.FP16, dtypes.FP32, dtypes.FP64)]
    return Execute("c_ops", [x, y], outs), inputs


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


    @pytest.mark.parametrize("dtype", ["FP16", "FP32", "FP64"])
    def test_c_ops_on_the_pointer_plane(self, kernel_cache, dtype):
        # only the ops the C loop restates, and every cast: the native
        # module is a pointer module, and its C keeps every bit
        from repro.core import dtypes

        program, inputs = _c_op_program(getattr(dtypes, dtype))
        assert CodeGenerator(target="native").generate(program).plane == (
            "pointer"
        )
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


def _tuned_attention(ranks):
    """The autotuner's pick for a small attention whose batch splits
    over ``ranks`` (dim-0 slices)."""
    from repro.cluster import Cluster
    from repro.core.autotuner import Autotuner
    from repro.workloads.attention import AttentionWorkload

    wl = AttentionWorkload.build(4, 8, 64, ranks)
    return Autotuner(Cluster(1)).tune(wl.program).best.schedule


def _moe_schedule(name):
    """A MoE schedule with a tiled chunk loop: the golden overlapped one
    (4 ranks, FP16), the same schedule at 2 ranks, or the autotuner's
    pick for the e2e MoE at smoke size (FP32, 2 ranks)."""
    from repro.cluster import Cluster
    from repro.core.autotuner import Autotuner
    from repro.core.dtypes import FP32
    from repro.workloads.moe import MoEWorkload

    if name == "moe_overlapped":
        return _kept_program(name)
    if name == "overlapped2":
        return MoEWorkload.build(3, 6, 8, 2).schedule_overlapped()
    wl = MoEWorkload.build(32, 32, 64, 2, dtype=FP32)
    return Autotuner(Cluster(1)).tune(wl.program).best.schedule


def _kinds(result):
    """The set of ``(data plane, numpy imported)`` its ranks reported."""
    return set(result.spmd_rank_kinds.values())


@needs_cc
class TestRankKinds:
    """Each rank reports which data plane ran and whether numpy was
    imported: a pointer module's ranks never import it, every other
    module's ranks do."""

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_tuned_adam_ranks_never_import_numpy(self, kernel_cache, ranks):
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        sched = _tuned(AdamWorkload, 1024, ranks)
        inputs = _seeded_inputs(sched.program, seed=0)
        got = Executor().run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            timeout=60.0,
        )
        assert sorted(got.spmd_rank_kinds) == list(range(ranks))
        assert _kinds(got) == {("pointer", False)}
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(got) == _digest(low)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_tuned_attention_ranks_never_import_numpy(
        self, kernel_cache, ranks
    ):
        # the GEMM calls numpy's own sgemm from C and the Dropout is a
        # C loop: the tuned attention runs on the pointer plane
        from repro.cli import _seeded_inputs

        sched = _tuned_attention(ranks)
        assert not sched.lowered().chunk_loops()
        inputs = _seeded_inputs(sched.program, seed=0)
        with Executor() as ex:
            got = ex.run_spmd(
                sched, inputs, allow_downcast=True,
                codegen_target="native", timeout=60.0,
            )
            low = ex.run_lowered(sched, inputs, allow_downcast=True)
        assert sorted(got.spmd_rank_kinds) == list(range(ranks))
        assert _kinds(got) == {("pointer", False)}
        assert _digest(got) == _digest(low)

    @pytest.mark.parametrize(
        "name", ["overlapped2", "moe_overlapped", "tuned_e2e"]
    )
    def test_moe_ranks_never_import_numpy(self, kernel_cache, name):
        # the AllToAll moves dim-0 chunks between addresses and a tiled
        # chunk loop calls its members in order: MoE runs on the
        # pointer plane, at 2 and 4 ranks
        from repro.cli import _seeded_inputs

        sched = _moe_schedule(name)
        if name != "tuned_e2e":
            (loop,) = sched.lowered().chunk_loops()
            assert not loop.ring
        program = getattr(sched, "program", sched)
        inputs = _seeded_inputs(program, seed=0)
        with Executor() as ex:
            got = ex.run_spmd(
                sched, inputs, allow_downcast=True,
                codegen_target="native", timeout=60.0,
            )
            low = ex.run_lowered(sched, inputs, allow_downcast=True)
        assert sorted(got.spmd_rank_kinds) == list(
            range(program.inputs[0].group.size)
        )
        assert _kinds(got) == {("pointer", False)}
        assert _digest(got) == _digest(low)

    @pytest.mark.parametrize("name", [
        "lamb:AR-LAMB", "lamb:RS-LAMB-AG", "lamb:fuse(RS-LAMB-AG)",
        "pipeline:MegatronLM", "pipeline:GShard-Eq", "pipeline:CoCoNet",
        "attention:CoCoNet",
    ])
    def test_norms_p2p_and_ring_ranks_never_import_numpy(
        self, kernel_cache, name
    ):
        # LAMB's norms, the pipeline's P2P and attention's ring GEMM
        # overlap run on the pointer plane
        from repro.cli import _seeded_inputs
        from repro.workloads.attention import AttentionWorkload
        from repro.workloads.lamb import LambWorkload
        from repro.workloads.pipeline import PipelineWorkload

        workload, schedule = name.split(":")
        wl = {
            "lamb": lambda: LambWorkload.build(1024, 2),
            "pipeline": lambda: PipelineWorkload.build(2, 4, 16, 4),
            "attention": lambda: AttentionWorkload.build(2, 8, 64, 2),
        }[workload]()
        sched = wl.schedules()[schedule]
        inputs = _seeded_inputs(sched.program, seed=0)
        with Executor() as ex:
            got = ex.run_spmd(
                sched, inputs, allow_downcast=True,
                codegen_target="native", timeout=60.0,
            )
            low = ex.run_lowered(sched, inputs, allow_downcast=True)
        assert _kinds(got) == {("pointer", False)}
        assert _digest(got) == _digest(low)

    def test_elastic_recovery_on_the_adopted_rank(self, kernel_cache):
        # rank 1 dies at the timing barrier; rank 0, which never
        # imported numpy, runs the world-size-1 recovery without it
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        def relower(ws):
            program = _tuned(AdamWorkload, 1024, ws)
            return program, _seeded_inputs(program.program, seed=ws)

        sched = _tuned(AdamWorkload)
        got = Executor().run_spmd(
            sched, _seeded_inputs(sched.program, seed=0),
            allow_downcast=True, codegen_target="native",
            fault_plan=FaultPlan(seed=1).die(1, at_site="g"),
            soft_timeout=0.5, timeout=30.0, elastic=True, relower=relower,
        )
        assert got.elastic["world_size"] == 1
        assert got.elastic["reused_ranks"] == [0]
        assert got.spmd_rank_kinds == {0: ("pointer", False)}
        sched1, inputs1 = relower(1)
        low = Executor().run_lowered(sched1, inputs1, allow_downcast=True)
        assert _digest(got) == _digest(low)

    def test_pointer_rank_imports_no_dataclasses(self, kernel_cache):
        # a fault plan reaches the rank as its plain-data view, and the
        # module builds no ProcessGroup: neither module, nor typing or
        # dataclasses, is imported; by the Adam, attention and MoE ranks
        from repro.cli import _seeded_inputs
        from repro.runtime.spmd import RankPool
        from repro.workloads.adam import AdamWorkload

        never = {
            "numpy", "typing", "dataclasses", "repro.runtime.faults",
            "repro.core.process_group",
        }
        with RankPool() as pool:
            for sched in (
                _tuned(AdamWorkload), _tuned_attention(2),
                _moe_schedule("tuned_e2e"),
            ):
                gen = CodeGenerator(target="native").generate(sched)
                source = gen.source.replace(
                    "    return outputs, states\n",
                    "    import sys\n"
                    f"    assert not set(sys.modules) & {never!r}\n"
                    "    return outputs, states\n",
                    1,
                )
                assert source != gen.source
                gen.source = source
                got = pool.launch(
                    gen, _seeded_inputs(sched.program, seed=0),
                    allow_downcast=True, timeout=60.0,
                    fault_plan=FaultPlan(seed=1).stall_publish("g", 0.0),
                )
                assert _kinds(got) == {("pointer", False)}

    @pytest.mark.parametrize("name", [
        "pipeline_ar_c_p2p_ag", "every_op", "adam_spmd",
    ])
    def test_other_modules_import_numpy(self, kernel_cache, name):
        # native programs the C does not restate (the pipeline's slices
        # and gathers on dim 1, tanh, exp and array pow) get the spmd
        # target's module, and so does the spmd target
        from repro.cli import _seeded_inputs
        from repro.core.dtypes import FP32
        from repro.workloads.pipeline import PipelineWorkload

        target = "native"
        if name == "adam_spmd":
            sched, target = _kept_program("adam_fused"), "spmd"
        elif name == "every_op":
            sched = _every_op_program(FP32)[0]
        else:
            wl = PipelineWorkload.build(2, 4, 16, 4)
            sched = wl.schedules()["AR-C-P2P-AG"]
        gen = CodeGenerator(target=target).generate(sched)
        assert gen.plane == "numpy"
        program = getattr(sched, "program", sched)
        with np.errstate(all="ignore"):
            got = Executor().run_spmd(
                sched, _seeded_inputs(program, seed=0), allow_downcast=True,
                codegen_target=target, timeout=120.0,
            )
        assert _kinds(got) == {("numpy", True)}

    @pytest.mark.parametrize("first", ["adam", "lamb"])
    def test_an_idle_rank_runs_the_other_plane(self, kernel_cache, first):
        # the clean survivor of a failed launch on one data plane runs a
        # module of the other one, bit-identical to run_lowered: a
        # pointer rank imports numpy once a numpy module's spec arrives
        from repro.cli import _seeded_inputs
        from repro.runtime.rank import SpmdWorkerError
        from repro.runtime.spmd import RankPool
        from repro.workloads.adam import AdamWorkload
        from repro.workloads.lamb import LambWorkload

        from tests.spmd_leaks import children, spmd_segments

        # the native Adam is a pointer module, the spmd LAMB a numpy one
        workloads = {"adam": AdamWorkload, "lamb": LambWorkload}
        targets = {"adam": "native", "lamb": "spmd"}
        second = "lamb" if first == "adam" else "adam"
        failing = CodeGenerator(target=targets[first]).generate(
            _tuned(workloads[first])
        )
        sched = _tuned(workloads[second], 1024, 1)
        recovery = CodeGenerator(target=targets[second]).generate(sched)
        assert {failing.plane, recovery.plane} == {"pointer", "numpy"}
        inputs = _seeded_inputs(sched.program, seed=1)
        before = set(spmd_segments())
        with RankPool() as pool:
            with pytest.raises(SpmdWorkerError, match="rank 1 died"):
                pool.launch(
                    failing, _seeded_inputs(failing.program, seed=0),
                    allow_downcast=True, soft_timeout=0.5, timeout=30.0,
                    fault_plan=FaultPlan(seed=1).die(1, at_site="g"),
                )
            assert len(pool.idle) == 1
            got = pool.launch(
                recovery, inputs, allow_downcast=True, timeout=60.0
            )
            assert pool.started == 2  # rank 0 ran both
        assert children() == []
        assert set(spmd_segments()) == before
        # numpy came in with the numpy module, before it or after
        assert got.spmd_rank_kinds == {0: (recovery.plane, True)}
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(got) == _digest(low)


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
    """Every loop of the optimizers' and MoE's kernels vectorizes at the
    flags kernels ship with, ``native.compile_flags()``. (A GEMM
    function's loops, its per-batch ``sgemm`` calls and conversions, are
    scalar by choice, marked ``REPRO_SCALAR``; and numpy's pairwise sum,
    which LAMB's norms restate, adds its last fewer than 8 loads one
    after another, an in-order float sum the compiler may leave scalar.)

    One ``?:`` select on a floating-point result in the half
    conversions makes gcc leave a loop scalar, at half its speed, while
    every bit-identity test still passes.
    """

    @staticmethod
    def _scalar_loops(c_source, tmp_path):
        c_file = tmp_path / "kernels.c"
        c_file.write_text(c_source)
        proc = subprocess.run(
            [_gcc(), *native.compile_flags(), "-fopt-info-vec-optimized",
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

    @staticmethod
    def _marked_scalar(c_source):
        """The functions marked ``REPRO_SCALAR``, and the function each
        source line belongs to."""
        lines = c_source.splitlines()
        marked, owner, fn = set(), {}, None
        for n, line in enumerate(lines, 1):
            m = re.match(r"void (\w+)\(char\*\* A, double\* S\)", line)
            if m:
                fn = m.group(1)
                if lines[n - 2] == "REPRO_SCALAR":
                    marked.add(fn)
            owner[n] = fn
        return marked, owner

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
        # only the GEMM functions, those the module hands numpy's sgemm,
        # may keep their loops scalar
        marked, owner = self._marked_scalar(gen.c_source)
        gemms = set(re.findall(r"_K\.call\('(\w+)', \([^)]*_K\.sgemm\)",
                               gen.source))
        assert marked == gemms
        scalar = self._scalar_loops(gen.c_source, tmp_path)
        in_turn = {
            n for n, line in enumerate(gen.c_source.splitlines(), 1)
            if line.strip().startswith("for (; i < n; ++i) s += ")
        }
        assert [
            n for n in scalar if owner[n] not in marked and n not in in_turn
        ] == []
        if workload == "moe_fp32":  # its ReLU and scale loops vectorize
            assert len(gemms) == 2
            assert {owner[n] for n in scalar} == gemms


#: the prelude's ISA-sensitive helpers, each over arrays: the max/min
#: selects, the fold's NaN rule, the u64 -> double conversion and Dropout
_ISA_HARNESS = (
    _CONV_HARNESS + native.HALF_MINMAX + native.DROPOUT + native.FOLD_NAN
    + native._fold_source("fold_sum_f16_f16", "+", "float16", "float16")
    + native._fold_source("fold_sum_f64_f64", "+", "float64", "float64")
    + r"""
void select(char** A, double* S) {
    const double* a = (const double*)A[0];
    const double* b = (const double*)A[1];
    double* mx = (double*)A[2];
    double* mn = (double*)A[3];
    double* hmx = (double*)A[4];
    double* hmn = (double*)A[5];
    const long long n = (long long)S[0];
    for (long long i = 0; i < n; ++i) mx[i] = repro_max(a[i], b[i]);
    for (long long i = 0; i < n; ++i) mn[i] = repro_min(a[i], b[i]);
    for (long long i = 0; i < n; ++i) hmx[i] = repro_hmax(a[i], b[i]);
    for (long long i = 0; i < n; ++i) hmn[i] = repro_hmin(a[i], b[i]);
}
void u2d(char** A, double* S) {
    const uint64_t* in = (const uint64_t*)A[0];
    double* out = (double*)A[1];
    const long long n = (long long)S[0];
    for (long long i = 0; i < n; ++i) out[i] = (double)in[i];
}
void dropout(char** A, double* S) {
    const double* x = (const double*)A[0];
    const uint64_t* index = (const uint64_t*)A[1];
    double* out = (double*)A[2];
    const long long n = (long long)S[0];
    const uint64_t key = ((uint64_t)S[1] << 32) | (uint64_t)S[2];
    for (long long i = 0; i < n; ++i)
        out[i] = repro_dropout(x[i], index[i], key, S[3], S[4]);
}
"""
)


def _payload_nans(dtype, seed):
    """NaNs of ``dtype`` with random payloads and signs, some quiet and
    some signalling, then ordinary values."""
    bits = {np.float16: np.uint16, np.float64: np.uint64}[dtype]
    width = np.dtype(bits).itemsize * 8
    mant = {16: 10, 64: 52}[width]
    rng = np.random.default_rng(seed)
    payload = rng.integers(1, 1 << min(mant, 62), 4096, dtype=np.uint64)
    payload = payload & np.uint64((1 << mant) - 1)
    payload[payload == 0] = 1
    exp = np.uint64(((1 << (width - 1 - mant)) - 1) << mant)
    sign = rng.integers(0, 2, 4096, dtype=np.uint64) << np.uint64(width - 1)
    nans = (sign | exp | payload).astype(bits).view(dtype)
    return np.concatenate([nans, rng.normal(0.0, 4.0, 4096).astype(dtype)])


@needs_cc
@pytest.mark.skipif(
    native.available()
    and not native._toolchain(native._find_cc()).target,
    reason="-march=native is not resolved here: one flag set only",
)
class TestHostIsaBitIdentical:
    """The host's instruction set keeps every bit: each check builds
    its C twice, at the baseline flags and at the host's, and compares
    the results by bytes (``+ - * / sqrt`` and conversions round alike
    at every vector width, and ``-ffp-contract=off`` forbids FMAs)."""

    @staticmethod
    @contextlib.contextmanager
    def _baseline():
        """The compiler as if it refused ``-march=native``."""
        cc = native._find_cc()
        host = native._toolchain(cc)
        native._TOOLCHAINS[cc] = host._replace(target=())
        try:
            yield
        finally:
            native._TOOLCHAINS[cc] = host

    def _both(self, source):
        """``source`` built at the baseline flags, then the host's."""
        with self._baseline():
            baseline = native.load_kernels(source)
        host = native.load_kernels(source)
        assert baseline.path != host.path
        return baseline, host

    def _same(self, kernels, name, inputs, outputs, scalars=()):
        got = []
        for k in kernels:
            outs = [np.empty_like(o) for o in outputs]
            k.call(name, inputs, scalars, outs)
            got.append([o.tobytes() for o in outs])
        assert got[0] == got[1], name

    def test_half_conversions(self, kernel_cache):
        kernels = self._both(_ISA_HARNESS)
        halves = np.arange(65536, dtype=np.uint16)
        self._same(kernels, "conv_h2d", (halves,), (np.empty(65536),))
        exact = halves.view(np.float16).astype(np.float64)
        finite = exact[np.isfinite(exact)]
        mids = (finite[:-1] + finite[1:]) / 2.0
        doubles = np.concatenate([
            exact, mids, np.nextafter(mids, np.inf),
            np.nextafter(mids, -np.inf), _payload_nans(np.float64, 1),
            np.random.default_rng(2).normal(0.0, 1e4, 65536),
        ])
        self._same(
            kernels, "conv_d2h", (doubles,),
            (np.empty(len(doubles), np.uint16),), (len(doubles),),
        )

    @pytest.mark.parametrize("dtype", [np.float16, np.float64])
    def test_fold_keeps_the_first_nan(self, kernel_cache, dtype):
        kernels = self._both(_ISA_HARNESS)
        short = native._SHORT[np.dtype(dtype).name]
        name = f"fold_sum_{short}_{short}"
        rows = [_payload_nans(dtype, 3), _payload_nans(dtype, 4)]
        rows.append(np.roll(rows[0], 7))
        n = rows[0].size
        got = []
        for k in kernels:
            acc, out = np.empty(n), np.empty(n, dtype)
            for r, row in enumerate(rows):
                k.call(name, (row, acc), (n, r, len(rows)), (out,))
            got.append(out.tobytes())
        assert got[0] == got[1]

    def test_signed_zero_ties_in_max_and_min(self, kernel_cache):
        kernels = self._both(_ISA_HARNESS)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
        a = np.repeat(special, len(special))
        b = np.tile(special, len(special))
        a, b = np.tile(a, 9), np.tile(b, 9)  # past a vector's width
        self._same(
            kernels, "select", (a, b), [np.empty(len(a))] * 4, (len(a),)
        )

    def test_dropout_on_indices_past_2_63(self, kernel_cache):
        kernels = self._both(_ISA_HARNESS)
        rng = np.random.default_rng(5)
        top = np.uint64(1 << 63)
        index = np.concatenate([
            np.arange(4096, dtype=np.uint64) + top - np.uint64(2048),
            np.arange(2048, dtype=np.uint64) + np.uint64(2 ** 64 - 2048),
            rng.integers(0, 2 ** 63, 4096, dtype=np.uint64) | top,
        ])
        self._same(
            kernels, "u2d", (index,), (np.empty(len(index)),),
            (len(index),),
        )
        x = rng.normal(0.0, 4.0, len(index))
        for p in (0.1, 0.5, 0.9):
            self._same(
                kernels, "dropout", (x, index), (np.empty(len(index)),),
                (len(index), 0x9E3779B9, 0x7F4A7C15, p, 1.0 / (1.0 - p)),
            )

    def _run_both(self, program, inputs):
        """``_digest`` of a native run at the baseline flags, then at
        the host's, each on its own compile."""
        digests = []
        compiles = native.metrics.snapshot().get("native.cache.compiles", 0)
        with Executor() as ex:
            for flags in (self._baseline, contextlib.nullcontext):
                with flags(), np.errstate(all="ignore"):
                    digests.append(_digest(ex.run_spmd(
                        program, inputs, allow_downcast=True,
                        codegen_target="native", timeout=120.0,
                    )))
        snap = native.metrics.snapshot()
        assert snap["native.cache.compiles"] == compiles + 2
        return digests

    @pytest.mark.parametrize("dtype", ["FP16", "FP32", "FP64"])
    def test_every_op(self, kernel_cache, dtype):
        # every op the C restates: the every-op program's tanh, exp and
        # array pow give it the spmd target's module, which compiles none
        from repro.core import dtypes

        program, inputs = _c_op_program(getattr(dtypes, dtype))
        baseline, host = self._run_both(program, inputs)
        assert baseline == host

    @pytest.mark.parametrize("workload", ["adam", "attention"])
    def test_tuned_pointer_modules(self, kernel_cache, workload):
        # op chains, where an FMA would round once instead of twice: the
        # tuned Adam's loop and attention's GEMM, Dropout and fold
        from repro.cli import _seeded_inputs
        from repro.workloads.adam import AdamWorkload

        sched = (
            _tuned(AdamWorkload, num_elements=4096) if workload == "adam"
            else _tuned_attention(2)
        )
        inputs = _seeded_inputs(sched.program, seed=3)
        baseline, host = self._run_both(sched, inputs)
        assert baseline == host


def _sum_harness() -> str:
    """The C of a native program's norm and sum of an FP16 and an FP32
    value: every partial and total helper those dtypes call."""
    from repro.core import (
        FP16, FP32, Execute, Norm, ReduceTensor, Replicated, Tensor, world,
    )

    xs = [
        Tensor(dt, (16,), Replicated, world(1), name=f"x{dt.name}")
        for dt in (FP16, FP32)
    ]
    outs = [Norm(x) for x in xs] + [ReduceTensor("+", x) for x in xs]
    gen = CodeGenerator(target="native").generate(Execute("sums", xs, outs))
    assert gen.plane == "pointer"
    return gen.c_source


def _sum_cases(dtype, shape, seed):
    """``shape`` arrays of ``dtype`` for the sums: normals with ±0,
    subnormals and ±65504 scattered in, then the same with ±inf, with
    one payload NaN (no tier promises which of two NaNs a sum keeps),
    and all signed zeros of either sign."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    special = np.array([
        0.0, -0.0, 65504.0, -65504.0, 2.0 ** -24, -(2.0 ** -24),
        3 * 2.0 ** -24, 2.0 ** -149, -(2.0 ** -149),
    ])
    base = rng.normal(0.0, 4.0, size)
    at = rng.choice(size, min(size, 3 * len(special)), replace=False)
    base[at] = np.resize(special, len(at))
    base = base.astype(dtype)
    infs = base.copy()
    infs[rng.choice(size, min(size, 2), replace=False)] = [np.inf, -np.inf][
        : min(size, 2)
    ]
    nan = base.copy()
    bits, quiet = {
        np.float16: (np.uint16, 0x7E00), np.float32: (np.uint32, 0x7FC00000),
    }[dtype]
    payload = quiet | 0x8000 << (np.dtype(bits).itemsize * 8 - 16) | 0x155
    nan[rng.integers(size)] = np.array(payload).astype(bits).view(dtype)
    return [
        a.reshape(shape) for a in (
            base, infs, nan, np.full(size, -0.0, dtype),
            np.zeros(size, dtype),
        )
    ]


@needs_cc
class TestCSums:
    """The C that restates numpy's float64 sum: each partial and total
    helper against ``dev.partial``, ``dev.reduce_local`` and
    ``dev.total``, by bytes, built at the baseline and the host flags."""

    SHAPES = ((2 ** 20,), (512, 512), (3, 1000, 7), (7,), (8,), (129,),
              (4097,))

    @pytest.mark.parametrize("flags", ["baseline", "host"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_partial_local_and_total(self, kernel_cache, flags, dtype):
        from repro.core.codegen import device as dev

        with (
            TestHostIsaBitIdentical._baseline() if flags == "baseline"
            else contextlib.nullcontext()
        ):
            k = native.load_kernels(_sum_harness())
        short = native._SHORT[np.dtype(dtype).name]
        part, out = np.empty(1), np.empty(1, dtype)
        for i, shape in enumerate(self.SHAPES):
            for x in _sum_cases(dtype, shape, i):
                for op, name in (("norm", "norm"), ("+", "sum")):
                    with np.errstate(all="ignore"):
                        want = dev.partial(x, op)
                        local = dev.reduce_local(x, op, dtype)
                    k.call(f"partial_{name}_{short}", (x,), (x.size,), (part,))
                    assert part.tobytes() == np.float64(want).tobytes(), (
                        shape, op, x.flat[:4],
                    )
                    k.call(f"total_{name}_{short}", (part,), (1,), (out,))
                    assert out.tobytes() == local.tobytes(), (shape, op)
                    # the partials of rank rows, totalled in rank order
                    rows = np.array_split(x.reshape(-1), 4)
                    with np.errstate(all="ignore"):
                        parts = [dev.partial(r, op) for r in rows]
                        total = dev.total(parts, op, dtype)
                    k.call(
                        f"total_{name}_{short}", (np.array(parts),),
                        (len(parts),), (out,),
                    )
                    assert out.tobytes() == total.tobytes(), (shape, op)


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
            from repro.runtime.rank import open_kernels

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

        def slow(*args):
            time.sleep(2.0)
            compile_(*args)

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
