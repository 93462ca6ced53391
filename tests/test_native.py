"""The native compiled codegen target and its content-hash kernel cache.

Three layers of coverage:

* **Numerics** — the C prelude's half<->double conversions are checked
  bit-for-bit against numpy over the *entire* fp16 space (and a sweep
  of doubles for the rounding direction), because the native target's
  bit-identity claim rests on them.
* **Cache** — cold compile, in-process memo hit, disk hit with zero
  compiles, and a corrupt ``.so`` being deleted and recompiled once,
  all against an isolated ``REPRO_KERNEL_CACHE``.
* **Golden artifacts** — the committed ``tests/golden/*.repro.json``
  execute on the native backend: the elementwise-only fused-Adam
  artifact must match the lowered interpreter's SHA-256 digest exactly;
  the GEMM-bearing MoE artifact is held to the documented BLAS
  tolerance (see EXPERIMENTS.md, "Native codegen").
"""

import ctypes
import ctypes.util
import hashlib
import os
import re
import textwrap

import numpy as np
import pytest

from repro.core import artifact
from repro.core.codegen import CodeGenerator, native
from repro.errors import CodegenError
from repro.runtime import Executor

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
        assert native.cold_compile_allowance(src) == 0.0

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

    def test_cold_compile_allowance_nonzero_then_zero(self, kernel_cache):
        src = native.PRELUDE + "\nvoid noop_c(char** A, double* S) {}\n"
        assert native.cold_compile_allowance(src) > 0.0
        native.load_kernels(src)
        assert native.cold_compile_allowance(src) == 0.0

    def test_observer_receives_cache_outcomes(self, kernel_cache):
        src = native.PRELUDE + "\nvoid noop_d(char** A, double* S) {}\n"
        seen = []

        class Obs:
            def record_compile(self, name, seconds, status):
                seen.append((name, status))

        native.load_kernels(src, observer=Obs())
        native._MEMO.clear()
        native.load_kernels(src, observer=Obs())
        assert [s for _, s in seen] == ["compile", "hit"]

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
        assert "_ensure_native(comm)" in gen.source
        assert "_K.call(" in gen.source
        assert "repro_bind_blas" in gen.c_source


@needs_cc
class TestRankDataPath:
    def test_adam_copies_only_updated_inputs_and_states_stay_regions(
        self, kernel_cache
    ):
        from repro.cli import _seeded_inputs
        from repro.runtime.spmd import launch
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
        nat = launch(gen, inputs, allow_downcast=True, timeout=240.0)
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert _digest(nat) == _digest(low)

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


class TestTimeoutAllowance:
    def test_scaled_default_timeout_gains_allowance(self):
        from repro.runtime.spmd import (
            DEFAULT_TIMEOUT,
            SpmdLayout,
            scaled_default_timeout,
        )

        layout = SpmdLayout(nranks=2)
        assert scaled_default_timeout(layout, 0.0) == DEFAULT_TIMEOUT
        assert (
            scaled_default_timeout(layout, 0.0, compile_allowance_s=45.0)
            == DEFAULT_TIMEOUT + 45.0
        )
        # negative allowances never shrink the deadline
        assert (
            scaled_default_timeout(layout, 0.0, compile_allowance_s=-5.0)
            == DEFAULT_TIMEOUT
        )


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

    def test_moe_overlapped_within_blas_tolerance(self):
        # GEMM-bearing: BLAS reassociates the K-dim accumulation, so
        # the contract is the documented fp16 tolerance, not bitwise
        low, nat = self._run_both("moe_overlapped.repro.json")
        for name in low.output_names:
            a = low.output(name).astype(np.float64)
            b = nat.output(name).astype(np.float64)
            np.testing.assert_allclose(
                b, a, rtol=1e-2, atol=1e-3, err_msg=name
            )


@needs_cc
class TestBlasBinding:
    def test_gemm_matches_numpy_f64(self, kernel_cache):
        # a dgemm through the injected pointer (or the tiled fallback)
        src = native.PRELUDE + r"""
void gg(char** A, double* S) {
    (void)S;
    repro_gemm_f64((const double*)A[0], (const double*)A[1],
                   (double*)A[2], 7LL, 5LL, 11LL);
}
"""
        k = native.load_kernels(src)
        rng = np.random.RandomState(3)
        a = rng.standard_normal((7, 11))
        b = rng.standard_normal((11, 5))
        out = np.empty((7, 5))
        k.call("gg", (a, b, out))
        np.testing.assert_allclose(out, a @ b, rtol=1e-12, atol=1e-14)

    def test_bind_blas_symbol_exported(self, kernel_cache):
        src = native.PRELUDE + "\nvoid noop_e(char** A, double* S) {}\n"
        k = native.load_kernels(src)
        assert hasattr(k._lib, "repro_bind_blas")
        assert isinstance(k._lib.repro_bind_blas, ctypes._CFuncPtr)


def _refuse(*args, **kwargs):
    raise AssertionError("toolchain probe ran")


@pytest.fixture
def fresh_toolchain(monkeypatch):
    """Empty toolchain memos, as in a freshly started rank process."""
    monkeypatch.setattr(native, "_CC_VERSION", {})
    monkeypatch.setattr(native, "_BLAS", [])
    monkeypatch.setattr(native, "_PRIMED_BLAS", [])


class TestToolchainProbes:
    def test_repro_blas_wins_without_probing_the_rest(
        self, fresh_toolchain, monkeypatch
    ):
        blas = native._load_blas()
        if blas is None:
            pytest.skip("no BLAS on this machine")
        monkeypatch.setattr(native, "_BLAS", [])
        monkeypatch.setenv("REPRO_BLAS", blas.path)
        monkeypatch.setattr(ctypes.util, "find_library", _refuse)
        assert native._load_blas().path == blas.path

    @needs_cc
    def test_primed_rank_loads_warm_kernels_without_probes(
        self, kernel_cache, fresh_toolchain, monkeypatch
    ):
        import subprocess

        src = native.PRELUDE + "\nvoid noop_f(char** A, double* S) {}\n"
        record = native.toolchain_record()
        assert record["cc"] == native._find_cc()
        unprimed = native.load_kernels(src)  # probes, compiles, caches
        # a fresh rank: empty memos, primed from the launcher's record
        native._MEMO.clear()
        monkeypatch.setattr(native, "_CC_VERSION", {})
        monkeypatch.setattr(native, "_BLAS", [])
        native.prime(record)
        monkeypatch.setattr(subprocess, "run", _refuse)
        monkeypatch.setattr(ctypes.util, "find_library", _refuse)
        before = native.metrics.snapshot()
        primed = native.load_kernels(src)
        after = native.metrics.snapshot()
        assert after.get("native.cache.disk_hits", 0) == (
            before.get("native.cache.disk_hits", 0) + 1
        )
        assert primed.key == unprimed.key
        assert primed.blas == unprimed.blas

    def test_unloadable_record_falls_back_to_probing(self, fresh_toolchain):
        native.prime({"cc": None, "cc_version": None,
                      "blas": ["/nonexistent/libcblas.so"]})
        probed = native._first_blas(native._blas_candidates())
        loaded = native._load_blas()
        assert (loaded and loaded.path) == (probed and probed.path)
