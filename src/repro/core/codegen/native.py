"""Native compiled codegen target: C kernels + a content-hash cache.

The SPMD backend executes generated *Python* per rank, so after PR 5
the interpreter is the hot path: every elementwise op pays a float64
temporary and a full memory pass, and fp16 GEMMs fall into numpy's
generic (BLAS-less) inner loop. This module renders the compute parts
of a :class:`~repro.core.lower.LoweredProgram` kernel to C — maximal
runs of elementwise ops fused into a *single* loop per segment, GEMMs
dispatched to BLAS — compiles them with ``cc`` into one shared object
per module, and memoizes the objects in an on-disk content-addressed
kernel cache (tinygrad's hash→compile→``lru_cache`` pipeline, DaCe's
build-folder flow).

Bit-identity contract
---------------------
The Python emission computes ``+ - * / pow sqrt rsqrt tanh exp`` in
float64 (operands upcast via ``astype(np.float64)``) and casts the
result to the expression dtype; ``max/min/relu/abs`` and ``Cast``
operate on the native-dtype values directly. The C loop mirrors this
exactly: every value is carried as a ``double``, each expression's
result is rounded to its declared dtype domain immediately
(``(double)(float)x`` for fp32, a correctly-rounded half round-trip
for fp16), comparisons/abs are exact on the upconverted doubles, and
``max``/``min`` use numpy's ``(a > b || isnan(a)) ? a : b`` formula.
fp16 conversions implement IEEE round-to-nearest-even from the double
— the same single-step rounding numpy's ``astype(np.float16)`` does —
so elementwise-only programs are **bit-identical** to ``run_lowered``.
GEMMs go to BLAS (or a naive tiled fallback) whose accumulation order
differs from ``np.matmul``; those carry the documented fp tolerance
(see EXPERIMENTS.md, "Native codegen").

Kernel cache
------------
``~/.cache/repro/kernels/<sha256>.so`` (override with
``$REPRO_KERNEL_CACHE``), keyed by SHA-256 over the C source plus the
compiler identity and flags. Writes are concurrent-safe through
:mod:`repro.store` — every rank process of a cold-cache run compiles
behind a ``flock`` and installs via atomic ``os.replace`` — and
stale/corrupt entries (unloadable or missing the expected symbols) are
deleted and recompiled once.
Hit/miss/compile-time counters land in :data:`metrics` (a
:class:`~repro.observe.metrics.MetricsRegistry`) and, when a
communicator is passed as ``observer``, in the rank's trace ring as
instant events so Perfetto timelines show compile stalls.

BLAS binding
------------
The compiled object never links BLAS: it exports
``repro_bind_blas(void* sgemm, void* dgemm)`` and the loader injects
raw cblas function pointers found at runtime (system
``cblas``/``openblas`` first, then scipy's bundled
``scipy_cblas_*gemm``). NULL pointers fall back to the naive tiled C
GEMM — so the cache key is independent of which BLAS (if any) the
machine has.

Finding the compiler's version and the BLAS candidates forks
subprocesses (``cc --version``, ``ldconfig``, the compiler again for
``find_library``). A launcher resolves them once with
:func:`toolchain_record` and ships the record to its rank processes,
which :func:`prime` their memos from it and fork nothing.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import store
from repro.core import ops
from repro.core.tensor import Const, Expr
from repro.errors import CodegenError
from repro.observe.metrics import MetricsRegistry

__all__ = [
    "available",
    "toolchain_report",
    "toolchain_record",
    "prime",
    "metrics",
    "load_kernels",
    "cold_compile_allowance",
    "cache_dir",
    "CompiledKernels",
    "NativeEmitter",
    "PRELUDE",
    "DEFAULT_COMPILE_ALLOWANCE",
]

#: module-wide cache counters: ``native.cache.memo_hits`` (in-process),
#: ``native.cache.disk_hits``, ``native.cache.compiles``,
#: ``native.cache.compile_seconds``, ``native.cache.recompiles``
metrics = MetricsRegistry()

#: seconds added to the SPMD rendezvous deadline for a cold-cache run
DEFAULT_COMPILE_ALLOWANCE = 45.0

_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


# ---------------------------------------------------------------------------
# Toolchain discovery.
# ---------------------------------------------------------------------------


def _find_cc() -> Optional[str]:
    env = os.environ.get("CC")
    if env:
        path = shutil.which(env)
        if path:
            return path
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


_CC_VERSION: Dict[str, str] = {}


def _cc_version(cc: str) -> str:
    if cc not in _CC_VERSION:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            ).stdout
            _CC_VERSION[cc] = out.splitlines()[0] if out else cc
        except (OSError, subprocess.SubprocessError):
            _CC_VERSION[cc] = cc
    return _CC_VERSION[cc]


def available() -> bool:
    """True when a C compiler is on PATH (the native target's only need)."""
    return _find_cc() is not None


class _Blas:
    def __init__(self, path: str, lib, sgemm, dgemm) -> None:
        self.path = path
        self.lib = lib  # keep the dlopen handle alive
        self.sgemm = sgemm
        self.dgemm = dgemm


_BLAS: "List[Optional[_Blas]]" = []  # lazy singleton ([] = unprobed)

#: BLAS candidate paths adopted from a launching process by :func:`prime`
_PRIMED_BLAS: List[str] = []

#: :func:`toolchain_record` memo, keyed by the ``$CC``/``$REPRO_BLAS``
#: settings it was resolved under
_RECORDS: Dict[Tuple[Optional[str], Optional[str]], Dict[str, object]] = {}


def _blas_candidates() -> Iterator[str]:
    """BLAS library paths in probing order, each probed only when asked.

    ``$REPRO_BLAS`` first, then the system ``cblas``/``openblas``/
    ``blas`` (every ``find_library`` call forks ``ldconfig`` and the C
    compiler), then scipy's bundled OpenBLAS, located without importing
    scipy. The first loadable candidate wins, so the probes behind it
    never run.
    """
    env = os.environ.get("REPRO_BLAS")
    if env:
        yield env
    for name in ("cblas", "openblas", "blas"):
        found = ctypes.util.find_library(name)
        if found:
            yield found
    # scipy bundles an LP64 openblas with scipy_cblas_* symbols
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.origin:
        libs = os.path.join(os.path.dirname(spec.origin), "..",
                            "scipy.libs", "*.so*")
        yield from sorted(glob.glob(libs))


def _first_blas(paths: Iterable[str]) -> Optional[_Blas]:
    """The first of ``paths`` that loads and exports cblas GEMMs."""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("cblas_", "scipy_cblas_"):
            try:
                sgemm = getattr(lib, prefix + "sgemm")
                dgemm = getattr(lib, prefix + "dgemm")
            except AttributeError:
                continue
            # single-threaded BLAS: one process per rank already uses
            # every core, and a fixed thread count keeps gemm results
            # deterministic across repeat runs
            for setter in (
                "openblas_set_num_threads",
                "scipy_openblas_set_num_threads",
                "goto_set_num_threads",
            ):
                try:
                    getattr(lib, setter)(1)
                    break
                except AttributeError:
                    continue
            return _Blas(path, lib, sgemm, dgemm)
    return None


def _load_blas() -> Optional[_Blas]:
    if not _BLAS:
        found = _first_blas(_PRIMED_BLAS)
        if found is None:  # not primed, or no primed library loads
            found = _first_blas(_blas_candidates())
        _BLAS.append(found)
    return _BLAS[0]


def toolchain_record() -> Dict[str, object]:
    """The C compiler and BLAS candidates, resolved once per process.

    A plain picklable dict — ``{"cc", "cc_version", "blas"}``, the last
    being every BLAS candidate path in probing order — that a launcher
    ships to its rank processes so each can :func:`prime` itself
    instead of re-running the probes. Building it runs ``cc --version``
    and the ``find_library`` probes, but loads no library: the
    launching process never needs BLAS, and mapping it there would
    only grow its resident set.
    """
    env = (os.environ.get("CC"), os.environ.get("REPRO_BLAS"))
    record = _RECORDS.get(env)
    if record is None:
        cc = _find_cc()
        record = _RECORDS[env] = {
            "cc": cc,
            "cc_version": _cc_version(cc) if cc else None,
            "blas": list(_blas_candidates()),
        }
    return record


def prime(record: Dict[str, object]) -> None:
    """Adopt a launching process's :func:`toolchain_record`.

    Seeds the ``cc --version`` memo and the BLAS candidates, so a rank
    process resolves the same compiler identity (hence the same kernel
    cache key) and the same library without forking a single probe. If
    none of the recorded libraries loads, :func:`_load_blas` falls back
    to probing.
    """
    cc, version = record.get("cc"), record.get("cc_version")
    if cc and version:
        _CC_VERSION.setdefault(cc, version)
    _PRIMED_BLAS[:] = record.get("blas") or []


def cache_dir() -> str:
    """On-disk kernel cache root (``$REPRO_KERNEL_CACHE`` overrides)."""
    return os.path.expanduser(
        os.environ.get("REPRO_KERNEL_CACHE")
        or os.path.join("~", ".cache", "repro", "kernels")
    )


def toolchain_report() -> Dict[str, object]:
    """What the native target found on this machine (CI prints this)."""
    cc = _find_cc()
    blas = _load_blas()
    cdir = cache_dir()
    try:
        cached = len([f for f in os.listdir(cdir) if f.endswith(".so")])
    except OSError:
        cached = 0
    return {
        "cc": cc,
        "cc_version": _cc_version(cc) if cc else None,
        "blas": blas.path if blas else None,
        "cache_dir": cdir,
        "cached_kernels": cached,
    }


# ---------------------------------------------------------------------------
# C prelude: half conversions, op helpers, GEMM dispatch.
# ---------------------------------------------------------------------------

PRELUDE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* -- IEEE half <-> double, bit-exact with numpy's astype ------------- */
/* Both conversions are branch-free (selects, no loops or early
 * returns), so -O3 vectorizes the loops that call them. */

static inline double repro_h2d(uint16_t h) {
    uint32_t w = (uint32_t)h << 16;
    uint32_t two_w = w + w;                 /* exponent + mantissa, no sign */
    /* normals, inf and nan: rebias the exponent by 2^-112 */
    uint32_t nbits = (two_w >> 4) + (0xe0u << 23);
    /* subnormals: 0.5 + man * 2^-24, minus 0.5 — exact */
    uint32_t dbits = (two_w >> 17) | (126u << 23);
    float normal, subnormal, out;
    uint32_t bits;
    memcpy(&normal, &nbits, 4);
    memcpy(&subnormal, &dbits, 4);
    normal *= 0x1.0p-112f;
    subnormal -= 0.5f;
    memcpy(&nbits, &normal, 4);
    memcpy(&dbits, &subnormal, 4);
    bits = (w & 0x80000000u) | (two_w < (1u << 27) ? dbits : nbits);
    memcpy(&out, &bits, 4);
    return (double)out;
}

/* round-to-nearest-even double -> half in one rounding (no double
 * rounding through float) — matches numpy's float64->float16 cast.
 * Adding 2^(E+42), E = max(exponent, -14), leaves the double ulp at
 * exactly the half ulp of |d|'s binade, so the FPU's own RNE addition
 * is the rounding; the sum's low 12 mantissa bits are then the half
 * significand (implicit bit included, a carry bumps the exponent). */
static inline uint16_t repro_d2h(double d) {
    uint64_t bits, mag, magic_bits, sum_bits, h;
    int64_t e, be;
    double magic, a, sum;
    memcpy(&bits, &d, 8);
    mag = bits & 0x7fffffffffffffffULL;
    e = (int64_t)(mag >> 52);               /* biased exponent */
    be = e < 1009 ? 1009 : e;               /* 1009 = 2^-14, half min normal */
    be = be > 1038 ? 1038 : be;             /* keep the magic finite */
    magic_bits = (uint64_t)(be + 42) << 52;
    memcpy(&magic, &magic_bits, 8);
    memcpy(&a, &mag, 8);
    sum = magic + a;
    memcpy(&sum_bits, &sum, 8);
    h = ((uint64_t)(be - 1009) << 10) + (sum_bits & 0xfffULL);
    h = e >= 1039 ? 0x7c00u : h;            /* |d| >= 2^16: inf */
    h = mag > 0x7ff0000000000000ULL ? 0x7e00u : h;   /* nan */
    return (uint16_t)(((bits >> 48) & 0x8000u) | h);
}

/* numpy maximum/minimum: (in1 OP in2 || isnan(in1)) ? in1 : in2 */
static inline double repro_max(double a, double b) {
    return (a > b || a != a) ? a : b;
}
static inline double repro_min(double a, double b) {
    return (a < b || a != a) ? a : b;
}

/* -- GEMM: injected cblas pointers with a naive tiled fallback ------- */

typedef void (*repro_sgemm_t)(int, int, int, int, int, int, float,
                              const float*, int, const float*, int,
                              float, float*, int);
typedef void (*repro_dgemm_t)(int, int, int, int, int, int, double,
                              const double*, int, const double*, int,
                              double, double*, int);
static repro_sgemm_t repro_sgemm = 0;
static repro_dgemm_t repro_dgemm = 0;

void repro_bind_blas(void* sgemm, void* dgemm) {
    repro_sgemm = (repro_sgemm_t)sgemm;
    repro_dgemm = (repro_dgemm_t)dgemm;
}

#define REPRO_GEMM_BK 64
#define REPRO_GEMM_BJ 256

static void repro_naive_sgemm(const float* a, const float* b, float* c,
                              long long M, long long N, long long K) {
    long long i, j, k, kk, jj, kmax, jmax;
    for (i = 0; i < M * N; ++i) c[i] = 0.0f;
    for (kk = 0; kk < K; kk += REPRO_GEMM_BK) {
        kmax = kk + REPRO_GEMM_BK < K ? kk + REPRO_GEMM_BK : K;
        for (jj = 0; jj < N; jj += REPRO_GEMM_BJ) {
            jmax = jj + REPRO_GEMM_BJ < N ? jj + REPRO_GEMM_BJ : N;
            for (i = 0; i < M; ++i) {
                for (k = kk; k < kmax; ++k) {
                    float av = a[i * K + k];
                    for (j = jj; j < jmax; ++j)
                        c[i * N + j] += av * b[k * N + j];
                }
            }
        }
    }
}

static void repro_naive_dgemm(const double* a, const double* b, double* c,
                              long long M, long long N, long long K) {
    long long i, j, k, kk, jj, kmax, jmax;
    for (i = 0; i < M * N; ++i) c[i] = 0.0;
    for (kk = 0; kk < K; kk += REPRO_GEMM_BK) {
        kmax = kk + REPRO_GEMM_BK < K ? kk + REPRO_GEMM_BK : K;
        for (jj = 0; jj < N; jj += REPRO_GEMM_BJ) {
            jmax = jj + REPRO_GEMM_BJ < N ? jj + REPRO_GEMM_BJ : N;
            for (i = 0; i < M; ++i) {
                for (k = kk; k < kmax; ++k) {
                    double av = a[i * K + k];
                    for (j = jj; j < jmax; ++j)
                        c[i * N + j] += av * b[k * N + j];
                }
            }
        }
    }
}

static inline void repro_gemm_f32(const float* a, const float* b, float* c,
                                  long long M, long long N, long long K) {
    if (repro_sgemm) {
        /* 101 = CblasRowMajor, 111 = CblasNoTrans */
        repro_sgemm(101, 111, 111, (int)M, (int)N, (int)K, 1.0f,
                    a, (int)K, b, (int)N, 0.0f, c, (int)N);
    } else {
        repro_naive_sgemm(a, b, c, M, N, K);
    }
}

static inline void repro_gemm_f64(const double* a, const double* b,
                                  double* c, long long M, long long N,
                                  long long K) {
    if (repro_dgemm) {
        repro_dgemm(101, 111, 111, (int)M, (int)N, (int)K, 1.0,
                    a, (int)K, b, (int)N, 0.0, c, (int)N);
    } else {
        repro_naive_dgemm(a, b, c, M, N, K);
    }
}
"""


# ---------------------------------------------------------------------------
# Content-addressed kernel cache + compiled-module handle.
# ---------------------------------------------------------------------------

#: in-process memo in front of the disk cache: sha -> CompiledKernels
_MEMO: Dict[str, "CompiledKernels"] = {}


def source_key(c_source: str) -> str:
    """SHA-256 over the C source plus the compiler identity and flags."""
    cc = _find_cc() or ""
    h = hashlib.sha256()
    h.update(c_source.encode())
    h.update(b"\x00")
    h.update(cc.encode())
    h.update(_cc_version(cc).encode() if cc else b"")
    h.update(" ".join(_CFLAGS).encode())
    return h.hexdigest()


class CompiledKernels:
    """A loaded kernel shared object; ``call`` invokes one C function.

    Every generated function has the uniform ABI
    ``void f(char** bufs, double* scalars)`` with shapes, loop bounds
    and broadcast strides baked into the source, so the Python side
    only marshals base pointers (a ctypes foreign call releases the
    GIL — the overlap producer stream keeps running during compute).
    """

    def __init__(self, lib: ctypes.CDLL, key: str, path: str) -> None:
        self._lib = lib
        self.key = key
        self.path = path
        self._fns: Dict[str, object] = {}
        bind = lib.repro_bind_blas
        bind.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        bind.restype = None
        blas = _load_blas()
        if blas is not None:
            bind(
                ctypes.cast(blas.sgemm, ctypes.c_void_p),
                ctypes.cast(blas.dgemm, ctypes.c_void_p),
            )
        self.blas = blas.path if blas is not None else None

    def _fn(self, name: str):
        fn = self._fns.get(name)
        if fn is None:
            fn = getattr(self._lib, name)
            fn.argtypes = [
                ctypes.POINTER(ctypes.c_void_p),
                ctypes.POINTER(ctypes.c_double),
            ]
            fn.restype = None
            self._fns[name] = fn
        return fn

    def call(
        self,
        name: str,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[float] = (),
    ) -> None:
        bufs = []
        for a in arrays:
            if not a.flags["C_CONTIGUOUS"]:
                # inputs only — outputs are freshly np.empty'd and
                # always contiguous, so the copy never detaches a result
                a = np.ascontiguousarray(a)
            bufs.append(a.ctypes.data)
        ptrs = (ctypes.c_void_p * len(bufs))(*bufs)
        sc = (ctypes.c_double * max(1, len(scalars)))(*scalars)
        self._fn(name)(ptrs, sc)


def _compile(c_source: str, so_path: str) -> None:
    """Compile ``c_source`` into a temp object, then install it.

    Runs inside :func:`repro.store.lock`, so concurrent rank processes
    compiling the same source wait for one compile instead of racing.
    """
    cc = _find_cc()
    if cc is None:
        raise CodegenError(
            "native codegen target needs a C compiler (cc/gcc/clang) on "
            "PATH — none found"
        )

    def build(tmp_so: str) -> None:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".c", dir=os.path.dirname(so_path)
        ) as c_file:
            c_file.write(c_source)
            c_file.flush()
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp_so, c_file.name, "-lm"],
                capture_output=True, text=True, timeout=300,
            )
        if proc.returncode != 0:
            raise CodegenError(
                f"kernel compilation failed ({cc}):\n{proc.stderr[-4000:]}"
            )

    store.install(so_path, build)


def _try_load(key: str, so_path: str) -> Optional[CompiledKernels]:
    try:
        lib = ctypes.CDLL(so_path)
        if not hasattr(lib, "repro_bind_blas"):
            raise OSError("missing repro_bind_blas (stale cache entry)")
        return CompiledKernels(lib, key, so_path)
    except (OSError, AttributeError):
        return None


def load_kernels(c_source: str, observer=None) -> CompiledKernels:
    """Resolve C source to a loaded shared object via the kernel cache.

    In-process memo first, then ``cache_dir()/<sha256>.so``, then a
    locked compile with atomic install. ``observer``, when given, is a
    :class:`~repro.runtime.spmd.SpmdCommunicator` (or anything with
    ``record_compile(name, seconds, status)``) that receives one
    instant event per cache outcome for the Perfetto timeline.
    """
    key = source_key(c_source)
    memo = _MEMO.get(key)
    if memo is not None:
        metrics.inc("native.cache.memo_hits")
        return memo
    so_path = os.path.join(cache_dir(), f"{key}.so")
    t0 = time.perf_counter()
    with store.lock(so_path):
        compiled = None
        status = "hit"
        if os.path.exists(so_path):
            compiled = _try_load(key, so_path)
            if compiled is None:
                # stale/corrupt entry: drop it and recompile below
                metrics.inc("native.cache.recompiles")
                status = "recompile"
                store.discard(so_path)
        if compiled is None:
            if status == "hit":
                status = "compile"
            _compile(c_source, so_path)
            compiled = _try_load(key, so_path)
            if compiled is None:  # pragma: no cover - defensive
                raise CodegenError(
                    f"compiled kernel at {so_path} is unloadable"
                )
            metrics.inc("native.cache.compiles")
            metrics.inc(
                "native.cache.compile_seconds", time.perf_counter() - t0
            )
        else:
            metrics.inc("native.cache.disk_hits")
    seconds = time.perf_counter() - t0
    if observer is not None:
        recorder = getattr(observer, "record_compile", None)
        if recorder is not None:
            recorder(key[:12], seconds, status)
    _MEMO[key] = compiled
    return compiled


def cold_compile_allowance(c_source: str) -> float:
    """Extra rendezvous headroom when this source is not yet cached.

    Zero on a warm cache — the satellite fix for
    :func:`repro.runtime.spmd.scaled_default_timeout`, which otherwise
    ignores first-run compile latency and lets a cold-cache SPMD run
    trip ``SpmdTimeout``.
    """
    key = source_key(c_source)
    if key in _MEMO:
        return 0.0
    if os.path.exists(os.path.join(cache_dir(), f"{key}.so")):
        return 0.0
    return DEFAULT_COMPILE_ALLOWANCE


# ---------------------------------------------------------------------------
# The C renderer used by the code generator.
# ---------------------------------------------------------------------------

#: ops whose Python emission the C loop reproduces bit-exactly
_C_BINARY = ("+", "-", "*", "/", "max", "min")
_C_UNARY = ("sqrt", "rsqrt", "relu", "abs")

_CTYPE = {"float16": "uint16_t", "float32": "float", "float64": "double"}


def _cdt(dtype) -> Optional[str]:
    name = dtype.to_numpy().name
    return name if name in _CTYPE else None


def _prod(shape: Tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def _strip1(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    i = 0
    while i < len(shape) and shape[i] == 1:
        i += 1
    return tuple(shape[i:])


def _suffix_ok(si: Tuple[int, ...], so: Tuple[int, ...]) -> bool:
    """Row-major flat ``i % prod(si)`` reproduces numpy broadcasting."""
    s = _strip1(si)
    if not s:
        return True
    return tuple(so[len(so) - len(s):]) == s if len(s) <= len(so) else False


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _load(cvar: str, dt: str, idx: str) -> str:
    if dt == "float16":
        return f"repro_h2d({cvar}[{idx}])"
    if dt == "float32":
        return f"(double){cvar}[{idx}]"
    return f"{cvar}[{idx}]"


def _rounded(dt: str, var: str, expr: str) -> Tuple[List[str], str]:
    """Bind ``var`` to ``expr`` rounded to ``dt``'s value domain.

    Returns the C lines and the value a store into a ``dt`` array
    writes. An FP16 value keeps its half bits, so storing it is the one
    ``repro_d2h`` that rounded it, not a second one of the widened
    double (the compiler drops the ``repro_h2d`` when ``var`` is unread).
    """
    if dt == "float16":
        bits = f"h{var}"
        return [
            f"uint16_t {bits} = repro_d2h({expr});",
            f"double {var} = repro_h2d({bits});",
        ], bits
    if dt == "float32":
        return [f"double {var} = (double)(float)({expr});"], f"(float){var}"
    return [f"double {var} = {expr};"], var


class _Array:
    def __init__(self, cvar: str, dt: str, py_ref: str, n: int) -> None:
        self.cvar = cvar
        self.dt = dt
        self.py_ref = py_ref
        self.n = n


class NativeEmitter:
    """Renders C functions for a lowered program's compute segments.

    Owned by one :class:`~repro.core.codegen.generator.CodeGenerator`
    invocation; the generator calls :meth:`emit_segment` where it would
    otherwise emit per-op numpy lines and :meth:`emit_gemm` for MatMul
    expressions, then embeds :meth:`c_source` into the module.
    """

    def __init__(self, lowered) -> None:
        self.functions: List[str] = []
        self._fn_names: Dict[str, int] = {}
        self._consumers: Dict[int, List[Expr]] = {}
        for k in lowered.plan.kernels:
            for e in k.exprs:
                for x in e.inputs:
                    self._consumers.setdefault(id(x), []).append(e)
        self._output_ids = {id(o) for o in lowered.program.outputs}

    @property
    def used(self) -> bool:
        return bool(self.functions)

    def c_source(self) -> Optional[str]:
        if not self.functions:
            return None
        return PRELUDE + "\n" + "\n".join(self.functions)

    # -- naming ---------------------------------------------------------

    def _fresh_fn(self, base: str) -> str:
        base = _sanitize(base)
        n = self._fn_names.get(base, 0)
        self._fn_names[base] = n + 1
        return base if n == 0 else f"{base}_{n}"

    # -- qualification --------------------------------------------------

    def _c_able(self, e: Expr) -> bool:
        if isinstance(e, ops.Binary):
            if e.op not in _C_BINARY:
                return False
        elif isinstance(e, ops.Unary):
            if e.op not in _C_UNARY:
                return False
        elif isinstance(e, ops.Update):
            # the V-store runs in C; the T write stays in Python
            if e.per_rank_shape() != e.inputs[0].per_rank_shape():
                return False
        elif not isinstance(e, ops.Cast):
            return False
        if _cdt(e.dtype) is None:
            return False
        oshape = e.per_rank_shape()
        if _prod(oshape) < 2:
            return False  # scalars stay in Python (they cost nothing)
        for x in e.inputs:
            if _cdt(x.dtype) is None:
                return False
            xs = x.per_rank_shape()
            if _prod(xs) == 1:
                continue  # scalar broadcast via the scalars array
            if not _suffix_ok(xs, oshape):
                return False
        return True

    def _escapes(self, e: Expr, run_ids: set) -> bool:
        if id(e) in self._output_ids or isinstance(e, ops.Update):
            return True
        consumers = self._consumers.get(id(e))
        if not consumers:
            return True  # unknown reader — store defensively
        return any(id(c) not in run_ids for c in consumers)

    # -- segment emission -----------------------------------------------

    def emit_segment(self, gen, em, exprs: Sequence[Expr]) -> None:
        """Emit one compute segment: fused C runs + Python fallbacks.

        Maximal runs of C-able elementwise expressions with the same
        flat per-rank element count become one compiled loop each;
        everything else goes through the generator's normal
        ``_emit_op`` emission, reading and writing the same ``V``.
        """
        runs: List[Tuple[str, List[Expr], int]] = []
        for e in exprs:
            if self._c_able(e):
                n = _prod(e.per_rank_shape())
                if runs and runs[-1][0] == "c" and runs[-1][2] == n:
                    runs[-1][1].append(e)
                else:
                    runs.append(("c", [e], n))
            else:
                if runs and runs[-1][0] == "py":
                    runs[-1][1].append(e)
                else:
                    runs.append(("py", [e], 0))
        for kind, group, n in runs:
            if kind == "py":
                for e in group:
                    gen._emit_op(em, e)
            else:
                self._emit_c_run(gen, em, group, n)

    def _emit_c_run(self, gen, em, run: List[Expr], n: int) -> None:
        run_ids = {id(e) for e in run}
        var_of: Dict[int, str] = {}
        arrays: List[_Array] = []
        arr_index: Dict[str, int] = {}
        scalars: List[str] = []
        scalar_index: Dict[str, int] = {}
        body: List[str] = []

        def operand(x: Expr) -> str:
            if id(x) in var_of:
                return var_of[id(x)]
            if isinstance(x, Const):
                # bake the literal, rounded to the Const's declared
                # dtype first — the Python path materializes e.g. an
                # FP32 0.1 as float64(float32(0.1)), not the raw double
                val = float(np.asarray(x.value, dtype=x.dtype.to_numpy()))
                key = f"c:{x.name}"
                if key not in scalar_index:
                    scalar_index[key] = len(scalars)
                    scalars.append(repr(val))
                return f"S[{scalar_index[key]}]"
            nx = _prod(x.per_rank_shape())
            if nx == 1:
                # 0-d value read from V; float() is the exact f64 upcast
                if x.name not in scalar_index:
                    scalar_index[x.name] = len(scalars)
                    scalars.append(f"float(V[{x.name!r}])")
                return f"S[{scalar_index[x.name]}]"
            if x.name not in arr_index:
                arr_index[x.name] = len(arrays)
                arrays.append(_Array(
                    f"a{len(arrays)}", _cdt(x.dtype),
                    f"V[{x.name!r}]", nx,
                ))
            a = arrays[arr_index[x.name]]
            idx = "i" if a.n == n else f"i % {a.n}LL"
            return _load(a.cvar, a.dt, idx)

        stores: List[Tuple[Expr, _Array]] = []
        for j, e in enumerate(run):
            if isinstance(e, ops.Binary):
                a, b = (operand(x) for x in e.inputs)
                if e.op == "max":
                    core = f"repro_max({a}, {b})"
                elif e.op == "min":
                    core = f"repro_min({a}, {b})"
                else:
                    core = f"({a}) {e.op} ({b})"
            elif isinstance(e, ops.Unary):
                x = operand(e.inputs[0])
                core = {
                    "sqrt": f"sqrt({x})",
                    "rsqrt": f"1.0 / sqrt({x})",
                    "relu": f"repro_max({x}, 0.0)",
                    "abs": f"fabs({x})",
                }[e.op]
            else:  # Cast / Update: the value, rounded to the out dtype
                core = operand(e.inputs[0])
            var = f"e{j}"
            dt = _cdt(e.dtype)
            lines, stored = _rounded(dt, var, core)
            body.extend(lines)
            var_of[id(e)] = var
            if self._escapes(e, run_ids):
                out = _Array(
                    f"o{len(arrays)}", dt, f"V[{e.name!r}]", n
                )
                arrays.append(out)
                stores.append((e, out))
                body.append(f"{out.cvar}[i] = {stored};")

        fn = self._fresh_fn(f"s_{run[0].name}")
        lines = [f"void {fn}(char** A, double* S) {{"]
        for k, a in enumerate(arrays):
            const = "" if any(a is o for _, o in stores) else "const "
            lines.append(
                f"    {const}{_CTYPE[a.dt]}* {a.cvar} = "
                f"({const}{_CTYPE[a.dt]}*)A[{k}];"
            )
        if not scalars:
            lines.append("    (void)S;")
        lines.append(f"    for (long long i = 0; i < {n}LL; ++i) {{")
        lines.extend(f"        {ln}" for ln in body)
        lines.append("    }")
        lines.append("}")
        self.functions.append("\n".join(lines) + "\n")

        names = ", ".join(e.name for e in run)
        em.emit(f"# compiled native segment ({fn}): {names}")
        for e, out in stores:
            shape = e.per_rank_shape()
            em.emit(
                f"V[{e.name!r}] = np.empty({shape!r}, "
                f"dtype=np.{e.dtype.to_numpy().name})"
            )
        refs = ", ".join(a.py_ref for a in arrays)
        sc = ", ".join(scalars)
        em.emit(
            f"_K.call({fn!r}, ({refs},), ({sc + ',' if sc else ''}))"
        )
        for e, _ in stores:
            if isinstance(e, ops.Update):
                gen._emit_update_store(em, e, f"V[{e.name!r}]")

    # -- GEMM ------------------------------------------------------------

    def emit_gemm(self, gen, em, e: Expr, out_var: Optional[str] = None
                  ) -> bool:
        """BLAS-dispatch a MatMul; False when it must stay in Python.

        ``(…, M, K) @ (K, N)`` flattens the leading dims into one
        row-major GEMM. fp16 operands are upconverted to fp32 on the
        Python side (the GEMM itself accumulates in fp32, like numpy's
        half inner loop — the accumulation *order* differs, which is
        exactly the documented BLAS tolerance), fp64 runs in dgemm.
        """
        if not isinstance(e, ops.MatMul):
            return False
        a, b = e.inputs
        if isinstance(a, Const) or isinstance(b, Const):
            return False
        if _cdt(a.dtype) is None or _cdt(b.dtype) is None:
            return False
        if _cdt(e.dtype) is None:
            return False
        ashape = a.per_rank_shape()
        bshape = b.per_rank_shape()
        oshape = e.per_rank_shape()
        if len(bshape) != 2 or len(ashape) < 2:
            return False
        if ashape[-1] != bshape[0] or oshape[-1] != bshape[1]:
            return False
        if oshape[:-1] != ashape[:-1]:
            return False
        M = _prod(ashape[:-1])
        K = ashape[-1]
        N = bshape[1]
        edt = e.dtype.to_numpy().name
        # compute dtype: f64 iff the result is f64, else f32
        ct = "float64" if edt == "float64" else "float32"
        fn = self._fresh_fn(f"g_{e.name}")
        ctyp = _CTYPE[ct]
        gemm = "repro_gemm_f64" if ct == "float64" else "repro_gemm_f32"
        self.functions.append(
            f"void {fn}(char** A, double* S) {{\n"
            f"    (void)S;\n"
            f"    {gemm}((const {ctyp}*)A[0], (const {ctyp}*)A[1], "
            f"({ctyp}*)A[2], {M}LL, {N}LL, {K}LL);\n"
            f"}}\n"
        )
        np_ct = f"np.{ct}"
        em.emit(f"# native GEMM ({fn}): BLAS or tiled-C fallback")
        for ref, src in (("_ga", gen._ref(a)), ("_gb", gen._ref(b))):
            em.emit(f"{ref} = {src}")
            em.emit(f"if {ref}.dtype != {np_ct}:")
            em.indent += 1
            em.emit(f"{ref} = {ref}.astype({np_ct})")
            em.indent -= 1
        em.emit(f"_go = np.empty({tuple(oshape)!r}, dtype={np_ct})")
        em.emit(f"_K.call({fn!r}, (_ga, _gb, _go))")
        out = out_var if out_var is not None else f"V[{e.name!r}]"
        if ct == edt:
            em.emit(f"{out} = _go")
        else:
            em.emit(f"{out} = _go.astype(np.{edt})")
        return True
