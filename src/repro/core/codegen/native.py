"""Native compiled codegen target: C kernels + a content-hash cache.

The SPMD backend executes generated *Python* per rank, so the
interpreter is the hot path: every elementwise op pays a float64
temporary and a full memory pass. This module renders the computation
of a pointer module (``CodeGenerator(target="native")``, whose ranks run
without numpy) to C — elementwise ops fused into a *single* loop per
maximal run, the GEMMs, the collectives' folds and the norms — compiles
it with ``cc`` into one shared object per module, and memoizes the
objects in an on-disk content-addressed kernel cache (tinygrad's
hash→compile→``lru_cache`` pipeline, DaCe's build-folder flow).

Bit-identity contract
---------------------
Every other tier computes an op by calling its device function
(:func:`repro.core.codegen.device.binary`, ``unary``): ``+ - * /
sqrt rsqrt`` in float64 on the upcast operands, ``max/min/relu/abs``
on the values as given, each rounded once to the expression dtype;
``Cast`` and ``Update`` are a plain ``astype``. The C loop restates
those formulas exactly: every value is carried as a ``double``, each
expression's result is rounded to its declared dtype domain
immediately (``(double)(float)x`` for fp32, a correctly-rounded half
round-trip for fp16), comparisons/abs are exact on the upconverted
doubles, and ``max``/``min`` use numpy's ``(a OP b || isnan(a)) ? a :
b`` formula for the operands' result type: a strict ``>``/``<`` in
the float and double loops, ``>=``/``<=`` in the half loop, which
keeps the first operand of a signed-zero tie. fp16 conversions
implement IEEE round-to-nearest-even from the double — the same
single-step rounding numpy's ``astype(np.float16)`` does — so
elementwise-only programs are **bit-identical** to ``run_lowered``.

The kernels are built for the host's instruction set
(``-march=native``, :func:`compile_flags`), and that keeps the bits:
IEEE ``+ - * / sqrt`` and every conversion round the same in a scalar
SSE2 instruction as in any lane of an AVX-512 one, so a loop's vector
width changes its speed only. Two flags are load-bearing.
``-ffp-contract=off`` forbids fusing ``a * b + c`` into an FMA, which
would round once where every other tier rounds twice, and which any
target with FMA (AVX2 on) would otherwise emit. No ``-ffast-math``:
it would reassociate, flush subnormals and swap ``1/sqrt`` for an
approximation. ``tests/test_native.py`` builds the helpers and a
program of every op the C restates at both flag sets and compares them
by bytes.

Beside the loops, a pointer module (:class:`NativeEmitter`) has six
kinds of C, held to the same contract:

* **The 0-d prologue.** Rank-invariant scalars such as Adam's
  ``1 - β^t`` are one loop-less function of the same rounding rules.
  Its ``pow`` is libm's, which may differ from numpy's float64 power in
  the last bit (numpy runs SIMD loops of its own on AVX-512 hosts), so
  only an FP32 or FP16 ``pow`` is compiled: its rounding drops that
  bit. ``tests/test_native.py`` checks libm against numpy, to the bit,
  on the optimizers' betas and step counts.
* **The fold helpers** (``fold_<op>_<in>_<out>``, one per reduction
  and dtype pair, appended once). A ReduceScatter or AllReduce makes
  one call per run, passing every participant's row in rank order and
  the rank count as a scalar, so the source is the same at every world
  size. For each block of elements a float64 accumulator on the stack
  starts as the first row, folds in each later row in rank order and
  is rounded once. That is :func:`~repro.runtime.collectives.fold_ranks`
  then ``astype``; with two NaN operands the fold keeps the first one's
  bits, as x86 and numpy's operand order do (``repro_nan_first``).
* **Dropout**, one more loop op (``repro_dropout``): SplitMix64 of the
  element's global index (the rank's dim-0 offset, a scalar, plus the
  loop's) xor the seed's key, kept where ``(double)u64 * 2^-64 >= p``,
  then ``x * (keep ? 1/(1-p) : 0.0)`` rounded once: the operations of
  :func:`repro.runtime.rng.uniform` and
  :func:`repro.core.codegen.device.dropout`.
* **The GEMM** (:meth:`NativeEmitter._emit_gemm`), restating
  :func:`repro.core.codegen.device.gemm`: FP16 operands upcast to float
  exactly (``repro_h2d``, NaN payloads kept), then numpy's own
  ``sgemm`` from the library numpy loaded (:func:`blas`), called as
  numpy calls it: RowMajor, NoTrans, once per leading batch, with
  numpy's leading dimensions. The float product is rounded once
  (``repro_d2h((double)f)``: widening is exact). Like the paper's
  generated code, which leaves GEMMs to the vendor library, no second
  BLAS is bound.
* **The sums** of a Norm or ``+`` ReduceTensor (:data:`SUM`,
  :data:`PARTIAL`, :data:`TOTAL`): ``np.sum``'s float64 pairwise sum of
  the loads or their squares, then of the ranks' partials, gathered as
  8-byte rows, with a norm's square root and one rounding
  (:func:`repro.core.codegen.device.partial` and ``total``).
* **The placement cast** (:data:`PLACE_F16`, appended to a source with
  an FP16 input). The launcher, not a rank, calls it: it casts each
  C-contiguous float64 input of an FP16 tensor into the segment
  (:func:`repro.runtime.spmd._place_regions`). ``repro_d2h`` is
  numpy's ``astype(np.float16)``, one round-to-nearest-even from the
  double with its NaN payload rule, so each byte is the one
  ``np.copyto`` writes on the ``spmd`` target; the function reads a
  load once and stores it into two places (one passed twice is one
  place). It lives in the program's own source because the launch
  already waits on that compile: a cold process would build a separate
  object too, a second ``cc`` to wait for.

NaN payloads: numpy's casts to float16 keep a NaN's top ten payload
bits, forced nonzero, and so does ``repro_d2h``. With two NaN operands
of different payloads, numpy itself keeps the first operand's in whole
SIMD vectors and the second one's in a long array's tail (so its own
tiers may disagree): such a result is one operand's NaN, quieted, and
no tier promises which.

Kernel cache
------------
``~/.cache/repro/kernels/<sha256>.so`` (override with
``$REPRO_KERNEL_CACHE``), keyed by SHA-256 over the C source plus the
compiler identity and flags, the target ``-march=native`` resolved to
(and the BLAS a GEMM calls). The target is the compiler's own
expansion, the ``-march=<cpu>`` and ``-m<feature>`` options of its
``cc1`` line, read in the one ``--version`` probe a process runs; a
cache shared between hosts is therefore safe: a host of another CPU,
or of the same CPU with a feature masked, computes another key and
never opens an object with instructions it lacks. A compiler that
rejects ``-march=native``, or shows no expansion, keeps the baseline
flags and the key they always had. The source
depends only on the program's fused structure: a loop's trip count
travels as its first scalar, ``S[0]``, a GEMM's shape and a Dropout's
offset, seed and probability as scalars too, and functions are named
by position (``s0``, ``s1``, …), so there is one object per fused
structure. A schedule at another size
or world size (an elastic recovery's smaller world), or a tuner
candidate that fuses alike, is a memo or disk hit. The launch waits on
the compile, so it splits the functions into up to one translation
unit per CPU, compiled in parallel and linked into the one object.
Writes are
concurrent-safe through :mod:`repro.store` — processes compiling the
same source wait behind one ``flock`` and the object is installed via
atomic ``os.replace`` — and stale/corrupt entries (unloadable, or
missing one of the source's own functions) are deleted and recompiled
once. Hit/miss/compile-time counters land in :data:`metrics` (a
:class:`~repro.observe.metrics.MetricsRegistry`); an ``observer``
hears of every compile, so a traced run shows the stall.

Only a launching process resolves kernels (:func:`load_kernels`). It
sends its rank processes the object's ``(key, path, functions)``, and
each rank opens that object with
:func:`repro.runtime.rank.open_kernels`, which imports no numpy: a rank
imports none of this module and never compiles. A source with a GEMM
adds the ``(path, sgemm symbol)`` of the BLAS the launcher resolved,
which also joins the cache key. numpy loads its BLAS ``RTLD_LOCAL``,
so the kernel object does not link it: the rank opens it by path and
passes the symbol's address to the GEMM in ``A``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import store
from repro.core import ops
from repro.core.layout import normalize_dim
from repro.core.tensor import Const, Expr
from repro.errors import CodegenError
from repro.observe.metrics import MetricsRegistry
from repro.runtime.rank import CompiledKernels, open_kernels
from repro.runtime.rng import seed_key

__all__ = [
    "available",
    "toolchain_report",
    "compile_flags",
    "metrics",
    "load_kernels",
    "cache_dir",
    "CompiledKernels",
    "NativeEmitter",
    "PRELUDE",
]

#: module-wide cache counters: ``native.cache.memo_hits`` (in-process),
#: ``native.cache.disk_hits``, ``native.cache.compiles``,
#: ``native.cache.compile_seconds``, ``native.cache.recompiles``
metrics = MetricsRegistry()

#: the baseline flags; :func:`compile_flags` adds ``-march=native`` where
#: the compiler resolves it. ``-ffp-contract=off`` is load-bearing: an
#: FMA would round ``a * b + c`` once instead of twice
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


class _Toolchain(NamedTuple):
    """What one probe of a compiler found."""

    #: the first line of ``cc --version``
    version: str
    #: the ``-m`` options ``-march=native`` resolved to, from the
    #: driver's ``cc1`` line (``-march=cooperlake -mavx512f …``); empty
    #: where the compiler rejects ``-march=native`` or shows no
    #: expansion (clang stops at ``--version``): the baseline flags
    target: Tuple[str, ...]

    @property
    def cpu(self) -> str:
        """The CPU ``-march=native`` named, or ``"default"``: the
        compiler's own baseline."""
        for option in self.target:
            if option.startswith("-march="):
                return option[len("-march="):]
        return "default"


#: one probe per compiler path and process
_TOOLCHAINS: Dict[str, _Toolchain] = {}


def _cc1_target(stderr: str) -> Tuple[str, ...]:
    """The ``-m`` options of the ``cc1`` line ``cc -###`` printed, if
    ``-march=native`` was resolved to a named CPU there (gcc quotes
    some of them; none holds a space)."""
    for line in stderr.splitlines():
        words = [w.strip('"') for w in line.split()]
        if not words or os.path.basename(words[0]) != "cc1":
            continue
        target = tuple(w for w in words if w.startswith("-m"))
        march = [w for w in target if w.startswith("-march=")]
        if march and march[-1] != "-march=native":
            return target
    return ()


def _toolchain(cc: str) -> _Toolchain:
    """``cc``'s identity and native target, probed once per process.

    One process answers both: ``--version`` prints the identity, and
    ``-###`` the ``cc1`` command ``-march=native`` expands to, running
    nothing. Where the compiler refuses that, ``--version`` runs alone:
    the identity, and no target.
    """
    if cc not in _TOOLCHAINS:
        version, target = None, ()
        try:
            probe = subprocess.run(
                [cc, "--version", "-###", "-march=native", "-E",
                 "-x", "c", os.devnull],
                capture_output=True, text=True, timeout=30,
            )
            if probe.returncode == 0 and probe.stdout:
                version = probe.stdout.splitlines()[0]
                target = _cc1_target(probe.stderr)
            if version is None:
                out = subprocess.run(
                    [cc, "--version"], capture_output=True, text=True,
                    timeout=30,
                ).stdout
                version = out.splitlines()[0] if out else cc
        except (OSError, subprocess.SubprocessError):
            version = version or cc
        _TOOLCHAINS[cc] = _Toolchain(version, target)
    return _TOOLCHAINS[cc]


def compile_flags() -> Tuple[str, ...]:
    """The flags every kernel object is compiled with: ``_CFLAGS``, plus
    ``-march=native`` where the compiler resolves it."""
    cc = _find_cc()
    if cc is not None and _toolchain(cc).target:
        return _CFLAGS + ("-march=native",)
    return _CFLAGS


def available() -> bool:
    """True when a C compiler is on PATH (the native target's only need)."""
    return _find_cc() is not None


def cache_dir() -> str:
    """On-disk kernel cache root (``$REPRO_KERNEL_CACHE`` overrides)."""
    return os.path.expanduser(
        os.environ.get("REPRO_KERNEL_CACHE")
        or os.path.join("~", ".cache", "repro", "kernels")
    )


def _numpy_blas() -> Optional[str]:
    """The BLAS numpy was built with, from its build config.

    Reads ``numpy.show_config``'s record only; no library is loaded.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25, or no record
        return None
    if not blas.get("found") or "name" not in blas:
        return None
    return f"{blas['name']} {blas.get('version', '')}".rstrip()


def toolchain_report() -> Dict[str, object]:
    """What the native target found on this machine (CI prints this).

    ``"blas"`` names the library numpy's GEMMs — hence every tier's —
    run on; ``"target"`` the CPU the kernels are built for (what
    ``-march=native`` resolved to, e.g. ``"cooperlake"``, or
    ``"default"``).
    """
    cc = _find_cc()
    found = _toolchain(cc) if cc else None
    cdir = cache_dir()
    try:
        cached = len([f for f in os.listdir(cdir) if f.endswith(".so")])
    except OSError:
        cached = 0
    return {
        "cc": cc,
        "cc_version": found.version if found else None,
        "target": found.cpu if found else None,
        "blas": _numpy_blas(),
        "cache_dir": cdir,
        "cached_kernels": cached,
    }


#: the cblas ``sgemm`` symbols numpy's BLAS may export, with the bits of
#: their integer arguments: scipy-openblas (numpy's wheels), then a
#: system OpenBLAS in its ILP64 and LP64 builds
_SGEMM_SYMBOLS = (
    ("scipy_cblas_sgemm64_", 64), ("cblas_sgemm64_", 64),
    ("scipy_cblas_sgemm", 32), ("cblas_sgemm", 32),
)


@functools.lru_cache(maxsize=1)
def blas() -> Optional[Tuple[str, str, int]]:
    """The BLAS numpy loaded, as ``(path, sgemm symbol, int bits)``.

    The library is the one this process mapped when numpy imported
    (``/proc/self/maps``), probed for the cblas ``sgemm`` symbols numpy
    calls; resolved once per process. ``None`` where no mapped library
    exports one, or there is no ``/proc``: GEMM programs then stay on
    the numpy data plane.
    """
    try:
        with open("/proc/self/maps") as f:
            rows = [line.split(maxsplit=5) for line in f]
    except OSError:
        return None
    paths = dict.fromkeys(
        r[5].strip() for r in rows
        if len(r) == 6 and "blas" in os.path.basename(r[5]).lower()
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # numpy's handle: no second load
        except OSError:
            continue
        for symbol, bits in _SGEMM_SYMBOLS:
            if hasattr(lib, symbol):
                return path, symbol, bits
    return None


# ---------------------------------------------------------------------------
# C prelude: half conversions and op helpers.
# ---------------------------------------------------------------------------

PRELUDE = r"""
#include <stdint.h>

/* memcpy, sqrt and fabs are compiler builtins: no libc header to
 * parse on every (cold) compile */
#define memcpy __builtin_memcpy
#define sqrt __builtin_sqrt
#define fabs __builtin_fabs

/* -- IEEE half <-> double, bit-exact with numpy's astype ------------- */
/* No branch and no `?:` select: every choice is integer mask arithmetic,
 * `m = -(cond); x = (x & ~m) | (y & m)`. Under gcc's default
 * -ftrapping-math, if-conversion will not make a select unconditional
 * when an operand comes out of a floating-point operation (it might
 * trap), so a `?:` here leaves "control flow in loop" and the loop that
 * calls the helper runs scalar. Masks keep such loops vectorizable at
 * the plain -O3 flags. Clamps and NaN/inf tests read the 32-bit high
 * word: SSE2 has no 64-bit integer compare. */

static inline double repro_h2d(uint16_t h) {
    uint32_t w = (uint32_t)h << 16;
    uint32_t two_w = w + w;                 /* exponent + mantissa, no sign */
    /* normals, inf and nan: rebias the exponent by 2^-112 */
    uint32_t nbits = (two_w >> 4) + (0xe0u << 23);
    /* subnormals: 0.5 + man * 2^-24, minus 0.5 — exact */
    uint32_t dbits = (two_w >> 17) | (126u << 23);
    uint32_t sub, bits;
    float normal, subnormal, out;
    memcpy(&normal, &nbits, 4);
    memcpy(&subnormal, &dbits, 4);
    normal *= 0x1.0p-112f;
    subnormal -= 0.5f;
    memcpy(&nbits, &normal, 4);
    memcpy(&dbits, &subnormal, 4);
    sub = -(uint32_t)(two_w < (1u << 27));
    bits = (w & 0x80000000u) | (dbits & sub) | (nbits & ~sub);
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
    uint64_t bits, magic_bits, sum_bits;
    uint32_t hs, hi, lo, h, m, p;
    int32_t e, be;
    double magic, sum;
    memcpy(&bits, &d, 8);
    hs = (uint32_t)(bits >> 32);
    hi = hs & 0x7fffffffu;                  /* high word of |d| */
    lo = (uint32_t)bits;
    e = (int32_t)(hi >> 20);                /* biased exponent */
    m = -(uint32_t)(e < 1009);              /* 1009 = 2^-14, half min normal */
    be = (int32_t)(((uint32_t)e & ~m) | (1009u & m));
    m = -(uint32_t)(be > 1038);             /* keep the magic finite */
    be = (int32_t)(((uint32_t)be & ~m) | (1038u & m));
    magic_bits = (uint64_t)((uint32_t)(be + 42) << 20) << 32;
    memcpy(&magic, &magic_bits, 8);
    sum = magic + fabs(d);
    memcpy(&sum_bits, &sum, 8);
    h = ((uint32_t)(be - 1009) << 10) + ((uint32_t)sum_bits & 0xfffu);
    m = -(uint32_t)(e >= 1039);             /* |d| >= 2^16 or nan: inf */
    h = (h & ~m) | (0x7c00u & m);
    /* nan: |d|'s bits above inf's, i.e. hi > 0x7ff00000 or hi equal
     * and lo nonzero (folded into hi's low bit, which inf's lacks).
     * numpy keeps the payload's top ten bits, forced nonzero */
    m = -(uint32_t)((int32_t)(hi | (lo != 0u)) > 0x7ff00000);
    p = (hi >> 10) & 0x3ffu;
    h |= (p | (uint32_t)(p == 0u)) & m;
    return (uint16_t)(((hs >> 16) & 0x8000u) | h);
}

/* numpy maximum/minimum: (in1 OP in2 || isnan(in1)) ? in1 : in2 */
static inline double repro_max(double a, double b) {
    return (a > b || a != a) ? a : b;
}
static inline double repro_min(double a, double b) {
    return (a < b || a != a) ? a : b;
}
"""

#: numpy's half loops compare with ``>=``/``<=``: a signed-zero tie
#: keeps the first operand. Appended only to sources that call them, so
#: no other program's source (hence kernel cache key) changes.
HALF_MINMAX = r"""
static inline double repro_hmax(double a, double b) {
    return (a >= b || a != a) ? a : b;
}
static inline double repro_hmin(double a, double b) {
    return (a <= b || a != a) ? a : b;
}
"""

#: libm's ``pow``, appended only to sources that call it (a pointer
#: module's 0-d prologue)
POW = "\n#define pow __builtin_pow\n"

#: appended to sources with a Dropout: :func:`repro.runtime.rng.uniform`
#: then :func:`repro.core.codegen.device.dropout` on one element
DROPOUT = r"""
/* SplitMix64 of the element's global index xor the seed's key;
 * (double)u64 * 2^-64 >= p keeps x * 1/(1-p), else x * 0.0. The select
 * is a mask, not a `?:` */
static inline double repro_dropout(
        double x, uint64_t index, uint64_t key, double p, double scale) {
    uint64_t z = (index ^ key) + 0x9e3779b97f4a7c15ull, keep, bits;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    keep = -(uint64_t)((double)z * 0x1p-64 >= p);
    memcpy(&bits, &scale, 8);
    bits &= keep;
    memcpy(&scale, &bits, 8);
    return x * scale;
}
"""

#: appended to sources with a GEMM, ``{bits}`` the BLAS's integer width:
#: the type of numpy's cblas ``sgemm``, whose address the module passes
#: in ``A`` (:attr:`~repro.runtime.rank.CompiledKernels.sgemm`)
BLAS = r"""
/* the GEMM's conversion loops are a sliver of its run time, and worth
 * less than the vectorizer's share of a cold compile */
#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_SCALAR __attribute__((optimize("no-tree-vectorize")))
#else
#define REPRO_SCALAR
#endif

typedef int{bits}_t repro_blasint;
typedef void (*repro_sgemm_t)(int, int, int, repro_blasint, repro_blasint,
    repro_blasint, float, const float*, repro_blasint, const float*,
    repro_blasint, float, float*, repro_blasint);
"""

#: appended to sources with fold helpers. With two NaN operands, x86
#: returns the first, quieted; numpy's fold keeps its operands' order,
#: but the compiler may swap those of a commutative ``+`` or ``*``, so
#: the fold states the rule itself. ``r`` is ``a`` op something; the
#: NaN test reads ``a``'s high word, as ``repro_d2h``'s does, so the
#: loop stays vectorized. ``REPRO_NO_JAM`` marks a fold helper: gcc's
#: unroll-and-jam would fold two ranks per pass and leave the ranks past
#: the pairs to a scalar copy of the loop, several times slower
FOLD_NAN = r"""
#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_NO_JAM __attribute__((optimize("no-loop-unroll-and-jam")))
#else
#define REPRO_NO_JAM
#endif

static inline double repro_nan_first(double a, double r) {
    uint64_t ab, rb, m;
    uint32_t hi, lo;
    memcpy(&ab, &a, 8);
    memcpy(&rb, &r, 8);
    hi = (uint32_t)(ab >> 32) & 0x7fffffffu;
    lo = (uint32_t)ab;
    m = -(uint64_t)((int32_t)(hi | (lo != 0u)) > 0x7ff00000);
    rb = (rb & ~m) | ((ab | 0x0008000000000000ull) & m);
    memcpy(&r, &rb, 8);
    return r;
}
"""


#: appended to sources with a Norm or ``+`` ReduceTensor, once per load
#: ``{x}`` (``{seeds}``, ``{lanes}``: rows 0-7 and ``i + 0``-``i + 7``):
#: ``np.sum``'s float64 ``pairwise_sum`` in numpy's form and order
SUM = r"""
/* numpy's pairwise float64 sum of n loads: beyond 128, the sums of the
 * halves split at n/2 rounded down to a multiple of 8; from 8, 8 lanes
 * seeded by the first 8 and stepping by 8, combined
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); then the fewer than 8 loads
 * left, one after another */
static inline double repro_pw_{name}(const {ctype}* x, long long n) {
    double r[8], s = 0.0;
    long long i = 0, h;
    if (n > 128) {
        h = n / 2;
        h -= h % 8;
        return repro_pw_{name}(x, h) + repro_pw_{name}(x + h, n - h);
    }
    if (n >= 8) {
{seeds}
        for (i = 8; i < n - n % 8; i += 8) {
{lanes}
        }
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; ++i) s += {x};
    return s;
}
"""

#: ``partial_<op>_<in>``: ``np.sum``'s ``0.0 + pairwise`` of ``S[0]``
#: loads (``dev.partial``); ``total_<op>_<out>``: the same over ``S[0]``
#: partials, a norm's root, one rounding (``dev.total``; over one
#: partial, never ``-0.0``, ``dev.reduce_local``)
PARTIAL = r"""
void {name}(char** A, double* S) {
    *(double*)A[1] = 0.0 + repro_pw_{pw}((const void*)A[0], (long long)S[0]);
}
"""
TOTAL = r"""
void {name}(char** A, double* S) {
    const double s = 0.0 + repro_pw_f64((const double*)A[0], (long long)S[0]);
    {ctype}* o = ({ctype}*)A[1];
    {store}
}
"""

#: appended to sources with an FP16 input: the launcher's placement cast
#: (:func:`repro.runtime.spmd._place_regions`), numpy's ``astype``
#: restated by ``repro_d2h``, into two destinations at once or, passed
#: twice, one. One loop: a second one (a loop per destination count)
#: would double the vectorizer's share of the cold compile
PLACE_F16 = r"""
/* S[0] float64 loads of A[0] rounded to half, each stored into A[1]
 * and A[2]: one read of each load */
void place_f16(char** A, double* S) {
    const double* x = (const double*)A[0];
    uint16_t* a = (uint16_t*)A[1];
    uint16_t* b = (uint16_t*)A[2];
    const long long n = (long long)S[0];
    for (long long i = 0; i < n; ++i) {
        const uint16_t h = repro_d2h(x[i]);
        a[i] = h;
        b[i] = h;
    }
}
"""


# ---------------------------------------------------------------------------
# Content-addressed kernel cache.
# ---------------------------------------------------------------------------

#: in-process memo in front of the disk cache: path -> CompiledKernels
_MEMO: Dict[str, CompiledKernels] = {}


def _blas_of(c_source: str) -> Optional[Tuple[str, str]]:
    """The ``(path, sgemm symbol)`` of the BLAS ``c_source`` calls, or
    ``None`` when it calls none."""
    if "repro_sgemm_t" not in c_source:
        return None
    found = blas()
    if found is None:
        raise CodegenError("kernel source calls a BLAS, and none was found")
    return found[:2]


def source_key(c_source: str) -> str:
    """SHA-256 over the C source plus the compiler identity and flags,
    the target ``-march=native`` resolved to (so no host opens an object
    built for another CPU's instructions), and the identity of the BLAS
    it calls, if any. At the baseline flags the key is the target-less
    one."""
    cc = _find_cc() or ""
    h = hashlib.sha256()
    h.update(c_source.encode())
    h.update(b"\x00")
    h.update(cc.encode())
    found = _toolchain(cc) if cc else None
    h.update(found.version.encode() if found else b"")
    h.update(" ".join(compile_flags()).encode())
    if found and found.target:
        h.update(" ".join(found.target).encode())
    linked = _blas_of(c_source)
    if linked is not None:
        h.update(repr(linked).encode())
    return h.hexdigest()


#: where a source's next function definition starts (its attribute
#: line included)
_DEFINITION = re.compile(
    r"^(?:REPRO_\w+\n)?void \w+\(char\*\* A, double\* S\)", re.M
)


#: a line every unit would need: a declaration, a static helper or a
#: directive
_SHARED = re.compile(r"^(?:static|typedef|#)", re.M)


def _units(c_source: str, jobs: int) -> List[str]:
    """``c_source`` as at most ``jobs`` translation units of about equal
    work: each is the shared prelude (types and ``static inline``
    helpers) and some of the functions, balanced by the loops the
    vectorizer sees, which dominate a compile. A source that declares
    something shared after its first function is one unit."""
    starts = [m.start() for m in _DEFINITION.finditer(c_source)]
    if jobs < 2 or len(starts) < 2 or _SHARED.search(c_source, starts[0]):
        return [c_source]
    head = c_source[: starts[0]]
    functions = [
        c_source[a:b] for a, b in zip(starts, starts[1:] + [len(c_source)])
    ]

    def work(fn: str) -> int:
        return 1 + (0 if fn.startswith("REPRO_SCALAR") else fn.count("for ("))

    units: List[List[str]] = [[] for _ in range(min(jobs, len(functions)))]
    load = [0] * len(units)
    for fn in sorted(functions, key=work, reverse=True):
        k = load.index(min(load))
        units[k].append(fn)
        load[k] += work(fn)
    return [head + "".join(unit) for unit in units]


def _compile(c_source: str, so_path: str, jobs: int) -> None:
    """Compile ``c_source`` into a temp object, then install it.

    The functions compile as up to ``jobs`` translation units, in
    parallel, then link into one object. Runs inside
    :func:`repro.store.lock`, so concurrent processes compiling the same
    source wait for one compile instead of racing.
    """
    cc = _find_cc()
    if cc is None:
        raise CodegenError(
            "native codegen target needs a C compiler (cc/gcc/clang) on "
            "PATH — none found"
        )
    flags = [f for f in compile_flags() if f != "-shared"]

    def build(tmp_so: str) -> None:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(so_path)) as tmp:
            objects, procs = [], []
            for k, unit in enumerate(_units(c_source, jobs)):
                c_file = os.path.join(tmp, f"u{k}.c")
                with open(c_file, "w") as f:
                    f.write(unit)
                objects.append(os.path.join(tmp, f"u{k}.o"))
                procs.append(subprocess.Popen(
                    [cc, *flags, "-c", "-o", objects[-1], c_file],
                    stderr=subprocess.PIPE, text=True,
                ))
            try:
                stderr = [p.communicate(timeout=300)[1] for p in procs]
                failed = [e for p, e in zip(procs, stderr) if p.returncode]
            finally:
                for p in procs:
                    if p.poll() is None:
                        p.kill()
                        p.wait()
            if not failed:
                link = subprocess.run(
                    [cc, "-shared", "-o", tmp_so, *objects, "-lm"],
                    capture_output=True, text=True, timeout=300,
                )
                failed = [link.stderr] if link.returncode else []
        if failed:
            raise CodegenError(
                f"kernel compilation failed ({cc}):\n"
                + "".join(failed)[-4000:]
            )

    store.install(so_path, build)


#: the uniform ABI every generated C function is declared with
_FUNCTION = re.compile(r"^void (\w+)\(char\*\* A, double\* S\)", re.M)


def load_kernels(c_source: str, observer=None) -> CompiledKernels:
    """Resolve C source to a loaded shared object via the kernel cache.

    In-process memo first (while its file exists), then
    ``cache_dir()/<sha256>.so``, then a locked compile with atomic
    install, of up to one translation unit per CPU: the launch waits on
    it, since a pointer module's ranks start in tens of milliseconds.
    ``observer``, when given, is anything with
    ``record_compile(name, seconds, status)`` (a
    :class:`~repro.observe.events.Tracer`): it hears of a compile,
    ``status`` ``"compile"`` or ``"recompile"``, and of no cache hit.
    """
    key = source_key(c_source)
    so_path = os.path.join(cache_dir(), f"{key}.so")
    memo = _MEMO.get(so_path)
    if memo is not None and os.path.exists(so_path):
        metrics.inc("native.cache.memo_hits")
        return memo
    functions = _FUNCTION.findall(c_source)
    linked = _blas_of(c_source)
    t0 = time.perf_counter()
    with store.lock(so_path):
        compiled = None
        status = "compile"
        if os.path.exists(so_path):
            compiled = open_kernels(key, so_path, functions, linked)
            if compiled is None:
                # stale/corrupt entry: drop it and recompile below
                metrics.inc("native.cache.recompiles")
                status = "recompile"
                store.discard(so_path)
        if compiled is None:
            _compile(c_source, so_path, os.cpu_count() or 1)
            compiled = open_kernels(key, so_path, functions, linked)
            if compiled is None:  # pragma: no cover - defensive
                raise CodegenError(
                    f"compiled kernel at {so_path} is unloadable"
                )
            seconds = time.perf_counter() - t0
            metrics.inc("native.cache.compiles")
            metrics.inc("native.cache.compile_seconds", seconds)
            if observer is not None:
                observer.record_compile(key[:12], seconds, status)
        else:
            metrics.inc("native.cache.disk_hits")
    _MEMO[so_path] = compiled
    return compiled


# ---------------------------------------------------------------------------
# The C renderer used by the code generator.
# ---------------------------------------------------------------------------

#: ops whose Python emission the C loop reproduces bit-exactly
_C_BINARY = ("+", "-", "*", "/", "max", "min")
_C_UNARY = ("sqrt", "rsqrt", "relu", "abs")

_CTYPE = {"float16": "uint16_t", "float32": "float", "float64": "double"}
#: each C dtype's ``struct`` format and its short name in helper names
_FORMAT = {"float16": "e", "float32": "f", "float64": "d"}
_SHORT = {"float16": "f16", "float32": "f32", "float64": "f64"}

#: per ``fold_ranks`` reduction, its fold helpers' name and the C that
#: folds value ``{v}`` into the accumulator ``{a}``
FOLDS = {
    "+": ("sum", "repro_nan_first({a}, {a} + {v})"),
    "*": ("prod", "repro_nan_first({a}, {a} * {v})"),
    "max": ("max", "repro_max({a}, {v})"),
    "min": ("min", "repro_min({a}, {v})"),
}

#: a fold helper's block: the elements one stack accumulator holds, and
#: the constant trip count of the helper's loops
_FOLD_BLOCK = 512

#: a loop whose trip count is a multiple of this tells gcc so
_VF = 64


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


def _load(cvar: str, dt: str, idx: str) -> str:
    if dt == "float16":
        return f"repro_h2d({cvar}[{idx}])"
    if dt == "float32":
        return f"(double){cvar}[{idx}]"
    return f"{cvar}[{idx}]"


def _rounded(
    dt: str, var: str, expr: str, read: bool
) -> Tuple[List[str], str]:
    """Bind ``var`` to ``expr`` rounded to ``dt``'s value domain.

    Returns the C lines and the value a store into a ``dt`` array
    writes. An FP16 value keeps its half bits, so storing it is the one
    ``repro_d2h`` that rounded it, not a second one of the widened
    double; ``var`` itself is bound only when the loop ``read``s it.
    """
    if dt == "float16":
        bits = f"h{var}"
        lines = [f"uint16_t {bits} = repro_d2h({expr});"]
        if read:
            lines.append(f"double {var} = repro_h2d({bits});")
        return lines, bits
    if dt == "float32":
        return [f"double {var} = (double)(float)({expr});"], f"(float){var}"
    return [f"double {var} = {expr};"], var


def _fold_source(name: str, op: str, src: str, dst: str) -> str:
    """The C of fold helper ``name``, called once per run: ``A`` holds
    the ``k`` participants' ``src`` rows of ``n`` elements in rank
    order, then the ``dst`` result, and ``S`` is ``(n, k)``.

    For each block of :data:`_FOLD_BLOCK` elements, a float64
    accumulator on the stack starts as the first row, folds in each
    later row in rank order and is rounded once into the result: the
    bits of :func:`~repro.runtime.collectives.fold_ranks` (which copies
    its first row) then ``astype``.

    The element loops have a constant trip count, so the vectorizer
    builds no remainder loops for them, which a cold compile would pay
    for. The last block is shifted back to end at ``n``: it stores some
    elements a second time, with the same values, since the result
    never aliases a row. A run shorter than one block is folded one
    element at a time. The rank and block steps are ``while`` loops:
    each ``for`` loop is an element loop, and vectorizes, for every rank
    (``REPRO_NO_JAM``, :data:`FOLD_NAN`).
    """
    cin, cout = _CTYPE[src], _CTYPE[dst]
    combine = FOLDS[op][1]
    block = _FOLD_BLOCK

    def store(acc: str, at: str) -> str:
        lines, stored = _rounded(dst, "v", acc, False)
        return " ".join(lines + [f"o[{at}] = {stored};"])

    first = _load(f"((const {cin}*)A[0])", src, "at")
    one = combine.format(a="a", v=_load("x", src, "at"))
    row = _load("x", src, "i")
    fold = combine.format(a="acc[i]", v=row)
    rounded = store("acc[i]", "at + i")
    return f"""
REPRO_NO_JAM
void {name}(char** A, double* S) {{
    const long long n = (long long)S[0];
    const long long k = (long long)S[1];
    {cout}* o = ({cout}*)A[k];
    const {cin}* x;
    double acc[{block}];
    long long at = 0, r;
    if (n < {block}) {{
        while (at < n) {{
            double a = {first};
            r = 1;
            while (r < k) {{
                x = (const {cin}*)A[r++];
                a = {one};
            }}
            {store("a", "at++")}
        }}
        return;
    }}
    while (at < n) {{
        if (at > n - {block}) at = n - {block};
        x = (const {cin}*)A[0] + at;
        for (long long i = 0; i < {block}; ++i) acc[i] = {row};
        r = 1;
        while (r < k) {{
            x = (const {cin}*)A[r++] + at;
            for (long long i = 0; i < {block}; ++i)
                acc[i] = {fold};
        }}
        for (long long i = 0; i < {block}; ++i) {{ {rounded} }}
        at += {block};
    }}
}}
"""


def _sum_source(name: str, dt: str, square: bool) -> str:
    """``repro_pw_<name>``: :data:`SUM` of ``dt`` loads, or squares."""

    def load(i: str) -> str:
        v = _load("x", dt, i)
        return f"{v} * {v}" if square else v

    return (
        SUM.replace("{name}", name).replace("{ctype}", _CTYPE[dt])
        .replace("{seeds}", "\n".join(
            f"        r[{j}] = {load(str(j))};" for j in range(8)
        )).replace("{lanes}", "\n".join(
            f"            r[{j}] += {load(f'i + {j}')};" for j in range(8)
        )).replace("{x}", load("i"))
    )


class _Array:
    def __init__(self, cvar: str, dt: str, py_ref: str, n: int) -> None:
        self.cvar = cvar
        self.dt = dt
        self.py_ref = py_ref
        self.n = n


class NativeEmitter:
    """Renders the C of a pointer module: one function per compute run,
    plus the fold and reduction helpers its collectives and norms call.

    Owned by one :class:`~repro.core.codegen.generator.CodeGenerator`
    invocation; the generator calls :meth:`emit_segment` for each
    compute segment, :meth:`fold` for a collective's fold and
    :meth:`emit_reduction` for a Norm or ReduceTensor, then hands
    :meth:`c_source` to the launcher. Values are addresses.
    """

    def __init__(self, lowered) -> None:
        self.functions: List[str] = []
        #: fold and reduction helpers by name
        self.helpers: Dict[str, str] = {}
        #: the pairwise sums the reduction helpers call, by name
        self._sums: Dict[str, str] = {}
        self._half_minmax = False
        self._pow = False
        self._dropout = False
        #: the BLAS integer width, once a GEMM is emitted
        self._blas_bits: Optional[int] = None
        self._consumers: Dict[int, List[Expr]] = {}
        for k in lowered.plan.kernels:
            for e in k.exprs:
                for x in e.inputs:
                    self._consumers.setdefault(id(x), []).append(e)
        self._output_ids = {id(o) for o in lowered.program.outputs}
        #: whether the launcher casts an input to FP16 (:data:`PLACE_F16`)
        self._place_f16 = any(
            _cdt(t.dtype) == "float16" for t in lowered.program.inputs
        )

    def c_source(self) -> Optional[str]:
        if not self.functions and not self.helpers:
            return None
        folds = any(h.startswith("fold_") for h in self.helpers)
        prelude = (
            PRELUDE + (HALF_MINMAX if self._half_minmax else "")
            + (POW if self._pow else "")
            + (DROPOUT if self._dropout else "")
            + (
                BLAS.replace("{bits}", str(self._blas_bits))
                if self._blas_bits else ""
            )
            + (FOLD_NAN if folds else "")
            + "".join(self._sums[k] for k in sorted(self._sums))
            + "".join(self.helpers[k] for k in sorted(self.helpers))
            + (PLACE_F16 if self._place_f16 else "")
        )
        return prelude + "\n" + "\n".join(self.functions)

    def fold(self, op: str, src, dst) -> str:
        """The name of the C helper folding ``src``-dtype rank rows into
        a ``dst``-dtype result by reduction ``op`` (a ReduceScatter or
        AllReduce), added to the source once."""
        src, dst = _cdt(src), _cdt(dst)
        name = f"fold_{FOLDS[op][0]}_{_SHORT[src]}_{_SHORT[dst]}"
        if name not in self.helpers:
            self.helpers[name] = _fold_source(name, op, src, dst)
        return name

    def emit_reduction(
        self, em, e: Expr, ranks: Optional[str] = None, count: int = 1
    ) -> None:
        """Norm or ``+`` ReduceTensor ``e``: this rank's partial, the
        partials of the ``count`` ranks of tuple ``ranks`` gathered as
        8-byte rows in rank order (none for a local reduction), then
        their total (:data:`PARTIAL`, :data:`TOTAL`)."""
        x = e.inputs[0]
        op = "norm" if isinstance(e, ops.Norm) else "sum"
        src, dst = _cdt(x.dtype), _cdt(e.dtype)
        pw = _SHORT[src] + ("_sq" if op == "norm" else "")
        self._sums[pw] = _sum_source(pw, src, op == "norm")
        self._sums["f64"] = _sum_source("f64", "float64", False)
        partial = f"partial_{op}_{_SHORT[src]}"
        self.helpers[partial] = PARTIAL.replace("{name}", partial).replace(
            "{pw}", pw
        )
        total = f"total_{op}_{_SHORT[dst]}"
        lines, stored = _rounded(
            dst, "v", "sqrt(s)" if op == "norm" else "s", False
        )
        self.helpers[total] = (
            TOTAL.replace("{name}", total).replace("{ctype}", _CTYPE[dst])
            .replace("{store}", "\n    ".join(lines + [f"o[0] = {stored};"]))
        )
        out = f"V[{e.name!r}]"
        em.emit("_part = comm.alloc(8)")
        em.emit(
            f"_K.call({partial!r}, (V[{x.name!r}],), "
            f"({_prod(x.per_rank_shape())},), (_part,))"
        )
        if ranks is not None:
            em.emit(f"_part = comm.allgather(_part, {ranks}, 8)")
        em.emit(f"{out} = comm.alloc({e.per_rank_bytes()})")
        em.emit(f"_K.call({total!r}, (_part,), ({count},), ({out},))")

    # -- qualification --------------------------------------------------

    def _c_able(self, e: Expr) -> bool:
        """Whether ``e`` is a loop op: one the C loop restates."""
        if isinstance(e, ops.Binary):
            if e.op == "pow":
                # libm's pow may differ from numpy's float64 power in
                # the last bit (numpy's SIMD loops on AVX-512 hosts): a
                # 0-d FP32/FP16 result rounds that bit away
                if _cdt(e.dtype) == "float64":
                    return False
                if _prod(e.per_rank_shape()) != 1:
                    return False
            elif e.op not in _C_BINARY:
                return False
        elif isinstance(e, ops.Unary):
            if e.op not in _C_UNARY:
                return False
        elif isinstance(e, ops.Update):
            # stored by the loop, into the target's storage
            if e.per_rank_shape() != e.inputs[0].per_rank_shape():
                return False
        elif isinstance(e, ops.Dropout):
            # a mask element's key is its global index: this rank's
            # offset plus the loop's, so the slice must be whole rows
            if e.layout.is_sliced and normalize_dim(
                e.layout.dim, len(e.shape)
            ) != 0:
                return False
        elif not isinstance(e, ops.Cast):
            return False
        if _cdt(e.dtype) is None:
            return False
        oshape = e.per_rank_shape()
        for x in e.inputs:
            if _cdt(x.dtype) is None:
                return False
            xs = x.per_rank_shape()
            if _prod(xs) == 1:
                continue  # scalar broadcast via the scalars array
            if not _suffix_ok(xs, oshape):
                return False
        return True

    def _gemm_able(self, e: Expr) -> bool:
        """Whether MatMul ``e`` is one that numpy runs as plain ``sgemm``
        calls, one per leading batch, so the C can make the same calls
        (:meth:`_emit_gemm`).

        Its operands are FP16 or FP32 (numpy multiplies float32 upcasts)
        and distinct buffers (numpy calls ``syrk`` on one buffer times
        its transpose); A has rank 2 or 3 and B rank 2, both contiguous;
        no dimension is 1, where numpy calls ``gemv`` or a dot instead;
        and a BLAS was found (:func:`blas`).
        """
        a, b = e.inputs
        found = blas()
        if (
            found is None
            or isinstance(a, Const) or isinstance(b, Const) or a is b
            or _cdt(e.dtype) is None
            or any(_cdt(x.dtype) not in ("float16", "float32") for x in (a, b))
        ):
            return False
        ashape = a.per_rank_shape()
        dims = (*ashape, b.per_rank_shape()[1])
        return (
            len(ashape) in (2, 3) and min(dims) > 1
            and max(dims) < 2 ** (found[2] - 1)
        )

    def _escapes(self, e: Expr, run_ids: set) -> bool:
        if id(e) in self._output_ids or isinstance(e, ops.Update):
            return True
        consumers = self._consumers.get(id(e))
        if not consumers:
            return True  # unknown reader — store defensively
        return any(id(c) not in run_ids for c in consumers)

    # -- segment emission -----------------------------------------------

    def emit_segment(self, gen, em, exprs: Sequence[Expr]) -> None:
        """Emit one compute segment as C calls.

        Rank-invariant scalars go first: a 0-d expression whose inputs
        in the segment are such scalars themselves (``np.power(β, t)``
        and the like) is computed before everything else, so it does
        not split the loops around it. Then maximal runs of loop ops
        with the same flat per-rank element count become one compiled
        loop each, and a GEMM one function; a slice copy or a local
        reduction goes through the generator's ``_emit_op``, reading and
        writing the same ``V``.
        """
        ids = {id(e) for e in exprs}
        first = set()
        for e in exprs:
            if (
                _prod(e.per_rank_shape()) < 2
                and not isinstance(e, ops.Update)
                and all(id(x) in first or id(x) not in ids for x in e.inputs)
            ):
                first.add(id(e))
        exprs = [e for e in exprs if id(e) in first] + [
            e for e in exprs if id(e) not in first
        ]
        runs: List[Tuple[str, List[Expr], int]] = []
        for e in exprs:
            if isinstance(e, ops.MatMul):
                runs.append(("gemm", [e], 0))
            elif self._c_able(e):
                n = _prod(e.per_rank_shape())
                if runs and runs[-1][0] == "c" and runs[-1][2] == n:
                    runs[-1][1].append(e)
                else:
                    runs.append(("c", [e], n))
            else:
                runs.append(("op", [e], 0))
        for kind, group, n in runs:
            if kind == "op":
                gen._emit_op(em, group[0])
            elif kind == "gemm":
                self._emit_gemm(em, group[0])
            else:
                self._emit_c_run(gen, em, group, n)

    def _minmax(self, e: Expr, op: str) -> str:
        """The C helper for ``op`` (``max``/``min``) of ``e``'s operands:
        numpy's loop for their result type decides a signed-zero tie
        (``relu``'s ``0`` is a Python int and takes ``x``'s type)."""
        dtypes = [x.dtype.to_numpy() for x in e.inputs]
        if np.result_type(*dtypes) != np.float16:
            return f"repro_{op}"
        self._half_minmax = True
        return f"repro_h{op}"

    def _emit_gemm(self, em, e: Expr) -> None:
        """MatMul ``e`` as C function ``s<k>``, restating
        :func:`repro.core.codegen.device.gemm` on numpy's own BLAS.

        FP16 operands are upcast to float (``repro_h2d``, exact) into
        scratch from ``comm.alloc``; an sNaN comes out quiet, as the
        product's first arithmetic would make it. Then come numpy's
        own calls: one RowMajor, NoTrans ``sgemm`` per leading batch,
        with its leading dimensions (one call over the flattened batches
        may block the sums differently). The float product is rounded
        once to the output dtype. ``S`` is ``(batches, m, n, k)``; ``A``
        is A, B, the ``sgemm`` address, the scratch, then the output.
        """
        self._blas_bits = blas()[2]
        a, b = e.inputs
        ashape = a.per_rank_shape()
        m, k = ashape[-2:]
        n = b.per_rank_shape()[1]
        batches = _prod(ashape[:-2])
        dt = _cdt(e.dtype)
        fn = f"s{len(self.functions)}"
        lines = [
            "REPRO_SCALAR",
            f"void {fn}(char** A, double* S) {{",
            "    const long long batches = (long long)S[0];",
            "    const long long m = (long long)S[1];",
            "    const long long n = (long long)S[2];",
            "    const long long k = (long long)S[3];",
            "    const repro_sgemm_t sgemm = (repro_sgemm_t)(void*)A[2];",
        ]
        scratch: List[int] = []  # bytes of A[3], A[4], ...
        operands = ((a, "batches * m * k"), (b, "k * n"))
        for j, (x, count) in enumerate(operands):
            v = "ab"[j]
            if _cdt(x.dtype) == "float32":
                lines.append(f"    const float* f{v} = (const float*)A[{j}];")
                continue
            lines += [
                f"    const uint16_t* {v} = (const uint16_t*)A[{j}];",
                f"    float* f{v} = (float*)A[{3 + len(scratch)}];",
                f"    for (long long i = 0; i < {count}; ++i) "
                f"f{v}[i] = (float)repro_h2d({v}[i]);",
            ]
            scratch.append(4 * _prod(x.per_rank_shape()))
        lines.append(f"    float* fc = (float*)A[{3 + len(scratch)}];")
        if dt != "float32":  # the product in scratch, then rounded
            scratch.append(4 * _prod(e.per_rank_shape()))
            ct = _CTYPE[dt]
            lines.append(f"    {ct}* o = ({ct}*)A[{3 + len(scratch)}];")
        lines += [
            "    for (long long j = 0; j < batches; ++j)",
            "        sgemm(101, 111, 111, m, n, k, 1.0f, fa + j * m * k, k,",
            "              fb, n, 0.0f, fc + j * m * n, n);",
        ]
        if dt != "float32":
            rounded, stored = _rounded(dt, "v", "(double)fc[i]", False)
            lines += [
                "    for (long long i = 0; i < batches * m * n; ++i) {",
                *(f"        {ln}" for ln in rounded),
                f"        o[i] = {stored};",
                "    }",
            ]
        lines.append("}")
        self.functions.append("\n".join(lines) + "\n")

        out = f"V[{e.name!r}]"
        em.emit(f"# library GEMM call (cuBLAS analogue) from C, {fn}")
        em.emit(f"{out} = comm.alloc({e.per_rank_bytes()})")
        bufs = "".join(f"comm.alloc({nbytes}), " for nbytes in scratch)
        em.emit(
            f"_K.call({fn!r}, (V[{a.name!r}], V[{b.name!r}], _K.sgemm), "
            f"({batches}, {m}, {n}, {k}), ({bufs}{out},))"
        )

    def _emit_c_run(self, gen, em, run: List[Expr], n: int) -> None:
        """One compiled loop over ``run``.

        The function, ``s<k>`` for the module's ``k``-th, reads its
        input arrays and then writes its output arrays (``A`` in that
        order). ``S[0]`` is the trip count ``n``, so the source is the
        same at every size; a broadcast operand's modulus stays a
        literal. An escaping value gets a ``comm.alloc`` buffer of its
        own, and an ``Update`` is stored straight into its target's
        storage (:meth:`CodeGenerator._update_region`).
        """
        run_ids = {id(e) for e in run}
        var_of: Dict[int, str] = {}
        arrays: List[_Array] = []
        arr_index: Dict[str, int] = {}
        # S[0] is the trip count, so the source does not depend on it
        scalars: List[str] = [str(n)]
        scalar_index: Dict[str, int] = {}
        body: List[str] = []

        def scalar(key: str, value: str) -> str:
            if key not in scalar_index:
                scalar_index[key] = len(scalars)
                scalars.append(value)
            return f"S[{scalar_index[key]}]"

        def operand(x: Expr) -> str:
            if id(x) in var_of:
                return var_of[id(x)]
            if isinstance(x, Const):
                # pass the value in S, rounded to the Const's declared
                # dtype first — the Python path materializes e.g. an
                # FP32 0.1 as float64(float32(0.1)), not the raw double
                val = float(np.asarray(x.value, dtype=x.dtype.to_numpy()))
                return scalar(f"c:{x.name}", repr(val))
            nx = _prod(x.per_rank_shape())
            if nx == 1:
                # 0-d value read from V, as its exact f64 upcast
                return scalar(
                    x.name,
                    f"comm.scalar(V[{x.name!r}], {_FORMAT[_cdt(x.dtype)]!r})",
                )
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
                if e.op in ("max", "min"):
                    core = f"{self._minmax(e, e.op)}({a}, {b})"
                elif e.op == "pow":
                    self._pow = True
                    core = f"pow({a}, {b})"
                else:
                    core = f"({a}) {e.op} ({b})"
            elif isinstance(e, ops.Dropout):
                self._dropout = True
                x = operand(e.inputs[0])
                # this rank's first global index (a dim-0 slice's rows
                # are consecutive), then the seed's 64-bit key as two
                # exact halves: the source does not depend on either
                key = seed_key(e.seed)
                first = scalar(
                    f"first:{e.name}",
                    f"_i * {n}" if e.layout.is_sliced else "0",
                )
                hi = scalar(f"hi:{e.name}", str(key >> 32))
                lo = scalar(f"lo:{e.name}", str(key & 0xFFFFFFFF))
                prob = scalar(f"p:{e.name}", repr(e.prob))
                scale = scalar(f"scale:{e.name}", repr(1.0 / (1.0 - e.prob)))
                core = (
                    f"repro_dropout({x}, (uint64_t)(i + (long long){first}), "
                    f"((uint64_t){hi} << 32) | (uint64_t){lo}, {prob}, "
                    f"{scale})"
                )
            elif isinstance(e, ops.Unary):
                x = operand(e.inputs[0])
                if e.op == "relu":
                    core = f"{self._minmax(e, 'max')}({x}, 0.0)"
                else:
                    core = {
                        "sqrt": f"sqrt({x})",
                        "rsqrt": f"1.0 / sqrt({x})",
                        "abs": f"fabs({x})",
                    }[e.op]
            else:  # Cast / Update: the value, rounded to the out dtype
                core = operand(e.inputs[0])
            var = f"e{j}"
            dt = _cdt(e.dtype)
            read = any(
                id(c) in run_ids for c in self._consumers.get(id(e), ())
            )
            lines, stored = _rounded(dt, var, core, read)
            body.extend(lines)
            var_of[id(e)] = var
            if self._escapes(e, run_ids):
                out = _Array(f"o{len(stores)}", dt, f"V[{e.name!r}]", n)
                stores.append((e, out))
                body.append(f"{out.cvar}[i] = {stored};")

        fn = f"s{len(self.functions)}"
        lines = [f"void {fn}(char** A, double* S) {{"]
        for k, a in enumerate(arrays):
            ct = _CTYPE[a.dt]
            lines.append(f"    const {ct}* {a.cvar} = (const {ct}*)A[{k}];")
        for k, (_, a) in enumerate(stores, len(arrays)):
            ct = _CTYPE[a.dt]
            lines.append(f"    {ct}* {a.cvar} = ({ct}*)A[{k}];")
        if n == 1:
            # 0-d values (a pointer module's prologue): no loop
            lines.append("    const long long i = 0;")
            lines.extend(f"    {ln}" for ln in body)
        else:
            lines.append("    const long long n = (long long)S[0];")
            if n % _VF == 0:
                # a trip count the vectorizer knows is whole vectors: no
                # epilogue loop, which a plain runtime bound would add
                lines.append(f"    if (n % {_VF}) __builtin_unreachable();")
            lines.append("    for (long long i = 0; i < n; ++i) {")
            lines.extend(f"        {ln}" for ln in body)
            lines.append("    }")
        lines.append("}")
        self.functions.append("\n".join(lines) + "\n")

        names = ", ".join(e.name for e in run)
        em.emit(f"# compiled native segment ({fn}): {names}")
        for e, _ in stores:
            region = (
                gen._update_region(e) if isinstance(e, ops.Update) else None
            )
            em.emit(
                f"V[{e.name!r}] = "
                + (region or f"comm.alloc({e.per_rank_bytes()})")
            )
        ins = "".join(f"{a.py_ref}, " for a in arrays)
        outs = "".join(f"{a.py_ref}, " for _, a in stores)
        sc = "".join(f"{v}, " for v in scalars)
        em.emit(
            f"_K.call({fn!r}, ({ins.rstrip()}), ({sc.rstrip()}), "
            f"({outs.rstrip()}))"
        )
