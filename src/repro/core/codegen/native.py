"""Native compiled codegen target: C kernels + a content-hash cache.

The SPMD backend executes generated *Python* per rank, so the
interpreter is the hot path: every elementwise op pays a float64
temporary and a full memory pass. This module renders the elementwise
parts of a :class:`~repro.core.lower.LoweredProgram` kernel to C —
maximal runs fused into a *single* loop per segment — compiles them
with ``cc`` into one shared object per module, and memoizes the
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

GEMMs are not compiled: like the paper's generated code, which leaves
them to the vendor library, a MatMul stays the interpreter's own
library call, :func:`repro.core.codegen.device.gemm` (FP16 operands
upcast to FP32, one rounding of the product), so GEMM programs are
bit-identical too.

Kernel cache
------------
``~/.cache/repro/kernels/<sha256>.so`` (override with
``$REPRO_KERNEL_CACHE``), keyed by SHA-256 over the C source plus the
compiler identity and flags. The source depends only on the program's
fused structure: a loop's trip count travels as its first scalar,
``S[0]``, and functions are named by position (``s0``, ``s1``, …), so
there is one object per fused structure. A schedule at another size
or world size (an elastic recovery's smaller world), or a tuner
candidate that fuses alike, is a memo or disk hit. Writes are
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
:func:`repro.core.codegen.device.open_kernels`: a rank imports none of
this module and never compiles.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import store
from repro.core import ops
from repro.core.codegen.device import CompiledKernels, open_kernels
from repro.core.tensor import Const, Expr
from repro.errors import CodegenError
from repro.observe.metrics import MetricsRegistry

__all__ = [
    "available",
    "toolchain_report",
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
    run on.
    """
    cc = _find_cc()
    cdir = cache_dir()
    try:
        cached = len([f for f in os.listdir(cdir) if f.endswith(".so")])
    except OSError:
        cached = 0
    return {
        "cc": cc,
        "cc_version": _cc_version(cc) if cc else None,
        "blas": _numpy_blas(),
        "cache_dir": cdir,
        "cached_kernels": cached,
    }


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
    uint32_t hs, hi, lo, h, m;
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
     * and lo nonzero (folded into hi's low bit, which inf's lacks) */
    h |= 0x0200u & -(uint32_t)((int32_t)(hi | (lo != 0u)) > 0x7ff00000);
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


# ---------------------------------------------------------------------------
# Content-addressed kernel cache.
# ---------------------------------------------------------------------------

#: in-process memo in front of the disk cache: path -> CompiledKernels
_MEMO: Dict[str, CompiledKernels] = {}


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


def _compile(c_source: str, so_path: str) -> None:
    """Compile ``c_source`` into a temp object, then install it.

    Runs inside :func:`repro.store.lock`, so concurrent processes
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


#: the uniform ABI every generated C function is declared with
_FUNCTION = re.compile(r"^void (\w+)\(char\*\* A, double\* S\)", re.M)


def load_kernels(c_source: str, observer=None) -> CompiledKernels:
    """Resolve C source to a loaded shared object via the kernel cache.

    In-process memo first (while its file exists), then
    ``cache_dir()/<sha256>.so``, then a locked compile with atomic
    install. ``observer``, when given, is anything with
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
    t0 = time.perf_counter()
    with store.lock(so_path):
        compiled = None
        status = "compile"
        if os.path.exists(so_path):
            compiled = open_kernels(key, so_path, functions)
            if compiled is None:
                # stale/corrupt entry: drop it and recompile below
                metrics.inc("native.cache.recompiles")
                status = "recompile"
                store.discard(so_path)
        if compiled is None:
            _compile(c_source, so_path)
            compiled = open_kernels(key, so_path, functions)
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
    otherwise emit per-op numpy lines, then embeds :meth:`c_source`
    into the module.
    """

    def __init__(self, lowered) -> None:
        self.functions: List[str] = []
        self._half_minmax = False
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
        prelude = PRELUDE + (HALF_MINMAX if self._half_minmax else "")
        return prelude + "\n" + "\n".join(self.functions)

    # -- qualification --------------------------------------------------

    def _c_able(self, e: Expr) -> bool:
        if isinstance(e, ops.Binary):
            if e.op not in _C_BINARY:
                return False
        elif isinstance(e, ops.Unary):
            if e.op not in _C_UNARY:
                return False
        elif isinstance(e, ops.Update):
            # stored by the loop, into the target's storage when it can
            # take the value (else a Python write copies it there)
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

        Rank-invariant scalars go first: a 0-d expression whose inputs
        in the segment are such scalars themselves (``np.power(β, t)``
        and the like) is computed before everything else, so it does
        not split the loops around it. Then maximal runs of C-able
        elementwise expressions with the same flat per-rank element
        count become one compiled loop each; everything else goes
        through the generator's normal ``_emit_op`` emission, reading
        and writing the same ``V``.
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

    def _minmax(self, e: Expr, op: str) -> str:
        """The C helper for ``op`` (``max``/``min``) of ``e``'s operands:
        numpy's loop for their result type decides a signed-zero tie
        (``relu``'s ``0`` is a Python int and takes ``x``'s type)."""
        dtypes = [x.dtype.to_numpy() for x in e.inputs]
        if np.result_type(*dtypes) != np.float16:
            return f"repro_{op}"
        self._half_minmax = True
        return f"repro_h{op}"

    def _emit_c_run(self, gen, em, run: List[Expr], n: int) -> None:
        """One compiled loop over ``run``.

        The function, ``s<k>`` for the module's ``k``-th, reads its
        input arrays and then writes its output arrays (``A`` in that
        order). ``S[0]`` is the trip count ``n``, so the source is the
        same at every size; a broadcast operand's modulus stays a
        literal. An escaping value gets an ``np.empty`` array of its
        own, except an ``Update`` whose target storage can take it
        (:meth:`CodeGenerator._update_region`): the loop stores that
        one straight into the region.
        """
        run_ids = {id(e) for e in run}
        var_of: Dict[int, str] = {}
        arrays: List[_Array] = []
        arr_index: Dict[str, int] = {}
        # S[0] is the trip count, so the source does not depend on it
        scalars: List[str] = [str(n)]
        scalar_index: Dict[str, int] = {}
        body: List[str] = []

        def operand(x: Expr) -> str:
            if id(x) in var_of:
                return var_of[id(x)]
            if isinstance(x, Const):
                # pass the value in S, rounded to the Const's declared
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
                if e.op in ("max", "min"):
                    core = f"{self._minmax(e, e.op)}({a}, {b})"
                else:
                    core = f"({a}) {e.op} ({b})"
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
        copied_back: List[Expr] = []
        for e, _ in stores:
            region = (
                gen._update_region(e) if isinstance(e, ops.Update) else None
            )
            if region is not None:
                em.emit(f"V[{e.name!r}] = {region}")
                continue
            em.emit(
                f"V[{e.name!r}] = np.empty({e.per_rank_shape()!r}, "
                f"dtype=np.{e.dtype.to_numpy().name})"
            )
            if isinstance(e, ops.Update):
                copied_back.append(e)
        ins = "".join(f"{a.py_ref}, " for a in arrays)
        outs = "".join(f"{a.py_ref}, " for _, a in stores)
        sc = "".join(f"{v}, " for v in scalars)
        em.emit(
            f"_K.call({fn!r}, ({ins.rstrip()}), ({sc.rstrip()}), "
            f"({outs.rstrip()}))"
        )
        for e in copied_back:
            gen._emit_update_store(em, e, f"V[{e.name!r}]")
