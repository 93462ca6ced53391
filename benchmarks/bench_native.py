"""Native compiled kernels vs the Python SPMD interpreter.

``CodeGenerator(target="native")`` renders each lowered kernel's
elementwise chain into one fused C loop (GEMMs stay numpy's
``np.matmul``, FP16 operands upcast to FP32) and binds the compiled
library into the same per-rank OS processes the
``spmd`` target uses — same :mod:`repro.runtime.spmd` communicator,
same ChunkLoop overlap orchestrator, only the per-rank compute swapped.
This benchmark measures that swap on the paper's two flagship
workloads:

* **adam** — the fused data-parallel Adam step (Table 2's ``AR-Adam``
  family) at GPT-3 layer scale: a long elementwise chain over many
  megabytes per rank, where the Python interpreter pays one float64
  numpy pass per expression and the C loop pays one fused pass total.
  Elementwise-only, so outputs must be **bit-identical** to
  ``Executor.run_lowered``.
* **moe** — the overlapped GShard MoE schedule (Figure 10 family):
  AllToAll + expert GEMMs under the ring chunk loop. Its GEMMs are
  FP16, so outputs are held to the documented tolerance (rtol 1e-2,
  atol 1e-3): the interpreter runs numpy's half matmul loop, native an
  FP32 GEMM of the upcast operands rounded once to half.

Timing uses ``result.spmd_seconds`` (rank-body seconds, barrier-synced,
excluding process spawn). The native side is warmed first: the cold
iteration — which includes the one-time kernel compile — is recorded
separately as ``cold_compile_s``, and the warm run is asserted to
perform **zero** compiles via the per-rank trace-ring compile events.

Emits ``BENCH_native.json`` at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_native.py            # full
    PYTHONPATH=src:. python benchmarks/bench_native.py --smoke    # CI

Full mode asserts the ``NATIVE_SPEEDUP_FLOOR`` on both workloads;
smoke mode asserts correctness and the warm-cache property only — the
regression gate (``benchmarks/check_regression.py``) compares the
recorded numbers against ``benchmarks/baselines/BENCH_native.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))
from _common import save_report, table  # noqa: E402

from repro.cli import _seeded_inputs  # noqa: E402
from repro.core.codegen import native  # noqa: E402
from repro.observe import Tracer  # noqa: E402
from repro.runtime import Executor  # noqa: E402
from repro.workloads.adam import AdamWorkload  # noqa: E402
from repro.workloads.moe import MoEWorkload  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_native.json")

#: full-mode acceptance: compiled kernels must at least halve the
#: rank-body time of the Python interpreter on both workloads
NATIVE_SPEEDUP_FLOOR = 2.0


def _outputs_close(a, b, exact: bool) -> bool:
    for name in a.output_names:
        x = a.output(name)
        y = b.output(name)
        if exact:
            if not np.array_equal(x, y):
                return False
        elif not np.allclose(
            y.astype(np.float64), x.astype(np.float64),
            rtol=1e-2, atol=1e-3,
        ):
            return False
    for name, x in getattr(a, "_tensor_states", {}).items():
        y = b._tensor_states[name]
        if exact:
            if not np.array_equal(x, y):
                return False
        elif not np.allclose(
            y.astype(np.float64), x.astype(np.float64),
            rtol=1e-2, atol=1e-3,
        ):
            return False
    return True


def run_config(
    name: str,
    sched,
    inputs,
    repeats: int,
    exact: bool,
    timeout: float,
) -> Dict:
    ex = Executor()
    oracle = ex.run_lowered(sched, inputs, allow_downcast=True)

    entry: Dict = {"repeats": repeats, "bit_identical_contract": exact}

    # cold native run: includes the one-time kernel compile (cache is
    # content-addressed, so a warm machine may make this a disk hit)
    t0 = time.perf_counter()
    r = ex.run_spmd(
        sched, inputs, allow_downcast=True, timeout=timeout,
        codegen_target="native",
    )
    entry["cold_compile_s"] = time.perf_counter() - t0
    correct = _outputs_close(oracle, r, exact)

    # warm native runs: trace rings must show zero compiles
    tracer = Tracer()
    native_times = []
    for _ in range(repeats):
        r = ex.run_spmd(
            sched, inputs, allow_downcast=True, timeout=timeout,
            codegen_target="native", tracer=tracer,
        )
        native_times.append(r.spmd_seconds)
        correct &= _outputs_close(oracle, r, exact)
    snap = tracer.metrics.snapshot()
    warm_compiles = sum(
        v for k, v in snap.items() if k.endswith(".kernel_compiles")
    )
    cache_hits = sum(
        v for k, v in snap.items() if k.endswith(".kernel_cache_hits")
    )

    python_times = []
    for _ in range(repeats):
        r = ex.run_spmd(
            sched, inputs, allow_downcast=True, timeout=timeout,
        )
        python_times.append(r.spmd_seconds)
        correct &= _outputs_close(oracle, r, True)

    entry["python_spmd_s"] = statistics.median(python_times)
    entry["native_s"] = statistics.median(native_times)
    entry["speedup"] = entry["python_spmd_s"] / entry["native_s"]
    entry["correct"] = bool(correct)
    entry["warm_compiles"] = int(warm_compiles)
    entry["warm_cache_hits"] = int(cache_hits)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small shapes, no perf floor (CI)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    repeats = args.repeats or (2 if args.smoke else 3)

    if not native.available():
        print("no C compiler on PATH; native benchmark skipped")
        sys.exit(0)
    print(f"toolchain: {native.toolchain_report()}")

    if args.smoke:
        adam_elems, adam_ranks = 1 << 16, 2
        moe_cap, moe_dim, moe_ffn, moe_ranks = 64, 128, 256, 2
        timeout = 240.0
    else:
        # a GPT-3-family layer-scale gradient: 2^23 fp16 elements is
        # the order of one 2048-wide MLP block's parameters, large
        # enough that per-expression numpy passes dominate the Python
        # interpreter while a 2-rank run stays in laptop territory
        adam_elems, adam_ranks = 1 << 23, 2
        moe_cap, moe_dim, moe_ffn, moe_ranks = 512, 512, 2048, 2
        timeout = 600.0

    # AR-Adam keeps the optimizer update as a LocalCompute kernel (one
    # long elementwise chain), the shape the fused C loop accelerates;
    # the fused-collective Adam variant runs its math inside the
    # communicator and is covered for correctness by tests/test_native.py
    adam = AdamWorkload.build(adam_elems, adam_ranks)
    moe = MoEWorkload.build(
        capacity=moe_cap, model_dim=moe_dim, ffn_dim=moe_ffn,
        world_size=moe_ranks,
    )
    configs = {
        "adam_ar_opt": dict(
            sched=adam.schedule_ar_opt(),
            inputs=_seeded_inputs(adam.program, seed=0),
            exact=True,
        ),
        "moe_overlapped": dict(
            sched=moe.schedule_overlapped(),
            inputs=_seeded_inputs(moe.program, seed=0),
            exact=False,
        ),
    }
    shapes = {
        "adam_ar_opt": f"{adam_elems} elems x {adam_ranks} ranks",
        "moe_overlapped": (
            f"cap={moe_cap} dm={moe_dim} ff={moe_ffn} x {moe_ranks} ranks"
        ),
    }

    report = {
        "benchmark": "native",
        "mode": "smoke" if args.smoke else "full",
        "toolchain": native.toolchain_report(),
        "configs": {},
    }
    rows = []
    for name, cfg in configs.items():
        entry = run_config(name, repeats=repeats, timeout=timeout, **cfg)
        entry["shape"] = shapes[name]
        report["configs"][name] = entry
        rows.append(
            [
                name,
                shapes[name],
                f"{entry['python_spmd_s'] * 1e3:.1f} ms",
                f"{entry['native_s'] * 1e3:.1f} ms",
                f"{entry['speedup']:.2f}x",
                entry["correct"],
                entry["warm_compiles"],
            ]
        )

    correct_all = all(e["correct"] for e in report["configs"].values())
    warm_compiles = sum(
        e["warm_compiles"] for e in report["configs"].values()
    )
    min_speedup = min(e["speedup"] for e in report["configs"].values())
    report["correct"] = correct_all
    report["warm_compiles"] = warm_compiles
    report["acceptance"] = {
        "min_speedup": min_speedup,
        "floor": NATIVE_SPEEDUP_FLOOR,
        "warm_cache_zero_compiles": warm_compiles == 0,
        "passed": bool(
            correct_all
            and warm_compiles == 0
            and (args.smoke or min_speedup >= NATIVE_SPEEDUP_FLOOR)
        ),
    }

    lines = ["Native compiled kernels vs Python SPMD interpreter", ""]
    lines += table(
        ["config", "shape", "python", "native", "speedup", "correct",
         "warm compiles"],
        rows,
    )
    lines.append("")
    lines.append(
        f"correct: {correct_all}; warm-cache compiles: {warm_compiles}; "
        f"min speedup {min_speedup:.2f}x "
        f"(floor {NATIVE_SPEEDUP_FLOOR}x, full mode only)"
    )
    save_report("native", lines)

    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert correct_all, "native outputs diverged from run_lowered"
    assert warm_compiles == 0, (
        f"warm-cache runs performed {warm_compiles} compiles; "
        "the content-addressed cache must make re-runs compile-free"
    )
    if not args.smoke:
        assert min_speedup >= NATIVE_SPEEDUP_FLOOR, (
            f"native speedup {min_speedup:.2f}x fell below the "
            f"{NATIVE_SPEEDUP_FLOOR}x floor"
        )


if __name__ == "__main__":
    main()
