"""Native compiled kernels vs the Python SPMD interpreter.

``CodeGenerator(target="native")`` renders each lowered kernel's
elementwise chain into one fused C loop (GEMMs stay the device
library's ``dev.gemm``, as on every tier) and binds the compiled
library into the same per-rank OS processes the
``spmd`` target uses — same :mod:`repro.runtime.spmd` communicator,
same ChunkLoop overlap orchestrator, only the per-rank compute swapped.
This benchmark measures that swap on the paper's two flagship
workloads:

* **adam** — the fused data-parallel Adam step (Table 2's ``AR-Adam``
  family) at GPT-3 layer scale: a long elementwise chain over many
  megabytes per rank, where the Python interpreter pays one float64
  numpy pass per expression and the C loop pays one fused pass total.
* **moe** — the overlapped GShard MoE schedule (Figure 10 family):
  AllToAll + FP16 expert GEMMs under the ring chunk loop. Both arms run
  the same ``dev.gemm``, so only the elementwise epilogue differs.

Outputs and tensor states of both configs must be **bit-identical** to
``Executor.run_lowered``.

Timing uses ``result.spmd_seconds`` (rank-body seconds, barrier-synced,
excluding process spawn). The benchmark runs on a fresh temporary
kernel cache (``$REPRO_KERNEL_CACHE``), so a machine that ran it before
still pays the compile. The native side is warmed first: the cold
iteration — which includes the one-time kernel compile — is recorded
separately as ``cold_compile_s`` with its ``cold_compiles``, and the
warm run is asserted to perform **zero** compiles via the per-rank
trace-ring compile events.

A kernel depends only on its program's fused structure, so the
world-size pair — the smoke Adam tuned as the elastic workload tunes
it, run at world size 2 and then at 1 — must compile once
(``acceptance.shared_kernel_compiles``).

Emits ``BENCH_native.json`` at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_native.py            # full
    PYTHONPATH=src:. python benchmarks/bench_native.py --smoke    # CI

Full mode asserts the ``NATIVE_SPEEDUP_FLOOR`` on Adam (MoE's ratio is
recorded, not gated); smoke mode asserts correctness, the warm-cache
property and the world-size pair's one compile only — the regression gate (``benchmarks/check_regression.py``)
compares the recorded numbers against
``benchmarks/baselines/BENCH_native.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
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
#: rank-body time of the Python interpreter on the Adam config
NATIVE_SPEEDUP_FLOOR = 2.0


def _outputs_equal(a, b) -> bool:
    """Every output and tensor state of ``b`` equals ``a``'s, bit for bit."""
    pairs = [(a.output(n), b.output(n)) for n in a.output_names]
    pairs += [
        (x, b._tensor_states[n])
        for n, x in getattr(a, "_tensor_states", {}).items()
    ]
    return all(np.array_equal(x, y) for x, y in pairs)


def run_config(
    name: str,
    sched,
    inputs,
    repeats: int,
    timeout: float,
) -> Dict:
    ex = Executor()
    oracle = ex.run_lowered(sched, inputs, allow_downcast=True)

    entry: Dict = {"repeats": repeats}

    # cold native run: includes the one-time kernel compile
    compiles = native.metrics.get("native.cache.compiles")
    t0 = time.perf_counter()
    r = ex.run_spmd(
        sched, inputs, allow_downcast=True, timeout=timeout,
        codegen_target="native",
    )
    entry["cold_compile_s"] = time.perf_counter() - t0
    entry["cold_compiles"] = int(
        native.metrics.get("native.cache.compiles") - compiles
    )
    correct = _outputs_equal(oracle, r)

    # warm native runs: trace rings must show zero compiles
    tracer = Tracer()
    native_times = []
    for _ in range(repeats):
        r = ex.run_spmd(
            sched, inputs, allow_downcast=True, timeout=timeout,
            codegen_target="native", tracer=tracer,
        )
        native_times.append(r.spmd_seconds)
        correct &= _outputs_equal(oracle, r)
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
        correct &= _outputs_equal(oracle, r)

    entry["python_spmd_s"] = statistics.median(python_times)
    entry["native_s"] = statistics.median(native_times)
    entry["speedup"] = entry["python_spmd_s"] / entry["native_s"]
    entry["correct"] = bool(correct)
    entry["warm_compiles"] = int(warm_compiles)
    entry["warm_cache_hits"] = int(cache_hits)
    return entry


def world_size_pair(num_elements: int, timeout: float, cache: str) -> Dict:
    """The tuned Adam at world size 2, then 1, on the fresh kernel cache
    ``cache``: kernel compiles and correctness of both (the elastic
    recovery's pair)."""
    from repro.cluster import Cluster
    from repro.core.autotuner import Autotuner

    # its own cache: the AR-Adam config's loop has the same structure
    os.environ["REPRO_KERNEL_CACHE"] = cache
    before = native.metrics.get("native.cache.compiles")
    correct = True
    with Executor() as ex:
        for ranks in (2, 1):
            program = AdamWorkload.build(num_elements, ranks).program
            sched = Autotuner(Cluster(1)).tune(program).best.schedule
            inputs = _seeded_inputs(program, seed=0)
            oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
            r = ex.run_spmd(
                sched, inputs, allow_downcast=True, timeout=timeout,
                codegen_target="native",
            )
            correct &= _outputs_equal(oracle, r)
    compiles = native.metrics.get("native.cache.compiles") - before
    return {
        "num_elements": num_elements,
        "world_sizes": [2, 1],
        "compiles": int(compiles),
        "correct": bool(correct),
    }


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
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as cache:
        run(args, repeats, cache)


def run(args, repeats: int, cache: str) -> None:
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(cache, "configs")
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
        ),
        "moe_overlapped": dict(
            sched=moe.schedule_overlapped(),
            inputs=_seeded_inputs(moe.program, seed=0),
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
                entry["cold_compiles"],
                entry["warm_compiles"],
            ]
        )

    pair = world_size_pair(
        adam_elems, timeout, os.path.join(cache, "world_size_pair")
    )
    report["world_size_pair"] = pair
    correct_all = pair["correct"] and all(
        e["correct"] for e in report["configs"].values()
    )
    warm_compiles = sum(
        e["warm_compiles"] for e in report["configs"].values()
    )
    # MoE's ratio is recorded, ungated: both arms run the same GEMMs
    speedup = report["configs"]["adam_ar_opt"]["speedup"]
    report["correct"] = correct_all
    report["warm_compiles"] = warm_compiles
    report["acceptance"] = {
        "adam_speedup": speedup,
        "floor": NATIVE_SPEEDUP_FLOOR,
        "warm_cache_zero_compiles": warm_compiles == 0,
        "shared_kernel_compiles": pair["compiles"],
        "passed": bool(
            correct_all
            and warm_compiles == 0
            and pair["compiles"] == 1
            and (args.smoke or speedup >= NATIVE_SPEEDUP_FLOOR)
        ),
    }

    lines = ["Native compiled kernels vs Python SPMD interpreter", ""]
    lines += table(
        ["config", "shape", "python", "native", "speedup", "correct",
         "cold compiles", "warm compiles"],
        rows,
    )
    lines.append("")
    lines.append(
        f"correct: {correct_all}; warm-cache compiles: {warm_compiles}; "
        f"Adam speedup {speedup:.2f}x "
        f"(floor {NATIVE_SPEEDUP_FLOOR}x, full mode only)"
    )
    lines.append(
        f"tuned Adam ({adam_elems} elems) at world size 2 then 1: "
        f"{pair['compiles']} compile(s), one kernel expected"
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
    assert pair["compiles"] == 1, (
        f"the tuned Adam at world sizes 2 and 1 compiled "
        f"{pair['compiles']} times; one fused structure is one kernel"
    )
    if not args.smoke:
        assert speedup >= NATIVE_SPEEDUP_FLOOR, (
            f"native Adam speedup {speedup:.2f}x fell below the "
            f"{NATIVE_SPEEDUP_FLOOR}x floor"
        )


if __name__ == "__main__":
    main()
