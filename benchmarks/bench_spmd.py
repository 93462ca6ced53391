"""Real-process SPMD execution: baseline vs overlapped wall-clock.

Every other benchmark in this repository measures the *simulated* cost
model or single-process interpreters. This one launches real OS
processes — one per rank over the shared-memory communicator of
:mod:`repro.runtime.spmd` — and measures wall-clock for a
MatMul→AllReduce→bias workload under a simulated wire
(``wire_s_per_mb`` charges transfer time per published megabyte):

* **baseline** — the unscheduled program: a library GEMM kernel, then a
  whole-buffer AllReduce, then the bias add;
* **overlapped** — ``overlap(mm, ar)``: the lowered ring chunk loop.
  Each rank's producer stream thread releases the GEMM output
  chunk-by-chunk in ring order while the consuming AllReduce ingests
  and reduces every chunk as soon as all ranks published it, hiding
  the reduction (and the ingest copies) behind the remaining chunks'
  wire time.

Both schedules are asserted bit-identical to ``Executor.run_lowered``
before timing — the speedup is never paid for with changed numerics.

Emits ``BENCH_spmd.json`` at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_spmd.py            # full
    PYTHONPATH=src:. python benchmarks/bench_spmd.py --smoke    # CI

Full mode asserts a modest overlap floor (the win is the pipelined
reduction, a fraction of total step time); smoke mode runs 2 and 4
ranks at small shapes and asserts equal outputs only — the regression
gate (``benchmarks/check_regression.py``) compares the recorded
speedups against ``benchmarks/baselines/BENCH_spmd.json``.
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

from repro.core import (  # noqa: E402
    FP32,
    RANK,
    AllReduce,
    Binary,
    Execute,
    MatMul,
    Replicated,
    Sliced,
    Tensor,
    world,
)
from repro.core.transforms import Schedule  # noqa: E402
from repro.runtime import Executor  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_spmd.json")

#: full-mode acceptance: the overlapped schedule must beat the baseline
OVERLAP_SPEEDUP_FLOOR = 1.02


def build(num_ranks: int, batch: int, seq: int, hidden: int):
    """MatMul → AllReduce → bias add (the Figure 9 overlap pair)."""
    W = world(num_ranks)
    w = Tensor(FP32, (hidden, hidden), Sliced(0), W, RANK, name="w")
    x = Tensor(FP32, (batch, seq, hidden), Sliced(2), W, RANK, name="x")
    b = Tensor(FP32, (hidden,), Replicated, W, name="b")
    mm = MatMul(x, w, name="mm")
    ar = AllReduce("+", mm, name="ar")
    out = Binary("+", ar, b, name="out")
    prog = Execute("spmd_bench", [w, x, b], [out])
    return prog, mm, ar


def schedules(num_ranks: int, batch: int, seq: int, hidden: int):
    prog, mm, ar = build(num_ranks, batch, seq, hidden)
    baseline = Schedule(prog)
    overlapped = Schedule(prog)
    overlapped.overlap(mm, ar)
    loops = overlapped.lowered().chunk_loops()
    assert loops and loops[0].ring, "overlap(mm, ar) must lower to a ring loop"
    return prog, {"baseline": baseline, "overlapped": overlapped}


def run_config(
    name: str,
    num_ranks: int,
    batch: int,
    seq: int,
    hidden: int,
    wire_s_per_mb: float,
    repeats: int,
    rng: np.random.RandomState,
) -> Dict:
    prog, scheds = schedules(num_ranks, batch, seq, hidden)
    inputs = {
        "w": rng.randn(hidden, hidden),
        "x": rng.randn(batch, seq, hidden),
        "b": rng.randn(hidden),
    }
    ex = Executor()
    oracle = ex.run_lowered(scheds["overlapped"], inputs, allow_downcast=True)

    entry: Dict = {
        "num_ranks": num_ranks,
        "shape": [batch, seq, hidden],
        "wire_s_per_mb": wire_s_per_mb,
        "repeats": repeats,
    }
    equal = True
    for sname, sched in scheds.items():
        times, walls = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = ex.run_spmd(
                sched, inputs, allow_downcast=True,
                wire_s_per_mb=wire_s_per_mb,
            )
            walls.append(time.perf_counter() - t0)
            # rank-body seconds exclude process spawn (barrier-synced)
            times.append(result.spmd_seconds)
            equal &= np.array_equal(
                result.output("out"), oracle.output("out")
            )
        # both medians over the same repeats
        entry[f"{sname}_s"] = statistics.median(times)
        entry[f"{sname}_wall_s"] = statistics.median(walls)
    entry["speedup"] = entry["baseline_s"] / entry["overlapped_s"]
    entry["equal_outputs"] = equal
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small shapes, 2 and 4 ranks, no perf floor (CI)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    repeats = args.repeats or (2 if args.smoke else 3)
    rng = np.random.RandomState(0x59D0)

    if args.smoke:
        configs = {
            "mm_ar_2ranks": dict(
                num_ranks=2, batch=8, seq=64, hidden=256,
                wire_s_per_mb=0.2,
            ),
            "mm_ar_4ranks": dict(
                num_ranks=4, batch=8, seq=64, hidden=256,
                wire_s_per_mb=0.2,
            ),
        }
    else:
        configs = {
            "mm_ar_4ranks": dict(
                num_ranks=4, batch=16, seq=128, hidden=512,
                wire_s_per_mb=0.03,
            ),
            "mm_ar_8ranks": dict(
                num_ranks=8, batch=16, seq=128, hidden=512,
                wire_s_per_mb=0.03,
            ),
        }

    report = {
        "benchmark": "spmd",
        "mode": "smoke" if args.smoke else "full",
        "configs": {},
    }
    rows = []
    for name, cfg in configs.items():
        entry = run_config(name, repeats=repeats, rng=rng, **cfg)
        report["configs"][name] = entry
        rows.append(
            [
                name,
                cfg["num_ranks"],
                f"{entry['baseline_s'] * 1e3:.1f} ms",
                f"{entry['overlapped_s'] * 1e3:.1f} ms",
                f"{entry['speedup']:.3f}x",
                entry["equal_outputs"],
            ]
        )

    equal_all = all(e["equal_outputs"] for e in report["configs"].values())
    min_speedup = min(e["speedup"] for e in report["configs"].values())
    report["equal_outputs"] = equal_all
    report["acceptance"] = {
        "min_speedup": min_speedup,
        "floor": OVERLAP_SPEEDUP_FLOOR,
        "passed": bool(equal_all and min_speedup >= OVERLAP_SPEEDUP_FLOOR),
    }

    lines = ["SPMD real-process execution: baseline vs overlapped", ""]
    lines += table(
        ["config", "ranks", "baseline", "overlapped", "speedup", "equal"],
        rows,
    )
    lines.append("")
    lines.append(
        f"all outputs bit-identical to run_lowered: {equal_all}; "
        f"min overlap speedup {min_speedup:.3f}x "
        f"(floor {OVERLAP_SPEEDUP_FLOOR}x, full mode only)"
    )
    save_report("spmd", lines)

    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert equal_all, "SPMD outputs diverged from run_lowered"
    if not args.smoke:
        assert min_speedup >= OVERLAP_SPEEDUP_FLOOR, (
            f"overlap speedup {min_speedup:.3f}x fell below the "
            f"{OVERLAP_SPEEDUP_FLOOR}x floor"
        )


if __name__ == "__main__":
    main()
