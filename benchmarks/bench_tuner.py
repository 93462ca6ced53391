"""Autotuner performance: event-driven DES + incremental search.

The paper's autotuner "exhaustively explores the schedule space"
(§3.5); in this reproduction every candidate is "executed" by the
discrete-event cost model, so tuner wall-clock bounds how deep and wide
the search can go. This benchmark times the tuner — event-driven heap
engine, forked schedule prefixes, plan-signature dedup, memoized kernel
costs, best-so-far pruning — per workload and reports candidates
evaluated per second, which the regression gate floors. That the
optimizations never change the result — every candidate's plan and
simulated time equal a root replay timed on the O(n²) reference
engine, so the best schedule is the same — is a property test:
``tests/test_tuner_fast.py``.

Emits ``BENCH_tuner.json`` at the repo root: per-workload wall-clock
(best of ``--repeats``), candidates/second, and the best schedule's
identity, plus resource utilization of the winning schedule from the
timeline's recorded task resources. For Adam and LAMB it also reports
``paper_schedule``: whether the pick lowers to the named
fuse(RS-Opt-AG) schedule, sliced optimizer state included (gated).

Usage::

    PYTHONPATH=src:. python benchmarks/bench_tuner.py          # full
    PYTHONPATH=src:. python benchmarks/bench_tuner.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Callable, Dict, Optional, Tuple

from benchmarks._common import RESULTS_DIR, save_report, table
from repro.cluster import Cluster
from repro.core.artifact import structural_hash
from repro.core.autotuner import Autotuner
from repro.perf import ProgramCostModel
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload

MAX_DEPTH = 4

JSON_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_tuner.json",
)


def workload_suite(
    smoke: bool = False,
) -> Dict[str, Tuple[Callable, Cluster, Optional[str]]]:
    """Workload builders, clusters and named paper schedules.

    The full suite uses multi-node clusters for the optimizers and the
    MoE exchange (more applicable moves, a deeper candidate tree); the
    smoke suite shrinks tensor sizes so a CI runner finishes in a few
    seconds while exercising the identical code paths. The third field
    names the workload schedule the pick must lower to (the paper's
    fuse(RS-Opt-AG) for the optimizers), or is None.
    """
    if smoke:
        return {
            "adam": (
                lambda: AdamWorkload.build(2**18, 16), Cluster(1),
                "fuse(RS-Adam-AG)",
            ),
            "lamb": (
                lambda: LambWorkload.build(2**18, 16), Cluster(1),
                "fuse(RS-LAMB-AG)",
            ),
            "attention": (
                lambda: AttentionWorkload.build(4, 256, 1024, 16),
                Cluster(1), None,
            ),
            "moe": (
                lambda: MoEWorkload.build(128, 512, 2048, 32),
                Cluster(2), None,
            ),
        }
    return {
        "adam": (
            lambda: AdamWorkload.build(2**26, 64), Cluster(4),
            "fuse(RS-Adam-AG)",
        ),
        "lamb": (
            lambda: LambWorkload.build(2**26, 64), Cluster(4),
            "fuse(RS-LAMB-AG)",
        ),
        "attention": (
            lambda: AttentionWorkload.build(8, 1024, 3072, 16),
            Cluster(1), None,
        ),
        "moe": (
            lambda: MoEWorkload.build(512, 1024, 4096, 32),
            Cluster(2), None,
        ),
    }


def run_workload(
    build: Callable, cluster: Cluster, repeats: int,
    paper: Optional[str] = None,
) -> dict:
    """One workload's row, from the fastest of ``repeats`` tuner runs.

    With ``paper``, the row's ``paper_schedule`` says whether the pick
    lowers to that named schedule (equal structural hashes, the
    tuner's own dedup key).
    """
    wall = float("inf")
    result = None
    for _ in range(repeats):
        workload = build()
        t0 = time.perf_counter()
        r = Autotuner(cluster, max_depth=MAX_DEPTH).tune(workload.program)
        elapsed = time.perf_counter() - t0
        if elapsed < wall:
            wall, result = elapsed, r

    # utilization of the winning schedule, from the timeline's recorded
    # resources (Timeline.utilization needs no task list)
    tl, _ = ProgramCostModel(cluster).timeline(result.best.schedule)
    row = {
        "seconds": wall,
        "candidates": len(result.candidates),
        "candidates_per_sec": len(result.candidates) / wall,
        "pruned_candidates": sum(1 for c in result.candidates if c.pruned),
        "best": result.best.name,
        "best_time_seconds": result.best.time,
        "best_gpu_utilization": tl.utilization("gpu:"),
        "best_fabric_utilization": tl.utilization("fabric:"),
    }
    if paper is not None:
        named = workload.schedules()[paper]
        row["paper_schedule"] = structural_hash(
            result.best.schedule.lowered(cluster=cluster)
        ) == structural_hash(named.lowered(cluster=cluster))
    return row


def run_suite(smoke: bool = False, repeats: int = None) -> dict:
    if repeats is None:
        repeats = 1 if smoke else 3
    rows = {}
    for name, (build, cluster, paper) in workload_suite(smoke).items():
        rows[name] = run_workload(build, cluster, repeats, paper)
    return {
        "benchmark": "tuner",
        "max_depth": MAX_DEPTH,
        "smoke": smoke,
        "repeats": repeats,
        "workloads": rows,
    }


def write_json(payload: dict) -> None:
    with open(JSON_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def report(payload: dict) -> str:
    rows = payload["workloads"]
    body = [
        [
            name,
            f"{r['seconds'] * 1e3:.1f} ms",
            f"{r['candidates']}",
            f"{r['candidates_per_sec']:.0f}/s",
            f"{r['best_time_seconds'] * 1e6:.1f} us",
        ]
        for name, r in rows.items()
    ]
    lines = [
        f"Autotuner wall-clock, max_depth={payload['max_depth']}, best "
        f"of {payload['repeats']}",
        "",
    ]
    lines += table(
        ["workload", "tune", "cands", "cands/s", "best sim time"],
        body,
    )
    for name, r in rows.items():
        lines.append(f"  {name}: best = {r['best']}")
        if "paper_schedule" in r:
            lines.append(
                f"  {name}: lowers to the paper's fuse(RS-Opt-AG) = "
                f"{r['paper_schedule']}"
            )
    return save_report("tuner", lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes, one repeat (CI)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()

    payload = run_suite(smoke=args.smoke, repeats=args.repeats)
    report(payload)
    write_json(payload)
    print(f"\nwrote {JSON_PATH}")


if __name__ == "__main__":
    main()
