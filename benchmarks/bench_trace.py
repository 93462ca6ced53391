"""Observability layer: tracer overhead, predicted-vs-measured, export.

Four measurements over :mod:`repro.observe`:

* **overhead** — ``Executor.run_lowered`` on the MoE overlapped
  schedule with the tracer off vs on, interleaved repeats, median of
  per-pair ratios. The interpreter runs the chunk loop's members whole,
  so a run records one ``launch`` span per kernel launch (the chunked
  publication is traced only on SPMD ranks, below). Recording a span
  costs two clock reads and one dataclass, so the
  ratio must stay within the ≤5% budget that makes leaving tracing
  enabled tenable (asserted here and gated by the CI baseline; the
  measurement always uses the large MoE shape so the cap is not a
  coin flip against sub-millisecond scheduler jitter).
* **predicted vs measured** — the DES cost model's per-kernel timeline
  joined against the measured lowered-interpreter trace
  (:mod:`repro.observe.compare`), reporting the measured/predicted
  latency ratio per collective kind: AllReduce on the Adam optimizer,
  AllToAll on MoE. Ratios are *recorded*, not gated — absolute values
  are machine-dependent; the gate asserts they exist.
* **SPMD trace artifact** — the MoE overlapped schedule at 4 real
  ranks with per-rank ring tracing; the merged events are exported to
  ``moe_overlapped.trace.json`` (open at https://ui.perfetto.dev) and
  schema-validated.
* **tuner metrics** — candidates explored / dedup hits / cost-model
  memo hit rate from an attention autotune, through the same registry.

Emits ``BENCH_trace.json`` at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_trace.py            # full
    PYTHONPATH=src:. python benchmarks/bench_trace.py --smoke    # CI

The regression gate (``benchmarks/check_regression.py``) compares the
recorded overhead ratio and trace validity against
``benchmarks/baselines/BENCH_trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))
from _common import save_report, table  # noqa: E402

from repro.cluster import Cluster  # noqa: E402
from repro.core import FP32, ops  # noqa: E402
from repro.core.autotuner import Autotuner  # noqa: E402
from repro.core.transforms import Schedule  # noqa: E402
from repro.observe import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    compare_timelines,
    validate,
    write_trace,
)
from repro.perf.program_cost import ProgramCostModel  # noqa: E402
from repro.runtime import Executor  # noqa: E402
from repro.workloads.adam import AdamWorkload  # noqa: E402
from repro.workloads.attention import AttentionWorkload  # noqa: E402
from repro.workloads.moe import MoEWorkload  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_trace.json")
TRACE_PATH = os.path.join(_ROOT, "moe_overlapped.trace.json")

#: tracer-on / tracer-off wall-clock cap (ISSUE 6 acceptance: ≤5%)
OVERHEAD_CAP = 1.05


def moe_setup(rng: np.random.RandomState, capacity: int, model_dim: int,
              ffn_dim: int):
    wl = MoEWorkload.build(capacity, model_dim, ffn_dim, world_size=4,
                           dtype=FP32)
    E = 4
    inputs = {
        "x": rng.randn(4, E, capacity, model_dim),
        "w1": rng.randn(4, model_dim, ffn_dim),
        "w2": rng.randn(4, ffn_dim, model_dim),
    }
    return wl, inputs


def measure_overhead(sched, inputs, repeats: int) -> Dict:
    """Interleaved tracer-off/on run_lowered timings.

    Warms up first (BLAS thread pools, allocator) and alternates which
    variant runs first each repeat, so position-in-loop bias cancels
    instead of being attributed to the tracer. The reported ratio is
    the *median of per-pair on/off ratios*: pairing adjacent runs
    cancels slow machine drift, and the median bounds the influence of
    any single descheduled run — min-of-N proved ±3% flaky here.
    """
    ex = Executor()
    off: List[float] = []
    on: List[float] = []
    events = 0
    for _ in range(3):
        ex.run_lowered(sched, inputs, allow_downcast=True)
    for i in range(repeats):
        tracer = Tracer()

        def run_off() -> None:
            t0 = time.perf_counter()
            ex.run_lowered(sched, inputs, allow_downcast=True)
            off.append(time.perf_counter() - t0)

        def run_on() -> None:
            t0 = time.perf_counter()
            ex.run_lowered(sched, inputs, allow_downcast=True,
                           tracer=tracer)
            on.append(time.perf_counter() - t0)

        for step in ((run_off, run_on) if i % 2 else (run_on, run_off)):
            step()
        events = len(tracer.events)
    pair_ratios = sorted(o / f for o, f in zip(on, off))
    return {
        "repeats": repeats,
        "off_s": min(off),
        "on_s": min(on),
        "ratio": pair_ratios[len(pair_ratios) // 2],
        "events_per_run": events,
    }


def collective_kinds(lowered) -> Dict[str, str]:
    """kernel name → collective kind, for every communication kernel."""
    kinds: Dict[str, str] = {}
    for k in lowered.plan.kernels:
        for e in k.exprs:
            if isinstance(e, ops.CommOp):
                kinds[k.name] = e.comm_kind
                break
    return kinds


def predicted_vs_measured(name, sched, inputs) -> Dict:
    """Join the DES timeline against a measured lowered-run trace."""
    tracer = Tracer()
    Executor().run_lowered(sched, inputs, allow_downcast=True, tracer=tracer)
    model = ProgramCostModel(Cluster(1))
    timeline, _tasks = model.timeline(sched)
    cmp = compare_timelines(timeline, tracer.events)

    kinds = collective_kinds(
        sched.lowered() if isinstance(sched, Schedule) else sched
    )
    by_kind: Dict[str, Dict[str, float]] = {}
    for row in cmp.rows:
        kind = kinds.get(row.name)
        if kind is None:
            continue
        agg = by_kind.setdefault(kind, {"predicted": 0.0, "measured": 0.0})
        agg["predicted"] += row.predicted
        agg["measured"] += row.measured
    collectives = {
        kind: agg["measured"] / agg["predicted"]
        for kind, agg in by_kind.items()
        if agg["predicted"] > 0
    }
    return {
        "aligned_ops": len(cmp.rows),
        "collective_ratios": collectives,
        "table": cmp.describe(),
    }


def spmd_trace(sched, inputs) -> Dict:
    """Trace a 4-rank real-process run; export + validate the artifact."""
    tracer = Tracer()
    Executor().run_spmd(sched, inputs, allow_downcast=True, tracer=tracer)
    doc = write_trace(tracer.events, TRACE_PATH)
    problems = validate(doc)
    ranks = sorted(
        {e.pid for e in tracer.events if str(getattr(e, "pid", "")).
         startswith("rank")}
    )
    cats = sorted(
        {e.cat for e in tracer.events if getattr(e, "cat", "")}
    )
    return {
        "num_events": len(tracer.events),
        "ranks_present": len(ranks),
        "categories": cats,
        "bytes_published": {
            k: v for k, v in tracer.metrics.snapshot().items()
            if k.endswith("bytes_published")
        },
        "trace_valid": not problems,
        "validate_problems": problems[:5],
        "trace_path": os.path.basename(TRACE_PATH),
    }


def tuner_metrics() -> Dict:
    metrics = MetricsRegistry()
    wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
    Autotuner(Cluster(1), metrics=metrics).tune(wl.program)
    snap = metrics.snapshot()
    return {
        "candidates": snap.get("tuner.candidates", 0),
        "pruned": snap.get("tuner.pruned", 0),
        "dedup_hits": snap.get("tuner.dedup_hits", 0),
        "memo_hit_rate": snap.get("cost_model.memo_hit_rate", 0.0),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small shapes and fewer repeats (CI)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    repeats = args.repeats or (7 if args.smoke else 15)
    rng = np.random.RandomState(0x59D0)

    shape = (3, 6, 8) if args.smoke else (64, 128, 256)
    moe, moe_inputs = moe_setup(rng, *shape)
    overlapped = moe.schedule_overlapped()

    # Overhead is always measured at the large shape: at the smoke
    # shape a run is <1 ms and scheduler jitter swamps the ~10-event
    # tracer cost, which would make the ≤5% cap a coin flip.
    if args.smoke:
        ovh_moe, ovh_inputs = moe_setup(rng, 64, 128, 256)
        ovh_sched = ovh_moe.schedule_overlapped()
    else:
        ovh_sched, ovh_inputs = overlapped, moe_inputs

    adam = AdamWorkload.build(64 if args.smoke else 1024, 4)
    adam_inputs = dict(
        g=rng.randn(4, adam.program.inputs[1].shape[0]) * 0.1,
        p=rng.randn(adam.program.inputs[1].shape[0]),
        m=rng.randn(adam.program.inputs[1].shape[0]) * 0.01,
        v=np.abs(rng.randn(adam.program.inputs[1].shape[0])) * 0.01,
        lr=0.01,
        t=3.0,
    )

    overhead = measure_overhead(ovh_sched, ovh_inputs, repeats)
    pvm = {
        "adam_allreduce": predicted_vs_measured(
            "adam", Schedule(adam.program), adam_inputs
        ),
        "moe_overlapped": predicted_vs_measured(
            "moe", overlapped, moe_inputs
        ),
    }
    spmd = spmd_trace(overlapped, moe_inputs)
    tuner = tuner_metrics()

    ratios_present = bool(
        "allreduce" in pvm["adam_allreduce"]["collective_ratios"]
        and "alltoall" in pvm["moe_overlapped"]["collective_ratios"]
    )
    report = {
        "benchmark": "trace",
        "mode": "smoke" if args.smoke else "full",
        "overhead": overhead,
        "predicted_vs_measured": {
            k: {kk: vv for kk, vv in v.items() if kk != "table"}
            for k, v in pvm.items()
        },
        "spmd": spmd,
        "tuner": tuner,
        "acceptance": {
            "overhead_ratio": overhead["ratio"],
            "overhead_cap": OVERHEAD_CAP,
            "trace_valid": spmd["trace_valid"],
            "ratios_present": ratios_present,
            "passed": bool(
                spmd["trace_valid"]
                and ratios_present
                and overhead["ratio"] <= OVERHEAD_CAP
            ),
        },
    }

    rows = [
        ["tracer off (min)", f"{overhead['off_s'] * 1e3:.2f} ms"],
        ["tracer on (min)", f"{overhead['on_s'] * 1e3:.2f} ms"],
        ["overhead ratio", f"{overhead['ratio']:.4f}"],
        ["events per run", overhead["events_per_run"]],
        ["spmd events (4 ranks)", spmd["num_events"]],
        ["trace schema valid", spmd["trace_valid"]],
        ["tuner candidates", int(tuner["candidates"])],
        ["memo hit rate", f"{tuner['memo_hit_rate']:.3f}"],
    ]
    for name, entry in pvm.items():
        for kind, ratio in entry["collective_ratios"].items():
            rows.append(
                [f"{name}: {kind} measured/predicted", f"{ratio:.2f}x"]
            )

    lines = ["Observability: tracer overhead & cost-model validation", ""]
    lines += table(["metric", "value"], rows)
    lines.append("")
    lines.append("predicted vs measured (MoE overlapped):")
    lines.append(pvm["moe_overlapped"]["table"])
    save_report("trace", lines)

    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")
    print(f"wrote {TRACE_PATH}")

    assert spmd["trace_valid"], (
        f"exported trace failed validation: {spmd['validate_problems']}"
    )
    assert ratios_present, "missing allreduce/alltoall latency ratios"
    assert overhead["ratio"] <= OVERHEAD_CAP, (
        f"tracer overhead {overhead['ratio']:.4f} exceeds the "
        f"{OVERHEAD_CAP}x cap"
    )


if __name__ == "__main__":
    main()
