"""Fault tolerance & elasticity: the SPMD backend under injected faults.

Four measurements over :mod:`repro.runtime.faults`:

* **fault matrix** — one seeded ``FaultPlan.scenario`` per failure mode
  (straggler, stalled publish, dropped chunk, dead rank) on the fused
  Adam schedule at 4 real ranks; every scenario must either survive
  bit-identically or recover elastically, and every scenario must
  reproduce exactly from its seed.
* **straggler makespans** — the measured per-rank trace makespan of a
  clean run vs one with ``slow_rank(0, x3)``, against the DES cost
  model's *predicted* ratio under the same plan
  (``Engine(slowdown=plan.resource_slowdowns())``) — straggler-aware
  prediction validated end to end.
* **transient recovery** — ``stall_publish`` and ``drop_chunk`` on the
  chunked mm→AllReduce overlap pipeline: soft-retry escalation and
  redelivery must land bit-identical outputs.
* **elastic recovery overhead** — ``die(1)`` at 4 ranks with
  ``elastic=True``: wall-clock of the re-lowered recovery on the three
  survivors vs a direct run at the recovered world size (medians and
  quartiles of :data:`ELASTIC_REPEATS` each), which ranks were reused
  and how many were started, plus a determinism check of every repeat
  of the whole failure path against the first.

Emits ``BENCH_faults.json`` at the repo root::

    PYTHONPATH=src:. python benchmarks/bench_faults.py            # full
    PYTHONPATH=src:. python benchmarks/bench_faults.py --smoke    # CI

The regression gate (``benchmarks/check_regression.py``) compares the
recorded ratios and correctness booleans against
``benchmarks/baselines/BENCH_faults.json``.
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
from repro.core import (  # noqa: E402
    FP32, RANK, AllReduce, Binary, Execute, MatMul, Replicated, Sliced,
    world,
)
from repro.core.tensor import Tensor  # noqa: E402
from repro.core.transforms import Schedule  # noqa: E402
from repro.observe import Tracer  # noqa: E402
from repro.observe.events import SpanEvent  # noqa: E402
from repro.perf.engine import Engine  # noqa: E402
from repro.perf.program_cost import ProgramCostModel  # noqa: E402
from repro.runtime import Executor, FaultPlan  # noqa: E402
from repro.workloads.adam import AdamWorkload  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_faults.json")

NRANKS = 4
STRAGGLER_FACTOR = 3.0


def adam_setup(rng: np.random.RandomState, N: int):
    wl = AdamWorkload.build(N, NRANKS)
    inputs = dict(
        g=rng.randn(NRANKS, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )
    return wl, inputs


def overlap_setup(rng: np.random.RandomState, hidden: int = 64):
    """The chunked mm→AllReduce overlap pipeline (bench_spmd's shape)."""
    W = world(NRANKS)
    w = Tensor(FP32, (hidden, hidden), Sliced(0), W, RANK, name="w")
    x = Tensor(FP32, (4, 8, hidden), Sliced(2), W, RANK, name="x")
    b = Tensor(FP32, (hidden,), Replicated, W, name="b")
    mm = MatMul(x, w, name="mm")
    ar = AllReduce("+", mm, name="ar")
    out = Binary("+", ar, b, name="out")
    prog = Execute("overlap_faults", [w, x, b], [out])
    sched = Schedule(prog)
    sched.overlap(mm, ar)
    inputs = {
        "w": rng.randn(hidden, hidden),
        "x": rng.randn(4, 8, hidden),
        "b": rng.randn(hidden),
    }
    return sched, inputs


def equal_outputs(a, b) -> bool:
    return sorted(a._outputs) == sorted(b._outputs) and all(
        np.array_equal(a.output(k), b.output(k)) for k in a._outputs
    )


def trace_makespan(tracer: Tracer) -> float:
    """Span of the merged per-rank timeline (excludes process spawn)."""
    spans = [
        e for e in tracer.events
        if isinstance(e, SpanEvent) and str(e.pid).startswith("rank")
    ]
    if not spans:
        return 0.0
    return max(e.ts + e.dur for e in spans) - min(e.ts for e in spans)


def fault_matrix(rng: np.random.RandomState, seeds: List[int]) -> Dict:
    """Every seeded scenario survives or recovers, reproducibly."""
    wl, inputs = adam_setup(rng, 56)
    sched = wl.schedule_fused()
    oracle = Executor().run_lowered(sched, inputs, allow_downcast=True)

    def relower(ws):
        wl2 = AdamWorkload.build(56, ws)
        rng2 = np.random.RandomState(0xFA17)
        return wl2.schedule_fused(), dict(
            g=rng2.randn(ws, 56) * 0.1,
            p=rng2.randn(56),
            m=rng2.randn(56) * 0.01,
            v=np.abs(rng2.randn(56)) * 0.01,
            lr=0.01,
            t=3.0,
        )

    entries = []
    for seed in seeds:
        plan = FaultPlan.scenario(seed, NRANKS)
        res = Executor().run_spmd(
            sched, inputs, allow_downcast=True, fault_plan=plan,
            soft_timeout=0.5, timeout=60.0,
            elastic=True, relower=relower,
        )
        recovered = getattr(res, "elastic", None)
        if recovered is None:
            ok = equal_outputs(res, oracle)
        else:
            direct = Executor().run_lowered(
                *relower(recovered["world_size"]), allow_downcast=True
            )
            ok = equal_outputs(res, direct)
        entries.append({
            "seed": seed,
            "plan": plan.describe(),
            "recovered_world": None if recovered is None
            else recovered["world_size"],
            "equal_outputs": bool(ok),
        })
    return {
        "scenarios": entries,
        "all_ok": all(e["equal_outputs"] for e in entries),
    }


def straggler_makespans(rng: np.random.RandomState, repeats: int) -> Dict:
    """Measured straggler stretch vs the DES model's prediction."""
    wl, inputs = adam_setup(rng, 1680)
    sched = wl.schedule_fused()
    plan = FaultPlan(seed=0).slow_rank(0, STRAGGLER_FACTOR)
    wire = 8.0  # s/MB: wire sleeps dominate, so the stretch is visible

    def measure(fault_plan) -> float:
        tracer = Tracer()
        Executor().run_spmd(
            sched, inputs, allow_downcast=True, wire_s_per_mb=wire,
            fault_plan=fault_plan, timeout=120.0, tracer=tracer,
        )
        return trace_makespan(tracer)

    clean = [measure(None) for _ in range(repeats)]
    slowed = [measure(plan) for _ in range(repeats)]
    measured_ratio = float(np.median(slowed) / np.median(clean))

    model = ProgramCostModel(Cluster(1))
    timeline, tasks = model.timeline(sched)
    degraded = Engine(slowdown=plan.resource_slowdowns()).run(tasks)
    predicted_ratio = float(degraded.makespan / timeline.makespan)
    return {
        "factor": STRAGGLER_FACTOR,
        "clean_makespan_s": float(np.median(clean)),
        "slowed_makespan_s": float(np.median(slowed)),
        "measured_ratio": measured_ratio,
        "predicted_makespan_clean_s": timeline.makespan,
        "predicted_makespan_slowed_s": degraded.makespan,
        "predicted_ratio": predicted_ratio,
    }


def transient_recovery(rng: np.random.RandomState) -> Dict:
    """stall_publish and drop_chunk ride soft retries to a clean finish."""
    sched, inputs = overlap_setup(rng)
    ex = Executor()
    oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
    out: Dict[str, Dict] = {}
    plans = {
        "stall": FaultPlan(seed=1).stall_publish("g", 0.05, rank=1),
        "drop": FaultPlan(seed=2).drop_chunk("g", 1, rank=0,
                                             redeliver=0.05),
    }
    for name, plan in plans.items():
        tracer = Tracer()
        res = ex.run_spmd(
            sched, inputs, allow_downcast=True, fault_plan=plan,
            soft_timeout=0.01, timeout=60.0, tracer=tracer,
        )
        stalls = sum(
            1 for e in tracer.events if getattr(e, "cat", "") == "stall"
        )
        out[name] = {
            "plan": plan.describe(),
            "equal_outputs": equal_outputs(res, oracle),
            "soft_retries_observed": stalls,
        }
    return out


#: recoveries (and direct runs) timed by :func:`elastic_overhead`
ELASTIC_REPEATS = 3


def _quartiles(samples: List[float]) -> List[float]:
    """``[q1, median, q3]`` of ``samples``."""
    return [float(q) for q in np.percentile(samples, [25, 50, 75])]


def elastic_overhead(rng: np.random.RandomState) -> Dict:
    """die(1) at 4 ranks: recovery wall-clock vs a direct 3-rank run."""
    N = 60  # divisible by 4 (launch) and by 3 (the recovered world)

    def relower(ws):
        wl = AdamWorkload.build(N, ws)
        rng2 = np.random.RandomState(0xE1A5)
        return wl.schedule_fused(), dict(
            g=rng2.randn(ws, N) * 0.1,
            p=rng2.randn(N),
            m=rng2.randn(N) * 0.01,
            v=np.abs(rng2.randn(N)) * 0.01,
            lr=0.01,
            t=3.0,
        )

    plan = FaultPlan(seed=3).die(1, at_site="g")

    def recover():
        wl, inputs = adam_setup(np.random.RandomState(0xE1A5), N)
        return Executor().run_spmd(
            wl.schedule_fused(), inputs, allow_downcast=True,
            fault_plan=plan, soft_timeout=0.5, timeout=60.0,
            elastic=True, relower=relower,
        )

    runs = [recover() for _ in range(ELASTIC_REPEATS)]
    res = runs[0]
    ws = res.elastic["world_size"]
    sched_direct, inputs_direct = relower(ws)
    direct_times = []
    for _ in range(ELASTIC_REPEATS):
        t0 = time.perf_counter()
        direct = Executor().run_spmd(
            sched_direct, inputs_direct, allow_downcast=True, timeout=60.0
        )
        direct_times.append(time.perf_counter() - t0)

    # the whole failure path must reproduce from the seed
    keys = ("failed_ranks", "attempted", "world_size", "reused_ranks",
            "spawned")
    deterministic = all(
        all(r.elastic[k] == res.elastic[k] for k in keys)
        and equal_outputs(res, r)
        for r in runs[1:]
    )
    recovery = _quartiles([r.elastic["recovery_seconds"] for r in runs])
    direct_q = _quartiles(direct_times)
    return {
        "plan": plan.describe(),
        "failed_ranks": res.elastic["failed_ranks"],
        "attempted": res.elastic["attempted"],
        "recovered_world": ws,
        "reused_ranks": res.elastic["reused_ranks"],
        "spawned": res.elastic["spawned"],
        "repeats": ELASTIC_REPEATS,
        "recovery_seconds": recovery[1],
        "recovery_seconds_quartiles": recovery,
        "direct_seconds": direct_q[1],
        "direct_seconds_quartiles": direct_q,
        "overhead_ratio": recovery[1] / direct_q[1],
        "equal_outputs": equal_outputs(res, direct),
        "deterministic": bool(deterministic),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer scenarios and repeats (CI)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    repeats = args.repeats or (3 if args.smoke else 7)
    seeds = list(range(4)) if args.smoke else list(range(8))
    rng = np.random.RandomState(0xFA17)

    matrix = fault_matrix(rng, seeds)
    straggler = straggler_makespans(rng, repeats)
    transient = transient_recovery(rng)
    elastic = elastic_overhead(rng)

    acceptance = {
        "matrix_all_ok": matrix["all_ok"],
        "transient_ok": all(
            v["equal_outputs"] for v in transient.values()
        ),
        "elastic_ok": elastic["equal_outputs"],
        "deterministic": elastic["deterministic"],
        "straggler_measured_ratio": straggler["measured_ratio"],
        "straggler_predicted_ratio": straggler["predicted_ratio"],
        "passed": bool(
            matrix["all_ok"]
            and all(v["equal_outputs"] for v in transient.values())
            and elastic["equal_outputs"]
            and elastic["deterministic"]
            and straggler["measured_ratio"] > 1.0
            and straggler["predicted_ratio"] > 1.0
        ),
    }
    report = {
        "benchmark": "faults",
        "mode": "smoke" if args.smoke else "full",
        "nranks": NRANKS,
        "matrix": matrix,
        "straggler": straggler,
        "transient": transient,
        "elastic": elastic,
        "acceptance": acceptance,
    }

    rows = [
        ["fault-matrix scenarios", len(matrix["scenarios"])],
        ["matrix all ok", matrix["all_ok"]],
        ["straggler measured ratio",
         f"{straggler['measured_ratio']:.2f}x"],
        ["straggler predicted ratio",
         f"{straggler['predicted_ratio']:.2f}x"],
        ["stall soft retries", transient["stall"]["soft_retries_observed"]],
        ["drop equal outputs", transient["drop"]["equal_outputs"]],
        ["elastic recovered world", elastic["recovered_world"]],
        ["elastic reused ranks / spawned",
         f"{elastic['reused_ranks']} / {elastic['spawned']}"],
        ["recovery s (q1 / median / q3)",
         " / ".join(f"{q:.3f}" for q in
                    elastic["recovery_seconds_quartiles"])],
        ["direct run s (q1 / median / q3)",
         " / ".join(f"{q:.3f}" for q in
                    elastic["direct_seconds_quartiles"])],
        ["recovery / direct run",
         f"{elastic['overhead_ratio']:.2f}x"],
        ["failure path deterministic", elastic["deterministic"]],
    ]
    lines = ["Fault tolerance & elasticity (4 real ranks)", ""]
    lines += table(["metric", "value"], rows)
    lines.append("")
    lines += [
        f"  seed {e['seed']}: {e['plan']}"
        + (f" -> recovered at {e['recovered_world']}"
           if e["recovered_world"] else "")
        for e in matrix["scenarios"]
    ]
    save_report("faults", lines)

    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert acceptance["passed"], f"fault acceptance failed: {acceptance}"


if __name__ == "__main__":
    main()
