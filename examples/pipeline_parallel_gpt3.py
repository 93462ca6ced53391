#!/usr/bin/env python
"""Pipeline parallelism at GPT-3 scale: Figures 7, 8 and 12.

Shows how Figure 8a's pipeline-boundary program (AllReduce + pointwise
+ P2P send to the next group) is transformed into the overlapped
schedule of Figure 8b — fuse the send with its computation, split the
AllReduce, reorder the AllGather into the next group, overlap all three
communication stages — and what each step buys on the simulated
two-node cluster. Ends with the Table 5 stage-level estimate.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from benchmarks.bench_table5 import run_table5  # noqa: E402

from repro.cluster import Cluster
from repro.core import FP32
from repro.perf import ProgramCostModel
from repro.runtime import Executor
from repro.workloads.pipeline import PipelineWorkload

SEQ, HIDDEN = 2048, 12288  # GPT-3 175B


def schedule_progression():
    print("=== Schedule progression (GPT-3 shapes, B=4, 2 nodes) ===")
    cluster = Cluster(2)
    names = ["megatron", "ar_c_p2p_ag", "gshard", "coconet"]
    labels = {
        "megatron": "Megatron-LM (replicated P2P)",
        "ar_c_p2p_ag": "AR-C-P2P-AG (sliced P2P)",
        "gshard": "GShard-Eq (RS-C-P2P-AG)",
        "coconet": "CoCoNet ol(RS, fuse(C-P2P), AG)",
    }
    base = None
    for name in names:
        wl = PipelineWorkload.build(
            4, SEQ, HIDDEN, world_size=32, num_groups=2
        )
        sched = getattr(wl, f"schedule_{name}")()
        t = ProgramCostModel(cluster).time(sched)
        base = base or t
        print(f"  {labels[name]:38s} {t * 1e3:8.2f} ms  "
              f"{base / t:6.2f}x")


def why_it_wins():
    print("\n=== Why: bytes each rank ships across InfiniBand ===")
    wl = PipelineWorkload.build(4, SEQ, HIDDEN, world_size=32, num_groups=2)
    meg_send = wl.send
    print(f"  Megatron-LM: {meg_send.per_rank_bytes() / 2**20:7.1f} MiB "
          f"(replicated — every rank sends the same data)")
    wl2 = PipelineWorkload.build(4, SEQ, HIDDEN, world_size=32, num_groups=2)
    sched = wl2.schedule_coconet()
    from repro.core import ops

    cc_send = next(
        e for e in sched.program.operations if isinstance(e, ops.Send)
    )
    print(f"  CoCoNet:     {cc_send.per_rank_bytes() / 2**20:7.1f} MiB "
          f"(sliced — 1/16th each, gathered on the other node)")


def correctness():
    print("\n=== The transformed pipeline computes identical values ===")
    rng = np.random.RandomState(5)
    B, S, H, G = 2, 8, 16, 4
    inputs = {
        "in": rng.randn(G, B, S, H), "b": rng.randn(H),
        "r": rng.randn(B, S, H),
    }
    outs = {}
    for name in ("megatron", "coconet"):
        wl = PipelineWorkload.build(
            B, S, H, world_size=2 * G, num_groups=2, dtype=FP32,
            dropout_seed=11,
        )
        sched = getattr(wl, f"schedule_{name}")()
        res = Executor().run_lowered(sched, inputs)
        outs[name] = res.output(sched.program.outputs[0].name)
    diff = float(np.abs(outs["megatron"] - outs["coconet"]).max())
    print(f"  max |megatron - coconet| = {diff:.2e}")
    assert diff < 1e-6


def table5_summary():
    print("\n=== Table 5: end-to-end inference stage estimate ===")
    for model, r in run_table5().items():
        print(f"  {model}: {r['megatron_stage_ms']:.1f} ms -> "
              f"{r['coconet_stage_ms']:.1f} ms per stage  "
              f"({r['speedup']:.2f}x; paper reports {r['paper']:.2f}x)")


if __name__ == "__main__":
    schedule_progression()
    why_it_wins()
    correctness()
    table5_summary()
