#!/usr/bin/env python
"""Mixture-of-Experts over AllToAll: a workload GShard can't co-optimize.

Walks the full subsystem added for MoE:

1. build the GShard-style expert-MLP program (dispatch-AllToAll →
   expert GEMM → ReLU → expert GEMM → combine-AllToAll);
2. apply the schedule family — GShard-Eq, fused (scaling reordered into
   the combine exchange), overlapped (the five-stage chunk pipeline) —
   and show every schedule computes identical values;
3. split an AllToAll into hierarchical intra-node + inter-node phases
   and verify the composition is exact;
4. let the autotuner rediscover the overlapped schedule and report the
   simulated times.
"""

import numpy as np

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.transforms import A2ASplitHierarchical, Schedule
from repro.perf import ProgramCostModel
from repro.runtime import Executor
from repro.workloads.moe import MoEWorkload, moe_reference


def main():
    # -- 1. The program, at a size the numeric simulator runs instantly --
    n, C, M, F = 4, 2, 6, 8
    wl = MoEWorkload.build(C, M, F, world_size=n, dtype=FP32)
    print("=== The MoE program ===")
    print(wl.program.pretty())

    rng = np.random.RandomState(0xA2A)
    inputs = {
        "x": rng.randn(n, n, C, M),
        "w1": rng.randn(n, M, F),
        "w2": rng.randn(n, F, M),
    }
    ref = moe_reference(inputs["x"], inputs["w1"], inputs["w2"])

    # -- 2. Every schedule computes the same numbers ---------------------
    for name, sched in wl.schedules().items():
        res = Executor().run_lowered(sched, inputs)
        # a Local output reassembles with the rank axis leading, the
        # same convention moe_reference uses
        got = res.output(sched.program.outputs[0].name)
        assert np.allclose(ref, got, rtol=1e-5), name
        print(f"schedule {name!r}: OK ({len(sched.program.operations)} ops)")

    # -- 3. Hierarchical AllToAll split is exact -------------------------
    sched = Schedule(wl.program)
    sched.split(wl.dispatch, A2ASplitHierarchical, node_size=2)
    res = Executor().run_lowered(sched, inputs)
    got = res.output(sched.program.outputs[0].name)
    assert np.allclose(ref, got, rtol=1e-5)
    print("\nhierarchical split (2 GPUs/node):")
    print(sched.describe())

    # -- 4. At DGX-2 scale the autotuner finds the overlapped pipeline ---
    cluster = Cluster(1)
    big = MoEWorkload.build(512, 1024, 4096, world_size=16)
    pcm = ProgramCostModel(cluster)
    print("\nAt scale (E=16, C=512, M=1024, F=4096) on a simulated DGX-2:")
    times = {name: pcm.time(s) for name, s in big.schedules().items()}
    for name, t in times.items():
        print(f"  {name:12s} {t * 1e3:8.3f} ms")
    result = Autotuner(cluster).tune(big.program)
    print(f"autotuner best: {result.best.name}")
    speedup = times["GShard-Eq"] / result.best.time
    assert result.best.time <= times["overlapped"] * 1.001
    print(f"speedup over GShard-Eq: {speedup:.2f}x")


if __name__ == "__main__":
    main()
