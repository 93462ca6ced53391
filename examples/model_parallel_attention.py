#!/usr/bin/env python
"""Model-parallel inference: the four schedules of Figure 11.

Builds the Megatron-LM self-attention and MLP epilogues at GPT-2 scale
and compares the paper's four schedules on the simulated DGX-2:
Megatron-LM (unfused), MM-AR-C (fused pointwise), GShard-Eq
(MM-RS-C-AG) and CoCoNet's ol(MM, fuse(RS-C-AG)). Also verifies all
four schedules agree numerically at a reduced size and shows the
generated kernel code for the fused collective.
"""

import numpy as np

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.codegen import CodeGenerator
from repro.perf import ProgramCostModel
from repro.runtime import Executor
from repro.workloads.attention import AttentionWorkload

SCHEDULE_BUILDERS = {
    "MegatronLM": "schedule_megatron",
    "MM-AR-C": "schedule_mm_ar_c",
    "GShard-Eq": "schedule_gshard",
    "CoCoNet": "schedule_coconet",
}


def performance_comparison():
    print("=== Simulated times, GPT-2 scale (S=1024, H=3072, 16 GPUs) ===")
    cluster = Cluster(1)
    for label, expansion in (("self-attention", 1), ("MLP", 4)):
        times = {}
        for name, builder in SCHEDULE_BUILDERS.items():
            wl = AttentionWorkload.build(
                8, 1024, 3072, 16, expansion=expansion
            )
            sched = getattr(wl, builder)()
            times[name] = ProgramCostModel(
                cluster, gemm_efficiency=0.8
            ).time(sched)
        base = times["MegatronLM"]
        print(f"\n{label}:")
        for name, t in times.items():
            print(f"  {name:12s} {t * 1e3:7.3f} ms   "
                  f"{base / t:5.2f}x vs Megatron-LM")


def correctness_check():
    print("\n=== All four schedules agree numerically ===")
    rng = np.random.RandomState(3)
    B, S, H = 4, 8, 16
    inputs = {
        "w": rng.randn(H, H), "b": rng.randn(H),
        "in": rng.randn(B, S, H), "r": rng.randn(B, S, H),
    }
    outputs = {}
    for name, builder in SCHEDULE_BUILDERS.items():
        wl = AttentionWorkload.build(B, S, H, 4, dtype=FP32, dropout_seed=9)
        sched = getattr(wl, builder)()
        res = Executor().run_lowered(sched, inputs)
        outputs[name] = res.output(sched.program.outputs[0].name)
    ref = outputs["MegatronLM"]
    for name, out in outputs.items():
        print(f"  {name:12s} max diff vs Megatron-LM: "
              f"{float(np.abs(out - ref).max()):.2e}")
        assert np.allclose(out, ref, rtol=1e-6)


def show_overlap_timeline():
    print("\n=== Why the overlap wins: per-resource timeline ===")
    from repro.perf.timeline import render_gantt, resource_utilization

    cluster = Cluster(1)
    for name in ("megatron", "coconet"):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        sched = getattr(wl, f"schedule_{name}")()
        tl, tasks = ProgramCostModel(
            cluster, gemm_efficiency=0.8
        ).timeline(sched)
        util = resource_utilization(tl, tasks)
        print(f"\n{name}:")
        print(render_gantt(tl, tasks, width=64, max_rows=3))
        busy = ", ".join(f"{r}: {u:.0%}" for r, u in sorted(util.items()))
        print(f"utilization: {busy}")


def show_generated_kernel():
    print("\n=== Generated FusedAllReduce kernel (excerpt) ===")
    wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
    sched = wl.schedule_coconet()
    gen = CodeGenerator().generate(sched)
    fused_name = next(
        k for k in gen.kernel_sources if k.startswith("allreducefuse")
    )
    source = gen.kernel_sources[fused_name]
    print("\n".join(source.splitlines()[:18]))
    print(f"  ... ({gen.kernel_loc(fused_name)} lines total, "
          f"{gen.loc()} for the whole program)")


if __name__ == "__main__":
    performance_comparison()
    correctness_check()
    show_overlap_timeline()
    show_generated_kernel()
