#!/usr/bin/env python
"""Quickstart: write a distributed program, transform it, run it.

This walks through the paper's running example (Figure 3 / Figure 4):
the epilogue of a Megatron-style model-parallel layer — a MatMul over
sliced weights, an AllReduce, bias + dropout + residual — and applies
the full transformation chain: split, reorder, fuse, overlap. Every
schedule computes identical values; the simulated performance model
shows why the transformed one is faster.
"""

import numpy as np

from repro.cluster import Cluster
from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Dropout,
    Execute,
    MatMul,
    Replicated,
    Sliced,
    Tensor,
    world,
)
from repro.core.transforms import AllReduceFuse, ARSplitRSAG, Schedule
from repro.perf import ProgramCostModel
from repro.runtime import Executor


def main():
    # -- 1. Declare distributed tensors (Figure 3) ----------------------
    num_gpus = 16
    B, S, H = 8, 64, 128  # kept small so the simulated run is instant
    W = world(num_gpus)

    w = Tensor(FP32, (H, H), Sliced(0), W, RANK, name="w")
    b = Tensor(FP32, (H,), Replicated, W, name="b")
    x = Tensor(FP32, (B, S, H), Sliced(2), W, RANK, name="in")
    r = Tensor(FP32, (B, S, H), Replicated, W, name="r")

    # -- 2. Express computation AND communication ----------------------
    layer = MatMul(x, w, name="layer")           # local partial sums
    total = AllReduce("+", layer, name="sum")    # replicated
    biased = Binary("+", total, b, name="sum_b")
    dropped = Dropout(biased, 0.1, seed=7, name="drop")
    out = Binary("+", dropped, r, name="out")
    program = Execute("self_attention", [w, x, b, r], [out])
    print("=== The program (Figure 3) ===")
    print(program.pretty())

    # -- 3. Transform it (Figure 4) --------------------------------------
    sched = Schedule(program)
    rs, ag = sched.split(total, ARSplitRSAG)
    sliced = sched.reorder(ag, biased, dropped, out)
    fused = sched.fuse(rs, *sliced, policy=AllReduceFuse)
    sched.overlap(layer, fused)
    print("\n=== Applied schedule ===")
    print(sched.describe())
    print("\n=== Transformed program ===")
    print(sched.program.pretty())

    # -- 4. Both compute the same values ---------------------------------
    rng = np.random.RandomState(0)
    inputs = {
        "w": rng.randn(H, H),
        "b": rng.randn(H),
        "in": rng.randn(B, S, H),
        "r": rng.randn(B, S, H),
    }
    ref = Executor().run_lowered(program, inputs).output("out")
    opt = Executor().run_lowered(sched, inputs)
    opt_out = opt.output(sched.program.outputs[0].name)
    assert np.allclose(ref, opt_out, rtol=1e-6)
    print("\nSemantics preserved: max |diff| =",
          float(np.abs(ref - opt_out).max()))

    # -- 5. And the transformed one is faster at real scale --------------
    # (the numeric check above ran tiny shapes; performance is simulated
    # at the paper's GPT-2 scale, where the schedule shines)
    def build_at_scale():
        Wp = world(num_gpus)
        Bp, Sp, Hp = 8, 1024, 3072
        from repro.core import FP16

        wp = Tensor(FP16, (Hp, Hp), Sliced(0), Wp, RANK, name="w")
        bp = Tensor(FP16, (Hp,), Replicated, Wp, name="b")
        xp = Tensor(FP16, (Bp, Sp, Hp), Sliced(2), Wp, RANK, name="in")
        rp = Tensor(FP16, (Bp, Sp, Hp), Replicated, Wp, name="r")
        lp = MatMul(xp, wp, name="layer")
        tp = AllReduce("+", lp, name="sum")
        op = Binary("+", Dropout(Binary("+", tp, bp), 0.1, seed=7), rp)
        return Execute("attn", [wp, xp, bp, rp], [op]), lp, tp, op

    prog_s, layer_s, total_s, out_s = build_at_scale()
    cluster = Cluster(1)
    t_base = ProgramCostModel(cluster).time(Schedule(prog_s))
    prog_s2, layer_s2, total_s2, out_s2 = build_at_scale()
    sched_s = Schedule(prog_s2)
    rs2, ag2 = sched_s.split(total_s2, ARSplitRSAG)
    region = [e for e in sched_s.program.operations
              if e not in (layer_s2, rs2, ag2)]
    sliced2 = sched_s.reorder(ag2, *region)
    fused2 = sched_s.fuse(rs2, *sliced2, policy=AllReduceFuse)
    sched_s.overlap(layer_s2, fused2)
    t_opt = ProgramCostModel(cluster).time(sched_s)
    print(f"\nAt GPT-2 scale (B=8, S=1024, H=3072) on a simulated DGX-2:")
    print(f"  default schedule:   {t_base * 1e3:8.3f} ms")
    print(f"  CoCoNet schedule:   {t_opt * 1e3:8.3f} ms")
    print(f"  speedup: {t_base / t_opt:.2f}x")


if __name__ == "__main__":
    main()
