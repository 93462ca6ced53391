"""A full Megatron MLP block: column-parallel GEMM, row-parallel GEMM,
AllReduce, epilogue — stressing the transform machinery on a program
with two distributed MatMuls and verifying the whole pipeline.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Dropout,
    Execute,
    MatMul,
    ReLU,
    Replicated,
    Sliced,
    Tensor,
    world,
)
from repro.core.autotuner import Autotuner
from repro.core.transforms import (
    AllReduceFuse,
    ARSplitRSAG,
    ComputationFuse,
    Schedule,
)
from repro.perf import ProgramCostModel
from repro.runtime import Executor


def build_mlp(n=4, B=2, S=8, H=16, seed=17):
    """Megatron MLP: [B,S,H] -> 4H (column parallel) -> H (row parallel).

    w1 is Sliced(1) so the first GEMM's output is sliced along the last
    dim without any communication; w2 is Sliced(0) so the second GEMM
    contracts over the sliced dim and produces local partial sums that
    the AllReduce combines.
    """
    W = world(n)
    x = Tensor(FP32, (B, S, H), Replicated, W, name="x")
    w1 = Tensor(FP32, (H, 4 * H), Sliced(1), W, RANK, name="w1")
    w2 = Tensor(FP32, (4 * H, H), Sliced(0), W, RANK, name="w2")
    b2 = Tensor(FP32, (H,), Replicated, W, name="b2")
    r = Tensor(FP32, (B, S, H), Replicated, W, name="r")

    h1 = MatMul(x, w1, name="h1")          # Sliced(2): [B,S,4H/n]
    act = ReLU(h1)
    h2 = MatMul(act, w2, name="h2")        # Local partial sums
    total = AllReduce("+", h2, name="total")
    sum_b = Binary("+", total, b2, name="sum_b")
    drop = Dropout(sum_b, 0.1, seed=seed, name="drop")
    out = Binary("+", drop, r, name="out")
    prog = Execute("mlp", [x, w1, w2, b2, r], [out])
    return prog, dict(
        h1=h1, act=act, h2=h2, total=total, sum_b=sum_b, drop=drop, out=out
    )


def fused_mlp_program(seed=31):
    """split(AR) -> reorder -> fuse(RS-C-AG) over the MLP block.

    Returns ``(schedule, input shapes)``; ``tests/test_spmd.py`` runs it
    at ``LL128`` on real rank processes against the lowered interpreter.
    """
    prog, h = build_mlp(seed=seed)
    sched = Schedule(prog)
    rs, ag = sched.split(h["total"], ARSplitRSAG)
    results = sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
    sched.fuse(rs, *results, policy=AllReduceFuse)
    shapes = {t.name: t.shape for t in prog.inputs}
    return sched, shapes


def reference_mlp(inputs, seed):
    from repro.runtime.rng import dropout_mask

    x, w1, w2, b2, r = (
        inputs["x"], inputs["w1"], inputs["w2"], inputs["b2"], inputs["r"]
    )
    h1 = np.maximum(x @ w1, 0.0)
    h2 = h1 @ w2
    mask = dropout_mask(seed, 0.1, h2.shape)
    return (h2 + b2) * mask + r


@pytest.fixture
def inputs():
    rng = np.random.RandomState(8)
    B, S, H = 2, 8, 16
    return {
        "x": rng.randn(B, S, H),
        "w1": rng.randn(H, 4 * H),
        "w2": rng.randn(4 * H, H),
        "b2": rng.randn(H),
        "r": rng.randn(B, S, H),
    }


class TestTwoGemmMLP:
    def test_layout_chain(self):
        prog, h = build_mlp()
        assert h["h1"].layout == Sliced(2)
        assert h["act"].layout == Sliced(2)
        assert h["h2"].layout.is_local
        assert h["total"].layout.is_replicated

    def test_forward_matches_reference(self, inputs):
        prog, h = build_mlp(seed=23)
        got = Executor().run_lowered(prog, inputs).output("out")
        expected = reference_mlp(inputs, seed=23)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-6)

    def test_transformed_matches_original(self, inputs):
        prog, h = build_mlp(seed=29)
        ref = Executor().run_lowered(prog, inputs).output("out")
        prog2, h2 = build_mlp(seed=29)
        sched = Schedule(prog2)
        rs, ag = sched.split(h2["total"], ARSplitRSAG)
        results = sched.reorder(ag, h2["sum_b"], h2["drop"], h2["out"])
        fused = sched.fuse(rs, *results, policy=AllReduceFuse)
        sched.overlap(h2["h2"], fused)
        got = Executor().run_lowered(sched.program, inputs)
        np.testing.assert_allclose(
            got.output(sched.program.outputs[0].name), ref, rtol=1e-5,
            atol=1e-7,
        )

    def test_autotuner_handles_two_gemms(self):
        prog, _ = build_mlp(n=16, B=8, S=1024, H=3072)
        result = Autotuner(Cluster(1)).tune(prog)
        assert len(result.candidates) >= 4
        assert result.best.time <= min(c.time for c in result.candidates)

    def test_best_schedule_overlaps_row_parallel_gemm(self):
        # the AR only depends on the second GEMM; overlap should pair them
        prog, _ = build_mlp(n=16, B=8, S=1024, H=3072)
        result = Autotuner(Cluster(1)).tune(prog)
        assert "overlap" in result.best.name

    def test_cost_model_ranks_fused_below_default(self):
        prog, h = build_mlp(n=16, B=8, S=1024, H=3072)
        t_default = ProgramCostModel(Cluster(1)).time(Schedule(prog))
        prog2, h2 = build_mlp(n=16, B=8, S=1024, H=3072)
        sched = Schedule(prog2)
        sched.fuse(
            h2["sum_b"], h2["drop"], h2["out"], policy=ComputationFuse
        )
        t_fused = ProgramCostModel(Cluster(1)).time(sched)
        assert t_fused < t_default
