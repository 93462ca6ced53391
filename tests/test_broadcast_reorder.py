"""Tests for reordering computations with a Broadcast (§3.2 names
"an AllGather or a Broadcast")."""

import numpy as np
import pytest

from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Broadcast,
    Dropout,
    Execute,
    Local,
    Reduce,
    Replicated,
    Tensor,
    world,
)
from repro.core import ops
from repro.core.transforms import ARSplitReduceBroadcast, Schedule
from repro.errors import TransformError
from repro.runtime import Executor


def build_program(n=4, N=16, seed=3):
    W = world(n)
    g = Tensor(FP32, (N,), Local, W, RANK, name="g")
    r = Tensor(FP32, (N,), Replicated, W, name="r")
    ar = AllReduce("+", g, name="ar")
    scaled = Binary("*", ar, 0.5, name="scaled")
    shifted = Binary("+", scaled, r, name="shifted")
    prog = Execute("p", [g, r], [shifted])
    return prog, ar, scaled, shifted


class TestBroadcastReorder:
    def test_computation_moves_before_broadcast(self):
        prog, ar, scaled, shifted = build_program()
        sched = Schedule(prog)
        red, bc = sched.split(ar, ARSplitReduceBroadcast)
        results = sched.reorder(bc, scaled, shifted)
        assert isinstance(results[-1], ops.Broadcast)
        # the final op is now a Broadcast of the computed value
        assert isinstance(sched.program.outputs[0], ops.Broadcast)
        # computations consume the Reduce output directly
        ops_now = sched.program.operations
        kinds = [type(e).__name__ for e in ops_now]
        assert kinds.count("Broadcast") == 1

    def test_semantics_preserved(self):
        rng = np.random.RandomState(0)
        n, N = 4, 16
        inputs = {"g": rng.randn(n, N), "r": rng.randn(N)}
        prog, ar, scaled, shifted = build_program()
        ref = Executor().run_lowered(prog, inputs).output("shifted")

        prog2, ar2, scaled2, shifted2 = build_program()
        sched = Schedule(prog2)
        red, bc = sched.split(ar2, ARSplitReduceBroadcast)
        sched.reorder(bc, scaled2, shifted2)
        got = Executor().run_lowered(sched.program, inputs)
        out = got.output(sched.program.outputs[0].name)
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_semantics_preserved_with_dropout(self):
        rng = np.random.RandomState(1)
        n, N = 4, 32
        W = world(n)
        g = Tensor(FP32, (N,), Local, W, RANK, name="g")
        ar = AllReduce("+", g, name="ar")
        d = Dropout(ar, 0.4, seed=99, name="d")
        prog = Execute("p", [g], [d])
        inputs = {"g": rng.randn(n, N)}
        ref = Executor().run_lowered(prog, inputs).output("d")

        g2 = Tensor(FP32, (N,), Local, W, RANK, name="g")
        ar2 = AllReduce("+", g2, name="ar")
        d2 = Dropout(ar2, 0.4, seed=99, name="d")
        prog2 = Execute("p", [g2], [d2])
        sched = Schedule(prog2)
        red, bc = sched.split(ar2, ARSplitReduceBroadcast)
        sched.reorder(bc, d2)
        got = Executor().run_lowered(sched.program, inputs)
        np.testing.assert_allclose(
            got.output(sched.program.outputs[0].name), ref, rtol=1e-6
        )

    def test_rejects_non_replicated_operand(self):
        n, N = 4, 16
        W = world(n)
        g = Tensor(FP32, (N,), Local, W, RANK, name="g")
        other = Tensor(FP32, (N,), Local, W, RANK, name="other")
        ar = AllReduce("+", g, name="ar")
        mixed = Binary("+", ar, other, name="mixed")
        prog = Execute("p", [g, other], [mixed])
        sched = Schedule(prog)
        red, bc = sched.split(ar, ARSplitReduceBroadcast)
        with pytest.raises(TransformError, match="non-replicated"):
            sched.reorder(bc, mixed)

    def test_rejects_external_consumer(self):
        prog, ar, scaled, shifted = build_program()
        sched = Schedule(prog)
        red, bc = sched.split(ar, ARSplitReduceBroadcast)
        with pytest.raises(TransformError, match="consumes"):
            sched.reorder(bc, shifted)  # 'scaled' consumes bc too

    def test_fewer_broadcast_bytes_not_more(self):
        # reorder keeps a single broadcast of the same size; the win is
        # that only the root computes (n-1 ranks idle -> power/locality)
        prog, ar, scaled, shifted = build_program()
        sched = Schedule(prog)
        red, bc = sched.split(ar, ARSplitReduceBroadcast)
        sched.reorder(bc, scaled, shifted)
        bcasts = [
            e for e in sched.program.operations
            if isinstance(e, ops.Broadcast)
        ]
        assert len(bcasts) == 1
        assert bcasts[0].per_rank_bytes() == shifted.per_rank_bytes()
