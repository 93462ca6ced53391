"""Semantics preservation: every transformed schedule must compute the
same values as the original program. This is the paper's core claim
("semantics preserving transformations") enforced end to end, including
hypothesis property tests over randomized programs and inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Dropout,
    Execute,
    Local,
    ReLU,
    Replicated,
    Sqrt,
    Tanh,
    Tensor,
    Update,
    world,
)
from repro.core.transforms import (
    AllReduceFuse,
    ARSplitReduceBroadcast,
    ARSplitRSAG,
    ComputationFuse,
    Schedule,
)
from repro.runtime import Executor
from tests.conftest import attention_inputs, build_attention_program
from repro.workloads.adam import AdamWorkload, adam_reference
from repro.workloads.lamb import LambWorkload, lamb_reference
from repro.workloads.pipeline import PipelineWorkload


def assert_same_outputs(prog_a, prog_b, inputs, rtol=1e-6):
    ra = Executor().run_lowered(prog_a, inputs)
    rb = Executor().run_lowered(prog_b, inputs)
    a_out = ra.output(prog_a.outputs[0].name)
    b_out = rb.output(prog_b.outputs[0].name)
    np.testing.assert_allclose(a_out, b_out, rtol=rtol, atol=1e-7)


class TestAttentionEquivalence:
    """Figure 4's transformation chain on Figure 3's program."""

    def test_split_preserves_semantics(self):
        rng = np.random.RandomState(0)
        inputs = attention_inputs(rng)
        prog, h = build_attention_program()
        sched = Schedule(prog)
        sched.split(h["allreduce"], ARSplitRSAG)
        assert_same_outputs(prog, sched.program, inputs)

    def test_split_reduce_broadcast_preserves_semantics(self):
        rng = np.random.RandomState(1)
        inputs = attention_inputs(rng)
        prog, h = build_attention_program()
        sched = Schedule(prog)
        sched.split(h["allreduce"], ARSplitReduceBroadcast)
        assert_same_outputs(prog, sched.program, inputs)

    def test_split_reorder_preserves_semantics(self):
        rng = np.random.RandomState(2)
        inputs = attention_inputs(rng)
        prog, h = build_attention_program()
        sched = Schedule(prog)
        _, ag = sched.split(h["allreduce"])
        sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
        assert_same_outputs(prog, sched.program, inputs)

    def test_full_figure4_chain_preserves_semantics(self):
        rng = np.random.RandomState(3)
        inputs = attention_inputs(rng)
        prog, h = build_attention_program()
        sched = Schedule(prog)
        rs, ag = sched.split(h["allreduce"])
        results = sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
        fused = sched.fuse(rs, *results, policy=AllReduceFuse)
        sched.overlap(h["layer"], fused)
        assert_same_outputs(prog, sched.program, inputs)

    def test_dropout_mask_identical_across_schedules(self):
        # the sliced dropout draws exactly the original mask
        rng = np.random.RandomState(4)
        inputs = attention_inputs(rng)
        inputs["r"] = np.zeros_like(inputs["r"])  # isolate dropout output
        prog, h = build_attention_program(seed=1234)
        ref = Executor().run_lowered(prog, inputs)
        prog2, h2 = build_attention_program(seed=1234)
        sched = Schedule(prog2)
        _, ag = sched.split(h2["allreduce"])
        sched.reorder(ag, h2["sum_b"], h2["drop"], h2["out"])
        got = Executor().run_lowered(sched.program, inputs)
        np.testing.assert_array_equal(
            ref.output("out"),
            got.output(sched.program.outputs[0].name),
        )


class TestOptimizerEquivalence:
    """Figure 6's Adam (and LAMB) against their references, per schedule."""

    @pytest.fixture
    def state(self):
        rng = np.random.RandomState(5)
        n, N = 4, 32
        return {
            "inputs": dict(
                g=rng.randn(n, N) * 0.1,
                p=rng.randn(N),
                m=rng.randn(N) * 0.01,
                v=np.abs(rng.randn(N)) * 0.01,
                lr=0.01,
                t=2.0,
            ),
            "n": n,
            "N": N,
        }

    @pytest.mark.parametrize("schedule", ["ar_opt", "gshard", "fused"])
    def test_adam_schedules_match_reference(self, state, schedule):
        wl = AdamWorkload.build(state["N"], state["n"], grad_dtype=FP32)
        sched = getattr(wl, f"schedule_{schedule}")()
        res = Executor().run_lowered(sched.program, state["inputs"])
        p, m, v = adam_reference(
            state["inputs"]["g"], state["inputs"]["p"],
            state["inputs"]["m"], state["inputs"]["v"], 0.01, 2.0,
        )
        np.testing.assert_allclose(res.tensor_state("p"), p, rtol=1e-5)
        np.testing.assert_allclose(res.tensor_state("v"), v, rtol=1e-5)
        np.testing.assert_allclose(res.tensor_state("m"), m, rtol=1e-5)

    @pytest.mark.parametrize("schedule", ["ar_opt", "gshard", "fused"])
    def test_lamb_schedules_match_reference(self, state, schedule):
        wl = LambWorkload.build(state["N"], state["n"], grad_dtype=FP32)
        sched = getattr(wl, f"schedule_{schedule}")()
        res = Executor().run_lowered(sched.program, state["inputs"])
        p, m, v = lamb_reference(
            state["inputs"]["g"], state["inputs"]["p"],
            state["inputs"]["m"], state["inputs"]["v"], 0.01, 2.0,
        )
        np.testing.assert_allclose(res.tensor_state("p"), p, rtol=1e-5)

    def test_gshard_slices_optimizer_state(self, state):
        # after asSlice, m and v are declared sliced (memory win of §6.1.2)
        wl = AdamWorkload.build(state["N"], state["n"], grad_dtype=FP32)
        sched = wl.schedule_gshard()
        decls = {t.name: t for t in sched.program.inputs}
        assert decls["m"].layout.is_sliced
        assert decls["v"].layout.is_sliced
        assert decls["p"].layout.is_replicated


class TestPipelineEquivalence:
    """Figure 8's pipeline schedules."""

    @pytest.fixture
    def inputs(self):
        rng = np.random.RandomState(6)
        return {
            "in": rng.randn(4, 2, 8, 16),  # local: (group, B, S, H)
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }

    @pytest.mark.parametrize(
        "schedule", ["megatron", "ar_c_p2p_ag", "gshard", "coconet"]
    )
    def test_pipeline_schedules_agree(self, inputs, schedule):
        base = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=5
        )
        ref = Executor().run_lowered(base.program, inputs)
        ref_out = ref.output(base.program.outputs[0].name)
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=5
        )
        sched = getattr(wl, f"schedule_{schedule}")()
        got = Executor().run_lowered(sched.program, inputs)
        got_out = got.output(sched.program.outputs[0].name)
        np.testing.assert_allclose(got_out, ref_out, rtol=1e-6)

    def test_coconet_sends_slices_not_full(self, inputs):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32
        )
        sched = wl.schedule_coconet()
        from repro.core import ops

        send = next(
            e for e in sched.program.operations if isinstance(e, ops.Send)
        )
        assert send.layout.is_sliced
        # a quarter of the bytes per rank vs the replicated megatron send
        assert send.per_rank_bytes() * 4 == send.num_elements * 4


class TestRandomizedPrograms:
    """Property: split+reorder on random pointwise chains is semantics
    preserving."""

    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 5),
        n=st.sampled_from([2, 4]),
        per=st.sampled_from([2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_reorder_random_chain(self, seed, depth, n, per):
        rng = np.random.RandomState(seed)
        W = world(n)
        N = n * per
        g = Tensor(FP32, (N,), Local, W, RANK, name="g")
        r = Tensor(FP32, (N,), Replicated, W, name="r")
        ar = AllReduce("+", g, name="ar")
        cur = ar
        chain = []
        op_pool = ["+", "*", "-", "relu", "tanh", "drop", "sqrtabs"]
        for i in range(depth):
            kind = op_pool[rng.randint(len(op_pool))]
            if kind in ("+", "*", "-"):
                cur = Binary(kind, cur, r, name=f"b{i}")
            elif kind == "relu":
                cur = ReLU(cur)
            elif kind == "tanh":
                cur = Tanh(cur)
            elif kind == "drop":
                cur = Dropout(cur, 0.3, seed=seed + i, name=f"d{i}")
            else:
                cur = Sqrt(Binary("*", cur, cur, name=f"sq{i}"))
            chain.append(cur)
            chain.extend(
                x for x in (cur.inputs[0],) if not x.is_leaf and x not in chain
            )
        prog = Execute("rand", [g, r], [cur])
        inputs = {"g": rng.randn(n, N), "r": rng.randn(N)}
        ref = Executor().run_lowered(prog, inputs).output(cur.name)

        sched = Schedule(prog)
        region = [e for e in sched.program.operations if e is not ar]
        _, ag = sched.split(ar)
        sched.reorder(ag, *region)
        got = Executor().run_lowered(sched.program, inputs)
        got_out = got.output(sched.program.outputs[0].name)
        np.testing.assert_allclose(got_out, ref, rtol=1e-5, atol=1e-7)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_update_chain_equivalence(self, seed):
        rng = np.random.RandomState(seed)
        n, N = 4, 8
        W = world(n)
        g = Tensor(FP32, (N,), Local, W, RANK, name="g")
        p = Tensor(FP32, (N,), Replicated, W, name="p")
        ar = AllReduce("+", g, name="ar")
        delta = Binary("*", ar, 0.1, name="delta")
        new_p = Binary("-", p, delta, name="new_p")
        upd = Update(p, new_p, name="upd")
        prog = Execute("sgd", [g, p], [upd])
        inputs = {"g": rng.randn(n, N), "p": rng.randn(N)}
        ref = Executor().run_lowered(prog, inputs).tensor_state("p")

        prog2 = Execute("sgd", [g, p], [upd])
        sched = Schedule(prog2)
        _, ag = sched.split(ar)
        sched.reorder(ag, delta, new_p, upd)
        got = Executor().run_lowered(sched.program, inputs).tensor_state("p")
        np.testing.assert_allclose(got, ref, rtol=1e-6)
