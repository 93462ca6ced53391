"""The rank-major runtime against the per-rank oracle.

Property tests that every rank-major collective and the lowered
interpreter are *bit-identical* (``np.array_equal``) to values composed
rank by rank with the per-rank collective oracle
(``tests/collective_oracle.py``), plus the bugfix-sweep regressions:
NCCL-matching Reduce semantics, tensor/op context in divisibility
errors, and the lossy-downcast policy of input placement.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FP16,
    FP32,
    RANK,
    AllReduce,
    Execute,
    Local,
    Reduce,
    Replicated,
    Tensor,
    world,
)
from repro.core.process_group import ProcessGroup
from repro.core.transforms import AllReduceFuse, Schedule
from repro.errors import ExecutionError
from repro.runtime import Executor
from repro.runtime import collectives as C
from repro.runtime.rng import dropout_mask
from repro.runtime.world import (
    gather_axis,
    place_input,
    rank_invariant,
    replicate,
    scatter_axis,
    slice_of,
)
from tests.collective_oracle import (
    allgather_reference,
    allreduce_reference,
    alltoall_inter_reference,
    alltoall_intra_reference,
    alltoall_reference,
    broadcast_reference,
    reduce_reference,
    reducescatter_reference,
)

F32, F64 = np.float32, np.float64


def _pair(rng, group, shape, dtype=np.float32):
    """The same random values in both representations."""
    data = rng.randn(group.size, *shape).astype(dtype)
    as_dict = {r: data[i].copy() for i, r in enumerate(group)}
    return as_dict, data.copy()


def assert_backends_equal(dict_out, stacked_out, group):
    for i, r in enumerate(group):
        np.testing.assert_array_equal(
            dict_out[r], np.asarray(stacked_out[i])
        )


class TestCollectiveParity:
    """Every collective: per-rank oracle == rank-major stack, bitwise."""

    @given(
        n=st.integers(2, 8),
        per=st.integers(1, 4),
        op=st.sampled_from(["+", "*", "max", "min"]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_allreduce(self, n, per, op, seed):
        rng = np.random.RandomState(seed)
        g = world(n)
        d, s = _pair(rng, g, (n * per,))
        ref = allreduce_reference(d, g, op, np.float32)
        vec = C.allreduce_vectorized(s, g, op, np.float32)
        assert_backends_equal(ref, vec, g)

    @given(
        n=st.integers(2, 8),
        per=st.integers(1, 4),
        dim=st.integers(0, 1),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_reducescatter_allgather(self, n, per, dim, seed):
        rng = np.random.RandomState(seed)
        g = world(n)
        d, s = _pair(rng, g, (n * per, n * per))
        ref_rs = reducescatter_reference(d, g, "+", dim, np.float32)
        vec_rs = C.reducescatter_vectorized(s, g, "+", dim, np.float32)
        assert_backends_equal(ref_rs, vec_rs, g)
        ref_ag = allgather_reference(ref_rs, g, dim)
        vec_ag = C.allgather_vectorized(vec_rs, g, dim)
        assert_backends_equal(ref_ag, vec_ag, g)

    @given(
        n=st.integers(1, 8),
        per=st.integers(1, 3),
        dim=st.integers(0, 1),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_alltoall(self, n, per, dim, seed):
        rng = np.random.RandomState(seed)
        g = world(n)
        d, s = _pair(rng, g, (n * per, n * per))
        ref = alltoall_reference(d, g, dim)
        vec = C.alltoall_vectorized(s, g, dim)
        assert_backends_equal(ref, vec, g)

    @given(
        n=st.integers(2, 6),
        root=st.integers(0, 5),
        op=st.sampled_from(["+", "max"]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_broadcast(self, n, root, op, seed):
        root = root % n
        rng = np.random.RandomState(seed)
        g = world(n)
        d, s = _pair(rng, g, (6,))
        ref = reduce_reference(d, g, op, root, np.float32)
        vec = C.reduce_vectorized(s, g, op, root, np.float32)
        assert_backends_equal(ref, vec, g)
        ref_bc = broadcast_reference(ref, g, root)
        vec_bc = C.broadcast_vectorized(vec, g, root)
        assert_backends_equal(ref_bc, vec_bc, g)

    def test_subgroup_collectives(self):
        rng = np.random.RandomState(9)
        g = ProcessGroup(4, 4, 8)
        d, s = _pair(rng, g, (8,))
        ref = allreduce_reference(d, g, "+", np.float32)
        vec = C.allreduce_vectorized(s, g, "+", np.float32)
        assert_backends_equal(ref, vec, g)
        ref = alltoall_reference(d, g, 0)
        vec = C.alltoall_vectorized(s, g, 0)
        assert_backends_equal(ref, vec, g)

    def test_vectorized_allreduce_is_rank_invariant_view(self):
        rng = np.random.RandomState(3)
        g = world(4)
        _, s = _pair(rng, g, (8,))
        out = C.allreduce_vectorized(s, g, "+", np.float32)
        assert rank_invariant(out)


class TestHierarchicalAllToAll:
    """intra ∘ inter == flat for every divisor node size, oracle and stack.

    Group sizes 4–16 include non-power-of-two grids (6 = 2×3, 12 = 3×4,
    15 = 3×5) — the satellite's property over every divisor.
    """

    @pytest.mark.parametrize("n", list(range(4, 17)))
    def test_every_divisor_composes_to_flat(self, n):
        rng = np.random.RandomState(100 + n)
        g = world(n)
        d, s = _pair(rng, g, (2 * n, 3))
        flat_ref = alltoall_reference(d, g, 0)
        flat_vec = C.alltoall_vectorized(s, g, 0)
        assert_backends_equal(flat_ref, flat_vec, g)
        for m in range(1, n + 1):
            if n % m != 0:
                continue
            intra_ref = alltoall_intra_reference(d, g, 0, m)
            inter_ref = alltoall_inter_reference(intra_ref, g, 0, m)
            assert_backends_equal(flat_ref, inter_ref, g)
            intra_vec = C.alltoall_vectorized(s, g, 0, "intra", m)
            inter_vec = C.alltoall_vectorized(intra_vec, g, 0, "inter", m)
            assert_backends_equal(flat_ref, inter_vec, g)
            assert_backends_equal(intra_ref, intra_vec, g)

    def test_divisor_property_along_dim1(self):
        n = 6
        rng = np.random.RandomState(61)
        g = world(n)
        d, s = _pair(rng, g, (2, 2 * n))
        flat = C.alltoall_vectorized(s, g, 1)
        for m in (1, 2, 3, 6):
            intra = C.alltoall_vectorized(s, g, 1, "intra", m)
            inter = C.alltoall_vectorized(intra, g, 1, "inter", m)
            np.testing.assert_array_equal(
                np.asarray(flat), np.asarray(inter)
            )
            ref = alltoall_inter_reference(
                alltoall_intra_reference(d, g, 1, m), g, 1, m
            )
            assert_backends_equal(ref, inter, g)


class TestStackedViews:
    """The reshape/axis-move primitives behind the vectorized backend."""

    def test_scatter_matches_slice_of(self):
        rng = np.random.RandomState(0)
        a = rng.randn(12, 5)
        stacked = scatter_axis(a, 0, 4)
        for i in range(4):
            np.testing.assert_array_equal(stacked[i], slice_of(a, 0, i, 4))

    def test_gather_inverts_scatter(self):
        rng = np.random.RandomState(1)
        for dim in (0, 1, 2):
            a = rng.randn(4, 6, 8)
            np.testing.assert_array_equal(
                gather_axis(scatter_axis(a, dim, 2), dim), a
            )

    def test_replicate_is_stride_zero(self):
        base = np.arange(6.0)
        r = replicate(base, 5)
        assert r.shape == (5, 6)
        assert rank_invariant(r)
        assert not rank_invariant(np.zeros((5, 6)))


class TestResultWritability:
    """Internal stride-0 views must not leak read-only results."""

    def test_outputs_and_states_are_writable(self):
        rng = np.random.RandomState(2)
        W = world(4)
        g = Tensor(FP32, (8,), Local, W, RANK, name="g")
        ar = AllReduce("+", g, name="ar")
        prog = Execute("p", [g], [ar])
        res = Executor().run_lowered(prog, {"g": rng.randn(4, 8)})
        out = res.output("ar")
        assert out.flags.writeable
        out += 1.0  # the old always-writable contract
        state = res.tensor_state("g")
        assert state.flags.writeable

    def test_leaf_output_does_not_alias_tensor_state(self):
        # a Local input tensor listed directly as a program output:
        # mutating the returned output must not corrupt tensor_state
        rng = np.random.RandomState(3)
        W = world(4)
        a = Tensor(FP32, (8,), Local, W, RANK, name="a")
        prog = Execute("p", [a], [a])
        av = rng.randn(4, 8).astype(np.float32)
        res = Executor().run_lowered(prog, {"a": av})
        out = res.output("a")
        out += 100.0
        np.testing.assert_array_equal(res.tensor_state("a"), av)


class TestReduceSemantics:
    """Post-reduce reads on non-root ranks see the original data."""

    @pytest.mark.parametrize("oracle", [False, True])
    def test_non_root_ranks_keep_input(self, oracle):
        rng = np.random.RandomState(7)
        W = world(4)
        av = rng.randn(4, 4).astype(np.float32)
        if oracle:
            out = reduce_reference(dict(enumerate(av)), W, "+", 2, F32)
        else:
            a = Tensor(FP32, (4,), Local, W, RANK, name="a")
            red = Reduce("+", a, root=2, name="red")
            prog = Execute("p", [a], [red])
            out = Executor().run_lowered(prog, {"a": av}).output("red")
        total = np.sum(av.astype(np.float64), axis=0).astype(np.float32)
        np.testing.assert_array_equal(out[2], total)
        for r in (0, 1, 3):
            np.testing.assert_array_equal(out[r], av[r])

    @pytest.mark.parametrize("root", [-1, 4])
    def test_invalid_root_rejected_on_both_backends(self, root):
        from repro.errors import GroupError

        rng = np.random.RandomState(5)
        g = world(4)
        d, s = _pair(rng, g, (4,))
        with pytest.raises(GroupError):
            reduce_reference(d, g, "+", root, np.float32)
        with pytest.raises(GroupError):
            broadcast_reference(d, g, root)
        with pytest.raises(GroupError):
            C.reduce_vectorized(s, g, "+", root, np.float32)
        with pytest.raises(GroupError):
            C.broadcast_vectorized(s, g, root)

    def test_reduce_then_broadcast_still_equals_allreduce(self):
        rng = np.random.RandomState(8)
        g = world(4)
        d, s = _pair(rng, g, (8,))
        ar = C.allreduce_vectorized(s, g, "+", np.float32)
        red = C.reduce_vectorized(s, g, "+", 0, np.float32)
        bc = C.broadcast_vectorized(red, g, 0)
        np.testing.assert_array_equal(np.asarray(ar), np.asarray(bc))


class TestErrorContext:
    """Divisibility errors carry the tensor/op name."""

    def test_slice_of_context(self):
        with pytest.raises(ExecutionError, match=r"in grad_w"):
            slice_of(np.zeros(10), 0, 0, 4, context="grad_w")

    def test_scatter_axis_context(self):
        with pytest.raises(ExecutionError, match=r"in grad_w"):
            scatter_axis(np.zeros(10), 0, 4, context="grad_w")

    @pytest.mark.parametrize("as_dict", [True, False])
    def test_alltoall_context_both_backends(self, as_dict):
        g = world(4)
        with pytest.raises(ExecutionError, match=r"in a2a_dispatch"):
            if as_dict:
                vals = {r: np.zeros(6, np.float32) for r in g}
                alltoall_reference(vals, g, 0, context="a2a_dispatch")
            else:
                vals = np.zeros((4, 6), np.float32)
                C.alltoall_vectorized(vals, g, 0, context="a2a_dispatch")

    @pytest.mark.parametrize("as_dict", [True, False])
    def test_reducescatter_context_both_backends(self, as_dict):
        g = world(4)
        with pytest.raises(ExecutionError, match=r"in rs_g"):
            if as_dict:
                vals = {r: np.zeros(6, np.float32) for r in g}
                reducescatter_reference(
                    vals, g, "+", 0, np.float32, context="rs_g"
                )
            else:
                vals = np.zeros((4, 6), np.float32)
                C.reducescatter_vectorized(
                    vals, g, "+", 0, np.float32, context="rs_g"
                )


class TestDowncastPolicy:
    """``place_input`` polices value-changing lossy downcasts."""

    def _tensor(self, dtype=FP16):
        return Tensor(dtype, (8,), Replicated, world(2), name="p")

    def test_default_warns_on_lossy_fp16(self):
        with pytest.warns(RuntimeWarning, match="lossy downcast"):
            place_input(self._tensor(), np.random.RandomState(0).randn(8))

    def test_false_raises(self):
        with pytest.raises(ExecutionError, match="lossy downcast"):
            place_input(
                self._tensor(),
                np.random.RandomState(0).randn(8),
                allow_downcast=False,
            )

    def test_true_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            place_input(
                self._tensor(),
                np.random.RandomState(0).randn(8),
                allow_downcast=True,
            )

    def test_fp32_placement_stays_silent(self):
        # fp64 -> fp32 is the simulator's standard working precision.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            place_input(
                self._tensor(FP32), np.random.RandomState(0).randn(8)
            )

    def test_exactly_representable_values_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            place_input(self._tensor(), np.arange(8, dtype=np.float64))

    def test_checked_cast_is_not_cast_again(self):
        # the lossiness check casts a lossy input already: with
        # cast=False the placed stack is that cast, for the caller to
        # copy, not the float64 value to cast a second time
        from repro.runtime.world import place_inputs

        W = world(2)
        p = Tensor(FP16, (8,), Replicated, W, name="p")
        value = np.random.RandomState(0).randn(8)
        with pytest.warns(RuntimeWarning, match="lossy downcast"):
            placed = place_inputs(
                Execute("p", [p], [p + 0.0]), {"p": value},
                allow_downcast=None, cast=False,
            )
        assert placed["p"].dtype == np.float16
        assert placed["p"].shape == (2, 8)
        np.testing.assert_array_equal(placed["p"][1], value.astype(np.float16))
        # a cast no check computed (float64 -> FP32 is not lossy) stays
        # the caller's to make
        q = Tensor(FP32, (8,), Replicated, W, name="q")
        placed = place_inputs(
            Execute("q", [q], [q + 0.0]), {"q": value}, cast=False
        )
        assert placed["q"].dtype == np.float64

    def test_executor_threads_the_flag(self):
        W = world(2)
        p = Tensor(FP16, (8,), Replicated, W, name="p")
        prog = Execute("p", [p], [p + 0.0])
        with pytest.raises(ExecutionError, match="lossy downcast"):
            Executor().run_lowered(
                prog,
                {"p": np.random.RandomState(0).randn(8)},
                allow_downcast=False,
            )


# Expected values composed rank by rank: each operation computes in
# float64 and rounds to its FP32 result, as every tier does.


def _attention_expected(inputs, n, seed, prob=0.1):
    """Figure 3's ``dropout(AllReduce(in·w) + b) + r``, per rank."""
    g = world(n)
    x, w, b, r = (inputs[k].astype(F32) for k in ("in", "w", "b", "r"))
    partial = {
        rank: np.matmul(
            np.ascontiguousarray(slice_of(x, 2, i, n)),
            np.ascontiguousarray(slice_of(w, 0, i, n)),
        )
        for i, rank in enumerate(g)
    }
    total = allreduce_reference(partial, g, "+", F32)[g.start]
    biased = (total.astype(F64) + b.astype(F64)).astype(F32)
    mask = dropout_mask(seed, prob, biased.shape)
    dropped = (biased.astype(F64) * mask).astype(F32)
    return (dropped.astype(F64) + r.astype(F64)).astype(F32)


def _moe_expected(inputs, n):
    """The MoE expert MLP between two AllToAlls, per rank."""
    g = world(n)
    x, w1, w2 = (inputs[k].astype(F32) for k in ("x", "w1", "w2"))
    disp = alltoall_reference(dict(enumerate(x)), g, 0)
    eo = {
        r: np.matmul(np.maximum(np.matmul(disp[r], w1[r]), 0), w2[r])
        for r in g
    }
    comb = alltoall_reference(eo, g, 0)
    scale = np.asarray(1.0 / n, dtype=F32).astype(F64)
    return np.stack([(comb[r].astype(F64) * scale).astype(F32) for r in g])


def _assert_matches(sched, inputs, expected):
    """run_lowered's output is ``expected``; input tensors are unchanged."""
    program = sched.program if isinstance(sched, Schedule) else sched
    res = Executor().run_lowered(sched, inputs, allow_downcast=True)
    (out,) = program.outputs
    np.testing.assert_array_equal(res.output(out.name), expected)
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                res.tensor_state(t.name),
                np.asarray(inputs[t.name]).astype(t.dtype.to_numpy()),
                err_msg=f"state {t.name}",
            )


class TestExecutorBackendParity:
    """Schedules with no SPMD twin against oracle-composed values."""

    @pytest.fixture
    def rng(self):
        return np.random.RandomState(0xBEEF)

    def test_attention_figure4_chain(self, rng):
        from tests.conftest import attention_inputs, build_attention_program

        inputs = attention_inputs(rng)
        expected = _attention_expected(inputs, 4, seed=42)
        prog, h = build_attention_program()
        _assert_matches(prog, inputs, expected)
        prog2, h2 = build_attention_program()
        sched = Schedule(prog2)
        rs, ag = sched.split(h2["allreduce"])
        results = sched.reorder(ag, h2["sum_b"], h2["drop"], h2["out"])
        sched.fuse(rs, *results, policy=AllReduceFuse)
        _assert_matches(sched, inputs, expected)

    def test_moe_all_schedules(self, rng):
        # TestSpmdParity runs the hierarchical split at node size 2 only
        from repro.workloads.moe import MoEWorkload

        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        expected = _moe_expected(inputs, 4)
        _assert_matches(wl.program, inputs, expected)
        for sched in wl.schedules().values():
            _assert_matches(sched, inputs, expected)
        for node_size in (1, 2, 4):
            _assert_matches(
                wl.schedule_hierarchical(node_size=node_size), inputs,
                expected,
            )

    def test_tuned_schedules_parity(self, rng):
        # every candidate the autotuner enumerated, not only the sample
        # TestSpmdParity launches
        from repro.cluster import Cluster
        from repro.core.autotuner import Autotuner
        from repro.workloads.attention import AttentionWorkload

        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        inputs = {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        }
        expected = _attention_expected(inputs, 4, seed=6)
        for cand in result.candidates:
            _assert_matches(cand.schedule, inputs, expected)

    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([2, 4]),
        per=st.sampled_from([2, 3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_allreduce_chain_parity(self, seed, n, per):
        from repro.core import Dropout, ReLU, Sqrt, Tanh
        from repro.core.ops import Binary

        rng = np.random.RandomState(seed)
        W = world(n)
        N = n * per
        kinds = [
            ["+", "*", "relu", "tanh", "drop", "sqrtabs"][rng.randint(6)]
            for _ in range(rng.randint(1, 5))
        ]
        inputs = {"g": rng.randn(n, N), "r": rng.randn(N)}
        r64 = inputs["r"].astype(F32).astype(F64)
        g = Tensor(FP32, (N,), Local, W, RANK, name="g")
        r = Tensor(FP32, (N,), Replicated, W, name="r")
        cur = AllReduce("+", g, name="ar")
        want = allreduce_reference(
            dict(enumerate(inputs["g"].astype(F32))), W, "+", F32
        )[0]
        for i, kind in enumerate(kinds):
            x = want.astype(F64)
            if kind in ("+", "*"):
                cur = Binary(kind, cur, r, name=f"b{i}")
                want = x + r64 if kind == "+" else x * r64
            elif kind == "relu":
                cur = ReLU(cur)
                want = np.maximum(want, 0)
            elif kind == "tanh":
                cur = Tanh(cur)
                want = np.tanh(x)
            elif kind == "drop":
                cur = Dropout(cur, 0.3, seed=seed + i, name=f"d{i}")
                want = x * dropout_mask(seed + i, 0.3, (N,))
            else:
                cur = Sqrt(Binary("*", cur, cur, name=f"sq{i}"))
                want = np.sqrt((x * x).astype(F32).astype(F64))
            want = np.asarray(want).astype(F32)
        prog = Execute("rand", [g, r], [cur])
        _assert_matches(prog, inputs, want)
