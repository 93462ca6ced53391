"""AllToAll: reference collective, move lists, cost model, and the
split / reorder / fuse / overlap transformations applied to it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import (
    FP16,
    FP32,
    RANK,
    AllToAll,
    AllToAllPhase,
    Binary,
    Const,
    Dropout,
    Execute,
    Local,
    MatMul,
    Replicated,
    Sliced,
    Tensor,
    Unary,
    world,
)
from repro.core.codegen import CodeGenerator, native
from repro.core.layout import exchange_chunk_shape
from repro.core.process_group import ProcessGroup
from repro.core.transforms import (
    A2ASplitHierarchical,
    AllToAllFuse,
    ARSplitRSAG,
    Schedule,
)
from repro.errors import LayoutError, ShapeError, TransformError
from repro.nccl import (
    LL,
    LL128,
    SIMPLE,
    build_ring,
    choose_config,
    collective_time,
)
from repro.nccl.algorithms import num_steps
from repro.nccl.cost_model import (
    CALL_SETUP_OVERHEAD,
    IMPLEMENTATION_EFFICIENCY,
    PER_CHANNEL_BANDWIDTH,
    p2p_time,
)
from repro.runtime import Executor
from repro.runtime.collectives import alltoall_moves
from repro.runtime.world import slice_of
from tests import collective_oracle as oracle
from tests.collective_pool import CollectivePool, pointer_alltoall


@pytest.fixture
def rng():
    return np.random.RandomState(0xA2A)


def _values(rng, n, shape):
    return {r: rng.randn(*shape).astype(np.float32) for r in range(n)}


class TestReferenceCollective:
    def test_chunk_routing(self):
        # rank i's output block j is source j's chunk i
        n = 4
        vals = {
            r: np.arange(n * 2, dtype=np.float32) + 100 * r for r in range(n)
        }
        out = oracle.alltoall_reference(vals, world(n), 0)
        for i in range(n):
            for j in range(n):
                np.testing.assert_array_equal(
                    out[i][j * 2 : (j + 1) * 2],
                    vals[j][i * 2 : (i + 1) * 2],
                )

    def test_involution_when_chunks_equal_ranks(self, rng):
        # dispatch followed by combine restores token ownership
        n = 4
        vals = _values(rng, n, (n, 3))
        once = oracle.alltoall_reference(vals, world(n), 0)
        twice = oracle.alltoall_reference(once, world(n), 0)
        for r in range(n):
            np.testing.assert_array_equal(twice[r], vals[r])

    def test_single_rank_is_identity(self, rng):
        vals = _values(rng, 1, (4,))
        out = oracle.alltoall_reference(vals, world(1), 0)
        np.testing.assert_array_equal(out[0], vals[0])

    def test_along_inner_dim(self, rng):
        n = 2
        vals = _values(rng, n, (3, 2 * n))
        out = oracle.alltoall_reference(vals, world(n), 1)
        np.testing.assert_array_equal(out[0][:, :2], vals[0][:, :2])
        np.testing.assert_array_equal(out[0][:, 2:], vals[1][:, :2])

    def test_subgroup(self, rng):
        g = ProcessGroup(4, 4, 8)
        vals = {r: rng.randn(8).astype(np.float32) for r in g}
        out = oracle.alltoall_reference(vals, g, 0)
        assert set(out) == set(g.ranks)
        np.testing.assert_array_equal(out[5][2:4], vals[5][2:4])

    def test_total_content_preserved(self, rng):
        n = 4
        vals = _values(rng, n, (n * 2, 3))
        out = oracle.alltoall_reference(vals, world(n), 0)
        before = np.sort(np.concatenate([vals[r].ravel() for r in range(n)]))
        after = np.sort(np.concatenate([out[r].ravel() for r in range(n)]))
        np.testing.assert_array_equal(before, after)


def _replay(values, n, dim, phase=None, node_size=None):
    """Every rank's output, built one chunk copy at a time from its
    moves alone."""
    out = {}
    for i in range(n):
        chunks = {
            d: slice_of(values[p], dim, s, n)
            for p, s, d in alltoall_moves(world(n), i, phase, node_size)
        }
        out[i] = np.concatenate([chunks[d] for d in range(n)], axis=dim)
    return out


class TestStepSimulatorEquivalence:
    """Replaying each rank's moves, one chunk copy at a time, matches
    the per-rank reference across world sizes and uneven chunk shapes."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize(
        "shape_fn",
        [
            lambda n: (n, 5),          # one chunk row per rank
            lambda n: (3 * n, 7),      # odd trailing extent
            lambda n: (n * 2, 3, 2),   # 3-d buffer
            lambda n: (n * 5,),        # flat, odd chunk count
        ],
    )
    def test_matches_reference(self, rng, n, shape_fn):
        shape = shape_fn(n)
        vals = _values(rng, n, shape)
        ref = oracle.alltoall_reference(vals, world(n), 0)
        sim = _replay(vals, n, 0)
        for r in range(n):
            np.testing.assert_array_equal(ref[r], sim[r])

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_reference_inner_dim(self, rng, n):
        vals = _values(rng, n, (3, 2 * n))
        ref = oracle.alltoall_reference(vals, world(n), 1)
        sim = _replay(vals, n, 1)
        for r in range(n):
            np.testing.assert_array_equal(ref[r], sim[r])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            alltoall_moves(world(4), 0, "intra", 3)
        with pytest.raises(ValueError):
            alltoall_moves(world(4), 0, "diagonal", 2)

    @given(n=st.integers(2, 8), per=st.integers(1, 4), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, n, per, seed):
        r = np.random.RandomState(seed)
        vals = {i: r.randn(n * per).astype(np.float32) for i in range(n)}
        ref = oracle.alltoall_reference(vals, world(n), 0)
        sim = _replay(vals, n, 0)
        for i in range(n):
            np.testing.assert_array_equal(ref[i], sim[i])


class TestStepSchedule:
    """The flat moves in drain order: step ``t`` of rank ``i`` copies
    from rank ``(i - t) mod n``, step 0 being the rank's own chunk."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_counts(self, n):
        for i in range(n):
            assert len(alltoall_moves(world(n), i)) == n
        # every move but the own chunk is one wire step
        assert num_steps("alltoall", n) == n - 1

    def test_one_send_per_rank_per_step(self):
        n = 4
        moves = [alltoall_moves(world(n), i) for i in range(n)]
        for t in range(n):
            senders = [moves[i][t][0] for i in range(n)]
            assert sorted(senders) == list(range(n))

    def test_every_chunk_delivered_once(self):
        n = 5
        delivered = [
            (p, i) for i in range(n)
            for p, _, _ in alltoall_moves(world(n), i)
        ]
        assert sorted(delivered) == [
            (i, j) for i in range(n) for j in range(n)
        ]

    def test_chunk_is_destination_index(self):
        for i in range(6):
            for p, s, d in alltoall_moves(world(6), i):
                assert s == i and d == p


#: (n, node size, phase) for n in {1, 2, 3, 4, 6, 8}: the flat exchange
#: once, each hierarchical phase at every divisor node size
MOVE_CASES = [
    (n, m, phase)
    for n in (1, 2, 3, 4, 6, 8)
    for m, phase in [(None, None)] + [
        (m, phase)
        for m in range(1, n + 1) if n % m == 0
        for phase in ("intra", "inter")
    ]
]


class TestMoveLists:
    """Properties of :func:`alltoall_moves` over every rank count, node
    size and phase."""

    @pytest.mark.parametrize("n,m,phase", MOVE_CASES)
    def test_moves_are_a_bijection(self, n, m, phase):
        # every (source rank, source chunk) lands in exactly one
        # (destination rank, destination chunk)
        route = {}
        for i in range(n):
            for p, s, d in alltoall_moves(world(n), i, phase, m):
                assert (p, s) not in route
                route[(p, s)] = (i, d)
        grid = sorted((r, c) for r in range(n) for c in range(n))
        assert sorted(route) == grid
        assert sorted(route.values()) == grid

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_flat_drains_own_chunk_then_descending_peers(self, n):
        for i in range(n):
            assert alltoall_moves(world(n), i) == [
                ((i - t) % n, i, (i - t) % n) for t in range(n)
            ]

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n, m, phase in MOVE_CASES if phase == "inter"]
    )
    def test_inter_after_intra_is_flat(self, n, m):
        def origin(phase, i):
            # destination chunk -> (source rank, source chunk)
            return {
                d: (p, s)
                for p, s, d in alltoall_moves(world(n), i, phase, m)
            }

        intra = [origin("intra", i) for i in range(n)]
        flat = [origin(None, i) for i in range(n)]
        for i in range(n):
            composed = {
                d: intra[p][s] for d, (p, s) in origin("inter", i).items()
            }
            assert composed == flat[i]


class TestHierarchicalPhases:
    @pytest.mark.parametrize("n,m", [(4, 2), (8, 2), (8, 4), (8, 8), (4, 4)])
    def test_composition_equals_flat(self, rng, n, m):
        vals = _values(rng, n, (n * 2, 3))
        flat = oracle.alltoall_reference(vals, world(n), 0)
        intra = oracle.alltoall_intra_reference(vals, world(n), 0, m)
        inter = oracle.alltoall_inter_reference(intra, world(n), 0, m)
        for r in range(n):
            np.testing.assert_array_equal(flat[r], inter[r])

    def test_single_node_inter_is_identity_permutation(self, rng):
        # with one node the inter phase has nothing to exchange
        n = 4
        vals = _values(rng, n, (n,))
        intra = oracle.alltoall_intra_reference(vals, world(n), 0, n)
        flat = oracle.alltoall_reference(vals, world(n), 0)
        for r in range(n):
            np.testing.assert_array_equal(intra[r], flat[r])

    def test_indivisible_node_size_raises(self, rng):
        vals = _values(rng, 4, (4,))
        with pytest.raises(ValueError):
            oracle.alltoall_intra_reference(vals, world(4), 0, 3)


class TestOpConstruction:
    def test_basic(self):
        W = world(4)
        x = Tensor(FP16, (8, 3), Local, W, RANK, name="x")
        a = AllToAll(x, 0)
        assert a.layout.is_local
        assert a.shape == x.shape
        assert a.comm_kind == "alltoall"
        assert a.dim == 0

    def test_negative_dim_normalized(self):
        W = world(4)
        x = Tensor(FP16, (3, 8), Local, W, RANK, name="x")
        assert AllToAll(x, -1).dim == 1

    def test_replicated_input_rejected(self):
        W = world(4)
        x = Tensor(FP16, (8,), Replicated, W, name="x")
        with pytest.raises(LayoutError):
            AllToAll(x, 0)

    def test_sliced_input_rejected(self):
        W = world(4)
        x = Tensor(FP16, (8,), Sliced(0), W, RANK, name="x")
        with pytest.raises(LayoutError):
            AllToAll(x, 0)

    def test_indivisible_dim_rejected(self):
        W = world(4)
        x = Tensor(FP16, (6,), Local, W, RANK, name="x")
        with pytest.raises(ShapeError):
            AllToAll(x, 0)

    def test_phase_validation(self):
        W = world(4)
        x = Tensor(FP16, (8,), Local, W, RANK, name="x")
        with pytest.raises(ValueError):
            AllToAllPhase(x, 0, "diagonal", 2)
        with pytest.raises(LayoutError):
            AllToAllPhase(x, 0, "intra", 3)
        with pytest.raises(LayoutError):
            AllToAllPhase(x, 0, "intra", 0)
        p = AllToAllPhase(x, 0, "inter", 2)
        assert p.comm_kind == "alltoall_inter"
        # an oversized node size clamps to the group: one-level exchange
        assert AllToAllPhase(x, 0, "intra", 16).node_size == 4

    def test_exchange_chunk_shape(self):
        assert exchange_chunk_shape((8, 3), 0, 4) == (2, 3)
        with pytest.raises(LayoutError):
            exchange_chunk_shape((6, 3), 0, 4)

    def test_pretty_render(self):
        W = world(4)
        x = Tensor(FP16, (8,), Local, W, RANK, name="x")
        a = AllToAll(x, 0, name="exchange")
        prog = Execute("p", [x], [a])
        assert "AllToAll(x, dim=0)" in prog.pretty()


def _exchange_program(n=4, dtype=FP32, c_able=False):
    """``tanh(AllToAll(x) * 0.5)``; ``c_able`` replaces the ``tanh``,
    which has no C loop, by ``+`` with itself."""
    W = world(n)
    x = Tensor(dtype, (n * 2, 3), Local, W, RANK, name="x")
    a2a = AllToAll(x, 0, name="exchange")
    scaled = Binary("*", a2a, Const(0.5, W, dtype), name="scaled")
    if c_able:
        shifted = Binary("+", scaled, scaled, name="shifted")
    else:
        shifted = Unary("tanh", scaled, name="shifted")
    prog = Execute("ex", [x], [shifted])
    return prog, x, a2a, scaled, shifted


def exchange_schedules(n=4, dtype=FP32, c_able=False):
    """The exchange program as library, fused and hierarchical schedules.

    ``tests/test_spmd.py`` runs each on real rank processes against the
    lowered interpreter.
    """
    library = Schedule(_exchange_program(n, dtype, c_able)[0])
    prog, _, a2a, scaled, shifted = _exchange_program(n, dtype, c_able)
    fused = Schedule(prog)
    fused.fuse(*fused.reorder(a2a, scaled, shifted), policy=AllToAllFuse)
    prog, _, a2a, _, _ = _exchange_program(n, dtype, c_able)
    hierarchical = Schedule(prog)
    hierarchical.split(a2a, A2ASplitHierarchical, node_size=2)
    return {"library": library, "fused": fused, "hierarchical": hierarchical}


class TestTransforms:
    def test_split_equivalence(self, rng):
        prog, x, a2a, _, _ = _exchange_program()
        inputs = {"x": rng.randn(4, 8, 3)}
        ref = Executor().run_lowered(prog, inputs).output("shifted")
        sched = Schedule(prog)
        intra, inter = sched.split(a2a, A2ASplitHierarchical, node_size=2)
        assert intra.phase == "intra" and inter.phase == "inter"
        got = Executor().run_lowered(sched.program, inputs).output("shifted")
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_split_records_step(self):
        prog, _, a2a, _, _ = _exchange_program()
        sched = Schedule(prog)
        sched.split(a2a, A2ASplitHierarchical, node_size=2)
        assert "A2ASplitHierarchical" in sched.describe()

    def test_split_wrong_policy_rejected(self):
        prog, _, a2a, _, _ = _exchange_program()
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.split(a2a, ARSplitRSAG)

    def test_ar_split_policy_on_allreduce_still_works(self):
        from repro.core import AllReduce

        W = world(4)
        g = Tensor(FP32, (8,), Local, W, RANK, name="g")
        ar = AllReduce("+", g, name="ar")
        prog = Execute("p", [g], [ar])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.split(ar, A2ASplitHierarchical)

    def test_split_rejects_fused_exchange(self):
        # splitting a fused exchange would strand the intra phase
        # outside the block
        prog, x, a2a, scaled, shifted = _exchange_program()
        sched = Schedule(prog)
        results = sched.reorder(a2a, scaled, shifted)
        block = sched.fuse(*results, policy=AllToAllFuse)
        fused_a2a = next(m for m in block.members if isinstance(m, AllToAll))
        with pytest.raises(TransformError):
            sched.split(fused_a2a, A2ASplitHierarchical, node_size=2)

    def test_multinode_search_never_splits_a_fused_exchange(self):
        # the 4-node search must not reach the invalid state where a
        # fused exchange is split (intra phase stranded outside the
        # block); every candidate's plan must remain derivable
        from repro.core.autotuner import Autotuner
        from repro.workloads.moe import MoEWorkload

        result = Autotuner(Cluster(4)).tune(
            MoEWorkload.build(2, 4, 8, world_size=64, dtype=FP32).program
        )
        for c in result.candidates:
            assert c.schedule.plan().kernels  # plan derivable
            fused = {m[1] for m in c.moves if m[0] == "a2afuse"}
            split = {m[1] for m in c.moves if m[0] == "a2asplit"}
            assert not (fused & split), c.name

    def test_reorder_equivalence(self, rng):
        prog, x, a2a, scaled, shifted = _exchange_program()
        inputs = {"x": rng.randn(4, 8, 3)}
        ref = Executor().run_lowered(prog, inputs).output("shifted")
        sched = Schedule(prog)
        results = sched.reorder(a2a, scaled, shifted)
        # computations moved before the exchange; one new AllToAll
        new_ops = sched.program.operations
        kinds = [type(e).__name__ for e in new_ops]
        assert kinds.index("Binary") < kinds.index("AllToAll")
        out_name = sched.program.outputs[0].name
        got = Executor().run_lowered(sched.program, inputs).output(out_name)
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_reorder_rejects_positioned_partner(self):
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        y = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="y")
        a2a = AllToAll(x, 0, name="exchange")
        out = Binary("+", a2a, y, name="out")
        prog = Execute("p", [x, y], [out])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.reorder(a2a, out)

    def test_reorder_rejects_rank_growing_partner(self):
        # a broadcast partner that grows the output rank would shift
        # the exchanged axis; the transform must refuse rather than
        # rebuild an AllToAll over the wrong dimension
        n = 4
        W = world(n)
        x = Tensor(FP32, (n, 8), Local, W, RANK, name="x")
        b = Tensor(FP32, (2, 1, 1), Replicated, W, name="b")
        a2a = AllToAll(x, 1, name="exchange")
        out = Binary("*", a2a, b, name="out")
        prog = Execute("p", [x, b], [out])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.reorder(a2a, out)

    def test_reorder_rejects_fused_exchange(self):
        # moving an AllToAll out of a fused block would leave the block
        # without its communication op
        prog, x, a2a, scaled, shifted = _exchange_program()
        sched = Schedule(prog)
        results = sched.reorder(a2a, scaled, shifted)
        block = sched.fuse(*results, policy=AllToAllFuse)
        fused_a2a = next(m for m in block.members if isinstance(m, AllToAll))
        with pytest.raises(TransformError):
            sched.reorder(fused_a2a)

    def test_reorder_rejects_unrelated_region_op(self, rng):
        # an op that never consumes the exchange must not be wrapped in
        # a spurious AllToAll (it would permute unrelated values)
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        y = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="y")
        a2a = AllToAll(x, 0, name="exchange")
        out = Binary("*", a2a, Const(0.5, W, FP32), name="out")
        unrel = Unary("tanh", y, name="unrel")
        prog = Execute("p", [x, y], [out, unrel])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.reorder(a2a, out, unrel)

    def test_autotuner_survives_fuse_then_reorder_program(self):
        # x -> ReLU -> AllToAll -> scale: the search must not crash when
        # a2afuse runs before a2areorder would (the move is simply not
        # offered for a fused exchange)
        from repro.core.autotuner import Autotuner

        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        act = Unary("relu", x, name="act")
        a2a = AllToAll(act, 0, name="exchange")
        out = Binary("*", a2a, Const(0.5, W, FP32), name="out")
        prog = Execute("p", [x], [out])
        result = Autotuner(Cluster(1)).tune(prog)
        assert result.candidates

    def test_reorder_rejects_per_rank_scalar_partner(self):
        # Norm of a Local tensor is 0-d but differs per rank: moving it
        # across the exchange would scale chunks by the source rank's
        # norm instead of the destination's
        from repro.core import Norm

        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        y = Tensor(FP32, (5,), Local, W, RANK, name="y")
        a2a = AllToAll(x, 0, name="exchange")
        out = Binary("*", a2a, Norm(y, name="nrm"), name="out")
        prog = Execute("p", [x, y], [out])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.reorder(a2a, out)

    def test_reorder_allows_replicated_scalar_partner(self, rng):
        # ...but a replicated 0-d value is the same everywhere: commutes
        from repro.core import Scalar

        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        s = Scalar(FP32, name="s", group=W)
        a2a = AllToAll(x, 0, name="exchange")
        out = Binary("*", a2a, s, name="out")
        prog = Execute("p", [x, s], [out])
        inputs = {"x": rng.randn(n, n * 2, 3), "s": 0.5}
        ref = Executor().run_lowered(prog, inputs).output("out")
        sched = Schedule(prog)
        sched.reorder(a2a, out)
        out_name = sched.program.outputs[0].name
        got = Executor().run_lowered(sched.program, inputs).output(out_name)
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_reorder_rejects_dropout(self):
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        a2a = AllToAll(x, 0, name="exchange")
        d = Dropout(a2a, 0.5, name="drop")
        prog = Execute("p", [x], [d])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.reorder(a2a, d)

    def test_reorder_allows_bias_off_exchange_dim(self, rng):
        # a replicated bias broadcast along the non-exchanged dim commutes
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        b = Tensor(FP32, (3,), Replicated, W, name="b")
        a2a = AllToAll(x, 0, name="exchange")
        out = Binary("+", a2a, b, name="out")
        prog = Execute("p", [x, b], [out])
        inputs = {"x": rng.randn(n, n * 2, 3), "b": rng.randn(3)}
        ref = Executor().run_lowered(prog, inputs).output("out")
        sched = Schedule(prog)
        sched.reorder(a2a, out)
        out_name = sched.program.outputs[0].name
        got = Executor().run_lowered(sched.program, inputs).output(out_name)
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_fuse_policy(self):
        prog, x, a2a, scaled, shifted = _exchange_program()
        sched = Schedule(prog)
        results = sched.reorder(a2a, scaled, shifted)
        new_a2a = results[-1]
        block = sched.fuse(*results, policy=AllToAllFuse)
        plan = sched.plan()
        assert plan.num_launches == 1
        assert plan.kernels[0].kind.value == "fused_collective"

    def test_fuse_rejects_two_exchanges(self):
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        a = AllToAll(x, 0, name="a")
        b = AllToAll(a, 0, name="b")
        prog = Execute("p", [x], [b])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.fuse(a, b, policy=AllToAllFuse)

    def test_fuse_rejects_matmul(self):
        n = 4
        W = world(n)
        x = Tensor(FP32, (n, 8), Local, W, RANK, name="x")
        w = Tensor(FP32, (8, 8), Local, W, RANK, name="w")
        a = AllToAll(x, 0, name="a")
        mm = MatMul(a, w, name="mm")
        prog = Execute("p", [x, w], [mm])
        sched = Schedule(prog)
        with pytest.raises(TransformError):
            sched.fuse(a, mm, policy=AllToAllFuse)

    def test_overlap_chain_with_alltoall(self):
        prog, x, a2a, scaled, shifted = _exchange_program()
        sched = Schedule(prog)
        sched.overlap(a2a, scaled)
        plan = sched.plan()
        assert len(plan.overlap_groups) == 1

    def test_autotuner_reorders_join_region(self, rng):
        # b = ReLU(a2a) + Tanh(a2a): a join must not defeat the region
        # discovery, whatever order the consumers are visited in
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        a2a = AllToAll(x, 0, name="exchange")
        f1 = Unary("relu", a2a, name="f1")
        f2 = Unary("tanh", a2a, name="f2")
        b = Binary("+", f1, f2, name="b")
        prog = Execute("p", [x], [b])
        from repro.core.autotuner import Autotuner

        result = Autotuner(Cluster(1)).tune(prog)
        names = [c.name for c in result.candidates]
        assert any("a2areorder" in nm for nm in names), names
        # and the reordered candidate computes the same numbers
        inputs = {"x": rng.randn(n, n * 2, 3)}
        ref = Executor().run_lowered(prog, inputs).output("b")
        cand = next(
            c for c in result.candidates if "a2areorder" in c.name
        )
        out_name = cand.schedule.program.outputs[0].name
        got = Executor().run_lowered(cand.schedule.program, inputs).output(
            out_name
        )
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_autotuner_reorders_partial_region(self, rng):
        # ReLU(a2a) feeding a MatMul: the non-commuting MatMul bounds
        # the region but must not empty it
        n = 4
        W = world(n)
        x = Tensor(FP32, (n, 8), Local, W, RANK, name="x")
        w = Tensor(FP32, (8, 8), Local, W, RANK, name="w")
        a2a = AllToAll(x, 0, name="exchange")
        act = Unary("relu", a2a, name="act")
        mm = MatMul(act, w, name="mm")
        prog = Execute("p", [x, w], [mm])
        from repro.core.autotuner import Autotuner

        result = Autotuner(Cluster(1)).tune(prog)
        names = [c.name for c in result.candidates]
        assert any("a2areorder" in nm for nm in names), names
        inputs = {"x": rng.randn(n, n, 8), "w": rng.randn(n, 8, 8)}
        ref = Executor().run_lowered(prog, inputs).output("mm")
        cand = next(c for c in result.candidates if "a2areorder" in c.name)
        out_name = cand.schedule.program.outputs[0].name
        got = Executor().run_lowered(cand.schedule.program, inputs).output(
            out_name
        )
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_autotuner_can_fuse_both_exchanges(self, rng):
        # gating scale before dispatch AND averaging before combine:
        # one search path must fuse each exchange with its producer
        n = 4
        W = world(n)
        x = Tensor(FP32, (n * 2, 3), Local, W, RANK, name="x")
        gated = Binary("*", x, Const(0.5, W, FP32), name="gated")
        disp = AllToAll(gated, 0, name="disp")
        scaled = Binary("*", disp, Const(0.25, W, FP32), name="scaled")
        comb = AllToAll(scaled, 0, name="comb")
        prog = Execute("p", [x], [comb])
        from repro.core.autotuner import Autotuner

        result = Autotuner(Cluster(1)).tune(prog)
        assert any(
            c.name.count("a2afuse") == 2 for c in result.candidates
        ), [c.name for c in result.candidates]
        inputs = {"x": rng.randn(n, n * 2, 3)}
        ref = Executor().run_lowered(prog, inputs).output("comb")
        cand = next(
            c for c in result.candidates if c.name.count("a2afuse") == 2
        )
        out_name = cand.schedule.program.outputs[0].name
        got = Executor().run_lowered(cand.schedule.program, inputs).output(
            out_name
        )
        np.testing.assert_allclose(ref, got, rtol=1e-6)

    def test_codegen_library_alltoall(self):
        gen = CodeGenerator().generate(exchange_schedules()["library"])
        assert "comm.alltoall(V['x'], G0_4, 0, context='exchange')" in (
            gen.source
        )

    def test_codegen_fused_and_hierarchical(self):
        schedules = exchange_schedules()
        fused = CodeGenerator().generate(schedules["fused"]).source
        assert "compute rides the exchange" in fused
        assert "comm.alltoall(" in fused
        hier = CodeGenerator().generate(schedules["hierarchical"]).source
        assert "phase='intra', node_size=" in hier
        assert "phase='inter', node_size=" in hier


_pointer_pools = {}


def _pointer_pool(n):
    if n not in _pointer_pools:
        _pointer_pools[n] = CollectivePool(
            n, slot_bytes=1 << 21, timeout=60.0, plane="pointer"
        )
    return _pointer_pools[n]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pointer_pools():
    yield
    while _pointer_pools:
        _pointer_pools.popitem()[1].close()


def _assert_same_bytes(rows, ref):
    for i, row in enumerate(rows):
        assert row.dtype == ref[i].dtype
        assert row.tobytes() == ref[i].tobytes(), i


class TestPointerAllToAll:
    """The pointer plane's AllToAll, ``PointerCommunicator.alltoall``:
    dim-0 chunks copied between addresses by a move table, byte for
    byte the per-rank oracle's, and in a pointer module the lowered
    interpreter's."""

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_flat_and_phases_match_the_oracle(self, n, dtype):
        g = world(n)
        x = (np.random.RandomState(n).randn(n, 2 * n, 3) * 4).astype(dtype)
        vals = dict(enumerate(x))
        pool = _pointer_pool(n)
        flat = pool.call(pointer_alltoall, [(x[i], g) for i in range(n)])
        _assert_same_bytes(flat, oracle.alltoall_reference(vals, g, 0))
        if n == 2:
            return
        intra_ref = oracle.alltoall_intra_reference(vals, g, 0, 2)
        intra = pool.call(
            pointer_alltoall, [(x[i], g, "intra", 2) for i in range(n)]
        )
        _assert_same_bytes(intra, intra_ref)
        inter = pool.call(
            pointer_alltoall,
            [(intra_ref[i], g, "inter", 2) for i in range(n)],
        )
        _assert_same_bytes(
            inter, oracle.alltoall_inter_reference(intra_ref, g, 0, 2)
        )
        _assert_same_bytes(inter, flat)

    def test_huge_page_buffers(self):
        # the 2 MiB operand copy and result take alloc's huge-page path
        g = world(2)
        x = np.random.RandomState(0).randn(2, 4, 1 << 17).astype(np.float32)
        rows = _pointer_pool(2).call(
            pointer_alltoall, [(x[i], g) for i in range(2)]
        )
        ref = oracle.alltoall_reference(dict(enumerate(x)), g, 0)
        _assert_same_bytes(rows, ref)

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    @pytest.mark.parametrize(
        "name, n", [("library", 2), ("fused", 4), ("hierarchical", 4)]
    )
    @pytest.mark.parametrize("dtype", [FP16, FP32])
    def test_pointer_module_matches_run_lowered(
        self, name, n, dtype, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        sched = exchange_schedules(n, dtype, c_able=True)[name]
        gen = CodeGenerator(target="native").generate(sched)
        assert gen.plane == "pointer"
        # a hierarchical exchange is two calls, one move table each
        calls = gen.source.count("comm.alltoall(")
        assert calls == (2 if name == "hierarchical" else 1)
        inputs = {"x": np.random.RandomState(n).randn(n, 2 * n, 3) * 4}
        got = Executor().run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            timeout=60.0,
        )
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
        assert set(got.spmd_rank_kinds.values()) == {("pointer", False)}
        assert got.output_names == low.output_names
        for out in low.output_names:
            assert got.output(out).tobytes() == low.output(out).tobytes()


class TestCostModel:
    @given(
        e1=st.integers(10, 28),
        delta=st.integers(1, 4),
        nodes=st.sampled_from([1, 2, 4]),
        proto=st.sampled_from([LL, LL128, SIMPLE]),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_bytes(self, e1, delta, nodes, proto):
        cluster = Cluster(nodes)
        ring = build_ring(cluster, world(cluster.num_ranks))
        t1 = collective_time("alltoall", 2**e1, cluster, ring, proto, 8)
        t2 = collective_time(
            "alltoall", 2 ** (e1 + delta), cluster, ring, proto, 8
        )
        assert t2 >= t1

    @given(
        e=st.integers(10, 28),
        proto=st.sampled_from([LL, LL128, SIMPLE]),
        phase=st.sampled_from(["alltoall_intra", "alltoall_inter"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_phases_monotone_in_bytes(self, e, proto, phase):
        cluster = Cluster(4)
        ring = build_ring(cluster, world(cluster.num_ranks))
        t1 = collective_time(phase, 2**e, cluster, ring, proto, 8)
        t2 = collective_time(phase, 2 ** (e + 2), cluster, ring, proto, 8)
        assert t2 >= t1

    def test_reduces_to_p2p_at_n2(self):
        """At n=2 the AllToAll is a single pairwise exchange of half the
        buffer: one fabric hop plus half the bytes at fabric bandwidth."""
        cluster = Cluster(1)
        ring = build_ring(cluster, ProcessGroup(0, 2, 16))
        nbytes = 2**24
        channels = 16
        t = collective_time(
            "alltoall", nbytes, cluster, ring, SIMPLE, channels,
            include_setup=False,
        )
        bw = min(
            cluster.node.gpu_fabric_bandwidth,
            channels * PER_CHANNEL_BANDWIDTH,
        ) * SIMPLE.bw_efficiency * IMPLEMENTATION_EFFICIENCY
        expected = SIMPLE.hop_latency_intra + 0.5 * nbytes / bw
        assert t == pytest.approx(expected, rel=1e-9)
        # and it is comparable to a p2p send of half the buffer
        p2p = p2p_time(nbytes // 2, cluster, intra_node=True,
                       include_setup=False)
        assert 0.2 * p2p <= t <= 5 * p2p

    def test_matches_wire_bytes_single_node(self):
        # single node: (n-1)/n of the buffer at fabric bandwidth
        cluster = Cluster(1)
        n = cluster.num_ranks
        ring = build_ring(cluster, world(n))
        nbytes = 2**26
        t = collective_time(
            "alltoall", nbytes, cluster, ring, SIMPLE, 16,
            include_setup=False,
        )
        bw = min(
            cluster.node.gpu_fabric_bandwidth,
            16 * PER_CHANNEL_BANDWIDTH,
        ) * SIMPLE.bw_efficiency * IMPLEMENTATION_EFFICIENCY
        expected = (
            (n - 1) * SIMPLE.hop_latency_intra
            + (n - 1) / n * nbytes / bw
        )
        assert t == pytest.approx(expected, rel=1e-9)

    def test_zero_bytes_costs_setup_only(self):
        cluster = Cluster(1)
        ring = build_ring(cluster, world(16))
        t = collective_time("alltoall", 0, cluster, ring, SIMPLE, 8)
        assert t == pytest.approx(CALL_SETUP_OVERHEAD)

    def test_choose_config_supports_alltoall(self):
        cluster = Cluster(2)
        cfg, t = choose_config(
            "alltoall", 2**20, cluster, world(cluster.num_ranks)
        )
        assert t > 0
        assert cfg.algorithm.value == "ring"

    def test_hierarchical_beats_flat_small_multinode(self):
        # fewer inter-node messages win while latency dominates
        cluster = Cluster(4)
        ring = build_ring(cluster, world(cluster.num_ranks))
        nbytes = 2**18

        def best(kind):
            return min(
                collective_time(kind, nbytes, cluster, ring, p, c)
                for p in (LL, LL128, SIMPLE)
                for c in (8, 16, 32)
            )

        assert best("alltoall_intra") + best("alltoall_inter") < best(
            "alltoall"
        )

    def test_flat_beats_hierarchical_large_multinode(self):
        # the flat exchange moves less data over the fast fabric
        cluster = Cluster(4)
        ring = build_ring(cluster, world(cluster.num_ranks))
        nbytes = 2**30

        def best(kind):
            return min(
                collective_time(kind, nbytes, cluster, ring, p, c)
                for p in (LL, LL128, SIMPLE)
                for c in (8, 16, 32)
            )

        assert best("alltoall") < best("alltoall_intra") + best(
            "alltoall_inter"
        )

    def test_misaligned_hierarchy_gets_no_fabric_discount(self):
        # a group offset across node boundaries cannot realize the
        # intra phase on NVSwitch; it must not undercut the flat price
        cluster = Cluster(2)
        offset = build_ring(cluster, ProcessGroup(8, 16, 32))
        nbytes = 2**24
        flat = collective_time("alltoall", nbytes, cluster, offset, SIMPLE, 16)
        intra = collective_time(
            "alltoall_intra", nbytes, cluster, offset, SIMPLE, 16,
            node_size=16,
        )
        inter = collective_time(
            "alltoall_inter", nbytes, cluster, offset, SIMPLE, 16,
            node_size=16,
        )
        assert intra + inter >= flat

    def test_sub_node_decomposition_priced_as_fabric(self):
        # node_size smaller than the physical node: both phases ride
        # NVSwitch, so the pair costs ~two fabric passes, not NIC rates
        cluster = Cluster(1)
        ring = build_ring(cluster, world(16))
        nbytes = 2**24
        flat = collective_time("alltoall", nbytes, cluster, ring, SIMPLE, 16)
        hier = collective_time(
            "alltoall_intra", nbytes, cluster, ring, SIMPLE, 16, node_size=4
        ) + collective_time(
            "alltoall_inter", nbytes, cluster, ring, SIMPLE, 16, node_size=4
        )
        assert hier < 2.2 * flat  # NIC pricing would be ~10x

    def test_uneven_placement_counts_max_co_resident_senders(self):
        # ranks 12..27 on 16-GPU nodes put 12 ranks on one node: the
        # NIC share must divide by 12, not the ceil-average 8
        cluster = Cluster(4)
        from repro.nccl.cost_model import _ring_node_grid

        ring = build_ring(cluster, ProcessGroup(12, 16, 64))
        k, m = _ring_node_grid(cluster, ring)
        assert (k, m) == (2, 12)

    def test_degenerate_decomposition_never_undercuts_flat_multinode(self):
        # node_size=1 makes intra an identity and inter the flat
        # pairwise exchange, so it cannot be priced faster than flat:
        # NIC shares divide by physical co-residency, not logical m
        cluster = Cluster(2)
        ring = build_ring(cluster, world(32))
        nbytes = 2**24
        flat = collective_time("alltoall", nbytes, cluster, ring, SIMPLE, 16)
        for ns in (1, 2, 8):
            hier = collective_time(
                "alltoall_intra", nbytes, cluster, ring, SIMPLE, 16,
                node_size=ns,
            ) + collective_time(
                "alltoall_inter", nbytes, cluster, ring, SIMPLE, 16,
                node_size=ns,
            )
            assert hier >= 0.95 * flat, ns

    def test_single_node_hierarchy_adds_only_overhead(self):
        cluster = Cluster(1)
        ring = build_ring(cluster, world(16))
        nbytes = 2**22
        flat = collective_time("alltoall", nbytes, cluster, ring, SIMPLE, 8)
        intra = collective_time(
            "alltoall_intra", nbytes, cluster, ring, SIMPLE, 8
        )
        inter = collective_time(
            "alltoall_inter", nbytes, cluster, ring, SIMPLE, 8
        )
        assert inter == pytest.approx(CALL_SETUP_OVERHEAD)
        assert intra + inter == pytest.approx(
            flat + CALL_SETUP_OVERHEAD, rel=1e-6
        )
