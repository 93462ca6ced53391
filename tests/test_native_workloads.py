"""The paper's LAMB, pipeline and attention schedules on the native
target, digest for digest against ``run_lowered``.

Each schedule is generated with ``CodeGenerator(target="native")`` and
launched on one ``RankPool`` shared by the whole module, so the rank
processes start fresh per launch but the segments are kept. The LAMB
cases cover its cross-rank and local norms (at 2 and 4 ranks, and with
a parameter of signed zeros only), the pipeline cases its P2P sends
between two groups, and attention's ``CoCoNet`` schedule the ring GEMM
overlap, whose producer stream publishes the GEMM's chunks. Two more
run on the pointer plane only: a ring overlap whose consumer is an
AllReduce, and sums and norms of sliced and replicated values.
"""

import numpy as np
import pytest

from repro.cli import _digest, _seeded_inputs
from repro.core.codegen import CodeGenerator, native
from repro.runtime import Executor
from repro.runtime.spmd import RankPool
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.pipeline import PipelineWorkload

pytestmark = pytest.mark.skipif(
    not native.available(), reason="no C compiler on PATH"
)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """One rank pool, on a kernel cache of the module's own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "REPRO_KERNEL_CACHE", str(tmp_path_factory.mktemp("kernels"))
        )
        with RankPool() as rank_pool:
            yield rank_pool


def _assert_native_is_lowered(pool, sched, inputs):
    """Launch ``sched``'s native module; returns the ranks' kinds."""
    gen = CodeGenerator(target="native").generate(sched)
    got = pool.launch(gen, inputs, allow_downcast=True, timeout=60.0)
    with np.errstate(all="ignore"):
        low = Executor().run_lowered(sched, inputs, allow_downcast=True)
    assert _digest(got) == _digest(low)
    return set(got.spmd_rank_kinds.values())


@pytest.mark.parametrize("ranks", [2, 4])
@pytest.mark.parametrize("name", ["AR-LAMB", "RS-LAMB-AG", "fuse(RS-LAMB-AG)"])
def test_lamb(pool, name, ranks):
    sched = LambWorkload.build(4096, ranks).schedules()[name]
    _assert_native_is_lowered(
        pool, sched, _seeded_inputs(sched.program, seed=ranks)
    )


@pytest.mark.parametrize("name", ["AR-LAMB", "fuse(RS-LAMB-AG)"])
def test_lamb_with_signed_zero_parameters(pool, name):
    # every square of p is +0.0, and so is every partial of its norm
    sched = LambWorkload.build(1000, 2).schedules()[name]
    inputs = _seeded_inputs(sched.program, seed=7)
    inputs["p"] = np.full_like(inputs["p"], -0.0)
    _assert_native_is_lowered(pool, sched, inputs)


@pytest.mark.parametrize("name", ["MegatronLM", "GShard-Eq", "CoCoNet"])
def test_pipeline(pool, name):
    sched = PipelineWorkload.build(4, 8, 32, 4).schedules()[name]
    _assert_native_is_lowered(
        pool, sched, _seeded_inputs(sched.program, seed=1)
    )


def test_attention_ring_overlap(pool):
    sched = AttentionWorkload.build(2, 16, 64, 2).schedule_coconet()
    (loop,) = sched.lowered().chunk_loops()
    assert loop.ring
    _assert_native_is_lowered(
        pool, sched, _seeded_inputs(sched.program, seed=2)
    )


def test_gemm_allreduce_ring_overlap(pool):
    # the ring's consumer is an AllReduce folding every chunk's runs
    from repro.core import (
        FP32, RANK, AllReduce, Binary, Execute, MatMul, Replicated, Sliced,
        Tensor, world,
    )
    from repro.core.transforms import Schedule

    W = world(2)
    w = Tensor(FP32, (64, 64), Sliced(0), W, RANK, name="w")
    x = Tensor(FP32, (4, 8, 64), Sliced(2), W, RANK, name="x")
    b = Tensor(FP32, (64,), Replicated, W, name="b")
    mm = MatMul(x, w, name="mm")
    ar = AllReduce("+", mm, name="ar")
    sched = Schedule(Execute("ring", [w, x, b], [Binary("+", ar, b)]))
    sched.overlap(mm, ar)
    (loop,) = sched.lowered().chunk_loops()
    assert loop.ring
    assert _assert_native_is_lowered(
        pool, sched, _seeded_inputs(sched.program, seed=3)
    ) == {("pointer", False)}


@pytest.mark.parametrize("dtype", ["FP16", "FP32"])
def test_sums_local_and_across_ranks(pool, dtype):
    # a ReduceTensor("+") and a Norm of a sliced value (partials
    # gathered across ranks) and of a replicated one (local)
    from repro.core import (
        RANK, Execute, Norm, ReduceTensor, Replicated, Sliced, Tensor,
        dtypes, world,
    )

    dt = getattr(dtypes, dtype)
    W = world(4)
    s = Tensor(dt, (1000, 3), Sliced(0), W, RANK, name="s")
    r = Tensor(dt, (129,), Replicated, W, name="r")
    outs = [Norm(s), ReduceTensor("+", s), Norm(r), ReduceTensor("+", r)]
    program = Execute("sums", [s, r], outs)
    inputs = _seeded_inputs(program, seed=4)
    inputs["s"] = inputs["s"] - 0.06  # signs of both kinds
    assert _assert_native_is_lowered(pool, program, inputs) == {
        ("pointer", False)
    }
