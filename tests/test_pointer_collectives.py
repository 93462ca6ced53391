"""The pointer plane's collectives, called directly, byte for byte.

``PointerCommunicator`` runs every pointer module's AllReduce,
ReduceScatter, AllGather and barrier: it copies between addresses and
folds through the program's own C helpers. Here a persistent
``CollectivePool(plane="pointer")`` per world size calls them the way a
pointer module does, on FP16 and FP32 rows holding signed zeros, payload
NaNs, subnormals and FP16's largest finite values, and compares every
result with the per-rank oracle (``tests/collective_oracle.py``) by
``tobytes()``. The helpers are compiled once for the module.

Also here: the box-to-runs helper every collective copies by, against
numpy's own slicing, and a rank dying at the tuned Adam's ReduceScatter.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _seeded_inputs
from repro.core import world
from repro.core.codegen import CodeGenerator, native
from repro.observe import Tracer
from repro.observe.events import InstantEvent
from repro.runtime import Executor, FaultPlan, SpmdWorkerError
from repro.runtime.rank import box_runs
from repro.workloads.adam import AdamWorkload
from tests import collective_oracle as oracle
from tests.collective_pool import (
    CollectivePool,
    bind_kernels,
    pointer_allgather,
    pointer_fold,
)
from tests.spmd_leaks import children, spmd_segments

needs_cc = pytest.mark.skipif(
    not native.available(), reason="no C compiler"
)

RANK_COUNTS = (2, 4)
DTYPES = (np.float16, np.float32)

#: per dtype, the values every rank's row starts with (rolled per rank):
#: signed zeros, FP16's largest finite values and a sum that overflows
#: them, FP16 subnormals and its smallest normal, infinities, then an
#: FP32 subnormal (zero in FP16) and plain numbers
_SPECIAL = np.array([
    0.0, -0.0, 65504.0, -65504.0, 60000.0, 2.0 ** -24, -(2.0 ** -24),
    3 * 2.0 ** -24, 2.0 ** -14, np.inf, -np.inf, 2.0 ** -149, 1.0, -1.0,
    0.5, 3.0,
])


def _quiet_nans(dtype, count, seed) -> np.ndarray:
    """``count`` quiet NaNs of ``dtype`` with random payloads and signs."""
    bits, mant = {np.float16: (np.uint16, 10), np.float32: (np.uint32, 23)}[
        dtype
    ]
    width = np.dtype(bits).itemsize * 8
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 1 << (mant - 1), count, dtype=np.uint64)
    quiet = (1 << (width - 1 - mant)) - 1 << mant | 1 << (mant - 1)
    sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(width - 1)
    return (sign | np.uint64(quiet) | payload).astype(bits).view(dtype)


def _rows(n: int, dtype, seed: int, shape) -> np.ndarray:
    """One row of ``shape`` per rank: the special values rolled by rank,
    three payload NaNs at positions no other rank has a NaN at (no tier
    promises which of two NaNs survives), then normals large enough
    that FP16 sums overflow."""
    rng = np.random.RandomState(seed)
    size = int(np.prod(shape))
    rows = []
    for r in range(n):
        with np.errstate(over="ignore"):
            row = (rng.randn(size) * 3e4).astype(dtype)
            row[: len(_SPECIAL)] = np.roll(_SPECIAL, r).astype(dtype)
        at = len(_SPECIAL) + 3 * r
        row[at : at + 3] = _quiet_nans(dtype, 3, seed + r)
        rows.append(row.reshape(shape))
    return np.stack(rows)


def _assert_same_bytes(rows, ref):
    for i, row in enumerate(rows):
        assert row.dtype == ref[i].dtype and row.shape == ref[i].shape
        assert row.tobytes() == ref[i].tobytes(), i


@pytest.fixture(scope="module")
def kernels(tmp_path_factory):
    """Every fold helper of FP16 and FP32, compiled once: ``(key, path,
    functions)`` of the kernel object, and the helper names by
    ``(op, dtype)``."""
    if not native.available():
        pytest.skip("no C compiler")
    names, helpers = {}, []
    for op, (kind, _, _) in native.FOLDS.items():
        for dtype in DTYPES:
            dt = np.dtype(dtype).name
            short = native._SHORT[dt]
            name = names[op, dtype] = f"fold_{kind}_{short}_{short}"
            helpers.append(native._fold_source(name, op, dt, dt))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "REPRO_KERNEL_CACHE", str(tmp_path_factory.mktemp("kernels"))
        )
        k = native.load_kernels(
            native.PRELUDE + native.FOLD_NAN + "".join(helpers)
        )
    return (k.key, k.path, k.functions), names


@pytest.fixture(scope="module")
def pools(kernels):
    """One pointer-plane pool per world size, its ranks' kernels bound."""
    made = {}
    try:
        for n in RANK_COUNTS:
            made[n] = CollectivePool(
                n, slot_bytes=1 << 16, timeout=60.0, plane="pointer"
            )
            made[n].call(bind_kernels, [kernels[0]] * n)
        yield made
    finally:
        for p in made.values():
            p.close()


@needs_cc
class TestPointerFolds:
    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", sorted(native.FOLDS))
    def test_allreduce(self, pools, kernels, n, dtype, op):
        g = world(n)
        x = _rows(n, dtype, 7 * n, (4 * n, 5))
        with np.errstate(all="ignore"):
            ref = oracle.allreduce_reference(dict(enumerate(x)), g, op, dtype)
        fold = kernels[1][op, dtype]
        rows = pools[n].call(
            pointer_fold,
            [(x[i], g, "allreduce", fold, dtype) for i in range(n)],
        )
        _assert_same_bytes(rows, ref)

    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", sorted(native.FOLDS))
    def test_reducescatter(self, pools, kernels, n, dtype, op):
        g = world(n)
        x = _rows(n, dtype, 11 * n, (4 * n, 5))
        with np.errstate(all="ignore"):
            ref = oracle.reducescatter_reference(
                dict(enumerate(x)), g, op, 0, dtype
            )
        fold = kernels[1][op, dtype]
        rows = pools[n].call(
            pointer_fold,
            [(x[i], g, "reducescatter", fold, dtype) for i in range(n)],
        )
        _assert_same_bytes(rows, ref)


@needs_cc
class TestPointerDataMovement:
    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("own_row", [False, True])
    def test_allgather(self, pools, n, dtype, own_row):
        g = world(n)
        x = _rows(n, dtype, 13 * n, (4, 8))
        ref = oracle.allgather_reference(dict(enumerate(x)), g, 0)
        rows = pools[n].call(
            pointer_allgather, [(x[i], g, own_row) for i in range(n)]
        )
        _assert_same_bytes(rows, ref)

    @pytest.mark.parametrize("n", RANK_COUNTS)
    def test_barrier_keeps_the_site_in_lockstep(self, pools, n):
        # two barriers, then a gather on the same site: each takes the
        # site's next sequence number on every rank
        g = world(n)
        assert pools[n].call("barrier", [()] * n) == [None] * n
        assert pools[n].call("barrier", [()] * n) == [None] * n
        x = _rows(n, np.float32, n, (4, 8))
        rows = pools[n].call(pointer_allgather, [(x[i], g) for i in range(n)])
        _assert_same_bytes(rows, oracle.allgather_reference(
            dict(enumerate(x)), g, 0
        ))


def _assert_runs_cover_the_slice(shape, itemsize, dim, lo, hi):
    """``box_runs`` covers exactly the bytes numpy's slice covers, in
    order, and a dim-0 box is one run."""
    index = np.arange(int(np.prod(shape)) * itemsize).reshape(
        tuple(shape) + (itemsize,)
    )
    box = [slice(None)] * len(shape)
    box[dim] = slice(lo, hi)
    want = index[tuple(box)].ravel()
    runs = box_runs(tuple(shape), itemsize, dim, lo, hi)
    got = [b for off, nbytes in runs for b in range(off, off + nbytes)]
    assert got == want.tolist()
    if dim % len(shape) == 0:
        assert len(runs) == 1


class TestBoxRuns:
    """``box_runs``: the byte runs of a box of a C-contiguous array."""

    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        itemsize=st.sampled_from([1, 2, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_runs_cover_numpys_slice_in_order(self, shape, itemsize, data):
        # dims counted from either end
        dim = data.draw(st.integers(-len(shape), len(shape) - 1))
        lo = data.draw(st.integers(0, shape[dim]))
        hi = data.draw(st.integers(lo, shape[dim]))
        _assert_runs_cover_the_slice(shape, itemsize, dim, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 2), (2, 5), (5, 8)])
    def test_the_ring_producers_chunks(self, lo, hi):
        # a GEMM output (batch, rows, hidden) chunked on dim -2
        _assert_runs_cover_the_slice((3, 8, 5), 2, -2, lo, hi)


@pytest.mark.skipif(not native.available(), reason="needs a C compiler")
def test_die_at_the_pointer_plane_reducescatter(tmp_path, monkeypatch):
    """Rank 1 of the tuned Adam, whose ranks run the pointer plane, dies
    publishing its ReduceScatter (the second operation on its group's
    site, after the timing barrier): the survivor aborts, and no
    segment or rank process is left."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    sched = AdamWorkload.build(4096, 2).schedules()["fuse(RS-Adam-AG)"]
    gen = CodeGenerator(target="native").generate(sched)
    assert gen.plane == "pointer"
    assert "comm.reducescatter(" in gen.source
    inputs = _seeded_inputs(sched.program, seed=0)
    # this module's pools may be alive: only the run's own must be gone
    before, kids = set(spmd_segments()), set(children())
    tracer = Tracer()
    t0 = time.monotonic()
    with pytest.raises(SpmdWorkerError) as err:
        Executor().run_spmd(
            sched, inputs, allow_downcast=True, codegen_target="native",
            fault_plan=FaultPlan(seed=1).die(1, at_site="g0x2", after=2),
            soft_timeout=0.5, timeout=20.0, tracer=tracer,
        )
    assert time.monotonic() - t0 < 20.0
    assert err.value.dead_ranks == [1]
    assert "timed out" not in str(err.value)
    (die,) = [
        e for e in tracer.events
        if isinstance(e, InstantEvent) and e.name == "die"
    ]
    assert (die.pid, die.args) == ("rank1", {"seq": 2, "site": "g0x2"})
    assert set(children()) == kids
    assert set(spmd_segments()) == before
