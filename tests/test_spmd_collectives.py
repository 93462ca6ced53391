"""Property tests: SpmdCommunicator collectives ≡ vectorized collectives.

Every collective of the shared-memory communicator must be bit-identical
(``np.array_equal``) to its ``repro.runtime.collectives`` vectorized
counterpart — across fp32/fp16 payloads and real rank counts {2, 4, 8}.
The AllToAll, whose communicator and vectorized forms both read
``collectives.alltoall_moves``, is checked against the independent
per-rank oracle instead, at every divisor node size of the hierarchical
phases (uneven grids like 8 = 2×4). Point-to-point ``send``/``recv``
must deliver the sent array exactly. A persistent
:class:`CollectivePool` of worker processes executes thousands of real
rendezvous without paying a process spawn per example.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import world
from repro.runtime import collectives
from tests import collective_oracle as oracle
from tests.collective_pool import CollectivePool, chunked, gather_into_own_row

RANK_COUNTS = (2, 4, 8)
DTYPES = (np.float32, np.float16)
OPS = ("+", "*", "max", "min")

_pools = {}


def pool(n: int) -> CollectivePool:
    if n not in _pools:
        _pools[n] = CollectivePool(n, slot_bytes=1 << 18, timeout=60.0)
    return _pools[n]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    while _pools:
        _pools.popitem()[1].close()


def _stacked(seed: int, n: int, shape, dtype) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return (rng.randn(n, *shape) * 4).astype(dtype)


def _with_nans(x: np.ndarray, op: str, seed: int) -> np.ndarray:
    """``x`` with about a tenth of its elements NaN for max/min, which
    must propagate a NaN from any rank."""
    if op in ("max", "min"):
        x = x.copy()
        x[np.random.RandomState(seed + 1).rand(*x.shape) < 0.1] = np.nan
    return x


def _assert_rows_equal(rows, stacked_ref):
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(row, np.asarray(stacked_ref[i]))


class TestReductionCollectives:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 3),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(["+", "*", "max", "min"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_allreduce(self, n, per, dtype, op, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per,), dtype)
        ref = collectives.allreduce_vectorized(x, g, op, dtype)
        rows = pool(n).call(
            "allreduce", [(x[i], g, op, dtype) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(OPS),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=16, deadline=None)
    def test_reducescatter(self, n, per, dim, dtype, op, seed):
        # each rank folds only its own shard of every payload
        g = world(n)
        x = _with_nans(_stacked(seed, n, (n * per, n * per), dtype), op, seed)
        ref = collectives.reducescatter_vectorized(
            x, g, op, dim, dtype, context="rs"
        )
        rows = pool(n).call(
            "reducescatter",
            [(x[i], g, op, dim, dtype) for i in range(n)],
            kwargs={"context": "rs"},
        )
        _assert_rows_equal(rows, ref)

    @pytest.mark.parametrize(
        "dim,chunk_dim", [(0, 0), (1, 1), (0, 1), (1, 0)]
    )
    @given(
        n=st.sampled_from(RANK_COUNTS),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(OPS),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=3, deadline=None)
    def test_reducescatter_of_a_chunked_publication(
        self, dim, chunk_dim, n, dtype, op, seed
    ):
        # the chunk edges cut across shards: a rank folds the part of
        # each chunk inside its shard, and skips chunks outside it
        g = world(n)
        x = _with_nans(_stacked(seed, n, (2 * n, 2 * n), dtype), op, seed)
        ref = collectives.reducescatter_vectorized(x, g, op, dim, dtype)
        bounds = ((0, 1), (1, n + 1), (n + 1, 2 * n))
        rows = pool(n).call(
            chunked,
            [
                (x[i], g, chunk_dim, bounds, 0.02, "reducescatter",
                 op, dim, dtype)
                for i in range(n)
            ],
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        root=st.integers(0, 7),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(["+", "max"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_reduce_keeps_non_root_inputs(self, n, root, dtype, op, seed):
        root = root % n
        g = world(n)
        x = _stacked(seed, n, (2 * n,), dtype)
        ref = collectives.reduce_vectorized(x, g, op, root, dtype)
        rows = pool(n).call(
            "reduce", [(x[i], g, op, root, dtype) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        root=st.integers(0, 7),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=4, deadline=None)
    def test_reduce_of_a_chunked_publication(self, n, root, dtype, seed):
        # a non-root rank returns its own operand, the producer's out
        # buffer: it must hold every released chunk, not the NaN fill
        root = root % n
        g = world(n)
        x = _stacked(seed, n, (4, 3), dtype)
        ref = collectives.reduce_vectorized(x, g, "+", root, dtype)
        bounds = ((0, 1), (1, 2), (2, 4))
        rows = pool(n).call(
            chunked,
            [
                (x[i], g, 0, bounds, 0.05, "reduce", "+", root, dtype)
                for i in range(n)
            ],
        )
        _assert_rows_equal(rows, ref)


class TestDataMovementCollectives:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_allgather(self, n, per, dim, dtype, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per, per), dtype)
        ref = collectives.allgather_vectorized(x, g, dim)
        rows = pool(n).call(
            "allgather", [(x[i], g, dim) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)

    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dim", [0, 1])
    def test_allgather_into_out_aliasing_own_row(self, n, dim):
        # the operand is published before any row of ``out`` is
        # written, so gathering into the storage the operand lives in
        # is the plain gather
        g = world(n)
        x = _stacked(n + dim, n, (2, 3), np.float16)
        ref = collectives.allgather_vectorized(x, g, dim)
        rows = pool(n).call(
            gather_into_own_row, [(x[i], g, dim) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_alltoall(self, n, per, dim, dtype, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per, n * per), dtype)
        ref = oracle.alltoall_reference(dict(enumerate(x)), g, dim)
        rows = pool(n).call(
            "alltoall",
            [(x[i], g, dim) for i in range(n)],
            kwargs={"context": "a2a"},
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        root=st.integers(0, 7),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_broadcast(self, n, root, dtype, seed):
        root = root % n
        g = world(n)
        x = _stacked(seed, n, (3,), dtype)
        ref = collectives.broadcast_vectorized(x, g, root)
        rows = pool(n).call(
            "broadcast", [(x[i], g, root) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)


class TestHierarchicalAllToAll:
    """intra/inter phases for *every* divisor node size of {2,4,8} —
    uneven grids (8 = 2×4) included — and their composition to flat."""

    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_divisor(self, n, dtype):
        g = world(n)
        x = _stacked(1234 + n, n, (2 * n, 3), dtype)
        vals = dict(enumerate(x))
        flat = oracle.alltoall_reference(vals, g, 0)
        for m in range(1, n + 1):
            if n % m != 0:
                continue
            intra_ref = oracle.alltoall_intra_reference(vals, g, 0, m)
            intra = pool(n).call(
                "alltoall", [(x[i], g, 0) for i in range(n)],
                kwargs={"phase": "intra", "node_size": m},
            )
            _assert_rows_equal(intra, intra_ref)
            inter = pool(n).call(
                "alltoall", [(intra_ref[i], g, 0) for i in range(n)],
                kwargs={"phase": "inter", "node_size": m},
            )
            _assert_rows_equal(inter, flat)


class TestScalarExchange:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_exchange_scalars_rank_order(self, n, seed):
        g = world(n)
        rng = np.random.RandomState(seed)
        vals = rng.randn(n)
        rows = pool(n).call(
            "exchange_scalars", [(vals[i], g) for i in range(n)]
        )
        for per_rank in rows:
            assert [float(p) for p in per_rank] == [float(v) for v in vals]


class TestPointToPoint:
    """send/recv between the two ranks of a pair-site pool."""

    @staticmethod
    def _pool() -> CollectivePool:
        if "p2p" not in _pools:
            _pools["p2p"] = CollectivePool(
                2, slot_bytes=1 << 12, timeout=60.0, pairs=[(0, 1), (1, 0)]
            )
        return _pools["p2p"]

    @given(
        shape=st.sampled_from([(), (5,), (2, 3, 4)]),
        dtype=st.sampled_from(DTYPES),
        src=st.integers(0, 1),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_send_recv(self, shape, dtype, src, seed):
        dst = 1 - src
        methods = ["send", "recv"] if src == 0 else ["recv", "send"]
        # two sends in a row on one pair site: the second reuses the
        # slot at the next sequence number, and must not read the first
        for step, x in enumerate(_stacked(seed, 2, shape, dtype)):
            args = [None, None]
            args[src] = (x, dst)
            args[dst] = (src, shape, dtype)
            rows = self._pool().call(methods, args)
            assert rows[src] is None, step
            assert rows[dst].shape == shape and rows[dst].dtype == dtype
            np.testing.assert_array_equal(rows[dst], x, err_msg=str(step))
