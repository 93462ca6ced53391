"""Step schedules of the ring collectives, plus a numeric step-by-step
ring simulator used to prove the algorithms against the reference
collectives.

Ring ReduceScatter: in step t (0-based), rank r sends chunk
``(r - t) mod n`` to rank ``r+1`` and reduces the incoming chunk
``(r - t - 1) mod n`` into its accumulator. After ``n-1`` steps, rank r
holds the full reduction of chunk ``(r + 1) mod n``.

Ring AllGather: in step t, rank r forwards the completed chunk it
received in step t-1. After ``n-1`` steps everyone holds all chunks.

Ring AllReduce is ReduceScatter followed by AllGather: ``2(n-1)`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Step:
    """One communication step: ``src`` sends ``chunk`` to ``dst``."""

    index: int
    src: int
    dst: int
    chunk: int


def reduce_scatter_steps(n: int) -> List[Step]:
    """The ``n*(n-1)`` sends of a ring ReduceScatter on ``n`` ranks."""
    steps: List[Step] = []
    for t in range(n - 1):
        for r in range(n):
            steps.append(Step(t, r, (r + 1) % n, (r - t) % n))
    return steps


def all_gather_steps(n: int) -> List[Step]:
    """The sends of a ring AllGather; rank r owns chunk (r+1) mod n."""
    steps: List[Step] = []
    for t in range(n - 1):
        for r in range(n):
            steps.append(Step(t, r, (r + 1) % n, (r + 1 - t) % n))
    return steps


def all_reduce_steps(n: int) -> List[Step]:
    """Ring AllReduce = ReduceScatter then AllGather: 2(n-1) phases."""
    rs = reduce_scatter_steps(n)
    ag = [
        Step(s.index + n - 1, s.src, s.dst, s.chunk)
        for s in all_gather_steps(n)
    ]
    return rs + ag


def all_to_all_steps(n: int) -> List[Step]:
    """The ``n*(n-1)`` sends of a pairwise-exchange AllToAll.

    In step t (0-based), rank r sends its chunk destined to peer
    ``(r + t + 1) mod n`` directly to that peer — the classic pairwise
    schedule (ring-ordered peers, so on a ring topology each step is a
    uniform shift). Each rank sends exactly one chunk per step; after
    ``n-1`` steps every chunk has reached its destination and the rank's
    own chunk never leaves it. ``chunk`` names the chunk index within the
    *sender's* buffer, which equals the destination's ring index.
    """
    steps: List[Step] = []
    for t in range(n - 1):
        for r in range(n):
            peer = (r + t + 1) % n
            steps.append(Step(t, r, peer, peer))
    return steps


def num_steps(kind: str, n: int) -> int:
    """Sequential step count of a ring collective on ``n`` ranks."""
    if n <= 1:
        return 0
    if kind == "allreduce":
        return 2 * (n - 1)
    if kind in (
        "reducescatter", "allgather", "broadcast", "reduce", "alltoall"
    ):
        return n - 1
    raise ValueError(f"unknown collective {kind!r}")


def simulate_ring_allreduce(values: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Execute ring AllReduce step by step on numpy arrays.

    Used by tests to show the ring algorithm computes the same result
    as the per-rank AllReduce oracle. Accumulates in float64 like the
    oracle.
    """
    n = len(values)
    if n == 1:
        return [values[0].copy()]
    chunks: List[List[np.ndarray]] = [
        [c.astype(np.float64) for c in np.array_split(v, n)] for v in values
    ]
    # Reduce-scatter phase: after step t, rank r's chunk (r - t) mod n
    # has accumulated t+1 contributions.
    for t in range(n - 1):
        moving = [(r, chunks[r][(r - t) % n]) for r in range(n)]
        for r, data in moving:
            dst = (r + 1) % n
            chunks[dst][(r - t) % n] = chunks[dst][(r - t) % n] + data
    # All-gather phase: rank r owns the fully reduced chunk (r + 1) mod n.
    for t in range(n - 1):
        moving = [(r, chunks[r][(r + 1 - t) % n]) for r in range(n)]
        for r, data in moving:
            dst = (r + 1) % n
            chunks[dst][(r + 1 - t) % n] = data
    return [
        np.concatenate([c for c in chunks[r]]).astype(values[r].dtype)
        for r in range(n)
    ]


def simulate_alltoall(
    values: Sequence[np.ndarray], dim: int = 0
) -> List[np.ndarray]:
    """Execute the pairwise AllToAll step by step on numpy arrays.

    Replays exactly the sends of :func:`all_to_all_steps`; used by tests
    to prove the step schedule computes the same result as the per-rank
    AllToAll oracle.
    """
    n = len(values)
    if n == 1:
        return [values[0].copy()]
    extent = values[0].shape[dim]
    if extent % n != 0:
        raise ValueError(
            f"dim {dim} extent {extent} not divisible by {n} ranks"
        )
    step_size = extent // n

    def chunk(r: int, c: int) -> np.ndarray:
        idx = [slice(None)] * values[r].ndim
        idx[dim] = slice(c * step_size, (c + 1) * step_size)
        return values[r][tuple(idx)]

    # received[r][j] = the chunk rank r got from source j.
    received: List[Dict[int, np.ndarray]] = [dict() for _ in range(n)]
    for r in range(n):
        received[r][r] = chunk(r, r).copy()  # own chunk never moves
    for s in all_to_all_steps(n):
        received[s.dst][s.src] = chunk(s.src, s.chunk).copy()
    return [
        np.concatenate([received[r][j] for j in range(n)], axis=dim)
        for r in range(n)
    ]


def tree_depth(n: int) -> int:
    """Depth of NCCL's binary reduction tree over ``n`` ranks."""
    depth = 0
    while (1 << depth) < n:
        depth += 1
    return depth
