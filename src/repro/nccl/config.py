"""NCCL-style automatic configuration.

"NCCL automatically sets key configuration values for these properties
based on the size of the input buffer, network architecture, and the
size of WORLD" (§5.1). We reproduce that by searching protocols ×
channel counts × algorithms with the cost model and taking the fastest
— the same space CoCoNet's autotuner explores ("including all NCCL
protocols and all channels from 2 to 64", §6.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.topology import Cluster
from repro.core.process_group import ProcessGroup
from repro.nccl.cost_model import Algorithm, collective_time
from repro.nccl.protocol import ALL_PROTOCOLS, Protocol
from repro.nccl.ring import build_ring

#: Channel counts NCCL (and the autotuner) considers.
CHANNEL_CHOICES = (2, 4, 8, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class CollectiveConfig:
    """One concrete (algorithm, protocol, channels) configuration."""

    algorithm: Algorithm
    protocol: Protocol
    channels: int

    def describe(self) -> str:
        return (
            f"{self.algorithm.value}/{self.protocol.name}/"
            f"{self.channels}ch"
        )


def candidate_configs(kind: str) -> Tuple[CollectiveConfig, ...]:
    """All configurations valid for a collective kind."""
    algos = [Algorithm.RING]
    if kind in ("allreduce", "broadcast", "reduce"):
        algos.append(Algorithm.TREE)
    return tuple(
        CollectiveConfig(a, p, c)
        for a in algos
        for p in ALL_PROTOCOLS
        for c in CHANNEL_CHOICES
    )


def choose_config(
    kind: str,
    nbytes: int,
    cluster: Cluster,
    group: ProcessGroup,
    node_size: "int | None" = None,
) -> Tuple[CollectiveConfig, float]:
    """Best (config, time) for one collective call, NCCL-style."""
    ring = build_ring(cluster, group)
    best: Optional[CollectiveConfig] = None
    best_time = float("inf")
    for cfg in candidate_configs(kind):
        t = collective_time(
            kind, nbytes, cluster, ring, cfg.protocol, cfg.channels,
            cfg.algorithm, node_size=node_size,
        )
        if t < best_time:
            best, best_time = cfg, t
    assert best is not None
    return best, best_time
