"""Simulated NCCL: the communication runtime CoCoNet extends (§5.1).

"NCCL's architecture defines four key properties: (i) topology, (ii)
protocols, (iii) channels, and (iv) threads in a thread block of the
CUDA kernel. NCCL automatically sets key configuration values for these
properties based on the size of the input buffer, network architecture,
and the size of WORLD."

This package reproduces those properties over the
:mod:`repro.cluster` hardware model: ring/tree topologies, the LL /
LL128 / Simple protocols with their latency-bandwidth trade-offs,
channel configuration, the step counts each collective's algorithm
takes, and an analytic cost model used by both the autotuner and the
benchmarks. The data movement itself is :mod:`repro.runtime.collectives`.
"""

from repro.nccl.protocol import LL, LL128, SIMPLE, ALL_PROTOCOLS, Protocol
from repro.nccl.ring import Ring, build_ring
from repro.nccl.config import CollectiveConfig, choose_config
from repro.nccl.cost_model import (
    Algorithm,
    collective_time,
    hierarchical_alltoall_time,
    p2p_time,
)

__all__ = [
    "hierarchical_alltoall_time",
    "Protocol",
    "LL",
    "LL128",
    "SIMPLE",
    "ALL_PROTOCOLS",
    "Ring",
    "build_ring",
    "CollectiveConfig",
    "choose_config",
    "Algorithm",
    "collective_time",
    "p2p_time",
]
