"""NCCL protocols: LL, LL128 and Simple (§5.1).

"NCCL sends data using one of the three protocols: LL, LL128, and
Simple. These protocols make different tradeoffs between latency and
bandwidth based on the type of inter-node synchronization used: LL has
the lowest latency and Simple provides the highest bandwidth."

The modelled properties:

* ``pack_bytes`` — "the pack type (64-bit for LL, 128-bit for LL128 and
  Simple)", which code generation uses to compute elements per load;
* ``bw_efficiency`` — LL spends half of every 8-byte pack on a flag
  (50%); LL128 spends 8 of every 128 bytes (93.75%); Simple moves pure
  payload (100%);
* hop latencies — per-step delay of the synchronization mechanism on
  NVLink vs InfiniBand edges (flag polling is cheap; Simple's
  full-buffer synchronization is expensive but amortized).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Protocol:
    """One NCCL wire protocol."""

    name: str
    pack_bytes: int
    bw_efficiency: float
    hop_latency_intra: float  # seconds per ring/tree step over NVLink
    hop_latency_inter: float  # seconds per step over InfiniBand
    shared_memory_staging: bool  # LL128 stages through shared memory

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Protocol({self.name})"


LL = Protocol(
    name="LL",
    pack_bytes=8,
    bw_efficiency=0.50,
    hop_latency_intra=0.12e-6,
    hop_latency_inter=1.0e-6,
    shared_memory_staging=False,
)

LL128 = Protocol(
    name="LL128",
    pack_bytes=16,
    bw_efficiency=120.0 / 128.0,
    hop_latency_intra=0.30e-6,
    hop_latency_inter=1.4e-6,
    shared_memory_staging=True,
)

SIMPLE = Protocol(
    name="Simple",
    pack_bytes=16,
    bw_efficiency=1.0,
    hop_latency_intra=1.2e-6,
    hop_latency_inter=3.5e-6,
    shared_memory_staging=False,
)

ALL_PROTOCOLS = (LL, LL128, SIMPLE)
