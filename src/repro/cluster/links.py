"""Interconnect links: NVLink (intra-node) and InfiniBand (inter-node)."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Link:
    """A point-to-point link with bandwidth and per-hop latency.

    ``slowdown`` models a degraded or contended link (a straggler NIC,
    a cable running below spec, fair-shared flows): the nominal
    ``bandwidth`` stays on the datasheet value while
    :attr:`effective_bandwidth` divides it by the factor, so cost
    models can charge degraded wire time without forgetting what the
    healthy link looks like.
    """

    name: str
    bandwidth: float  # bytes/second, one direction (nominal)
    latency: float    # seconds per hop (message injection to delivery)
    slowdown: float = 1.0  # >= 1; see degraded()/contended()

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(
                f"link slowdown must be >= 1, got {self.slowdown}"
            )

    @property
    def effective_bandwidth(self) -> float:
        """Deliverable bandwidth under the current slowdown."""
        return self.bandwidth / self.slowdown

    def degraded(self, factor: float) -> "Link":
        """This link running ``factor`` times slower (factors compose)."""
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        return replace(self, slowdown=self.slowdown * factor)

    def contended(self, flows: int) -> "Link":
        """This link fair-shared by ``flows`` concurrent flows."""
        if flows < 1:
            raise ValueError(f"flow count must be >= 1, got {flows}")
        return self.degraded(float(flows))


#: One V100 NVLink lane: 25 GB/s per direction; each GPU has six, all
#: routed through NVSwitch, so a GPU can inject 150 GB/s into the fabric.
NVLINK_V100 = Link(name="NVLink2", bandwidth=25e9, latency=0.7e-6)

#: EDR InfiniBand: 100 Gb/s = 12.5 GB/s per NIC; a DGX-2 has eight.
IB_EDR = Link(name="IB-EDR", bandwidth=12.5e9, latency=1.8e-6)
