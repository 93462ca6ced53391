"""Cluster topology: nodes of GPUs joined by an InfiniBand network.

Provides the queries the NCCL simulator needs: which ranks share a node,
the bandwidth/latency of the edge between two ranks, and aggregate
bandwidth limits (per-GPU NVSwitch injection, per-node NIC capacity).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import DGX2, NodeSpec
from repro.errors import CoCoNetError


@dataclass(frozen=True)
class Cluster:
    """``num_nodes`` identical nodes; global ranks are dense GPU indices."""

    num_nodes: int
    node: NodeSpec = DGX2

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise CoCoNetError("cluster needs at least one node")

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.node.gpus_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.num_ranks:
            raise CoCoNetError(
                f"rank {rank} out of range for {self.num_ranks}-GPU cluster"
            )
        return rank // self.node.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)


    def spans_nodes(self) -> bool:
        return self.num_nodes > 1

    def signature(self) -> str:
        """Canonical topology identity, stable across processes.

        A tuned schedule is only valid for the topology it was tuned on
        (node width decides hierarchical splits, link speeds decide the
        protocol/channel sweep), so the persistent schedule cache
        (:mod:`repro.serve`) keys every record by this string alongside
        the program's structural hash.

        >>> Cluster(2).signature()
        'DGX-2x16/nodes2'
        """
        return f"{self.node.name}x{self.node.gpus_per_node}/nodes{self.num_nodes}"

    def describe(self) -> str:
        n = self.node
        return (
            f"{self.num_nodes}x {n.name} "
            f"({n.gpus_per_node}x {n.gpu.name}/node, "
            f"{n.gpu_fabric_bandwidth / 1e9:.0f} GB/s NVSwitch per GPU, "
            f"{n.node_network_bandwidth / 1e9:.0f} GB/s IB per node)"
        )
