"""Ring topology construction over the cluster.

"NCCL creates logical topologies, such as ring and tree, over the
underlying interconnect network" (§5.1). A ring orders the ranks of a
group so that consecutive ranks are ring neighbours; with dense rank
numbering on DGX-2 nodes, one of every ``gpus_per_node`` edges crosses
the InfiniBand network and the rest stay on NVSwitch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.topology import Cluster
from repro.core.process_group import ProcessGroup
from repro.errors import CoCoNetError
from repro.nccl.protocol import Protocol


@dataclass(frozen=True)
class Ring:
    """A ring over a process group mapped onto the cluster."""

    order: Tuple[int, ...]       # ranks in ring order
    intra_edges: int             # edges staying within a node
    inter_edges: int             # edges crossing nodes

    @property
    def size(self) -> int:
        return len(self.order)

    def spans_nodes(self) -> bool:
        return self.inter_edges > 0

    def average_hop_latency(self, protocol: Protocol) -> float:
        """Mean per-step latency, weighting NVLink vs IB edges."""
        total = self.intra_edges + self.inter_edges
        return (
            self.intra_edges * protocol.hop_latency_intra
            + self.inter_edges * protocol.hop_latency_inter
        ) / total


def build_ring(cluster: Cluster, group: ProcessGroup) -> Ring:
    """Ring over ``group``'s ranks in natural order.

    Natural order is what NCCL derives on NVSwitch systems: all GPUs of
    a node are consecutive, so exactly one edge per node boundary runs
    over InfiniBand.
    """
    ranks: List[int] = list(group.ranks)
    if ranks[-1] >= cluster.num_ranks:
        raise CoCoNetError(
            f"group {group} does not fit cluster of {cluster.num_ranks} ranks"
        )
    intra = inter = 0
    n = len(ranks)
    for i in range(n):
        a, b = ranks[i], ranks[(i + 1) % n]
        if cluster.same_node(a, b):
            intra += 1
        else:
            inter += 1
    if n == 1:
        intra, inter = 1, 0
    return Ring(tuple(ranks), intra, inter)
