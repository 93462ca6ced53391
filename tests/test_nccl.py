"""Tests for the NCCL simulator: protocols, rings, step counts, cost
model and auto-configuration."""

import pytest

from repro.cluster import Cluster
from repro.core.process_group import ProcessGroup, world
from repro.nccl import (
    ALL_PROTOCOLS,
    LL,
    LL128,
    SIMPLE,
    Algorithm,
    build_ring,
    choose_config,
    collective_time,
    p2p_time,
)
from repro.nccl import algorithms
from repro.nccl.cost_model import ring_bus_bandwidth


class TestProtocols:
    def test_pack_sizes(self):
        # §5.2: "64-bit for LL, 128-bit for LL128 and Simple"
        assert LL.pack_bytes == 8
        assert LL128.pack_bytes == 16
        assert SIMPLE.pack_bytes == 16

    def test_ll_efficiency_is_half(self):
        # LL spends half of each pack on a flag
        assert LL.bw_efficiency == 0.5

    def test_ll128_efficiency(self):
        assert LL128.bw_efficiency == pytest.approx(120 / 128)

    def test_latency_ordering(self):
        # "LL has the lowest latency and Simple provides the highest
        # bandwidth"
        assert (
            LL.hop_latency_intra
            < LL128.hop_latency_intra
            < SIMPLE.hop_latency_intra
        )
        assert LL.bw_efficiency < LL128.bw_efficiency < SIMPLE.bw_efficiency

    def test_elements_per_pack_mixed_precision(self):
        # §5.2: "based on the pack type of the protocol calculates how
        # many elements can be loaded at once"
        def elements_per_pack(protocol, itemsize):
            return max(1, protocol.pack_bytes // itemsize)

        assert elements_per_pack(LL, 2) == 4    # 4 fp16 per 8B pack
        assert elements_per_pack(LL, 4) == 2
        assert elements_per_pack(SIMPLE, 4) == 4

    def test_ll128_stages_through_shared_memory(self):
        assert LL128.shared_memory_staging
        assert not SIMPLE.shared_memory_staging


class TestRing:
    def test_single_node_ring_all_intra(self):
        ring = build_ring(Cluster(1), world(16))
        assert ring.inter_edges == 0
        assert ring.intra_edges == 16

    def test_multi_node_ring_one_inter_edge_per_node(self):
        ring = build_ring(Cluster(4), world(64))
        assert ring.inter_edges == 4
        assert ring.intra_edges == 60

    def test_subgroup_ring(self):
        # pipeline group on the second node
        ring = build_ring(Cluster(2), ProcessGroup(16, 16, 32))
        assert ring.inter_edges == 0

    def test_neighbours(self):
        ring = build_ring(Cluster(1), world(4))

        def neighbour(rank, step):
            i = ring.order.index(rank)
            return ring.order[(i + step) % ring.size]

        assert neighbour(3, 1) == 0
        assert neighbour(0, -1) == 3

    def test_average_hop_latency_weights_edges(self):
        ring = build_ring(Cluster(2), world(32))
        avg = ring.average_hop_latency(SIMPLE)
        assert SIMPLE.hop_latency_intra < avg < SIMPLE.hop_latency_inter


class TestStepSchedules:
    def test_allreduce_step_count(self):
        # ring AllReduce takes 2(n-1) steps
        assert algorithms.num_steps("allreduce", 8) == 14
        assert algorithms.num_steps("reducescatter", 8) == 7
        assert algorithms.num_steps("allgather", 8) == 7

    def test_single_rank_no_steps(self):
        assert algorithms.num_steps("allreduce", 1) == 0

    def test_tree_depth(self):
        assert algorithms.tree_depth(1) == 0
        assert algorithms.tree_depth(2) == 1
        assert algorithms.tree_depth(256) == 8
        assert algorithms.tree_depth(200) == 8


class TestCostModel:
    def setup_method(self):
        self.cluster = Cluster(16)
        self.ring = build_ring(self.cluster, world(256))

    def test_time_increases_with_size(self):
        times = [
            collective_time(
                "allreduce", 2**e, self.cluster, self.ring, SIMPLE, 8
            )
            for e in range(10, 31, 4)
        ]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_allreduce_costs_twice_reducescatter_bandwidth(self):
        big = 2**30
        ar = collective_time(
            "allreduce", big, self.cluster, self.ring, SIMPLE, 8
        )
        rs = collective_time(
            "reducescatter", big, self.cluster, self.ring, SIMPLE, 8
        )
        assert ar / rs == pytest.approx(2.0, rel=0.05)

    def test_ll_beats_simple_at_small_sizes(self):
        small = 2**12
        t_ll = collective_time(
            "allreduce", small, self.cluster, self.ring, LL, 8
        )
        t_simple = collective_time(
            "allreduce", small, self.cluster, self.ring, SIMPLE, 8
        )
        assert t_ll < t_simple

    def test_simple_beats_ll_at_large_sizes(self):
        big = 2**30
        t_ll = collective_time(
            "allreduce", big, self.cluster, self.ring, LL, 8
        )
        t_simple = collective_time(
            "allreduce", big, self.cluster, self.ring, SIMPLE, 8
        )
        assert t_simple < t_ll

    def test_tree_beats_ring_latency_at_scale(self):
        small = 2**10
        t_tree = collective_time(
            "allreduce", small, self.cluster, self.ring, LL, 8,
            Algorithm.TREE,
        )
        t_ring = collective_time(
            "allreduce", small, self.cluster, self.ring, LL, 8,
            Algorithm.RING,
        )
        assert t_tree < t_ring

    def test_tree_rejects_allgather(self):
        from repro.errors import CoCoNetError

        with pytest.raises(CoCoNetError):
            collective_time(
                "allgather", 2**20, self.cluster, self.ring, LL, 8,
                Algorithm.TREE,
            )

    def test_busbw_capped_by_nics_across_nodes(self):
        bw = ring_bus_bandwidth(self.cluster, self.ring, SIMPLE, 64)
        # min(150 GB/s fabric, 8 NICs x 12.5) * impl_eff
        assert bw <= 100e9

    def test_busbw_single_node_higher(self):
        ring1 = build_ring(Cluster(1), world(16))
        bw1 = ring_bus_bandwidth(Cluster(1), ring1, SIMPLE, 64)
        bw16 = ring_bus_bandwidth(self.cluster, self.ring, SIMPLE, 64)
        assert bw1 > bw16

    def test_channels_scale_bandwidth(self):
        bw2 = ring_bus_bandwidth(self.cluster, self.ring, SIMPLE, 2)
        bw8 = ring_bus_bandwidth(self.cluster, self.ring, SIMPLE, 8)
        assert bw8 > bw2

    def test_p2p_pairs_share_nics(self):
        one = p2p_time(2**26, self.cluster, concurrent_pairs=1)
        sixteen = p2p_time(2**26, self.cluster, concurrent_pairs=16)
        assert sixteen > one * 10

    def test_p2p_intra_node_faster(self):
        intra = p2p_time(2**26, self.cluster, 16, intra_node=True)
        inter = p2p_time(2**26, self.cluster, 16, intra_node=False)
        assert intra < inter


class TestAutoConfig:
    def test_small_sizes_choose_low_latency(self):
        cl = Cluster(16)
        cfg, _ = choose_config("allreduce", 2**11, cl, world(256))
        assert cfg.protocol is LL
        assert cfg.algorithm is Algorithm.TREE

    def test_large_sizes_choose_bandwidth(self):
        cl = Cluster(16)
        cfg, _ = choose_config("allreduce", 2**31, cl, world(256))
        assert cfg.protocol is SIMPLE
        assert cfg.algorithm is Algorithm.RING

    def test_reducescatter_is_ring_only(self):
        cl = Cluster(16)
        cfg, _ = choose_config("reducescatter", 2**11, cl, world(256))
        assert cfg.algorithm is Algorithm.RING

    def test_best_time_is_minimum(self):
        cl = Cluster(1)
        cfg, best = choose_config("allreduce", 2**20, cl, world(16))
        ring = build_ring(cl, world(16))
        for proto in ALL_PROTOCOLS:
            for ch in (2, 8, 64):
                t = collective_time(
                    "allreduce", 2**20, cl, ring, proto, ch
                )
                assert best <= t + 1e-12
