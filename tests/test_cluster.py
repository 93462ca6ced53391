"""Tests for the hardware model (cluster/gpu/links/node/topology)."""

import pytest

from repro.cluster import DGX2, IB_EDR, NVLINK_V100, TESLA_V100, Cluster
from repro.core.dtypes import FP16, FP32
from repro.errors import CoCoNetError


class TestV100:
    def test_paper_parameters(self):
        assert TESLA_V100.memory_bytes == 32 * 1024**3
        assert TESLA_V100.num_sms == 80
        assert TESLA_V100.hbm_bandwidth == 900e9

    def test_peak_flops_by_precision(self):
        assert TESLA_V100.peak_flops(FP16) == pytest.approx(112e12)
        assert TESLA_V100.peak_flops(FP32) == pytest.approx(15.7e12)

    def test_matmul_time_math_bound(self):
        # huge flops, tiny data -> math bound
        t = TESLA_V100.matmul_time(10**12, 10**6, FP16, efficiency=1.0)
        assert t == pytest.approx(10**12 / 112e12)

    def test_matmul_time_memory_bound(self):
        t = TESLA_V100.matmul_time(10**6, 9 * 10**9, FP16)
        assert t == pytest.approx(0.01, rel=0.01)  # 9 GB / 900 GB/s


class TestDGX2:
    def test_nvlink_aggregate(self):
        # 6 NVLinks x 25 GB/s = 150 GB/s per GPU into the fabric
        assert DGX2.gpu_fabric_bandwidth == pytest.approx(150e9)

    def test_ib_aggregate(self):
        # 8 x 100 Gb/s EDR = 100 GB/s per node
        assert DGX2.node_network_bandwidth == pytest.approx(100e9)

    def test_link_latencies_ordered(self):
        assert NVLINK_V100.latency < IB_EDR.latency


class TestCluster:
    def test_paper_testbed_size(self):
        cl = Cluster(16)
        assert cl.num_ranks == 256

    def test_node_of(self):
        cl = Cluster(2)
        assert cl.node_of(0) == 0
        assert cl.node_of(15) == 0
        assert cl.node_of(16) == 1

    def test_node_of_out_of_range(self):
        with pytest.raises(CoCoNetError):
            Cluster(1).node_of(16)

    def test_same_node(self):
        cl = Cluster(2)
        assert cl.same_node(3, 12)
        assert not cl.same_node(15, 16)

    def test_edge_properties(self):
        # a direct edge inside a node is the GPU's NVSwitch injection
        # bandwidth and an NVLink hop; across nodes, one NIC stream
        cl = Cluster(2)

        def edge(a, b):
            if cl.same_node(a, b):
                return cl.node.gpu_fabric_bandwidth, cl.node.nvlink.latency
            return cl.node.nic.bandwidth, cl.node.nic.latency

        assert edge(0, 1)[0] == pytest.approx(150e9)
        assert edge(15, 16)[0] == pytest.approx(12.5e9)
        assert edge(0, 1)[1] < edge(15, 16)[1]

    def test_spans_nodes(self):
        assert not Cluster(1).spans_nodes()
        assert Cluster(2).spans_nodes()

    def test_zero_nodes_rejected(self):
        with pytest.raises(CoCoNetError):
            Cluster(0)

    def test_describe(self):
        text = Cluster(16).describe()
        assert "DGX-2" in text and "150 GB/s" in text
