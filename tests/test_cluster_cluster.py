"""Tests for cluster configuration and task-wave arithmetic."""

import pytest

from repro.cluster import Cluster, ClusterConfig, paper_cluster
from repro.cluster.node import CpuProfile
from repro.exceptions import ConfigurationError


class TestClusterConfig:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_data_nodes=0)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(dfs_block_size=0)


class TestCluster:
    def test_total_task_slots(self):
        config = ClusterConfig(num_data_nodes=3, node_cpu=CpuProfile(cores=4))
        assert Cluster(config).total_task_slots == 12

    def test_task_waves_ceiling(self):
        cluster = Cluster(ClusterConfig(num_data_nodes=3))  # 6 slots
        assert cluster.num_task_waves(0) == 0
        assert cluster.num_task_waves(1) == 1
        assert cluster.num_task_waves(6) == 1
        assert cluster.num_task_waves(7) == 2
        assert cluster.num_task_waves(600) == 100

    def test_task_waves_rejects_negative(self):
        cluster = Cluster(ClusterConfig())
        with pytest.raises(ConfigurationError):
            cluster.num_task_waves(-1)

    def test_tasks_for_bytes_one_per_block(self):
        cluster = Cluster(ClusterConfig(dfs_block_size=128))
        assert cluster.num_tasks_for_bytes(0) == 0
        assert cluster.num_tasks_for_bytes(1) == 1
        assert cluster.num_tasks_for_bytes(128) == 1
        assert cluster.num_tasks_for_bytes(129) == 2


class TestPaperCluster:
    def test_matches_paper_description(self):
        cluster = paper_cluster()
        assert cluster.config.num_data_nodes == 3
        assert cluster.config.node_cpu.cores == 2
        assert cluster.total_task_slots == 6
        # A quarter of each node's 8 GiB per task.
        assert cluster.per_task_memory == 2 * 1024**3
        assert cluster.config.dfs_block_size == 128 * 1024**2
