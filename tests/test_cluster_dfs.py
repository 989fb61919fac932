"""Tests for the distributed file system model."""

import pytest

from repro.cluster import Cluster, ClusterConfig, DistributedFileSystem
from repro.cluster import dfs as dfs_module
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.exceptions import ConfigurationError

MIB = 1024**2


@pytest.fixture()
def dfs():
    cluster = Cluster(
        ClusterConfig(num_data_nodes=3, dfs_block_size=128 * MIB, dfs_replication=3)
    )
    return DistributedFileSystem(cluster)


class TestFileLifecycle:
    def test_create_and_get(self, dfs):
        created = dfs.create_file("/warehouse/t1", 300 * MIB)
        assert dfs.exists("/warehouse/t1")
        assert dfs.get_file("/warehouse/t1") == created
        assert created.num_blocks == 3

    def test_final_block_is_short(self, dfs):
        f = dfs.create_file("/f", 300 * MIB)
        assert f.blocks[0].size == 128 * MIB
        assert f.blocks[-1].size == 300 * MIB - 2 * 128 * MIB

    def test_duplicate_path_rejected(self, dfs):
        dfs.create_file("/f", 10)
        with pytest.raises(ConfigurationError):
            dfs.create_file("/f", 10)

    def test_delete_reclaims_capacity(self, dfs):
        before = dfs.free_raw_bytes
        dfs.create_file("/f", 100 * MIB)
        assert dfs.free_raw_bytes == before - 300 * MIB
        dfs.delete_file("/f")
        assert dfs.free_raw_bytes == before

    def test_delete_missing_raises(self, dfs):
        with pytest.raises(ConfigurationError):
            dfs.delete_file("/missing")

    def test_capacity_enforced(self, dfs):
        with pytest.raises(ConfigurationError):
            dfs.create_file("/huge", dfs.cluster.dfs_capacity)

    def test_empty_file(self, dfs):
        f = dfs.create_file("/empty", 0)
        assert f.num_blocks == 0
        assert dfs.used_raw_bytes == 0


class TestPlacement:
    def test_replica_count(self, dfs):
        f = dfs.create_file("/f", 512 * MIB)
        for block in f.blocks:
            assert len(block.replicas) == 3
            assert len(set(block.replicas)) == 3

    def test_replicas_only_on_data_nodes(self, dfs):
        f = dfs.create_file("/f", 256 * MIB)
        data_nodes = {n.name for n in dfs.cluster.data_nodes}
        for block in f.blocks:
            assert set(block.replicas) <= data_nodes

    def test_placement_spreads_across_nodes(self, dfs):
        f = dfs.create_file("/f", 6 * 128 * MIB)
        first_replicas = [b.replicas[0] for b in f.blocks]
        assert len(set(first_replicas)) == 3  # round-robin over 3 nodes

    @pytest.mark.parametrize("nodes,replication", [(3, 3), (4, 2), (5, 1)])
    def test_blocks_follow_the_documented_policy(self, nodes, replication):
        """Block i of the k-th file: first replica on data node
        (k + i) mod N, the others on the nodes after it."""
        dfs = DistributedFileSystem(
            Cluster(
                ClusterConfig(
                    num_data_nodes=nodes,
                    dfs_block_size=128 * MIB,
                    dfs_replication=replication,
                )
            )
        )
        names = [n.name for n in dfs.cluster.data_nodes]
        sizes = (300 * MIB, 0, 1, 128 * MIB, 6 * 128 * MIB + 5, 17, 1000 * MIB)
        for k, size in enumerate(sizes):
            f = dfs.create_file(f"/f{k}", size)
            expected = []
            offset = 0
            while offset < size:
                i = len(expected)
                first = (k + i) % nodes
                expected.append(
                    (
                        i,
                        min(128 * MIB, size - offset),
                        tuple(names[(first + r) % nodes] for r in range(replication)),
                    )
                )
                offset += 128 * MIB
            assert [(b.index, b.size, b.replicas) for b in f.blocks] == expected
            assert f.num_blocks == len(expected) == dfs.num_blocks(size)

    def test_loading_tables_places_no_blocks(self, monkeypatch):
        """Placements are computed when read, never while loading."""
        built = []

        class Counted(dfs_module.BlockPlacement):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dfs_module, "BlockPlacement", Counted)
        engine = HiveEngine(seed=0, noise_sigma=0.0)
        for spec in build_paper_corpus():
            engine.load_table(spec)
        assert len(engine.dfs.list_files()) > 100  # until the disks fill
        assert built == []
        f = engine.dfs.get_file("/warehouse/t10000000_100")
        assert len(f.blocks) == len(built) == f.num_blocks == 8

    def test_locality_full_with_full_replication(self, dfs):
        dfs.create_file("/f", 128 * MIB)
        assert dfs.locality_fraction("/f") == 1.0

    def test_locality_partial_with_low_replication(self):
        cluster = Cluster(
            ClusterConfig(num_data_nodes=4, dfs_replication=2)
        )
        dfs = DistributedFileSystem(cluster)
        dfs.create_file("/f", 10)
        assert dfs.locality_fraction("/f") == pytest.approx(0.5)


class TestAccounting:
    def test_utilization(self, dfs):
        assert dfs.utilization == 0.0
        dfs.create_file("/f", dfs.cluster.dfs_capacity // 6)
        assert dfs.utilization == pytest.approx(0.5, rel=0.01)

    def test_num_blocks_helper(self, dfs):
        assert dfs.num_blocks(0) == 0
        assert dfs.num_blocks(1) == 1
        assert dfs.num_blocks(128 * MIB + 1) == 2
