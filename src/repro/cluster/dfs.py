"""HDFS-like distributed file system model.

The DFS tracks files as sequences of fixed-size blocks, places replicas
round-robin across data nodes, and accounts for capacity.  The engine
simulators consult it for block counts (which drive task counts) and for
data-locality: like HDFS, a map task reads its block from the local disk
when a replica is co-located, which the paper notes happens > 90% of the
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class BlockPlacement:
    """Replica locations of one DFS block.

    Attributes:
        index: Block index within its file, starting at zero.
        size: Block size in bytes (the final block may be short).
        replicas: Names of the data nodes holding a replica.
    """

    index: int
    size: int
    replicas: Tuple[str, ...]


@dataclass(frozen=True)
class DfsFile:
    """A file stored in the DFS: its size and its placement inputs.

    Attributes:
        path: DFS path, e.g. ``"/warehouse/t1_40"``.
        size: Logical (un-replicated) size in bytes.
        ordinal: How many files the DFS had created before this one
            (*k* in :class:`DistributedFileSystem`'s placement policy).
        block_size: Bytes per full block.
        replication: Replicas per block.
        data_nodes: Names of the data nodes, in placement order.
    """

    path: str
    size: int
    ordinal: int
    block_size: int
    replication: int
    data_nodes: Tuple[str, ...]

    @property
    def num_blocks(self) -> int:
        return _block_count(self.size, self.block_size)

    @property
    def blocks(self) -> Tuple[BlockPlacement, ...]:
        """Block placements covering the file, computed when read."""
        nodes = self.data_nodes
        n = len(nodes)
        return tuple(
            BlockPlacement(
                index=i,
                size=min(self.block_size, self.size - i * self.block_size),
                replicas=tuple(
                    nodes[(self.ordinal + i + r) % n]
                    for r in range(self.replication)
                ),
            )
            for i in range(self.num_blocks)
        )


class DistributedFileSystem:
    """Block-structured replicated file system over a cluster's data nodes.

    Placement policy: the first replica of block *i* of the *k*-th created
    file (counting from zero) goes to data node ``(k + i) mod N`` and the
    remaining replicas to the following nodes — a simple deterministic
    stand-in for HDFS's rack-aware placement that still spreads load
    evenly.  A file keeps only *k* and its size; :attr:`DfsFile.blocks`
    computes the placements when read, since no costing path reads them.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.block_size = cluster.config.dfs_block_size
        self.replication = cluster.config.dfs_replication
        self._data_nodes = tuple(n.name for n in cluster.data_nodes)
        self._files: Dict[str, DfsFile] = {}
        self._used_raw: int = 0
        self._file_counter: int = 0

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def create_file(self, path: str, size: int) -> DfsFile:
        """Create a file of ``size`` logical bytes and place its blocks.

        Raises:
            ConfigurationError: if the path already exists, the size is
                negative, or the cluster would run out of raw capacity.
        """
        if path in self._files:
            raise ConfigurationError(f"DFS path already exists: {path}")
        if size < 0:
            raise ConfigurationError(f"file size must be >= 0, got {size}")
        raw = size * self.replication
        if self._used_raw + raw > self.cluster.dfs_capacity:
            raise ConfigurationError(
                f"DFS out of capacity creating {path}: need {raw} raw bytes, "
                f"{self.cluster.dfs_capacity - self._used_raw} free"
            )
        dfs_file = DfsFile(
            path=path,
            size=size,
            ordinal=self._file_counter,
            block_size=self.block_size,
            replication=self.replication,
            data_nodes=self._data_nodes,
        )
        self._files[path] = dfs_file
        self._used_raw += raw
        self._file_counter += 1
        return dfs_file

    def delete_file(self, path: str) -> None:
        """Remove a file and reclaim its raw capacity."""
        try:
            dfs_file = self._files.pop(path)
        except KeyError:
            raise ConfigurationError(f"DFS path not found: {path}") from None
        self._used_raw -= dfs_file.size * self.replication

    def get_file(self, path: str) -> DfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise ConfigurationError(f"DFS path not found: {path}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> Sequence[DfsFile]:
        return tuple(self._files.values())

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def used_raw_bytes(self) -> int:
        """Raw bytes consumed, including replication."""
        return self._used_raw

    @property
    def free_raw_bytes(self) -> int:
        return self.cluster.dfs_capacity - self._used_raw

    @property
    def utilization(self) -> float:
        """Fraction of raw capacity in use, in [0, 1]."""
        capacity = self.cluster.dfs_capacity
        return self._used_raw / capacity if capacity else 0.0

    # ------------------------------------------------------------------
    # Queries used by the engines
    # ------------------------------------------------------------------
    def num_blocks(self, size: int) -> int:
        """Number of blocks a file of ``size`` bytes occupies."""
        return _block_count(size, self.block_size)

    def locality_fraction(self, path: str) -> float:
        """Fraction of the file's blocks with a replica on every data node.

        When replication covers all data nodes every task is local (1.0);
        otherwise locality equals replication / num_data_nodes, matching
        the >90% best-effort locality the paper cites for small clusters.
        """
        self.get_file(path)
        n = self.cluster.config.num_data_nodes
        return min(1.0, self.replication / n)

    def __repr__(self) -> str:
        return (
            f"DistributedFileSystem(files={len(self._files)}, "
            f"used={self._used_raw}, capacity={self.cluster.dfs_capacity})"
        )


def _block_count(size: int, block_size: int) -> int:
    return math.ceil(size / block_size) if size > 0 else 0
