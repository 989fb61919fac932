"""Cluster-level configuration and derived scheduling quantities.

A :class:`Cluster` exposes the three quantities the engine simulators
compute every elapsed time from: total task slots (data nodes x cores),
the per-task memory budget, and the DFS block size, which sets the number
of map tasks and so the number of *task waves* a job requires (the
``NumTaskWaves`` term of the paper's Fig. 6 cost formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.node import CpuProfile, GIB, MemoryProfile
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ClusterConfig:
    """Declarative description of a homogeneous cluster.

    Attributes:
        name: Cluster identifier used in remote-system profiles.
        num_data_nodes: Worker nodes that run tasks.
        node_cpu: CPU profile shared by all data nodes.
        node_memory: Memory profile shared by all data nodes.
        dfs_block_size: DFS block size in bytes (Hadoop default 128 MiB).
    """

    name: str = "cluster"
    num_data_nodes: int = 3
    node_cpu: CpuProfile = field(default_factory=CpuProfile)
    node_memory: MemoryProfile = field(default_factory=MemoryProfile)
    dfs_block_size: int = 128 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.num_data_nodes < 1:
            raise ConfigurationError(
                f"num_data_nodes must be >= 1, got {self.num_data_nodes}"
            )
        if self.dfs_block_size <= 0:
            raise ConfigurationError("dfs_block_size must be positive")


class Cluster:
    """A pool of task slots plus the derived scheduling arithmetic.

    The engine simulators treat the cluster as a pool of task slots: one
    slot per data-node core.  Jobs larger than the pool run in cascaded
    *waves* (paper §4, Fig. 6).
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config

    @property
    def total_task_slots(self) -> int:
        """Total concurrent task slots = data-node count x cores per node."""
        return self.config.num_data_nodes * self.config.node_cpu.cores

    @property
    def per_task_memory(self) -> int:
        """Memory budget of a single task's operator workspace, bytes."""
        return self.config.node_memory.per_task

    def num_task_waves(self, num_tasks: int) -> int:
        """Number of cascaded task waves for a job of ``num_tasks`` tasks.

        This is the ``NumTaskWaves`` factor of the paper's Fig. 6 formula:
        total tasks divided by the total parallelism, rounded up.  A job
        with zero tasks takes zero waves.
        """
        if num_tasks < 0:
            raise ConfigurationError(f"num_tasks must be >= 0, got {num_tasks}")
        if num_tasks == 0:
            return 0
        return math.ceil(num_tasks / self.total_task_slots)

    def num_tasks_for_bytes(self, total_bytes: int) -> int:
        """Number of map tasks to scan ``total_bytes`` of DFS data.

        One task per DFS block, as in Hadoop's default input-split policy.
        Always at least one task for a non-empty input.
        """
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be >= 0")
        if total_bytes == 0:
            return 0
        return max(1, math.ceil(total_bytes / self.config.dfs_block_size))

    def __repr__(self) -> str:
        return (
            f"Cluster(name={self.config.name!r}, "
            f"data_nodes={self.config.num_data_nodes}, "
            f"slots={self.total_task_slots})"
        )


def paper_cluster(name: str = "hive-vm") -> Cluster:
    """Build the 4-node cluster of the paper's evaluation (§7).

    The paper's cluster has one master plus three data nodes; each node
    has 8 GB of memory and two Intel Xeon E5-2683 cores at 2.0 GHz, and
    the HDFS holds 445 GB in total.  The simulator models what reaches an
    elapsed time: six task slots (three data nodes x two cores), a
    quarter of 8 GiB per task, and 128 MiB DFS blocks.  The master, the
    clock speed and the HDFS capacity appear in no cost.
    """
    config = ClusterConfig(
        name=name,
        num_data_nodes=3,
        node_cpu=CpuProfile(cores=2),
        node_memory=MemoryProfile(total=8 * GIB),
    )
    return Cluster(config)
