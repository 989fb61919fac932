"""Simulated shared-nothing cluster substrate.

This package models the *hardware* side of a remote system: nodes with CPU,
memory and disk profiles (:mod:`repro.cluster.node`), the cluster as a whole
(:mod:`repro.cluster.cluster`), an HDFS-like distributed file system with
block placement and replication (:mod:`repro.cluster.dfs`), and a network
fabric for shuffle/broadcast traffic (:mod:`repro.cluster.network`).

The paper evaluated on a 4-node Hive VM cluster (1 master + 3 data nodes,
445 GB HDFS, 8 GB RAM and 2 cores per node).  :func:`paper_cluster` builds
that exact configuration.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".node": ("CpuProfile", "DiskProfile", "MemoryProfile", "NodeSpec"),
        ".cluster": ("Cluster", "ClusterConfig", "paper_cluster"),
        ".dfs": ("BlockPlacement", "DfsFile", "DistributedFileSystem"),
        ".network": ("NetworkFabric",),
    },
)
