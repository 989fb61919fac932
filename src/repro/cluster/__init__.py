"""Simulated shared-nothing cluster substrate.

This package holds only what the engine simulators read: per-node cores
and memory (:mod:`repro.cluster.node`) and the cluster as a pool of task
slots with a per-task memory budget and a DFS block size
(:mod:`repro.cluster.cluster`).  Every simulated elapsed time is computed
from those three quantities.

The paper evaluated on a 4-node Hive VM cluster (1 master + 3 data nodes,
445 GB HDFS, 8 GB RAM and 2 cores per node).  :func:`paper_cluster` builds
its six task slots and 8 GB nodes.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".node": ("CpuProfile", "MemoryProfile"),
        ".cluster": ("Cluster", "ClusterConfig", "paper_cluster"),
    },
)
