"""Pipelined MPP remote-system simulators: Impala and Presto.

The paper names Impala and Presto among the SQL-on-anything systems
IntelliSphere targets and lists "more types of remote systems" as future
work (§8).  Both differ structurally from Hive:

* **no task waves** — long-lived fragments (one per core) pipeline the
  whole query, so elapsed time scales with per-slot work, not with
  cascaded wave counts;
* **tiny startup** — daemons are resident, no JVM/job launch;
* **two join strategies** — *broadcast* and *partitioned* hash joins
  (no bucket or skew variants).

Kernels reflect native (C++/vectorized for Impala, JVM-pipelined for
Presto) execution: lower per-record intercepts than Hive's MapReduce.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cluster.cluster import Cluster, paper_cluster
from repro.engines.base import EngineCapabilities
from repro.engines.execution import DfsEngine, EngineTuning
from repro.engines.physical import BroadcastJoin, ShuffleHashJoin
from repro.engines.planner import PhysicalPlanner
from repro.engines.subops import KernelSet, SubOp, SubOpKernel, TwoRegimeKernel


def impala_kernels(per_task_memory: int) -> KernelSet:
    """Impala kernel set: vectorized C++ execution, cheap CPU paths."""
    kernels = {
        SubOp.READ_DFS: SubOpKernel(slope=0.0036, intercept=0.30),
        SubOp.WRITE_DFS: SubOpKernel(slope=0.0290, intercept=0.45),
        SubOp.READ_LOCAL: SubOpKernel(slope=0.0012, intercept=0.10),
        SubOp.WRITE_LOCAL: SubOpKernel(slope=0.0095, intercept=0.18),
        SubOp.SHUFFLE: SubOpKernel(slope=0.0055, intercept=1.4),
        SubOp.BROADCAST: SubOpKernel(slope=0.0060, intercept=0.9),
        SubOp.SORT: SubOpKernel(slope=0.0030, intercept=0.8),
        SubOp.SCAN: SubOpKernel(slope=0.0005, intercept=0.05),
        SubOp.HASH_PROBE: SubOpKernel(slope=0.0016, intercept=0.35),
        SubOp.REC_MERGE: SubOpKernel(slope=0.0120, intercept=9.0),
    }
    hash_build = TwoRegimeKernel(
        in_memory=SubOpKernel(slope=0.0110, intercept=6.5),
        spilling=SubOpKernel(slope=0.0950, intercept=-18.0),
        memory_budget=per_task_memory,
    )
    return KernelSet(kernels, hash_build)


def presto_kernels(per_task_memory: int) -> KernelSet:
    """Presto kernel set: JVM pipelined execution, between Hive and Impala."""
    kernels = {
        SubOp.READ_DFS: SubOpKernel(slope=0.0039, intercept=0.45),
        SubOp.WRITE_DFS: SubOpKernel(slope=0.0300, intercept=0.60),
        SubOp.READ_LOCAL: SubOpKernel(slope=0.0018, intercept=0.16),
        SubOp.WRITE_LOCAL: SubOpKernel(slope=0.0120, intercept=0.25),
        SubOp.SHUFFLE: SubOpKernel(slope=0.0072, intercept=2.0),
        SubOp.BROADCAST: SubOpKernel(slope=0.0068, intercept=1.1),
        SubOp.SORT: SubOpKernel(slope=0.0040, intercept=1.2),
        SubOp.SCAN: SubOpKernel(slope=0.0007, intercept=0.09),
        SubOp.HASH_PROBE: SubOpKernel(slope=0.0022, intercept=0.55),
        SubOp.REC_MERGE: SubOpKernel(slope=0.0160, intercept=14.0),
    }
    hash_build = TwoRegimeKernel(
        in_memory=SubOpKernel(slope=0.0150, intercept=9.0),
        spilling=SubOpKernel(slope=0.1200, intercept=-28.0),
        memory_budget=per_task_memory,
    )
    return KernelSet(kernels, hash_build)


class PartitionedHashJoin(ShuffleHashJoin):
    """MPP partitioned hash join: the unconditional fallback strategy.

    Unlike Spark's shuffle hash join (skipped when a partition would not
    fit), Impala/Presto spill the build side to disk — the two-regime
    hash-build kernel prices that spill."""

    name = "partitioned_hash_join"

    def applicable(self, ctx) -> bool:
        return ctx.is_equi


#: Impala's join strategies: broadcast, else partitioned hash join.
IMPALA_JOIN_ALGORITHMS = (
    BroadcastJoin(name="broadcast_hash_join"),
    PartitionedHashJoin(),
)

#: Presto's join distribution types mirror Impala's.
PRESTO_JOIN_ALGORITHMS = (
    BroadcastJoin(name="broadcast_hash_join"),
    PartitionedHashJoin(),
)


class ImpalaEngine(DfsEngine):
    """An Impala remote system: pipelined MPP over HDFS."""

    def __init__(
        self,
        name: str = "impala",
        cluster: Optional[Cluster] = None,
        tuning: Optional[EngineTuning] = None,
        seed: int = 0,
        noise_sigma: Optional[float] = None,
    ) -> None:
        cluster = cluster or paper_cluster(name="impala-vm")
        tuning = tuning or EngineTuning(
            job_startup=0.08,
            wave_startup=0.0,
            overlap_factor=0.90,
            noise_sigma=0.04,
        )
        if noise_sigma is not None:
            tuning = dataclasses.replace(tuning, noise_sigma=noise_sigma)
        super().__init__(
            name=name,
            cluster=cluster,
            kernels=impala_kernels(cluster.per_task_memory),
            planner=PhysicalPlanner(IMPALA_JOIN_ALGORITHMS),
            tuning=tuning,
            capabilities=EngineCapabilities(),
            seed=seed,
            pipelined=True,
        )


class PrestoEngine(DfsEngine):
    """A Presto remote system: pipelined MPP over a connector source."""

    def __init__(
        self,
        name: str = "presto",
        cluster: Optional[Cluster] = None,
        tuning: Optional[EngineTuning] = None,
        seed: int = 0,
        noise_sigma: Optional[float] = None,
    ) -> None:
        cluster = cluster or paper_cluster(name="presto-vm")
        tuning = tuning or EngineTuning(
            job_startup=0.15,
            wave_startup=0.0,
            overlap_factor=0.90,
            noise_sigma=0.04,
        )
        if noise_sigma is not None:
            tuning = dataclasses.replace(tuning, noise_sigma=noise_sigma)
        super().__init__(
            name=name,
            cluster=cluster,
            kernels=presto_kernels(cluster.per_task_memory),
            planner=PhysicalPlanner(PRESTO_JOIN_ALGORITHMS),
            tuning=tuning,
            capabilities=EngineCapabilities(),
            seed=seed,
            pipelined=True,
        )
