"""SparkSQL remote-system simulator.

Spark pipelines operators in memory: lower job startup than Hive, cheaper
shuffles, and its own five join algorithms (§4): Broadcast Hash Join,
Shuffle Hash Join, SortMerge Join, Broadcast NestedLoop Join, and
Cartesian Product Join.  The paper lists SparkSQL as near-term future
work; we include it to exercise the hybrid costing across two openbox
engines.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cluster.cluster import Cluster, paper_cluster
from repro.engines.base import EngineCapabilities
from repro.engines.execution import DfsEngine, EngineTuning
from repro.engines.physical import SPARK_JOIN_ALGORITHMS
from repro.engines.planner import PhysicalPlanner
from repro.engines.subops import spark_kernels


class SparkEngine(DfsEngine):
    """A SparkSQL remote system over a simulated cluster."""

    def __init__(
        self,
        name: str = "spark",
        cluster: Optional[Cluster] = None,
        tuning: Optional[EngineTuning] = None,
        seed: int = 0,
        noise_sigma: Optional[float] = None,
    ) -> None:
        cluster = cluster or paper_cluster(name="spark-vm")
        tuning = tuning or EngineTuning(
            job_startup=0.7,
            wave_startup=0.12,
            overlap_factor=0.90,
            noise_sigma=0.04,
        )
        if noise_sigma is not None:
            tuning = dataclasses.replace(tuning, noise_sigma=noise_sigma)
        super().__init__(
            name=name,
            cluster=cluster,
            kernels=spark_kernels(cluster.per_task_memory),
            planner=PhysicalPlanner(SPARK_JOIN_ALGORITHMS),
            tuning=tuning,
            capabilities=EngineCapabilities(),
            seed=seed,
        )
