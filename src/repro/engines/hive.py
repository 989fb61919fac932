"""Hive/Hadoop remote-system simulator — the paper's evaluated engine (§7).

Hive executes through MapReduce: high job-startup overhead, materialized
shuffles, and the five join algorithms of §4 (Shuffle Join, Broadcast
Join, Bucket Map Join, Sort Merge Bucket Join, Skew Join).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cluster.cluster import Cluster, paper_cluster
from repro.engines.base import EngineCapabilities
from repro.engines.execution import DfsEngine, EngineTuning
from repro.engines.physical import HIVE_JOIN_ALGORITHMS
from repro.engines.planner import PhysicalPlanner
from repro.engines.subops import hive_kernels


class HiveEngine(DfsEngine):
    """A Hive remote system over a simulated Hadoop cluster.

    Args:
        name: System name used in profiles and catalogs.
        cluster: Simulated cluster; defaults to the paper's 4-node VM
            cluster.
        tuning: Execution overhead constants; the defaults reflect
            MapReduce's heavy job startup.
        seed: Measurement-noise seed (deterministic runs).
        noise_sigma: Overrides the tuning's noise level when given.
    """

    def __init__(
        self,
        name: str = "hive",
        cluster: Optional[Cluster] = None,
        tuning: Optional[EngineTuning] = None,
        seed: int = 0,
        noise_sigma: Optional[float] = None,
    ) -> None:
        cluster = cluster or paper_cluster()
        tuning = tuning or EngineTuning(
            job_startup=1.5,
            wave_startup=0.30,
            overlap_factor=0.93,
            noise_sigma=0.04,
        )
        if noise_sigma is not None:
            tuning = dataclasses.replace(tuning, noise_sigma=noise_sigma)
        super().__init__(
            name=name,
            cluster=cluster,
            kernels=hive_kernels(cluster.per_task_memory),
            planner=PhysicalPlanner(HIVE_JOIN_ALGORITHMS),
            tuning=tuning,
            capabilities=EngineCapabilities(),
            seed=seed,
        )
