"""repro — reproduction of *Cost Estimation Across Heterogeneous SQL-Based
Big Data Infrastructures in Teradata IntelliSphere* (EDBT 2020).

The package rebuilds the paper's cost-estimation module plus every
substrate it depends on:

* :mod:`repro.cluster` — simulated shared-nothing cluster hardware;
* :mod:`repro.data` — synthetic tables, statistics, catalogs (Fig. 10);
* :mod:`repro.sql` — SQL AST, logical plans, parser, cardinalities;
* :mod:`repro.engines` — Hive / Spark / RDBMS remote-system simulators;
* :mod:`repro.ml` — from-scratch regression and neural networks;
* :mod:`repro.core` — **the paper's contribution**: logical-op, sub-op,
  and hybrid costing with online remedy and offline tuning;
* :mod:`repro.master` — QueryGrid, Teradata cost model, placement
  optimizer, and the :class:`~repro.master.federation.IntelliSphere`
  facade;
* :mod:`repro.workloads` — the §7 training/evaluation workloads.

Every package resolves the names it re-exports on first use
(:mod:`repro._lazy`): ``import repro`` loads no subpackage, and a
process loads only the modules it runs.

Quickstart::

    from repro import IntelliSphere, HiveEngine, RemoteSystemProfile, ClusterInfo

    sphere = IntelliSphere()
    hive = HiveEngine()
    profile = RemoteSystemProfile(
        name="hive",
        cluster=ClusterInfo(num_data_nodes=3, cores_per_node=2,
                            dfs_block_size=128 * 1024 * 1024),
    )
    sphere.add_remote_system(hive, profile)
    # ... add tables, train costing, then sphere.explain("SELECT ...")
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(
    globals(),
    {
        ".cluster": ("Cluster", "ClusterConfig", "paper_cluster"),
        ".core": (
            "AggregateOperatorStats",
            "ClusterInfo",
            "CostEstimationModule",
            "CostingApproach",
            "CostingProfile",
            "JoinOperatorStats",
            "LogicalOpModel",
            "OperatorKind",
            "RemoteSystemProfile",
            "ScanOperatorStats",
            "SubOpTrainer",
            "TrainingQuery",
        ),
        ".data": ("Catalog", "TableSpec", "build_paper_corpus"),
        ".engines": (
            "HiveEngine",
            "ImpalaEngine",
            "PrestoEngine",
            "RdbmsEngine",
            "RemoteSystem",
            "SparkEngine",
        ),
        ".master": ("IntelliSphere", "PlacementOptimizer", "QueryGrid"),
        ".sql": ("parse_select", "scan"),
        ".workloads": ("AggregationWorkload", "JoinWorkload", "OutOfRangeWorkload"),
    },
) + ["__version__"]
