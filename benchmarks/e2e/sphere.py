"""The benchmark's federation, and the program under test as a run sets it up.

* ``hive`` holds the 120-table paper corpus and serves logical-op NN
  models for scan, join and aggregate, trained with the traffic
  simulator's fast seeded recipe on the <= 8M-row, 100-byte slice.
  Shapes on the 20M-80M-row tables fall outside that range and take the
  online remedy.
* ``spark`` holds 12 dimension tables and serves sub-op models.  It also
  mirrors the corpus, so a Hive-shaped query has a simulated actual
  time on Spark too (the q-error sample needs one).
* the Teradata master, with its own cost model.

Every engine runs with ``noise_sigma=0``, so actual times are
deterministic, and the models are trained from a fixed seed, so every
run serves the same estimates whatever the workload seed.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core import (
    ClusterInfo,
    CostingApproach,
    EstimateCache,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
    SubOpTrainer,
)
from repro.core.tuning import OfflineTuner
from repro.data import TableSpec, build_paper_corpus
from repro.data.schema import paper_schema
from repro.engines import HiveEngine, SparkEngine
from repro.master.federation import IntelliSphere
from repro.serve import ServeDaemon
from repro.sql.parser import parse_select
from repro.workloads.aggregation import AggregationWorkload
from repro.workloads.join import JoinWorkload
from repro.workloads.scan import ScanWorkload
from repro.workloads.traffic import TrafficConfig

from . import speed
from .trace import Tracer, export_spans
from .workloads import (
    HIVE_IN_RANGE_ROWS,
    ROW_SIZE,
    SPARK_DIM_ROWS,
    Workload,
    q_error_sample,
    spark_dim,
)

#: Seed of the engines and the trained models (not the workload seed).
FEDERATION_SEED = 2020

#: Serving threads, one per client session.
WORKERS = 2

#: Set-up is measured in this many fresh processes (the served one and
#: set-up-only ones), each importing the program once and building the
#: federation :data:`SETUP_REPS` times; ``setup_s`` is the median import
#: plus the median build.  On the seed host a single import spread
#: 12-18% between runs, and these medians 4-14%.
SETUP_PROCESSES = 3
SETUP_REPS = 2

_CLUSTER = ClusterInfo(
    num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
)


@dataclass
class SetupTimes:
    """Seconds spent in each set-up phase of one federation build."""

    load_tables_s: float = 0.0
    train_logical_op_s: float = 0.0
    train_sub_op_s: float = 0.0
    serving_ready_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.load_tables_s
            + self.train_logical_op_s
            + self.train_sub_op_s
            + self.serving_ready_s
        )

    def scaled(self, scale: float) -> "SetupTimes":
        return SetupTimes(
            *(getattr(self, f.name) * scale for f in dataclasses.fields(self))
        )


def setup_metrics(samples: List[dict]) -> Dict[str, Tuple[float, int]]:
    """``{name: (seconds, samples)}`` from the set-up processes' samples
    (``{"import_s": ..., "builds": [SetupTimes fields, ...]}`` each)."""
    imports = [sample["import_s"] for sample in samples]
    builds = [SetupTimes(**build) for sample in samples for build in sample["builds"]]
    metrics = {
        "setup_s": (median(imports) + median(b.total_s for b in builds), len(imports)),
        "setup.import_s": (median(imports), len(imports)),
    }
    for phase in ("load_tables_s", "train_logical_op_s", "train_sub_op_s"):
        metrics[f"setup.{phase}"] = (median(getattr(b, phase) for b in builds), len(builds))
    return metrics


def build_sphere(
    cache: Optional[EstimateCache] = None, times: Optional[SetupTimes] = None
) -> IntelliSphere:
    """Build and train the federation.  Pass ``EstimateCache(0)`` for
    the uncached reference; ``times`` receives the phase timings."""
    times = times if times is not None else SetupTimes()
    started = time.perf_counter()
    sphere = IntelliSphere(seed=FEDERATION_SEED, estimate_cache=cache)
    hive = HiveEngine(seed=FEDERATION_SEED, noise_sigma=0.0)
    spark = SparkEngine(seed=FEDERATION_SEED, noise_sigma=0.0)
    sphere.add_remote_system(
        hive,
        RemoteSystemProfile(
            name="hive", cluster=_CLUSTER, approach=CostingApproach.LOGICAL_OP
        ),
    )
    spark_profile = RemoteSystemProfile(name="spark", cluster=_CLUSTER)
    spark_profile.costing.join_family = "spark"
    sphere.add_remote_system(spark, spark_profile)
    for spec in build_paper_corpus():
        sphere.add_table(spec)
        spark.load_table(spec.with_location("spark"))
    for rows in SPARK_DIM_ROWS:
        sphere.add_table(
            TableSpec(
                name=spark_dim(rows),
                schema=paper_schema(ROW_SIZE),
                num_rows=rows,
                row_size=ROW_SIZE,
                location="spark",
            )
        )
    loaded = time.perf_counter()
    times.load_tables_s = loaded - started

    recipe = TrafficConfig()
    slice_ = build_paper_corpus(row_counts=HIVE_IN_RANGE_ROWS, row_sizes=(ROW_SIZE,))
    for kind, workload in (
        (OperatorKind.SCAN, ScanWorkload(slice_, max_queries=recipe.train_budget)),
        (OperatorKind.JOIN, JoinWorkload(slice_, max_queries=recipe.train_budget)),
        (
            OperatorKind.AGGREGATE,
            AggregationWorkload(slice_, max_queries=recipe.train_budget),
        ),
    ):
        sphere.costing.train_logical_op(
            "hive",
            kind,
            workload.training_queries(sphere.catalog),
            model=LogicalOpModel(
                kind,
                search_topology=False,
                nn_iterations=recipe.nn_iterations,
                seed=FEDERATION_SEED,
                tuner=OfflineTuner(
                    tuning_iterations=recipe.tuning_iterations,
                    seed=FEDERATION_SEED,
                ),
            ),
        )
    trained = time.perf_counter()
    times.train_logical_op_s = trained - loaded

    sphere.costing.train_sub_op(
        "spark", SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    )
    times.train_sub_op_s = time.perf_counter() - trained
    return sphere


def start_daemon(sphere: IntelliSphere, times: SetupTimes) -> ServeDaemon:
    """Start ``repro serve``'s daemon on an ephemeral loopback port."""
    started = time.perf_counter()
    daemon = ServeDaemon(sphere, port=0, workers=WORKERS).start()
    times.serving_ready_s = time.perf_counter() - started
    return daemon


def reference_sphere() -> IntelliSphere:
    """The same federation with the estimate cache disabled."""
    return build_sphere(cache=EstimateCache(max_entries=0))


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark (VmHWM)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark since its reset."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


#: Counters the traced phase reports as its own deltas.
_SERVE_COUNTERS = (
    "serve.worker_busy_seconds",
    "serve.worker_idle_seconds",
    "serve.rejected",
)


class Served:
    """The program under test, as one workload runs it.

    Built :data:`SETUP_REPS` times (the last build is kept) and, for the
    HTTP workloads, serving on a loopback port.  ``setup`` is this
    process's set-up sample for :func:`setup_metrics`, at the reference
    speed (see :mod:`.speed`).  The peak memory is counted from the end
    of set-up.
    """

    def __init__(self, workload: Workload, import_s: float) -> None:
        self.workload = workload
        self.sphere: Optional[IntelliSphere] = None
        self.daemon: Optional[ServeDaemon] = None
        builds: List[dict] = []
        for _ in range(SETUP_REPS):
            self.close()
            self.sphere = None
            gc.collect()
            times = SetupTimes()
            with speed.Stopwatch() as build:
                self.sphere = build_sphere(times=times)
                if workload.http:
                    self.daemon = start_daemon(self.sphere, times)
            builds.append(dataclasses.asdict(times.scaled(build.scale)))
        self.setup = {"import_s": import_s, "builds": builds}
        self.tracer: Optional[Tracer] = None
        self._cache_before: Dict[str, float] = {}
        self._counters_before: Dict[str, float] = {}
        gc.collect()
        reset_peak_rss()

    @property
    def port(self) -> Optional[int]:
        return self.daemon.server.port if self.daemon else None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def trace_on(self) -> Tracer:
        self.tracer = Tracer()
        self.tracer.install()
        self._cache_before = self.sphere.costing.cache.stats()
        self._counters_before = {name: obs.counter(name).value for name in _SERVE_COUNTERS}
        return self.tracer

    def trace_off(self) -> Dict[str, float]:
        """Uninstall the tracer; the traced phase's cache and pool numbers."""
        self.tracer.uninstall()
        before, after = self._cache_before, self.sphere.costing.cache.stats()
        lookups = after["lookups"] - before["lookups"]
        counted = {
            name: obs.counter(name).value - value
            for name, value in self._counters_before.items()
        }
        pool = counted["serve.worker_busy_seconds"] + counted["serve.worker_idle_seconds"]
        return {
            "lookups": lookups,
            "core.estimate_cache.hit_rate": (
                (after["hits"] - before["hits"]) / lookups if lookups else 0.0
            ),
            "core.estimate_cache.evictions": after["evictions"] - before["evictions"],
            "core.estimate_cache.size_final": after["size"],
            "serve.utilization": (
                counted["serve.worker_busy_seconds"] / pool if pool else 0.0
            ),
            "serve.rejected": counted["serve.rejected"],
        }

    def exported_spans(self) -> List[list]:
        return export_spans(self.tracer.spans)

    def q_errors(self) -> List[float]:
        """The fixed sample's served estimates against simulated actuals."""
        estimates, actuals = [], []
        for system, sql in q_error_sample(self.workload.name):
            if self.workload.http:
                estimates.append(self.daemon.service.estimate(system, sql)["seconds"])
                engine = self.sphere.costing.system(system)
                actuals.append(engine.execute(parse_select(sql)).elapsed_seconds)
            else:
                estimates.append(self.sphere.explain(sql).best.seconds)
                actuals.append(self.sphere.run(sql).observed_seconds)
        return [max(e / a, a / e) for e, a in zip(estimates, actuals)]

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
