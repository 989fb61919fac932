"""Import on first use: what a fresh interpreter loads, and when.

Each test runs in a new interpreter, because this process has long
since imported every module.  The serving import is what
``benchmarks/e2e/sphere.py`` imports; it must leave out the code that
set-up and serving never call, and set-up and serving must then load
no further ``repro`` module, so no import cost hides in a build.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: What the benchmark's set-up process imports.
SERVING_IMPORT = "import repro.serve, repro.master.federation, repro.workloads.traffic"

#: Modules the serving import must not load.
NOT_LOADED_FOR_SERVING = (
    "repro.obs.alerts",
    "repro.obs.health",
    "repro.obs.dashboard",
    "repro.obs.flamegraph",
    "repro.obs.profiler",
    "repro.obs.exporters",
    "repro.obs.rebuild",
    "repro.obs.sampling",
    "repro.obs.flight",
    "repro.workloads.scenarios",
    "repro.core.persistence",
    "repro.cli",
    # The HTTP front parses requests itself: the stdlib's HTTP server
    # and client, and the email and TLS modules they pull in, stay out.
    "http.server",
    "http.client",
    "email",
    "ssl",
)

PACKAGES = (
    "repro",
    "repro.obs",
    "repro.core",
    "repro.workloads",
    "repro.master",
    "repro.ml",
    "repro.engines",
    "repro.sql",
    "repro.data",
    "repro.cluster",
)


def run_fresh(code: str, **env: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    environ = {
        key: value
        for key, value in os.environ.items()
        # Each of these loads a module on purpose (the flight recorder,
        # the sampler); the boundary is drawn for the default set-up.
        if key not in ("REPRO_OBS_FLIGHT_DIR", "REPRO_OBS_PROF")
    }
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), environ.get("PYTHONPATH")))
    )
    environ.update(env)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=environ,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_serving_import_leaves_out_unused_modules():
    loaded = run_fresh(
        f"""
        import json, sys
        {SERVING_IMPORT}
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert not set(NOT_LOADED_FOR_SERVING) & set(loaded)


def test_journal_fold_loads_none_of_the_views_it_feeds():
    """``replay()`` builds what the alert engine, the dashboard and the
    flamegraphs read; it loads none of them itself."""
    loaded = run_fresh(
        """
        import json, sys
        import repro.obs.rebuild
        print(json.dumps(sorted(sys.modules)))
        """
    )
    views = {"repro.obs.alerts", "repro.obs.dashboard", "repro.obs.flamegraph"}
    assert not views & set(loaded)


def test_set_up_and_serving_load_no_further_module():
    """Build a small federation, serve it over HTTP (one estimate past
    the trained rows, so the online remedy runs), swap a model and
    explain a cross-system query: every module that needs is already
    loaded by the serving import (and the names it reads).  Nor does
    any of it load ``numpy.ma``, which ``np.median`` would."""
    outcome = run_fresh(
        """
        import json, sys, urllib.request

        import repro.serve, repro.master.federation, repro.workloads.traffic
        from repro import obs
        from repro.core import (
            ClusterInfo, CostingApproach, LogicalOpModel, OperatorKind,
            RemoteSystemProfile, SubOpTrainer,
        )
        from repro.core.tuning import OfflineTuner
        from repro.data import TableSpec, build_paper_corpus
        from repro.data.schema import paper_schema
        from repro.engines import HiveEngine, SparkEngine
        from repro.master.federation import IntelliSphere
        from repro.serve import ServeDaemon
        from repro.workloads.aggregation import AggregationWorkload
        from repro.workloads.join import JoinWorkload
        from repro.workloads.scan import ScanWorkload

        before = set(sys.modules)

        cluster = ClusterInfo(
            num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
        )
        sphere = IntelliSphere(seed=0)
        sphere.add_remote_system(
            HiveEngine(seed=0, noise_sigma=0.0),
            RemoteSystemProfile(
                name="hive", cluster=cluster, approach=CostingApproach.LOGICAL_OP
            ),
        )
        spark = SparkEngine(seed=0, noise_sigma=0.0)
        sphere.add_remote_system(spark, RemoteSystemProfile(name="spark", cluster=cluster))
        corpus = build_paper_corpus(row_counts=(10_000, 100_000, 1_000_000), row_sizes=(100,))
        for spec in corpus:
            sphere.add_table(spec)
        sphere.add_table(
            TableSpec(
                name="sp_dim", schema=paper_schema(100), num_rows=10_000,
                row_size=100, location="spark",
            )
        )
        for kind, workload in (
            (OperatorKind.SCAN, ScanWorkload(corpus, max_queries=24)),
            (OperatorKind.JOIN, JoinWorkload(corpus, max_queries=24)),
            (OperatorKind.AGGREGATE, AggregationWorkload(corpus, max_queries=24)),
        ):
            sphere.costing.train_logical_op(
                "hive", kind, workload.training_queries(sphere.catalog),
                model=LogicalOpModel(
                    kind, search_topology=False, nn_iterations=50, seed=0,
                    tuner=OfflineTuner(tuning_iterations=10, seed=0),
                ),
            )
        sphere.costing.train_sub_op("spark", SubOpTrainer(record_counts=(1_000_000, 2_000_000)))
        for spec in build_paper_corpus(row_counts=(20_000_000,), row_sizes=(100,)):
            sphere.add_table(spec)  # past the trained rows

        def post(url, payload):
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(), method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status

        with ServeDaemon(sphere, port=0, workers=2) as daemon:
            statuses = [
                post(daemon.url + "/estimate", {
                    "system": "hive",
                    "sql": "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
                }),
                post(daemon.url + "/estimate", {
                    "system": "hive",
                    "sql": "SELECT r.a1 FROM t20000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
                }),
                post(daemon.url + "/swap", {"system": "hive"}),
            ]
        plan = sphere.explain(
            "SELECT SUM(r.a1) FROM t1000000_100 r JOIN sp_dim s ON r.a1 = s.a1 GROUP BY r.a20"
        )
        new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
        print(json.dumps({
            "statuses": statuses,
            "best": plan.best.seconds > 0,
            "new": new,
            "remedies": obs.counter("remedy.activations").value,
            "numpy_ma": "numpy.ma" in sys.modules,
        }))
        """
    )
    assert outcome["statuses"] == [200, 200, 200]
    assert outcome["best"]
    assert outcome["new"] == []
    assert outcome["remedies"] > 0
    assert not outcome["numpy_ma"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    outcome = run_fresh(
        f"""
        import importlib, json
        package = importlib.import_module({package!r})
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        print(json.dumps({{
            "missing": missing,
            "unique": len(set(package.__all__)) == len(package.__all__),
            "in_dir": set(package.__all__) <= set(dir(package)),
        }}))
        """
    )
    assert outcome == {"missing": [], "unique": True, "in_dir": True}


def test_star_import_of_the_top_package():
    outcome = run_fresh(
        """
        import json
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        print(json.dumps(sorted(set(repro.__all__) - set(namespace))))
        """
    )
    assert outcome == []


def test_unknown_name_is_an_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name  # noqa: B018


def test_flight_dir_records_from_the_first_query(tmp_path):
    """``REPRO_OBS_FLIGHT_DIR`` alone turns the recorder on: nothing
    imports :mod:`repro.obs.flight`, yet every served estimate lands in
    its ring."""
    outcome = run_fresh(
        """
        import json, sys

        from repro import obs
        from repro.core import ClusterInfo, RemoteSystemProfile
        from repro.data import build_paper_corpus
        from repro.engines import HiveEngine
        from repro.master.federation import IntelliSphere
        from repro.serve import EstimationService

        sphere = IntelliSphere(seed=0)
        sphere.add_remote_system(
            HiveEngine(seed=0, noise_sigma=0.0),
            RemoteSystemProfile(
                name="hive",
                cluster=ClusterInfo(
                    num_data_nodes=3, cores_per_node=2,
                    dfs_block_size=128 * 1024 * 1024,
                ),
            ),
        )
        for spec in build_paper_corpus(row_counts=(10_000, 100_000), row_sizes=(100,)):
            sphere.add_table(spec)
        sphere.costing.train_sub_op("hive")
        loaded_before = "repro.obs.flight" in sys.modules
        with EstimationService(sphere, workers=2) as service:
            for rows in (10_000, 100_000, 10_000, 100_000, 10_000):
                service.estimate("hive", f"SELECT SUM(a1) FROM t{rows}_100 GROUP BY a20")
        snapshot = obs.plane().flight_recorder.snapshot()
        print(json.dumps({
            "loaded_before": loaded_before,
            "records": len(snapshot["records"]),
        }))
        """,
        REPRO_OBS_FLIGHT_DIR=str(tmp_path),
    )
    assert outcome == {"loaded_before": False, "records": 5}
