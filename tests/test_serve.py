"""The concurrent estimation service: admission control, worker-pool
determinism (bit-identical to single-threaded runs), graceful model
swaps under load, and the HTTP endpoints on the shared obs port."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import ClusterInfo, RemoteSystemProfile
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.master.federation import IntelliSphere
from repro.serve import (
    AdmissionQueue,
    AdmissionRejected,
    EstimationService,
    ServeDaemon,
)
from repro.sql.parser import parse_select

QUERIES = (
    "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
    "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
    "SELECT a1 FROM t100000_100 WHERE a1 = 7",
    "SELECT SUM(a2) FROM t100000_40 GROUP BY a5",
    "SELECT r.a1 FROM t1000000_40 r JOIN t10000_40 s ON r.a1 = s.a1",
)


@pytest.fixture(scope="module")
def sphere():
    sphere = IntelliSphere(seed=0)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(
        HiveEngine(seed=0, noise_sigma=0.0),
        RemoteSystemProfile(name="hive", cluster=info),
    )
    for spec in build_paper_corpus(
        row_counts=(10_000, 100_000, 1_000_000), row_sizes=(40, 100)
    ):
        sphere.add_table(spec)
    sphere.costing.train_sub_op("hive")
    return sphere


@pytest.fixture(autouse=True)
def obs_state():
    """A fresh observability plane per test, restored on exit."""
    previous = obs.install(obs.ObsPlane())
    yield
    obs.install(previous)


def serial_reference(sphere):
    """Single-threaded estimates, computed on a cold cache."""
    sphere.costing.invalidate_cache()
    reference = {}
    for sql in QUERIES:
        estimate = sphere.costing.estimate_plan(
            "hive", parse_select(sql), sphere.catalog
        )
        reference[sql] = estimate.seconds
    return reference


class TestAdmissionQueue:
    def test_fifo_and_depth(self):
        queue = AdmissionQueue(limit=4)
        jobs = []
        for index in range(3):
            job = _noop_job(index)
            jobs.append(job)
            queue.offer(job)
        assert queue.depth == 3
        assert [queue.take() for _ in range(3)] == jobs
        assert queue.depth == 0

    def test_overflow_rejects_with_retry_after(self):
        queue = AdmissionQueue(limit=2, retry_after=0.5)
        queue.offer(_noop_job(0))
        queue.offer(_noop_job(1))
        with pytest.raises(AdmissionRejected) as excinfo:
            queue.offer(_noop_job(2))
        assert excinfo.value.depth == 2
        assert excinfo.value.limit == 2
        assert excinfo.value.retry_after == 0.5
        assert obs.counter("serve.rejected").value == 1.0

    def test_closed_queue_drains_then_signals_shutdown(self):
        queue = AdmissionQueue(limit=4)
        admitted = _noop_job(0)
        queue.offer(admitted)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.offer(_noop_job(1))
        assert queue.take() is admitted  # already-admitted work drains
        assert queue.take() is None  # then workers are told to exit

    def test_bad_depth_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            AdmissionQueue(limit=0)


def _noop_job(index):
    from repro.serve import _Job

    return _Job(
        context=obs.build_query_context(query=f"job-{index}"),
        work=lambda: index,
        enqueued=0.0,
    )


class TestConcurrentDeterminism:
    def test_eight_workers_bit_identical_to_serial(self, sphere):
        """The acceptance criterion: estimates served through 8
        concurrent workers equal single-threaded runs bit for bit."""
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        with EstimationService(sphere, workers=8, queue_depth=256) as service:
            results = [[] for _ in range(8)]
            errors = []

            def client(slot):
                try:
                    for round_index in range(5):
                        sql = QUERIES[(slot + round_index) % len(QUERIES)]
                        payload = service.estimate("hive", sql)
                        results[slot].append((sql, payload))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert errors == []
        checked = 0
        for slot_results in results:
            assert len(slot_results) == 5
            for sql, payload in slot_results:
                assert payload["seconds"] == reference[sql]  # bit-identical
                checked += 1
        assert checked == 40
        assert obs.counter("serve.completed").value == 40.0
        assert obs.counter("serve.errors").value == 0.0

    def test_query_ids_minted_at_admission(self, sphere):
        with EstimationService(sphere, workers=2) as service:
            jobs = [
                service.submit(lambda: None, query=f"q{i}") for i in range(4)
            ]
            for job in jobs:
                assert job.done.wait(timeout=10.0)
        assert [job.context.query_id for job in jobs] == [
            "q-000001",
            "q-000002",
            "q-000003",
            "q-000004",
        ]

    def test_tenant_attribution_through_the_pool(self, sphere):
        with EstimationService(sphere, workers=2) as service:
            service.estimate("hive", QUERIES[2], tenant="etl")
            service.estimate("hive", QUERIES[2], tenant="etl")
            service.estimate("hive", QUERIES[3], tenant="adhoc")
        snapshot = obs.plane().tenants.snapshot()
        assert snapshot["etl"]["queries"] == 2
        assert snapshot["adhoc"]["queries"] == 1

    def test_worker_errors_do_not_kill_the_pool(self, sphere):
        with EstimationService(sphere, workers=1) as service:
            with pytest.raises(ZeroDivisionError):
                service.execute(lambda: 1 / 0)
            assert service.execute(lambda: 7) == 7
        assert obs.counter("serve.errors").value == 1.0


class TestSwapUnderLoad:
    def test_swap_mid_load_keeps_estimates_identical(self, sphere):
        """Mid-load swaps: zero rejects caused by the swap, bit-identical
        estimates throughout, and no stale-generation cache entries."""
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        stop = threading.Event()
        mismatches = []
        errors = []
        served = {"count": 0}

        with EstimationService(sphere, workers=8, queue_depth=512) as service:

            def client(slot):
                index = slot
                while not stop.is_set():
                    sql = QUERIES[index % len(QUERIES)]
                    index += 1
                    try:
                        payload = service.estimate("hive", sql)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    if payload["seconds"] != reference[sql]:
                        mismatches.append((sql, payload))
                    served["count"] += 1

            threads = [
                threading.Thread(target=client, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()

            generations = [sphere.costing.generation("hive")]
            for _ in range(3):
                generations.append(service.swap("hive")["generation"])
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)

        assert errors == []  # zero rejected/failed because of the swap
        assert mismatches == []  # no torn estimates across generations
        assert served["count"] >= 8
        # Generations moved strictly forward, one step per swap.
        assert generations == sorted(generations)
        assert len(set(generations)) == 4
        assert obs.counter("costing.model_swaps").value == 3.0
        # The cache retired every pre-swap key: its generation watermark
        # matches the live one, and a fresh lookup round only ever sees
        # current-generation entries.
        stats = sphere.costing.cache.stats()
        assert stats["generation"] == sphere.costing.generation("hive")
        assert stats["generation"] == generations[-1]

    def test_reply_names_the_generation_that_computed_it(
        self, sphere, monkeypatch
    ):
        """A swap that lands right after the estimate returns must not
        change the generation the reply names."""
        costing = sphere.costing
        estimate_plan = costing.estimate_plan
        computed_on = []
        swaps = []

        def estimate_then_swap(system, plan, catalog):
            estimate = estimate_plan(system, plan, catalog)
            computed_on.append(costing.generation(system))
            # A reader may not become a writer: the swap runs on its own
            # thread, and the reply waits for it only briefly.
            swap = threading.Thread(target=sphere.swap_estimator, args=(system,))
            swaps.append(swap)
            swap.start()
            swap.join(timeout=0.5)
            return estimate

        monkeypatch.setattr(costing, "estimate_plan", estimate_then_swap)
        with EstimationService(sphere, workers=1) as service:
            payload = service.estimate("hive", QUERIES[0])
        swaps[0].join(timeout=30.0)
        assert not swaps[0].is_alive()
        assert payload["generation"] == computed_on[0]
        assert costing.generation("hive") > computed_on[0]

    def test_swap_bumps_generation_and_invalidate_retires_keys(self, sphere):
        sphere.costing.invalidate_cache()
        before = sphere.costing.generation("hive")
        plan = parse_select(QUERIES[0])
        first = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        cached = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        assert cached.cache_hit and cached.seconds == first.seconds
        after = sphere.swap_estimator("hive")
        assert after > before
        # The old generation's key no longer serves hits.
        fresh = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        assert not fresh.cache_hit
        assert fresh.seconds == first.seconds  # rebuilt model, same math
        assert obs.gauge("costing.model_generation").value == float(after)


class TestSaturationAndProfiling:
    def test_queue_depth_gauge_zeroed_after_stop(self, sphere):
        with EstimationService(sphere, workers=2) as service:
            service.estimate("hive", QUERIES[2])
            assert obs.gauge("serve.workers").value == 2.0
        # Drain-then-shutdown resets both gauges, not just the workers
        # one — a stopped service must not report phantom queue depth.
        assert obs.gauge("serve.workers").value == 0.0
        assert obs.gauge("serve.queue_depth").value == 0.0

    def test_worker_utilization_telemetry(self, sphere):
        with EstimationService(sphere, workers=2) as service:
            for _ in range(3):
                for sql in QUERIES:
                    service.estimate("hive", sql)
            utilization = service.utilization()
        assert 0.0 <= utilization <= 1.0
        assert obs.counter("serve.worker_busy_seconds").value > 0.0
        assert obs.counter("serve.worker_idle_seconds").value >= 0.0
        assert 0.0 <= obs.gauge("serve.utilization").value <= 1.0

    def test_eight_workers_bit_identical_with_sampler_running(
        self, sphere, monkeypatch
    ):
        """The profiling acceptance criterion: a service run with the
        stack sampler on serves estimates bit-identical to serial runs,
        and the service owns the sampler's shutdown."""
        monkeypatch.setenv(obs.PROF_ENV_VAR, "300")
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        with EstimationService(sphere, workers=8, queue_depth=256) as service:
            sampler = obs.plane().stack_sampler
            assert sampler is not None and sampler.running
            results = [[] for _ in range(8)]
            errors = []

            def client(slot):
                try:
                    for round_index in range(5):
                        sql = QUERIES[(slot + round_index) % len(QUERIES)]
                        payload = service.estimate("hive", sql)
                        results[slot].append((sql, payload))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert errors == []
        for slot_results in results:
            assert len(slot_results) == 5
            for sql, payload in slot_results:
                assert payload["seconds"] == reference[sql]  # bit-identical
        # stop() shut the sampler down and uninstalled it
        assert obs.plane().stack_sampler is None
        assert not sampler.running
        assert sampler.sampled > 0  # it really did observe the run
        roles = {s.split(";")[0] for s in sampler.merged_stacks()}
        assert "[serve]" in roles  # worker threads were walked

    def test_sampler_not_started_when_env_off(self, sphere, monkeypatch):
        monkeypatch.delenv(obs.PROF_ENV_VAR, raising=False)
        with EstimationService(sphere, workers=1) as service:
            service.estimate("hive", QUERIES[2])
            assert obs.plane().stack_sampler is None


def post(url, payload, headers=None, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def get(url, timeout=30.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestHttpEndpoints:
    @pytest.fixture()
    def daemon(self, sphere):
        with ServeDaemon(sphere, port=0, workers=4, queue_depth=32) as running:
            yield running

    def test_estimate_endpoint(self, sphere, daemon):
        status, _, payload = post(
            daemon.url + "/estimate",
            {"system": "hive", "sql": QUERIES[1]},
            headers={"X-Repro-Tenant": "analytics"},
        )
        assert status == 200
        assert payload["system"] == "hive"
        assert payload["operator"] == "aggregate"
        assert payload["seconds"] > 0
        assert payload["generation"] == sphere.costing.generation("hive")
        snapshot = obs.plane().tenants.snapshot()
        assert snapshot["analytics"]["queries"] == 1

    def test_optimize_endpoint(self, daemon):
        status, _, payload = post(daemon.url + "/optimize", {"sql": QUERIES[2]})
        assert status == 200
        assert payload["location"] in ("hive", "teradata")
        assert payload["steps"]
        assert payload["alternatives"]

    def test_swap_endpoint(self, sphere, daemon):
        before = sphere.costing.generation("hive")
        status, _, payload = post(daemon.url + "/swap", {"system": "hive"})
        assert status == 200
        assert payload == {"system": "hive", "generation": before + 1}

    def test_error_mapping(self, daemon):
        url = daemon.url
        assert post(url + "/estimate", {"system": "hive"})[0] == 400
        assert post(url + "/estimate", {"sql": "x", "system": ""})[0] == 400
        bad_sql = post(url + "/estimate", {"system": "hive", "sql": "SELEKT"})
        assert bad_sql[0] == 400
        unknown = post(url + "/estimate", {"system": "nope", "sql": QUERIES[2]})
        assert unknown[0] == 404
        status, body = get(url + "/estimate")  # GET on a POST route
        assert status == 405
        assert "POST" in json.loads(body)["allow"]

    def test_error_texts(self, daemon):
        url = daemon.url
        cases = (
            ("/estimate", ["hive"], "request body must be a JSON object"),
            ("/estimate", {"sql": QUERIES[2]}, "missing or empty field: 'system'"),
            ("/estimate", {"system": "hive"}, "missing or empty field: 'sql'"),
            ("/optimize", {"sql": ""}, "missing or empty field: 'sql'"),
            ("/swap", {}, "missing or empty field: 'system'"),
        )
        for path, payload, error in cases:
            assert post(url + path, payload)[::2] == (400, {"error": error})

    def test_estimate_parses_its_body_once(self, daemon, monkeypatch):
        from repro.obs import server

        class CountingJson:
            calls = 0

            def loads(self, *args, **kwargs):
                CountingJson.calls += 1
                return json.loads(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(json, name)

        monkeypatch.setattr(server, "json", CountingJson())
        status, _, _ = post(
            daemon.url + "/estimate", {"system": "hive", "sql": QUERIES[2]}
        )
        assert status == 200
        assert CountingJson.calls == 1

    def test_obs_plane_shares_the_port(self, daemon):
        post(daemon.url + "/estimate", {"system": "hive", "sql": QUERIES[2]})
        status, body = get(daemon.url + "/metrics.json")
        assert status == 200
        metrics = json.loads(body)["metrics"]
        assert metrics["serve.admitted"]["value"] >= 1.0
        assert "costing.model_generation" in metrics
        for path in ("/metrics", "/health", "/tenants", "/dashboard"):
            assert get(daemon.url + path)[0] == 200

    def test_stop_closes_open_keep_alive_connections(self, sphere):
        import http.client

        daemon = ServeDaemon(sphere, port=0, workers=2).start()
        connection = http.client.HTTPConnection("127.0.0.1", daemon.server.port, timeout=10)
        body = json.dumps({"system": "hive", "sql": QUERIES[2]})
        try:
            connection.request("POST", "/estimate", body=body)
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        finally:
            daemon.stop()
        # Opened before the stop: the daemon no longer admits on it.
        with pytest.raises(ConnectionError):
            connection.request("POST", "/estimate", body=body)
            connection.getresponse().read()
        connection.close()

    def test_backpressure_maps_to_503_with_retry_after(self, sphere):
        with ServeDaemon(sphere, port=0, workers=1, queue_depth=1) as daemon:
            release = threading.Event()
            running = threading.Event()

            def occupy_worker():
                running.set()
                release.wait(10.0)

            # Saturate: one job occupies the worker, one fills the queue.
            blocker = daemon.service.submit(occupy_worker)
            assert running.wait(10.0)  # the worker has dequeued it
            queued = daemon.service.submit(lambda: None)
            status, headers, payload = post(
                daemon.url + "/estimate",
                {"system": "hive", "sql": QUERIES[2]},
            )
            release.set()
            assert blocker.done.wait(10.0) and queued.done.wait(10.0)
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert payload["error"] == "admission queue full"
            assert payload["limit"] == 1
        assert obs.counter("serve.rejected").value == 1.0


class TestServeCliWiring:
    def test_parser_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2"]
        )
        assert args.func is cmd_serve
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_depth == 64
        assert args.tenant_header == "X-Repro-Tenant"
