"""HTTP observability server: endpoint routing and content types,
concurrent scrapes, the firing→resolved trend-alert loop over a manual
clock, bounded request logging, the HTTP protocol subset the front
serves, and clean lifecycle semantics."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import REQUEST_LOG_LIMIT, ObsServer
from repro.obs.timeseries import ManualClock


def get(url, timeout=5.0):
    """(status, content_type, body) — errors surface as their status."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.headers.get("Content-Type", ""),
            error.read().decode("utf-8"),
        )


def read_until_closed(sock, timeout=2.0):
    """(bytes received, whether the server closed the connection): EOF
    and a reset both count as closed, a timeout does not."""
    sock.settimeout(timeout)
    received = b""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received, True
            received += chunk
    except socket.timeout:
        return received, False
    except ConnectionResetError:
        return received, True


def read_response(sock, timeout=5.0):
    """One complete response (head plus ``Content-Length`` body)."""
    sock.settimeout(timeout)
    received = b""
    while b"\r\n\r\n" not in received:
        chunk = sock.recv(65536)
        assert chunk, received
        received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, received
        body += chunk
    return head, body


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def obs_state(clock):
    """A fresh plane with an aggregator on its registry, restored on exit."""
    registry = MetricsRegistry()
    previous = obs.install(obs.ObsPlane(registry=registry))
    aggregator = obs.enable_timeseries(width=10.0, retention=50, clock=clock)
    yield registry, aggregator
    obs.install(previous)


def install_over(obs_state, **fields):
    """Install ``obs_state``'s registry and aggregator plus ``fields`` as
    a new plane; returns the plane it replaced."""
    registry, aggregator = obs_state
    return obs.install(
        obs.ObsPlane(registry=registry, timeseries=aggregator, **fields)
    )


@pytest.fixture()
def server(obs_state):
    with ObsServer(port=0) as running:
        yield running


class TestLifecycle:
    def test_start_binds_ephemeral_port_and_stop_joins(self, obs_state):
        server = ObsServer(port=0)
        assert not server.running
        server.start()
        try:
            assert server.running
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()
        assert not server.running

    def test_double_start_raises(self, obs_state):
        server = ObsServer(port=0).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_context_manager_serves_and_stops(self, obs_state):
        with ObsServer(port=0) as server:
            status, _, _ = get(f"{server.url}/health")
            assert status == 200
            url = server.url
        with pytest.raises(urllib.error.URLError):
            get(f"{url}/health", timeout=0.5)

    def test_repr_names_state(self, obs_state):
        server = ObsServer(port=0)
        assert "stopped" in repr(server)
        with server:
            assert "running" in repr(server)

    def test_stop_closes_idle_keep_alive_connections(self, obs_state):
        server = ObsServer(port=0).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n")
            head, _ = read_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
        finally:
            server.stop()
        with sock:
            received, closed = read_until_closed(sock)
        assert (received, closed) == (b"", True)

    def test_no_connection_thread_outlives_stop(self, obs_state):
        before = set(threading.enumerate())
        server = ObsServer(port=0).start()
        connections = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            for _ in range(3)
        ]
        try:
            for connection in connections:
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            # The clients keep their connections open across the stop.
            server.stop()
            assert [t for t in threading.enumerate() if t not in before] == []
        finally:
            server.stop()
            for connection in connections:
                connection.close()

    def test_post_in_flight_at_stop_still_gets_its_reply(self, obs_state):
        from repro.obs.server import json_response

        entered, release = threading.Event(), threading.Event()

        def slow(request):
            entered.set()
            release.wait(10.0)
            return json_response({"done": True})

        server = ObsServer(port=0).register("/slow", slow, method="POST").start()
        httpd = server._httpd
        stopper = threading.Thread(target=server.stop)
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /slow HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 2\r\n\r\n{}"
            )
            assert entered.wait(10.0)
            stopper.start()
            deadline = time.monotonic() + 10.0
            while not httpd.stopping and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            received, closed = read_until_closed(sock, timeout=10.0)
        stopper.join(10.0)
        assert not stopper.is_alive()
        assert received.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in received
        assert received.endswith(b'{"done":true}')
        assert closed


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("federation.runs").inc(3)
        status, content_type, body = get(f"{server.url}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "repro_federation_runs 3.0" in body

    def test_metrics_bytes_are_deterministic(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("b").inc()
        registry.counter("a").inc()
        first = get(f"{server.url}/metrics")[2]
        second = get(f"{server.url}/metrics")[2]
        assert first == second
        assert first.index("repro_a ") < first.index("repro_b ")

    def test_metrics_json_round_trips(self, server, obs_state):
        registry, _ = obs_state
        registry.gauge("alpha").set(0.59)
        status, content_type, body = get(f"{server.url}/metrics.json")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["metrics"]["alpha"]["value"] == 0.59

    def test_health_reports_worst_grade(self, server):
        status, _, body = get(f"{server.url}/health")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) == {"systems", "worst"}

    def test_alerts_returns_report_json(self, server):
        status, _, body = get(f"{server.url}/alerts")
        assert status == 200
        report = json.loads(body)
        assert "alerts" in report

    def test_timeseries_serves_the_ring(self, server, obs_state, clock):
        registry, aggregator = obs_state
        registry.counter("c").inc(2.0)
        clock.advance(10.0)
        status, _, body = get(f"{server.url}/timeseries")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["closed"] == 1
        assert snapshot["windows"][0]["counters"] == {"c": 2.0}

    def test_dashboard_is_html_with_windows_section(
        self, server, obs_state, clock
    ):
        registry, _ = obs_state
        registry.counter("federation.runs").inc()
        clock.advance(10.0)
        status, content_type, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "<html" in body
        assert "Windowed telemetry" in body
        assert "federation.runs" in body

    def test_root_serves_the_dashboard_too(self, server):
        status, content_type, _ = get(f"{server.url}/")
        assert status == 200
        assert content_type.startswith("text/html")

    def test_unknown_path_is_json_404(self, server):
        status, content_type, body = get(f"{server.url}/nope")
        assert status == 404
        assert content_type.startswith("application/json")
        assert "no such endpoint" in json.loads(body)["error"]

    def test_trailing_slash_and_query_string_are_tolerated(self, server):
        assert get(f"{server.url}/health/")[0] == 200
        assert get(f"{server.url}/metrics?x=1")[0] == 200

    def test_render_error_returns_500_not_a_dead_server(self, obs_state):
        def broken_observe():
            raise RuntimeError("observation exploded")

        with ObsServer(port=0, observe=broken_observe) as server:
            status, _, body = get(f"{server.url}/health")
            assert status == 500
            assert "observation exploded" in json.loads(body)["error"]
            # The server survives the failed scrape.
            assert get(f"{server.url}/metrics")[0] == 200


class TestProfileEndpoints:
    @pytest.fixture()
    def sampler(self, obs_state):
        from repro.obs.journal import NOOP_JOURNAL
        from repro.obs.sampling import StackSampler

        sampler = StackSampler(
            hz=100.0, window_seconds=10.0, journal=NOOP_JOURNAL
        )
        sampler.record_sample(0.1, "serve", ("repro.serve.loop",))
        sampler.record_sample(0.2, "serve", ("repro.serve.loop",))
        sampler.record_sample(10.1, "main", ())
        previous = install_over(obs_state, stack_sampler=sampler)
        yield sampler
        obs.install(previous)

    def test_profile_json_when_off(self, server):
        status, content_type, body = get(f"{server.url}/profile")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["hz"] == 0.0
        assert payload["windows"] == []

    def test_profile_json_serves_sampler_windows(self, server, sampler):
        status, _, body = get(f"{server.url}/profile")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["hz"] == 100.0
        assert payload["sampled"] == 3
        # one closed window plus the open one frozen in place
        assert len(payload["windows"]) == 2
        assert payload["windows"][0]["stacks"] == {
            "[serve];repro.serve.loop": 2
        }

    def test_profile_html_renders_flamegraph(self, server, sampler):
        status, content_type, body = get(f"{server.url}/profile.html")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "sampled stacks" in body
        assert "repro.serve.loop" in body
        assert "100 Hz over 1 closed windows" in body

    def test_profile_html_when_off_says_so(self, server):
        status, _, body = get(f"{server.url}/profile.html")
        assert status == 200
        assert "profiling off" in body
        assert "no samples" in body

    def test_dashboard_shows_profiling_section(self, server, sampler):
        status, _, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert "Continuous profiling" in body
        assert 'class="flame"' in body


class TestConcurrency:
    def test_parallel_scrapes_all_succeed(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("c").inc()
        paths = ["/metrics", "/metrics.json", "/health", "/alerts",
                 "/timeseries", "/dashboard"] * 4
        statuses = [None] * len(paths)

        def fetch(index, path):
            statuses[index] = get(f"{server.url}{path}")[0]

        workers = [
            threading.Thread(target=fetch, args=(index, path))
            for index, path in enumerate(paths)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert statuses == [200] * len(paths)


class TestRequestLog:
    def test_requests_are_logged_and_bounded(self, server):
        for _ in range(3):
            get(f"{server.url}/health")
        assert len(server.request_log) >= 3
        assert any("/health" in line for line in server.request_log)
        assert server.request_log.maxlen == REQUEST_LOG_LIMIT


class TestTrendAlertLoop:
    """The acceptance loop: a sustained p99 regression fires the trend
    rule through a real HTTP scrape cycle; recovery resolves it."""

    def feed_window(self, registry, clock, seconds, observations=8):
        for _ in range(observations):
            registry.histogram(
                "costing.estimate_wall_seconds",
                buckets=obs.WALL_SECONDS_BUCKETS,
            ).observe(seconds)
        clock.advance(10.0)

    def scrape(self, server):
        report = json.loads(get(f"{server.url}/alerts")[2])
        return (
            {a["rule"] for a in report["alerts"] if a["firing"]},
            set(report["fired"]),
            set(report["resolved"]),
        )

    def test_sustained_regression_fires_then_resolves(
        self, server, obs_state, clock
    ):
        registry, _ = obs_state
        # Healthy baseline: fast estimates, rule stays quiet.
        for _ in range(5):
            self.feed_window(registry, clock, seconds=0.001)
        active, fired, _ = self.scrape(server)
        assert "trend-estimate-latency" not in active
        assert not fired

        # Sustained regression: five slow windows push the 5-window
        # p99 average over the 50ms threshold.
        for _ in range(5):
            self.feed_window(registry, clock, seconds=0.2)
        active, fired, _ = self.scrape(server)
        assert "trend-estimate-latency" in active
        assert "trend-estimate-latency" in fired

        # Recovery: fast windows wash the regression out of the span.
        for _ in range(6):
            self.feed_window(registry, clock, seconds=0.001)
        active, _, resolved = self.scrape(server)
        assert "trend-estimate-latency" not in active
        assert "trend-estimate-latency" in resolved


class TestForensicsEndpoints:
    """/tenants, /flight, and /incidents: the incident-forensics plane."""

    @pytest.fixture()
    def forensics(self, obs_state):
        from repro.obs.tail import QueryOutcome, TailDecision

        recorder = obs.FlightRecorder()
        previous = install_over(obs_state, flight_recorder=recorder)
        recorder.record(
            QueryOutcome(
                query_id="q-000001",
                tenant="analytics",
                wall_seconds=2.0,
                max_q_error=4.0,
            ),
            TailDecision(keep=True, reasons=("q_error",)),
        )
        obs.plane().tenants.record_estimate("analytics", 3.0)
        yield recorder
        obs.install(previous)

    def test_tenants_endpoint_serves_ledger_snapshot(self, server, forensics):
        status, content_type, body = get(f"{server.url}/tenants")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["analytics"]["estimated_seconds"] == 3.0

    def test_flight_endpoint_serves_recorder_snapshot(self, server, forensics):
        status, _, body = get(f"{server.url}/flight")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["enabled"] is True
        assert snapshot["records"][0]["query_id"] == "q-000001"

    def test_flight_endpoint_reports_disabled_without_recorder(self, server):
        status, _, body = get(f"{server.url}/flight")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["enabled"] is False
        assert snapshot["records"] == []

    def test_incident_list_and_single_bundle_fetch(self, server, forensics):
        bundle = forensics.trigger_incident("drift", system="hive")
        status, _, body = get(f"{server.url}/incidents")
        assert status == 200
        listed = json.loads(body)
        assert [entry["name"] for entry in listed] == [bundle.name]
        status, _, body = get(f"{server.url}/incidents/{bundle.name}")
        assert status == 200
        fetched = json.loads(body)
        assert fetched == bundle.to_dict()

    def test_unknown_incident_is_json_404_and_keeps_serving(
        self, server, forensics
    ):
        status, content_type, body = get(f"{server.url}/incidents/nope")
        assert status == 404
        assert content_type.startswith("application/json")
        assert json.loads(body)["error"]
        # The server survives the miss.
        status, _, _ = get(f"{server.url}/health")
        assert status == 200

    def test_dashboard_renders_tenant_section(self, server, forensics):
        status, _, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert "Tenants" in body
        assert "analytics" in body


class TestHandlerRegistration:
    """The one mounting API: custom routes share the port with the
    default observability endpoints (single-port deployments)."""

    def test_register_custom_get_route(self, obs_state):
        from repro.obs.server import HttpResponse

        server = ObsServer(port=0)
        server.register(
            "/custom",
            lambda request: HttpResponse(
                200, "application/json; charset=utf-8", '{"ok":true}'
            ),
        )
        with server:
            status, content_type, body = get(f"{server.url}/custom")
        assert status == 200
        assert content_type.startswith("application/json")
        assert json.loads(body) == {"ok": True}

    def test_post_route_receives_body_and_headers(self, obs_state):
        from repro.obs.server import json_response

        seen = {}

        def handler(request):
            seen["payload"] = request.json()
            seen["tenant"] = request.header("X-Repro-Tenant")
            return json_response({"echo": request.json()})

        server = ObsServer(port=0).register("/echo", handler, method="POST")
        with server:
            request = urllib.request.Request(
                f"{server.url}/echo",
                data=b'{"a": 1}',
                headers={"X-Repro-Tenant": "etl"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5.0) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"echo": {"a": 1}}
        assert seen == {"payload": {"a": 1}, "tenant": "etl"}

    def test_headers_are_keyed_by_lower_case_name(self, obs_state):
        from repro.obs.server import json_response

        seen = {}

        def handler(request):
            seen.update(request.headers)
            seen["lookup"] = request.header("X-REPRO-TENANT")
            return json_response({})

        server = ObsServer(port=0).register("/seen", handler)
        with server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(
                    b"GET /seen HTTP/1.1\r\nHost: x\r\nX-Repro-Tenant: etl\r\n"
                    b"X-Trace:  a \r\nx-trace: b\r\n\r\n"
                )
                head, _ = read_response(sock)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert seen == {
            "host": "x",
            "x-repro-tenant": "etl",
            "x-trace": "a, b",
            "lookup": "etl",
        }

    def test_wrong_method_is_405_with_allow(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/only-post", lambda request: json_response({}), method="POST"
        )
        with server:
            status, _, body = get(f"{server.url}/only-post")
        assert status == 405
        assert json.loads(body)["allow"] == ["POST"]

    def test_registration_normalizes_trailing_slash(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/padded/", lambda request: json_response({"hit": True})
        )
        with server:
            assert get(f"{server.url}/padded")[0] == 200
            assert get(f"{server.url}/padded/")[0] == 200

    def test_default_routes_are_replaceable(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0)
        server.register("/health", lambda request: json_response({"ok": 1}))
        with server:
            status, _, body = get(f"{server.url}/health")
        assert status == 200
        assert json.loads(body) == {"ok": 1}

    def test_invalid_registrations_rejected(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0)
        with pytest.raises(ValueError):
            server.register("no-slash", lambda request: json_response({}))
        with pytest.raises(ValueError):
            server.register(
                "/x", lambda request: json_response({}), method="DELETE"
            )

    def test_routes_listing_includes_defaults_and_prefixes(self, obs_state):
        routes = ObsServer(port=0).routes
        assert ("GET", "/metrics") in routes
        assert ("GET", "/incidents/*") in routes

    def test_handler_exception_maps_to_500(self, obs_state):
        def broken(request):
            raise RuntimeError("handler bug")

        server = ObsServer(port=0).register("/broken", broken)
        with server:
            status, content_type, body = get(f"{server.url}/broken")
            assert status == 500
            assert content_type.startswith("application/json")
            assert "handler bug" in json.loads(body)["error"]
            # The server survives its handlers' bugs.
            assert get(f"{server.url}/health")[0] == 200


class TestRequestFraming:
    """A body whose length is unknown must not be read as the next
    request on a keep-alive connection: 400, then the server closes.
    The same holds for every request the front refuses, and for one
    that asks to close; keep-alive, ``Expect: 100-continue`` and one
    send per reply are pinned here too."""

    SMUGGLED = b"GET /metrics.json HTTP/1.1\r\nHost: localhost\r\n\r\n"

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: abc\r\n\r\n",
            b"Content-Length: -5\r\n\r\n",
            b"Content-Length: 3\r\nContent-Length: 4\r\n\r\n",
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        ],
        ids=["unparsable", "negative", "conflicting", "chunked"],
    )
    def test_malformed_framing_gets_one_400_then_eof(self, obs_state, framing):
        import socket

        from repro.obs.server import json_response

        calls = []
        server = ObsServer(port=0).register(
            "/echo",
            lambda request: calls.append(request) or json_response({}),
            method="POST",
        )
        with server:
            received, closed = b"", False
            with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as sock:
                sock.sendall(
                    b"POST /echo HTTP/1.1\r\nHost: localhost\r\n"
                    + framing
                    + self.SMUGGLED
                )
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            closed = True
                            break
                        received += chunk
                except socket.timeout:
                    pass  # the connection stayed open
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in received
        assert closed
        assert calls == []

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\nHost: x\r\n\r\n", 414),
            (b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
            (
                b"GET /health HTTP/1.1\r\n"
                + b"".join(b"X-Header-%d: v\r\n" % i for i in range(101))
                + b"\r\n",
                431,
            ),
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /health HTTP/1.1 extra\r\n\r\n", 400),
            (
                b"POST /echo HTTP/1.1\r\nNoColonHere\r\n"
                b"Content-Length: 2\r\n\r\n{}",
                400,
            ),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"PUT /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        ],
        ids=[
            "request-line-too-long",
            "header-line-too-long",
            "too-many-headers",
            "malformed-request-line",
            "request-line-with-four-words",
            "header-without-colon",
            "http-2",
            "put",
            "head",
        ],
    )
    def test_refused_request_gets_its_status_then_eof(self, obs_state, head, status):
        from repro.obs.server import json_response

        calls = []
        server = ObsServer(port=0).register(
            "/echo",
            lambda request: calls.append(request) or json_response({}),
            method="POST",
        )
        with server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as sock:
                sock.sendall(head + self.SMUGGLED)
                received, closed = read_until_closed(sock)
        lines = received.split(b"\r\n")
        assert sum(line.startswith(b"HTTP/1.1 ") for line in lines) == 1, received
        assert received.startswith(b"HTTP/1.1 %d " % status), received[:80]
        assert b"Connection: close" in received
        assert closed
        assert calls == []

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /health HTTP/1.0\r\n\r\n",
            b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close"],
    )
    def test_request_that_closes_gets_its_response_then_eof(self, obs_state, head):
        with ObsServer(port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as sock:
                sock.sendall(head + self.SMUGGLED)
                received, closed = read_until_closed(sock)
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 200 ")
        assert closed

    def test_http_1_0_keep_alive_stays_open(self, obs_state):
        with ObsServer(port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                for _ in range(2):
                    sock.sendall(
                        b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                    )
                    head, _ = read_response(sock)
                    assert head.startswith(b"HTTP/1.1 200 ")

    def test_expect_continue_gets_100_before_the_final_reply(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/echo", lambda request: json_response(request.json()), method="POST"
        )
        with server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(
                    b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                    b"Expect: 100-continue\r\nContent-Length: 8\r\n\r\n"
                )
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    chunk = sock.recv(1)
                    assert chunk, interim
                    interim += chunk
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(b'{"a": 1}')
                head, body = read_response(sock)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == {"a": 1}

    def test_keep_alive_posts_do_not_wait_for_delayed_acks(self, obs_state):
        """Each reply leaves in one send on a TCP_NODELAY socket: with
        the head and the body in two sends, every request on a
        keep-alive connection waited ~40 ms for the client's delayed
        ACK."""
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/echo", lambda request: json_response({"n": len(request.body)}), method="POST"
        )
        with server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                started = time.perf_counter()
                for _ in range(20):
                    connection.request("POST", "/echo", body=b'{"a": 1}')
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                elapsed = time.perf_counter() - started
            finally:
                connection.close()
        assert elapsed < 20 * 0.040 / 2, f"20 POSTs took {elapsed:.3f} s"

    def test_well_framed_requests_share_a_keep_alive_connection(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/echo", lambda request: json_response({"n": len(request.body)}), method="POST"
        )
        with server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                for body in (b"{}", b"", b'{"a": 1}'):
                    connection.request("POST", "/echo", body=body)
                    response = connection.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read()) == {"n": len(body)}
            finally:
                connection.close()


class TestFirstUse:
    def test_caller_rules_are_validated_at_construction(self, obs_state):
        rule = obs.default_rules()[0]
        with pytest.raises(ValueError, match="duplicate rule names"):
            ObsServer(port=0, rules=[rule, rule])

    def test_default_engine_is_built_on_first_evaluation(self, obs_state):
        server = ObsServer(port=0)
        assert server._engine is None
        json.loads(server.render_alerts())
        engine = server.engine
        assert [rule.name for rule in engine.rules] == [
            rule.name for rule in obs.default_rules()
        ]
        server.render_alerts()
        assert server.engine is engine

    @staticmethod
    def record_reads(monkeypatch, prefix):
        """Paths under ``prefix`` (the journal's files) opened for
        reading from now on."""
        import builtins

        opened = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and str(file).startswith(prefix):
                opened.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        return opened

    def test_dashboard_under_traffic_opens_no_journal(
        self, obs_state, tmp_path, monkeypatch
    ):
        """The live page charts the in-memory ledger ``record_actual``
        feeds, never the journal it also writes."""
        journal = obs.EventJournal(tmp_path / "journal.jsonl")
        ledger = obs.AccuracyLedger()
        previous = install_over(obs_state, journal=journal, ledger=ledger)
        try:
            opened = self.record_reads(monkeypatch, journal.path)
            server = ObsServer(port=0)
            for round_ in range(3):
                for index in range(20):  # serving journals every estimate
                    journal.append(
                        "estimate", system="hive", query_id=f"e-{index}"
                    )
                q_error = 3.0 + round_
                ledger.record("hive", "join", 1.0, q_error, approach="sub_op")
                journal.append(
                    "actual",
                    system="hive",
                    operator="join",
                    approach="sub_op",
                    estimated_seconds=1.0,
                    actual_seconds=q_error,
                )
                page = server.render_dashboard()
            assert opened == []
            replayed = obs.replay(journal.path).ledger
        finally:
            obs.install(previous)
            journal.close()
        assert replayed.history() == ledger.history() == {"hive": [3.0, 4.0, 5.0]}
        previous = install_over(obs_state, ledger=replayed)
        try:
            assert ObsServer(port=0).render_dashboard() == page
        finally:
            obs.install(previous)

    def test_dashboard_charts_the_ledger_without_journal_or_windows(self):
        ledger = obs.AccuracyLedger()
        previous = obs.install(
            obs.ObsPlane(ledger=ledger, journal=obs.NOOP_JOURNAL)
        )
        try:
            assert obs.plane().timeseries is None
            for q_error in (1.5, 4.0, 2.0):
                ledger.record("hive", "join", 1.0, q_error)
            page = ObsServer(port=0).render_dashboard()
        finally:
            obs.install(previous)
        history = page[page.index("Accuracy history"):]
        assert '<svg class="spark"' in history
        assert (
            '<td class="num">2.00</td><td class="num">4.00</td>'
            '<td class="num">3</td>'
        ) in history
