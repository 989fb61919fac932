"""The HTTP serving plane: a route registry + the observability server.

A thin, stdlib-only serving plane over everything :mod:`repro.obs`
already computes:

====================  ==================================================
endpoint              payload
====================  ==================================================
``GET /metrics``      Prometheus text exposition of the live registry —
                      byte-deterministic ordering (sorted metric names,
                      fixed float rendering), straight from
                      :func:`repro.obs.exporters.to_prometheus_text`
``GET /metrics.json`` the exporter snapshot (metrics + ledger) as JSON
``GET /health``       per-system verdicts from
                      :func:`repro.obs.health.evaluate_health`
``GET /alerts``       one :class:`~repro.obs.alerts.AlertEngine`
                      evaluation (trend rules included); the engine is
                      long-lived, so firing→resolved transitions behave
                      exactly like a monitoring loop's
``GET /timeseries``   the windowed-telemetry ring as JSON
``GET /tenants``      the per-tenant attribution ledger as JSON
``GET /flight``       the flight recorder's rings (records + events +
                      incident names) as JSON
``GET /incidents``    headers of the in-memory incident bundles
``GET /incidents/N``  one full incident bundle by name (404 when
                      unknown or the recorder is off)
``GET /profile``      the stack sampler's profile windows as JSON
                      (``{"enabled": false, ...}`` when profiling is
                      off)
``GET /profile.html`` the live flamegraph page over every retained
                      profile window (open window included)
``GET /dashboard``    the self-contained HTML page: health tiles,
                      alerts and the ledger's q-error history from one
                      observation, plus the telemetry windows
====================  ==================================================

**One handler-registration API.**  Every endpoint above is mounted
through :meth:`ObsServer.register` — the same call external planes use:
the ``repro serve`` estimation daemon registers its ``POST /estimate``
and ``POST /optimize`` handlers on a plain :class:`ObsServer`, so a
single port carries both the request traffic and its own scrape
endpoints (single-port deployments).  A handler is a callable from
:class:`HttpRequest` to :class:`HttpResponse`; routing is exact-path
per method, with optional prefix routes (``/incidents/<name>``).
Unknown paths get a 404, known paths with the wrong method a 405.

**The HTTP front** is a :class:`socketserver.ThreadingTCPServer`, one
daemon thread per connection, whose handler parses each request's head
itself.  The module imports no :mod:`http.server` (only
:class:`http.HTTPStatus` from the ``http`` package), so a serving
process never loads ``http.client``, ``email`` or ``ssl``.  Every
response leaves in one ``sendall`` — status line, ``Server``,
``Date``, ``Content-Type``, ``Content-Length``, the handler's extra
headers and the body — on a ``TCP_NODELAY`` socket, so no part of a
reply waits for the client's delayed ACK.  The protocol subset served:

* ``GET`` and ``POST`` over HTTP/1.0 and HTTP/1.1; any other method
  gets a 501, HTTP/2 and later a 505;
* HTTP/1.1 connections stay open until ``Connection: close``; HTTP/1.0
  ones close after the response unless the request asked for
  ``Connection: keep-alive``;
* ``Expect: 100-continue`` is answered with ``100 Continue`` before
  the body is read;
* a request line that is not ``METHOD TARGET HTTP/x.y``, or a header
  line without a colon (or with whitespace in its name, which covers
  folded lines), gets a 400; a request line over 65,536 bytes a 414;
  a header line over 65,536 bytes, or more than 100 headers, a 431;
* a request whose body length cannot be known — a
  ``Transfer-Encoding`` header, or a ``Content-Length`` that is not
  one non-negative integer — gets a 400 without reaching a route: its
  body bytes must not be read as the next request on a keep-alive
  connection.

Every refusal above closes the connection.  Repeated headers are joined
with ``", "``, so conflicting ``Content-Length`` values are caught.

Design points:

* **non-blocking** — the accept loop runs on a daemon thread behind
  ``start()``; the caller's thread never serves requests;
* **bounded request logging** — one line per request (and one per
  refusal) in a fixed-size ring (:attr:`ObsServer.request_log`),
  never on stderr;
* **clean shutdown** — ``stop()`` closes the listener, lets a request
  already being handled finish (its reply says ``Connection: close``),
  wakes idle keep-alive connections with ``shutdown(SHUT_RD)`` and
  joins every connection thread within its ``timeout``; ``with
  ObsServer(...) as server:`` starts and stops;
* **embeddable** — the ``repro serve`` daemon mounts this same object
  beside its estimation endpoints; ``ObsServer(port=0)`` embeds it
  anywhere else.

Alert evaluation state is engine-local and serialized under a lock, so
concurrent scrapes cannot corrupt fired/resolved bookkeeping.

Each endpoint imports the modules it renders with when it is first
called, and the default alert engine is built on the first evaluation:
a server that only carries estimation traffic never loads the alert
engine, dashboard, flamegraphs or exporters.  No endpoint reads the
journal back: the live state every page renders is already in memory.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages —
live drift/cache views are injected by the caller as an ``observe``
callable, and request handlers are injected through :meth:`register`.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs.config import plane
from repro.obs.timeseries import maybe_roll_timeseries

if TYPE_CHECKING:
    from repro.obs.alerts import AlertEngine, AlertRule

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "ObsServer",
    "REQUEST_LOG_LIMIT",
    "json_response",
]

#: Requests remembered in the bounded request log.
REQUEST_LOG_LIMIT = 256

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_CONTENT_TYPE = "application/json; charset=utf-8"
_HTML_CONTENT_TYPE = "text/html; charset=utf-8"

#: Longest request line or header line read, in bytes, and most header
#: lines accepted in one request.
_MAX_LINE = 65536
_MAX_HEADERS = 100

_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request handed to a registered handler.

    Attributes:
        method: ``GET`` / ``POST`` (uppercase).
        path: Normalized path — query string stripped, trailing slash
            removed (``/`` for the root).
        query: The raw query string ("" when absent).
        headers: Request headers keyed by lower-case name; a header
            sent more than once holds its values joined with ``", "``.
            Read them through :meth:`header`, which lower-cases the
            name it looks up.
        body: The raw request body (b"" for GET).
    """

    method: str
    path: str
    query: str = ""
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        """The value of header ``name`` in any case, or ``default``."""
        return self.headers.get(name.lower(), default)

    def json(self) -> object:
        """The body parsed as JSON; raises ``ValueError`` when invalid."""
        if not self.body:
            raise ValueError("empty request body")
        return json.loads(self.body.decode("utf-8"))


@dataclass(frozen=True)
class HttpResponse:
    """What a registered handler returns.

    Attributes:
        status: HTTP status code.
        content_type: ``Content-Type`` header value.
        body: Response payload (encoded as UTF-8 on the wire).
        headers: Extra headers, e.g. ``(("Retry-After", "1"),)``.
    """

    status: int = 200
    content_type: str = _JSON_CONTENT_TYPE
    body: str = ""
    headers: Tuple[Tuple[str, str], ...] = ()


Handler = Callable[[HttpRequest], HttpResponse]


def json_response(
    payload: object,
    status: int = 200,
    headers: Tuple[Tuple[str, str], ...] = (),
) -> HttpResponse:
    """A deterministic (sorted, compact) JSON :class:`HttpResponse`."""
    return HttpResponse(
        status=status,
        content_type=_JSON_CONTENT_TYPE,
        body=json.dumps(payload, sort_keys=True, separators=(",", ":")),
        headers=headers,
    )


def _http_date(now: float) -> str:
    """``now`` as an HTTP ``Date`` value (IMF-fixdate, always GMT)."""
    t = time.gmtime(now)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
        f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _Refused(Exception):
    """A request the front answers itself with ``status``, then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _version(text: str) -> Tuple[int, int]:
    """``(major, minor)`` of an ``HTTP/x.y`` version; :class:`_Refused`
    (400) when it is not one."""
    major, dot, minor = text[5:].partition(".")
    if not (
        text.startswith("HTTP/")
        and dot
        and all(
            part.isascii() and part.isdigit() and len(part) <= 10
            for part in (major, minor)
        )
    ):
        raise _Refused(400, f"bad request version {text!r}")
    return int(major), int(minor)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: parses each request's head, then :meth:`_handle`
    reads the body, routes and replies; all state lives on
    ``server.obs``."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                line = self.server.next_request_line(self)  # type: ignore[attr-defined]
                if not line.strip():
                    return  # the client closed, or the server is stopping
                try:
                    self._handle(self._parse_head(line))
                except _Refused as refusal:
                    self._log(f"code {refusal.status}, message {refusal}")
                    self.close_connection = True
                    self._reply(
                        json_response({"error": str(refusal)}, status=refusal.status)
                    )
        except OSError:
            pass  # the client went away

    def _parse_head(self, line: bytes) -> str:
        """Parse the request line and headers; return the method."""
        self.requestline = ""
        if len(line) > _MAX_LINE:
            raise _Refused(414, "request line too long")
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            raise _Refused(400, f"bad request line {self.requestline!r}")
        method, self.path, version_text = words
        version = _version(version_text)
        if version >= (2, 0):
            raise _Refused(505, f"HTTP version {version_text[5:]} not supported")
        self.headers = self._read_headers()
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive"
        )
        self.expect_continue = (
            version >= (1, 1)
            and self.headers.get("expect", "").lower() == "100-continue"
        )
        if method not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {method!r}")
        return method

    def _read_headers(self) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        count = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _Refused(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                return headers
            count += 1
            if count > _MAX_HEADERS:
                raise _Refused(431, f"more than {_MAX_HEADERS} headers")
            name, colon, value = line.decode("iso-8859-1").partition(":")
            # A name is one token: no whitespace around or inside it, so
            # a folded continuation line is refused too.
            if not colon or name.split() != [name]:
                raise _Refused(400, f"bad header line {line[:80]!r}")
            key, value = name.lower(), value.strip()
            headers[key] = f"{headers[key]}, {value}" if key in headers else value

    def _handle(self, method: str) -> None:
        """Read the body of the request whose head was parsed, route it
        and reply."""
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        length = self._body_length()
        if self.expect_continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length > 0 else b""
        request = HttpRequest(
            method=method,
            path=path,
            query=query,
            headers=self.headers,
            body=body,
        )
        try:
            response = obs.dispatch(request)
        except Exception as exc:  # noqa: BLE001 — a request must not kill the server
            response = json_response({"error": str(exc)}, status=500)
        self._reply(response)

    def _body_length(self) -> int:
        """The body's byte count (0 without ``Content-Length``).

        Raises :class:`_Refused` (400) when the framing cannot be
        trusted: where the body ends is unknown, so nothing after it may
        be parsed as the next request.
        """
        joined = self.headers.get("content-length", "0")
        raw, *conflicting = {value.strip() for value in joined.split(",")}
        if (
            "transfer-encoding" in self.headers
            or conflicting
            or not (raw.isascii() and raw.isdigit())
        ):
            raise _Refused(400, "malformed request framing")
        return int(raw)

    def _reply(self, response: HttpResponse) -> None:
        """Send ``response`` in one ``sendall``; it says ``Connection:
        close`` whenever the connection closes after it."""
        payload = response.body.encode("utf-8")
        if self.server.stopping:  # type: ignore[attr-defined]
            self.close_connection = True
        lines = [
            f"HTTP/1.1 {response.status} {_PHRASES.get(response.status, '')}",
            "Server: repro-obs",
            f"Date: {_http_date(time.time())}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(payload)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in response.headers)
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self._log(f'"{self.requestline}" {response.status} -')
        try:
            self.wfile.write(head.encode("latin-1") + payload)
        except OSError:
            self.close_connection = True  # client went away mid-response

    def _log(self, line: str) -> None:
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        obs.request_log.append(f"{self.client_address[0]} {line}")


class _Server(socketserver.ThreadingTCPServer):
    """The accept loop: one daemon thread per connection, each tracked so
    :meth:`close_connections` can stop and join them."""

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], obs: "ObsServer") -> None:
        super().__init__(address, _Handler)
        self.obs = obs
        self.stopping = False
        self._lock = threading.Lock()
        self._idle: Set[socket.socket] = set()
        self._connection_threads: List[threading.Thread] = []

    def process_request(self, request, client_address) -> None:  # type: ignore[override]
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._lock:
            self._connection_threads = [
                alive for alive in self._connection_threads if alive.is_alive()
            ]
            self._connection_threads.append(thread)
        thread.start()

    def next_request_line(self, handler: _Handler) -> bytes:
        """The connection's next request line; ``b""`` when the client
        closed it or the server is stopping."""
        connection = handler.connection
        with self._lock:
            if self.stopping:
                return b""
            self._idle.add(connection)
        try:
            line = handler.rfile.readline(_MAX_LINE + 1)
        finally:
            with self._lock:
                self._idle.discard(connection)
                stopping = self.stopping
        return b"" if stopping else line

    def close_connections(self, timeout: float) -> None:
        """Stop serving the open connections: wake the idle ones, let a
        request being handled finish, and join every connection thread
        within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        with self._lock:
            self.stopping = True
            idle, threads = list(self._idle), list(self._connection_threads)
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the client closed it first
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


class ObsServer:
    """The embeddable HTTP server: a route registry behind a
    thread-per-connection front.

    Args:
        host: Bind address (loopback by default — this is an internal
            scrape/debug plane, not a public service).
        port: TCP port; ``0`` binds an ephemeral port (read it back
            from :attr:`port` after :meth:`start`).
        rules: Alert rule set for ``/alerts`` and the dashboard's alert
            table; the default SLO + trend rules when omitted.
        observe: Zero-argument callable producing the observation dict
            ``/health``/``/alerts``/``/dashboard`` evaluate.  Defaults
            to :func:`repro.obs.health.build_observation` (registry +
            ledger + timeseries, no drift/cache slices); the CLI wires
            in the costing module's live drift and cache views here.
        title: Dashboard page title.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        rules: Optional[Sequence[AlertRule]] = None,
        observe: Optional[Callable[[], Mapping[str, object]]] = None,
        title: str = "Cost estimation health",
    ) -> None:
        self.host = host
        self.port = port
        self.title = title
        self._engine: Optional["AlertEngine"] = None
        if rules is not None:
            from repro.obs.alerts import AlertEngine

            self._engine = AlertEngine(rules)  # validates the rules now
        self.request_log: Deque[str] = deque(maxlen=REQUEST_LOG_LIMIT)
        self._observe = observe
        self._eval_lock = threading.Lock()
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._routes: Dict[Tuple[str, str], Handler] = {}
        self._prefix_routes: Dict[Tuple[str, str], Handler] = {}
        self._register_default_routes()

    @property
    def engine(self) -> "AlertEngine":
        """The alert engine; without caller rules, the default rule set's
        engine is built on first use."""
        if self._engine is None:
            from repro.obs.alerts import AlertEngine

            self._engine = AlertEngine()
        return self._engine

    # ------------------------------------------------------------------
    # Handler registration (the one mounting API)
    # ------------------------------------------------------------------
    def register(
        self,
        path: str,
        handler: Handler,
        method: str = "GET",
        prefix: bool = False,
    ) -> "ObsServer":
        """Mount ``handler`` at ``(method, path)``; returns self.

        With ``prefix=True`` the handler serves every path *under*
        ``path`` (the handler reads the suffix off ``request.path``).
        Registering an existing route replaces it — embedders may
        override a default endpoint.  Paths are normalized like
        incoming requests (no trailing slash), so registration and
        lookup can never disagree.
        """
        if not path.startswith("/"):
            raise ValueError(f"route path must start with '/': {path!r}")
        method = method.upper()
        if method not in ("GET", "POST"):
            raise ValueError(f"unsupported method: {method!r}")
        key = (method, path.rstrip("/") or "/")
        if prefix:
            self._prefix_routes[key] = handler
        else:
            self._routes[key] = handler
        return self

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request (also called directly by tests)."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            for (method, prefix), candidate in self._prefix_routes.items():
                if method == request.method and request.path.startswith(
                    prefix + "/"
                ):
                    handler = candidate
                    break
        if handler is None:
            allowed = sorted(
                {
                    method
                    for method, path in self._routes
                    if path == request.path
                }
            )
            if allowed:
                return json_response(
                    {
                        "error": (
                            f"method {request.method} not allowed for "
                            f"{request.path}"
                        ),
                        "allow": allowed,
                    },
                    status=405,
                    headers=(("Allow", ", ".join(allowed)),),
                )
            return json_response(
                {"error": f"no such endpoint: {request.path}"}, status=404
            )
        return handler(request)

    @property
    def routes(self) -> Tuple[Tuple[str, str], ...]:
        """Registered ``(method, path)`` pairs, sorted (prefix routes
        carry a trailing ``/*``)."""
        exact = list(self._routes)
        prefixed = [(m, p + "/*") for m, p in self._prefix_routes]
        return tuple(sorted(exact + prefixed, key=lambda mp: (mp[1], mp[0])))

    def _register_default_routes(self) -> None:
        """Mount the observability endpoints through the public API."""
        self.register(
            "/metrics",
            lambda request: HttpResponse(
                200, _PROM_CONTENT_TYPE, self.render_metrics()
            ),
        )
        for path, render in (
            ("/metrics.json", self.render_metrics_json),
            ("/health", self.render_health),
            ("/alerts", self.render_alerts),
            ("/timeseries", self.render_timeseries),
            ("/tenants", self.render_tenants),
            ("/flight", self.render_flight),
            ("/incidents", self.render_incidents),
            ("/profile", self.render_profile),
        ):
            self.register(
                path,
                lambda request, render=render: HttpResponse(
                    200, _JSON_CONTENT_TYPE, render()
                ),
            )
        self.register("/incidents", self._incident_route, prefix=True)
        self.register(
            "/profile.html",
            lambda request: HttpResponse(
                200, _HTML_CONTENT_TYPE, self.render_profile_html()
            ),
        )
        for path in ("/", "/dashboard"):
            self.register(
                path,
                lambda request: HttpResponse(
                    200, _HTML_CONTENT_TYPE, self.render_dashboard()
                ),
            )

    def _incident_route(self, request: HttpRequest) -> HttpResponse:
        name = request.path[len("/incidents/"):]
        body = self.render_incident(name)
        if body is None:
            return json_response(
                {"error": f"no such incident: {name}"}, status=404
            )
        return HttpResponse(200, _JSON_CONTENT_TYPE, body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Bind and serve on a daemon thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        httpd = _Server((self.host, self.port), self)
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Close the listener, then the open connections: a request being
        handled still gets its reply (with ``Connection: close``), idle
        keep-alive connections are closed, and every connection thread
        and the serving thread are joined within ``timeout`` seconds
        each."""
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            httpd.close_connections(timeout)
        if thread is not None:
            thread.join(timeout=timeout)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Endpoint payloads (also used directly by tests / the CLI)
    # ------------------------------------------------------------------
    def observation(self) -> Mapping[str, object]:
        """One observation, with the window ring rolled up to "now"."""
        maybe_roll_timeseries()
        if self._observe is not None:
            return self._observe()
        from repro.obs.health import build_observation

        return build_observation()

    def render_metrics(self) -> str:
        from repro.obs.exporters import to_prometheus_text

        return to_prometheus_text()

    def render_metrics_json(self) -> str:
        from repro.obs.exporters import build_snapshot

        return json.dumps(build_snapshot(), sort_keys=True, separators=(",", ":"))

    def render_health(self) -> str:
        from repro.obs.health import evaluate_health, worst_grade

        healths = evaluate_health(self.observation())
        return json.dumps(
            {
                "systems": [health.to_dict() for health in healths],
                "worst": worst_grade(healths),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_alerts(self) -> str:
        with self._eval_lock:
            report = self.engine.evaluate(self.observation())
        return report.to_json()

    def render_timeseries(self) -> str:
        maybe_roll_timeseries()
        aggregator = plane().timeseries
        snapshot = (
            aggregator.snapshot()
            if aggregator is not None
            else {"width": 0.0, "retention": 0, "closed": 0, "windows": []}
        )
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_tenants(self) -> str:
        return json.dumps(
            plane().tenants.snapshot(),
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_flight(self) -> str:
        from repro.obs.flight import FLIGHT_SCHEMA_VERSION

        recorder = plane().flight_recorder
        if recorder is None:
            snapshot = {
                "enabled": False,
                "v": FLIGHT_SCHEMA_VERSION,
                "records": [],
                "events": [],
                "incidents": [],
            }
        else:
            snapshot = {"enabled": True, **recorder.snapshot()}
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_incidents(self) -> str:
        recorder = plane().flight_recorder
        bundles = recorder.incidents() if recorder is not None else ()
        return json.dumps(
            [bundle.header() for bundle in bundles],
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_incident(self, name: str) -> Optional[str]:
        """One bundle's full JSON, or ``None`` when unknown/off."""
        recorder = plane().flight_recorder
        bundle = recorder.find_incident(name) if recorder is not None else None
        if bundle is None:
            return None
        return json.dumps(bundle.to_dict(), sort_keys=True, separators=(",", ":"))

    def render_profile(self) -> str:
        from repro.obs.sampling import PROFILE_SCHEMA_VERSION

        sampler = plane().stack_sampler
        if sampler is None:
            snapshot = {
                "enabled": False,
                "v": PROFILE_SCHEMA_VERSION,
                "hz": 0.0,
                "windows": [],
            }
        else:
            snapshot = {"enabled": True, **sampler.snapshot()}
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_profile_html(self) -> str:
        from repro.obs.flamegraph import render_flamegraph_html

        sampler = plane().stack_sampler
        stacks = sampler.merged_stacks() if sampler is not None else {}
        subtitle = (
            f"{sampler.hz:g} Hz over {len(sampler.windows())} closed windows"
            if sampler is not None
            else "profiling off — set REPRO_OBS_PROF or start_sampling()"
        )
        return render_flamegraph_html(
            stacks, title=f"{self.title} — sampled stacks", subtitle=subtitle
        )

    def render_dashboard(self) -> str:
        from repro.obs.dashboard import render_dashboard
        from repro.obs.health import evaluate_health

        observation = self.observation()
        healths = evaluate_health(observation)
        with self._eval_lock:
            report = self.engine.evaluate(observation)
        current = plane()
        aggregator = current.timeseries
        history = observation.get("history")
        tenants = observation.get("tenants")
        sampler = current.stack_sampler
        return render_dashboard(
            healths,
            report=report,
            history=history if isinstance(history, Mapping) else {},
            title=self.title,
            windows=aggregator.windows() if aggregator is not None else (),
            tenants=tenants if isinstance(tenants, Mapping) else {},
            profile=sampler.merged_stacks() if sampler is not None else None,
        )

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"ObsServer({self.url}, {state})"

