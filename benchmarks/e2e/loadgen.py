"""Closed-loop load: sessions that each wait for their reply.

Each session owns one client — a persistent HTTP/1.1 keep-alive
connection to the served daemon, or a direct handle on the federation
for the in-process workload — and sends its next request the moment the
previous reply lands (zero think time), the way an optimizer session
waits for its estimate.  A slower program therefore receives less load
instead of a growing queue, which keeps the workload valid across large
capacity changes.

A phase is an untimed warm-up followed by the measured window.  If the
window of an end-to-end measurement closes with fewer than
:data:`MIN_P99_SAMPLES` requests, it is extended (by at most
:data:`EXTENSION` of its length) so the p99 has ten samples beyond it.

A session whose client runs the program on the session's own thread
probes the host's speed every :data:`PROBE_EVERY` seconds and records
its latencies at the reference speed (see :mod:`.speed`).
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import speed
from .workloads import SYSTEMS, Request, Workload

MIN_P99_SAMPLES = 1_000
EXTENSION = 0.25

#: A traced phase ends after this many measured requests, which bounds
#: the spans held in memory once the program serves thousands per second.
MAX_TRACED_REQUESTS = 10_000

#: Seconds between speed probes of an in-process session (a probe takes
#: ~0.6 ms, so ~3% of the session's time).
PROBE_EVERY = 0.02

#: Seconds a session waits for one reply before counting a timeout.
REQUEST_TIMEOUT = 30.0

_HEADERS = {"Content-Type": "application/json"}

#: A client's answer: the estimate ``(seconds, approach, operator)`` or
#: the placement ``(location, seconds)``; None when the request failed.
Answer = Optional[tuple]


class HttpClient:
    """One keep-alive connection to the daemon."""

    #: The daemon runs in another process: its speed is not probed here.
    in_process = False

    def __init__(self, port: int) -> None:
        self.port = port
        self._connect()

    def _connect(self) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        self.conn.connect()
        self.local_port = self.conn.sock.getsockname()[1]

    def prepare(self, system: str, sql: str) -> bytes:
        return json.dumps({"system": system, "sql": sql}).encode("utf-8")

    def _post(self, path: str, body: bytes) -> Tuple[Optional[bytes], str]:
        try:
            self.conn.request("POST", path, body=body, headers=_HEADERS)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self._connect()
            return None, f"{type(exc).__name__}: {exc}"
        if response.status != 200:
            return None, f"HTTP {response.status}: {data[:200]!r}"
        return data, ""

    def send(self, body: bytes) -> Tuple[Optional[bytes], str]:
        return self._post("/estimate", body)

    @staticmethod
    def answer(data: bytes) -> tuple:
        payload = json.loads(data)
        return payload["seconds"], payload["approach"], payload["operator"]

    def swap(self, system: str) -> Tuple[Optional[bytes], str]:
        return self._post("/swap", json.dumps({"system": system}).encode("utf-8"))

    def close(self) -> None:
        self.conn.close()


class EmbeddedClient:
    """In-process ``IntelliSphere.explain`` (no HTTP, no serve)."""

    local_port = 0
    in_process = True

    def __init__(self, sphere) -> None:
        self.sphere = sphere

    def prepare(self, system: str, sql: str) -> str:
        return sql

    def send(self, sql: str) -> Tuple[object, str]:
        try:
            return self.sphere.explain(sql).best, ""
        except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    @staticmethod
    def answer(best) -> tuple:
        return best.location, best.seconds

    def close(self) -> None:
        pass


class SessionLog:
    """One session's traffic in one phase.

    ``latencies`` holds every measured request's seconds at the reference
    speed, ``scaled`` their sum and ``wall`` the same sum in wall
    seconds.  ``answers`` maps each distinct request to ``[first answer,
    measured requests, measured requests answered differently, all
    requests answered differently]``; the run checks first answers
    against the reference afterwards.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.scaled = 0.0
        self.wall = 0.0
        self.answers: Dict[Request, list] = {}
        self.errors: List[Tuple[bool, str]] = []  # (measured, error text)

    @property
    def measured(self) -> int:
        return len(self.latencies)

    def record(
        self, key: Request, wall: float, scale: float, answer: Answer, error: str,
        measured: bool,
    ) -> None:
        if measured:
            self.latencies.append(wall * scale)
            self.scaled += wall * scale
            self.wall += wall
        if answer is None:
            self.errors.append((measured, error))
            return
        entry = self.answers.get(key)
        if entry is None:
            self.answers[key] = [answer, int(measured), 0, 0]
            return
        entry[1] += measured
        if answer != entry[0]:
            entry[2] += measured
            entry[3] += 1


@dataclass
class Phase:
    """One warm-up + measured window, and everything sent during it."""

    warmup: float
    seconds: float
    logs: List[SessionLog]
    #: Extend a short window to :data:`MIN_P99_SAMPLES` requests.
    extend: bool = True
    start: float = 0.0
    stop: float = math.inf
    #: Swap requests: (system, error text or "").
    swaps: List[Tuple[str, str]] = field(default_factory=list)
    _stop_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def measure_start(self) -> float:
        return self.start + self.warmup

    @property
    def measured(self) -> int:
        return sum(log.measured for log in self.logs)

    def end(self, now: float) -> None:
        with self._stop_lock:
            self.stop = min(self.stop, now)

    def done(self, now: float) -> bool:
        if now < self.stop:
            end = self.measure_start + self.seconds
            if now < end:
                return False
            if (
                self.extend
                and self.measured < MIN_P99_SAMPLES
                and now < end + self.seconds * EXTENSION
            ):
                return False
            self.end(now)
        return True

    @property
    def window(self) -> float:
        return self.stop - self.measure_start


class ClosedLoop:
    """Drives one session per client over its request stream."""

    def __init__(
        self,
        workload: Workload,
        clients: Sequence,
        streams: Sequence[Iterator[Request]],
        tracer=None,
    ) -> None:
        self.workload = workload
        self.clients = list(clients)
        self.streams = list(streams)
        self.tracer = tracer
        self._swap_systems = itertools.cycle(SYSTEMS)

    def run(self, warmup: float, seconds: float, extend: bool = True) -> Phase:
        phase = Phase(
            warmup=warmup,
            seconds=seconds,
            logs=[SessionLog() for _ in self.clients],
            extend=extend,
        )
        threads = [
            threading.Thread(
                target=self._session, args=(index, phase), name=f"bench-session-{index}"
            )
            for index in range(len(self.clients))
        ]
        phase.start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return phase

    def _call(self, client, name: str, send, payload) -> Tuple[float, float, object, str]:
        if self.tracer is None:
            started = time.perf_counter()
            result, error = send(payload)
            return started, time.perf_counter(), result, error
        root = self.tracer.begin(name, client.local_port)
        result, error = send(payload)
        self.tracer.end(root)
        return root.start, root.end, result, error

    def _session(self, index: int, phase: Phase) -> None:
        client, stream, log = self.clients[index], self.streams[index], phase.logs[index]
        swap_every = self.workload.swap_every if index == 0 else 0.0
        next_swap = phase.start + swap_every if swap_every else math.inf
        scale, next_probe = 1.0, phase.start if client.in_process else math.inf
        while True:
            now = time.perf_counter()
            if self.tracer is not None and phase.measured >= MAX_TRACED_REQUESTS:
                phase.end(now)
            if phase.done(now):
                return
            if now >= next_probe:
                scale = speed.factor()
                next_probe = time.perf_counter() + PROBE_EVERY
                continue
            if now >= next_swap:
                system = next(self._swap_systems)
                _, _, _, error = self._call(client, "bench.swap", client.swap, system)
                phase.swaps.append((system, error))
                next_swap += swap_every
                continue
            key = next(stream)
            payload = client.prepare(*key)
            started, ended, result, error = self._call(
                client, "bench.request", client.send, payload
            )
            answer = None if result is None else client.answer(result)
            log.record(
                key, ended - started, scale, answer, error, started >= phase.measure_start
            )


@dataclass(frozen=True)
class LatencySummary:
    requests: int
    p50_ms: float
    p99_ms: float
    throughput_rps: float
    #: Reference seconds per wall second over the measured requests
    #: (1.0 where the speed is not probed).
    scale: float


def summarize(phase: Phase) -> LatencySummary:
    """Latency and throughput at the reference speed: the window is
    scaled as its requests were."""
    latencies = np.concatenate(
        [np.frombuffer(log.latencies, dtype=float) for log in phase.logs]
    )
    wall = sum(log.wall for log in phase.logs)
    scale = sum(log.scaled for log in phase.logs) / wall if wall > 0 else 1.0
    p50, p99 = np.percentile(latencies, [50, 99]) * 1e3 if len(latencies) else (math.nan,) * 2
    window = phase.window * scale
    return LatencySummary(
        requests=phase.measured,
        p50_ms=float(p50),
        p99_ms=float(p99),
        throughput_rps=phase.measured / window if window > 0 else 0.0,
        scale=scale,
    )


def open_clients(workload: Workload, sphere, port: Optional[int]) -> List:
    if workload.http:
        return [HttpClient(port) for _ in range(workload.sessions)]
    return [EmbeddedClient(sphere) for _ in range(workload.sessions)]
