"""The served program in its own process, as ``repro serve`` runs.

The HTTP workloads keep the program apart from the load generator: the
daemon runs in this child process, so its memory, its interpreter lock
and its set-up are its own, and clients reach it over loopback TCP only.

The parent drives the child over a line protocol: the child prints one
JSON line when it is serving (``{"port": ..., "setup": {...}}``, its
set-up sample), then
answers each JSON command read from stdin with one JSON line:

* ``{"cmd": "rss"}`` -> ``{"peak_rss_mb": ...}``
* ``{"cmd": "trace_on"}`` -> ``{}``
* ``{"cmd": "trace_off", "path": P}`` -> the traced phase's cache and
  pool numbers; the spans are written to ``P``
* ``{"cmd": "q_errors"}`` -> ``{"q_errors": [...]}``
* ``{"cmd": "stop"}`` (or end of input) -> the daemon stops, the child
  exits.

Run as ``python -m benchmarks.e2e.server WORKLOAD``.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from typing import Dict, List

from . import ROOT, speed

#: Seconds the parent waits for the child to be serving, and for a reply.
SETUP_TIMEOUT = 120.0
REPLY_TIMEOUT = 60.0


def main(workload_name: str) -> int:
    with speed.Stopwatch() as imported:
        from .sphere import Served  # imports the program: timed as set-up
        from .workloads import WORKLOADS

    served = Served(WORKLOADS[workload_name], imported.seconds)
    reply = sys.stdout
    try:
        reply.write(json.dumps({"port": served.port, "setup": served.setup}) + "\n")
        reply.flush()
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "stop":
                break
            if name == "rss":
                answer: Dict[str, object] = {"peak_rss_mb": served.peak_rss_mb()}
            elif name == "trace_on":
                served.trace_on()
                answer = {}
            elif name == "trace_off":
                answer = served.trace_off()
                with open(command["path"], "w", encoding="utf-8") as handle:
                    json.dump(served.exported_spans(), handle)
            elif name == "q_errors":
                answer = {"q_errors": served.q_errors()}
            else:
                answer = {"error": f"unknown command {name!r}"}
            reply.write(json.dumps(answer) + "\n")
            reply.flush()
    finally:
        served.close()
    return 0


class RemoteServed:
    """The parent's handle on a server child: the same calls as
    :class:`~benchmarks.e2e.sphere.Served`, over the line protocol."""

    def __init__(self, workload_name: str) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server", workload_name],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            hello = self._read(SETUP_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.port: int = hello["port"]
        self.setup: dict = hello["setup"]

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server process gave no reply (exit status {self._proc.poll()})"
            )
        return json.loads(line)

    def _call(self, **command) -> dict:
        self._proc.stdin.write(json.dumps(command) + "\n")
        self._proc.stdin.flush()
        return self._read(REPLY_TIMEOUT)

    def peak_rss_mb(self) -> float:
        return self._call(cmd="rss")["peak_rss_mb"]

    def trace_on(self) -> None:
        self._call(cmd="trace_on")

    def trace_off(self, path: str) -> Dict[str, float]:
        return self._call(cmd="trace_off", path=path)

    def q_errors(self) -> List[float]:
        return self._call(cmd="q_errors")["q_errors"]

    def close(self) -> None:
        """Stop the child and wait for it to end."""
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                proc.stdin.close()
                proc.wait(timeout=REPLY_TIMEOUT)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
        proc.stdout.close()


def setup_sample(workload_name: str) -> dict:
    """The set-up sample of one more fresh process, which imports and
    builds the program as the served one does, then stops."""
    served = RemoteServed(workload_name)
    served.close()
    return served.setup


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
