"""One workload, one process: set up, load, check, report.

The HTTP workloads serve from a child process (:mod:`.server`) and load
it from this one; the in-process workload calls the federation here.

The result's last line is one JSON object::

    {"correct": true, "attempted": 1103, "failed": 0,
     "metrics": {"setup_s": {"value": 0.5312, "unit": "s"}, ...}}

with every BENCHMARK.json end-to-end metric when untraced, and every
per-layer metric when traced.  Above it, a human-readable table names
every metric, the printed-only ones too, with its unit and sample
count; :func:`printed_values` reads it back.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sql.parser import parse_select

from . import sphere as federation
from .loadgen import ClosedLoop, Phase, open_clients, summarize
from .metrics import LAYER_DETAIL, PRINTED_ONLY, catalog
from .server import RemoteServed, setup_sample
from .trace import TraceReport, Tracer, attach, write_spans
from .workloads import WORKLOADS, Request, request_stream

#: Untimed closed-loop warm-up before the measured window.
WARMUP_S = 3.0
#: Warm-up of the traced half (caches are already warm by then).
TRACED_WARMUP_S = 1.0

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: A metric line of a run's report: name, value (or ``n/a``), unit,
#: sample count.
_METRIC_LINE = re.compile(r"^    (\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def printed_values(report: str) -> Dict[str, float]:
    """Every metric value a run's report printed (``n/a`` ones left out)."""
    values = {}
    for line in report.splitlines():
        match = _METRIC_LINE.match(line)
        if match and match.group(2) != "n/a":
            values[match.group(1)] = float(match.group(2))
    return values


@dataclass
class Outcome:
    """What one run measured and checked."""

    workload: str
    traced: bool
    values: Dict[str, Optional[float]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Traced runs: (layer, share, microseconds at the traced p50).
    table: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Reference seconds per wall second of the measured requests.
    scale: float = 1.0

    def note(self, name: str, value: Optional[float], samples: int) -> None:
        self.values[name] = value
        self.samples[name] = samples

    @property
    def correct(self) -> bool:
        return not self.failures and self.attempted > 0

    def result(self) -> Dict[str, object]:
        """The result line: every end-to-end or every per-layer metric
        (0 where the workload never enters the layer)."""
        spec = catalog()
        metrics = spec.per_layer if self.traced else spec.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                metric.name: {
                    "value": float(self.values[metric.name] or 0.0),
                    "unit": metric.unit,
                }
                for metric in metrics
            },
        }

    def report(self) -> str:
        spec = catalog()
        lines = [f"workload {self.workload}"]
        groups = [("end-to-end (tracing off)", spec.end_to_end + PRINTED_ONLY)]
        if self.traced:
            groups += [("per-layer", spec.per_layer), ("per-layer detail", LAYER_DETAIL)]
        for title, metrics in groups:
            lines.append(f"  {title}:")
            for metric in metrics:
                value = self.values.get(metric.name)
                shown = "n/a" if value is None else f"{value:.6g}"
                lines.append(
                    f"    {metric.name:<42} {shown:>12} {metric.unit:<6}"
                    f" n={self.samples.get(metric.name, 0)}"
                )
        lines.append(
            "  set-up and in-process request times are at the reference speed"
            " (speed.py)"
            + (f"; the requests ran at {self.scale:.3f} x it" if self.scale != 1.0 else "")
        )
        if self.table:
            p50 = self.values["bench.roundtrip_us_p50"]
            lines.append(
                f"  self time per layer at the traced p50 round trip ({p50:.1f} us):"
            )
            for layer, share, micros in self.table:
                lines.append(f"    {layer:<28} {share * 100:7.2f}% {micros:12.2f} us")
            lines.append(
                f"    {'total':<28} {sum(s for _, s, _ in self.table) * 100:7.2f}%"
                f" {sum(m for _, _, m in self.table):12.2f} us"
            )
        for problem in self.failures[:10]:
            lines.append(f"  FAILED {problem}")
        return "\n".join(lines)


class Reference:
    """Answers of a single-threaded, uncached federation built from the
    same seed; served answers must match them bit for bit."""

    def __init__(self, http: bool) -> None:
        self.sphere = federation.reference_sphere()
        self.http = http

    def answer(self, key: Request) -> tuple:
        system, sql = key
        if self.http:
            estimate = self.sphere.costing.estimate_plan(
                system, parse_select(sql), self.sphere.catalog
            )
            return estimate.seconds, estimate.approach.value, estimate.operator.value
        best = self.sphere.explain(sql).best
        return best.location, best.seconds


class Run:
    """One workload in this process (and, over HTTP, its server child)."""

    def __init__(self, name: str, seed: int, traced: bool) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.outcome = Outcome(workload=name, traced=traced)
        self.phases: List[Phase] = []

    def execute(
        self,
        seconds: float,
        import_s: float,
        warmup: float = WARMUP_S,
        traced_warmup: float = TRACED_WARMUP_S,
    ) -> Outcome:
        workload, note = self.workload, self.outcome.note
        samples = [
            setup_sample(workload.name) for _ in range(federation.SETUP_PROCESSES - 1)
        ]
        if workload.http:
            self.served = RemoteServed(workload.name)
        else:
            self.served = federation.Served(workload, import_s)
        clients = []
        try:
            samples.append(self.served.setup)
            for name, (value, count) in federation.setup_metrics(samples).items():
                note(name, value, count)
            clients = open_clients(
                workload, getattr(self.served, "sphere", None), self.served.port
            )
            streams = [
                request_stream(workload.name, self.seed, session)
                for session in range(workload.sessions)
            ]
            traced = self.outcome.traced
            # A traced run reports per-layer numbers only, so its halves
            # are not extended for the p99.
            phase = ClosedLoop(workload, clients, streams).run(
                warmup, seconds / 2 if traced else seconds, extend=not traced
            )
            self.phases.append(phase)
            # The served program's peak memory from the end of set-up
            # through the load, before the traced half and the accuracy
            # sample.
            note("peak_rss_mb", self.served.peak_rss_mb(), 1)
            summary = summarize(phase)
            self.outcome.scale = summary.scale
            note("p50_ms", summary.p50_ms, summary.requests)
            note("p99_ms", summary.p99_ms, summary.requests)
            note("throughput_rps", summary.throughput_rps, summary.requests)
            if traced:
                self._traced(clients, streams, seconds / 2, traced_warmup, summary)
            q = self.served.q_errors()
            note("q_error_p50", float(np.percentile(q, 50)), len(q))
            note("q_error_p90", float(np.percentile(q, 90)), len(q))
        finally:
            for client in clients:
                client.close()
            self.served.close()
        self._check()
        return self.outcome

    def _traced(self, clients, streams, seconds, warmup, untraced) -> None:
        """The traced half: spans per layer for every measured request."""
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{self.workload.name}-seed{self.seed}.json")
        http = self.workload.http
        # Over HTTP this process only opens the client roots; the server
        # child records the program's spans.
        tracer = Tracer() if http else self.served.trace_on()
        if http:
            self.served.trace_on()
        try:
            phase = ClosedLoop(self.workload, clients, streams, tracer=tracer).run(
                warmup, seconds, extend=False
            )
        finally:
            stats = self.served.trace_off(path) if http else self.served.trace_off()
        self.phases.append(phase)
        spans = tracer.spans
        if http:
            with open(path, encoding="utf-8") as handle:
                spans = spans + attach(json.load(handle), spans)
        # Only requests (and swaps) sent in the measured window count.
        kept = {
            span
            for span in spans
            if span.parent is None and phase.measure_start <= span.start < phase.stop
        }
        spans = [span for span in spans if span.root in kept]
        report = TraceReport(spans)
        note = self.outcome.note
        for name, value in report.metrics().items():
            note(name, value, report.requests)
        for name, value in stats.items():
            if name != "lookups":
                note(name, value, stats["lookups"])
        note(
            "bench.trace_overhead",
            1.0 - summarize(phase).throughput_rps / untraced.throughput_rps,
            report.requests,
        )
        self.outcome.table = report.table()
        write_spans(path, spans, self.workload.name, self.seed)

    def _check(self) -> None:
        """Every answer, warm-up included, against the reference.
        Measured failures count in ``failed``; any failure fails the run."""
        outcome = self.outcome
        reference = Reference(self.workload.http)
        expected: Dict[Request, tuple] = {}
        for phase in self.phases:
            outcome.failures.extend(
                f"swap {system}: {error}" for system, error in phase.swaps if error
            )
            for log in phase.logs:
                outcome.attempted += log.measured
                for measured, error in log.errors:
                    outcome.failed += measured
                    outcome.failures.append(error)
                for key, (answer, measured, odd_measured, odd) in log.answers.items():
                    if key not in expected:
                        expected[key] = reference.answer(key)
                    if answer != expected[key]:
                        outcome.failed += measured - odd_measured
                        outcome.failures.append(
                            f"{key}: served {answer}, expected {expected[key]}"
                        )
                    if odd:
                        outcome.failed += odd_measured
                        outcome.failures.append(f"{key}: {odd} answers changed mid-run")
        outcome.note(
            "error_rate",
            outcome.failed / outcome.attempted if outcome.attempted else 1.0,
            outcome.attempted,
        )
