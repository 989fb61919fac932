"""Tail-based trace sampling: keep/drop decided at query *completion*.

The head sampler (:mod:`repro.obs.context`) takes its keep/drop decision
before a query runs, which is exactly backwards for SLO forensics: the
p99-slow and high-q-error tail — the queries worth keeping — look like
every other query at the head.  This module moves the decision to the
tail.  While a :class:`TailSampler` is installed, *every* query records
spans into a bounded in-memory buffer (see
:meth:`repro.obs.tracing.Tracer.span`), and when the query scope closes
the sampler examines the completed :class:`QueryOutcome`:

* **latency breach** — wall seconds at or above ``latency_seconds``;
* **q-error breach** — the worst q-error the feedback loop reported for
  the query (via :func:`repro.obs.context.note_query_q_error`) at or
  above ``max_q_error``;
* **error** — the query scope exited with an exception;
* **head floor** — the head sampler already kept the query (the
  configured head rate stays a floor on trace volume).

Any reason keeps the buffered trace (it is committed into the tracer's
ring and the flight recorder); no reason discards it.  With head
sampling at 1% this captures 100% of threshold-breaching queries at
near-zero steady-state cost — dropped buffers never leave memory.

The plane's ``tail_sampler`` (:class:`~repro.obs.config.ObsPlane`)
comes from the environment (both unset means tail sampling is off and
the head-sampling behaviour is byte-for-byte what it was):

* ``REPRO_OBS_TAIL_LATENCY`` — wall-seconds threshold;
* ``REPRO_OBS_TAIL_QERROR`` — q-error threshold.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.metrics import counter

__all__ = [
    "KEEP_REASONS",
    "QueryOutcome",
    "TailDecision",
    "TailSampler",
]

#: Every reason a tail decision may carry, in emission order.
KEEP_REASONS: Tuple[str, ...] = ("head", "latency", "q_error", "error")


@dataclass
class QueryOutcome:
    """Everything known about one query at the moment it completes.

    A plain (non-frozen) dataclass on purpose: one is built per query
    completion, and frozen-dataclass construction costs one
    ``object.__setattr__`` call per field on that hot path.  Treat
    instances as read-only.

    Attributes:
        query_id: The query's process-unique id.
        tenant: The tenant the query was attributed to ("" when none).
        query: The SQL text, when known.
        sampled: The head sampler's original keep/drop decision.
        wall_seconds: Wall-clock time the query scope was open.
        max_q_error: Worst q-error any ``record_actual`` reported for
            the query (0.0 when the feedback loop never fed back).
        estimated_seconds: Total estimated operator seconds attributed
            to the query.
        error: Exception type name when the scope exited erroring, "".
    """

    query_id: str
    tenant: str = ""
    query: str = ""
    sampled: bool = False
    wall_seconds: float = 0.0
    max_q_error: float = 0.0
    estimated_seconds: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class TailDecision:
    """One completion-time keep/drop verdict.

    Attributes:
        keep: Whether the query's buffered trace survives.
        reasons: Which criteria kept it (subset of :data:`KEEP_REASONS`,
            in that order); empty for dropped queries.
    """

    keep: bool
    reasons: Tuple[str, ...] = ()


#: Shared dropped verdict — the steady-state path allocates nothing.
_DROPPED = TailDecision(keep=False)


class TailSampler:
    """Completion-time sampler: keep breaches, drop the healthy bulk.

    Args:
        latency_seconds: Keep queries whose wall latency reaches this
            (``None`` disables the latency criterion).
        max_q_error: Keep queries whose worst reported q-error reaches
            this (``None`` disables the q-error criterion).

    A query whose scope exited with an exception is always kept, and so
    is a head-sampled one: the head sampler's decision is a floor.
    """

    def __init__(
        self,
        latency_seconds: Optional[float] = None,
        max_q_error: Optional[float] = None,
    ) -> None:
        if latency_seconds is not None and latency_seconds < 0:
            raise ValueError(
                f"latency_seconds must be >= 0, got {latency_seconds}"
            )
        if max_q_error is not None and max_q_error < 1.0:
            raise ValueError(
                f"max_q_error must be >= 1 (q-error is >= 1), got {max_q_error}"
            )
        self.latency_seconds = latency_seconds
        self.max_q_error = max_q_error

    def decide(self, outcome: QueryOutcome) -> TailDecision:
        """The completion-time verdict for one query outcome.

        The dropped path is the steady-state hot path (the healthy bulk
        of traffic) and is held to the per-query overhead budget: one
        counter increment and a shared verdict, no allocation.  Total
        decisions are derivable as ``obs.tail.kept + obs.tail.dropped``
        — a dedicated decisions counter would double the hot-path cost
        for a redundant number.
        """
        reasons = []
        if outcome.sampled:
            reasons.append("head")
        if (
            self.latency_seconds is not None
            and outcome.wall_seconds >= self.latency_seconds
        ):
            reasons.append("latency")
        if (
            self.max_q_error is not None
            and outcome.max_q_error >= self.max_q_error
        ):
            reasons.append("q_error")
        if outcome.error:
            reasons.append("error")
        if reasons:
            counter("obs.tail.kept", help="queries kept by tail sampling").inc()
            for reason in reasons:
                counter(
                    f"obs.tail.kept_{reason}",
                    help="tail-sampling keeps by reason",
                ).inc()
            return TailDecision(keep=True, reasons=tuple(reasons))
        counter("obs.tail.dropped", help="queries dropped by tail sampling").inc()
        return _DROPPED

    def __repr__(self) -> str:
        return (
            f"TailSampler(latency_seconds={self.latency_seconds}, "
            f"max_q_error={self.max_q_error})"
        )
