"""The observability plane and the one reading of its environment.

Every emission site reports to one :class:`ObsPlane`: the metrics
registry, the accuracy and tenant ledgers, the exemplar store, the
tracer, the head and tail samplers, the journal, the flight recorder,
the time-series aggregator and the stack sampler.  :func:`plane`
returns the installed plane and :func:`install` swaps in another,
returning the one it replaced, so a test, the traffic simulator or an
embedder swaps the whole plane in one call and restores it in one.
Each plane also mints its own query ids, so a restored plane resumes
its sequence where it left off.

:class:`ObsConfig` holds the nine ``REPRO_OBS_*`` variables, parsed in
one place.  Every value is stripped; a value that does not parse, and
``inf``, ``-inf`` or ``nan`` for a numeric variable, means what an
empty one means (README, "Environment variables").  This module is
the only code in :mod:`repro` that reads the environment.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library.  It imports no other :mod:`repro.obs` module at top
level: a plane builds each field's value on first read, importing the
field's module then.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

if TYPE_CHECKING:
    from repro.obs.context import ExemplarStore, HeadSampler
    from repro.obs.flight import FlightRecorder
    from repro.obs.journal import EventJournal, NoopJournal
    from repro.obs.ledger import AccuracyLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampling import StackSampler
    from repro.obs.tail import TailSampler
    from repro.obs.tenants import TenantLedger
    from repro.obs.timeseries import TimeSeriesAggregator
    from repro.obs.tracing import Tracer

__all__ = [
    "JOURNAL_ENV_VAR",
    "TRACE_ENV_VAR",
    "SAMPLE_ENV_VAR",
    "TAIL_LATENCY_ENV_VAR",
    "TAIL_QERROR_ENV_VAR",
    "FLIGHT_DIR_ENV_VAR",
    "WINDOW_WIDTH_ENV_VAR",
    "WINDOW_RETENTION_ENV_VAR",
    "PROF_ENV_VAR",
    "DEFAULT_HZ",
    "DEFAULT_WINDOW_WIDTH",
    "DEFAULT_WINDOW_RETENTION",
    "ObsConfig",
    "ObsPlane",
    "install",
    "plane",
]

#: Journal path; unset means the shared no-op journal.
JOURNAL_ENV_VAR = "REPRO_OBS_JOURNAL"
#: A truthy value ("1"/"true"/"yes"/"on") enables the plane's tracer.
TRACE_ENV_VAR = "REPRO_OBS_TRACE"
#: Head-sampling rate in [0, 1]; unset or invalid means 1.0.
SAMPLE_ENV_VAR = "REPRO_OBS_SAMPLE"
#: Tail-sampling wall-seconds threshold; unset or invalid means off.
TAIL_LATENCY_ENV_VAR = "REPRO_OBS_TAIL_LATENCY"
#: Tail-sampling q-error threshold (clamped to >= 1); invalid means off.
TAIL_QERROR_ENV_VAR = "REPRO_OBS_TAIL_QERROR"
#: Directory incident bundles are dumped into; unset means no recorder.
FLIGHT_DIR_ENV_VAR = "REPRO_OBS_FLIGHT_DIR"
#: Window width, seconds, of the telemetry and profile windows alike.
WINDOW_WIDTH_ENV_VAR = "REPRO_OBS_WINDOW"
#: Closed telemetry windows kept in the ring.
WINDOW_RETENTION_ENV_VAR = "REPRO_OBS_RETENTION"
#: The stack sampler's rate: unset/empty/0 = off; a number = hz; a bare
#: truthy value ("1"/"true"/"on"/"yes") = :data:`DEFAULT_HZ`.
PROF_ENV_VAR = "REPRO_OBS_PROF"

#: Default sampling rate.  Prime-ish, like perf's 99 Hz, so the sampler
#: cannot phase-lock with periodic work (a 10 ms poll loop sampled at
#: exactly 100 Hz would always land on the same frame).
DEFAULT_HZ = 97.0

#: Default window width, seconds, and closed telemetry windows kept.
DEFAULT_WINDOW_WIDTH = 60.0
DEFAULT_WINDOW_RETENTION = 120

_TRUTHY = ("1", "true", "yes", "on")
_PROF_OFF = ("", "0", "off", "false", "no", "none")


def _finite(raw: str) -> Optional[float]:
    """``raw`` as a finite float, or ``None`` when it is not one."""
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _positive(raw: str) -> Optional[float]:
    value = _finite(raw)
    return value if value is not None and value > 0 else None


def _hz(raw: str) -> float:
    raw = raw.lower()
    if raw in _PROF_OFF:
        return 0.0
    if raw in _TRUTHY:
        return DEFAULT_HZ
    value = _finite(raw)
    if value is None:
        return DEFAULT_HZ
    return value if value > 0 else 0.0


def _retention(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_WINDOW_RETENTION
    return value if value > 0 else DEFAULT_WINDOW_RETENTION


@dataclass(frozen=True)
class ObsConfig:
    """The ``REPRO_OBS_*`` variables, parsed.  ``ObsConfig()`` is an
    empty environment.

    Attributes:
        journal_path: ``REPRO_OBS_JOURNAL``; "" means no journal.
        trace: ``REPRO_OBS_TRACE`` is truthy.
        sample_rate: ``REPRO_OBS_SAMPLE`` clamped to [0, 1].
        tail_latency_seconds: ``REPRO_OBS_TAIL_LATENCY`` when positive.
        tail_max_q_error: ``REPRO_OBS_TAIL_QERROR`` when positive,
            clamped to >= 1 (q-error never reads below 1).
        flight_dir: ``REPRO_OBS_FLIGHT_DIR``; "" means no recorder.
        window_seconds: ``REPRO_OBS_WINDOW`` when positive.
        window_retention: ``REPRO_OBS_RETENTION`` when a positive int.
        prof_hz: ``REPRO_OBS_PROF``'s sampling rate; 0.0 means off.
    """

    journal_path: str = ""
    trace: bool = False
    sample_rate: float = 1.0
    tail_latency_seconds: Optional[float] = None
    tail_max_q_error: Optional[float] = None
    flight_dir: str = ""
    window_seconds: float = DEFAULT_WINDOW_WIDTH
    window_retention: int = DEFAULT_WINDOW_RETENTION
    prof_hz: float = 0.0

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "ObsConfig":
        """Parse the nine variables from ``environ`` (the process's
        environment by default)."""

        def raw(name: str) -> str:
            return environ.get(name, "").strip()

        sample = _finite(raw(SAMPLE_ENV_VAR))
        q_error = _positive(raw(TAIL_QERROR_ENV_VAR))
        return cls(
            journal_path=raw(JOURNAL_ENV_VAR),
            trace=raw(TRACE_ENV_VAR).lower() in _TRUTHY,
            sample_rate=1.0 if sample is None else min(1.0, max(0.0, sample)),
            tail_latency_seconds=_positive(raw(TAIL_LATENCY_ENV_VAR)),
            tail_max_q_error=None if q_error is None else max(1.0, q_error),
            flight_dir=raw(FLIGHT_DIR_ENV_VAR),
            window_seconds=(
                _positive(raw(WINDOW_WIDTH_ENV_VAR)) or DEFAULT_WINDOW_WIDTH
            ),
            window_retention=_retention(raw(WINDOW_RETENTION_ENV_VAR)),
            prof_hz=_hz(raw(PROF_ENV_VAR)),
        )


class ObsPlane:
    """Everything the instrumented code reports to, as one object.

    A field passed to the constructor is pinned.  Any other resolves on
    its first read, under :meth:`ObsConfig.from_env` at that moment:
    ``tracer``, ``head_sampler``, ``tail_sampler``, ``journal`` and
    ``flight_recorder`` as their variables ask, the rest fresh and
    empty.  So a journal file opens when something first journals, and
    :mod:`repro.obs.flight` loads only when ``REPRO_OBS_FLIGHT_DIR``
    asks for a recorder.  A resolved field is a plain attribute.

    The plane also owns its query-id sequence (:meth:`next_query_id`),
    which is not a field: every plane starts at ``q-000001``.

    Attributes:
        registry: The metrics registry.
        ledger: The accuracy ledger ``record_actual`` feeds.
        tenants: The per-tenant cost ledger.
        exemplars: Recent query ids per remote system.
        tracer: The span tracer, enabled by ``REPRO_OBS_TRACE``.
        head_sampler: The head sampler at ``REPRO_OBS_SAMPLE``'s rate.
        tail_sampler: The tail sampler ``REPRO_OBS_TAIL_*`` asks for,
            or ``None`` (tail sampling off).
        journal: The journal at ``REPRO_OBS_JOURNAL``, else the shared
            no-op.
        flight_recorder: A recorder dumping into
            ``REPRO_OBS_FLIGHT_DIR``, or ``None``.
        timeseries: The aggregator
            :func:`~repro.obs.timeseries.enable_timeseries` attached,
            or ``None``.
        stack_sampler: The sampler
            :func:`~repro.obs.sampling.start_sampling` started, or
            ``None``.
    """

    registry: "MetricsRegistry"
    ledger: "AccuracyLedger"
    tenants: "TenantLedger"
    exemplars: "ExemplarStore"
    tracer: "Tracer"
    head_sampler: "HeadSampler"
    tail_sampler: Optional["TailSampler"]
    journal: Union["EventJournal", "NoopJournal"]
    flight_recorder: Optional["FlightRecorder"]
    timeseries: Optional["TimeSeriesAggregator"] = None
    stack_sampler: Optional["StackSampler"] = None

    def __init__(self, **fields: Any) -> None:
        unknown = sorted(set(fields) - set(_FIELDS))
        if unknown:
            raise TypeError(f"ObsPlane has no field {', '.join(unknown)}")
        # Reentrant: building one field may read another on this thread
        # (a constructor that bumps a counter on the registry).
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self.__dict__.update(fields)

    def next_query_id(self) -> str:
        """Mint this plane's next query id (``q-000001`` first).  A
        plain counter, not a UUID, keeps journal payloads
        byte-deterministic across runs of the same workload."""
        with self._id_lock:
            return f"q-{next(self._ids):06d}"

    def __getattr__(self, name: str) -> Any:
        # Reached only for a field not resolved yet.
        if name not in _FIELDS:
            raise AttributeError(f"'ObsPlane' object has no attribute {name!r}")
        with self._lock:
            if name not in self.__dict__:
                self.__dict__[name] = _resolve(name, ObsConfig.from_env())
            return self.__dict__[name]


_FIELDS = tuple(ObsPlane.__annotations__)


def _resolve(name: str, config: ObsConfig) -> Any:
    """The value an unpinned field ``name`` takes under ``config``."""
    if name == "registry":
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()
    if name == "ledger":
        from repro.obs.ledger import AccuracyLedger

        return AccuracyLedger()
    if name == "tenants":
        from repro.obs.tenants import TenantLedger

        return TenantLedger()
    if name == "exemplars":
        from repro.obs.context import ExemplarStore

        return ExemplarStore()
    if name == "tracer":
        from repro.obs.tracing import Tracer

        return Tracer(enabled=config.trace)
    if name == "head_sampler":
        from repro.obs.context import HeadSampler

        return HeadSampler(rate=config.sample_rate)
    if name == "tail_sampler":
        if config.tail_latency_seconds is None and config.tail_max_q_error is None:
            return None
        from repro.obs.tail import TailSampler

        return TailSampler(
            latency_seconds=config.tail_latency_seconds,
            max_q_error=config.tail_max_q_error,
        )
    if name == "journal":
        from repro.obs.journal import NOOP_JOURNAL, EventJournal

        if not config.journal_path:
            return NOOP_JOURNAL
        return EventJournal(config.journal_path)
    # flight_recorder: timeseries and stack_sampler default to None on
    # the class, so they never resolve here.
    if not config.flight_dir:
        return None
    from repro.obs.flight import FlightRecorder

    return FlightRecorder(directory=config.flight_dir)


_installed = ObsPlane()
_install_lock = threading.Lock()


def install(new: ObsPlane) -> ObsPlane:
    """Make ``new`` the process-wide plane; returns the plane it
    replaced, which ``install(previous)`` restores."""
    global _installed
    if not isinstance(new, ObsPlane):
        raise TypeError(f"install() takes an ObsPlane, not {type(new).__name__}")
    with _install_lock:
        previous, _installed = _installed, new
    return previous


def plane() -> ObsPlane:
    """The installed plane, which every emission site reports to."""
    return _installed
