"""Continuous stack-sampling profiler: where the interpreter spends time.

The span tracer (:mod:`repro.obs.tracing`) and the per-query profiler
(:mod:`repro.obs.profiler`) answer *what the estimate path did* — they
see only instrumented spans, and only for traced queries.  This module
answers the complementary question for ROADMAP item 2 ("make the hot
path as fast as Python allows"): **which frames** is the whole process
actually burning CPU in, continuously, across every thread — serve
workers, HTTP handlers, the simulator, the main thread — with no
instrumentation at the sampled sites at all.

How it works:

* a daemon thread (``repro-prof-sampler``) wakes at a configurable rate
  (:data:`~repro.obs.config.DEFAULT_HZ` by default; env
  ``REPRO_OBS_PROF`` or :func:`start_sampling`) and walks
  ``sys._current_frames()``;
* every observed thread is tagged with a **role** from its name
  (:func:`role_for_thread`: serve worker / http / main / profiler /
  other) and its stack is **folded** root-first into a
  ``[role];module.func;module.func`` key — the classic collapsed-stack
  form flamegraph tooling consumes;
* folded samples accumulate into the open profile window, whose
  distinct-stack map is **bounded** (:data:`DEFAULT_MAX_STACKS`;
  overflow collapses deterministically into :data:`OVERFLOW_KEY`);
* the windows are the telemetry plane's
  (:class:`~repro.obs.timeseries.WindowRing`): the same width
  (``REPRO_OBS_WINDOW``), index rule, bounded ring and close policy.
  A closed window is journaled as one schema-versioned ``profile``
  event; :func:`repro.obs.rebuild.replay` rebuilds the exact same
  windows in a fresh process (the payload round-trips JSON
  bit-identically);
* merged folded stacks feed the flamegraph renderer
  (:mod:`repro.obs.flamegraph`), ``repro flamegraph``, the
  ``/profile``/``/profile.html`` endpoints, and incident bundles.

Sampling is observational only: it never touches the estimate path, so
estimates stay bit-identical with the profiler running (asserted by the
serve stress tests).  When off, the cost is zero — no thread, no state.
The fold pipeline itself is deterministic: feeding a fixed sample log
through :meth:`StackSampler.record_sample` produces byte-identical
windows, journal lines, and flamegraph HTML across processes.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.config import DEFAULT_HZ, ObsConfig, plane
from repro.obs.metrics import counter, gauge
from repro.obs.timeseries import WindowRing

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "DEFAULT_RETENTION",
    "DEFAULT_MAX_STACKS",
    "MAX_STACK_DEPTH",
    "OVERFLOW_KEY",
    "TRUNCATED_FRAME",
    "ProfileWindow",
    "StackSampler",
    "fold_stack",
    "role_for_thread",
    "merge_stacks",
    "start_sampling",
    "stop_sampling",
    "maybe_start_sampling",
]

#: Bump on breaking ``profile`` payload changes; readers skip newer ones.
PROFILE_SCHEMA_VERSION = 1

#: Closed windows kept in the in-memory ring.
DEFAULT_RETENTION = 16

#: Distinct folded stacks per window; the long tail beyond the bound
#: collapses into :data:`OVERFLOW_KEY` (bounded memory and bounded
#: journal payloads under pathological stack diversity).
DEFAULT_MAX_STACKS = 512

#: Frames kept per stack, leaf-most first; deeper stacks get a
#: :data:`TRUNCATED_FRAME` marker at the root.
MAX_STACK_DEPTH = 64

#: Reserved folded-stack key the overflow tail collapses into.
OVERFLOW_KEY = "[overflow]"

#: Reserved root frame marking a depth-truncated stack.
TRUNCATED_FRAME = "[deep]"

#: The sampler's own thread name (excluded from its samples).
SAMPLER_THREAD_NAME = "repro-prof-sampler"


# ----------------------------------------------------------------------
# Thread roles
# ----------------------------------------------------------------------
#: Thread-name prefix -> role, checked in order.
_ROLES: Tuple[Tuple[str, str], ...] = (
    ("repro-serve-worker", "serve"),
    ("repro-obs-server", "http"),
    (SAMPLER_THREAD_NAME, "profiler"),
    ("MainThread", "main"),
)


def role_for_thread(name: str) -> str:
    """The sampling role of a thread, from its name.

    ``repro-serve-worker-*`` threads are the estimation pool ("serve"),
    ``repro-obs-server:*`` and the stdlib's per-request
    ``process_request_thread`` threads are the HTTP front ("http"),
    ``MainThread`` is "main" and the sampler's own thread "profiler";
    anything else is "other".
    """
    for prefix, role in _ROLES:
        if name.startswith(prefix):
            return role
    if "process_request_thread" in name:
        return "http"
    return "other"


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------
def fold_stack(role: str, frames: Sequence[str]) -> str:
    """The collapsed-stack key of one sample: role root, then frames
    root-first, ``;``-joined (the form flamegraph tooling consumes)."""
    return ";".join([f"[{role}]", *frames]) if frames else f"[{role}]"


@dataclass(frozen=True)
class ProfileWindow:
    """One closed profiling window: bounded folded-stack aggregates.

    Attributes:
        index: Fixed window index (``floor(now / width)``).
        start: Window start, ``index * width`` clock seconds.
        end: Window end, ``(index + 1) * width`` clock seconds.
        samples: Thread stacks folded into the window.
        roles: Samples per thread role.
        stacks: Folded stack -> sample count (bounded; the tail beyond
            the per-window bound lives under :data:`OVERFLOW_KEY`).
        truncated: Samples that landed in the overflow bucket.
    """

    index: int
    start: float
    end: float
    samples: int = 0
    roles: Dict[str, int] = field(default_factory=dict)
    stacks: Dict[str, int] = field(default_factory=dict)
    truncated: int = 0

    def to_payload(self) -> Dict[str, object]:
        """The ``profile`` journal-event payload (JSON round-trip exact:
        integer counts and float boundaries only)."""
        return {
            "profile_v": PROFILE_SCHEMA_VERSION,
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "samples": self.samples,
            "roles": dict(self.roles),
            "stacks": dict(self.stacks),
            "truncated": self.truncated,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ProfileWindow":
        roles = payload.get("roles", {})
        stacks = payload.get("stacks", {})
        return cls(
            index=int(payload.get("index", 0)),
            start=float(payload.get("start", 0.0)),
            end=float(payload.get("end", 0.0)),
            samples=int(payload.get("samples", 0)),
            roles={
                str(k): int(v)
                for k, v in (roles if isinstance(roles, dict) else {}).items()
            },
            stacks={
                str(k): int(v)
                for k, v in (stacks if isinstance(stacks, dict) else {}).items()
            },
            truncated=int(payload.get("truncated", 0)),
        )


class _OpenProfile:
    """The window currently accumulating samples (summarized on close)."""

    __slots__ = ("index", "samples", "roles", "stacks", "truncated")

    def __init__(self, index: int) -> None:
        self.index = index
        self.samples = 0
        self.roles: Dict[str, int] = {}
        self.stacks: Dict[str, int] = {}
        self.truncated = 0

    def add(self, role: str, folded: str, max_stacks: int) -> None:
        self.samples += 1
        self.roles[role] = self.roles.get(role, 0) + 1
        stacks = self.stacks
        count = stacks.get(folded)
        if count is not None:
            stacks[folded] = count + 1
        elif len(stacks) < max_stacks:
            stacks[folded] = 1
        else:
            # Bounded and deterministic: once the per-window budget of
            # distinct stacks is spent, the long tail collapses into one
            # reserved bucket (which stack lands there depends only on
            # arrival order — a pure function of the sample log).
            stacks[OVERFLOW_KEY] = stacks.get(OVERFLOW_KEY, 0) + 1
            self.truncated += 1

    def summarize(self, width: float) -> ProfileWindow:
        return ProfileWindow(
            index=self.index,
            start=self.index * width,
            end=(self.index + 1) * width,
            samples=self.samples,
            roles=dict(self.roles),
            stacks=dict(self.stacks),
            truncated=self.truncated,
        )


class StackSampler(WindowRing):
    """The sampling profiler: a daemon thread over ``sys._current_frames``.

    A :class:`~repro.obs.timeseries.WindowRing` whose open window folds
    sampled stacks and closes into a :class:`ProfileWindow` journaled
    as ``profile``.

    Args:
        hz: Sampling rate; defaults to ``REPRO_OBS_PROF``'s rate, then
            :data:`~repro.obs.config.DEFAULT_HZ`.
        window_seconds: Profile-window width; defaults to the telemetry
            windows' ``REPRO_OBS_WINDOW``, then 60s.
        retention: Closed windows kept in the in-memory ring.
        max_stacks: Distinct folded stacks per window before overflow.
        clock: Zero-argument "now" callable (monotonic by default; a
            manual clock where determinism matters).
        journal: ``None`` late-binds the plane's journal on every
            window close; pass an explicit journal (or
            :data:`~repro.obs.journal.NOOP_JOURNAL`) to pin.
    """

    event = "profile"
    _accumulator = _OpenProfile

    def __init__(
        self,
        hz: Optional[float] = None,
        window_seconds: Optional[float] = None,
        retention: int = DEFAULT_RETENTION,
        max_stacks: int = DEFAULT_MAX_STACKS,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        config = ObsConfig.from_env()
        resolved_hz = float(hz) if hz is not None else config.prof_hz or DEFAULT_HZ
        if resolved_hz <= 0:
            raise ValueError("sampling hz must be positive")
        if max_stacks < 1:
            raise ValueError("max_stacks must be >= 1")
        super().__init__(window_seconds, retention, clock, journal)
        self.hz = resolved_hz
        self.interval = 1.0 / resolved_hz
        self.max_stacks = max_stacks
        self._sampled = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Frame-name cache keyed by code object — naming a frame costs
        #: two attribute reads after the first sighting, not a format.
        self._frame_names: Dict[object, str] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        """Spawn the sampling daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=SAMPLER_THREAD_NAME, daemon=True
        )
        self._thread.start()
        gauge(
            "obs.sampling.hz", help="stack-sampling rate (0 when off)"
        ).set(self.hz)
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the daemon and flush the open window into the ring."""
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=timeout)
        self.flush()
        gauge(
            "obs.sampling.hz", help="stack-sampling rate (0 when off)"
        ).set(0.0)

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        interval = self.interval
        overruns = counter(
            "obs.sampling.overruns",
            help="sampling passes that outran their interval",
        )
        while not self._stop.wait(interval):
            started = time.perf_counter()
            self.sample_once()
            if time.perf_counter() - started > interval:
                overruns.inc()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self, now: Optional[float] = None) -> int:
        """Walk every live thread's stack once; returns stacks folded.

        Public so benchmarks can price one pass and tests can drive the
        sampler without the daemon thread.
        """
        now = self._clock() if now is None else now
        frames_by_ident = sys._current_frames()
        own = threading.get_ident()
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        sampled = 0
        for ident, frame in frames_by_ident.items():
            if ident == own:
                continue
            role = role_for_thread(names.get(ident, ""))
            self.record_sample(now, role, self._walk(frame))
            sampled += 1
        if sampled:
            counter(
                "obs.sampling.samples", help="thread stacks sampled"
            ).inc(sampled)
        return sampled

    def record_sample(
        self, now: float, role: str, frames: Sequence[str]
    ) -> None:
        """Fold one ``(now, role, frames)`` sample into the open window.

        This is the deterministic entry: the live daemon calls it with
        walked stacks, and tests/CI replay fixed sample logs through it
        — identical logs produce byte-identical windows.
        """
        folded = fold_stack(role, frames)
        with self._lock:
            self._window_at(now).add(role, folded, self.max_stacks)
            self._sampled += 1

    def _closed(self, summary: ProfileWindow) -> None:
        counter("obs.sampling.windows", help="profile windows closed").inc()

    def _walk(self, frame) -> List[str]:
        """Frame names of one stack, root-first, depth-bounded."""
        names = self._frame_names
        out: List[str] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            code = frame.f_code
            name = names.get(code)
            if name is None:
                module = frame.f_globals.get("__name__", "?")
                qualname = getattr(code, "co_qualname", code.co_name)
                name = f"{module}.{qualname}"
                if len(names) > 4096:
                    names.clear()
                names[code] = name
            out.append(name)
            frame = frame.f_back
            depth += 1
        if frame is not None:
            out.append(TRUNCATED_FRAME)
        out.reverse()
        return out

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _with_open(self) -> List[ProfileWindow]:
        """The closed windows, then the open one frozen in place (the
        caller holds the lock)."""
        windows = list(self._windows)
        if self._current is not None:
            windows.append(self._current.summarize(self.width))
        return windows

    def last_window(self) -> Optional[ProfileWindow]:
        """The open window frozen in place, or the newest closed one."""
        with self._lock:
            windows = self._with_open()
        return windows[-1] if windows else None

    @property
    def sampled(self) -> int:
        """Thread stacks folded over the sampler's lifetime."""
        with self._lock:
            return self._sampled

    def merged_stacks(self, include_open: bool = True) -> Dict[str, int]:
        """Folded stacks summed across the ring (and the open window)."""
        with self._lock:
            windows = self._with_open() if include_open else list(self._windows)
        return merge_stacks(windows)

    def snapshot(self) -> Dict[str, object]:
        """The JSON shape served by ``/profile``."""
        with self._lock:
            windows = [summary.to_payload() for summary in self._with_open()]
            closed = self.closed_count
            sampled = self._sampled
        return {
            "v": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "width": self.width,
            "running": self.running,
            "sampled": sampled,
            "closed": closed,
            "windows": windows,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"StackSampler(hz={self.hz:g}, width={self.width:g}, "
            f"sampled={self.sampled}, {state})"
        )


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_stacks(windows: Iterable[ProfileWindow]) -> Dict[str, int]:
    """Folded stacks summed across windows, sorted by stack key."""
    merged: Dict[str, int] = {}
    for window in windows:
        for folded, count in window.stacks.items():
            merged[folded] = merged.get(folded, 0) + count
    return dict(sorted(merged.items()))


# ----------------------------------------------------------------------
# The plane's sampler
# ----------------------------------------------------------------------
def start_sampling(
    hz: Optional[float] = None,
    window_seconds: Optional[float] = None,
    **kwargs,
) -> StackSampler:
    """Build and start a sampler and make it the plane's
    ``stack_sampler``.

    A sampler already on the plane is returned untouched (idempotent in
    effect — two subsystems may both ask for profiling).
    """
    current = plane()
    if current.stack_sampler is not None:
        return current.stack_sampler
    sampler = StackSampler(hz=hz, window_seconds=window_seconds, **kwargs)
    sampler.start()
    current.stack_sampler = sampler
    return sampler


def stop_sampling(timeout: float = 2.0) -> Optional[StackSampler]:
    """Stop the plane's sampler and take it off the plane; returns it."""
    current = plane()
    previous, current.stack_sampler = current.stack_sampler, None
    if previous is not None:
        previous.stop(timeout=timeout)
    return previous


def maybe_start_sampling() -> Optional[StackSampler]:
    """Start the plane's sampler iff ``REPRO_OBS_PROF`` asks.

    Returns the sampler only when *this call* started it — the caller
    owns its shutdown (:class:`~repro.serve.EstimationService` starts
    one per the environment and stops it on drain).  Off, or already
    started by someone else: ``None``, zero further cost.
    """
    hz = ObsConfig.from_env().prof_hz
    current = plane()
    if hz <= 0 or current.stack_sampler is not None:
        return None
    sampler = StackSampler(hz=hz)
    sampler.start()
    current.stack_sampler = sampler
    return sampler
