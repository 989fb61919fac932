"""The persistent event journal: durable feedback-loop history.

Everything PR 1's telemetry keeps (metrics registry, accuracy ledger)
is in-memory and dies with the process.  The journal makes the
feedback stream *durable*: every significant event on the estimate
path — an estimate issued, an actual recorded, the online remedy
firing, an offline-tuning fold-in, a drift alarm and its reset — is
appended as one JSON line to an append-only file, and
:func:`repro.obs.rebuild.replay` deterministically rebuilds the accuracy
ledger and the journal-backed metrics counters from that file in a
fresh process.

Design points, in order of importance:

* **append-only JSONL** — one event per line, serialized with sorted
  keys and compact separators so journal files are byte-comparable
  across runs of the same workload;
* **schema-versioned** — every line carries ``"v": SCHEMA_VERSION``;
  readers skip events from future major versions instead of crashing;
* **size-based rotation** — when the active file would exceed
  ``max_bytes`` it is rotated to ``<path>.1`` (older generations shift
  up, the oldest beyond ``max_files`` is deleted), so a long-lived
  process cannot fill the disk;
* **corruption tolerance** — reads skip torn/garbage lines (a crash
  mid-append truncates at most the final line) and report how many
  were skipped rather than refusing the whole file;
* **cheap when off** — the plane's journal is a shared no-op unless
  the ``REPRO_OBS_JOURNAL`` environment variable names a path (or the
  installed :class:`~repro.obs.config.ObsPlane` pins one); emission
  sites guard on ``journal.enabled`` so the disabled hot path costs
  one attribute read.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import io
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.config import plane

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "JournalEvent",
    "EventJournal",
    "NoopJournal",
    "NOOP_JOURNAL",
    "ReadResult",
    "read_journal",
    "iter_journal_lines",
]

#: Bump on breaking payload changes; readers skip newer-versioned events.
SCHEMA_VERSION = 1

#: The journaled feedback-loop event kinds (DESIGN §6); each has one
#: reducer in :data:`repro.obs.rebuild.REDUCERS`.  Readers skip types
#: they do not know, so a new kind needs no schema bump.
EVENT_TYPES: Tuple[str, ...] = (
    "estimate",         # an operator estimate was issued
    "actual",           # an actual execution time was recorded (validated)
    "remedy",           # the online remedy fired / alpha recalibrated
    "tuning",           # an offline-tuning batch was folded into a model
    "drift",            # a drift monitor raised its alarm
    "drift_reset",      # a raised drift alarm was cleared (models retrained)
    "alert",            # an SLO alert transitioned firing/resolved
    "window",           # a telemetry window closed (repro.obs.timeseries)
    "incident",         # a flight-recorder incident bundle header
    "incident_record",  # one query record inside an incident bundle
    "profile",          # a sampling-profiler window closed (repro.obs.sampling)
)

#: Default rotation policy: 8 MiB active file, 4 rotated generations.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_MAX_FILES = 4


@dataclass(frozen=True)
class JournalEvent:
    """One deserialized journal line.

    Attributes:
        seq: Monotonic sequence number within the journal.
        type: Event kind (one of :data:`EVENT_TYPES` for known events).
        payload: The event's data fields.
        version: Schema version the event was written under.
    """

    seq: int
    type: str
    payload: Dict[str, object] = field(default_factory=dict)
    version: int = SCHEMA_VERSION

    def to_line(self) -> str:
        """The event's canonical serialized form (no trailing newline)."""
        return json.dumps(
            {
                "v": self.version,
                "seq": self.seq,
                "type": self.type,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class ReadResult:
    """Outcome of reading a journal from disk.

    Attributes:
        events: The readable events, oldest first (rotated generations
            before the active file).
        corrupt_lines: Lines that failed to parse or lacked the
            required fields (torn writes, editor damage).
        skipped_versions: Events from a newer schema version.
    """

    events: Tuple[JournalEvent, ...]
    corrupt_lines: int = 0
    skipped_versions: int = 0


class NoopJournal:
    """The shared disabled journal: ``append`` does nothing."""

    __slots__ = ()
    enabled = False
    path = None

    def append(self, event_type: str, **payload: object) -> None:
        return None

    def append_group(self, events) -> Tuple[JournalEvent, ...]:
        return ()

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NoopJournal()"


NOOP_JOURNAL = NoopJournal()


class EventJournal:
    """Append-only, size-rotated JSONL journal of feedback-loop events.

    Args:
        path: The active journal file; rotated generations live next to
            it as ``<path>.1`` (newest) .. ``<path>.<max_files>``.
        max_bytes: Rotation trigger — the active file is rotated
            *before* an append that would push it past this size.
        max_files: Rotated generations kept; older ones are deleted.
        fsync: Call ``os.fsync`` after every append.  Durable against
            power loss but slow; off by default (crash durability is
            to the last OS flush).
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, os.PathLike],
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        fsync: bool = False,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.fsync = fsync
        self._lock = threading.Lock()
        self._fh: Optional[io.TextIOWrapper] = None
        self._size = 0
        self._seq = self._resume_seq()
        self._appended = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, event_type: str, **payload: object) -> JournalEvent:
        """Serialize and append one event; returns the written event."""
        return self.append_group(((event_type, payload),))[0]

    def append_group(self, events) -> Tuple[JournalEvent, ...]:
        """Append several events atomically with respect to rotation.

        The whole group is sized up front and the file is rotated *at
        most once, before* the first line, so a multi-event record (an
        incident bundle) can never be split across journal generations
        — :func:`read_journal` of any single generation sees either the
        whole group or none of it.  A group larger than ``max_bytes``
        still writes unsplit (the active file simply overshoots).

        Args:
            events: ``(event_type, payload_dict)`` pairs.

        Returns:
            The written events, in order, each also handed to the
            plane's flight recorder when it has one.
        """
        items = [(event_type, dict(payload)) for event_type, payload in events]
        if not items:
            return ()
        with self._lock:
            group: List[JournalEvent] = []
            for event_type, payload in items:
                self._seq += 1
                group.append(
                    JournalEvent(seq=self._seq, type=event_type, payload=payload)
                )
            lines = [event.to_line() + "\n" for event in group]
            encoded = sum(len(line.encode("utf-8")) for line in lines)
            if self._fh is None:
                self._open()
            if self._size + encoded > self.max_bytes and self._size > 0:
                self._rotate()
            for line in lines:
                self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._size += encoded
            self._appended += len(group)
        written = tuple(group)
        recorder = plane().flight_recorder
        if recorder is not None:
            for event in written:
                recorder.on_journal_event(event)
        return written

    @property
    def appended(self) -> int:
        """Events appended through this journal instance."""
        with self._lock:
            return self._appended

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self) -> ReadResult:
        """All readable events (rotated + active), oldest first."""
        self.flush()
        return read_journal(self.path, max_files=self.max_files)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = self._fh.tell()
        if self._size and not _ends_with_newline(self.path):
            # A crash tore the last line: end it, so the next event
            # starts a line of its own instead of joining the torn one.
            self._fh.write("\n")
            self._size += 1

    def _rotate(self) -> None:
        """Shift generations up and start a fresh active file."""
        self._fh.close()
        self._fh = None
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._open()

    def _resume_seq(self) -> int:
        """Continue sequence numbers across restarts (best effort)."""
        best = 0
        for path in _generation_paths(self.path, self.max_files):
            try:
                with open(path, "rb") as fh:
                    tail = _last_complete_line(fh)
            except OSError:
                continue
            if tail is None:
                continue
            try:
                record = json.loads(tail)
                best = max(best, int(record.get("seq", 0)))
            except (ValueError, TypeError):
                continue
        return best

    def __repr__(self) -> str:
        return f"EventJournal({self.path!r}, seq={self._seq})"


# ----------------------------------------------------------------------
# Corruption-tolerant reading
# ----------------------------------------------------------------------
def _generation_paths(path: str, max_files: int) -> List[str]:
    """Existing journal files newest-last: ``.<n>`` .. ``.1``, active."""
    paths = [
        f"{path}.{index}"
        for index in range(max_files, 0, -1)
        if os.path.exists(f"{path}.{index}")
    ]
    if os.path.exists(path):
        paths.append(path)
    return paths


def _ends_with_newline(path: str) -> bool:
    """True when the file's last byte is a newline."""
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def _last_complete_line(fh) -> Optional[bytes]:
    """The final newline-terminated line of a binary file, if any."""
    try:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        chunk = min(size, 64 * 1024)
        fh.seek(size - chunk)
        data = fh.read(chunk)
    except OSError:
        return None
    lines = [line for line in data.split(b"\n") if line.strip()]
    if not lines:
        return None
    if data.endswith(b"\n"):
        return lines[-1]
    # The final line was torn by a crash mid-append; use the one before.
    return lines[-2] if len(lines) >= 2 else None


def iter_journal_lines(path: Union[str, os.PathLike]) -> Iterator[str]:
    """Raw journal lines of one file, without parsing."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line


def _parse_line(line: str) -> Optional[JournalEvent]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    event_type = record.get("type")
    payload = record.get("payload")
    if not isinstance(event_type, str) or not isinstance(payload, dict):
        return None
    try:
        seq = int(record.get("seq", 0))
        version = int(record.get("v", 0))
    except (TypeError, ValueError):
        return None
    return JournalEvent(seq=seq, type=event_type, payload=payload, version=version)


def read_journal(
    path: Union[str, os.PathLike],
    max_files: int = DEFAULT_MAX_FILES,
) -> ReadResult:
    """Read a journal (rotated generations + active file), tolerantly.

    Unparseable lines are counted, not fatal; events written under a
    newer schema version are skipped and counted separately; an
    unreadable file is skipped whole.
    """
    events: List[JournalEvent] = []
    corrupt = 0
    skipped = 0
    for file_path in _generation_paths(os.fspath(path), max_files):
        try:
            lines = list(iter_journal_lines(file_path))
        except OSError:
            continue
        for line in lines:
            event = _parse_line(line)
            if event is None:
                corrupt += 1
            elif event.version > SCHEMA_VERSION:
                skipped += 1
            else:
                events.append(event)
    return ReadResult(
        events=tuple(events), corrupt_lines=corrupt, skipped_versions=skipped
    )
