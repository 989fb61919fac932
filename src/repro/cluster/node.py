"""The per-node quantities the engine simulators read.

A node contributes task slots (its cores) and a per-task memory budget
for operator workspaces; nothing else about its hardware reaches an
elapsed time.  Memory sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

GIB = 1024**3


@dataclass(frozen=True)
class CpuProfile:
    """CPU characteristics of a node.

    Attributes:
        cores: Number of physical cores usable for tasks.
    """

    cores: int = 2

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")


@dataclass(frozen=True)
class MemoryProfile:
    """Memory sizing of a node.

    Attributes:
        total: Physical memory in bytes.
        task_fraction: Fraction of memory available to a single task for
            operator workspaces (hash tables, sort buffers).  Hive-style
            engines reserve the rest for the OS, daemons, and buffers.
    """

    total: int = 8 * GIB
    task_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ConfigurationError("total memory must be positive")
        if not 0 < self.task_fraction <= 1:
            raise ConfigurationError(
                f"task_fraction must be in (0, 1], got {self.task_fraction}"
            )

    @property
    def per_task(self) -> int:
        """Memory budget available to one task's operator workspace."""
        return int(self.total * self.task_fraction)
