"""Tests for hardware profiles (repro.cluster.node)."""

import pytest

from repro.cluster.node import CpuProfile, MemoryProfile
from repro.exceptions import ConfigurationError


class TestCpuProfile:
    def test_defaults(self):
        cpu = CpuProfile()
        assert cpu.cores == 2

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            CpuProfile(cores=0)


class TestMemoryProfile:
    def test_per_task_budget(self):
        memory = MemoryProfile(total=8 * 1024**3, task_fraction=0.25)
        assert memory.per_task == 2 * 1024**3

    def test_full_fraction_allowed(self):
        memory = MemoryProfile(total=100, task_fraction=1.0)
        assert memory.per_task == 100

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            MemoryProfile(task_fraction=fraction)
