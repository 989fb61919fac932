"""The observability plane and its configuration: one parse of the
``REPRO_OBS_*`` variables, fields resolved on first read, whole-plane
install and restore, and the one module that reads the environment."""

import ast
import pathlib
import sys
import threading

import pytest

from repro import obs
from repro.obs.config import (
    DEFAULT_HZ,
    DEFAULT_WINDOW_RETENTION,
    DEFAULT_WINDOW_WIDTH,
    ObsConfig,
    ObsPlane,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every numeric variable, with a valid value for it.
NUMERIC = {
    obs.SAMPLE_ENV_VAR: "0.25",
    obs.TAIL_LATENCY_ENV_VAR: "2.5",
    obs.TAIL_QERROR_ENV_VAR: "3",
    obs.WINDOW_WIDTH_ENV_VAR: "15",
    obs.WINDOW_RETENTION_ENV_VAR: "7",
    obs.PROF_ENV_VAR: "250",
}

#: Every variable, with a valid value for it.
VALID = {
    **NUMERIC,
    obs.JOURNAL_ENV_VAR: "/var/log/repro.jsonl",
    obs.TRACE_ENV_VAR: "1",
    obs.FLIGHT_DIR_ENV_VAR: "/var/log/incidents",
}


class TestObsConfig:
    def test_empty_environment_is_the_default(self):
        assert ObsConfig.from_env({}) == ObsConfig()
        assert ObsConfig() == ObsConfig(
            journal_path="",
            trace=False,
            sample_rate=1.0,
            tail_latency_seconds=None,
            tail_max_q_error=None,
            flight_dir="",
            window_seconds=DEFAULT_WINDOW_WIDTH,
            window_retention=DEFAULT_WINDOW_RETENTION,
            prof_hz=0.0,
        )

    def test_valid_values(self):
        config = ObsConfig.from_env(VALID)
        assert config == ObsConfig(
            journal_path="/var/log/repro.jsonl",
            trace=True,
            sample_rate=0.25,
            tail_latency_seconds=2.5,
            tail_max_q_error=3.0,
            flight_dir="/var/log/incidents",
            window_seconds=15.0,
            window_retention=7,
            prof_hz=250.0,
        )

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_values_are_stripped(self, name):
        padded = ObsConfig.from_env({name: f" \t{VALID[name]} \n"})
        assert padded == ObsConfig.from_env({name: VALID[name]})
        assert padded != ObsConfig()

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", sorted(NUMERIC))
    def test_non_finite_parses_as_unparsable(self, name, raw):
        assert ObsConfig.from_env({name: raw}) == ObsConfig.from_env(
            {name: "not-a-number"}
        )

    def test_unparsable_fallbacks(self):
        config = ObsConfig.from_env({name: "soon" for name in VALID})
        assert config.sample_rate == 1.0
        assert config.tail_latency_seconds is None
        assert config.tail_max_q_error is None
        assert config.window_seconds == DEFAULT_WINDOW_WIDTH
        assert config.window_retention == DEFAULT_WINDOW_RETENTION
        assert config.prof_hz == DEFAULT_HZ
        assert not config.trace

    def test_retired_profile_window_variable_is_ignored(self):
        # Profile windows take REPRO_OBS_WINDOW's width.
        assert ObsConfig.from_env({"REPRO_OBS_PROF_WINDOW": "7.5"}) == ObsConfig()

    def test_from_env_reads_the_process_environment(self, monkeypatch):
        monkeypatch.setenv(obs.WINDOW_RETENTION_ENV_VAR, "9")
        assert ObsConfig.from_env().window_retention == 9


class TestObsPlane:
    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="regsitry"):
            ObsPlane(regsitry=obs.MetricsRegistry())

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_field"):
            ObsPlane().no_such_field  # noqa: B018

    def test_pinned_fields_are_kept_and_others_resolve_once(self):
        registry = obs.MetricsRegistry()
        plane = ObsPlane(registry=registry, tail_sampler=None)
        assert plane.registry is registry
        assert plane.tail_sampler is None
        assert plane.ledger is plane.ledger
        assert plane.ledger is not ObsPlane().ledger
        assert plane.timeseries is None and plane.stack_sampler is None

    def test_env_backed_field_reads_the_environment_at_first_read(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "late.jsonl"
        monkeypatch.delenv(obs.JOURNAL_ENV_VAR, raising=False)
        plane = ObsPlane()
        monkeypatch.setenv(obs.JOURNAL_ENV_VAR, str(path))
        journal = plane.journal
        assert journal.path == str(path)
        monkeypatch.delenv(obs.JOURNAL_ENV_VAR)
        assert plane.journal is journal
        assert not path.exists()  # the file opens at the first append
        journal.close()

    def test_concurrent_first_reads_resolve_one_value(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                plane = ObsPlane()
                seen = []
                barrier = threading.Barrier(8)

                def read(plane=plane, seen=seen, barrier=barrier):
                    barrier.wait(timeout=10.0)
                    seen.append(plane.registry)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8
                assert all(registry is plane.registry for registry in seen)
        finally:
            sys.setswitchinterval(interval)


class TestInstall:
    def test_install_returns_the_replaced_plane(self):
        before = obs.plane()
        mine = ObsPlane()
        previous = obs.install(mine)
        try:
            assert previous is before
            assert obs.plane() is mine
        finally:
            assert obs.install(previous) is mine
        assert obs.plane() is before

    def test_install_takes_only_a_plane(self):
        with pytest.raises(TypeError):
            obs.install(obs.MetricsRegistry())


def _environment_reads(path):
    """Line numbers where ``path`` touches ``os.environ`` or ``os.getenv``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if {alias.name for alias in node.names} & {"environ", "getenv"}:
                lines.append(node.lineno)
    return lines


def test_only_config_reads_the_environment():
    reads = {
        str(path.relative_to(SRC)): _environment_reads(path)
        for path in sorted(SRC.rglob("*.py"))
    }
    readers = {name: lines for name, lines in reads.items() if lines}
    assert list(readers) == ["obs/config.py"], readers
