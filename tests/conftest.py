"""Shared fixtures for the test suite.

Engines default to noise-free execution so assertions about cost
composition are exact; noisy variants are built per-test when the noise
behaviour itself is under test.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cluster import paper_cluster
from repro.core import ClusterInfo
from repro.data import Catalog, build_paper_corpus
from repro.engines import HiveEngine, SparkEngine


#: Small sub-grid of the corpus used where full 120-table loads are
#: unnecessary (keeps shape coverage: small..large counts, 3 sizes).
SMALL_COUNTS = (10_000, 100_000, 1_000_000, 8_000_000)
SMALL_SIZES = (40, 100, 1000)


@pytest.fixture(scope="session")
def corpus():
    """The full 120-table paper corpus (specs only — cheap)."""
    return build_paper_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return build_paper_corpus(row_counts=SMALL_COUNTS, row_sizes=SMALL_SIZES)


@pytest.fixture()
def catalog(corpus):
    cat = Catalog()
    for spec in corpus:
        cat.register(spec)
    return cat


@pytest.fixture()
def small_catalog(small_corpus):
    cat = Catalog()
    for spec in small_corpus:
        cat.register(spec)
    return cat


@pytest.fixture()
def hive(corpus):
    """Noise-free Hive engine with the full corpus loaded."""
    engine = HiveEngine(seed=0, noise_sigma=0.0)
    for spec in corpus:
        engine.load_table(spec)
    return engine


@pytest.fixture()
def small_hive(small_corpus):
    engine = HiveEngine(seed=0, noise_sigma=0.0)
    for spec in small_corpus:
        engine.load_table(spec)
    return engine


@pytest.fixture()
def spark(small_corpus):
    engine = SparkEngine(seed=0, noise_sigma=0.0)
    for spec in small_corpus:
        engine.load_table(spec)
    return engine


@pytest.fixture(scope="session")
def cluster():
    return paper_cluster()


@pytest.fixture(scope="session")
def cluster_info(cluster):
    return ClusterInfo(
        num_data_nodes=cluster.config.num_data_nodes,
        cores_per_node=cluster.config.node_cpu.cores,
        dfs_block_size=cluster.config.dfs_block_size,
    )


@pytest.fixture()
def restore_obs_plane():
    """Give the test a fresh observability plane; restore the old one after.

    Every field of the fresh :class:`~repro.obs.ObsPlane` resolves on
    first read, as in a new process, so nothing a test installs — a
    journal, sampler, recorder, aggregator — leaks into the next one.
    """
    previous = obs.install(obs.ObsPlane())
    yield
    obs.install(previous)
