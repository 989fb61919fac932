"""Tests for costing-profile persistence (JSON round-trips)."""

import json

import numpy as np
import pytest

from repro.core import (
    ClusterInfo,
    CostingApproach,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
    SubOpTrainer,
)
from repro.core.persistence import (
    FORMAT_VERSION,
    load_profile,
    logical_model_from_dict,
    logical_model_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)
from repro.core.rules import SelectionStrategy
from repro.core.training import TrainingSet
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.engines.subops import SubOp
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def trained_profile():
    engine = HiveEngine(seed=0, noise_sigma=0.0)
    for spec in build_paper_corpus(row_counts=(10_000,), row_sizes=(40,)):
        engine.load_table(spec)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    profile = RemoteSystemProfile(name="hive", cluster=info)
    trainer = SubOpTrainer(record_counts=(1_000_000, 2_000_000))
    profile.costing.subop_result = trainer.train(engine, info)

    model = LogicalOpModel(
        OperatorKind.AGGREGATE, search_topology=False, nn_iterations=800, seed=0
    )
    ts = TrainingSet(model.dimension_names)
    for rows in (1e5, 1e6, 8e6):
        for size in (40, 100, 1000):
            for groups in (rows, rows / 10, rows / 100):
                ts.add((rows, size, groups, 12), 1 + rows * 2e-6 * size / 100)
    model.train(ts)
    # Exercise remedy state so alpha history round-trips too.
    estimate = model.estimate((8e7, 100, 8e5, 12))
    model.record_actual(estimate, 123.0)
    model.recalibrate_alpha()
    profile.costing.logical_models[OperatorKind.AGGREGATE] = model
    return profile


class TestRoundTrip:
    def test_json_serializable(self, trained_profile):
        payload = json.dumps(profile_to_dict(trained_profile))
        assert len(payload) > 1000

    def test_subop_estimates_identical(self, trained_profile):
        restored = profile_from_dict(profile_to_dict(trained_profile))
        original = trained_profile.costing.subop_result.model_set
        loaded = restored.costing.subop_result.model_set
        for op in original.trained_ops:
            if op is SubOp.HASH_BUILD:
                continue
            for size in (40, 250, 1000):
                assert loaded.model(op).per_record_us(size) == pytest.approx(
                    original.model(op).per_record_us(size)
                )
        assert loaded.job_overhead_seconds == pytest.approx(
            original.job_overhead_seconds
        )

    def test_hash_build_round_trip(self, trained_profile):
        restored = profile_from_dict(profile_to_dict(trained_profile))
        original = trained_profile.costing.subop_result.model_set.hash_build
        loaded = restored.costing.subop_result.model_set.hash_build
        assert loaded.workspace_threshold == pytest.approx(
            original.workspace_threshold
        )
        for workspace in (0, int(original.workspace_threshold * 2)):
            assert loaded.per_record_us(500, workspace) == pytest.approx(
                original.per_record_us(500, workspace)
            )

    def test_logical_model_predictions_identical(self, trained_profile):
        original = trained_profile.costing.logical_models[OperatorKind.AGGREGATE]
        restored = logical_model_from_dict(logical_model_to_dict(original))
        rng = np.random.default_rng(0)
        for _ in range(10):
            features = (
                float(rng.uniform(1e5, 8e6)),
                float(rng.choice([40, 100, 1000])),
                float(rng.uniform(1e3, 1e6)),
                12.0,
            )
            assert restored.estimate(features).seconds == pytest.approx(
                original.estimate(features).seconds, rel=1e-9
            )

    def test_remedy_path_round_trips(self, trained_profile):
        """Out-of-range estimation (training set + metadata + alpha) must
        behave identically after a reload."""
        original = trained_profile.costing.logical_models[OperatorKind.AGGREGATE]
        restored = logical_model_from_dict(logical_model_to_dict(original))
        features = (8e7, 100, 8e5, 12)
        a = original.estimate(features)
        b = restored.estimate(features)
        assert b.used_remedy == a.used_remedy
        assert b.seconds == pytest.approx(a.seconds, rel=1e-9)
        assert restored.alpha_calibrator.alpha == original.alpha_calibrator.alpha

    def test_full_profile_fields(self, trained_profile):
        restored = profile_from_dict(profile_to_dict(trained_profile))
        assert restored.name == trained_profile.name
        assert restored.openbox == trained_profile.openbox
        assert restored.approach is trained_profile.approach
        assert restored.cluster == trained_profile.cluster
        assert restored.costing.selection_strategy is SelectionStrategy.PREFERENCE
        restored.build_estimator()  # must be usable immediately

    def test_file_round_trip(self, trained_profile, tmp_path):
        path = tmp_path / "hive.json"
        save_profile(trained_profile, path)
        restored = load_profile(path)
        assert restored.name == "hive"
        assert restored.costing.has_subop_models
        assert restored.costing.has_logical_models


class TestReloadedNetworkTunes:
    def test_partial_fit_after_reload(self, trained_profile, tmp_path):
        """A reloaded network keeps training: offline tuning moves its
        predictions, and two reloads given the same fold agree bit for bit
        (fresh Adam state and a freshly seeded minibatch stream each)."""
        path = tmp_path / "hive.json"
        save_profile(trained_profile, path)
        reloads = [
            load_profile(path).costing.logical_models[OperatorKind.AGGREGATE].network
            for _ in range(2)
        ]
        rng = np.random.default_rng(5)
        fold_x = np.column_stack(
            [
                rng.uniform(1e7, 4e7, 40),
                rng.choice([40.0, 100.0, 1000.0], 40),
                rng.uniform(1e4, 1e6, 40),
                np.full(40, 12.0),
            ]
        )
        fold_y = 1 + fold_x[:, 0] * 2e-6 * fold_x[:, 1] / 100
        before = reloads[0].predict(fold_x)
        for network in reloads:
            network.partial_fit(fold_x, fold_y, iterations=300)
        tuned = [network.predict(fold_x) for network in reloads]
        assert not np.array_equal(tuned[0], before)
        assert np.array_equal(tuned[0], tuned[1])
        for got, want in zip(*(network.parameters() for network in reloads)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestErrors:
    def test_untrained_logical_model_rejected(self):
        model = LogicalOpModel(OperatorKind.JOIN)
        with pytest.raises(ConfigurationError):
            logical_model_to_dict(model)

    def test_bad_version_rejected(self, trained_profile):
        data = profile_to_dict(trained_profile)
        data["format_version"] = FORMAT_VERSION + 99
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_profile(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_profile(path)


class TestOperatorRoutesPersistence:
    def test_routes_round_trip(self, trained_profile):
        trained_profile.costing.operator_routes[OperatorKind.AGGREGATE] = (
            CostingApproach.LOGICAL_OP
        )
        restored = profile_from_dict(profile_to_dict(trained_profile))
        assert restored.costing.operator_routes == {
            OperatorKind.AGGREGATE: CostingApproach.LOGICAL_OP
        }
        hybrid = restored.build_estimator()
        assert (
            hybrid.approach_for(OperatorKind.AGGREGATE)
            is CostingApproach.LOGICAL_OP
        )
