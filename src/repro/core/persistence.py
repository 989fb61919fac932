"""Persistence of costing profiles.

The paper stores each remote system's costing profile (CP) in its
registration profile, and "updating the costing profile information
instantaneously reflects on the remote table costing" (§5).  A real
deployment therefore needs CPs that survive restarts.  This module
serializes every trained artifact — sub-op linear models with the
two-regime hash-build, logical-op neural networks with their scalers,
training sets, dimension metadata, and α-calibration state — to plain
JSON, and restores them bit-for-bit for estimation.

Adam optimizer moments are deliberately *not* persisted: a reloaded
network predicts identically, and a later ``partial_fit`` simply
restarts the optimizer state (the standard checkpointing trade-off).

Usage::

    from repro.core.persistence import load_profile, save_profile

    save_profile(profile, "hive_profile.json")
    restored = load_profile("hive_profile.json")
    restored.build_estimator()
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.estimator import CostingApproach
from repro.core.logical_op import LogicalOpModel
from repro.core.metadata import DimensionMetadata
from repro.core.operators import OperatorKind
from repro.core.profile import CostingProfile, RemoteSystemProfile
from repro.core.remedy import AlphaCalibrator
from repro.core.rules import SelectionStrategy
from repro.core.subop_model import (
    ClusterInfo,
    HashBuildModel,
    SubOpModel,
    SubOpModelSet,
    SubOpTrainingResult,
)
from repro.core.training import TrainingSet
from repro.engines.subops import SubOp
from repro.exceptions import ConfigurationError
from repro.ml.linear import LinearRegression
from repro.ml.nn import NeuralNetwork
from repro.ml.scaling import LogStandardScaler, StandardScaler

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# ML primitives
# ----------------------------------------------------------------------
def _linear_to_dict(model: LinearRegression) -> Dict[str, Any]:
    return {
        "weights": model.coefficients.tolist(),
        "intercept": model.intercept,
    }


def _linear_from_dict(data: Dict[str, Any]) -> LinearRegression:
    model = LinearRegression()
    model._weights = np.asarray(data["weights"], dtype=float)
    model._intercept = float(data["intercept"])
    return model


def _standard_scaler_to_dict(scaler: StandardScaler) -> Optional[Dict[str, Any]]:
    if not scaler.is_fitted:
        return None
    return {"mean": scaler._mean.tolist(), "std": scaler._std.tolist()}


def _standard_scaler_from_dict(data: Optional[Dict[str, Any]]) -> StandardScaler:
    scaler = StandardScaler()
    if data is not None:
        scaler._mean = np.asarray(data["mean"], dtype=float)
        scaler._std = np.asarray(data["std"], dtype=float)
    return scaler


def _network_to_dict(network: NeuralNetwork) -> Dict[str, Any]:
    weights, biases = network.parameters()
    return {
        "hidden_layers": list(network.hidden_layers),
        "learning_rate": network.learning_rate,
        "batch_size": network.batch_size,
        "seed": network.seed,
        "log_target": network.log_target,
        "weights": [w.tolist() for w in weights],
        "biases": [b.tolist() for b in biases],
        "x_scaler": _standard_scaler_to_dict(network._x_scaler._inner),
        "y_scaler": _standard_scaler_to_dict(network._y_scaler),
    }


def _network_from_dict(data: Dict[str, Any]) -> NeuralNetwork:
    network = NeuralNetwork(
        hidden_layers=tuple(data["hidden_layers"]),
        learning_rate=data["learning_rate"],
        batch_size=data["batch_size"],
        seed=data["seed"],
        log_target=data["log_target"],
    )
    network.load_parameters(data["weights"], data["biases"])
    x_scaler = LogStandardScaler()
    x_scaler._inner = _standard_scaler_from_dict(data["x_scaler"])
    network._x_scaler = x_scaler
    network._y_scaler = _standard_scaler_from_dict(data["y_scaler"])
    return network


# ----------------------------------------------------------------------
# Sub-op artifacts
# ----------------------------------------------------------------------
def _subop_set_to_dict(model_set: SubOpModelSet) -> Dict[str, Any]:
    in_memory, spilling = model_set.hash_build.regimes
    return {
        "models": {
            op.value: _linear_to_dict(model_set.model(op)._regression)
            for op in model_set.trained_ops
            if op is not SubOp.HASH_BUILD
        },
        "hash_build": {
            "in_memory": _linear_to_dict(in_memory),
            "spilling": None if spilling is None else _linear_to_dict(spilling),
            "workspace_threshold": (
                None
                if model_set.hash_build.workspace_threshold == float("inf")
                else model_set.hash_build.workspace_threshold
            ),
        },
        "job_overhead_seconds": model_set.job_overhead_seconds,
    }


def _subop_set_from_dict(data: Dict[str, Any]) -> SubOpModelSet:
    models = {}
    for name, linear in data["models"].items():
        op = SubOp(name)
        models[op] = SubOpModel(op, _linear_from_dict(linear))
    hb = data["hash_build"]
    threshold = hb["workspace_threshold"]
    hash_build = HashBuildModel(
        in_memory=_linear_from_dict(hb["in_memory"]),
        spilling=(
            None if hb["spilling"] is None else _linear_from_dict(hb["spilling"])
        ),
        workspace_threshold=float("inf") if threshold is None else threshold,
    )
    return SubOpModelSet(
        models=models,
        hash_build=hash_build,
        job_overhead_seconds=data["job_overhead_seconds"],
    )


def _subop_result_to_dict(result: SubOpTrainingResult) -> Dict[str, Any]:
    # Raw per-query samples are training evidence, not needed for
    # estimation; only the models and summary accounting persist.
    return {
        "model_set": _subop_set_to_dict(result.model_set),
        "num_queries": result.num_queries,
        "remote_training_seconds": result.remote_training_seconds,
    }


def _subop_result_from_dict(data: Dict[str, Any]) -> SubOpTrainingResult:
    return SubOpTrainingResult(
        model_set=_subop_set_from_dict(data["model_set"]),
        samples={},
        num_queries=data["num_queries"],
        remote_training_seconds=data["remote_training_seconds"],
    )


# ----------------------------------------------------------------------
# Logical-op artifacts
# ----------------------------------------------------------------------
def _training_set_to_dict(training_set: TrainingSet) -> Dict[str, Any]:
    return {
        "dimensions": list(training_set.dimension_names),
        "records": [
            [list(record.features), record.cost]
            for record in training_set.records
        ],
    }


def _training_set_from_dict(data: Dict[str, Any]) -> TrainingSet:
    training_set = TrainingSet(tuple(data["dimensions"]))
    for features, cost in data["records"]:
        training_set.add(tuple(features), float(cost))
    return training_set


def _metadata_to_dict(meta: DimensionMetadata) -> Dict[str, Any]:
    return {
        "name": meta.name,
        "min_value": meta.min_value,
        "max_value": meta.max_value,
        "step_size": meta.step_size,
        "extra_points": list(meta.extra_points),
    }


def _metadata_from_dict(data: Dict[str, Any]) -> DimensionMetadata:
    return DimensionMetadata(
        name=data["name"],
        min_value=data["min_value"],
        max_value=data["max_value"],
        step_size=data["step_size"],
        extra_points=list(data["extra_points"]),
    )


def _alpha_to_dict(calibrator: AlphaCalibrator) -> Dict[str, Any]:
    return {
        "alpha": calibrator.alpha,
        "min_alpha": calibrator.min_alpha,
        "max_alpha": calibrator.max_alpha,
        "nn": list(calibrator._nn),
        "reg": list(calibrator._reg),
        "actual": list(calibrator._actual),
    }


def _alpha_from_dict(data: Dict[str, Any]) -> AlphaCalibrator:
    calibrator = AlphaCalibrator(
        initial_alpha=0.5, min_alpha=data["min_alpha"], max_alpha=data["max_alpha"]
    )
    calibrator.alpha = data["alpha"]
    calibrator._nn = list(data["nn"])
    calibrator._reg = list(data["reg"])
    calibrator._actual = list(data["actual"])
    return calibrator


def logical_model_to_dict(model: LogicalOpModel) -> Dict[str, Any]:
    """Serialize one trained logical-op model."""
    if not model.is_trained:
        raise ConfigurationError("cannot persist an untrained logical-op model")
    assert model.network is not None
    return {
        "kind": model.kind.value,
        "beta": model.beta,
        "seed": model.seed,
        "nn_iterations": model.nn_iterations,
        "network": _network_to_dict(model.network),
        "training_set": _training_set_to_dict(model.training_set),
        "metadata": [_metadata_to_dict(meta) for meta in model.metadata],
        "alpha": _alpha_to_dict(model.alpha_calibrator),
    }


def logical_model_from_dict(data: Dict[str, Any]) -> LogicalOpModel:
    """Restore a trained logical-op model for estimation and tuning."""
    model = LogicalOpModel(
        OperatorKind(data["kind"]),
        beta=data["beta"],
        seed=data["seed"],
        nn_iterations=data["nn_iterations"],
        search_topology=False,
    )
    model.network = _network_from_dict(data["network"])
    model.training_set = _training_set_from_dict(data["training_set"])
    model.metadata = [_metadata_from_dict(meta) for meta in data["metadata"]]
    model.alpha_calibrator = _alpha_from_dict(data["alpha"])
    return model


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def profile_to_dict(profile: RemoteSystemProfile) -> Dict[str, Any]:
    """Serialize a remote-system profile with its full CP."""
    cp = profile.costing
    return {
        "format_version": FORMAT_VERSION,
        "name": profile.name,
        "openbox": profile.openbox,
        "cluster": (
            None
            if profile.cluster is None
            else {
                "num_data_nodes": profile.cluster.num_data_nodes,
                "cores_per_node": profile.cluster.cores_per_node,
                "dfs_block_size": profile.cluster.dfs_block_size,
                "pipelined": profile.cluster.pipelined,
            }
        ),
        "approach": profile.approach.value,
        "costing": {
            "join_family": cp.join_family,
            "selection_strategy": cp.selection_strategy.value,
            "operator_routes": {
                kind.value: approach.value
                for kind, approach in cp.operator_routes.items()
            },
            "subop_result": (
                None
                if cp.subop_result is None
                else _subop_result_to_dict(cp.subop_result)
            ),
            "logical_models": {
                kind.value: logical_model_to_dict(model)
                for kind, model in cp.logical_models.items()
                if model.is_trained
            },
        },
    }


def profile_from_dict(data: Dict[str, Any]) -> RemoteSystemProfile:
    """Restore a remote-system profile with its full CP."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported costing-profile format version: {version!r}"
        )
    cp_data = data["costing"]
    costing = CostingProfile(
        subop_result=(
            None
            if cp_data["subop_result"] is None
            else _subop_result_from_dict(cp_data["subop_result"])
        ),
        logical_models={
            OperatorKind(kind): logical_model_from_dict(model)
            for kind, model in cp_data["logical_models"].items()
        },
        join_family=cp_data["join_family"],
        selection_strategy=SelectionStrategy(cp_data["selection_strategy"]),
        operator_routes={
            OperatorKind(kind): CostingApproach(approach)
            for kind, approach in cp_data.get("operator_routes", {}).items()
        },
    )
    cluster_data = data["cluster"]
    return RemoteSystemProfile(
        name=data["name"],
        openbox=data["openbox"],
        cluster=(
            None
            if cluster_data is None
            else ClusterInfo(
                num_data_nodes=cluster_data["num_data_nodes"],
                cores_per_node=cluster_data["cores_per_node"],
                dfs_block_size=cluster_data["dfs_block_size"],
                pipelined=cluster_data.get("pipelined", False),
            )
        ),
        approach=CostingApproach(data["approach"]),
        costing=costing,
    )


def save_profile(
    profile: RemoteSystemProfile, path: Union[str, pathlib.Path]
) -> None:
    """Write a profile (with its CP) to a JSON file."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(profile_to_dict(profile)))


def load_profile(path: Union[str, pathlib.Path]) -> RemoteSystemProfile:
    """Read a profile (with its CP) back from a JSON file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load profile from {path}: {exc}") from exc
    return profile_from_dict(data)
