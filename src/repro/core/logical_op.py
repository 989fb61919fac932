"""Logical-operator costing (§3) — the blackbox approach.

:class:`LogicalOpModel` owns everything Fig. 3 describes for one logical
operator (join or aggregation) on one remote system:

* the labeled training set built by executing gridded queries remotely;
* per-dimension ``[min, max, stepSize]`` metadata;
* the two-hidden-layer neural network (topology via cross-validation);
* the online remedy path with its self-calibrating α;
* the execution log and offline tuning hook.

The estimation flow is the Fig. 3 flowchart: in-range inputs go straight
through the NN; way-off inputs trigger ``QueryTime-Remedy()``; actual
remote executions are logged and periodically folded back into the model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.metadata import DimensionMetadata, find_pivots
from repro.core.operators import OperatorKind, dimensions_for
from repro.core.remedy import AlphaCalibrator, OnlineRemedy, RemedyEstimate
from repro.core.training import TrainingSet
from repro.core.tuning import ExecutionLog, OfflineTuner
from repro.exceptions import ConfigurationError, ModelNotTrainedError, TrainingError
from repro.ml.crossval import topology_search
from repro.ml.nn import NeuralNetwork, TrainingHistory

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostEstimate:
    """A cost estimate for one operator instance.

    Attributes:
        seconds: The estimated elapsed execution time.
        features: The input vector the estimate was computed from.
        used_remedy: True when the online remedy path produced it.
        remedy: The remedy details when ``used_remedy``.
    """

    seconds: float
    features: Tuple[float, ...]
    used_remedy: bool = False
    remedy: Optional[RemedyEstimate] = None


@dataclass(frozen=True)
class TrainingReport:
    """Summary of one logical-op training run.

    Attributes:
        topology: Hidden-layer widths of the selected network.
        history: RMSE% trajectory during final training (Fig. 11(b)).
        num_queries: Training-set size.
        remote_training_seconds: Total remote time spent executing the
            training queries (Fig. 11(a)'s y-axis endpoint).
    """

    topology: Tuple[int, int]
    history: TrainingHistory
    num_queries: int
    remote_training_seconds: float


class LogicalOpModel:
    """The complete logical-op costing model for one operator kind.

    Args:
        kind: Operator being modeled (fixes the dimension list).
        beta: Out-of-range slack multiplier (a dimension is a pivot when
            its value exceeds the trained range by > ``β × stepSize``).
        seed: Seed for the network and tuner.
        nn_iterations: Final training iterations (paper: 20,000).
        search_topology: Run the §3 cross-validation topology search; when
            False, ``default_topology`` is used directly.
        default_topology: Hidden widths when the search is skipped.
    """

    def __init__(
        self,
        kind: OperatorKind,
        beta: float = 2.0,
        seed: int = 0,
        nn_iterations: int = 20_000,
        search_topology: bool = True,
        default_topology: Optional[Tuple[int, int]] = None,
        search_iterations: int = 2_000,
        max_search_candidates: int = 6,
        remedy: Optional[OnlineRemedy] = None,
        tuner: Optional[OfflineTuner] = None,
    ) -> None:
        if beta <= 1:
            raise ConfigurationError(f"beta must be > 1, got {beta}")
        self.kind = kind
        self.dimension_names = dimensions_for(kind)
        self.beta = beta
        self.seed = seed
        self.nn_iterations = nn_iterations
        self.search_topology = search_topology
        self.default_topology = default_topology or (
            2 * len(self.dimension_names),
            max(3, len(self.dimension_names) // 2 + 2),
        )
        self.search_iterations = search_iterations
        self.max_search_candidates = max_search_candidates

        self.training_set = TrainingSet(self.dimension_names)
        self.metadata: List[DimensionMetadata] = []
        self.network: Optional[NeuralNetwork] = None
        self.remedy = remedy or OnlineRemedy()
        self.alpha_calibrator = AlphaCalibrator()
        self.execution_log = ExecutionLog(len(self.dimension_names))
        self.tuner = tuner or OfflineTuner(seed=seed)
        self.last_report: Optional[TrainingReport] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        training_set: Optional[TrainingSet] = None,
        record_every: int = 200,
    ) -> TrainingReport:
        """Build metadata, select a topology, and train the network.

        Args:
            training_set: Labeled configurations; when given it replaces
                the model's current set (it must use this model's
                dimensions).
            record_every: History recording period during final training.
        """
        if training_set is not None:
            if training_set.dimension_names != self.dimension_names:
                raise TrainingError(
                    "training set dimensions do not match operator "
                    f"{self.kind.value}: {training_set.dimension_names}"
                )
            self.training_set = training_set
        if len(self.training_set) < 10:
            raise TrainingError(
                f"need at least 10 training records, have {len(self.training_set)}"
            )

        self.metadata = self.training_set.build_metadata()
        x = self.training_set.feature_matrix()
        y = self.training_set.cost_vector()

        if self.search_topology:
            result = topology_search(
                x,
                y,
                iterations=self.search_iterations,
                seed=self.seed,
                max_candidates=self.max_search_candidates,
            )
            topology = result.best_topology
        else:
            topology = self.default_topology

        self.network = NeuralNetwork(hidden_layers=topology, seed=self.seed)
        history = self.network.fit(
            x, y, iterations=self.nn_iterations, record_every=record_every
        )
        self.last_report = TrainingReport(
            topology=tuple(topology),
            history=history,
            num_queries=len(self.training_set),
            remote_training_seconds=self.training_set.total_training_seconds,
        )
        obs.counter("logical_op.trainings").inc()
        obs.gauge(
            f"logical_op.final_rmse_percent.{self.kind.value}",
            help="convergence RMSE percent of the last training run (Fig. 11(b))",
        ).set(history.final_error)
        logger.info(
            "trained %s logical-op model: topology=%s records=%d rmse%%=%.2f",
            self.kind.value,
            tuple(topology),
            len(self.training_set),
            history.final_error,
        )
        return self.last_report

    @property
    def is_trained(self) -> bool:
        return self.network is not None

    # ------------------------------------------------------------------
    # Estimation (Fig. 3 flowchart)
    # ------------------------------------------------------------------
    def estimate(self, features: Sequence[float]) -> CostEstimate:
        """Estimate the operator's remote execution time.

        In-range inputs use the network directly; inputs with pivot
        dimensions route through the online remedy.
        """
        network = self._require_network()
        features = self._check_features(features)
        with obs.plane().tracer.span("nn.inference", operator=self.kind.value) as span:
            nn_estimate = max(0.0, network.predict_one(features))
            span.set("seconds", nn_estimate)
        return self._finish_estimate(features, nn_estimate)

    def estimate_batch(
        self, feature_rows: Sequence[Sequence[float]]
    ) -> List[CostEstimate]:
        """Estimate a batch of operator instances in one forward pass.

        The whole feature matrix goes through the network as a single
        set of matmuls; every row then takes the same Fig. 3 pivot check
        and remedy path as :meth:`estimate`, so the returned estimates
        are bit-identical to the scalar loop (the network's inference
        path is batch-size invariant by construction).
        """
        network = self._require_network()
        rows = [self._check_features(row) for row in feature_rows]
        if not rows:
            return []
        matrix = np.asarray(rows, dtype=float)
        with obs.plane().tracer.span(
            "nn.inference", operator=self.kind.value, batch=len(rows)
        ) as span:
            predictions = np.maximum(0.0, network.predict(matrix))
            span.set("seconds", float(predictions.sum()))
        obs.counter(
            "logical_op.batched_inferences",
            help="batched NN forward passes (one per estimate_batch call)",
        ).inc()
        return [
            self._finish_estimate(features, float(nn_estimate))
            for features, nn_estimate in zip(rows, predictions)
        ]

    def _check_features(self, features: Sequence[float]) -> Tuple[float, ...]:
        features = tuple(float(v) for v in features)
        if len(features) != len(self.dimension_names):
            raise ConfigurationError(
                f"expected {len(self.dimension_names)} features, got {len(features)}"
            )
        return features

    def _finish_estimate(
        self, features: Tuple[float, ...], nn_estimate: float
    ) -> CostEstimate:
        """The post-network half of the Fig. 3 flowchart (pivots, remedy)."""
        report = find_pivots(self.metadata, features, beta=self.beta)
        if not report.needs_remedy:
            return CostEstimate(seconds=nn_estimate, features=features)
        remedy_estimate = self.remedy.estimate(
            nn_estimate=nn_estimate,
            training_set=self.training_set,
            metadata=self.metadata,
            features=features,
            pivots=report.pivots,
            alpha=self.alpha_calibrator.alpha,
        )
        return CostEstimate(
            seconds=remedy_estimate.combined,
            features=features,
            used_remedy=True,
            remedy=remedy_estimate,
        )

    def estimate_nn_only(self, features: Sequence[float]) -> float:
        """The raw network estimate (the Fig. 14 "NN" baseline)."""
        network = self._require_network()
        return max(0.0, network.predict_one([float(v) for v in features]))

    # ------------------------------------------------------------------
    # Feedback loop (logging, α calibration, offline tuning)
    # ------------------------------------------------------------------
    def record_actual(self, estimate: CostEstimate, actual_seconds: float) -> None:
        """Report the actual execution time of an estimated operator.

        The observation enters the execution log (for offline tuning) and,
        for remedied estimates, the α-calibration history.
        """
        if actual_seconds < 0:
            raise ConfigurationError("actual_seconds must be >= 0")
        obs.counter("logical_op.recorded_actuals").inc()
        self.execution_log.record(estimate.features, actual_seconds)
        if estimate.used_remedy and estimate.remedy is not None:
            self.alpha_calibrator.observe(
                estimate.remedy.nn_estimate,
                estimate.remedy.regression_estimate,
                actual_seconds,
            )

    def recalibrate_alpha(self) -> float:
        """Re-fit α after a batch of remedied executions (Table 1)."""
        return self.alpha_calibrator.recalibrate()

    def run_offline_tuning(self) -> int:
        """Drain the execution log into the model; returns entries used."""
        network = self._require_network()
        batch = self.execution_log.drain()
        if not batch:
            return 0
        return self.tuner.tune(network, self.training_set, self.metadata, batch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_network(self) -> NeuralNetwork:
        if self.network is None:
            raise ModelNotTrainedError(
                f"logical-op model for {self.kind.value} is not trained"
            )
        return self.network

    def __repr__(self) -> str:
        return (
            f"LogicalOpModel(kind={self.kind.value}, trained={self.is_trained}, "
            f"records={len(self.training_set)})"
        )
