"""The offline tuning phase (§3, Fig. 3's logging branch).

Whenever IntelliSphere actually executes a remote operator, it captures
the input parameters and the actual elapsed time into a log.
Periodically the log is:

1. appended to the operator's training set;
2. fed to the neural network for continued training (tuning);
3. folded into the per-dimension metadata — the ``[min, max]`` ranges
   expand only where training-point continuity is maintained, otherwise
   the values are remembered as out-of-range clusters
   (:meth:`repro.core.metadata.DimensionMetadata.absorb`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.metadata import DimensionMetadata
from repro.core.training import TrainingSet
from repro.exceptions import ConfigurationError, TrainingError
from repro.ml.nn import NeuralNetwork

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogEntry:
    """One logged remote execution: input parameters plus actual cost."""

    features: Tuple[float, ...]
    actual_cost: float

    def __post_init__(self) -> None:
        if self.actual_cost < 0:
            raise ConfigurationError("actual_cost must be >= 0")


class ExecutionLog:
    """Batch log of executed remote operators awaiting offline tuning."""

    def __init__(self, num_dimensions: int) -> None:
        if num_dimensions < 1:
            raise ConfigurationError("num_dimensions must be >= 1")
        self.num_dimensions = num_dimensions
        self._entries: List[LogEntry] = []

    def record(self, features: Sequence[float], actual_cost: float) -> None:
        features = tuple(float(v) for v in features)
        if len(features) != self.num_dimensions:
            raise ConfigurationError(
                f"expected {self.num_dimensions} features, got {len(features)}"
            )
        self._entries.append(LogEntry(features=features, actual_cost=float(actual_cost)))

    @property
    def entries(self) -> Tuple[LogEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def drain(self) -> Tuple[LogEntry, ...]:
        """Return all entries and empty the log (one tuning batch)."""
        batch = tuple(self._entries)
        self._entries.clear()
        return batch


class OfflineTuner:
    """Applies a drained log batch to a logical-op model's components.

    Args:
        tuning_iterations: Continued-training steps on the combined
            (old + new) data per tuning round.
        beta: The range-check slack used for metadata absorption; should
            match the query-time β.
        replay_fraction: Portion of each tuning minibatch drawn from the
            original training data, preventing catastrophic forgetting.
            Implemented by concatenating a replay sample with the new
            entries before ``partial_fit``.
    """

    def __init__(
        self,
        tuning_iterations: int = 3_000,
        beta: float = 2.0,
        replay_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if tuning_iterations < 1:
            raise ConfigurationError("tuning_iterations must be >= 1")
        if not 0 <= replay_fraction < 1:
            raise ConfigurationError("replay_fraction must be in [0, 1)")
        self.tuning_iterations = tuning_iterations
        self.beta = beta
        self.replay_fraction = replay_fraction
        self._rng = np.random.default_rng(seed)

    def tune(
        self,
        network: NeuralNetwork,
        training_set: TrainingSet,
        metadata: Sequence[DimensionMetadata],
        batch: Sequence[LogEntry],
    ) -> int:
        """Fold a log batch into the model; returns entries applied.

        The entries join the training set, the network continues training
        on new-plus-replayed data, and each dimension's metadata absorbs
        the new values under the continuity rule.
        """
        if not batch:
            return 0
        for entry in batch:
            if len(entry.features) != training_set.num_dimensions:
                raise TrainingError("log entry dimensionality mismatch")

        new_x = np.asarray([entry.features for entry in batch], dtype=float)
        new_y = np.asarray([entry.actual_cost for entry in batch], dtype=float)

        replay_x, replay_y = self._replay_sample(training_set, len(batch))
        if replay_x is not None:
            tune_x = np.vstack([new_x, replay_x])
            tune_y = np.concatenate([new_y, replay_y])
        else:
            tune_x, tune_y = new_x, new_y
        network.partial_fit(tune_x, tune_y, iterations=self.tuning_iterations)

        for entry in batch:
            training_set.add(entry.features, entry.actual_cost)
        for index, meta in enumerate(metadata):
            meta.absorb((entry.features[index] for entry in batch), beta=self.beta)
        replayed = 0 if replay_x is None else len(replay_x)
        obs.counter(
            "tuning.folds", help="offline-tuning batches folded into models"
        ).inc()
        obs.counter(
            "tuning.entries_folded",
            help="logged executions folded back by the offline tuner",
        ).inc(len(batch))
        journal = obs.plane().journal
        if journal.enabled:
            journal.append(
                "tuning",
                entries=len(batch),
                replayed=replayed,
                iterations=self.tuning_iterations,
            )
        logger.debug(
            "offline tuning folded %d logged executions (%d replayed)",
            len(batch),
            replayed,
        )
        return len(batch)

    def _replay_sample(self, training_set: TrainingSet, batch_size: int):
        if self.replay_fraction == 0 or len(training_set) == 0:
            return None, None
        n_replay = max(1, int(batch_size * self.replay_fraction / (1 - self.replay_fraction)))
        n_replay = min(n_replay, len(training_set))
        matrix = training_set.feature_matrix()
        costs = training_set.cost_vector()
        idx = self._rng.choice(matrix.shape[0], size=n_replay, replace=False)
        return matrix[idx], costs[idx]
