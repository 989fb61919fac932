"""The online remedy phase (§3, Fig. 4).

When a query-time input vector has *pivot* dimensions way off the trained
range, the neural network alone cannot be trusted (bounded activations do
not extrapolate).  The ``QueryTime-Remedy()`` procedure:

1. keeps the NN estimate ``c_nn`` (it still captures the cross-dimension
   relationship);
2. extracts the ``k`` training records that (a) match the query most
   closely on the in-range dimensions and (b) have the pivot values
   nearest to the query's (its immediate successors/predecessors);
3. fits an on-the-fly linear regression over the pivot dimension(s) of
   those records and extrapolates it to the query point — ``c_reg``;
4. combines ``α · c_nn + (1 − α) · c_reg``.

``α`` starts at 0.5 and, as actual execution times of remedied queries
are observed, is re-fit to minimize the squared error of the combination
(:class:`AlphaCalibrator` — Table 1's adjustment loop).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.metadata import DimensionMetadata
from repro.core.training import TrainingSet
from repro.exceptions import ConfigurationError, TrainingError
from repro.ml.linear import LinearRegression

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RemedyEstimate:
    """Outcome of the online remedy for one query.

    Attributes:
        combined: The final estimate ``α·nn + (1−α)·regression``.
        nn_estimate: The neural network's (non-extrapolating) estimate.
        regression_estimate: The pivot-regression extrapolation.
        pivots: Indexes of the pivot dimensions.
        alpha: The α used for this combination.
    """

    combined: float
    nn_estimate: float
    regression_estimate: float
    pivots: Tuple[int, ...]
    alpha: float


class AlphaCalibrator:
    """Auto-adjusts the cost-combining factor α from observed outcomes.

    After each batch of remedied queries executes, α is re-fit by least
    squares over *all* previously observed (nn, regression, actual)
    triples: with ``d = nn − reg`` and ``e = actual − reg``, the optimal
    α is ``Σ d·e / Σ d²``, clipped into ``[min_alpha, max_alpha]``.
    """

    def __init__(
        self,
        initial_alpha: float = 0.5,
        min_alpha: float = 0.05,
        max_alpha: float = 0.95,
    ) -> None:
        if not 0 < initial_alpha < 1:
            raise ConfigurationError("initial_alpha must be in (0, 1)")
        if not 0 <= min_alpha < max_alpha <= 1:
            raise ConfigurationError("need 0 <= min_alpha < max_alpha <= 1")
        self.alpha = initial_alpha
        self.min_alpha = min_alpha
        self.max_alpha = max_alpha
        self._nn: List[float] = []
        self._reg: List[float] = []
        self._actual: List[float] = []

    def observe(self, nn_estimate: float, regression_estimate: float, actual: float) -> None:
        """Record the outcome of one remedied query's execution."""
        self._nn.append(float(nn_estimate))
        self._reg.append(float(regression_estimate))
        self._actual.append(float(actual))

    def recalibrate(self) -> float:
        """Re-fit α over the full observation history; returns the new α."""
        if not self._nn:
            return self.alpha
        nn = np.asarray(self._nn)
        reg = np.asarray(self._reg)
        actual = np.asarray(self._actual)
        d = nn - reg
        denominator = float(np.sum(d * d))
        if denominator > 0:
            alpha = float(np.sum(d * (actual - reg)) / denominator)
            self.alpha = float(np.clip(alpha, self.min_alpha, self.max_alpha))
        obs.counter("remedy.recalibrations").inc()
        obs.gauge(
            "remedy.alpha",
            help="last recalibrated cost-combining alpha (Table 1 loop)",
        ).set(self.alpha)
        journal = obs.plane().journal
        if journal.enabled:
            payload = {
                "phase": "recalibration",
                "alpha": self.alpha,
                "observations": len(self._nn),
            }
            query_id = obs.current_query_id()
            if query_id is not None:
                payload["query_id"] = query_id
            journal.append("remedy", **payload)
        logger.debug(
            "alpha recalibrated to %.3f over %d observations",
            self.alpha,
            len(self._nn),
        )
        return self.alpha

    @property
    def num_observations(self) -> int:
        return len(self._nn)


class OnlineRemedy:
    """The ``QueryTime-Remedy()`` procedure of Figs. 3–4.

    Args:
        k_neighbors: Size of the extracted nearest-training-point set
            (the paper's system parameter ``k``).
        candidate_pool_factor: The in-range filter keeps
            ``k * candidate_pool_factor`` closest candidates before
            selecting by pivot proximity.
    """

    def __init__(self, k_neighbors: int = 8, candidate_pool_factor: int = 4) -> None:
        if k_neighbors < 2:
            raise ConfigurationError("k_neighbors must be >= 2")
        if candidate_pool_factor < 1:
            raise ConfigurationError("candidate_pool_factor must be >= 1")
        self.k_neighbors = k_neighbors
        self.candidate_pool_factor = candidate_pool_factor

    def estimate(
        self,
        nn_estimate: float,
        training_set: TrainingSet,
        metadata: Sequence[DimensionMetadata],
        features: Sequence[float],
        pivots: Sequence[int],
        alpha: float,
    ) -> RemedyEstimate:
        """Produce the combined remedy estimate for one query.

        Falls back to the NN estimate alone when the training set cannot
        support a pivot regression (degenerate spread).
        """
        if not pivots:
            raise ConfigurationError("remedy called without pivot dimensions")
        obs.counter(
            "remedy.activations",
            help="queries routed through the online remedy (out-of-range)",
        ).inc()
        features = np.asarray([float(v) for v in features])
        fallback = False
        with obs.plane().tracer.span(
            "remedy.estimate", pivots=len(pivots), alpha=alpha
        ):
            try:
                regression_estimate = self._pivot_regression(
                    training_set, metadata, features, tuple(pivots)
                )
            except TrainingError:
                fallback = True
                obs.counter(
                    "remedy.regression_fallbacks",
                    help="remedies where the pivot regression degenerated",
                ).inc()
                logger.debug(
                    "pivot regression degenerate for pivots %s; NN estimate kept",
                    tuple(pivots),
                )
                regression_estimate = nn_estimate
        regression_estimate = max(0.0, regression_estimate)
        combined = alpha * nn_estimate + (1.0 - alpha) * regression_estimate
        journal = obs.plane().journal
        if journal.enabled:
            payload = {
                "phase": "activation",
                "alpha": alpha,
                "nn_estimate": nn_estimate,
                "regression_estimate": regression_estimate,
                "combined": max(0.0, combined),
                "pivots": list(int(p) for p in pivots),
                "fallback": fallback,
            }
            query_id = obs.current_query_id()
            if query_id is not None:
                payload["query_id"] = query_id
            journal.append("remedy", **payload)
        return RemedyEstimate(
            combined=max(0.0, combined),
            nn_estimate=nn_estimate,
            regression_estimate=regression_estimate,
            pivots=tuple(pivots),
            alpha=alpha,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pivot_regression(
        self,
        training_set: TrainingSet,
        metadata: Sequence[DimensionMetadata],
        features: np.ndarray,
        pivots: Tuple[int, ...],
    ) -> float:
        matrix = training_set.feature_matrix()
        costs = training_set.cost_vector()
        neighbors, distances = self._select_neighbors(
            matrix, metadata, features, pivots
        )
        if neighbors.size < len(pivots) + 2:
            raise TrainingError("not enough neighbors for pivot regression")

        pivot_columns = matrix[np.ix_(neighbors, list(pivots))]
        if all(float(np.ptp(pivot_columns[:, j])) == 0.0 for j in range(len(pivots))):
            raise TrainingError("no spread along the pivot dimensions")
        # Weighted least squares: neighbors whose in-range dimensions match
        # the query dominate; loosely matched fallbacks contribute little.
        bandwidth = max(_median(distances), 0.05)
        weights = np.exp(-((distances / bandwidth) ** 2))
        model = LinearRegression().fit(
            pivot_columns, costs[neighbors], sample_weight=weights
        )
        query_pivots = features[list(pivots)].reshape(1, -1)
        return float(model.predict(query_pivots)[0])

    def _select_neighbors(
        self,
        matrix: np.ndarray,
        metadata: Sequence[DimensionMetadata],
        features: np.ndarray,
        pivots: Tuple[int, ...],
    ) -> np.ndarray:
        in_range = [i for i in range(matrix.shape[1]) if i not in pivots]
        scales = np.asarray(
            [
                max(meta.max_value - meta.min_value, meta.step_size)
                for meta in metadata
            ]
        )
        if in_range:
            deltas = (matrix[:, in_range] - features[in_range]) / scales[in_range]
            in_range_distance = np.sqrt(np.sum(deltas**2, axis=1))
        else:
            in_range_distance = np.zeros(matrix.shape[0])

        # Keep the candidates whose in-range dimensions match the query
        # most closely: everything at (or within a whisker of) the k-th
        # smallest distance, capped at k * candidate_pool_factor.  With
        # exact grid matches available, only those survive the cut.
        order = np.argsort(in_range_distance, kind="stable")
        kth = in_range_distance[order[min(self.k_neighbors, len(order)) - 1]]
        cutoff = kth + 1e-9 + 0.05 * max(kth, 1e-12)
        pool_cap = min(matrix.shape[0], self.k_neighbors * self.candidate_pool_factor)
        pool = order[:pool_cap]
        pool = pool[in_range_distance[pool] <= cutoff]

        pivot_deltas = (matrix[np.ix_(pool, list(pivots))] - features[list(pivots)]) / scales[
            list(pivots)
        ]
        pivot_distance = np.sqrt(np.sum(pivot_deltas**2, axis=1))
        keep = np.argsort(pivot_distance, kind="stable")[: self.k_neighbors]
        chosen = pool[keep]
        return chosen, in_range_distance[chosen]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit.

    ``np.median`` imports ``numpy.ma`` on its first call to check for
    masked arrays: ~1.3 MB that a served process would otherwise load
    on its first remedied estimate, after set-up.  This takes the mean
    of the middle element (odd length) or of the two middle ones, as
    ``np.mean`` computes it: a sum that starts from ``0.0`` (so ``-0.0``
    reads ``0.0``), divided by the count.  An array whose sort ends in
    NaN has a NaN median, which is ``np.median``'s rule.
    """
    ordered = np.sort(values)
    if math.isnan(ordered[-1]):
        return math.nan
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(0.0 + ordered[middle])
    return float((0.0 + ordered[middle - 1] + ordered[middle]) / 2)
