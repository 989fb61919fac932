"""Ordinary least squares.

:class:`LinearRegression` is the workhorse of the sub-op costing (§4) —
most sub-ops fit a tight line over record size (Figs. 7(b), 13(c-e)) —
and also the baseline the paper compares the NN against (Figs. 11(d),
12(d)).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ModelNotTrainedError, TrainingError
from repro.ml.metrics import r_squared


class LinearRegression:
    """OLS regression ``y = X w + b`` over one or more features."""

    def __init__(self) -> None:
        self._weights: Optional[np.ndarray] = None
        self._intercept: float = 0.0

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LinearRegression":
        """Fit by (optionally weighted) least squares.

        Args:
            x: Feature matrix or 1-D feature vector.
            y: Targets.
            sample_weight: Non-negative per-sample weights; weighted least
                squares scales each residual by sqrt(weight).
        """
        x = _as_matrix(x)
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise TrainingError(
                f"feature rows {x.shape[0]} != target rows {y.shape[0]}"
            )
        if x.shape[0] < x.shape[1] + 1:
            raise TrainingError(
                f"need at least {x.shape[1] + 1} samples for {x.shape[1]} features"
            )
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float).ravel()
            if sample_weight.shape[0] != y.shape[0]:
                raise TrainingError("sample_weight length mismatch")
            if np.any(sample_weight < 0):
                raise TrainingError("sample_weight must be non-negative")
            if not np.any(sample_weight > 0):
                raise TrainingError("sample_weight must have positive mass")
            root = np.sqrt(sample_weight).reshape(-1, 1)
            design = design * root
            y = y * root.ravel()
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self._weights = solution[:-1]
        self._intercept = float(solution[-1])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise ModelNotTrainedError("LinearRegression.predict before fit")
        x = _as_matrix(x)
        if x.shape[1] != self._weights.shape[0]:
            raise ConfigurationError(
                f"expected {self._weights.shape[0]} features, got {x.shape[1]}"
            )
        return x @ self._weights + self._intercept

    @property
    def coefficients(self) -> np.ndarray:
        if self._weights is None:
            raise ModelNotTrainedError("no coefficients before fit")
        return self._weights.copy()

    @property
    def slope(self) -> float:
        """Convenience for single-feature fits (the sub-op models)."""
        coefficients = self.coefficients
        if coefficients.shape[0] != 1:
            raise ConfigurationError(
                "slope is defined only for single-feature regressions"
            )
        return float(coefficients[0])

    @property
    def intercept(self) -> float:
        if self._weights is None:
            raise ModelNotTrainedError("no intercept before fit")
        return self._intercept

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def r2(self, x: np.ndarray, y: np.ndarray) -> float:
        """R² of this model on the given data."""
        return r_squared(np.asarray(y, dtype=float).ravel(), self.predict(x))

    def __repr__(self) -> str:
        if self._weights is None:
            return "LinearRegression(unfitted)"
        if self._weights.shape[0] == 1:
            return (
                f"LinearRegression(y = {self.slope:.4f}x + {self._intercept:.4f})"
            )
        return f"LinearRegression(features={self._weights.shape[0]})"


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ConfigurationError(f"expected 2-D features, got shape {x.shape}")
    return x
