"""A small feed-forward neural network (numpy, from scratch).

This is the model class of the paper's logical-op costing (§3): two
hidden layers whose widths come from a cross-validation topology search,
trained for ~20,000 iterations.  Hidden units use **tanh** — a bounded
activation.  Saturation of bounded activations is exactly why the trained
network "cannot extrapolate out-of-range values" (§3, Fig. 14): inputs
far outside the trained range push the hidden units onto their flat
tails, so the output plateaus near the trained extremes.  The online
remedy and offline tuning phases exist to repair this.

Inputs are ``log1p``-standardized (training dimensions span decades) and
the target is modeled in ``log1p`` space, giving multiplicative accuracy
across the wide execution-time range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError, ModelNotTrainedError, TrainingError
from repro.ml.metrics import rmse_percent
from repro.ml.scaling import LogStandardScaler, StandardScaler

#: Training steps whose minibatch indices come from one generator call.
_INDEX_BLOCK = 256

#: Adam's moment decay rates and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainingHistory:
    """RMSE% trajectory over training iterations (Figs. 11(b), 12(b)).

    Attributes:
        iterations: Iteration numbers at which the error was recorded.
        rmse_percent: RMSE% (on the recording set, raw scale) per record.
    """

    iterations: List[int] = field(default_factory=list)
    rmse_percent: List[float] = field(default_factory=list)

    def record(self, iteration: int, error: float) -> None:
        self.iterations.append(iteration)
        self.rmse_percent.append(error)

    @property
    def final_error(self) -> float:
        if not self.rmse_percent:
            raise ModelNotTrainedError("empty training history")
        return self.rmse_percent[-1]


class NeuralNetwork:
    """MLP with tanh hidden layers, linear output, Adam, and minibatches.

    Args:
        hidden_layers: Widths of the hidden layers, e.g. ``(14, 5)``.
        learning_rate: Adam step size.
        batch_size: Minibatch size per iteration.
        seed: Weight-init and batch-sampling seed.
        log_target: Model the target in ``log1p`` space (recommended for
            execution times spanning decades).
    """

    def __init__(
        self,
        hidden_layers: Sequence[int] = (14, 5),
        learning_rate: float = 3e-3,
        batch_size: int = 64,
        seed: int = 0,
        log_target: bool = True,
    ) -> None:
        if not hidden_layers or any(h < 1 for h in hidden_layers):
            raise ConfigurationError(
                f"hidden_layers must be positive, got {hidden_layers}"
            )
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self.log_target = log_target

        self._rng = np.random.default_rng(seed)
        # Every parameter lives in the flat vector ``_params``; the weight
        # matrices and bias vectors are reshaped views of it, and the
        # gradient and both Adam moments share its layout (see _allocate).
        self._params = np.empty(0)
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._grads = np.empty(0)
        self._grad_w: List[np.ndarray] = []
        self._grad_b: List[np.ndarray] = []
        self._m = np.empty(0)
        self._v = np.empty(0)
        self._t = 0
        self._scratch = np.empty((2, 0))
        self._x_scaler = LogStandardScaler()
        self._y_scaler = StandardScaler()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        iterations: int = 20_000,
        record_every: int = 200,
        record_on: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> TrainingHistory:
        """Train from scratch; returns the error trajectory.

        Args:
            x: Feature matrix (raw scale).
            y: Targets (raw scale, non-negative).
            iterations: Minibatch gradient steps (paper uses 20,000).
            record_every: History recording period.
            record_on: Optional (x, y) set on which the history error is
                computed; defaults to the training set.

        Every argument is validated before the network changes, so a
        rejected call leaves a trained network serving its old weights.
        """
        _validate_schedule(iterations, record_every)
        x, y = _validate_xy(x, y)
        x_scaler = LogStandardScaler()
        y_scaler = StandardScaler()
        xs = x_scaler.fit_transform(x)
        ys = y_scaler.fit_transform(self._target_forward(y))
        self._x_scaler, self._y_scaler = x_scaler, y_scaler
        self._init_weights(xs.shape[1])
        obs.counter("nn.fits").inc()
        return self._train_loop(xs, ys, x, y, iterations, record_every, record_on)

    def partial_fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        iterations: int = 2_000,
        record_every: int = 200,
    ) -> TrainingHistory:
        """Continue training with existing weights and scalers.

        This implements the offline tuning phase (§3): logged executions
        are folded into the model without re-deriving the topology.
        """
        if not self._weights:
            raise ModelNotTrainedError("partial_fit requires a previous fit")
        _validate_schedule(iterations, record_every)
        x, y = _validate_xy(x, y)
        xs = self._x_scaler.transform(x)
        ys = self._y_scaler.transform(self._target_forward(y))
        obs.counter(
            "nn.partial_fits",
            help="incremental trainings (offline tuning folds)",
        ).inc()
        return self._train_loop(xs, ys, x, y, iterations, record_every, None)

    def _train_loop(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        x_raw: np.ndarray,
        y_raw: np.ndarray,
        iterations: int,
        record_every: int,
        record_on: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> TrainingHistory:
        history = TrainingHistory()
        n = xs.shape[0]
        batch = min(self.batch_size, n)
        for start in range(0, iterations, _INDEX_BLOCK):
            # One (k, batch) draw is the stream of k size-batch draws, and
            # the last block draws only the steps left, so the generator
            # ends where a per-step draw would leave it.
            block = self._rng.integers(
                0, n, size=(min(_INDEX_BLOCK, iterations - start), batch)
            )
            for step, idx in enumerate(block, start + 1):
                self._adam_step(xs[idx], ys[idx])
                if step % record_every == 0 or step == iterations:
                    if record_on is not None:
                        error = rmse_percent(record_on[1], self.predict(record_on[0]))
                    else:
                        error = rmse_percent(y_raw, self.predict(x_raw))
                    history.record(step, error)
        obs.counter(
            "nn.iterations", help="minibatch gradient steps taken"
        ).inc(iterations)
        obs.gauge(
            "nn.last_rmse_percent",
            help="convergence RMSE percent of the most recent training loop",
        ).set(history.final_error)
        return history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict raw-scale targets for raw-scale features.

        A matrix of feature rows is costed in one vectorized forward
        pass; prediction i is bit-identical to predicting row i alone
        (see :meth:`_forward_inference`), so batched serving can replace
        scalar loops without changing a single estimate.
        """
        if not self._weights:
            raise ModelNotTrainedError("NeuralNetwork.predict before fit")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        xs = self._x_scaler.transform(x)
        out = self._forward_inference(xs).ravel()
        raw = self._y_scaler.inverse_transform(out.reshape(-1, 1)).ravel()
        return self._target_inverse(raw)

    def predict_one(self, features: Sequence[float]) -> float:
        """Predict a single sample given as a flat feature sequence."""
        return float(self.predict(np.asarray(features, dtype=float).reshape(1, -1))[0])

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Copies of the weight matrices and bias vectors, input layer first."""
        if not self._weights:
            raise ModelNotTrainedError("NeuralNetwork.parameters before fit")
        return [w.copy() for w in self._weights], [b.copy() for b in self._biases]

    def load_parameters(
        self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]
    ) -> None:
        """Install trained weights and biases, as :meth:`parameters` returns them.

        The optimizer starts afresh (zero Adam moments, step 0): the
        network predicts exactly as the one the arrays came from, and a
        later :meth:`partial_fit` restarts the optimizer state.
        """
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if not weights or weights[0].ndim != 2:
            raise ConfigurationError("weights must start with a 2-D input matrix")
        weight_shapes, bias_shapes = self._layer_shapes(weights[0].shape[0])
        got_weights = [w.shape for w in weights]
        got_biases = [b.shape for b in biases]
        if got_weights != weight_shapes or got_biases != bias_shapes:
            raise ConfigurationError(
                f"parameter shapes {got_weights} / {got_biases} do not match "
                f"hidden layers {self.hidden_layers}"
            )
        self._allocate(weights[0].shape[0])
        for view, array in zip(self._weights + self._biases, weights + biases):
            view[...] = array

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _layer_shapes(
        self, n_inputs: int
    ) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        sizes = [n_inputs, *self.hidden_layers, 1]
        return list(zip(sizes[:-1], sizes[1:])), [(o,) for o in sizes[1:]]

    def _allocate(self, n_inputs: int) -> None:
        """Zeroed parameters, gradient and Adam state in one flat layout.

        The layout is every weight matrix, then every bias vector, input
        layer first.  ``_weights``/``_biases`` and ``_grad_w``/``_grad_b``
        are reshaped views of ``_params`` and ``_grads``, so backprop
        writes the gradient in place and one pass of whole-vector ufuncs
        updates the entire network.
        """
        weight_shapes, bias_shapes = self._layer_shapes(n_inputs)
        shapes = weight_shapes + bias_shapes
        size = sum(math.prod(shape) for shape in shapes)
        self._params = np.zeros(size)
        self._grads = np.zeros(size)
        params = _views(self._params, shapes)
        grads = _views(self._grads, shapes)
        layers = len(weight_shapes)
        self._weights, self._biases = params[:layers], params[layers:]
        self._grad_w, self._grad_b = grads[:layers], grads[layers:]
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._t = 0
        self._scratch = np.empty((2, size))

    def _init_weights(self, n_inputs: int) -> None:
        self._allocate(n_inputs)
        for w in self._weights:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = self._rng.uniform(-limit, limit, size=w.shape)

    @staticmethod
    def _matmul_rowwise(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``x @ w`` with a summation order independent of the batch size.

        BLAS matmuls pick different accumulation orders for different
        matrix shapes, so ``(X @ W)[i]`` and ``X[i:i+1] @ W`` can differ
        in the last bits — enough to break the batched-equals-scalar
        contract of the estimation engine.  Broadcasting and reducing
        over the shared axis keeps every output row's summation tree a
        function of the layer width only.  The layers here are tiny
        (<= ~16 units), so the explicit temporaries cost microseconds.
        """
        return (x[:, :, None] * w[None, :, :]).sum(axis=1)

    def _forward_inference(self, xs: np.ndarray) -> np.ndarray:
        """Output activations only, on the deterministic rowwise path."""
        current = xs
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = self._matmul_rowwise(current, w) + b
            current = z if i == last else np.tanh(z)
        return current

    def _forward(self, xs: np.ndarray) -> List[np.ndarray]:
        activations = [xs]
        current = xs
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = current @ w + b
            current = z if i == last else np.tanh(z)
            activations.append(current)
        return activations

    def _adam_step(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """One Adam update of the whole network on one minibatch.

        Elementwise, this is the textbook per-array update
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
        ``p -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``, one
        IEEE operation per step in the same order (no reassociation), so
        the flat update is bit-identical to updating each array alone.
        """
        self._gradients(xs, ys)
        self._t += 1
        grad, m, v = self._grads, self._m, self._v
        step, denom = self._scratch
        np.multiply(m, _BETA1, out=m)
        np.multiply(grad, 1 - _BETA1, out=step)
        np.add(m, step, out=m)
        np.multiply(v, _BETA2, out=v)
        np.square(grad, out=step)
        np.multiply(step, 1 - _BETA2, out=step)
        np.add(v, step, out=v)
        np.divide(m, 1 - _BETA1**self._t, out=step)
        np.multiply(step, self.learning_rate, out=step)
        np.divide(v, 1 - _BETA2**self._t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, _EPS, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(self._params, step, out=self._params)

    def _gradients(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Backprop the minibatch MSE gradient into ``_grads``."""
        activations = self._forward(xs)
        n = xs.shape[0]
        delta = (activations[-1] - ys.reshape(-1, 1)) * (2.0 / n)
        for layer in range(len(self._weights) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=self._grad_w[layer])
            np.add.reduce(delta, axis=0, out=self._grad_b[layer])
            if layer > 0:
                delta = (delta @ self._weights[layer].T) * (
                    1.0 - activations[layer] ** 2
                )

    def _target_forward(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        if self.log_target:
            if np.any(y < 0):
                raise TrainingError("log-target model needs non-negative targets")
            return np.log1p(y)
        return y

    def _target_inverse(self, y: np.ndarray) -> np.ndarray:
        if self.log_target:
            return np.expm1(np.clip(y, None, 50.0))
        return y

    @property
    def is_fitted(self) -> bool:
        return bool(self._weights)

    def __repr__(self) -> str:
        return (
            f"NeuralNetwork(hidden={self.hidden_layers}, "
            f"lr={self.learning_rate}, fitted={self.is_fitted})"
        )


def _views(flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def _validate_schedule(iterations: int, record_every: int) -> None:
    if iterations < 1:
        raise TrainingError("iterations must be >= 1")
    if record_every < 1:
        raise TrainingError("record_every must be >= 1")


def _validate_xy(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise TrainingError(f"x rows {x.shape[0]} != y rows {y.shape[0]}")
    if x.shape[0] < 2:
        raise TrainingError("need at least two training samples")
    return x, y
