"""Tests for the from-scratch neural network."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelNotTrainedError, TrainingError
from repro.ml.metrics import rmse_percent
from repro.ml.nn import NeuralNetwork, TrainingHistory
from repro.ml.scaling import LogStandardScaler, StandardScaler


def make_dataset(n=400, seed=0):
    """Nonlinear cost-like surface over positive features."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1, 100, size=(n, 3))
    y = 2 * x[:, 0] + 0.05 * x[:, 1] * x[:, 2] + 10
    return x, y


class TestTraining:
    def test_learns_nonlinear_surface(self):
        x, y = make_dataset()
        nn = NeuralNetwork(hidden_layers=(10, 5), seed=0)
        history = nn.fit(x, y, iterations=4000, record_every=500)
        assert history.final_error < 6.0  # RMSE% on the training set

    def test_error_decreases_over_training(self):
        x, y = make_dataset()
        nn = NeuralNetwork(hidden_layers=(8, 4), seed=0)
        history = nn.fit(x, y, iterations=3000, record_every=300)
        assert history.rmse_percent[-1] < history.rmse_percent[0]

    def test_deterministic_under_seed(self):
        x, y = make_dataset()

        def run():
            nn = NeuralNetwork(hidden_layers=(6, 3), seed=7)
            nn.fit(x, y, iterations=500, record_every=500)
            return nn.predict(x[:5])

        assert np.allclose(run(), run())

    def test_different_seeds_differ(self):
        x, y = make_dataset()
        preds = []
        for seed in (0, 1):
            nn = NeuralNetwork(hidden_layers=(6, 3), seed=seed)
            nn.fit(x, y, iterations=300, record_every=300)
            preds.append(nn.predict(x[:5]))
        assert not np.allclose(preds[0], preds[1])

    def test_history_records_on_external_set(self):
        x, y = make_dataset()
        x_val, y_val = make_dataset(n=50, seed=1)
        nn = NeuralNetwork(seed=0)
        history = nn.fit(
            x, y, iterations=400, record_every=200, record_on=(x_val, y_val)
        )
        assert len(history.iterations) == 2


class TestExtrapolationFailure:
    def test_tanh_saturation_caps_out_of_range_predictions(self):
        """The §3 premise: the NN cannot extrapolate beyond its training
        range — predictions plateau rather than keep growing."""
        rng = np.random.default_rng(3)
        x = rng.uniform(1, 100, size=(500, 1))
        y = 5.0 * x[:, 0]
        nn = NeuralNetwork(hidden_layers=(8, 4), seed=0)
        nn.fit(x, y, iterations=4000, record_every=4000)
        in_range = nn.predict_one([100.0])
        far_out = nn.predict_one([10_000.0])
        true_far = 50_000.0
        # Prediction grows a little past the boundary but vastly
        # underestimates the true out-of-range value.
        assert far_out < 0.2 * true_far
        assert far_out < in_range * 10


class TestPartialFit:
    def test_improves_on_new_region(self):
        x, y = make_dataset()
        nn = NeuralNetwork(hidden_layers=(10, 5), seed=0)
        nn.fit(x, y, iterations=2000, record_every=2000)
        # New out-of-range data.
        rng = np.random.default_rng(9)
        x_new = rng.uniform(150, 300, size=(200, 3))
        y_new = 2 * x_new[:, 0] + 0.05 * x_new[:, 1] * x_new[:, 2] + 10
        before = rmse_percent(y_new, nn.predict(x_new))
        nn.partial_fit(x_new, y_new, iterations=2500)
        after = rmse_percent(y_new, nn.predict(x_new))
        assert after < before / 2

    def test_requires_prior_fit(self):
        with pytest.raises(ModelNotTrainedError):
            NeuralNetwork().partial_fit(np.ones((5, 2)), np.ones(5))


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(ModelNotTrainedError):
            NeuralNetwork().predict(np.ones((1, 2)))

    def test_bad_hidden_layers(self):
        with pytest.raises(ConfigurationError):
            NeuralNetwork(hidden_layers=())
        with pytest.raises(ConfigurationError):
            NeuralNetwork(hidden_layers=(5, 0))

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            NeuralNetwork(learning_rate=0)

    def test_negative_targets_rejected_in_log_mode(self):
        with pytest.raises(TrainingError):
            NeuralNetwork(log_target=True).fit(
                np.ones((5, 1)), np.array([-1.0, 1, 1, 1, 1])
            )

    def test_non_log_mode_allows_negatives(self):
        nn = NeuralNetwork(log_target=False, seed=0)
        x = np.arange(10.0).reshape(-1, 1)
        y = x.ravel() - 5
        nn.fit(x, y, iterations=200, record_every=200)
        assert nn.is_fitted

    def test_row_mismatch(self):
        with pytest.raises(TrainingError):
            NeuralNetwork().fit(np.ones((5, 2)), np.ones(4))

    def test_predict_one(self):
        x, y = make_dataset(n=100)
        nn = NeuralNetwork(seed=0)
        nn.fit(x, y, iterations=300, record_every=300)
        value = nn.predict_one(x[0])
        assert isinstance(value, float)


class TestRejectedCallsLeaveNetworkUnchanged:
    """A rejected ``fit``/``partial_fit`` raises before touching weights."""

    @pytest.fixture
    def trained(self):
        x, y = make_dataset(n=100)
        nn = NeuralNetwork(hidden_layers=(6, 3), seed=0)
        nn.fit(x, y, iterations=300, record_every=300)
        return nn, x, y

    @pytest.mark.parametrize(
        "method, kwargs",
        [
            ("fit", {"iterations": 0}),
            ("fit", {"record_every": 0}),
            ("partial_fit", {"iterations": 0}),
            ("partial_fit", {"record_every": 0}),
        ],
    )
    def test_bad_schedule(self, trained, method, kwargs):
        nn, x, y = trained
        before = nn.predict(x)
        with pytest.raises(TrainingError):
            getattr(nn, method)(x, y, **kwargs)
        assert np.array_equal(nn.predict(x), before)

    def test_negative_targets_keep_scalers(self, trained):
        nn, x, y = trained
        before = nn.predict(x)
        with pytest.raises(TrainingError):
            nn.fit(x, -y, iterations=10)
        assert np.array_equal(nn.predict(x), before)


class TestParameters:
    def test_before_fit(self):
        with pytest.raises(ModelNotTrainedError):
            NeuralNetwork().parameters()

    def test_round_trip_and_copies(self):
        x, y = make_dataset(n=100)
        nn = NeuralNetwork(hidden_layers=(6, 3), seed=0)
        nn.fit(x, y, iterations=300, record_every=300)
        weights, biases = nn.parameters()
        before = nn.predict(x)
        weights[0][:] = 0.0  # a copy: the network is untouched
        assert np.array_equal(nn.predict(x), before)
        other = NeuralNetwork(hidden_layers=(6, 3), seed=0)
        other.load_parameters(*nn.parameters())
        for got, want in zip(other.parameters(), nn.parameters()):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_shape_mismatch_rejected(self):
        x, y = make_dataset(n=100)
        nn = NeuralNetwork(hidden_layers=(6, 3), seed=0)
        nn.fit(x, y, iterations=10, record_every=10)
        weights, biases = nn.parameters()
        with pytest.raises(ConfigurationError):
            NeuralNetwork(hidden_layers=(6, 4)).load_parameters(weights, biases)
        with pytest.raises(ConfigurationError):
            NeuralNetwork(hidden_layers=(6, 3)).load_parameters(weights[:-1], biases)


class PerArrayReference:
    """Per-array backprop and Adam: the training loop before the flat buffer.

    One minibatch draw per step, a list of weight and bias arrays, and a
    separate Adam update per array.  The flat-vector step must reproduce
    it bit for bit; this runs on the machine under test because numpy's
    SIMD ``tanh`` and the BLAS kernels vary across CPUs, so no stored
    digest would hold everywhere.
    """

    def __init__(self, hidden, seed, batch_size, lr=3e-3):
        self.hidden, self.batch_size, self.lr = hidden, batch_size, lr
        self.rng = np.random.default_rng(seed)

    def fit(self, x, y, iterations, record_every, record_on=None):
        self.x_scaler, self.y_scaler = LogStandardScaler(), StandardScaler()
        xs = self.x_scaler.fit_transform(x)
        ys = self.y_scaler.fit_transform(np.log1p(y.reshape(-1, 1)))
        sizes = [x.shape[1], *self.hidden, 1]
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(self.rng.uniform(-limit, limit, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.m = [np.zeros_like(p) for p in self.weights + self.biases]
        self.v = [np.zeros_like(p) for p in self.m]
        self.t = 0
        return self._loop(xs, ys, record_on or (x, y), iterations, record_every)

    def partial_fit(self, x, y, iterations, record_every):
        xs = self.x_scaler.transform(x)
        ys = self.y_scaler.transform(np.log1p(y.reshape(-1, 1)))
        return self._loop(xs, ys, (x, y), iterations, record_every)

    def predict(self, x):
        current = self.x_scaler.transform(x)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = (current[:, :, None] * w[None, :, :]).sum(axis=1) + b
            current = z if i == len(self.weights) - 1 else np.tanh(z)
        raw = self.y_scaler.inverse_transform(current.reshape(-1, 1)).ravel()
        return np.expm1(np.clip(raw, None, 50.0))

    def _loop(self, xs, ys, record_on, iterations, record_every):
        history = TrainingHistory()
        batch = min(self.batch_size, xs.shape[0])
        for step in range(1, iterations + 1):
            idx = self.rng.integers(0, xs.shape[0], size=batch)
            self._adam_step(xs[idx], ys[idx])
            if step % record_every == 0 or step == iterations:
                error = rmse_percent(record_on[1], self.predict(record_on[0]))
                history.record(step, error)
        return history

    def _adam_step(self, xs, ys):
        activations = [xs]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            activations.append(z if i == len(self.weights) - 1 else np.tanh(z))
        delta = (activations[-1] - ys.reshape(-1, 1)) * (2.0 / xs.shape[0])
        grads_w, grads_b = [None] * len(self.weights), [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (
                    1.0 - activations[layer] ** 2
                )
        self.t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for i, (param, grad) in enumerate(
            zip(self.weights + self.biases, grads_w + grads_b)
        ):
            self.m[i] = beta1 * self.m[i] + (1 - beta1) * grad
            self.v[i] = beta2 * self.v[i] + (1 - beta2) * grad**2
            m_hat = self.m[i] / (1 - beta1**self.t)
            v_hat = self.v[i] / (1 - beta2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


class TestMatchesPerArrayReference:
    """The flat-buffer training step is bit-identical to the per-array one."""

    @staticmethod
    def assert_same(nn, ref, history, ref_history):
        weights, biases = nn.parameters()
        assert len(weights) == len(ref.weights)
        for got, want in zip(weights + biases, ref.weights + ref.biases):
            assert np.array_equal(got, want)
        assert history.iterations == ref_history.iterations
        assert history.rmse_percent == ref_history.rmse_percent

    # 600 and 300 steps are not multiples of the 256-step index block, and
    # partial_fit's draws follow fit's, so an over-drawn last block shows.
    @pytest.mark.parametrize("hidden", [(5,), (10, 4), (8, 6, 3)])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("n, batch_size", [(300, 64), (40, 64)])
    def test_fit_then_partial_fit(self, hidden, seed, n, batch_size):
        x, y = make_dataset(n=n, seed=seed)
        x_new, y_new = make_dataset(n=60, seed=seed + 1)
        x_new, y_new = x_new * 1.5, y_new * 2.0
        x_val, y_val = make_dataset(n=30, seed=seed + 2)
        nn = NeuralNetwork(hidden_layers=hidden, seed=seed, batch_size=batch_size)
        ref = PerArrayReference(hidden, seed, batch_size)

        schedule = dict(iterations=600, record_every=97, record_on=(x_val, y_val))
        history = nn.fit(x, y, **schedule)
        ref_history = ref.fit(x, y, **schedule)
        self.assert_same(nn, ref, history, ref_history)

        history = nn.partial_fit(x_new, y_new, iterations=300, record_every=50)
        ref_history = ref.partial_fit(x_new, y_new, iterations=300, record_every=50)
        self.assert_same(nn, ref, history, ref_history)
        assert np.array_equal(nn.predict(x), ref.predict(x))
