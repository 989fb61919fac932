"""Learning substrate: regression, neural networks, and model selection.

Implemented from scratch on numpy (the paper used standard tooling; no
external ML dependency is available here):

* :mod:`repro.ml.metrics` — RMSE, the paper's RMSE%, R², fitted
  predicted-vs-actual lines for the scatter figures;
* :mod:`repro.ml.scaling` — feature standardization and log transforms;
* :mod:`repro.ml.linear` — ordinary least squares;
* :mod:`repro.ml.nn` — a two-hidden-layer MLP with tanh activations and
  Adam, matching §3's model class (tanh saturation is what makes the NN
  unable to extrapolate, the premise of the online-remedy phase);
* :mod:`repro.ml.crossval` — the §3 cross-validation topology search.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".metrics": (
            "fit_line",
            "mean_absolute_error",
            "r_squared",
            "rmse",
            "rmse_percent",
        ),
        ".scaling": ("LogStandardScaler", "StandardScaler"),
        ".linear": ("LinearRegression",),
        ".nn": ("NeuralNetwork", "TrainingHistory"),
        ".crossval": ("TopologySearchResult", "topology_search", "train_test_split"),
    },
)
