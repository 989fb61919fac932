"""The paper's contribution: remote-system cost estimation for SQL operators.

Three costing approaches (§3-§5):

* **Logical-op** (:mod:`repro.core.logical_op`): blackbox; a neural model
  per logical operator with online remedy (:mod:`repro.core.remedy`) and
  offline tuning (:mod:`repro.core.tuning`).
* **Sub-op** (:mod:`repro.core.subop_model`): openbox; learned primitive
  sub-operator costs composed through analytic formulas
  (:mod:`repro.core.formulas`) gated by applicability rules
  (:mod:`repro.core.rules`).
* **Hybrid** (:mod:`repro.core.estimator`): per-system / per-operator
  routing between the two through costing profiles
  (:mod:`repro.core.profile`).

:class:`~repro.core.costing.CostEstimationModule` is the top-level entry
point.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".operators": (
            "AGGREGATE_DIMENSIONS",
            "AggregateOperatorStats",
            "JOIN_DIMENSIONS",
            "JoinOperatorStats",
            "OperatorKind",
            "OperatorStats",
            "ScanOperatorStats",
            "dimensions_for",
            "operator_kind_for",
        ),
        ".metadata": ("DimensionMetadata", "PivotReport", "find_pivots"),
        ".training": ("TrainingRecord", "TrainingSet"),
        ".logical_op": ("CostEstimate", "LogicalOpModel", "TrainingReport"),
        ".remedy": ("AlphaCalibrator", "OnlineRemedy", "RemedyEstimate"),
        ".tuning": ("ExecutionLog", "LogEntry", "OfflineTuner"),
        ".subop_model": (
            "ClusterInfo",
            "HashBuildModel",
            "SubOpModel",
            "SubOpModelSet",
            "SubOpSample",
            "SubOpTrainer",
            "SubOpTrainingResult",
        ),
        ".formulas": (
            "AGGREGATE_FORMULAS",
            "BroadcastJoinFormula",
            "HIVE_JOIN_FORMULAS",
            "SPARK_JOIN_FORMULAS",
            "ScanCostFormula",
            "ShuffleJoinFormula",
        ),
        ".rules": (
            "AggregateAlgorithmSelector",
            "ApplicabilityRule",
            "CostedJoinAlgorithm",
            "JoinAlgorithmSelector",
            "RuleContext",
            "SelectionResult",
            "SelectionStrategy",
            "hive_join_algorithms",
            "spark_join_algorithms",
        ),
        ".estimator": (
            "BatchEstimate",
            "CostingApproach",
            "EstimationRequest",
            "HybridEstimator",
            "LogicalOpEstimator",
            "OperatorEstimate",
            "SubOpEstimator",
            "normalize_join_stats",
        ),
        ".estimate_cache": (
            "DEFAULT_MAX_ENTRIES",
            "DEFAULT_RESOLUTION",
            "EstimateCache",
        ),
        ".profile": ("CostingProfile", "RemoteSystemProfile"),
        ".costing": (
            "CostEstimationModule",
            "TrainingQuery",
            "derive_join_stats",
            "derive_operator_stats",
        ),
        ".drift": ("DriftMonitor", "DriftReport"),
        ".persistence": (
            "load_profile",
            "profile_from_dict",
            "profile_to_dict",
            "save_profile",
        ),
    },
)
