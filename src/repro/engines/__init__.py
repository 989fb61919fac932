"""Simulated remote systems (the paper's heterogeneous data sources).

Each engine is a :class:`~repro.engines.base.RemoteSystem` that accepts a
logical SQL operator plan and returns the elapsed execution time plus the
output shape — exactly the observable surface a real remote system exposes
to IntelliSphere.  Internally, engines compute elapsed time from hidden
per-record sub-operator kernels (:mod:`repro.engines.subops`), task-wave
scheduling over the simulated cluster, physical-algorithm selection
(:mod:`repro.engines.planner`), and measurement noise.

The cost-estimation module (:mod:`repro.core`) must treat these internals
as invisible; it may only call :meth:`RemoteSystem.execute` and
:meth:`RemoteSystem.execute_primitive` — the blackbox discipline the paper
relies on.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".mpp": ("ImpalaEngine", "PrestoEngine"),
        ".base": (
            "EngineCapabilities",
            "PrimitiveKind",
            "PrimitiveQuery",
            "QueryResult",
            "RemoteSystem",
        ),
        ".execution": ("EngineTuning",),
        ".subops": ("SubOp", "SubOpKernel", "TwoRegimeKernel", "KernelSet"),
        ".hive": ("HiveEngine",),
        ".spark": ("SparkEngine",),
        ".rdbms": ("RdbmsEngine",),
    },
)
