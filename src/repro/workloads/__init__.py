"""Training and evaluation workload generators (§7, Fig. 10).

* :mod:`repro.workloads.aggregation` — the ~3,700-query aggregation grid
  (vary target table, shrink factor via the ``a_i`` columns, and the
  number of SUM aggregates);
* :mod:`repro.workloads.join` — the ~4,000-query join grid (vary both
  tables, record sizes, and output selectivity through the
  ``R.a1 + S.z < threshold`` control predicate);
* :mod:`repro.workloads.grid` — the even thinning the aggregation, join
  and scan grids share, applied to parameter tuples before any plan is
  built;
* :mod:`repro.workloads.subop_queries` — budget-sized primitive
  measurement workloads for sub-op training (Fig. 13(a));
* :mod:`repro.workloads.out_of_range` — the 45 out-of-range join queries
  of Fig. 14 / Table 1;
* :mod:`repro.workloads.traffic` — the deterministic multi-tenant
  traffic simulator (arrival processes, Zipf tenant mixes, environment
  mutations, the feedback-loop recovery policy);
* :mod:`repro.workloads.scenarios` — named end-to-end scenarios with
  declarative assertions, the engine behind ``repro simulate``.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".aggregation": ("AggregationWorkload",),
        ".join": ("JoinWorkload",),
        ".scan": ("ScanWorkload",),
        ".subop_queries": ("trainer_for_budget",),
        ".out_of_range": ("OutOfRangeWorkload",),
        ".traffic": (
            "AdmissionGate",
            "BurstyArrivals",
            "DiurnalArrivals",
            "DiurnalBurstArrivals",
            "Mutation",
            "SteadyArrivals",
            "TenantMix",
            "TrafficConfig",
            "TrafficReport",
            "TrafficSimulator",
            "generate_arrivals",
        ),
        ".scenarios": (
            "SCENARIOS",
            "ScenarioResult",
            "ScenarioSpec",
            "get_scenario",
            "run_scenario",
            "scenario_names",
        ),
    },
)
