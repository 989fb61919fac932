"""The master-engine side of IntelliSphere (§2).

* :mod:`repro.master.querygrid` — the QueryGrid data-transfer layer and
  its cost model (data moves only between a remote system and the
  master, never remote-to-remote);
* :mod:`repro.master.teradata` — the master's own operator cost model
  (Teradata costs itself with a detailed sub-op style mechanism, §4);
* :mod:`repro.master.optimizer` — cost-based operator placement over the
  federated catalog, combining remote estimates from the costing module
  with transfer and local costs;
* :mod:`repro.master.federation` — the IntelliSphere facade: register
  remote systems, train costing profiles, explain and run SQL.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".transfer_learning": (
            "NoisyTransferChannel",
            "TransferCostLearner",
            "probe_transfers",
        ),
        ".querygrid": ("QueryGrid", "TransferEstimate"),
        ".teradata": ("TeradataCostModel",),
        ".optimizer": ("PlacementOptimizer", "PlacementPlan", "PlacementStep"),
        ".federation": ("FederatedResult", "IntelliSphere"),
    },
)
