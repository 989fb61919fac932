"""Per-tenant cost attribution: who spends what, and how accurately.

Multi-tenant operation of the paper's feedback loop needs the tenant
dimension the paper itself elides: when estimation accuracy regresses,
"for which workload?" is the first question, and when capacity is
planned, estimated seconds must be attributable to the tenant that
incurred them.  A :class:`TenantLedger` keeps small thread-safe
accumulators per tenant, fed from three directions:

* **query completion** — traffic (queries, wall seconds, errors,
  tail-kept traces) for every attributed query;
* the costing module's **estimate path** — estimated operator seconds
  (the tenant's modeled spend);
* the costing module's **feedback path** — observed q-errors (the
  tenant's estimation accuracy).

The :meth:`TenantLedger.snapshot` feeds the ``tenants`` observation
slice (health/dashboard/exporters) and the ``repro tenants`` CLI;
:func:`rank_tenants` orders any such snapshot for display.
Unattributed queries (``tenant == ""``) are ignored, so single-tenant
deployments pay nothing and see nothing.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.obs.tail import QueryOutcome, TailDecision

__all__ = [
    "TenantLedger",
    "rank_tenants",
]


class _TenantStats:
    """Mutable accumulator for one tenant (guarded by the ledger lock)."""

    __slots__ = (
        "queries",
        "errors",
        "wall_seconds",
        "estimates",
        "estimated_seconds",
        "actuals",
        "sum_q_error",
        "max_q_error",
        "kept_traces",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.errors = 0
        self.wall_seconds = 0.0
        self.estimates = 0
        self.estimated_seconds = 0.0
        self.actuals = 0
        self.sum_q_error = 0.0
        self.max_q_error = 0.0
        self.kept_traces = 0

    def snapshot(self) -> Dict[str, object]:
        mean_q_error = (
            self.sum_q_error / self.actuals if self.actuals else 0.0
        )
        return {
            "queries": self.queries,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "estimates": self.estimates,
            "estimated_seconds": self.estimated_seconds,
            "actuals": self.actuals,
            "mean_q_error": mean_q_error,
            "max_q_error": self.max_q_error,
            "kept_traces": self.kept_traces,
        }


class TenantLedger:
    """Thread-safe per-tenant traffic, cost, and accuracy accumulators."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantStats] = {}

    def _stats(self, tenant: str) -> _TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = _TenantStats()
            self._tenants[tenant] = stats
        return stats

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def record_query(self, outcome: QueryOutcome, decision: TailDecision) -> None:
        """Attribute one completed query (its completion's entry)."""
        if not outcome.tenant:
            return
        with self._lock:
            stats = self._stats(outcome.tenant)
            stats.queries += 1
            stats.wall_seconds += outcome.wall_seconds
            if outcome.error:
                stats.errors += 1
            if decision.keep:
                stats.kept_traces += 1

    def record_estimate(self, tenant: str, estimated_seconds: float) -> None:
        """Attribute one operator estimate's modeled seconds."""
        if not tenant:
            return
        with self._lock:
            stats = self._stats(tenant)
            stats.estimates += 1
            if estimated_seconds > 0:
                stats.estimated_seconds += estimated_seconds

    def record_actual(self, tenant: str, q_error: float) -> None:
        """Attribute one observed q-error from the feedback path."""
        if not tenant or q_error <= 0:
            return
        with self._lock:
            stats = self._stats(tenant)
            stats.actuals += 1
            stats.sum_q_error += q_error
            if q_error > stats.max_q_error:
                stats.max_q_error = q_error

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable copy: tenant → accumulated stats, sorted."""
        with self._lock:
            return {
                tenant: self._tenants[tenant].snapshot()
                for tenant in sorted(self._tenants)
            }

    def tenants(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def reset(self) -> None:
        with self._lock:
            self._tenants.clear()


def rank_tenants(
    snapshot: Dict[str, Dict[str, object]],
    by: str = "estimated_seconds",
) -> List[Tuple[str, Dict[str, object]]]:
    """Order a tenants snapshot for display: descending by ``by``
    (estimated cost by default), tenant name as the tie-break."""

    def _key(item: Tuple[str, Dict[str, object]]):
        value = item[1].get(by, 0.0)
        try:
            numeric = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            numeric = 0.0
        return (-numeric, item[0])

    return sorted(snapshot.items(), key=_key)
