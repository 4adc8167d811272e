"""Multi-tenant query serving over one Skalla engine.

The engine executes one plan at a time when you call it directly; this
package turns it into a *service*: many simultaneous SQL queries from
many tenants against one warehouse, with

* weighted-fair admission (bounded queue, deadlines, cancellation) —
  :mod:`repro.service.scheduler`;
* a compiled-plan cache keyed on a normalized-AST fingerprint —
  :mod:`repro.service.plan_cache`;
* service-level metrics (QPS, latency percentiles, queue wait, hit
  rates) — :mod:`repro.service.metrics`.

See docs/SERVICE.md for the architecture and the safety argument.
"""

from repro.service.loadgen import LoadReport, run_closed_loop
from repro.service.metrics import QueryRecord, ServiceMetrics, percentile
from repro.service.plan_cache import (
    CachedPlan, PLAN_FINGERPRINT_VERSION, PlanCache, plan_fingerprint)
from repro.service.scheduler import FairQueue, QueryTicket, TenantState
from repro.service.server import (
    DEFAULT_WORKERS, QueryService, ServiceResult)

__all__ = [
    "CachedPlan",
    "DEFAULT_WORKERS",
    "FairQueue",
    "LoadReport",
    "PLAN_FINGERPRINT_VERSION",
    "PlanCache",
    "QueryRecord",
    "QueryService",
    "QueryTicket",
    "ServiceMetrics",
    "ServiceResult",
    "TenantState",
    "percentile",
    "plan_fingerprint",
    "run_closed_loop",
]
