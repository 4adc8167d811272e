"""The Skalla distributed engine: simulated cluster, coordinator/site
protocol, partitioning with distribution knowledge, plans, and metrics."""

from repro.distributed.coordinator import (
    Coordinator, combine_states_by_key)
from repro.distributed.engine import ExecutionResult, SkallaEngine
from repro.distributed.explain import explain_analyze
from repro.distributed.hierarchy import (
    AGGREGATOR, TreeNode, TreeTopology)
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, COORDINATOR, ENVELOPE_BYTES, Message, MessageLog,
    SiteId, control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import (
    DEFAULT_BANDWIDTH, DEFAULT_LATENCY, ComputeModel, LinkModel)
from repro.distributed.partition import (
    AttributeConstraint, DistributionInfo, RangeConstraint,
    ValueSetConstraint, partition_by_hash,
    partition_by_ranges, partition_by_values, partition_round_robin)
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, DistributedPlan, LocalStep,
    OptimizationFlags, unoptimized_plan)
from repro.distributed.pricing import RoundLog, price
from repro.distributed.faults import AggregatorFaultSpec, FlakySite
from repro.distributed.heterogeneous import (
    HeterogeneousQuery, HeterogeneousRound, HeterogeneousWarehouse)
from repro.distributed.site import SkallaSite
from repro.distributed.storage import (
    StorageError, load_warehouse, save_warehouse)

__all__ = [
    "Coordinator", "ExecutionResult", "SkallaEngine", "explain_analyze",
    "AGGREGATOR", "TreeNode", "TreeTopology",
    "combine_states_by_key",
    "CONTROL_MESSAGE_BYTES", "COORDINATOR", "ENVELOPE_BYTES", "Message",
    "MessageLog", "SiteId", "control_message", "relation_message",
    "PhaseMetrics", "QueryMetrics",
    "DEFAULT_BANDWIDTH", "DEFAULT_LATENCY", "ComputeModel", "LinkModel",
    "AttributeConstraint", "DistributionInfo", "RangeConstraint",
    "ValueSetConstraint", "partition_by_hash",
    "partition_by_ranges", "partition_by_values", "partition_round_robin",
    "ALL_OPTIMIZATIONS", "NO_OPTIMIZATIONS", "DistributedPlan", "LocalStep",
    "OptimizationFlags", "unoptimized_plan", "RoundLog", "price",
    "AggregatorFaultSpec", "FlakySite", "SkallaSite",
    "HeterogeneousQuery", "HeterogeneousRound", "HeterogeneousWarehouse",
    "StorageError", "load_warehouse", "save_warehouse",
]
