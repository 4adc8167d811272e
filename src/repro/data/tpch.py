"""TPC-R style data generation: the paper's experimental data set.

The paper derives its test database from the TPC(R) ``dbgen`` program,
building a *denormalized* fact table (named TPCR) of 6 million tuples,
partitions it on the ``NationKey`` attribute — "and therefore also on the
``CustKey`` attribute" — and spreads the partitions over eight sites
(Sect. 5.1).  Its two query families group on

* ``Customer.Name`` — ~100,000 unique values (*high cardinality*), and
* attributes with 2,000–4,000 unique values (*low cardinality*).

We reproduce that setup with a seeded generator instead of ``dbgen``:

* each customer key determines its nation via contiguous ranges
  (``nation = (custkey-1) * 25 // num_customers``), so partitioning on
  NationKey partitions CustKey — and CustName, which is the zero-padded
  ``Customer#%09d`` rendering of CustKey, *functionally determined* by
  it.  This mirrors the footnote to Definition 2: a partition attribute
  functionally determined by another is itself a partition attribute.
* ``Clerk`` is drawn from a configurable pool (default 3,000) spread
  across *all* sites — the low-cardinality, non-partitioned grouping
  attribute.

Scale is a row count, not a fixed 6 M, so tests run in milliseconds and
benchmarks in seconds; the figure shapes depend only on the relative
cardinalities, which are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType

#: Number of nations, as in TPC-H/R.
NUM_NATIONS = 25

#: Schema of the denormalized TPCR fact relation.
TPCR_SCHEMA = Schema.of(
    ("CustKey", DataType.INT64),
    ("CustName", DataType.STRING),
    ("NationKey", DataType.INT64),
    ("MktSegment", DataType.STRING),
    ("OrderKey", DataType.INT64),
    ("OrderDate", DataType.INT64),
    ("OrderPriority", DataType.STRING),
    ("Clerk", DataType.STRING),
    ("PartKey", DataType.INT64),
    ("SuppKey", DataType.INT64),
    ("Quantity", DataType.INT64),
    ("ExtendedPrice", DataType.FLOAT64),
    ("Discount", DataType.FLOAT64),
    ("ShipMode", DataType.STRING),
    ("ReturnFlag", DataType.STRING),
)

_SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                      "MACHINERY"], dtype=object)
_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM",
                        "4-NOT SPECIFIED", "5-LOW"], dtype=object)
_SHIP_MODES = np.array(["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                        "TRUCK"], dtype=object)
_RETURN_FLAGS = np.array(["A", "N", "R"], dtype=object)


@dataclass(frozen=True)
class TpcrConfig:
    """Sizing knobs for the TPCR generator.

    The TPC-H SF-1 proportions are lineitems : orders : customers
    ≈ 6 M : 1.5 M : 150 k, i.e. 40 lineitems and 10 orders per customer;
    we keep those ratios by default.
    """

    num_rows: int = 60_000
    num_customers: int | None = None
    num_orders: int | None = None
    clerk_pool: int = 3_000
    part_pool: int = 20_000
    supplier_pool: int = 1_000
    seed: int = 42

    def resolved_customers(self) -> int:
        if self.num_customers is not None:
            return self.num_customers
        return max(NUM_NATIONS, self.num_rows // 40)

    def resolved_orders(self) -> int:
        if self.num_orders is not None:
            return self.num_orders
        return max(1, self.num_rows // 4)


def customer_name(custkey: int) -> str:
    """The TPC-style customer name; zero-padded so its lexicographic
    order matches the numeric CustKey order (range predicates on names
    therefore translate to key ranges)."""
    return f"Customer#{custkey:09d}"


def nation_of_custkey(custkey: np.ndarray | int,
                      num_customers: int) -> np.ndarray | int:
    """Nation assignment: contiguous CustKey ranges per nation."""
    return (np.asarray(custkey) - 1) * NUM_NATIONS // num_customers


def generate_tpcr(config: TpcrConfig | None = None, **overrides) -> Relation:
    """Generate the denormalized TPCR fact relation.

    Accepts either a :class:`TpcrConfig` or keyword overrides of its
    fields, e.g. ``generate_tpcr(num_rows=100_000, seed=7)``.
    """
    if config is None:
        config = TpcrConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a TpcrConfig or keyword overrides")
    rng = np.random.default_rng(config.seed)
    num_rows = config.num_rows
    num_customers = config.resolved_customers()
    num_orders = config.resolved_orders()

    # -- customer dimension (generated once, then fanned out) -------------
    cust_keys = np.arange(1, num_customers + 1, dtype=np.int64)
    cust_names = np.array([customer_name(key) for key in cust_keys],
                          dtype=object)
    cust_nations = nation_of_custkey(cust_keys, num_customers)
    cust_segments = rng.choice(_SEGMENTS, size=num_customers)

    # -- order dimension ---------------------------------------------------
    order_custkey = rng.integers(1, num_customers + 1, size=num_orders)
    order_date = rng.integers(0, 2557, size=num_orders)  # ~7 years of days
    order_priority = rng.choice(_PRIORITIES, size=num_orders)
    clerk_ids = rng.integers(1, config.clerk_pool + 1, size=num_orders)
    order_clerk = np.array([f"Clerk#{cid:09d}" for cid in clerk_ids],
                           dtype=object)

    # -- lineitems (the fact rows) -------------------------------------------
    order_index = rng.integers(0, num_orders, size=num_rows)
    custkey = order_custkey[order_index].astype(np.int64)
    cust_index = custkey - 1

    quantity = rng.integers(1, 51, size=num_rows)
    part_key = rng.integers(1, config.part_pool + 1, size=num_rows)
    base_price = 900.0 + (part_key % 1000).astype(np.float64)
    extended_price = quantity * base_price
    discount = rng.integers(0, 11, size=num_rows) / 100.0

    columns = {
        "CustKey": custkey,
        "CustName": cust_names[cust_index],
        "NationKey": cust_nations[cust_index].astype(np.int64),
        "MktSegment": cust_segments[cust_index],
        "OrderKey": (order_index + 1).astype(np.int64),
        "OrderDate": order_date[order_index].astype(np.int64),
        "OrderPriority": order_priority[order_index],
        "Clerk": order_clerk[order_index],
        "PartKey": part_key.astype(np.int64),
        "SuppKey": rng.integers(1, config.supplier_pool + 1, size=num_rows),
        "Quantity": quantity.astype(np.int64),
        "ExtendedPrice": extended_price,
        "Discount": discount,
        "ShipMode": rng.choice(_SHIP_MODES, size=num_rows),
        "ReturnFlag": rng.choice(_RETURN_FLAGS, size=num_rows),
    }
    return Relation.from_columns(TPCR_SCHEMA, columns)


def nation_assignment(num_sites: int) -> dict[int, tuple[int, ...]]:
    """Which nations live at which site: contiguous blocks of the 25
    nations over ``num_sites`` sites (the paper's NationKey partitioning)."""
    if not 0 < num_sites <= NUM_NATIONS:
        raise PartitionError(
            f"num_sites must be in 1..{NUM_NATIONS}, got {num_sites}")
    assignment: dict[int, tuple[int, ...]] = {}
    for site in range(num_sites):
        low = site * NUM_NATIONS // num_sites
        high = (site + 1) * NUM_NATIONS // num_sites
        assignment[site] = tuple(range(low, high))
    return assignment


def custkey_ranges(num_sites: int,
                   num_customers: int) -> dict[int, tuple[int, int]]:
    """Inclusive CustKey range at each site under the nation partitioning.

    Because nations are contiguous CustKey ranges, each site's customers
    form one contiguous key range — this is the distribution knowledge a
    deployment would register for distribution-aware group reduction.
    """
    nations = nation_assignment(num_sites)
    ranges = {}
    for site, site_nations in nations.items():
        low_nation = min(site_nations)
        high_nation = max(site_nations)
        # nation n covers custkeys with (custkey-1)*25 // C == n, i.e.
        # ceil(n*C/25) <= custkey-1 < ceil((n+1)*C/25)
        low = -(-low_nation * num_customers // NUM_NATIONS) + 1
        high = -(-(high_nation + 1) * num_customers // NUM_NATIONS)
        ranges[site] = (low, high)
    return ranges
