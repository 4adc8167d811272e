"""The skew planner: decide *when* to split a hot fragment and *how*.

Two inputs drive the decision, both already collected by the engine:

* **Latency history.**  Every dispatched round reports per-site wall
  time (the same ``site_wall_seconds`` the hedging layer uses for its
  median deadline).  The planner folds those observations into an EWMA
  *pace* (seconds per fragment row) per physical site — virtual-site
  observations fold into their parent, so history survives a split.
* **Fragment sizes.**  ``predicted(site) = rows(site) * pace(site)``.
  With no history yet every pace defaults to the mean of the known
  paces (or 1.0), so the first round already reacts to pure row-count
  imbalance.

A site is split when its predicted round time exceeds
``threshold * mean(predicted)`` — the same max/mean shape as the
measured ``skew_ratio`` metric, applied *before* the round runs.  The
fan-out is proportional to the overload, clamped to
``max_virtual_sites``.

The split itself is where the heavy-hitter sketch earns its keep.
Chunking rows round-robin would balance too, but it destroys key
locality; instead the Misra-Gries sketch finds the partition keys that
*cannot* be balanced by hash placement (any key with >= n/parts of the
rows), spreads **each heavy key's rows** across sub-sites in
contiguous chunks, and bin-packs the residual row runs around them
(longest-processing-time greedy, deterministic tie-breaks).  Every row
lands in exactly one sub-fragment and relative row order is preserved
inside each, so sub-aggregate states merge exactly (Theorem 1) and the
whole pipeline stays bit-identical.

Splits are cached per parent and reused for every later round until
the fragment object changes (append installs a new fragment), keeping
virtual ids stable for process-transport workers and fault injection.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.distributed.messages import SiteId
from repro.distributed.site import SkallaSite
from repro.sketches.misra_gries import HeavyHitterSketch
from repro.skew.virtual import VIRTUAL_STRIDE, physical_site, virtual_site_id


@dataclass(frozen=True)
class SkewPolicy:
    """Knobs for the skew planner.

    threshold:
        Predicted max/mean round-time ratio above which a site splits.
        Mirrors the measured ``skew_ratio`` metric; 1.0 means "split
        anything above average", large values disable splitting in
        practice.
    max_virtual_sites:
        Fan-out cap per split parent.
    sketch_capacity:
        Misra-Gries capacity; error bound is n/(capacity+1), so any key
        holding >= n/parts rows is always detected while the sketch
        stays O(capacity).
    min_rows:
        Fragments smaller than this never split (the scatter overhead
        would dwarf any win).
    alpha:
        EWMA weight for new pace observations.
    """

    threshold: float = 1.5
    max_virtual_sites: int = 8
    sketch_capacity: int = 16
    min_rows: int = 16
    alpha: float = 0.5

    def __post_init__(self):
        if self.threshold < 1.0:
            raise PlanError("skew threshold must be >= 1.0")
        if not 2 <= self.max_virtual_sites <= VIRTUAL_STRIDE:
            raise PlanError("max_virtual_sites must be in "
                            f"[2, {VIRTUAL_STRIDE}]")
        if self.sketch_capacity < 1:
            raise PlanError("sketch_capacity must be positive")
        if self.min_rows < 2:
            raise PlanError("min_rows must be >= 2 (a 1-row fragment "
                            "cannot split)")
        if not 0.0 < self.alpha <= 1.0:
            raise PlanError("alpha must be in (0, 1]")


@dataclass
class SkewSplit:
    """One installed split: a parent fragment fanned across virtual sites."""

    parent: SiteId
    #: the parent fragment object this split was computed from — identity
    #: (``is``) comparison detects staleness after an append.
    fragment: Relation
    key: tuple[str, ...]
    sites: dict[SiteId, SkallaSite] = field(default_factory=dict)
    heavy_keys: int = 0

    @property
    def parts(self) -> int:
        return len(self.sites)


class SkewPlanner:
    """Latency-history bookkeeping plus the split decision and split itself.

    Thread-safe: the query service runs concurrent queries over one
    engine, and all mutation happens under one lock.
    """

    def __init__(self, policy: SkewPolicy | None = None, *,
                 make_site: Callable[..., SkallaSite] = SkallaSite):
        self.policy = policy or SkewPolicy()
        #: seam for tests: wrap sub-sites in fault-injecting doubles.
        self._make_site = make_site
        self._pace: dict[SiteId, float] = {}
        self._splits: dict[SiteId, SkewSplit] = {}
        self._lock = threading.Lock()

    # -- latency history ---------------------------------------------------

    def observe(self, site_id: SiteId, seconds: float, rows: int) -> None:
        """Fold one site-scan observation into the pace EWMA.

        Virtual-site observations credit the parent: the history must
        survive splits (and re-splits after appends).
        """
        if rows <= 0 or seconds < 0:
            return
        parent = physical_site(site_id)
        pace = seconds / rows
        with self._lock:
            previous = self._pace.get(parent)
            if previous is None:
                self._pace[parent] = pace
            else:
                alpha = self.policy.alpha
                self._pace[parent] = alpha * pace + (1 - alpha) * previous

    def pace(self, site_id: SiteId) -> float | None:
        with self._lock:
            return self._pace.get(physical_site(site_id))

    # -- the split decision ------------------------------------------------

    def plan_round(self, fragments: Mapping[SiteId, int],
                   ) -> dict[SiteId, int]:
        """Which sites should split this round, and into how many parts.

        ``fragments`` maps each candidate physical site to its fragment
        row count.  Returns ``{site: parts}`` for every site whose
        predicted time exceeds ``threshold * mean(predicted)``.
        """
        if len(fragments) < 2:
            return {}
        with self._lock:
            known = [self._pace[sid] for sid in fragments if sid in self._pace]
            default = (sum(known) / len(known)) if known else 1.0
            predicted = {sid: rows * self._pace.get(sid, default)
                         for sid, rows in fragments.items()}
        mean = sum(predicted.values()) / len(predicted)
        if mean <= 0:
            return {}
        decisions: dict[SiteId, int] = {}
        for sid, cost in predicted.items():
            if fragments[sid] < self.policy.min_rows:
                continue
            if cost < self.policy.threshold * mean:
                continue
            parts = min(self.policy.max_virtual_sites,
                        max(2, round(cost / mean)))
            parts = min(parts, fragments[sid])
            if parts >= 2:
                decisions[sid] = parts
        return decisions

    # -- the split itself --------------------------------------------------

    def split_for(self, parent: SiteId, site: SkallaSite,
                  key: Sequence[str], parts: int) -> SkewSplit:
        """The live split for ``parent``, computing and caching if needed.

        A cached split is reused as long as it was computed from the
        *same fragment object* — appends install a new fragment, which
        the engine notices via :meth:`invalidate`.  The first split's
        key/fan-out win for the engine's lifetime; re-splitting
        mid-stream would churn process workers and cache keys for no
        correctness gain (any row partition merges exactly).
        """
        with self._lock:
            cached = self._splits.get(parent)
            if cached is not None and cached.fragment is site.fragment:
                return cached
            split = self._compute_split(parent, site, tuple(key), parts)
            self._splits[parent] = split
            return split

    def current_split(self, parent: SiteId) -> SkewSplit | None:
        with self._lock:
            return self._splits.get(parent)

    def invalidate(self, parent: SiteId) -> list[SiteId]:
        """Drop ``parent``'s split (fragment changed); returns dead ids."""
        with self._lock:
            split = self._splits.pop(parent, None)
        return list(split.sites) if split else []

    def _compute_split(self, parent: SiteId, site: SkallaSite,
                       key: tuple[str, ...], parts: int) -> SkewSplit:
        fragment = site.fragment
        n = fragment.num_rows
        parts = max(2, min(parts, n, self.policy.max_virtual_sites))
        chunk = math.ceil(n / parts)

        # Heavy-hitter detection over the first partition-key attribute
        # present in the fragment (keys are the grouping attributes of
        # the round — exactly the axis hash placement skewed on).
        sketch_attr = next((name for name in key
                            if name in fragment.schema.names), None)
        heavy: list[int] = []
        sketch = HeavyHitterSketch(self.policy.sketch_capacity)
        if sketch_attr is not None:
            column = np.asarray(fragment.column(sketch_attr))
            if np.issubdtype(column.dtype, np.integer) or np.issubdtype(
                    column.dtype, np.bool_):
                sketch.update(column)
                heavy = [key_value for key_value, _ in
                         sketch.heavy_hitters(chunk)]

        # Blocks: contiguous row runs of at most one chunk each.  Heavy
        # keys contribute their own runs (so one dominant key spreads
        # across sub-sites); everything else stays in fragment order.
        blocks: list[np.ndarray] = []
        if heavy:
            keys_array = np.asarray(fragment.column(sketch_attr))
            residual_mask = np.ones(n, dtype=bool)
            for key_value in heavy:
                positions = np.nonzero(keys_array == key_value)[0]
                residual_mask[positions] = False
                blocks.extend(positions[start:start + chunk]
                              for start in range(0, len(positions), chunk))
            residual = np.nonzero(residual_mask)[0]
        else:
            residual = np.arange(n)
        blocks.extend(residual[start:start + chunk]
                      for start in range(0, len(residual), chunk))
        blocks = [block for block in blocks if len(block)]

        # LPT bin-packing: largest block to the lightest bin; ties break
        # on first row position so the layout is deterministic.
        blocks.sort(key=lambda block: (-len(block), int(block[0])))
        bins: list[list[np.ndarray]] = [[] for _ in range(parts)]
        loads = [0] * parts
        for block in blocks:
            target = min(range(parts), key=lambda b: (loads[b], b))
            bins[target].append(block)
            loads[target] += len(block)

        sites: dict[SiteId, SkallaSite] = {}
        for index, assigned in enumerate(b for b in bins if b):
            indices = np.sort(np.concatenate(assigned))
            vid = virtual_site_id(parent, index)
            sites[vid] = self._make_site(vid, fragment.take(indices))
        if len(sites) < 2:
            raise PlanError(
                f"site {parent} produced a degenerate {len(sites)}-way "
                "split; caller must pre-check min_rows")
        return SkewSplit(parent=parent, fragment=fragment, key=key,
                         sites=sites, heavy_keys=len(heavy))


__all__ = ["SkewPlanner", "SkewPolicy", "SkewSplit"]
