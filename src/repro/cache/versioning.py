"""Per-site fragment version counters and the retained delta log.

Every site fragment carries a monotonically increasing **version**:
version 0 is the fragment the engine was constructed with, and each
:meth:`~repro.distributed.engine.SkallaEngine.append` bumps the
appended site's counter by one.  Cache entries record the version they
were computed against; a version mismatch at lookup time means the
fragment has grown since.

Because the warehouse is **append-only** (collection points only ever
add detail rows; Sect. 1 of the paper), the difference between two
versions is exactly the multiset union of the deltas appended in
between.  The tracker retains those deltas so the cache can evaluate a
round over *only* the delta rows and merge the result into the stale
entry (Theorem 1 applied to the partition {old fragment, delta} — see
:mod:`repro.cache.maintenance`).

Deltas are retained *until consumed*: once no live cache entry for a
site is older than a delta, the delta is pruned
(:meth:`DeltaLog.prune_below`).  A byte cap per site
(:attr:`DeltaLog.max_bytes_per_site`) bounds worst-case retention; a
pruned gap simply downgrades a would-be delta merge to a full
recompute, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.relation import Relation
from repro.distributed.messages import SiteId

#: Default cap on retained delta bytes per site (NumPy buffer sizes).
DEFAULT_DELTA_BUDGET_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class DeltaRecord:
    """One retained append: the rows that took ``site`` to ``version``."""

    version: int
    rows: Relation
    nbytes: int


def _relation_nbytes(relation: Relation) -> int:
    """Approximate resident size of a relation's backing arrays."""
    total = 0
    for name in relation.schema.names:
        array = relation.column(name)
        if array.dtype == object:
            total += sum(len(str(value)) for value in array) + 8 * len(array)
        else:
            total += array.nbytes
    return total


@dataclass
class DeltaLog:
    """Fragment versions + retained deltas for every site of one engine."""

    max_bytes_per_site: int = DEFAULT_DELTA_BUDGET_BYTES
    _versions: dict[SiteId, int] = field(default_factory=dict)
    _deltas: dict[SiteId, list[DeltaRecord]] = field(default_factory=dict)

    # -- versions ----------------------------------------------------------

    def version(self, site_id: SiteId) -> int:
        """The site's current fragment version (0 = construction-time)."""
        return self._versions.get(site_id, 0)

    def versions(self) -> tuple[tuple[SiteId, int], ...]:
        """Every appended site's version (the others are at 0)."""
        return tuple(sorted(self._versions.items()))

    def record_append(self, site_id: SiteId, rows: Relation) -> int:
        """Bump the site's version, retaining ``rows`` as its delta.

        Returns the new version number.
        """
        version = self.version(site_id) + 1
        self._versions[site_id] = version
        log = self._deltas.setdefault(site_id, [])
        log.append(DeltaRecord(version, rows, _relation_nbytes(rows)))
        self._enforce_budget(site_id)
        return version

    # -- delta retrieval ---------------------------------------------------

    def deltas_between(self, site_id: SiteId, from_version: int,
                       to_version: int) -> Relation | None:
        """All rows appended after ``from_version`` up to ``to_version``.

        Returns ``None`` when the retained log does not cover the whole
        span contiguously (a delta was pruned) — the caller must fall
        back to a full recompute.
        """
        if from_version >= to_version:
            return None
        wanted = [record for record in self._deltas.get(site_id, [])
                  if from_version < record.version <= to_version]
        expected = list(range(from_version + 1, to_version + 1))
        if [record.version for record in wanted] != expected:
            return None
        return Relation.concat([record.rows for record in wanted])

    # -- retention ---------------------------------------------------------

    def prune_below(self, site_id: SiteId, min_version: int | None) -> None:
        """Drop deltas no live cache entry can still consume.

        ``min_version`` is the oldest version any cache entry for this
        site was computed against (``None`` = no entries at all, so
        every retained delta is dead weight).
        """
        log = self._deltas.get(site_id)
        if not log:
            return
        if min_version is None:
            self._deltas[site_id] = []
            return
        self._deltas[site_id] = [record for record in log
                                 if record.version > min_version]

    def _enforce_budget(self, site_id: SiteId) -> None:
        log = self._deltas.get(site_id, [])
        total = sum(record.nbytes for record in log)
        while log and total > self.max_bytes_per_site:
            dropped = log.pop(0)
            total -= dropped.nbytes
        self._deltas[site_id] = log

    # -- introspection -----------------------------------------------------

    def retained_bytes(self, site_id: SiteId | None = None) -> int:
        if site_id is not None:
            return sum(record.nbytes
                       for record in self._deltas.get(site_id, []))
        return sum(record.nbytes for log in self._deltas.values()
                   for record in log)

    def retained_deltas(self, site_id: SiteId) -> int:
        return len(self._deltas.get(site_id, []))


__all__ = ["DEFAULT_DELTA_BUDGET_BYTES", "DeltaLog", "DeltaRecord"]
