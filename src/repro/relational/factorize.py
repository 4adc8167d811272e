"""Cached column factorization and the group index — the one grouping
primitive behind ``distinct``, join-key coding, the scan kernels and
synchronization.

Factorizing a column is the only comparison sort grouping needs
(``np.unique`` with ``return_inverse``), and integer keys over a dense
value span do not need even that: they are direct-addressed — a presence
table to build, one table gather to look foreign keys up.
Columns are immutable by repo convention, so a factorization stays valid
for the lifetime of the array object.  Everything downstream of it works
on dense integer codes and is
**sort-free**: a :class:`GroupIndex` (first-appearance codes, first rows,
a code lookup for foreign keys) is built from the per-column codes with
O(n) scatters, gathers and ``cumsum``; the stable group order (CSR
``order/starts/sizes``) is an LSD radix sort over 16-bit digits, for
which NumPy's ``kind="stable"`` *is* a radix sort.  All of it is plain
NumPy — no Python-level loop over rows or keys holds the GIL while a
service thread waits (``docs/KERNELS.md``, "Grouping").

Every product is memoized on the *identity* of the arrays it was built
from, with weakref callbacks evicting an entry when any of them is
collected.  Site fragments live across rounds and queries, which is
exactly when regrouping the (large) detail side would dominate the scan;
an append replaces the fragment's arrays, so its entries drop out on
their own.

Promotions pick the comparison domain for a factorization.  Integer
columns must stay integral: a float64 staging array would collapse
distinct keys differing only above 2**53 into one group.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "column_promotion",
    "pair_promotion",
    "convert",
    "factorize",
    "lookup_codes",
    "GroupIndex",
    "group_index",
    "group_runs",
    "iter_groups",
    "stable_order",
    "take_rows",
    "projected_rows",
    "cache_size",
]


def _holds_bytes(array: np.ndarray) -> bool:
    """Whether a column is BYTES (typed columns are homogeneous, so the
    first value tells).  BYTES compare as they are: ``astype(str)`` would
    strip trailing NULs and reject non-ASCII values."""
    return (array.dtype == object and len(array) > 0
            and isinstance(array[0], bytes))


def column_promotion(array: np.ndarray) -> str:
    """Comparison domain for factorizing a single column."""
    if _holds_bytes(array):
        return "raw"
    if array.dtype == object:
        return "str"
    if array.dtype.kind in "iub":
        return "int"
    return "float"


def pair_promotion(base_col: np.ndarray, detail_col: np.ndarray) -> str:
    """Comparison domain for one key column pair.

    Integer pairs must stay integral: a float64 staging array would
    collapse distinct keys differing only above 2**53 into one group.
    Mixed integer/float pairs compare in float64 (NumPy's comparison
    promotion); object columns compare as strings, BYTES as they are.
    """
    if _holds_bytes(detail_col) or _holds_bytes(base_col):
        return "raw"
    if detail_col.dtype == object or base_col.dtype == object:
        return "str"
    if detail_col.dtype.kind in "iub" and base_col.dtype.kind in "iub":
        return "int"
    return "float"


def convert(array: np.ndarray, promotion: str) -> np.ndarray:
    """``array`` in its comparison domain (``"raw"``: as it is)."""
    if promotion == "str":
        return array.astype(str)
    if promotion == "int":
        return array.astype(np.int64)
    if promotion == "float":
        return array.astype(np.float64)
    return array


# ---------------------------------------------------------------------------
# The identity-keyed memo
# ---------------------------------------------------------------------------

#: key -> (weakrefs to the arrays the value was built from, value).
_cache: dict[tuple, tuple[tuple, object]] = {}


def _recall(key: tuple, anchors: Sequence[np.ndarray]):
    """The value stored under ``key`` for exactly these arrays, or None."""
    cached = _cache.get(key)
    if cached is not None and all(
            ref() is anchor for ref, anchor in zip(cached[0], anchors)):
        return cached[1]
    return None


def _remember(key: tuple, anchors: Sequence[np.ndarray], value) -> None:
    """Store ``value`` under ``key`` for the lifetime of ``anchors``.

    ``key`` carries their ``id``s; the stored weakrefs both detect a
    recycled id and evict the entry when an anchor is collected.
    """
    def evict(_ref, _key=key):
        _cache.pop(_key, None)
    try:
        refs = tuple(weakref.ref(anchor, evict) for anchor in anchors)
    except TypeError:
        return
    _cache[key] = (refs, value)


def _memo(key: tuple, anchors: Sequence[np.ndarray],
          build: Callable[[], object]):
    """``build()`` once per lifetime of the ``anchors`` arrays."""
    value = _recall(key, anchors)
    if value is None:
        value = build()
        _remember(key, anchors, value)
    return value


def cache_size() -> int:
    """Live entries of the grouping cache (tests watch it for leaks)."""
    return len(_cache)


def factorize(column: np.ndarray, promotion: str) -> tuple:
    """``(sorted uniques, int64 inverse codes)`` for ``column``, cached.

    Integer keys over a dense value span are direct-addressed (a
    presence table, no sort); everything else goes through
    ``np.unique``.
    """
    def build():
        values = convert(column, promotion)
        if promotion == "int" and len(values):
            direct = _factorize_direct(values)
            if direct is not None:
                return direct
        uniques, codes = np.unique(values, return_inverse=True)
        return uniques, codes.astype(np.int64, copy=False)
    return _memo(("factorize", id(column), promotion), (column,), build)


def _factorize_direct(values: np.ndarray) -> tuple | None:
    """:func:`factorize` of int64 ``values`` by array addressing, or
    ``None`` when their span is too wide for a table.

    The slot table (value - low -> code, ``-1`` for absent values) stays
    with the uniques, so :func:`lookup_codes` addresses it as well.
    """
    low, high = int(values.min()), int(values.max())
    span = high - low + 1       # Python ints: 2**62 - -2**62 must not wrap
    if span > _dense_limit(len(values)):
        return None
    offsets = values - low
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    occupied = np.flatnonzero(present)
    table = np.full(span, -1, dtype=np.int64)
    table[occupied] = np.arange(len(occupied), dtype=np.int64)
    uniques = occupied + low
    _remember(("slots", id(uniques)), (uniques,), (low, high, table))
    return uniques, table[offsets]


def lookup_codes(uniques: np.ndarray, values: np.ndarray,
                 promotion: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``values`` in sorted ``uniques`` + found flags.

    One table gather when ``uniques`` came out of a direct-addressed
    factorization, a binary search per value otherwise.
    """
    slots = _recall(("slots", id(uniques)), (uniques,))
    if slots is not None:
        low, high, table = slots
        inside = (values >= low) & (values <= high)
        # out-of-span probes read slot 0: ``values - low`` could wrap
        positions = table[np.where(inside, values, low) - low]
        hit = inside & (positions >= 0)
        return np.where(hit, positions, 0), hit
    positions = np.searchsorted(uniques, values)
    positions = np.minimum(positions, len(uniques) - 1)
    with np.errstate(invalid="ignore"):
        hit = uniques[positions] == values
    if promotion == "float" and np.isnan(uniques[-1]):
        # np.unique collapses NaNs into one (final) slot; keep the legacy
        # stacked-factorize behaviour where a NaN base key matches the
        # NaN detail group.
        nan_values = np.isnan(values)
        positions = np.where(nan_values, len(uniques) - 1, positions)
        hit = hit | nan_values
    return positions.astype(np.int64), hit


# ---------------------------------------------------------------------------
# Stable order of dense codes (LSD radix over 16-bit digits)
# ---------------------------------------------------------------------------

_DIGIT_BITS = 16
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def stable_order(codes: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for ``0 <= codes < bound``.

    One pass per 16-bit digit of ``bound - 1``, least significant first;
    each pass is a stable ``argsort`` of ``uint16`` keys, which NumPy
    runs as a radix (counting) sort — O(n) per pass, no comparisons.
    """
    if bound <= 1:
        return np.arange(len(codes), dtype=np.int64)
    order = np.argsort((codes & _DIGIT_MASK).astype(np.uint16),
                       kind="stable")
    shift = _DIGIT_BITS
    while (bound - 1) >> shift:
        digit = ((codes >> shift) & _DIGIT_MASK).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += _DIGIT_BITS
    return order


def group_runs(codes: np.ndarray, num_groups: int,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR layout ``(order, starts, sizes)`` of dense group codes, cached.

    ``order`` equals ``np.argsort(codes, kind="stable")`` element for
    element; group ``g`` owns ``order[starts[g]:starts[g] + sizes[g]]``,
    its rows in ascending position.  Memoized on the identity of
    ``codes`` — a group index hands out the same codes array for the
    same columns, so a long-lived fragment is ordered once per key.
    """
    def build():
        order = stable_order(codes, num_groups)
        sizes = np.bincount(codes, minlength=num_groups)
        starts = np.cumsum(sizes) - sizes
        return _frozen(order), _frozen(starts), _frozen(sizes)
    return _memo(("runs", id(codes), num_groups), (codes,), build)


def iter_groups(codes: np.ndarray, num_groups: int):
    """``(group code, its rows in ascending position)`` for every
    non-empty group, in code order."""
    order, starts, sizes = group_runs(codes, num_groups)
    for code in np.flatnonzero(sizes):
        yield code, order[starts[code]:starts[code] + sizes[code]]


def _frozen(array: np.ndarray) -> np.ndarray:
    """Shared cache products are read-only: a caller's in-place edit
    would silently corrupt every later query."""
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# The group index
# ---------------------------------------------------------------------------

def _dense_limit(num_rows: int) -> int:
    """Largest code bound worth a direct table: O(n), and no more than a
    page or so of fixed cost for tiny relations."""
    return 4 * num_rows + 1024


class _Remap:
    """Joint mixed-radix code -> dense code, ``-1`` when absent.

    Dense code spaces index ``table`` directly; sparse ones binary-search
    the sorted ``keys`` first (``table is None``: the position itself).
    """

    __slots__ = ("keys", "table")

    def __init__(self, keys: np.ndarray | None, table: np.ndarray | None):
        self.keys = keys
        self.table = table

    def __call__(self, joint: np.ndarray) -> np.ndarray:
        if self.keys is None:
            return self.table[joint]
        positions = np.minimum(np.searchsorted(self.keys, joint),
                               len(self.keys) - 1)
        dense = positions if self.table is None else self.table[positions]
        return np.where(self.keys[positions] == joint, dense, -1)


def _compact(joint: np.ndarray, bound: int) -> tuple[np.ndarray, int, _Remap]:
    """Renumber ``joint`` (values in ``[0, bound)``) densely, keeping
    value order: a presence table + ``cumsum`` when the bound is O(n),
    ``np.unique`` when the code space is sparse."""
    if bound <= _dense_limit(len(joint)):
        present = np.zeros(bound, dtype=bool)
        present[joint] = True
        table = np.cumsum(present) - 1
        count = int(table[-1]) + 1
        table[~present] = -1
        return table[joint], count, _Remap(None, table)
    keys, dense = np.unique(joint, return_inverse=True)
    return dense.astype(np.int64, copy=False), len(keys), _Remap(keys, None)


class GroupIndex:
    """Equal-row grouping of one column set.

    ``codes[i]`` is the dense group id of row ``i``, numbered by first
    appearance; ``first[g]`` is the first row of group ``g`` (ascending,
    by that numbering).  :meth:`locate` codes *foreign* rows, given their
    positions in the per-column unique tables.
    """

    __slots__ = ("codes", "first", "_radices", "_remaps", "_slots")

    def __init__(self, column_codes: Sequence[np.ndarray],
                 cardinalities: Sequence[int]):
        num_rows = len(column_codes[0])
        joint, bound = column_codes[0], int(cardinalities[0])
        self._radices = tuple(int(radix) for radix in cardinalities[1:])
        # One entry per later column: the compaction applied to the
        # running code before that column's digit was appended, if any.
        self._remaps: list[_Remap | None] = []
        for codes, radix in zip(column_codes[1:], self._radices):
            remap = None
            if bound * radix > _dense_limit(num_rows) and bound > num_rows:
                # The product would leave the dense range (and, unchecked,
                # eventually int64); a compacted prefix is at most n.
                joint, bound, remap = _compact(joint, bound)
            self._remaps.append(remap)
            joint = joint * radix + codes
            bound *= radix

        keys = None
        if bound > _dense_limit(num_rows):
            keys, joint = np.unique(joint, return_inverse=True)
            bound = len(keys)
        rows = np.arange(num_rows, dtype=np.int64)
        # Scatter-min: every slot learns its earliest row.  Slots no row
        # maps to keep the fill value and are never read.
        first_of_slot = np.full(bound, num_rows, dtype=np.int64)
        np.minimum.at(first_of_slot, joint, rows)
        first_of_row = first_of_slot[joint]
        is_first = first_of_row == rows
        self.first = _frozen(np.flatnonzero(is_first))
        self.codes = _frozen((np.cumsum(is_first) - 1)[first_of_row])
        table = np.full(bound, -1, dtype=np.int64)
        table[joint[self.first]] = rows[:len(self.first)]
        self._slots = _Remap(keys, table)

    @property
    def num_groups(self) -> int:
        return len(self.first)

    def first_rows(self, mask: np.ndarray | None = None) -> np.ndarray:
        """The first row of every group, or — under a boolean row
        ``mask`` — of every group the kept rows reach, numbered by first
        appearance among those: the distinct projection of a selection,
        without materializing the selection."""
        if mask is None:
            return self.first
        kept = np.flatnonzero(mask)
        return kept[GroupIndex([self.codes[kept]], [self.num_groups]).first]

    def locate(self, positions: Sequence[np.ndarray]) -> np.ndarray:
        """Group codes of foreign rows, ``-1`` where no group matches.

        ``positions[c][i]`` is row ``i``'s position in column ``c``'s
        sorted unique table (any in-range position for a value the table
        lacks — the caller masks those rows itself).
        """
        joint = positions[0]
        found = None
        for remap, radix, column in zip(self._remaps, self._radices,
                                        positions[1:]):
            if remap is not None:
                joint = remap(joint)
                missing = joint < 0
                found = ~missing if found is None else found & ~missing
                joint = np.where(missing, 0, joint)
            joint = joint * radix + column
        codes = self._slots(joint)
        return codes if found is None else np.where(found, codes, -1)


def group_index(columns: Sequence[np.ndarray],
                promotions: Sequence[str] | None = None) -> GroupIndex:
    """The :class:`GroupIndex` of ``columns``, cached on their identity.

    ``promotions`` names each column's comparison domain (default: its
    own, :func:`column_promotion`); a join passes the pair promotions so
    both sides are coded in one domain.
    """
    if promotions is None:
        promotions = [column_promotion(column) for column in columns]

    def build():
        tables = [factorize(column, promotion)
                  for column, promotion in zip(columns, promotions)]
        return GroupIndex([codes for _uniques, codes in tables],
                          [len(uniques) for uniques, _codes in tables])
    key = ("index", *(item for column, promotion in zip(columns, promotions)
                      for item in (id(column), promotion)))
    return _memo(key, tuple(columns), build)


# ---------------------------------------------------------------------------
# Distinct projections remember where they came from
# ---------------------------------------------------------------------------

def take_rows(columns: Sequence[np.ndarray],
              rows: np.ndarray) -> list[np.ndarray]:
    """``column[rows]`` per column — a distinct projection's columns.

    Each result remembers its source column and rows, so a later join of
    the projection against its own source (:func:`projected_rows`) reads
    the codes off the source's index instead of searching the key values
    back.
    """
    taken = []
    for column in columns:
        projected = column[rows]
        _remember(("projection", id(projected)), (projected,),
                  (weakref.ref(column), rows))
        taken.append(projected)
    return taken


def projected_rows(projected: Sequence[np.ndarray],
                   sources: Sequence[np.ndarray]) -> np.ndarray | None:
    """The source rows behind ``projected`` when every column of it was
    taken from the matching ``sources`` column by one :func:`take_rows`;
    ``None`` otherwise."""
    rows = None
    for column, source in zip(projected, sources):
        entry = _recall(("projection", id(column)), (column,))
        if (entry is None or entry[0]() is not source
                or (rows is not None and entry[1] is not rows)):
            return None
        rows = entry[1]
    return rows
