"""KLL-style mergeable quantile sketch (Karnin-Lang-Liberty 2016,
compactor hierarchy) with **deterministic** alternating-parity
compaction, built in bulk from sorted runs.

State: a hierarchy of compactors; level ``i`` holds items of weight
``2**i``, kept sorted.  When a level overflows its capacity (geometric
in the level depth: ``cap(i) ~ k * (2/3)**(top - i)``, floor 2) it
promotes every second item, starting at the level's parity bit, to
level ``i+1``, keeps the unpaired largest item, discards the rest and
flips the parity.  Classic KLL flips a random coin instead; the
alternating parity keeps the first-order error cancellation without
randomness.

*Build*: a group's values are sorted once (NaN dropped, as SQL drops
NULL; ``-0.0`` read as ``+0.0``), placed on level 0 and compressed, so a
state is a pure function of the group's multiset.  *Merge*: any number
of states merge at once — levels concatenated, parities XORed,
compressed once — so the result depends on the set of states, never on
their gather order.  Exact ``min``/``max`` ride along: ``quantile(0)``
and ``quantile(1)`` are exact.

Accuracy: normalized rank error ``<= rank_error_bound(k, n)``
~ ``2 * log2(2 + n/k) / k``.  Space: a built state holds at most ``k``
items on its top level and at most one below; merges keep every level
within its capacity (about ``3k`` items at most).
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from typing import NamedTuple

import numpy as np


_MAGIC = b"KL"
_VERSION = 1
_HEADER = struct.Struct("<2sBHQBdd")  # magic, ver, k, count, levels, min, max
_LEVEL = struct.Struct("<BI")         # parity, item count

MIN_K = 8
MAX_K = 65_535
DEFAULT_K = 200


def rank_error_bound(k: int, n: int) -> float:
    """Documented worst-case normalized rank error for ``n`` updates."""
    if n <= k:
        return 0.0  # below capacity the sketch is exact
    return min(0.5, 2.0 * math.log2(2.0 + n / k) / k)


@functools.lru_cache(maxsize=256)
def _capacities(k: int, height: int) -> tuple[int, ...]:
    return tuple(max(2, int(math.ceil(k * (2.0 / 3.0)
                                      ** (height - 1 - level))))
                 for level in range(height))


def _compress(k: int, levels: list[np.ndarray], parities: list[int]) -> None:
    """Compact the lowest over-capacity level until none is (in place)."""
    while True:
        capacities = _capacities(k, len(levels))
        for level, items in enumerate(levels):
            if len(items) > capacities[level]:
                break
        else:
            return
        paired = len(items) - len(items) % 2
        promoted = items[parities[level]:paired:2]
        parities[level] ^= 1
        levels[level] = items[paired:]
        if level + 1 == len(levels):
            levels.append(promoted)
            parities.append(0)
        else:
            levels[level + 1] = np.sort(
                np.concatenate((levels[level + 1], promoted)))


def _encode(k: int, count: int, minimum: float, maximum: float,
            levels: list[np.ndarray], parities: list[int]) -> bytes:
    chunks = [_HEADER.pack(_MAGIC, _VERSION, k, count, len(levels),
                           minimum, maximum)]
    for parity, items in zip(parities, levels):
        chunks.append(_LEVEL.pack(parity, len(items)))
        chunks.append(items.tobytes())
    return b"".join(chunks)


class _State(NamedTuple):
    count: int
    minimum: float
    maximum: float
    levels: list[np.ndarray]
    parities: list[int]


def _decode(state: bytes, k: int | None = None) -> _State:
    magic, version, k_state, count, height, minimum, maximum = \
        _HEADER.unpack_from(state)
    if magic != _MAGIC or version != _VERSION or k not in (None, k_state):
        raise ValueError(f"not a QuantileSketch(k={k}) state: {state[:8]!r}")
    offset, levels, parities = _HEADER.size, [], []
    for _ in range(height):
        parity, size = _LEVEL.unpack_from(state, offset)
        offset += _LEVEL.size
        levels.append(np.frombuffer(state, dtype="<f8", count=size,
                                    offset=offset))
        parities.append(parity)
        offset += 8 * size
    return _State(count, minimum, maximum, levels, parities)


def grouped_states(values: np.ndarray, starts: np.ndarray,
                   sizes: np.ndarray, k: int) -> np.ndarray:
    """One encoded state per run of ``values`` (run ``i`` is
    ``values[starts[i]:starts[i] + sizes[i]]``): each run is sorted once
    and compressed once."""
    floats = np.asarray(values, dtype=np.float64) + 0.0  # -0.0 -> +0.0
    out = np.empty(len(starts), dtype=object)
    for index, (start, size) in enumerate(zip(starts.tolist(),
                                              sizes.tolist())):
        run = floats[start:start + size]
        run.sort()
        if size and run[-1] != run[-1]:  # NaN sorts last
            run = run[~np.isnan(run)]
        levels, parities = [run], [0]
        _compress(k, levels, parities)
        out[index] = _encode(k, len(run), run[0] if len(run) else math.inf,
                             run[-1] if len(run) else -math.inf,
                             levels, parities)
    return out


def merge_states(states: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                 k: int) -> np.ndarray:
    """One k-way merge per run of ``states`` (laid out as in
    :func:`grouped_states`): levels concatenated, parities XORed,
    compressed once."""
    out = np.empty(len(starts), dtype=object)
    for index, (start, size) in enumerate(zip(starts.tolist(),
                                              sizes.tolist())):
        members = [_decode(state, k) for state in states[start:start + size]]
        levels, parities = [], []
        for level in range(max((len(m.levels) for m in members), default=1)):
            present = [m for m in members if level < len(m.levels)]
            levels.append(np.sort(np.concatenate(
                [m.levels[level] for m in present] or [np.empty(0)])))
            parities.append(functools.reduce(
                operator.xor, (m.parities[level] for m in present), 0))
        _compress(k, levels, parities)
        out[index] = _encode(
            k, sum(m.count for m in members),
            min((m.minimum for m in members), default=math.inf),
            max((m.maximum for m in members), default=-math.inf),
            levels, parities)
    return out


def quantile_states(states: np.ndarray, q: float) -> np.ndarray:
    """The ``q``-quantile of every encoded state in a column: the
    smallest item whose cumulative weight (of the items not above it)
    reaches ``q · count`` — exact at ``q`` in {0, 1}, NaN when empty."""
    out = np.full(len(states), np.nan)
    for index, state in enumerate(states):
        decoded = _decode(state)
        if decoded.count == 0 or q <= 0.0 or q >= 1.0:
            out[index] = (math.nan if decoded.count == 0 else
                          decoded.minimum if q <= 0.0 else decoded.maximum)
            continue
        values = np.sort(np.concatenate(decoded.levels))
        weights = sum(np.searchsorted(items, values, "right") << level
                      for level, items in enumerate(decoded.levels))
        out[index] = values[np.searchsorted(
            weights, math.ceil(q * decoded.count))]
    return out


def _column(*states: bytes) -> np.ndarray:
    column = np.empty(len(states), dtype=object)
    column[:] = states
    return column


class QuantileSketch:
    """Mergeable rank/quantile sketch: one group of the column kernels
    above, held as its encoded state."""

    __slots__ = ("k", "_state")

    def __init__(self, k: int = DEFAULT_K):
        if not MIN_K <= k <= MAX_K:
            raise ValueError(
                f"QuantileSketch k must be in [{MIN_K}, {MAX_K}], got {k}")
        self.k = int(k)
        self._state = _encode(self.k, 0, math.inf, -math.inf,
                              [np.empty(0)], [0])

    @property
    def count(self) -> int:
        return _HEADER.unpack_from(self._state)[3]

    def _merged(self, state: bytes) -> bytes:
        return merge_states(_column(self._state, state), np.zeros(1, int),
                            np.array([2]), self.k)[0]

    def update(self, values) -> "QuantileSketch":
        """Absorb a vector of numeric detail values; returns ``self``.
        The batch is built in bulk, then merged in."""
        array = np.asarray(values, dtype=np.float64)
        batch = grouped_states(array, np.zeros(1, dtype=int),
                               np.array([len(array)]), self.k)[0]
        self._state = self._merged(batch) if self.count else batch
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches (pure; operands are not mutated)."""
        if other.k != self.k:
            raise ValueError(
                f"cannot merge QuantileSketch(k={self.k}) with k={other.k}")
        return QuantileSketch.from_bytes(self._merged(other._state))

    def rank(self, value: float) -> float:
        """Estimated fraction of updates ``<= value`` (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return sum(int(np.searchsorted(items, value, "right")) << level
                   for level, items in enumerate(_decode(self._state).levels)
                   ) / self.count

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact at ``q`` in {0, 1})."""
        return float(quantile_states(_column(self._state), q)[0])

    def median(self) -> float:
        return self.quantile(0.5)

    def estimate(self, q: float = 0.5) -> float:
        """Uniform-contract finalizer: the ``q``-quantile (default median)."""
        return self.quantile(q)

    def to_bytes(self) -> bytes:
        """Canonical encoding (per-level items serialized sorted)."""
        return self._state

    @classmethod
    def from_bytes(cls, buffer: bytes) -> "QuantileSketch":
        if len(buffer) < _HEADER.size or _HEADER.unpack_from(buffer)[:2] \
                != (_MAGIC, _VERSION):
            raise ValueError(f"not a QuantileSketch state: {buffer[:8]!r}")
        sketch = cls(_HEADER.unpack_from(buffer)[2])
        sketch._state = bytes(buffer)
        return sketch

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"QuantileSketch(k={self.k}, n={self.count})"
