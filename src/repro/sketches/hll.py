"""HyperLogLog cardinality sketch (Flajolet et al. 2007, with the
bias-corrected estimator of Heule et al. 2013's "HLL++" small-range
regime approximated by linear counting).

State: ``m = 2**p`` 6-bit-valued registers, each holding the maximum
leading-zero rank observed among hashes routed to it.  The merge of two
sketches is the register-wise maximum — exactly the sketch of the
*union* of the two input multisets, which is what makes HLL a
commutative, associative, idempotent monoid: partition-insensitive, so
Theorem-1 merging of per-site states equals the centralized sketch
**bit for bit**.

Accuracy: relative standard error ~= 1.04 / sqrt(m); the engine's
documented bound (tested in CI) is ``3 / sqrt(m)`` — three sigma.

Space: a dense state is ``m`` one-byte registers (+5 header bytes).
Small groups stay in a *sparse* ``{index: rank}`` map and are
serialized as 4-byte packed entries until the map would exceed ``m/4``
entries, at which point the sketch promotes to dense — so tiny groups
cost tens of bytes, not ``2**p``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.sketches.hashing import hash64

_MAGIC = b"HL"
_VERSION = 1
_SPARSE = 0
_DENSE = 1
_HEADER = struct.Struct("<2sBBB")  # magic, version, p, mode

MIN_PRECISION = 4
MAX_PRECISION = 18
DEFAULT_PRECISION = 12


#: 2**-rank for every value a one-byte register can hold (exact).
_INVERSE_POWERS = np.ldexp(1.0, -np.arange(256))


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Vectorized exact bit length of a ``uint64`` array.

    Each 32-bit half converts to float64 exactly, so the exponent
    ``frexp`` returns for it is its bit length (0 for 0).
    """
    high = np.frexp((w >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((w & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low).astype(np.int64)


class HyperLogLog:
    """Mergeable distinct-count sketch with ``2**p`` registers."""

    __slots__ = ("p", "m", "_sparse", "_dense")

    def __init__(self, p: int = DEFAULT_PRECISION):
        if not MIN_PRECISION <= p <= MAX_PRECISION:
            raise ValueError(
                f"HyperLogLog precision must be in "
                f"[{MIN_PRECISION}, {MAX_PRECISION}], got {p}")
        self.p = int(p)
        self.m = 1 << self.p
        self._sparse: dict[int, int] | None = {}
        self._dense: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    def _promote(self) -> None:
        dense = np.zeros(self.m, dtype=np.uint8)
        assert self._sparse is not None
        for index, rank in self._sparse.items():
            dense[index] = rank
        self._dense = dense
        self._sparse = None

    def update(self, values) -> "HyperLogLog":
        """Absorb a vector of detail values; returns ``self``."""
        array = np.asarray(values)
        if len(array) == 0:
            return self
        hashes = hash64(array)
        indexes = (hashes >> np.uint64(64 - self.p)).astype(np.int64)
        tail = hashes << np.uint64(self.p)
        # rank = leading zeros of the (64-p)-bit tail, plus one; an
        # all-zero tail saturates at the maximum observable rank.
        ranks = np.where(tail == 0, np.int64(64 - self.p + 1),
                         (64 - _bit_length(tail)).astype(np.int64) + 1)
        if self._sparse is not None:
            if len(indexes) > self.m:
                # More values than registers: reduce the batch per
                # register first and fold only the touched registers
                # into the map.  Register-wise max is order-independent,
                # so the state is the one the value-by-value walk reaches.
                batch = np.zeros(self.m, dtype=np.uint8)
                np.maximum.at(batch, indexes, ranks.astype(np.uint8))
                indexes = np.flatnonzero(batch)
                ranks = batch[indexes]
            sparse = self._sparse
            for index, rank in zip(indexes.tolist(), ranks.tolist()):
                if rank > sparse.get(index, 0):
                    sparse[index] = rank
            if len(sparse) > self.m // 4:
                self._promote()
        else:
            np.maximum.at(self._dense, indexes, ranks.astype(np.uint8))
        return self

    # -- monoid ------------------------------------------------------------

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Register-wise max — the sketch of the union (pure function)."""
        if other.p != self.p:
            raise ValueError(
                f"cannot merge HyperLogLog(p={self.p}) with p={other.p}")
        merged = HyperLogLog(self.p)
        if self.is_sparse and other.is_sparse:
            combined = dict(self._sparse)
            for index, rank in other._sparse.items():
                if rank > combined.get(index, 0):
                    combined[index] = rank
            merged._sparse = combined
            if len(combined) > self.m // 4:
                merged._promote()
            return merged
        merged._sparse = None
        merged._dense = np.maximum(self._registers(), other._registers())
        return merged

    def _registers(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        dense = np.zeros(self.m, dtype=np.uint8)
        for index, rank in self._sparse.items():
            dense[index] = rank
        return dense

    # -- estimation --------------------------------------------------------

    def estimate(self) -> float:
        """Bias-corrected cardinality estimate (>= 0.0)."""
        if self._sparse is not None:
            registers = np.fromiter(self._sparse.values(), dtype=np.float64,
                                    count=len(self._sparse))
            zeros = self.m - len(self._sparse)
            inverse_sum = float(np.power(2.0, -registers).sum()) + zeros
        else:
            inverse_sum = float(_INVERSE_POWERS[self._dense].sum())
            zeros = self.m - int(np.count_nonzero(self._dense))
        raw = _alpha(self.m) * self.m * self.m / inverse_sum
        if raw <= 2.5 * self.m and zeros > 0:
            # linear counting: far lower variance in the small range
            return self.m * float(np.log(self.m / zeros))
        return raw

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical encoding (sparse entries sorted by register index)."""
        if self._sparse is not None:
            header = _HEADER.pack(_MAGIC, _VERSION, self.p, _SPARSE)
            entries = sorted(self._sparse.items())
            packed = np.array([(index << 8) | rank for index, rank in entries],
                              dtype=np.uint32)
            return (header + struct.pack("<I", len(entries))
                    + packed.tobytes())
        header = _HEADER.pack(_MAGIC, _VERSION, self.p, _DENSE)
        return header + self._dense.tobytes()

    @classmethod
    def from_bytes(cls, buffer: bytes) -> "HyperLogLog":
        magic, version, p, mode = _HEADER.unpack_from(buffer, 0)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError(f"not a HyperLogLog state: {buffer[:8]!r}")
        sketch = cls(p)
        offset = _HEADER.size
        if mode == _SPARSE:
            (count,) = struct.unpack_from("<I", buffer, offset)
            packed = np.frombuffer(buffer, dtype=np.uint32,
                                   count=count, offset=offset + 4)
            sketch._sparse = {int(word >> 8): int(word & 0xFF)
                              for word in packed}
            return sketch
        sketch._sparse = None
        sketch._dense = np.frombuffer(
            buffer, dtype=np.uint8, count=sketch.m, offset=offset).copy()
        return sketch

    def __repr__(self):  # pragma: no cover - cosmetic
        mode = "sparse" if self.is_sparse else "dense"
        return (f"HyperLogLog(p={self.p}, {mode}, "
                f"estimate~{self.estimate():.0f})")


def relative_error_bound(p: int) -> float:
    """The documented three-sigma relative error bound, 3/sqrt(2**p)."""
    return 3.0 / float(np.sqrt(1 << p))
