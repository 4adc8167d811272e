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

A column of sketches (one per group) is held as a register *table*
(``groups x m`` bytes) when that costs a few bytes per input, and as a
*register list* — the sorted keys ``group << p | register`` of the
nonzero registers with their ranks — when groups are many and small.
One scatter builds it for every group of a scan, one register-wise max
merges gathered rows, one rank histogram per group finalizes it.

Encoding (wire and cache): a group with more than ``m/4`` nonzero
registers is *dense* — ``m`` one-byte registers (+5 header bytes); any
other is *sparse* — 4-byte ``(register << 8) | rank`` entries sorted by
register, so tiny groups cost tens of bytes, not ``2**p``.
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
_COUNT = struct.Struct("<I")       # sparse entry count

MIN_PRECISION = 4
MAX_PRECISION = 18
DEFAULT_PRECISION = 12

#: ranks never exceed ``64 - p + 1 <= 61``: six bits hold one
_RANK_BITS = 6

#: above every tail: a tail's low ``p`` bits are zero
_NO_TAIL = np.uint64(2**64 - 1)

#: 2**-rank for every rank (exact).
_INVERSE_POWERS = np.ldexp(1.0, -np.arange(1 << _RANK_BITS))


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
    ``frexp`` returns for it is its bit length (0 for 0).  The low half
    is converted only where the high half is zero — rare for hashes.
    """
    high = (w >> np.uint64(32)).astype(np.uint32)
    length = np.frexp(high.astype(np.float64))[1] + 32
    short = np.flatnonzero(high == 0)
    low = (w[short] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    length[short] = np.frexp(low.astype(np.float64))[1]
    return length


def _fits(num_groups: int, p: int, inputs: int) -> bool:
    """Whether a ``num_groups x 2**p`` register table costs at most a few
    bytes per input; wider key spaces (many groups, few values each)
    take the register list instead."""
    return num_groups << p <= 8 * inputs + (1 << 16)


def _ranks(tails: np.ndarray, p: int) -> np.ndarray:
    """Leading zeros of each (64-p)-bit hash tail, plus one; an all-zero
    tail saturates at the maximum observable rank."""
    return np.minimum(65 - _bit_length(tails), 65 - p).astype(np.uint8)


def _hashed(codes: np.ndarray, values: np.ndarray,
            p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each value's key ``code << p | register`` and hash tail."""
    hashes = hash64(np.asarray(values))
    keys = np.asarray(codes, dtype=np.int64) << p
    keys |= (hashes >> np.uint64(64 - p)).view(np.int64)
    hashes <<= np.uint64(p)
    return keys, hashes


def _table(keys: np.ndarray, tails: np.ndarray, num_groups: int,
           p: int) -> np.ndarray:
    """The ``num_groups x 2**p`` register table.  A rank falls as its
    tail grows, so a register's maximum rank is the rank of its minimum
    tail: one scatter-min, then ranks for the winners only."""
    smallest = np.full(num_groups << p, _NO_TAIL)
    np.minimum.at(smallest, keys, tails)
    table = np.zeros(num_groups << p, dtype=np.uint8)
    keys = np.flatnonzero(smallest != _NO_TAIL)
    table[keys] = _ranks(smallest[keys], p)
    return table.reshape(num_groups, 1 << p)


def _register_list(keys: np.ndarray,
                   ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` with their maximum (nonzero) ranks, by
    one sort of the keys with the ranks packed below them."""
    packed = np.sort((keys << _RANK_BITS) | ranks)
    ranks = packed & ((1 << _RANK_BITS) - 1)
    last = (np.diff(packed >> _RANK_BITS, append=-1) != 0) & (ranks > 0)
    return packed[last] >> _RANK_BITS, ranks[last].astype(np.uint8)


def encode(keys: np.ndarray, ranks: np.ndarray, num_groups: int,
           p: int) -> np.ndarray:
    """One canonical ``bytes`` value per group of a sorted register list
    (an object array; a group without registers is the empty sketch)."""
    m = 1 << p
    registers = keys & (m - 1)
    entries = ((registers << 8) | ranks).astype("<u4")
    bounds = np.searchsorted(keys >> p, np.arange(num_groups + 1)).tolist()
    sparse = _HEADER.pack(_MAGIC, _VERSION, p, _SPARSE)
    dense = _HEADER.pack(_MAGIC, _VERSION, p, _DENSE)
    out = np.empty(num_groups, dtype=object)
    for group in range(num_groups):
        first, last = bounds[group], bounds[group + 1]
        if last - first > m // 4:
            row = np.zeros(m, dtype=np.uint8)
            row[registers[first:last]] = ranks[first:last]
            out[group] = dense + row.tobytes()
        else:
            out[group] = (sparse + _COUNT.pack(last - first)
                          + entries[first:last].tobytes())
    return out


def _encode_table(table: np.ndarray, p: int) -> np.ndarray:
    """:func:`encode` of a register table: a dense row is its own bytes."""
    dense = np.count_nonzero(table, axis=1) > table.shape[1] // 4
    out = np.empty(len(table), dtype=object)
    header = _HEADER.pack(_MAGIC, _VERSION, p, _DENSE)
    for group in np.flatnonzero(dense).tolist():
        out[group] = header + table[group].tobytes()
    if not dense.all():
        sparse = table[~dense]
        keys = np.flatnonzero(sparse)
        out[~dense] = encode(keys, sparse.reshape(-1)[keys], len(sparse), p)
    return out


def decode(states: np.ndarray, p: int):
    """A column of encoded states, row ``i`` as group ``i``: the rows
    stored dense with their register block, and the register list of the
    rows stored sparse."""
    headers = [_HEADER.unpack_from(state) for state in states]
    if any(header[:3] != (_MAGIC, _VERSION, p) or header[3] > _DENSE
           for header in headers):
        raise ValueError(f"not a column of HyperLogLog(p={p}) states")
    modes = np.fromiter((header[3] for header in headers), dtype=np.uint8,
                        count=len(headers))
    dense = np.flatnonzero(modes == _DENSE)
    block = np.frombuffer(b"".join(
        states[row][_HEADER.size:] for row in dense.tolist()),
        dtype=np.uint8).reshape(len(dense), 1 << p)
    sparse = np.flatnonzero(modes == _SPARSE)
    bodies = [states[row][_HEADER.size + _COUNT.size:]
              for row in sparse.tolist()]
    entries = np.frombuffer(b"".join(bodies), dtype="<u4").astype(np.int64)
    counts = np.fromiter(map(len, bodies), dtype=np.int64,
                         count=len(bodies)) // 4
    return (dense, block, (np.repeat(sparse, counts) << p) | (entries >> 8),
            (entries & 0xFF).astype(np.uint8))


def _estimates(histogram: np.ndarray, p: int) -> np.ndarray:
    """Bias-corrected cardinality estimate (>= 0.0) of every group from
    its rank histogram (``histogram[g, r]`` registers of rank ``r``).

    A function of the register multiset alone: every term is a count
    times an exact power of two, so the sum is exact whenever the
    registers' dyadic values fit a float64 (any practical state).
    """
    m = 1 << p
    zeros = m - histogram[:, 1:].sum(axis=1)
    histogram[:, 0] = zeros
    inverse_sum = (histogram * _INVERSE_POWERS).sum(axis=1)
    raw = _alpha(m) * m * m / inverse_sum
    with np.errstate(divide="ignore"):
        linear = m * np.log(m / zeros)
    # linear counting: far lower variance in the small range
    return np.where((raw <= 2.5 * m) & (zeros > 0), linear, raw)


def grouped_states(codes: np.ndarray, values: np.ndarray, num_groups: int,
                   p: int) -> np.ndarray:
    """Encoded per-group sketches of ``values`` grouped by ``codes`` (each
    in ``[0, num_groups)``): one hash pass, one scatter."""
    keys, tails = _hashed(codes, values, p)
    if _fits(num_groups, p, len(keys)):
        return _encode_table(_table(keys, tails, num_groups, p), p)
    return encode(*_register_list(keys, _ranks(tails, p)), num_groups, p)


def merge_states(codes: np.ndarray, states: np.ndarray, num_groups: int,
                 p: int) -> np.ndarray:
    """Theorem-1 merge: row ``i`` of ``states`` joins group ``codes[i]``;
    one register-wise max over every gathered row."""
    dense, block, keys, ranks = decode(states, p)
    codes = np.asarray(codes, dtype=np.int64)
    keys = (codes[keys >> p] << p) | (keys & ((1 << p) - 1))
    if _fits(num_groups, p, block.size + len(keys)):
        table = np.zeros((num_groups, 1 << p), dtype=np.uint8)
        for row, code in zip(block, codes[dense].tolist()):
            np.maximum(table[code], row, out=table[code])
        np.maximum.at(table.reshape(-1), keys, ranks)
        return _encode_table(table, p)
    rows, registers = np.nonzero(block)
    keys = np.concatenate([(codes[dense[rows]] << p) | registers, keys])
    ranks = np.concatenate([block[rows, registers], ranks])
    return encode(*_register_list(keys, ranks), num_groups, p)


def estimate_states(states: np.ndarray, p: int) -> np.ndarray:
    """The cardinality estimate of every encoded state in a column."""
    dense, block, keys, ranks = decode(states, p)
    histogram = np.bincount(((keys >> p) << _RANK_BITS) | ranks,
                            minlength=len(states) << _RANK_BITS).reshape(
        len(states), 1 << _RANK_BITS)
    for row, registers in zip(dense.tolist(), block):
        histogram[row] = np.bincount(registers, minlength=1 << _RANK_BITS)
    return _estimates(histogram, p)


class HyperLogLog:
    """Mergeable distinct-count sketch with ``2**p`` registers: one
    group of the column kernels above."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = DEFAULT_PRECISION):
        if not MIN_PRECISION <= p <= MAX_PRECISION:
            raise ValueError(
                f"HyperLogLog precision must be in "
                f"[{MIN_PRECISION}, {MAX_PRECISION}], got {p}")
        self.p = int(p)
        self.m = 1 << self.p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    @property
    def is_sparse(self) -> bool:
        """Whether :meth:`to_bytes` uses the sparse encoding."""
        return int(np.count_nonzero(self.registers)) <= self.m // 4

    def update(self, values) -> "HyperLogLog":
        """Absorb a vector of detail values; returns ``self``."""
        values = np.asarray(values)
        keys, tails = _hashed(np.zeros(len(values), dtype=int), values,
                              self.p)
        np.maximum(self.registers, _table(keys, tails, 1, self.p)[0],
                   out=self.registers)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Register-wise max — the sketch of the union (pure function)."""
        if other.p != self.p:
            raise ValueError(
                f"cannot merge HyperLogLog(p={self.p}) with p={other.p}")
        merged = HyperLogLog(self.p)
        merged.registers = np.maximum(self.registers, other.registers)
        return merged

    def estimate(self) -> float:
        """Bias-corrected cardinality estimate (>= 0.0)."""
        return float(_estimates(np.bincount(
            self.registers, minlength=1 << _RANK_BITS)[None, :], self.p)[0])

    def to_bytes(self) -> bytes:
        """Canonical encoding (sparse entries sorted by register index)."""
        return _encode_table(self.registers[None, :], self.p)[0]

    @classmethod
    def from_bytes(cls, buffer: bytes) -> "HyperLogLog":
        if len(buffer) < _HEADER.size or _HEADER.unpack_from(buffer)[:2] \
                != (_MAGIC, _VERSION):
            raise ValueError(f"not a HyperLogLog state: {buffer[:8]!r}")
        sketch = cls(_HEADER.unpack_from(buffer)[2])
        column = np.empty(1, dtype=object)
        column[0] = bytes(buffer)
        dense, block, keys, ranks = decode(column, sketch.p)
        sketch.registers[keys] = ranks
        if len(dense):
            sketch.registers[:] = block[0]
        return sketch

    def __repr__(self):  # pragma: no cover - cosmetic
        mode = "sparse" if self.is_sparse else "dense"
        return (f"HyperLogLog(p={self.p}, {mode}, "
                f"estimate~{self.estimate():.0f})")


def relative_error_bound(p: int) -> float:
    """The documented three-sigma relative error bound, 3/sqrt(2**p)."""
    return 3.0 / float(np.sqrt(1 << p))
