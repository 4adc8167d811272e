"""Deterministic 64-bit hashing for sketch inputs.

Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
which would make the process transport's workers build *different*
sketches from the same detail values — a correctness bug, not just a
reproducibility nuisance.  This module provides a fixed, vectorized
64-bit hash:

* numeric columns: the value's canonical IEEE-754 / two's-complement
  bit pattern pushed through a splitmix64 finalizer (``-0.0`` is
  canonicalized to ``+0.0`` and every NaN to the single quiet-NaN
  pattern first, so equal SQL values hash equally);
* object columns (strings, bytes): an 8-byte BLAKE2b digest per value.

The same value therefore hashes identically in every process, on every
platform, forever — which is what makes sketch states mergeable across
sites and bit-identical across transports.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_CANONICAL_NAN = np.float64("nan")


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z ^= z >> _U64(30)
        z *= _MIX1
        z ^= z >> _U64(27)
        z *= _MIX2
        z ^= z >> _U64(31)
        return z


def _hash_object(value: object) -> int:
    if isinstance(value, bytes):
        payload = b"b" + value
    else:
        payload = b"s" + str(value).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little")


def hash64(values: np.ndarray) -> np.ndarray:
    """Hash a column of values to deterministic ``uint64`` codes."""
    array = np.asarray(values)
    if array.dtype.kind == "f":
        floats = array.astype(np.float64)
        # -0.0 + 0.0 == +0.0 under IEEE-754; collapse NaN payloads too.
        floats = floats + 0.0
        if np.isnan(floats).any():
            floats = np.where(np.isnan(floats), _CANONICAL_NAN, floats)
        return splitmix64(floats.view(_U64))
    if array.dtype.kind in ("i", "u", "b"):
        return splitmix64(array.astype(np.int64, copy=False).view(_U64))
    if array.dtype.kind == "O" or array.dtype.kind in ("U", "S"):
        hashed = np.fromiter((_hash_object(value) for value in array),
                             dtype=_U64, count=len(array))
        return splitmix64(hashed)
    raise TypeError(f"cannot hash column of dtype {array.dtype!r}")
