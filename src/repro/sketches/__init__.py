"""Mergeable sketches for distributed holistic aggregates.

Skalla's Theorem 2 bounds coordinator traffic only because every
sub-aggregate is bounded; exact MEDIAN and COUNT DISTINCT are holistic
(Gray et al.'s taxonomy) and have no bounded state.  The sketches in
this package restore the traffic bound for those workloads: each gives
a group a bounded, mergeable state, so a serialized sketch slots into
the engine's decomposable aggregate machinery — sites build per-group
sketches over their fragment, ship the bounded states, and the
coordinator's Theorem-1 synchronization merges them like any algebraic
state column.

A sketch column is built, merged and finalized as arrays, one kernel
per column (``grouped_states`` / ``merge_states`` / ``estimate_states``
and ``quantile_states`` in :mod:`~repro.sketches.hll` and
:mod:`~repro.sketches.kll`); the per-group ``bytes`` encoding is the
wire and cache format.  The classes are single-group views over the
same kernels (``update``, ``merge``, ``estimate``, ``to_bytes`` /
``from_bytes``).

Accuracy / space contracts (see ``docs/SKETCHES.md`` for derivations):

===========================  ==========================  ====================
sketch                       standard error              state size
===========================  ==========================  ====================
:class:`HyperLogLog` (p)     ~1.04 / sqrt(2**p) rel.     <= 2**p + 5 B
:class:`QuantileSketch` (k)  rank eps ~ O(1/k)           ~k items, ~3k merged
:class:`HeavyHitterSketch`   freq. under-est <= n/(k+1)  <= k (key,count)
===========================  ==========================  ====================

Both sketches hash / compact **deterministically** (no process-seeded
randomness), so the same detail values produce bit-identical states in
every worker process, across transports, and across gather orders.
"""

from repro.sketches.hashing import hash64
from repro.sketches.hll import HyperLogLog
from repro.sketches.kll import QuantileSketch
from repro.sketches.misra_gries import HeavyHitterSketch


def kll_k_for_precision(precision: int) -> int:
    """Map the single user-facing ``--sketch-precision p`` to a KLL k.

    ``k = 2**p / 20`` (clamped to the valid range) makes the quantile
    sketch's worst-case state roughly match the HLL register array at
    the same precision — one knob scales both sketch families together.
    p=12 (the default) gives k≈204, close to the literature's k=200.
    """
    from repro.sketches.kll import MAX_K, MIN_K
    return max(MIN_K, min(MAX_K, (1 << precision) // 20))


__all__ = ["HeavyHitterSketch", "HyperLogLog", "QuantileSketch", "hash64",
           "kll_k_for_precision"]
