"""Sequential set-associative LRU cache simulation (ground-truth oracle).

The paper treats all caches as direct-mapped and notes that "simply
treating k-way associative caches as direct-mapped for locality
optimizations achieves nearly all the benefits."  We nevertheless provide a
k-way LRU simulator: it serves as the ground-truth model the vectorized
simulator is validated against (:mod:`repro.cache.assoc_vec` must agree
exactly for every k, associativity 1 -- the paper's direct-mapped caches --
included), and it lets users measure how much associativity would have
changed the paper's miss rates.

This model replays the trace one access at a time in Python.  It is the
*reference* implementation: deliberately simple, obviously correct, and
slow.  Production paths — full-size experiments and the ``ext_assoc``
sweeps — use :mod:`repro.cache.assoc_vec` for every level, direct-mapped
or k-way; it is property-tested against this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["simulate_assoc", "miss_mask_assoc", "replay_lru"]


def replay_lru(
    lines,
    num_sets: int,
    associativity: int,
    sets: list[list[int]],
    miss: np.ndarray,
) -> np.ndarray:
    """Sequential LRU replay of ``lines``; the single reference implementation.

    ``sets`` holds one list of tags per cache set, ordered most-recently-used
    first; it is mutated in place so callers can carry state across chunks
    (:class:`repro.cache.streaming.SequentialAssocCache` does exactly that).
    ``miss`` is a preallocated boolean array the same length as ``lines``;
    positions that miss are set ``True``.  Returns ``miss``.
    """
    for i, line in enumerate(lines):
        s = line % num_sets
        tag = line // num_sets
        ways = sets[s]
        try:
            pos = ways.index(tag)
        except ValueError:
            miss[i] = True
            ways.insert(0, tag)
            if len(ways) > associativity:
                ways.pop()
        else:
            if pos:
                ways.insert(0, ways.pop(pos))
    return miss


def miss_mask_assoc(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> np.ndarray:
    """Boolean miss mask of the trace on a k-way LRU cache.

    ``size`` must be a multiple of ``line_size * associativity``.
    """
    if line_size <= 0 or size <= 0 or associativity <= 0:
        raise SimulationError(
            f"invalid geometry: size={size}, line_size={line_size}, "
            f"associativity={associativity}"
        )
    if size % (line_size * associativity) != 0:
        raise SimulationError(
            f"size {size} not a multiple of line_size*associativity "
            f"({line_size * associativity})"
        )
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise SimulationError(f"trace must be 1-D, got shape {addresses.shape}")
    n = addresses.size
    miss = np.zeros(n, dtype=bool)
    if n == 0:
        return miss
    if addresses.min() < 0:
        raise SimulationError("trace contains negative addresses")

    num_sets = size // (line_size * associativity)
    lines = (addresses.astype(np.int64) // line_size).tolist()
    sets: list[list[int]] = [[] for _ in range(num_sets)]
    return replay_lru(lines, num_sets, associativity, sets, miss)


def simulate_assoc(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> int:
    """Number of misses of the trace on a k-way LRU cache."""
    return int(miss_mask_assoc(addresses, size, line_size, associativity).sum())
