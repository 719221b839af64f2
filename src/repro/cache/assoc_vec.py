"""Vectorized set-associative LRU cache simulation.

The sequential reference model (:mod:`repro.cache.assoc`) replays the
trace one access at a time in Python, far too slow for full-size Table 1
experiments.  This module classifies the same accesses with NumPy
segment operations instead, and is the simulator's only production
kernel: a direct-mapped level is simply its ``k = 1`` case.

1. **Adjacent-repeat collapse.**  An access to the line accessed
   immediately before it is a guaranteed LRU hit at any associativity and
   leaves the stack unchanged, so consecutive same-line accesses collapse
   before any sorting (skipped when the trace has too few of them to pay
   for the compaction).
2. **Set decomposition by packed-key sort.**  Each access is packed into
   one integer ``(set << idx_bits) | position``; because positions make
   the keys unique, an ordinary quicksort of the packed keys *is* the
   stable grouping by set (what a stable argsort by set computes, at a
   fraction of the cost -- and in 32-bit keys when the chunk is small
   enough).  A second collapse then removes same-line
   repeats that are adjacent within a set, so consecutive surviving
   *events* of a set always name different lines.
3. **Carried state as virtual events.**  The persistent LRU stack of
   each set (a ``(num_sets, k)`` line matrix, most-recently-used first)
   is replayed as up to ``k`` virtual events prepended to the set's run,
   oldest first.  In-chunk classification is then stateless, and chunked
   simulation is byte-identical to one-shot simulation.
4. **Way-recurrence classification.**  Consecutive-distinct events make
   the LRU stack a closed-form function of the event sequence: the stack
   an event sees always has ``way1 = el[t-1]`` and ``way2 = el[t-2]``
   (a 2-way hit is literally ``el[t] == el[t-2]``), and each deeper way
   follows a sample-and-hold recurrence -- way ``w`` takes the value of
   way ``w-1`` whenever the event missed ways ``1..w-1``, and holds
   otherwise -- which one ``np.maximum.accumulate`` over the sample
   positions plus a gather evaluates for a whole chunk at once.  The
   cost is ``O(k * events)`` with no Python-level per-access or
   per-round loop, for any associativity and any trace shape.

The sequential model remains the ground-truth oracle; the property suite
asserts exact miss-mask agreement on randomized traces, geometries, and
chunkings (``tests/properties/test_property_assoc_vec.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Largest line number the narrow (int32) pipeline can carry.
_INT32_TOP = np.iinfo(np.int32).max - 1

#: Grouping sorts up to this many keys use a plain stable argsort.
_SMALL_SORT = 256

__all__ = ["miss_mask_assoc_vec", "simulate_assoc_vec", "AssocLRUState"]


def _validate_geometry(size: int, line_size: int, associativity: int) -> int:
    """Validate a k-way geometry; returns the number of sets."""
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
    return size // (line_size * associativity)


def _packed_group_sort(values: np.ndarray, value_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of ``values`` via one sort of packed unique keys.

    Returns ``(grouped_values, positions)``: the equivalent of a stable
    argsort by value, recovered from ``np.sort`` of ``(value << idx_bits)
    | index``.  Unique keys make the unstable sort deterministic, and the
    packed keys drop to 32 bits whenever ``value_bits + idx_bits`` allow,
    which is several times faster than a stable argsort -- except on a
    few hundred values, where the packing's extra calls cost more than
    the sort itself and a stable argsort wins.
    """
    m = values.size
    idx_bits = max(1, (m - 1).bit_length())
    if m <= _SMALL_SORT:
        order = np.argsort(values, kind="stable")
        return values[order], order
    if value_bits + idx_bits <= 31:
        key = (values.astype(np.int32, copy=False) << np.int32(idx_bits)) | np.arange(
            m, dtype=np.int32
        )
    elif value_bits + idx_bits <= 62:
        key = (values.astype(np.int64, copy=False) << np.int64(idx_bits)) | np.arange(
            m, dtype=np.int64
        )
    else:  # pragma: no cover - needs >2^40 sets; fallback for safety
        order = np.argsort(values, kind="stable")
        return values[order], order
    key = np.sort(key)
    # Positions index other arrays: intp spares every gather an index cast.
    positions = np.bitwise_and(key, (1 << idx_bits) - 1, dtype=np.intp)
    return key >> idx_bits, positions


def _shift_one(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``values`` shifted down by one position, -1 at run starts."""
    out = np.empty_like(values)
    out[0] = -1
    out[1:] = values[:-1]
    out[first] = -1
    return out


def _run_last(rid: np.ndarray) -> np.ndarray:
    """Indices of the last element of each run id (``rid`` non-decreasing)."""
    tail = np.empty(rid.size, dtype=bool)
    tail[-1] = True
    np.not_equal(rid[1:], rid[:-1], out=tail[:-1])
    return tail.nonzero()[0]


def _classify_events(
    el: np.ndarray,
    ep: np.ndarray,
    efirst: np.ndarray,
    num_runs: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (``ep`` values) of missing events + final per-run stacks.

    ``el`` holds each set's events contiguously (runs delimited by
    ``efirst``), consecutive events of a run always naming different
    lines.  Under that invariant the LRU stack is a closed-form function
    of the event sequence, peeled one way per level over a shrinking
    domain:

    * The way-1 line an event sees is simply the previous event of its
      run (any event becomes the new top).
    * Way ``w`` only changes when an event misses ways ``1..w-1`` -- so
      restricted to the domain ``D_w`` of such events, the way-``w``
      value each event sees is the way-``w-1`` value seen by the
      *previous domain event* of the run (that event pushed it down).
      One shift per level, no per-access work.
    * An event that matches its way-``w`` value is a hit and drops out;
      survivors of level ``k`` are exactly the misses.

    Each level therefore compares ``el == shift(way_{w-1})`` on the
    events still unclassified and compresses; for realistic traces the
    domains shrink geometrically (most events hit in the first ways), so
    the cost beyond 2-way is a few extra passes over the *miss* stream
    only.  The way-``w-1`` value at a run's last domain event is way
    ``w`` of the set's final stack, so carried state falls out of the
    same peeling.
    """
    nE = el.size
    stack = np.full((num_runs, k), -1, dtype=np.int64)
    # Ways 1 and 2 live on the full domain, where every run is present in
    # order: run boundaries come straight from ``efirst`` and the final
    # stack columns are plain gathers at each run's last event.
    rs = efirst.nonzero()[0]
    lastpos = np.empty(num_runs, dtype=np.int64)
    lastpos[:-1] = rs[1:] - 1
    lastpos[-1] = nE - 1
    stack[:, 0] = el[lastpos]
    if k == 1:
        # Consecutive events of a run always differ: every event misses.
        return ep, stack
    B1 = _shift_one(el, efirst)
    B2 = _shift_one(B1, efirst)
    stack[:, 1] = B1[lastpos]
    alive = el != B2
    if k == 2:
        return ep[alive], stack

    # Deeper ways on shrinking domains; runs can drop out entirely, so
    # track run ids and scatter the per-run stack columns.
    if not np.count_nonzero(alive):
        return ep[alive], stack
    rid = np.cumsum(efirst, dtype=np.intp)
    rid -= 1
    cel = el[alive]
    cep = ep[alive]
    crid = rid[alive]
    cB = B2[alive]
    cfirst = np.empty(crid.size, dtype=bool)
    cfirst[0] = True
    np.not_equal(crid[1:], crid[:-1], out=cfirst[1:])
    for w in range(3, k + 1):
        Bw = _shift_one(cB, cfirst)
        lastpos = _run_last(crid)
        stack[crid[lastpos], w - 1] = cB[lastpos]
        alive = cel != Bw
        if w == k or not np.count_nonzero(alive):
            # Survivors of the last level are the misses; an empty domain
            # earlier means the deeper ways were never filled (-1 stands).
            cep = cep[alive]
            break
        cel = cel[alive]
        cep = cep[alive]
        crid = crid[alive]
        cB = Bw[alive]
        cfirst = np.empty(crid.size, dtype=bool)
        cfirst[0] = True
        np.not_equal(crid[1:], crid[:-1], out=cfirst[1:])
    return cep, stack


class AssocLRUState:
    """k-way LRU cache state with a fully vectorized ``feed``.

    The carried state is ``stack``, a ``(num_sets, associativity)``
    int64 matrix of line numbers ordered most-recently-used first
    (``-1`` marks an empty way).  ``feed`` classifies one chunk and
    updates the stack so that any chunking of a trace produces exactly
    the miss mask of the concatenated trace.
    """

    def __init__(self, size: int, line_size: int, associativity: int):
        self.num_sets = _validate_geometry(size, line_size, associativity)
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.stack = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self._set_bits = max(1, (self.num_sets - 1).bit_length())
        # Scratch set marks for ``feed``'s touched-set scan, all False
        # between calls (an O(chunk) scatter, not an O(num_sets) count).
        self._mark = np.zeros(self.num_sets, dtype=bool)
        # Largest line number ever stored in ``stack``, -1 while it is
        # empty: a running bound (and warm flag) that spares every
        # ``feed`` a reduction over the whole matrix.
        self._top = -1

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Classify one chunk; returns its miss mask and updates the stack."""
        addresses = np.asarray(addresses)
        if addresses.ndim != 1:
            raise SimulationError(
                f"trace must be 1-D, got shape {addresses.shape}"
            )
        n = addresses.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        addresses = addresses.astype(np.int64, copy=False)
        if addresses.min() < 0:
            raise SimulationError("trace contains negative addresses")
        k = self.associativity
        nsets = self.num_sets
        # Line numbers (and everything derived from them) fit 32 bits for
        # any address space below 2^31 * line_size; the narrow pipeline
        # halves memory traffic and allocation cost on the hot path.
        top = max(int(addresses.max()) // self.line_size, self._top)
        dtype = np.int32 if top <= _INT32_TOP else np.int64
        lines = np.empty(n, dtype=dtype)
        if self.line_size & (self.line_size - 1) == 0:
            np.right_shift(
                addresses,
                self.line_size.bit_length() - 1,
                out=lines,
                casting="unsafe",
            )
        else:
            np.floor_divide(addresses, self.line_size, out=lines, casting="unsafe")

        # 1. Adjacent same-line repeats are hits at any associativity and
        # are also caught by the in-set collapse below, so compact here
        # only when it shrinks the sort meaningfully.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        if np.count_nonzero(keep) <= (n - (n >> 2)):
            surv_idx = keep.nonzero()[0]
            slines = lines[surv_idx]
        else:
            surv_idx = None
            slines = lines
        if nsets & (nsets - 1) == 0:
            ssets = slines & (nsets - 1)
        else:
            ssets = slines % nsets

        # 2. Prepend the carried stacks of the sets this chunk touches,
        # oldest (LRU) way first: replaying them before the chunk's real
        # events reconstructs each stack exactly.  Empty ways replay as
        # line -1, which no real line matches: a no-op event.  A cold
        # cache (nothing stored yet) has nothing to replay, so
        # ``present`` can wait until the grouping sort hands it over for
        # free -- the touched-set scan on a large chunk is a measurable
        # cost.
        if self._top >= 0:
            mark = self._mark
            mark[ssets.astype(np.intp)] = True
            present = mark.nonzero()[0]
            mark[present] = False
            ext_sets = np.concatenate((np.repeat(present, k), ssets), dtype=dtype)
            ext_lines = np.concatenate(
                (self.stack[present, ::-1].ravel(), slines), dtype=dtype
            )
        else:
            present = None
            ext_sets, ext_lines = ssets, slines
        npre = ext_lines.size - slines.size

        # 3. Group by set, program order inside each run (virtual first).
        ss, pos = _packed_group_sort(ext_sets, self._set_bits)
        ls = ext_lines[pos]

        m = ls.size
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(ss[1:], ss[:-1], out=first[1:])
        # A repeat never straddles a run boundary (equal real lines share
        # a set, and a run's leading -1 follows the previous run's last
        # line, always a real one): same-set same-line repeats are MRU
        # hits, the rest are events.
        dup = np.empty(m, dtype=bool)
        dup[0] = False
        np.equal(ls[1:], ls[:-1], out=dup[1:])
        if np.count_nonzero(dup):
            evt = ~dup
            el = ls[evt]
            ep = pos[evt]
            efirst = first[evt]
        else:
            el, ep, efirst = ls, pos, first

        # Event runs are contiguous after the grouping sort, in ascending
        # set order -- so run i belongs to present[i] (every present set
        # contributes at least one event: its first survivor, or its
        # preamble).
        if present is None:
            present = ss[first].astype(np.intp)

        mp, stacks = _classify_events(el, ep, efirst, present.size, k)
        self.stack[present] = stacks
        self._top = top

        # 4. Scatter misses to original positions; the virtual preamble
        # occupies the first ``npre`` slots and is dropped.
        miss = np.zeros(ext_lines.size, dtype=bool)
        miss[mp] = True
        miss = miss[npre:]
        if surv_idx is None:
            return miss
        out = np.zeros(n, dtype=bool)
        out[surv_idx] = miss
        return out


def miss_mask_assoc_vec(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> np.ndarray:
    """Boolean miss mask of the trace on a k-way LRU cache (vectorized).

    Exact drop-in for :func:`repro.cache.assoc.miss_mask_assoc`: the two
    agree element-for-element on every trace, the sequential version
    simply replays the accesses one at a time while this one classifies
    them with NumPy segment operations.
    """
    state = AssocLRUState(size, line_size, associativity)
    return state.feed(addresses)


def simulate_assoc_vec(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> int:
    """Number of misses of the trace on a k-way LRU cache (vectorized)."""
    return int(miss_mask_assoc_vec(addresses, size, line_size, associativity).sum())
