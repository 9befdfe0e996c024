"""Violating (interlacing) non-tree edges: Definition 7 and its detection.

Two intervals ``(a, b)`` and ``(c, d)`` (with ``a < b``, ``c < d``,
``a < c``) *intersect* when ``a < c < b < d``; a non-tree edge is
*violating* when it intersects some other non-tree edge.  Claims 8-10:

* no violating edge => the part is planar (so on a gamma-far part at
  least a gamma fraction of the edges is violating -- Corollary 9);
* the part is planar and the labels come from a planar embedding =>
  there is no violating edge (one-sided error).

This module provides the exact violating-edge analysis (both a brute
force reference and a vectorized range-query mask) and the paper's
sampling-based distributed detection procedure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[int, int]


def edges_interlace(first: Interval, second: Interval) -> bool:
    """Definition 7 predicate on two rank intervals (order-insensitive)."""
    (a, b), (c, d) = first, second
    if a > c:
        (a, b), (c, d) = (c, d), (a, b)
    return a < c < b < d


def violating_mask_bruteforce(intervals: Sequence[Interval]) -> List[bool]:
    """O(k^2) reference implementation of the violating-edge mask."""
    k = len(intervals)
    mask = [False] * k
    for i in range(k):
        for j in range(i + 1, k):
            if edges_interlace(intervals[i], intervals[j]):
                mask[i] = True
                mask[j] = True
    return mask


def _extremes(values, lo, hi, op, fill):
    """``op``-reduction of ``values[lo:hi]`` per query (sparse table).

    Queries with ``lo >= hi`` return *fill*.
    """
    length = hi - lo
    longest = int(length.max())
    levels = max(1, longest.bit_length())
    size = len(values)
    table = np.full((levels, size), fill, dtype=values.dtype)
    table[0] = values
    for j in range(1, levels):
        half = 1 << (j - 1)
        width = size - 2 * half + 1
        table[j, :width] = op(table[j - 1, :width], table[j - 1, half : half + width])
    level = np.frexp(np.maximum(length, 1))[1] - 1  # floor(log2(length))
    low = np.minimum(lo, size - 1)
    out = op(table[level, low], table[level, np.maximum(hi - (1 << level), 0)])
    return np.where(length > 0, out, fill)


def _mask(starts, ends, universe: int):
    """Violating-edge mask of the intervals ``(starts[i], ends[i])``."""
    # right[p]: the furthest end of an interval starting at p; left[p]:
    # the earliest start of an interval ending at p.
    right = np.full(universe, -1, dtype=np.int64)
    np.maximum.at(right, starts, ends)
    left = np.full(universe, universe, dtype=np.int64)
    np.minimum.at(left, ends, starts)
    inner = starts + 1
    leaves_right = _extremes(right, inner, ends, np.maximum, -1) > ends
    leaves_left = _extremes(left, inner, ends, np.minimum, universe) < starts
    return leaves_right | leaves_left


def _arrays(intervals: Sequence[Interval]):
    pairs = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def violating_mask(intervals: Sequence[Interval], universe: int) -> List[bool]:
    """O(k + universe log universe) violating-edge mask.

    An interval ``e = (a, b)`` is violating iff

    * (A) some interval starts strictly inside ``e`` and ends strictly
      after ``b``, or
    * (B) some interval ends strictly inside ``e`` and starts strictly
      before ``a``.

    Both are range queries over the endpoint positions -- the largest
    end among intervals starting in ``(a, b)``, the smallest start
    among intervals ending there -- answered for all intervals at once
    from two numpy sparse tables.

    Args:
        intervals: rank intervals with endpoints in ``[0, universe)``.
        universe: exclusive upper bound on endpoint values.
    """
    if not intervals:
        return []
    starts, ends = _arrays(intervals)
    return _mask(starts, ends, universe).tolist()


def count_violating(intervals: Sequence[Interval], universe: int) -> int:
    """Number of violating non-tree edges (exact, for analysis)."""
    return sum(violating_mask(intervals, universe))


@dataclass
class SamplingOutcome:
    """Result of the distributed sampling-based violation detection.

    Attributes:
        detected: True when a sampled edge interlaced some non-tree edge.
        sample_target: the target sample size s.
        sampled: number of edges actually sampled.
        truncated: whether the congestion cap (4s) kicked in.
        witness: one interlacing (sampled, other) interval pair if found.
    """

    detected: bool
    sample_target: int
    sampled: int
    truncated: bool
    witness: Optional[Tuple[Interval, Interval]] = None


def sample_and_detect(
    intervals: Sequence[Interval],
    sample_target: int,
    rng: random.Random,
    universe: Optional[int] = None,
    mask: Optional[Sequence[bool]] = None,
) -> SamplingOutcome:
    """Paper Section 2.2.2 detection: sample ~s non-tree edges, broadcast
    their labels, and let every edge owner test interlacement.

    Each non-tree edge is independently selected with probability
    ``min(1, s / k)``; if far more than the expected number is selected
    (beyond ``4s``), the excess is dropped (the paper aborts; dropping
    preserves one-sided error and only weakens detection in a
    1/poly(n)-probability event).  A violation is detected when a sampled
    edge interlaces *any* non-tree edge, sampled or not.

    The test "does edge i interlace some other edge" is read off the
    :func:`violating_mask`; callers that already computed it (analysis
    mode) pass it via *mask*.  *universe* is an exclusive upper bound on
    endpoint values (default: the largest endpoint plus one).  The
    witness pairs the first sampled violating edge with its first
    interlacing partner in index order.
    """
    k = len(intervals)
    if k == 0 or sample_target <= 0:
        return SamplingOutcome(False, sample_target, 0, False)
    probability = min(1.0, sample_target / k)
    chosen = [i for i in range(k) if rng.random() < probability]
    cap = max(4 * sample_target, 1)
    truncated = len(chosen) > cap
    if truncated:
        chosen = chosen[:cap]
    if chosen:
        starts, ends = _arrays(intervals)
        if mask is None:
            bound = int(ends.max()) + 1 if universe is None else universe
            mask = _mask(starts, ends, bound)
        hits = np.flatnonzero(np.asarray(mask)[chosen])
        if len(hits):
            i = chosen[int(hits[0])]
            a, b = intervals[i]
            partners = ((a < starts) & (starts < b) & (b < ends)) | (
                (starts < a) & (a < ends) & (ends < b)
            )
            j = int(np.flatnonzero(partners)[0])
            return SamplingOutcome(
                True,
                sample_target,
                len(chosen),
                truncated,
                witness=(intervals[i], intervals[j]),
            )
    return SamplingOutcome(False, sample_target, len(chosen), truncated)
