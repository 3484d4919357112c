"""Pure arithmetic shared by the benchmark: medians, the tail rule, span self time.

Nothing here imports the engine, so the rules can be tested on synthetic data.
"""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # a reported upper percentile keeps at least this many samples above it


class Span:
    """One timed call: name, start and end (perf_counter seconds), the index
    of the enclosing span (-1 for a root), the benchmark operation id, and an
    optional per-span value (a flag or a byte count)."""

    __slots__ = ("name", "start", "end", "parent", "op", "extra")

    def __init__(self, name, start, end, parent=-1, op=0, extra=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.extra = extra

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.extra]


def median(values):
    """Median of a non-empty sequence; None when it is empty."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def percentile(samples, p: float):
    """Nearest-rank percentile: the ``ceil(p * n / 100)``-th smallest sample."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1] if xs else None


def tail_percentile(samples, cap: int = 99):
    """Return ``(p, value)`` for the highest whole percentile up to ``cap``
    that still has at least ``TAIL_BEYOND`` samples beyond it.

    The value is the nearest-rank percentile: the ``ceil(p * n / 100)``-th
    smallest sample.  Failed requests enter the sample as ``inf``, so they
    count as missing the percentile instead of being dropped.  Returns
    ``(None, None)`` when no percentile qualifies (fewer than 11 samples).
    """
    n = len(samples)
    for p in range(cap, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, percentile(samples, p)
    return None, None


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    """Map each span index to the indices of its direct children."""
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids.setdefault(span.parent, []).append(i)
    return kids


def self_times(spans):
    """Per span: its duration minus the part of it its direct children cover."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        covered = union_length(
            ((spans[k].start, spans[k].end) for k in kids.get(i, ())),
            span.start, span.end,
        )
        out.append(span.end - span.start - covered)
    return out
