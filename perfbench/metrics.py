"""Metric formulas shared by the benchmark and its tests."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample it came from."""

    value: float
    #: samples the percentile was taken over
    n: int
    #: samples strictly after the percentile's rank
    beyond: int


def percentile(values, q: float) -> Percentile:
    """Nearest-rank ``q`` percentile (``0 < q <= 1``) of ``values``.

    The rank is ``ceil(q * n)`` (1-based), so the value is the smallest
    sample with at least a ``q`` share of the sample at or below it.
    ``beyond`` reports how many samples lie past that rank: a p90 is
    only worth printing when ``beyond`` is at least ten.
    """
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * n - 1e-9))
    return Percentile(value=ordered[rank - 1], n=n, beyond=n - rank)


def tune_ok_share(outcomes, limit_s: float) -> float:
    """Tune requests deployed within ``limit_s`` over tune requests attempted.

    ``outcomes`` holds one ``(accepted, failed, latency_s)`` per attempt.
    A refused or failed request is a miss whatever its latency.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no tune requests attempted")
    ok = sum(
        1 for accepted, failed, latency in outcomes
        if accepted and not failed and latency <= limit_s
    )
    return ok / len(outcomes)


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the time its children cover.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples. A child's
    interval is clipped to its parent's, and overlapping children count
    once, so a parent's self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    bounds: dict[int, tuple[float, float]] = {}
    for span_id, parent, start, end in spans:
        bounds[span_id] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, (start, end) in bounds.items():
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def median(values) -> float:
    return percentile(values, 0.5).value
