"""Task scheduler: slot occupancy, noise, stragglers, speculation.

Turns a deterministic per-task cost into a stage makespan by list-
scheduling noisy task durations onto the granted executor slots, with a
heavy-tailed straggler model and optional speculative execution
(``spark.speculation``) that relaunches outliers at the cost of duplicate
work — the classic tail-vs-waste trade-off.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .costmodel import Calibration
from .metrics import TaskMetrics

__all__ = ["StageSchedule", "schedule_stage"]


@dataclass(frozen=True)
class StageSchedule:
    """Outcome of scheduling one stage."""

    makespan_s: float
    task_metrics: TaskMetrics
    speculated_tasks: int
    wasted_task_seconds: float


def _sample_durations(n_tasks: int, base_task_s: float, rng: np.random.Generator,
                      calib: Calibration) -> np.ndarray:
    sigma = calib.task_noise_sigma
    durations = base_task_s * rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_tasks)
    stragglers = rng.random(n_tasks) < calib.straggler_probability
    n_straggle = int(stragglers.sum())
    if n_straggle:
        mult = 1.0 + rng.exponential(
            calib.straggler_mean_multiplier - 1.0, size=n_straggle,
        )
        durations[stragglers] *= mult
    return durations


def schedule_stage(n_tasks: int, base_task_s: float, slots: int,
                   config: Mapping, rng: np.random.Generator,
                   calib: Calibration | None = None,
                   noise: bool = True) -> StageSchedule:
    """List-schedule ``n_tasks`` noisy tasks onto ``slots`` slots.

    The stage's task noise is drawn from ``rng``, the run's single noise
    stream, so the draw order is part of the simulator's bit-identity
    contract.  Medians and quantiles come from the partition kernels
    below, bit-identical to ``np.median``/``np.quantile`` at a fraction
    of their per-call dispatch.
    """
    if calib is None:
        calib = Calibration()
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if base_task_s < 0:
        raise ValueError("base_task_s must be non-negative")

    if noise:
        durations = _sample_durations(n_tasks, base_task_s, rng, calib)
    else:
        durations = np.full(n_tasks, base_task_s)

    speculated, wasted = 0, 0.0
    if noise and n_tasks >= 4 and config.get("spark.speculation", False):
        # Speculation only monitors once `quantile` of tasks completed;
        # tasks below that completion point are never candidates.
        median, cutoff = _median_quantile_1d(
            durations, float(config.get("spark.speculation.quantile", 0.75)),
        )
        multiplier = float(config.get("spark.speculation.multiplier", 1.5))
        threshold = median * max(1.01, multiplier)
        candidates = durations > max(threshold, cutoff)
        speculated = int(candidates.sum())
        if speculated:
            # The speculative copy starts at the threshold and runs a
            # fresh median duration; the task finishes at whichever copy
            # is first.
            clamped = durations.copy()
            clamped[candidates] = np.minimum(
                clamped[candidates], threshold + median,
            )
            wasted = float(speculated * median)  # duplicate occupancy
            # Duplicate copies occupy slots: model as extra tasks of
            # median size.
            extra = np.full(speculated, _median_1d(clamped) * 0.5)
            durations = np.concatenate([clamped, extra])

    makespan = _list_schedule(durations, slots)
    real = durations[:n_tasks]
    p50, p95 = _median_quantile_1d(real, 0.95)
    metrics = TaskMetrics(
        count=n_tasks,
        mean_s=float(real.sum() / real.size),
        p50_s=p50,
        p95_s=p95,
        max_s=float(real.max()),
    )
    return StageSchedule(
        makespan_s=makespan,
        task_metrics=metrics,
        speculated_tasks=speculated,
        wasted_task_seconds=wasted,
    )


def _list_schedule_heap(durations: np.ndarray, slots: int) -> float:
    """Greedy earliest-available-slot assignment (what Spark's FIFO does).

    The production path below :data:`_MIN_VECTOR_SLOTS` slots, and the
    oracle for the equivalence property test of :func:`_list_schedule`.
    """
    n = len(durations)
    if n <= slots:
        return float(durations.max())
    # [0.0] * slots is already a valid heap; peek + heapreplace is one C
    # call per task instead of a pop/push pair, and iterating the
    # ``tolist()`` floats skips per-element numpy-scalar unboxing.  The
    # slot multiset evolves identically either way (each step removes
    # the minimum value and inserts minimum + d), so the final makespan
    # is bit-identical.
    heap = [0.0] * slots
    heapreplace = heapq.heapreplace
    for d in durations.tolist():
        heapreplace(heap, heap[0] + d)
    return max(heap)


#: below this many slots the numpy chunk bookkeeping costs more than the
#: plain heap loop it replaces.  The crossover is measured by the
#: scheduler microbench (BENCH_throughput.json) on durations drawn from
#: the production noise model (``_sample_durations`` at the default
#: calibration): parity at 48 slots, vectorized ~1.35x/2.8x/5x faster
#: at 64/128/256, heap ~1.4x faster at 32.  Wider duration spreads
#: shorten the safe prefix and move the crossover up — the microbench
#: asserts the chosen path is never >1.5x slower than the rejected one.
_MIN_VECTOR_SLOTS = 48

#: chunks shorter than this are processed with the heap (numpy call
#: overhead dominates tiny chunks)
_MIN_CHUNK = 8


def _list_schedule(durations: np.ndarray, slots: int) -> float:
    """Exact chunked/vectorized equivalent of :func:`_list_schedule_heap`.

    The greedy schedule pops the minimum slot time once per task — a
    Python-level loop that dominates simulator time at high
    ``spark.default.parallelism``.  This version assigns tasks in chunks:
    with slot times sorted ascending, the next ``m`` pops are exactly
    ``times[0..m-1]`` (in order) as long as no finish pushed during the
    chunk undercuts a later pop, i.e. while
    ``times[j] <= min_{i<j}(times[i] + d_i)``.  The longest such prefix
    is found with one vectorized prefix-min, the whole chunk is assigned
    with one vectorized add, and the slot array is re-sorted.  Stragglers
    merely shorten the chunk (their slot stays un-popped at the tail);
    degenerate chunks fall back to the heap loop, so the result is
    bit-identical to the reference for every input.
    """
    n = len(durations)
    if n <= slots:
        return float(durations.max())
    durations = np.asarray(durations, dtype=float)
    if slots < _MIN_VECTOR_SLOTS:
        return _list_schedule_heap(durations, slots)
    times = np.zeros(slots)  # slot available-times, kept sorted ascending
    pos = 0
    # Fast-rounds prologue: while every chunk is a full round of exactly
    # ``slots`` tasks and the safety test passes, the per-round work is
    # just an in-place add and re-sort.  All round minima come from one
    # (rounds, slots) reduction, and the reshape pins chunk boundaries —
    # the first unsafe round breaks to the general loop below, which
    # re-derives boundaries from ``pos`` and never returns here.
    rounds = n // slots
    if rounds >= 2:
        mat = durations[: rounds * slots].reshape(rounds, slots)
        mins = mat.min(axis=1).tolist()
        last = slots - 1
        r = 0
        while r < rounds and times[last] - times[0] <= mins[r]:
            np.add(times, mat[r], out=times)
            times.sort()
            r += 1
        pos = r * slots
    while pos < n:
        k = min(slots, n - pos)
        chunk = durations[pos:pos + k]
        cmin = chunk.min()
        # Fast test first: when the chunk's shortest task covers the slot
        # spread, every pop is safe (times[j] <= times[0] + min d <=
        # times[i] + d_i for all i < j) — the common case for the tight
        # task-noise distributions the simulator draws.
        if times[k - 1] - times[0] <= cmin:
            m = k
        else:
            # Slots at or below times[0] + cmin can only be popped before
            # any in-chunk finish lands (every push is >= times[0] + cmin),
            # so the first such-prefix pops are exactly times[:m] in order.
            # Straggler-inflated slots sit past the cut and stay parked —
            # one binary search instead of a prefix-min scan per chunk.
            m = min(int(np.searchsorted(times, times[0] + cmin, "right")), k)
        if m >= _MIN_CHUNK:
            # The m popped slots finish at times[:m] + chunk[:m]; adding
            # in place and re-sorting realizes the new multiset.
            np.add(times[:m], chunk[:m], out=times[:m])
            times.sort()
        else:
            m = min(k, _MIN_CHUNK)
            heap = times.tolist()
            heapq.heapify(heap)
            heapreplace = heapq.heapreplace
            for d in chunk[:m].tolist():
                heapreplace(heap, heap[0] + d)
            times = np.sort(heap)
        pos += m
    return float(times[-1])


def _median_1d(x: np.ndarray) -> float:
    """``float(np.median(x))`` for 1-D float arrays, minus the dispatch.

    ``np.median`` spends most of its time in ``_ureduce`` axis machinery
    — dozens of microseconds per call on the tiny per-stage arrays the
    simulator reduces.  Selecting the middle element(s) with a direct
    ``np.partition`` is bit-identical (numpy's own implementation does
    exactly this before averaging) at a fraction of the overhead.
    """
    n = x.size
    h = n // 2
    part = x.copy()
    if n % 2:
        part.partition(h)
        return float(part[h])
    part.partition((h - 1, h))
    return float((part[h - 1] + part[h]) / 2.0)


def _median_quantile_1d(x: np.ndarray, q: float) -> tuple[float, float]:
    """``(np.median(x), np.quantile(x, q))`` from one shared partition.

    ``np.partition`` with several kth indices places the sorted-order
    element at every requested position, so the median and quantile read
    the exact values the separate calls would — one array copy and one
    selection pass instead of two.  The quantile replicates numpy's
    linear-method virtual index and lerp, including the ``gamma >= 0.5``
    symmetric-lerp branch, so it is bit-identical to ``np.quantile``.
    """
    n = x.size
    h = n // 2
    vi = q * (n - 1)
    at_end = vi >= n - 1
    if at_end:
        lo = n - 1
        q_kth = (n - 1,)
    else:
        lo = math.floor(vi)
        q_kth = (lo, lo + 1)
    part = x.copy()
    if n % 2:
        part.partition((h,) + q_kth)
        median = float(part[h])
    else:
        part.partition((h - 1, h) + q_kth)
        median = float((part[h - 1] + part[h]) / 2.0)
    if at_end:
        return median, float(part[n - 1])
    g = vi - lo
    a = part[lo]
    b = part[lo + 1]
    diff = b - a
    if g >= 0.5:
        return median, float(b - diff * (1 - g))
    return median, float(a + diff * g)
