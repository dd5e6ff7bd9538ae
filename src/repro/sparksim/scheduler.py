"""Task scheduler: slot occupancy, noise, stragglers, speculation.

Turns a deterministic per-task cost into a stage makespan by list-
scheduling noisy task durations onto the granted executor slots, with a
heavy-tailed straggler model and optional speculative execution
(``spark.speculation``) that relaunches outliers at the cost of duplicate
work — the classic tail-vs-waste trade-off.

:func:`schedule_stage_rows` schedules one stage for many runs at once:
each run (a *row*) draws its task noise on its own generator, then
speculation, the list schedule and the task statistics run once along
axis 1 of a ``(rows, tasks)`` block.  Every row's result is bit-identical
to scheduling it alone; :func:`schedule_stage` is the one-row case.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .costmodel import Calibration
from .metrics import TaskMetrics

__all__ = ["StageSchedule", "schedule_stage", "schedule_stage_rows",
           "speculation_of"]


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


def speculation_of(config: Mapping) -> tuple[float, float] | None:
    """``(quantile, multiplier)`` when ``spark.speculation`` is on."""
    if not config.get("spark.speculation", False):
        return None
    return (float(config.get("spark.speculation.quantile", 0.75)),
            float(config.get("spark.speculation.multiplier", 1.5)))


def schedule_stage(n_tasks: int, base_task_s: float, slots: int,
                   config: Mapping, rng: np.random.Generator,
                   calib: Calibration | None = None,
                   noise: bool = True) -> StageSchedule:
    """List-schedule ``n_tasks`` noisy tasks onto ``slots`` slots."""
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if base_task_s < 0:
        raise ValueError("base_task_s must be non-negative")
    rows = schedule_stage_rows(n_tasks, [base_task_s], slots,
                               speculation_of(config), [rng],
                               calib or Calibration(), noise)
    return StageSchedule(*(column[0] for column in rows))


def schedule_stage_rows(
        n_tasks: int, base_task_s: Sequence[float], slots: int,
        speculation: tuple[float, float] | None,
        rngs: Sequence[np.random.Generator], calib: Calibration,
        noise: bool) -> tuple[list[float], list[TaskMetrics], list[int],
                              list[float]]:
    """Schedule one stage for every row: ``(makespans, task metrics,
    speculated tasks, wasted task seconds)``, one entry per row.

    Row ``r`` runs ``n_tasks`` tasks of base cost ``base_task_s[r]`` on
    ``slots`` slots and draws its noise from ``rngs[r]`` alone, in the
    order a lone run draws it, so no row's stream depends on its
    neighbours.  The medians and quantiles come from
    :func:`_median_quantile_rows`, bit-identical to ``np.median`` and
    ``np.quantile`` on each row.
    """
    rows = len(base_task_s)
    if noise:
        block = np.concatenate([
            _sample_durations(n_tasks, base, rng, calib)
            for base, rng in zip(base_task_s, rngs)
        ]).reshape(rows, n_tasks)
    else:
        block = np.repeat(np.array(base_task_s, dtype=float)[:, None],
                          n_tasks, axis=1)
    speculated, wasted = [0] * rows, [0.0] * rows
    if noise and n_tasks >= 4 and speculation is not None:
        # Speculation only monitors once `quantile` of tasks completed;
        # tasks below that completion point are never candidates.
        quantile, multiplier = speculation
        median, cutoff, _ = _median_quantile_rows(block, quantile)
        threshold = [m * max(1.01, multiplier) for m in median]
        candidates = block > np.array(
            [max(t, c) for t, c in zip(threshold, cutoff)])[:, None]
        n_spec = candidates.sum(axis=1).tolist()
        if any(n_spec):
            # The speculative copy starts at the threshold and runs a
            # fresh median duration; the task finishes at whichever copy
            # is first.
            block = np.where(candidates, np.minimum(block, np.array(
                [t + m for t, m in zip(threshold, median)])[:, None]), block)
            speculated = n_spec
            # duplicate occupancy
            wasted = [k * m for k, m in zip(n_spec, median)]
    p50, p95, top = _median_quantile_rows(block, 0.95)
    metrics = [
        TaskMetrics(count=n_tasks, mean_s=total / n_tasks, p50_s=p50_s,
                    p95_s=p95_s, max_s=max_s)
        for total, p50_s, p95_s, max_s in zip(
            block.sum(axis=1).tolist(), p50, p95, top)
    ]
    lengths = None      # every row runs exactly n_tasks tasks
    if any(speculated):
        # Duplicate copies occupy slots: model them as extra tasks of
        # half the clamped median, after a row's real tasks and padded
        # to a block with +inf.
        width = max(speculated)
        block = np.concatenate([block, np.array([
            [m * 0.5] * k + [np.inf] * (width - k)
            for m, k in zip(p50, speculated)
        ])], axis=1)
        lengths = [n_tasks + k for k in speculated]
    return _makespans(block, lengths, slots), metrics, speculated, wasted


def _list_schedule_heap(durations: Sequence[float], slots: int) -> float:
    """Greedy earliest-available-slot assignment (what Spark's FIFO does).

    The production path for narrow blocks (see :func:`_row_kernel_wins`)
    and the oracle of the property tests of :func:`_list_schedule_rows`.
    It takes one row as Python floats (``ndarray.tolist()``), so the loop
    below runs without per-element numpy-scalar unboxing.
    """
    if len(durations) <= slots:
        return float(max(durations))
    # [0.0] * slots is already a valid heap; peek + heapreplace is one C
    # call per task instead of a pop/push pair.  The slot multiset
    # evolves identically either way (each step removes the minimum
    # value and inserts minimum + d), so the final makespan is
    # bit-identical.
    heap = [0.0] * slots
    heapreplace = heapq.heapreplace
    for d in durations:
        heapreplace(heap, heap[0] + d)
    return float(max(heap))


#: the row kernel's fixed numpy cost per chunk beats the plain heap loop
#: over every row from this many slots for one row, and from twice as
#: many ``rows x slots`` cells for a block of rows.  Measured by the
#: scheduler microbench (``benchmarks/test_perf_throughput.py``) on
#: durations drawn from the production noise model: one row breaks even
#: at 128 slots and runs 2x faster at 256, while the break-even block
#: grows from about 130 cells at 2 rows to about 250 at 50 rows.  The
#: microbench asserts the chosen path is never >1.5x slower than the
#: rejected one.
_MIN_VECTOR_SLOTS = 128


def _row_kernel_wins(rows: int, slots: int) -> bool:
    """Whether :func:`_list_schedule_rows` beats a heap per row here."""
    return slots >= _MIN_VECTOR_SLOTS or rows * slots >= 2 * _MIN_VECTOR_SLOTS


def _makespans(block: np.ndarray, lengths: list[int] | None,
               slots: int) -> list[float]:
    """Each row's makespan, on the kernel that is faster at this shape.

    ``lengths`` gives each row's task count; ``None`` means every row is
    full width.
    """
    if lengths is None:
        lengths = [block.shape[1]] * len(block)
    if _row_kernel_wins(len(block), slots):
        return _list_schedule_rows(block, lengths, slots).tolist()
    return [_list_schedule_heap(row[:n], slots)
            for row, n in zip(block.tolist(), lengths)]


def _list_schedule(durations: np.ndarray, slots: int) -> float:
    """One row's makespan on the kernel :func:`schedule_stage_rows` picks."""
    durations = np.asarray(durations, dtype=float)
    return _makespans(durations[None], None, slots)[0]


def _list_schedule_rows(block: np.ndarray, lengths: Sequence[int],
                        slots: int) -> np.ndarray:
    """Exact cross-row equivalent of :func:`_list_schedule_heap`.

    Row ``r`` list-schedules ``block[r, :lengths[r]]`` (the rest is
    ``+inf`` padding).  The heap pops the minimum slot time once per
    task; here every row assigns a whole chunk per step instead.  With
    a row's slot times sorted ascending, its next ``m`` pops are exactly
    ``times[:m]`` in order while no finish pushed during the chunk
    undercuts a later pop.  Every push is at least ``times[0] + cmin``
    (``cmin`` the chunk's shortest task), and rounding is monotone, so
    the slots with ``times[j] <= times[0] + cmin`` are such a prefix —
    at least one slot, since durations are non-negative.  Each step
    adds ``chunk[:m]`` into ``times[:m]``, re-sorts the row and advances
    it by its own ``m``: the result is bit-identical to the heap for
    every row.  Straggler-inflated slots sit past the cut and stay
    parked until the rest catch up.
    """
    rows, width = block.shape
    stride = width + slots
    padded = np.full((rows, stride), np.inf)
    padded[:, :width] = block
    flat = padded.ravel()
    at = np.arange(0, rows * stride, stride)  # each row's next task
    left = np.array(lengths, dtype=np.int64)  # each row's unplaced tasks
    times = np.zeros((rows, slots))  # slot available-times, sorted per row
    cols = np.arange(slots)
    while left.any():
        # Past a row's length its chunk is +inf padding, so ``cmin`` is
        # the shortest real task and a finished row takes m = 0.
        chunk = flat.take(at[:, None] + cols)
        bound = times[:, :1] + chunk.min(axis=1, keepdims=True)
        m = np.minimum((times <= bound).sum(axis=1), left)
        times += np.where(cols < m[:, None], chunk, 0.0)
        times.sort(axis=1)
        at += m
        left -= m
    return times[:, -1]


def _median_quantile_rows(
        x: np.ndarray,
        q: float) -> tuple[list[float], list[float], list[float]]:
    """Per-row ``(np.median, np.quantile(., q), max)`` from one sort.

    A row sort places every order statistic where the median, the
    quantile and the maximum read it, so all three come from one
    ``np.sort`` along axis 1 — cheaper than ``np.partition`` with several
    kth indices, and far cheaper than the ``_ureduce`` dispatch of the
    numpy functions.  The quantile replicates numpy's linear-method
    virtual index and lerp, including the ``gamma >= 0.5`` symmetric-lerp
    branch, in Python floats (the same IEEE operations), so each row is
    bit-identical to ``np.median``/``np.quantile``.
    """
    n = x.shape[1]
    h = n // 2
    vi = q * (n - 1)
    at_end = vi >= n - 1
    lo = n - 1 if at_end else math.floor(vi)
    g = vi - lo
    srt = x.copy()  # the ndarray method skips np.sort's dispatch
    srt.sort(axis=1)
    mid_lo, mid_hi, a, b, top = srt.take(
        (h - 1 + n % 2, h, lo, min(lo + 1, n - 1), n - 1), axis=1,
    ).T.tolist()
    medians = mid_hi if n % 2 else [
        (u + v) / 2.0 for u, v in zip(mid_lo, mid_hi)]
    if at_end:
        return medians, a, top
    if g >= 0.5:
        return medians, [v - (v - u) * (1 - g) for u, v in zip(a, b)], top
    return medians, [u + (v - u) * g for u, v in zip(a, b)], top
