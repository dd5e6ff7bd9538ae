"""Property tests: the vectorized scheduler kernels are exact.

`_list_schedule` and the row kernel `_list_schedule_rows` must return
bit-identical makespans to the reference heap implementation for every
input, and `_median_quantile_rows` the exact `np.median`/`np.quantile`
of each row — they are hot-path optimisations, not approximations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparksim.costmodel import Calibration
from repro.sparksim.scheduler import (
    _MIN_VECTOR_SLOTS,
    _list_schedule,
    _list_schedule_heap,
    _list_schedule_rows,
    _median_quantile_rows,
    _sample_durations,
)

durations = st.lists(
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(durations, st.integers(min_value=1, max_value=300))
def test_vectorized_matches_heap_exactly(tasks, slots):
    d = np.asarray(tasks, dtype=float)
    assert _list_schedule(d, slots) == _list_schedule_heap(d, slots)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=_MIN_VECTOR_SLOTS, max_value=256),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vectorized_path_matches_heap_at_scale(slots, n_tasks, seed):
    # Force the vectorized code path (slots >= _MIN_VECTOR_SLOTS) on
    # skewed workloads: a log-uniform body plus occasional stragglers.
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(-3, 3, n_tasks))
    stragglers = rng.random(n_tasks) < 0.02
    d[stragglers] *= 50.0
    assert _list_schedule(d, slots) == _list_schedule_heap(d, slots)


@settings(max_examples=100, deadline=None)
@given(durations, st.integers(min_value=1, max_value=300))
def test_greedy_makespan_bounds(tasks, slots):
    d = np.asarray(tasks, dtype=float)
    m = _list_schedule(d, slots)
    lower = max(float(d.max()), float(d.sum()) / slots)
    assert m >= lower - 1e-9 * max(1.0, lower)
    assert m <= float(d.sum()) / slots + float(d.max()) + 1e-9


def test_ties_and_equal_durations():
    d = np.full(500, 3.0)
    assert _list_schedule(d, 32) == _list_schedule_heap(d, 32)


def test_descending_and_ascending_orders():
    base = np.exp(np.linspace(-2, 2, 777))
    for d in (base, base[::-1].copy()):
        assert _list_schedule(d, 48) == _list_schedule_heap(d, 48)


# --- row kernels ------------------------------------------------------------

def _block(rng, rows, width, kind):
    """A ``(rows, width)`` duration block of one shape of trouble."""
    if kind == "ties":
        return rng.integers(0, 4, (rows, width)).astype(float)
    if kind == "zeros":
        d = rng.exponential(1.0, (rows, width))
        d[rng.random((rows, width)) < 0.3] = 0.0
        return d
    if kind == "heavy":
        d = np.exp(rng.uniform(-3, 3, (rows, width)))
        d[rng.random((rows, width)) < 0.02] *= 50.0
        return d
    return np.array([_sample_durations(width, 1.0, rng, Calibration())
                     for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["ties", "zeros", "heavy", "noise"]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_kernel_matches_heap_per_row(rows, slots, width, kind, ragged,
                                         seed):
    # Ragged rows end early and are padded with +inf, as speculation
    # extras leave them.
    rng = np.random.default_rng(seed)
    block = _block(rng, rows, width, kind)
    lengths = (rng.integers(1, width + 1, rows) if ragged
               else np.full(rows, width)).tolist()
    for r, n in enumerate(lengths):
        block[r, n:] = np.inf
    got = _list_schedule_rows(block, lengths, slots).tolist()
    want = [_list_schedule_heap(block[r, :n], slots)
            for r, n in enumerate(lengths)]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(["ties", "zeros", "heavy", "noise"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_median_quantile_rows_match_numpy_per_row(rows, width, q, kind,
                                                  seed):
    block = _block(np.random.default_rng(seed), rows, width, kind)
    medians, quantiles, maxima = _median_quantile_rows(block, q)
    assert medians == [float(np.median(row)) for row in block]
    assert quantiles == [float(np.quantile(row, q)) for row in block]
    assert maxima == [float(row.max()) for row in block]


def test_one_row_takes_the_kernel_only_past_the_crossover():
    d = np.exp(np.linspace(-1, 1, 600))
    for slots in (1, 7, _MIN_VECTOR_SLOTS - 1, _MIN_VECTOR_SLOTS, 300):
        assert _list_schedule(d, slots) == _list_schedule_heap(d, slots)
        assert _list_schedule_rows(d[None], [600], slots)[0] == \
            _list_schedule_heap(d, slots)
