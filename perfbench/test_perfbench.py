"""Tests of the benchmark's metric formulas, checks and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, drive, report, spans
from perfbench import stack as st
from perfbench.metrics import percentile, self_times, tune_ok_share
from repro.core.service import TuningService

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# --- metric formulas -------------------------------------------------------
def test_percentile_nearest_rank_and_count():
    values = list(range(1, 101))            # 1..100, shuffled order is irrelevant
    p90 = percentile(reversed(values), 0.9)
    assert (p90.value, p90.n, p90.beyond) == (90, 100, 10)
    p50 = percentile(values, 0.5)
    assert (p50.value, p50.beyond) == (50, 50)
    assert percentile([7.0], 0.9).value == 7.0
    small = percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.9)
    assert (small.value, small.beyond) == (10, 1)


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_tune_ok_share_counts_refusals_and_failures_as_misses():
    outcomes = [
        (True, False, 0.5),     # deployed in time
        (True, False, 3.0),     # deployed late
        (False, False, 0.0),    # refused: a miss even with zero latency
        (True, True, 0.1),      # failed: a miss
    ]
    assert tune_ok_share(outcomes, limit_s=2.0) == pytest.approx(0.25)
    assert tune_ok_share([(True, False, 2.0)], limit_s=2.0) == 1.0
    with pytest.raises(ValueError):
        tune_ok_share([], limit_s=2.0)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans_ = [
        (1, None, 0.0, 10.0),   # root
        (2, 1, 1.0, 4.0),       # child
        (3, 2, 2.0, 3.0),       # grandchild
        (4, 1, 3.0, 6.0),       # child overlapping child 2 by 1 s
        (5, 1, 9.0, 12.0),      # child running past the root's end
    ]
    own = self_times(spans_)
    assert own[3] == pytest.approx(1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)
    # root covers [1, 6] and [9, 10] with children: 10 - 6 = 4
    assert own[1] == pytest.approx(4.0)


def test_overhead_share_is_positive_when_tracing_slows():
    assert spans.overhead_share("tune", 0.2, 0.25) == pytest.approx(0.25)
    assert spans.overhead_share("ingest", 1000.0, 800.0) == pytest.approx(0.2)


def test_tune_windows_hold_whole_rounds_with_ten_beyond_p90():
    per_round = len(drive.tune_combos())
    assert drive.tune_rounds(30.0) == 5
    assert drive.tune_rounds(31.0) == 6
    assert drive.tune_rounds(1.0) == 1
    due = drive.arrival_schedule(np.random.default_rng(0), 30.0)
    assert len(due) == 5 * per_round
    assert due == sorted(due) and 0.0 <= due[0] and due[-1] < 30.0
    assert percentile(due, 0.9).beyond >= 10
    probe = drive.TUNE_PROBE_ROUNDS * per_round
    assert percentile(range(probe), 0.9).beyond >= 10


# --- checks on a tiny stack -----------------------------------------------
def _tiny_run(workload: str, seconds: float, tracer=None):
    async def go():
        stack = st.build(seed=3)
        st.prepopulate(stack, seed=3, n_records=400, per_key=20)
        await st.deploy_ingest_tenants(stack)
        await st.warm_up(stack)
        if tracer is not None:
            tracer.install()
        try:
            log = await drive.Driver(stack, workload, 3, seconds).run()
        finally:
            if tracer is not None:
                tracer.uninstall()
        await stack.close()
        return stack, log
    return asyncio.run(go())


@pytest.fixture(scope="module")
def tiny():
    return _tiny_run("tune", 2.0)


def test_checks_pass_on_a_tiny_stack(tiny):
    stack, log = tiny
    assert log.outcomes
    assert checks.run_all(stack, log) == [
        "budget_conservation", "history_conservation",
        "deployed_config_in_space", "request_accounting",
    ]


def test_budget_check_names_itself(tiny):
    stack, log = tiny
    budget = next(iter(stack.budgets.values()))
    budget.spent_cost += 1.0
    try:
        with pytest.raises(checks.CheckFailed) as err:
            checks.check_budget_conservation(stack)
        assert err.value.name == "budget_conservation"
    finally:
        budget.spent_cost -= 1.0


def test_history_check_catches_an_unaccounted_record(tiny):
    stack, log = tiny
    stack.prepop_records -= 1
    try:
        with pytest.raises(checks.CheckFailed) as err:
            checks.check_history_conservation(stack, log)
        assert err.value.name == "history_conservation"
    finally:
        stack.prepop_records += 1


def test_request_accounting_catches_a_lost_outcome(tiny):
    stack, log = tiny
    first = log.outcomes[0]
    saved = (first.accepted, first.reason)
    # neither ok, refused with a reason, nor failed: an outcome gone missing
    first.accepted, first.reason = False, None
    try:
        with pytest.raises(checks.CheckFailed) as err:
            checks.check_request_accounting(stack, log)
        assert err.value.name == "request_accounting"
    finally:
        first.accepted, first.reason = saved
    # a refusal the admission gate never made
    first.accepted, first.reason = False, "queue_full"
    try:
        with pytest.raises(checks.CheckFailed):
            checks.check_request_accounting(stack, log)
    finally:
        first.accepted, first.reason = saved


def test_request_counts_split_by_reason():
    outs = [
        drive.Outcome("tune", 0, 0, 1, accepted=True),
        drive.Outcome("tune", 0, 0, 0, accepted=False, reason="queue_full"),
        drive.Outcome("tune", 0, 0, 0, accepted=False, reason="queue_full"),
        drive.Outcome("tune", 0, 0, 0, failed=True, error="boom"),
    ]
    assert report.request_counts(outs) == {
        "attempted": 4, "ok": 1, "refused": {"queue_full": 2}, "failed": 1,
    }


def test_tracer_covers_shard_time_and_restores_methods():
    original = TuningService.__dict__["submit"]
    tracer = spans.Tracer()
    stack, log = _tiny_run("tune", 2.0, tracer)
    assert TuningService.__dict__["submit"] is original
    names = {s.name for s in tracer.spans}
    assert {spans.JOB, spans.REQUEST, "service.submit", "tuning.suggest",
            "engine.evaluate_batch", "characterization.signature",
            "history.record", "similarity.transfer_plan"} <= names
    jobs = [s for s in tracer.spans if s.name == spans.JOB]
    requests = {s.request for s in tracer.spans if s.name == spans.REQUEST}
    assert jobs and all(s.request in requests for s in jobs)
    summary = spans.layer_summary(tracer.spans, [0.02, -0.01, 0.05])
    m = {k: v["value"] for k, v in summary["metrics"].items()}
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_self + m["other.self_s"] == pytest.approx(summary["busy_s"])
    assert m["trace.coverage_share"] > 0.9
    assert m["trace.overhead_share"] == 0.02
    assert m["trace.overhead_range_share"] == pytest.approx(0.06)
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }


def test_end_to_end_metrics_match_the_declaration():
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    assert report.END_TO_END == {d["name"]: d["unit"] for d in declared}
