"""Benchmark entry point: one workload, one seed, one measured window.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric. ``--trace 1`` sets up one
stack and drives it in pairs of windows, one untraced and one traced, in
alternating order, without the probe; there are as many pairs as the
window has tune rounds, so each way the windows add up to ``--seconds``.
It prints the per-layer metrics of the traced windows and the tracing
overhead over the pairs, and writes the spans as JSON lines. Details
(sample counts, request counts, provenance, the per-layer split) go to
``.perfbench/<workload>-seed<seed>[-trace].json``. The last line of
standard output is the result object; the exit code is non-zero when a
correctness check fails.

The environment is left as the program gets it: OpenBLAS runs at its
default thread count, which every result records in its machine block.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, drive, report, spans  # noqa: E402
from perfbench import stack as st  # noqa: E402

#: stacks built per untraced run; ``setup_s`` is their median, the last
#: one is measured
SETUPS = 3
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=drive.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _after_window(stack: st.Stack, log: drive.RunLog, before: dict) -> dict:
    """Checks, cost and provenance of a driven stack; ``before`` holds
    what :func:`_before_window` read before the first window."""
    return {
        "cpu_steal_s": report.cpu_steal_s() - before["steal"],
        "log": log,
        "tuning_cost_usd": (
            sum(ledger.tuning_cost for ledger in stack.ledgers)
            - before["tuning_cost"]
        ),
        "checks": checks.run_all(stack, log),
        "history_hash": report.history_hash(
            stack.store.log.snapshot()[stack.prepop_records:]
        ),
        "history_records": {
            "before_window": before["records"], "after_window": len(stack.store),
        },
        "ledgers": [
            {"tuning_cost": ledger.tuning_cost,
             "production_cost": ledger.production_cost}
            for ledger in stack.ledgers
        ],
        "admission": stack.frontend.admission.stats(),
        "shards": {"jobs_by_shard": stack.pool.stats()["jobs_by_shard"]},
    }


def _before_window(stack: st.Stack) -> dict:
    return {
        "steal": report.cpu_steal_s(),
        "tuning_cost": sum(ledger.tuning_cost for ledger in stack.ledgers),
        "records": len(stack.store),
    }


async def _timed_set_up() -> tuple[st.Stack, float]:
    t0 = time.perf_counter()
    stack = await st.set_up()
    return stack, time.perf_counter() - t0


async def _session(workload: str, seed: int, seconds: float,
                   drive_it: bool) -> dict:
    """Set up one stack; when ``drive_it``, drive it, check it and report."""
    stack, setup_s = await _timed_set_up()
    try:
        if not drive_it:
            return {"setup_s": setup_s}
        before = _before_window(stack)
        log = await drive.Driver(stack, workload, seed, seconds).run()
        return {"setup_s": setup_s, **_after_window(stack, log, before)}
    finally:
        await stack.close()


def measure(workload: str, seed: int, seconds: float) -> dict:
    """``SETUPS`` set-ups, the last one driven for ``seconds`` and probed."""
    setup_times = []
    for i in range(SETUPS):
        out = asyncio.run(
            _session(workload, seed, seconds, drive_it=i == SETUPS - 1)
        )
        setup_times.append(out["setup_s"])
        gc.collect()
    values, samples = report.end_to_end(
        out["log"], setup_times, out["tuning_cost_usd"],
    )
    out.update(values=values, samples=samples, setup_times=setup_times)
    return out


async def _traced_session(workload: str, seed: int, seconds: float) -> dict:
    """One stack driven in alternating untraced and traced windows."""
    stack, setup_s = await _timed_set_up()
    try:
        before = _before_window(stack)
        driver = drive.Driver(stack, workload, seed, seconds)
        tracer = spans.Tracer()
        pairs = drive.tune_rounds(seconds)
        pair_log = []
        t0 = time.perf_counter()
        for i in range(pairs):
            headline = {}
            # untraced first in even pairs, traced first in odd ones, so
            # drift over the run does not land on one side
            for traced in (i % 2 == 1, i % 2 == 0):
                if traced:
                    tracer.install()
                try:
                    outcomes = await driver.window(seconds / pairs)
                finally:
                    if traced:
                        tracer.uninstall()
                headline[traced] = report.headline(workload, outcomes)
            pair_log.append({
                "untraced": headline[False], "traced": headline[True],
                "overhead_share": spans.overhead_share(
                    workload, headline[False], headline[True],
                ),
            })
        driver.log.wall_s = time.perf_counter() - t0
        return {"setup_s": setup_s, "tracer": tracer, "pairs": pair_log,
                **_after_window(stack, driver.log, before)}
    finally:
        await stack.close()


def _summary(workload: str, seed: int, out: dict) -> dict:
    """Everything a run knows beyond its metrics, for the result file."""
    log = out["log"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": log.seconds,
        "wall_s": log.wall_s,
        "requests": {
            kind: report.request_counts(
                [o for o in log.outcomes if o.kind == kind]
            )
            for kind in ("tune", "runs")
        },
        "failures": sorted({o.error for o in log.outcomes if o.failed}),
        "fingerprint_repeat_share": (
            log.fingerprints_repeated / log.fingerprints_seen
            if log.fingerprints_seen else 0.0
        ),
        "generator": report.generator(log),
        "requests_log": [
            [o.kind, round(o.due, 6), round(o.done, 6), o.accepted, o.failed]
            for o in log.outcomes
        ],
        "deployments": [
            {"workload": o.deployment.workload_label,
             "input_mb": o.deployment.input_mb, "pinned": o.pinned,
             "latency_s": o.latency_s,
             "expected_runtime_s": o.deployment.expected_runtime_s,
             "slo_value": (o.deployment.slo_report.value
                           if o.deployment.slo_report else None)}
            for o in log.outcomes if o.kind == "tune" and o.accepted
        ],
        "checks_passed": out["checks"],
        "admission": out["admission"],
        "shards": out["shards"],
        "provenance": {
            "machine": report.machine(),
            "cpu_steal_s_in_window": out["cpu_steal_s"],
            "commit": report.git_commit(ROOT),
            "seed": seed,
            "history_hash": out["history_hash"],
            "history_records": out["history_records"],
            "ledgers": out["ledgers"],
        },
    }


def _print_table(summary: dict) -> None:
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"window {summary['seconds']:g}s  wall {summary['wall_s']:.2f}s")
    for name, m in summary.get("metrics", {}).items():
        count = f"  (n={m['n']}, {m['beyond']} beyond)" if "beyond" in m else ""
        print(f"  {name:28s} {m['value']:12.6g} {m['unit']}{count}")
    for kind, c in summary["requests"].items():
        print(f"  {kind:5s} attempted {c['attempted']} ok {c['ok']} "
              f"refused {c['refused']} failed {c['failed']}")
    g = summary["generator"]
    print(f"  generator lateness p50 {g['lateness_p50_s']:.4f}s "
          f"max {g['lateness_max_s']:.4f}s"
          + ("  BEHIND SCHEDULE" if g["behind"] else ""))


def _write(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        raise SystemExit("--seconds must be a positive number")
    stem = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            out = asyncio.run(
                _traced_session(args.workload, args.seed, args.seconds)
            )
        else:
            out = measure(args.workload, args.seed, args.seconds)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        return 1
    summary = _summary(args.workload, args.seed, out)
    if args.trace:
        spans_path = OUT_DIR / f"{stem}-spans.jsonl"
        OUT_DIR.mkdir(exist_ok=True)
        out["tracer"].export(spans_path)
        layers = spans.layer_summary(
            out["tracer"].spans, [p["overhead_share"] for p in out["pairs"]],
        )
        summary.update(setup_s=out["setup_s"], pairs=out["pairs"],
                       layers=layers,
                       spans_file=str(spans_path.relative_to(ROOT)))
        metrics = layers["metrics"]
        _write(f"{stem}-trace.json", summary)
        _print_table(summary)
        spans.print_layers(layers)
    else:
        metrics = {
            name: {"value": out["values"][name], "unit": unit}
            for name, unit in report.END_TO_END.items()
        }
        summary.update(
            metrics={name: {**m, **out["samples"].get(name, {})}
                     for name, m in metrics.items()},
            setup_times_s=out["setup_times"],
        )
        _write(f"{stem}.json", summary)
        _print_table(summary)
    outcomes = out["log"].outcomes
    print(json.dumps({
        "correct": True, "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
