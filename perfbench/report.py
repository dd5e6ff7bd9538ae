"""End-to-end metrics and provenance of one measured run."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np
import scipy

from . import drive
from .metrics import median, percentile, tune_ok_share

#: name -> unit of every end-to-end metric, in print order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_per_s": "1/s",
    "ingest_batch_p50_s": "s",
    "ingest_batch_p90_s": "s",
    "tune_latency_p50_s": "s",
    "tune_latency_p90_s": "s",
    "tune_ok_share": "share",
    "slo_attained_share": "share",
    "tuning_cost_usd_per_deploy": "USD",
}


def request_counts(outcomes) -> dict:
    """attempted / ok / refused by reason / failed for a list of outcomes."""
    refused: dict[str, int] = {}
    for o in outcomes:
        if not o.failed and not o.accepted and o.reason is not None:
            refused[o.reason] = refused.get(o.reason, 0) + 1
    return {
        "attempted": len(outcomes),
        "ok": sum(1 for o in outcomes if o.accepted and not o.failed),
        "refused": refused,
        "failed": sum(1 for o in outcomes if o.failed),
    }


def _ingested(log: drive.RunLog) -> list:
    return [o for o in log.outcomes
            if o.kind == "runs" and o.accepted and not o.failed]


def _deployed(log: drive.RunLog) -> list:
    return [o for o in log.outcomes
            if o.kind == "tune" and o.accepted and not o.failed]


def _runs_per_s(ingested) -> float:
    elapsed = max(o.done for o in ingested) - min(o.sent for o in ingested)
    return sum(o.runs for o in ingested) / elapsed


def headline(workload: str, outcomes: list) -> float:
    """The workload's headline metric over ``outcomes`` of one window
    without probe: tune latency p50 for ``tune``, ``runs_per_s`` for
    ``ingest``."""
    if workload == "tune":
        return percentile([o.latency_s for o in outcomes
                           if o.accepted and not o.failed], 0.5).value
    return _runs_per_s([o for o in outcomes if o.accepted and not o.failed])


def end_to_end(log: drive.RunLog, setup_times: list[float],
               tuning_cost_usd: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample count behind each timing.

    ``tuning_cost_usd`` is the shard ledgers' tuning spend during the
    measured window.
    """
    tunes = [o for o in log.outcomes if o.kind == "tune"]
    ingested, deployed = _ingested(log), _deployed(log)
    if not ingested or not deployed:
        raise RuntimeError(
            f"{log.workload}: {len(ingested)} batches ingested and "
            f"{len(deployed)} tune requests deployed; both must be > 0"
        )
    batch = [o.latency_s for o in ingested]
    tune = [o.latency_s for o in deployed]
    p = {
        "ingest_batch_p50_s": percentile(batch, 0.5),
        "ingest_batch_p90_s": percentile(batch, 0.9),
        "tune_latency_p50_s": percentile(tune, 0.5),
        "tune_latency_p90_s": percentile(tune, 0.9),
    }
    attained = sum(
        1 for o in deployed
        if o.deployment.slo_report is not None and o.deployment.slo_report.attained
    )
    values = {
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs_per_s": _runs_per_s(ingested),
        **{name: q.value for name, q in p.items()},
        "tune_ok_share": tune_ok_share(
            [(o.accepted, o.failed, o.latency_s) for o in tunes],
            drive.TUNE_LATENCY_LIMIT_S,
        ),
        "slo_attained_share": attained / len(deployed),
        "tuning_cost_usd_per_deploy": tuning_cost_usd / len(deployed),
    }
    samples = {name: {"n": q.n, "beyond": q.beyond} for name, q in p.items()}
    samples["setup_s"] = {"n": len(setup_times)}
    return values, samples


def generator(log: drive.RunLog) -> dict:
    """Open-loop generator lateness; ``behind`` flags a late generator."""
    late = log.lateness or [0.0]
    worst = max(late)
    return {
        "lateness_p50_s": median(late),
        "lateness_max_s": worst,
        "behind": worst > drive.LATE_FLAG_S,
        "sent": len(log.lateness),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git``, or ``unknown`` outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave other guests, from ``/proc/stat``.

    Read before and after a window: a large difference marks a run
    slowed by a neighbour rather than by the program. 0 where the file
    does not exist.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # as the program got it; unset means OpenBLAS's default of one
        # thread per core
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def history_hash(records) -> str:
    """Order-free digest of a multiset of history records.

    Record ids and timestamps are left out: they encode arrival order,
    which concurrent shards do not fix.
    """
    lines = sorted(
        repr((r.tenant, r.workload_label, r.input_mb, r.cluster,
              sorted(r.config.items()), r.runtime_s, r.success))
        for r in records
    )
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
