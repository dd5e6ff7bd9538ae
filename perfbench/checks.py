"""Correctness checks on the service's outputs after a run.

Each check raises :class:`CheckFailed` naming itself, so a failed run
says which invariant broke.
"""

from __future__ import annotations

import math

from . import drive
from .report import request_counts
from .stack import Stack


class CheckFailed(AssertionError):
    """A correctness check on the run's outputs did not hold."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def check_budget_conservation(stack: Stack) -> None:
    """Σ tenant-budget charges equals Σ shard-ledger totals."""
    charged = math.fsum(b.spent_cost for b in stack.budgets.values())
    billed = math.fsum(ledger.total_cost for ledger in stack.ledgers)
    if not math.isclose(charged, billed, rel_tol=1e-9, abs_tol=1e-9):
        raise CheckFailed(
            "budget_conservation",
            f"tenant budgets were charged {charged!r} USD, "
            f"shard ledgers billed {billed!r} USD",
        )


def _disc_evaluations(deployment, pinned: bool) -> int:
    """Evaluations of a deployment that were recorded in the history.

    The cloud stage's evaluations are paid but not recorded; the probe
    and every DISC evaluation are.
    """
    return deployment.tuning_evaluations - (0 if pinned else drive.CLOUD_BUDGET)


def check_history_conservation(stack: Stack, log: drive.RunLog) -> None:
    """History records = pre-populated + probes and tuning evaluations
    + ingested runs, over set-up and the measured window."""
    tuning = stack.setup_tune_evals + sum(
        _disc_evaluations(o.deployment, o.pinned)
        for o in log.outcomes if o.kind == "tune" and o.accepted
    )
    ingested = stack.setup_runs + sum(
        o.runs for o in log.outcomes if o.kind == "runs" and o.accepted
    )
    expected = stack.prepop_records + tuning + ingested
    if len(stack.store) != expected:
        raise CheckFailed(
            "history_conservation",
            f"log holds {len(stack.store)} records; expected "
            f"{stack.prepop_records} pre-populated + {tuning} tuning "
            f"+ {ingested} ingested = {expected}",
        )


def check_deployed_configs(stack: Stack, log: drive.RunLog) -> None:
    """Every deployed configuration lies in the DISC space."""
    space = stack.pool.service_of(0).disc_space
    deployments = list(stack.deployments) + [
        o.deployment for o in log.outcomes if o.kind == "tune" and o.accepted
    ]
    for d in deployments:
        for p in space.parameters:
            if p.name not in d.config:
                raise CheckFailed(
                    "deployed_config_in_space",
                    f"{d.tenant}: deployed config lacks {p.name}",
                )
            try:
                p.validate(d.config[p.name])
            except ValueError as exc:
                raise CheckFailed(
                    "deployed_config_in_space", f"{d.tenant}: {exc}",
                ) from None


def check_request_accounting(stack: Stack, log: drive.RunLog) -> None:
    """attempted = ok + refused (by reason) + failed, per request kind,
    and the admission gate saw the same admissions and refusals."""
    refused_total: dict[str, int] = {}
    admitted = 0
    for kind in ("tune", "runs"):
        c = request_counts([o for o in log.outcomes if o.kind == kind])
        total = c["ok"] + sum(c["refused"].values()) + c["failed"]
        if c["attempted"] != total:
            raise CheckFailed(
                "request_accounting",
                f"{kind}: attempted {c['attempted']} != ok {c['ok']} + "
                f"refused {c['refused']} + failed {c['failed']}",
            )
        for reason, n in c["refused"].items():
            refused_total[reason] = refused_total.get(reason, 0) + n
        admitted += c["ok"] + c["failed"]
    gate = stack.frontend.admission.stats()
    if dict(gate["n_rejected"]) != refused_total:
        raise CheckFailed(
            "request_accounting",
            f"admission refused {dict(gate['n_rejected'])}, "
            f"clients saw {refused_total}",
        )
    if gate["n_admitted"] != stack.setup_requests + admitted:
        raise CheckFailed(
            "request_accounting",
            f"admission admitted {gate['n_admitted']}, clients account for "
            f"{stack.setup_requests} in set-up + {admitted} in the window",
        )
    for o in log.outcomes:
        if o.kind == "runs" and o.accepted and o.runs != drive.RUNS_PER_BATCH:
            raise CheckFailed(
                "request_accounting",
                f"a {drive.RUNS_PER_BATCH}-run batch ingested {o.runs} runs",
            )


def run_all(stack: Stack, log: drive.RunLog) -> list[str]:
    """Run every check; returns the names of those that passed."""
    check_budget_conservation(stack)
    check_history_conservation(stack, log)
    check_deployed_configs(stack, log)
    check_request_accounting(stack, log)
    return [
        "budget_conservation", "history_conservation",
        "deployed_config_in_space", "request_accounting",
    ]
