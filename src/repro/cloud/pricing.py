"""Cost accounting for executions and tuning campaigns.

Supports the paper's amortization arguments (Section IV.C): the cost of a
tuning campaign is the summed cost of every exploratory execution, and it
only pays off if the per-run savings of the tuned configuration amortize
it before re-tuning is needed.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field

from .cluster import Cluster

__all__ = ["CostLedger", "execution_cost"]

#: charge kinds, in the order the ledger's kind column indexes them
_KINDS = ("tuning", "production")


def execution_cost(cluster: Cluster, runtime_s: float) -> float:
    """USD cost of one workload execution on ``cluster``."""
    return cluster.cost_of(runtime_s)


@dataclass
class CostLedger:
    """Accumulates the cost of a sequence of executions.

    Separates *tuning* executions (exploration) from *production*
    executions so amortization can be computed: the paper's example is
    BestConfig's 500 tuning runs versus 90 production runs in 3 months.

    Charges are atomic: one ledger is the provider's billing record and
    may be shared by every shard of the concurrent service front end,
    where a lost read-modify-write update is a billing error.
    """

    tuning_cost: float = 0.0
    tuning_runs: int = 0
    tuning_seconds: float = 0.0
    production_cost: float = 0.0
    production_runs: int = 0
    production_seconds: float = 0.0
    # Per-charge history as columns (17 bytes a charge instead of a
    # tuple of three boxed objects): the kind as an index into _KINDS.
    _kinds: array = field(default_factory=lambda: array("b"))
    _runtimes: array = field(default_factory=lambda: array("d"))
    _costs: array = field(default_factory=lambda: array("d"))
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False,
    )

    def charge_tuning(self, cluster: Cluster, runtime_s: float) -> float:
        cost = execution_cost(cluster, runtime_s)
        with self._lock:
            self.tuning_cost += cost
            self.tuning_runs += 1
            self.tuning_seconds += runtime_s
            self._record_locked(0, runtime_s, cost)
        return cost

    def charge_production(self, cluster: Cluster, runtime_s: float) -> float:
        cost = execution_cost(cluster, runtime_s)
        with self._lock:
            self.production_cost += cost
            self.production_runs += 1
            self.production_seconds += runtime_s
            self._record_locked(1, runtime_s, cost)
        return cost

    def _record_locked(self, kind: int, runtime_s: float, cost: float) -> None:
        self._kinds.append(kind)
        self._runtimes.append(runtime_s)
        self._costs.append(cost)

    @property
    def total_cost(self) -> float:
        return self.tuning_cost + self.production_cost

    def history(self) -> list[tuple[str, float, float]]:
        """(kind, runtime_s, cost) per execution, in order."""
        with self._lock:
            return [(_KINDS[k], r, c) for k, r, c in
                    zip(self._kinds, self._runtimes, self._costs)]

    def breakeven_runs(self, cost_default_run: float, cost_tuned_run: float) -> float:
        """Production runs needed for tuned-config savings to repay tuning.

        Returns ``inf`` when the tuned configuration saves nothing.
        """
        saving = cost_default_run - cost_tuned_run
        if saving <= 0:
            return float("inf")
        return self.tuning_cost / saving
