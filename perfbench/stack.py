"""Build the multi-tenant service stack the benchmark drives.

The stack is assembled from the service's public constructors only
(``TuningService``, ``ShardPool``, ``AdmissionController``,
``SLOPriorityScheduler``, ``ServiceFrontEnd``), never through
``repro.core.serviced.loadgen``, so the benchmark outlives changes to the
load generator's retry client.

Set-up has three parts, all timed as ``setup_s``:

1. build the stack: one shared history log, two shards with their own
   ledgers, admission control and the priority scheduler;
2. pre-populate the log with ``PREPOP_RECORDS`` records of simulated
   executions owned by synthetic tenants, so transfer lookups and the
   full-log scans behind them run against a provider-sized history;
3. deploy the ingest tenants through the front end and warm the
   signature index and plan caches.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.cluster import Cluster
from repro.cloud.pricing import CostLedger
from repro.config.spark_params import spark_core_space
from repro.core.characterization import probe_configuration, signature
from repro.core.history import HistoryStore
from repro.core.histlog import HistoryLog
from repro.core.service import Deployment, TuningService
from repro.core.serviced import (
    AdmissionController,
    RunBatchRequest,
    ServiceFrontEnd,
    ShardPool,
    SLOPriorityScheduler,
    TenantBudget,
    TuneRequest,
)
from repro.core.slo import SLOMetric, TuningSLO
from repro.sparksim.simulator import SparkSimulator
from repro.tuning.random_search import RandomSearchTuner
from repro.workloads.suite import SUITE, get_workload

#: one shard per core of the 2-core reference box; more shard threads
#: than cores only adds interpreter-lock contention
N_SHARDS = 2
#: admitted-but-unfinished requests the front end holds service-wide
MAX_PENDING = 12
PER_TENANT_INFLIGHT = 2

#: history records written before the run, so a full-log pass
#: (``HistoryStore.for_workload``) costs about as much as a BO session
PREPOP_RECORDS = 100_000
#: records per synthetic history tenant; PREPOP_RECORDS / this many keys
PREPOP_RECORDS_PER_KEY = 50
#: distinct simulated executions per (family, input size) the
#: pre-populated records are drawn from
PREPOP_POOL = 24
#: one size per input decade, so each family has two fingerprints
INPUT_SIZES_MB = (1000.0, 10000.0)
CLUSTERS = (("m5.xlarge", 4), ("m5.2xlarge", 4))

#: the SLO every tenant agrees to. The service's reference for
#: WITHIN_BEST_SIMILAR is the best runtime of *any* other workload in the
#: log (a few seconds, from a small scan), so the target is loose: within
#: 50x of it, which about 85 % of deployments meet at the seed commit.
SLO = TuningSLO(SLOMetric.WITHIN_BEST_SIMILAR, 49.0)
#: DISC evaluations of each ingest tenant's set-up deployment, a
#: random-search session: set-up needs deployments, not good ones
SETUP_DISC_BUDGET = 4
#: (family, input size) of the ingest tenants: every family at 1 GB and
#: every second family at 10 GB. Fifteen equally loaded tenants, an odd
#: number, keep the p50 and p90 ranks of ingest latency inside one
#: tenant's latency band; with ten, both ranks fall on the edge between
#: two bands and flip between them from run to run.
INGEST_TENANTS = tuple(
    [(f, 1000.0) for f in SUITE] + [(f, 10000.0) for f in list(SUITE)[::2]]
)
#: runs of each ingest tenant's warm-up batch
WARM_UP_RUNS = 2
#: seeds the services, the pre-populated history and the set-up
#: deployments. It is fixed: the workload seed drives only the requests
#: the service receives, so every run starts from the same provider state.
SETUP_SEED = 20190707


def families() -> list[str]:
    """Suite families in registry order."""
    return list(SUITE)


def cluster_of(index: int) -> Cluster:
    name, count = CLUSTERS[index % len(CLUSTERS)]
    return Cluster.of(name, count)


@dataclass
class Stack:
    """One built service stack plus what set-up put into it."""

    frontend: ServiceFrontEnd
    pool: ShardPool
    store: HistoryStore
    ledgers: list[CostLedger]
    budgets: dict[str, TenantBudget] = field(default_factory=dict)
    prepop_records: int = 0
    #: the ingest tenants' set-up deployments
    deployments: list[Deployment] = field(default_factory=list)
    #: everything the front end was asked to do during set-up, so the
    #: conservation checks can account for it
    setup_requests: int = 0
    setup_tune_evals: int = 0
    setup_runs: int = 0

    def budget(self, tenant: str) -> TenantBudget:
        """The tenant's budget, registered with the front end on first use."""
        budget = self.budgets.get(tenant)
        if budget is None:
            budget = TenantBudget(tenant=tenant, slo=SLO)
            self.budgets[tenant] = budget
            self.frontend.register_budget(budget)
        return budget

    async def close(self) -> None:
        await self.frontend.close()
        self.pool.close()


def build(seed: int) -> Stack:
    """Log, two shards with their own ledgers, admission, scheduler."""
    log = HistoryLog()
    ledgers = [CostLedger() for _ in range(N_SHARDS)]

    def service_factory(shard: int) -> TuningService:
        return TuningService(
            store=HistoryStore(log), ledger=ledgers[shard],
            executor="serial", seed=seed + 1000 * (shard + 1),
        )

    pool = ShardPool(N_SHARDS, service_factory)
    frontend = ServiceFrontEnd(
        pool,
        admission=AdmissionController(
            max_pending=MAX_PENDING, per_tenant_inflight=PER_TENANT_INFLIGHT,
        ),
        scheduler=SLOPriorityScheduler(),
    )
    return Stack(frontend=frontend, pool=pool, store=HistoryStore(log),
                 ledgers=ledgers)


def prepopulate(stack: Stack, seed: int, n_records: int = PREPOP_RECORDS,
                per_key: int = PREPOP_RECORDS_PER_KEY) -> None:
    """Append ``n_records`` records of simulated executions to the log.

    Each synthetic tenant owns one (family, input size, cluster) and
    ``per_key`` records drawn from that combination's pool of simulated
    executions. The pool is simulated once here, on a simulator of its
    own, and charged to no ledger: this history predates the run.
    """
    rng = np.random.default_rng([seed, 1])
    simulator = SparkSimulator()
    space = spark_core_space()
    pools: dict[tuple[str, float, int], list] = {}
    for name in families():
        workload = get_workload(name)
        for input_mb in INPUT_SIZES_MB:
            for c in range(len(CLUSTERS)):
                cluster = cluster_of(c)
                configs = [probe_configuration()] + space.sample_configurations(
                    PREPOP_POOL - 1, rng,
                )
                seeds = [int(s) for s in rng.integers(0, 2**31, len(configs))]
                results = simulator.run_batch(
                    workload, input_mb, cluster, configs, seeds=seeds,
                )
                pools[(name, input_mb, c)] = [
                    (config, result, signature(result))
                    for config, result in zip(configs, results)
                ]
    combos = list(pools)
    n_keys = max(1, n_records // per_key)
    written = 0
    for k in range(n_keys):
        name, input_mb, c = combos[k % len(combos)]
        entries = pools[(name, input_mb, c)]
        described = cluster_of(c).describe()
        picks = rng.integers(0, len(entries), per_key)
        for i in picks:
            config, result, sig = entries[int(i)]
            stack.store.record(f"hist-{k:05d}", name, input_mb, described,
                               config, result, sig)
        written += per_key
    stack.prepop_records = written


def _random_search(service: TuningService, seed: int) -> RandomSearchTuner:
    return RandomSearchTuner(service.disc_space, seed=seed)


async def _submit_all(stack: Stack, requests) -> list:
    """Submit set-up requests concurrently, never more than admission holds."""
    outcomes = []
    for i in range(0, len(requests), MAX_PENDING):
        outcomes += await asyncio.gather(*[
            stack.frontend.submit(r) for r in requests[i:i + MAX_PENDING]
        ])
    return outcomes


async def deploy_ingest_tenants(stack: Stack) -> None:
    """Deploy the ``INGEST_TENANTS`` through the front end."""
    requests = []
    for i, (name, input_mb) in enumerate(INGEST_TENANTS):
        tenant = f"ingest-{name}-{int(input_mb)}"
        stack.budget(tenant)
        requests.append(TuneRequest(
            tenant=tenant, workload=get_workload(name),
            input_mb=input_mb, slo=SLO, cluster=cluster_of(i),
            disc_budget=SETUP_DISC_BUDGET, tuner_factory=_random_search,
        ))
    outcomes = await _submit_all(stack, requests)
    for outcome in outcomes:
        if not outcome.accepted:
            raise RuntimeError(
                f"set-up deployment of {outcome.tenant} refused: {outcome.reason}"
            )
        stack.deployments.append(outcome.deployment)
        stack.setup_requests += 1
        stack.setup_tune_evals += outcome.deployment.tuning_evaluations


async def warm_up(stack: Stack) -> None:
    """Sync the signature index and run one small batch per ingest tenant."""
    stack.store.index().sync()
    outcomes = await _submit_all(stack, [
        RunBatchRequest(tenant=d.tenant, deployment=d, input_mb=d.input_mb,
                        n_runs=WARM_UP_RUNS)
        for d in stack.deployments
    ])
    for outcome in outcomes:
        if not outcome.accepted:
            raise RuntimeError(f"warm-up batch refused: {outcome.reason}")
        stack.setup_requests += 1
        stack.setup_runs += outcome.runs_submitted


async def set_up() -> Stack:
    """Build, pre-populate, deploy and warm one stack."""
    stack = build(SETUP_SEED)
    prepopulate(stack, SETUP_SEED)
    await deploy_ingest_tenants(stack)
    await warm_up(stack)
    return stack
