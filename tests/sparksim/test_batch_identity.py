"""Property tests: the simulator is bit-identical to the scalar reference.

The simulator's one path (plan cache, fused ``(stages, candidates)``
cost program, stage-outer scheduling walk) is an optimisation, not an
approximation: every :class:`ExecutionResult` it produces must equal,
field for field, what the readable scalar model in
:mod:`tests.sparksim.reference` returns for the same (config, env,
seed), and a batch must equal the same candidates run one at a time.
These tests drive the contract across workloads, seeds, environments,
batch sizes, fault plans, and candidate mixes that include
cluster-manager rejections and OOM-failing configurations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cluster
from repro.cloud.interference import NOISY, QUIET, TYPICAL
from repro.config.spark_params import spark_space
from repro.sparksim import SparkSimulator
from repro.sparksim.faults import (
    FaultPlan,
    env_spike,
    executor_loss,
    oom_kill,
    straggler,
)
from repro.workloads import KMeans, Sort, Wordcount

from .reference import simulate

CLUSTER = Cluster.of("m5.2xlarge", 4)
SPACE = spark_space()
ENVS = (QUIET, TYPICAL, NOISY)
WORKLOADS = (
    (Sort(), 1024.0),
    (Wordcount(), 768.0),
    (KMeans(), 512.0),
)
PLANS = (
    None,
    FaultPlan(),                      # a plan with no specs never fires
    FaultPlan((executor_loss(0.5, fraction=0.4, span=2),
               straggler(0.4, slowdown=4.0, span=2))),
    FaultPlan((oom_kill(0.5, span=2), env_spike(0.4, multiplier=2.0))),
)

#: forces the cluster-manager rejection path: no node fits the container
REJECT = {"spark.executor.memory": 262144}
#: forces the OOM path: minimal per-task execution memory (512 MiB heap
#: split across 8 concurrent tasks leaves less than the 32 MiB floor),
#: so a task's working set cannot even spill
OOM = {
    "spark.executor.memory": 512,
    "spark.executor.cores": 8,
    "spark.task.cpus": 1,
    "spark.executor.instances": 4,
    "spark.memory.fraction": 0.3,
    "spark.memory.storageFraction": 0.9,
    "spark.memory.offHeap.enabled": False,
    "spark.memory.offHeap.size": 0,
    "spark.default.parallelism": 8,
}


def _candidates(rng, n, include_failures):
    configs = [SPACE.sample_configuration(rng) for _ in range(n)]
    if include_failures and n >= 2:
        configs[-1] = configs[-1].replace(**REJECT)
        configs[-2] = configs[-2].replace(**OOM)
    return configs


def _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds):
    """``run_batch`` equals the scalar reference walk and N batches of one."""
    batch = sim.run_batch(workload, input_mb, CLUSTER, configs,
                          envs=envs, seeds=seeds)
    jobs = workload.jobs(input_mb)
    reference = [
        simulate(sim, workload.name, input_mb, jobs, CLUSTER, c, env=e, seed=s)
        for c, e, s in zip(configs, envs, seeds)
    ]
    singles = [
        sim.run_batch(workload, input_mb, CLUSTER, [c], envs=[e], seeds=[s])[0]
        for c, e, s in zip(configs, envs, seeds)
    ]
    assert batch == reference
    assert singles == reference
    return batch


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    st.integers(min_value=0, max_value=len(PLANS) - 1),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
def test_run_batch_matches_scalar_loop(w_idx, plan_idx, batch_size, seed,
                                       include_failures):
    workload, input_mb = WORKLOADS[w_idx]
    rng = np.random.default_rng(seed)
    configs = _candidates(rng, batch_size, include_failures)
    envs = [ENVS[i % len(ENVS)] for i in range(batch_size)]
    seeds = [seed + 17 * i for i in range(batch_size)]
    sim = SparkSimulator(fault_plan=PLANS[plan_idx])
    _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds)


def test_failure_paths_are_exercised_and_identical():
    """The deterministic mix really hits reject, OOM, and fault aborts."""
    rng = np.random.default_rng(7)
    configs = _candidates(rng, 6, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(6)]
    seeds = list(range(6))
    sim = SparkSimulator(fault_plan=FaultPlan((straggler(1.0, slowdown=3.0),)))
    batch = _assert_batch_identity(sim, Sort(), 1024.0, configs, envs, seeds)

    reasons = [r.failure_reason for r in batch if not r.success]
    assert any("does not fit" in (m or "") for m in reasons), reasons
    assert any("OOM in stage" in (m or "") for m in reasons), reasons
    assert any(r.faults_injected for r in batch)


def test_noise_off_batch_identity():
    rng = np.random.default_rng(3)
    configs = _candidates(rng, 5, include_failures=True)
    sim = SparkSimulator(noise=False)
    _assert_batch_identity(sim, Sort(), 1024.0, configs,
                           [QUIET] * 5, [0] * 5)


def test_large_batch_identity():
    """The joint (stages x candidates) program holds at production widths.

    512 candidates is past every chunking/vectorization threshold in the
    batch path (plan arrays, pooled seeding, fused cost sweep), so this
    is the regime where a broadcasting or accumulation-order bug would
    surface; includes reject/OOM rows and repeated seeds.
    """
    n = 512
    rng = np.random.default_rng(21)
    configs = _candidates(rng, n, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(n)]
    seeds = [(31 * i) % 97 for i in range(n)]       # many duplicate streams
    sim = SparkSimulator()
    _assert_batch_identity(sim, Sort(), 1024.0, configs, envs, seeds)


def test_mixed_envs_and_duplicate_seeds():
    """Candidates sharing a seed under different envs stay independent."""
    rng = np.random.default_rng(13)
    configs = _candidates(rng, 9, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(9)]
    seeds = [5, 5, 5, 2**63 - 1, 0, 0, 7, 5, 2**63 - 1]
    for workload, input_mb in WORKLOADS:
        sim = SparkSimulator()
        _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds)


def test_batch_of_one_and_empty():
    rng = np.random.default_rng(4)
    (config,) = _candidates(rng, 1, include_failures=False)
    sim = SparkSimulator()
    assert sim.run_batch(Sort(), 512.0, CLUSTER, []) == []
    (result,) = _assert_batch_identity(sim, Sort(), 512.0, [config],
                                       [TYPICAL], [9])
    assert sim.run(Sort(), 512.0, CLUSTER, config, env=TYPICAL,
                   seed=9) == result
    assert sim.run_jobs("sort", 512.0, Sort().jobs(512.0), CLUSTER, config,
                        env=TYPICAL, seed=9) == result


#: every simulated fault kind, each likely enough that a short seed scan
#: finds a run struck by it alone; span 2 lets stage faults miss stage 0
ALL_KINDS = FaultPlan((
    oom_kill(0.2, span=2),
    straggler(0.2, slowdown=3.0, span=2),
    executor_loss(0.2, fraction=0.5, span=2),
    env_spike(0.2, multiplier=2.0),
))


def _seed_struck_by(plan, kind, taken):
    """The first unused seed whose draw fires ``kind`` and nothing else
    (``None`` fires nothing)."""
    for seed in range(10_000):
        if seed in taken:
            continue
        d = plan.draw(seed)
        fired = {
            "oom_kill": d.oom_stage >= 0,
            "straggler": d.straggler_stage >= 0,
            "executor_loss": d.loss_stage >= 0,
            "env_spike": d.env_multiplier > 1.0,
        }
        if {k for k, hit in fired.items() if hit} == ({kind} if kind else set()):
            return seed
    raise AssertionError(f"no seed fires exactly {kind!r}")


def test_one_batch_holds_every_failure_and_fault_kind():
    """A reject, a genuine OOM and one run struck by each simulated fault
    kind, all in one batch, each identical to the reference walk."""
    rng = np.random.default_rng(17)
    kinds = ["oom_kill", "straggler", "executor_loss", "env_spike"]
    configs = [SPACE.sample_configuration(rng).replace(
        **{"spark.executor.instances": 4, "spark.executor.cores": 2,
           "spark.executor.memory": 4096, "spark.default.parallelism": 64})
        for _ in kinds]
    configs += [configs[0].replace(**REJECT), configs[0].replace(**OOM)]
    seeds: list[int] = []
    for kind in kinds + [None, None]:
        seeds.append(_seed_struck_by(ALL_KINDS, kind, seeds))
    envs = [ENVS[i % len(ENVS)] for i in range(len(configs))]
    sim = SparkSimulator(fault_plan=ALL_KINDS)
    batch = _assert_batch_identity(sim, Sort(), 1024.0, configs, envs, seeds)

    for kind, result in zip(kinds, batch):
        tags = [t.split(":")[0] for t in result.faults_injected]
        assert tags == [kind], (kind, result.faults_injected)
    assert batch[0].failure_reason.startswith("fault-injected OOM kill")
    assert all(r.success for r in batch[1:4])
    assert "does not fit" in batch[4].failure_reason
    assert batch[5].failure_reason.startswith("OOM in stage")
    assert not batch[4].faults_injected and not batch[5].faults_injected


#: executor sizing that every test node fits, with 32 slots
WIDE = {"spark.executor.instances": 8, "spark.executor.cores": 4,
        "spark.task.cpus": 1, "spark.executor.memory": 4096,
        "spark.default.parallelism": 160}
#: speculation that fires on most stages
EAGER_SPECULATION = {"spark.speculation": True,
                     "spark.speculation.multiplier": 1.1,
                     "spark.speculation.quantile": 0.5}


def _spy_row_kernel(monkeypatch):
    """Record the ``lengths`` of every ``_list_schedule_rows`` call."""
    from repro.sparksim import scheduler

    calls = []
    kernel = scheduler._list_schedule_rows

    def spy(block, lengths, slots):
        calls.append(list(lengths))
        return kernel(block, lengths, slots)

    monkeypatch.setattr(scheduler, "_list_schedule_rows", spy)
    return calls


def test_ingest_shape_batch_identity(monkeypatch):
    """One speculating config x 40 seeds, the shape of a production
    ingest batch: every stage is one block on the row kernel, with
    ragged speculation extras, and each run equals the reference."""
    calls = _spy_row_kernel(monkeypatch)
    config = SPACE.sample_configuration(np.random.default_rng(23)).replace(
        **WIDE, **EAGER_SPECULATION)
    n = 40
    _assert_batch_identity(SparkSimulator(), Sort(), 1024.0, [config] * n,
                           [TYPICAL] * n, list(range(100, 100 + n)))
    assert any(len(lengths) == n and len(set(lengths)) > 1
               for lengths in calls), "no ragged full-width block ran"


def test_mixed_configs_with_every_fault_kind(monkeypatch):
    """Three configs x 12 seeds under a plan that fires every fault kind:
    OOM-killed rows leave the walk, executor loss splits a row off its
    block onto fewer slots, and every run still equals the reference."""
    calls = _spy_row_kernel(monkeypatch)
    rng = np.random.default_rng(31)
    base = [SPACE.sample_configuration(rng).replace(**WIDE)
            for _ in range(3)]
    base[1] = base[1].replace(**EAGER_SPECULATION)
    configs = [base[i % 3] for i in range(36)]
    envs = [ENVS[i % len(ENVS)] for i in range(36)]
    seeds = [7 * i + 3 for i in range(36)]
    plan = FaultPlan((
        oom_kill(0.25, span=3),
        straggler(0.25, slowdown=3.0, span=3),
        executor_loss(0.3, fraction=0.5, span=3),
        env_spike(0.25, multiplier=2.0),
    ))
    batch = _assert_batch_identity(SparkSimulator(fault_plan=plan), Sort(),
                                   1024.0, configs, envs, seeds)
    kinds = {t.split(":")[0] for r in batch for t in r.faults_injected}
    assert kinds == {"oom_kill", "straggler", "executor_loss", "env_spike"}
    assert calls, "the row kernel never ran"


def test_permuting_candidates_permutes_results():
    # 20 candidates: wide enough for the pooled generator sweep
    n = 20
    rng = np.random.default_rng(29)
    configs = _candidates(rng, n, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(n)]
    seeds = [3 * i + 1 for i in range(n)]
    sim = SparkSimulator(fault_plan=PLANS[3])
    results = sim.run_batch(Sort(), 1024.0, CLUSTER, configs, envs=envs,
                            seeds=seeds)
    order = np.random.default_rng(5).permutation(n).tolist()
    permuted = sim.run_batch(Sort(), 1024.0, CLUSTER,
                             [configs[i] for i in order],
                             envs=[envs[i] for i in order],
                             seeds=[seeds[i] for i in order])
    assert permuted == [results[i] for i in order]


def test_batch_arrays_keep_stable_dtypes():
    """The batch path's internal arrays stay float64/int64/bool end to
    end (the runtime counterpart of staticcheck's RA001): bit-identity
    with the scalar model must not rest on accidental promotion, so a
    column quietly landing in float32 or a platform-dependent int is a
    bug even while the identity tests above still pass on this machine.
    """
    from repro.config.constraints import grant_resources
    from repro.sparksim.costmodel import (
        build_batch_inputs,
        build_plan_arrays,
        compute_plan_cost_batch,
    )
    from repro.sparksim.executor import ExecutorModel

    rng = np.random.default_rng(11)
    configs, grants = [], []
    while len(configs) < 4:      # granted candidates only, like run_batch
        config = SPACE.sample_configuration(rng)
        grant = grant_resources(config, CLUSTER)
        if grant.executors >= 1:
            configs.append(config)
            grants.append(grant)
    executors = [ExecutorModel.from_config(c) for c in configs]
    envs = [ENVS[i % len(ENVS)] for i in range(4)]

    sim = SparkSimulator()
    compiled = sim.compile_workload(Sort(), 1024.0)
    b = build_batch_inputs(configs, CLUSTER, grants, executors, envs)
    plan = build_plan_arrays(compiled)
    cost = compute_plan_cost_batch(plan, b, sim.calibration)

    for name in ("locality_wait", "remote_frac", "flush_base",
                 "fetch_efficiency", "per_block_s", "heap_mb",
                 "unified_mb", "immune_mb", "offheap_mb", "disk_share",
                 "net_share", "env_cpu", "cache_footprint",
                 "cache_read_cpu", "cache_capacity"):
        assert getattr(b, name).dtype == np.float64, name
    for name in ("parallelism", "executors", "requested", "concurrent",
                 "bypass_threshold"):
        assert getattr(b, name).dtype == np.int64, name
    for name in ("shuffle_compress", "spill_compress", "cache_miss_to_disk"):
        assert getattr(b, name).dtype == np.bool_, name

    assert plan.hint.dtype == np.int64
    for name in ("input_mb", "cached_read_mb", "shuffle_read_mb",
                 "shuffle_write_mb", "output_mb_eff", "cpu_s",
                 "unspillable", "collect_mb", "cached_mb",
                 "recompute_cpu", "recompute_io"):
        assert getattr(plan, name).dtype == np.float64, name
    for name in ("has_input", "has_cached", "has_shuffle_read",
                 "has_shuffle_write", "has_output"):
        assert getattr(plan, name).dtype == np.bool_, name

    assert cost.num_tasks.dtype == np.int64
    assert cost.oom.dtype == np.bool_
    for name in ("cpu_s", "disk_s", "net_s", "gc_s", "idle_s", "total_s",
                 "driver_s", "spilled_mb", "spill_mb_total",
                 "working_set_mb", "execution_mb"):
        assert getattr(cost, name).dtype == np.float64, name


def test_histories_identical_under_engine_batching():
    """End to end: identical observation histories through the engine."""
    from repro.engine import EngineObjective, EvaluationEngine
    from repro.engine.executors import SerialExecutor
    from repro.tuning import RandomSearchTuner, run_tuner_batched

    def campaign(simulator, executor):
        with EvaluationEngine(simulator=simulator, executor=executor) as eng:
            objective = EngineObjective(eng, Sort(), 1024.0, cluster=CLUSTER,
                                        repair=True, seed=5)
            return run_tuner_batched(
                RandomSearchTuner(spark_space(), seed=11), objective,
                budget=24, batch_size=8,
            )

    sim_a = SparkSimulator()
    batched = campaign(sim_a, SerialExecutor(sim_a, group_batches=True))
    sim_b = SparkSimulator()
    scalar = campaign(sim_b, SerialExecutor(sim_b, group_batches=False))
    assert [o.cost for o in batched.history] == \
           [o.cost for o in scalar.history]
    assert [o.config for o in batched.history] == \
           [o.config for o in scalar.history]
