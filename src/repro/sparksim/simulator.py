"""The Spark application simulator.

Executes a workload (a sequence of jobs over RDD lineages) on a virtual
cluster under a given configuration and interference environment,
producing an :class:`~repro.sparksim.metrics.ExecutionResult` with
Spark-style per-stage metrics.

The execution pipeline mirrors Fig. 2 of the paper: jobs are compiled to
stage DAGs (:mod:`repro.sparksim.dag`), stages run in topological order,
each stage's tasks are costed analytically
(:mod:`repro.sparksim.costmodel`) and scheduled onto granted executor
slots (:mod:`repro.sparksim.scheduler`).  Configurations that do not fit
the cluster fail fast; tasks whose working set cannot even spill OOM and
fail the application after retries — both produce the expensive crash
behaviour Section IV of the paper describes.

:meth:`SparkSimulator.run`, :meth:`~SparkSimulator.run_jobs` and
:meth:`~SparkSimulator.run_batch` share one simulation path, which
handles a single candidate as a batch of one:

* a **compiled-plan cache**: the stage DAG and the cache-registry
  evolution are config-independent, so each ``(workload, input_mb,
  job-list fingerprint)`` compiles once and every candidate evaluation
  replays the immutable :class:`~repro.sparksim.dag.CompiledWorkload`
  — optionally backed by a cross-process on-disk
  :class:`~repro.sparksim.planstore.PlanStore` so pool workers never
  recompile plans the parent already built;
* a **joint cost program** that costs *all stages for all candidates*
  in one fused ``(stages, candidates)`` numpy sweep
  (:func:`~repro.sparksim.costmodel.compute_plan_cost_batch` over cached
  :class:`~repro.sparksim.costmodel.PlanArrays`);
* one **stage-outer scheduling walk**: each stage runs once for every
  live candidate, grouped into rectangular ``(candidates, tasks)``
  blocks by ``(n_tasks, slots, speculation params)``
  (:func:`~repro.sparksim.scheduler.schedule_stage_rows`).  Each
  candidate draws its task noise on its own generator, pre-seeded by
  one vectorized sweep (:mod:`repro.sparksim.rngpool`); speculation,
  the list schedule and the task statistics run along axis 1 of the
  block.  Injected faults are per-candidate masks on this walk.

Results depend only on each candidate's (config, env, seed): every
generator sees its own stages in plan order whatever the walk's order
across candidates, so a batch equals the same candidates run one at a
time, in any order.  The test suite pins every field against a
readable scalar reference model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, Environment
from ..config.constraints import grant_resources
from .costmodel import (
    Calibration,
    PlanArrays,
    build_batch_inputs,
    build_plan_arrays,
    compute_plan_cost_batch,
)
from .dag import CompiledWorkload, compile_workload, fingerprint_jobs
from .executor import ExecutorModel
from .faults import NO_FAULTS, FaultPlan
from .metrics import ExecutionResult, StageMetrics
from .rngpool import GeneratorPool
from .scheduler import schedule_stage_rows, speculation_of

if TYPE_CHECKING:
    from ..config.constraints import ResourceGrant
    from ..workloads.base import Workload
    from .faults import FaultDraw
    from .planstore import PlanStore
    from .rdd import Job

__all__ = ["SparkSimulator"]

#: wall-clock consumed before the cluster manager rejects an unsatisfiable
#: resource request (container negotiation + timeout)
_REJECT_S = 25.0

#: failed task attempts before Spark aborts the stage and the application
_MAX_ATTEMPTS = 4


class SparkSimulator:
    """Simulates Spark application executions.

    Parameters
    ----------
    calibration:
        Cost-model constants; override for ablation studies.
    noise:
        When ``False``, task durations are deterministic (useful for
        model unit tests); benches keep it ``True``.
    fault_plan:
        Optional :class:`~repro.sparksim.faults.FaultPlan`; faults are
        drawn deterministically from each run's seed (never from the
        noise stream), so injected scenarios are reproducible and a
        non-firing plan leaves results bit-identical to no plan.
    plan_cache_size:
        Number of compiled workload plans kept (LRU); 0 disables plan
        caching and recompiles on every run (the throughput benchmark
        uses this to measure the cache's contribution).  Plans are
        immutable and config-independent; the cache only trades memory
        for re-compilation time, never changes results.
    plan_store:
        Optional :class:`~repro.sparksim.planstore.PlanStore` — a
        shared on-disk tier below the content cache.  Content-tier
        misses consult the store before compiling and publish fresh
        plans to it, so processes sharing a store directory (a pool
        parent and its workers) compile each plan once, cluster-wide.
    """

    def __init__(self, calibration: Calibration | None = None, noise: bool = True,
                 fault_plan: FaultPlan | None = None, plan_cache_size: int = 64,
                 plan_store: "PlanStore | None" = None):
        self.calibration = calibration or Calibration()
        self.noise = noise
        self.fault_plan = fault_plan
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.plan_cache_size = plan_cache_size
        self.plan_store = plan_store
        # Identity tier: (id(workload), input_mb) -> (workload, compiled).
        # Holding the workload object strongly pins its id, so a hit is
        # guaranteed to be the same object (ids are only reused after
        # collection).  Content tier: (name, input_mb, fingerprint) ->
        # compiled, so equal-content workload *objects* share one plan
        # while same-named workloads with different job lists never
        # collide (the fingerprint is part of the key).
        self._plan_cache_by_id: OrderedDict = OrderedDict()
        self._plan_cache_by_content: OrderedDict = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Joint-program cache: id(compiled) -> (compiled, PlanArrays).
        # Holding the compiled plan strongly pins its id, like the plan
        # cache's identity tier.
        self._plan_arrays_cache: OrderedDict = OrderedDict()
        # Pooled per-candidate noise generators, re-seeded for every call.
        self._rng_pool = GeneratorPool()

    # --- plan cache -------------------------------------------------------
    def compile_workload(self, workload: Workload,
                         input_mb: float) -> CompiledWorkload:
        """Return the (cached) compiled plan for ``workload`` at ``input_mb``.

        Assumes ``workload.jobs()`` is pure (same object, same job list)
        — true for every workload in :mod:`repro.workloads`.  Distinct
        objects fall through to a content fingerprint, so two same-named
        workloads with different job lists get distinct plans.
        """
        if self.plan_cache_size == 0:
            self.plan_cache_misses += 1
            return compile_workload(
                workload.name, input_mb, workload.jobs(input_mb),
            )
        id_key = (id(workload), float(input_mb))
        hit = self._plan_cache_by_id.get(id_key)
        if hit is not None and hit[0] is workload:
            self._plan_cache_by_id.move_to_end(id_key)
            self.plan_cache_hits += 1
            return hit[1]
        jobs = workload.jobs(input_mb)
        fingerprint = fingerprint_jobs(jobs)
        content_key = (workload.name, float(input_mb), fingerprint)
        compiled = self._plan_cache_by_content.get(content_key)
        if compiled is not None:
            self._plan_cache_by_content.move_to_end(content_key)
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
            # Disk tier: another process (typically the pool parent) may
            # already have compiled this exact content key.
            stored = (
                self.plan_store.get(workload.name, input_mb, fingerprint)
                if self.plan_store is not None else None
            )
            if stored is not None:
                compiled = stored
            else:
                compiled = compile_workload(
                    workload.name, input_mb, jobs, fingerprint=fingerprint,
                )
                if self.plan_store is not None:
                    self.plan_store.put(
                        workload.name, input_mb, fingerprint, compiled,
                    )
            self._plan_cache_by_content[content_key] = compiled
            while len(self._plan_cache_by_content) > self.plan_cache_size:
                self._plan_cache_by_content.popitem(last=False)
        self._plan_cache_by_id[id_key] = (workload, compiled)
        while len(self._plan_cache_by_id) > self.plan_cache_size:
            self._plan_cache_by_id.popitem(last=False)
        return compiled

    # --- public entry points ---------------------------------------------
    def run(self, workload: Workload, input_mb: float, cluster: Cluster,
            config: Mapping[str, Any],
            env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute ``workload`` at ``input_mb`` scale and return metrics."""
        compiled = self.compile_workload(workload, input_mb)
        return self._simulate(compiled, self._plan_program(compiled), cluster,
                              [config], [env], [seed])[0]

    def run_jobs(self, name: str, input_mb: float, jobs: Sequence[Job],
                 cluster: Cluster, config: Mapping[str, Any],
                 env: Environment = QUIET, seed: int = 0) -> ExecutionResult:
        """Execute an explicit job list (compiled fresh, uncached)."""
        compiled = compile_workload(name, input_mb, jobs)
        return self._simulate(compiled, build_plan_arrays(compiled), cluster,
                              [config], [env], [seed])[0]

    def run_batch(self, workload: Workload, input_mb: float, cluster: Cluster,
                  configs: Sequence[Mapping[str, Any]],
                  envs: Sequence[Environment] | None = None,
                  seeds: Sequence[int] | None = None) -> list[ExecutionResult]:
        """Evaluate many configurations of one workload; bit-identical to
        ``[self.run(workload, input_mb, cluster, c, env=e, seed=s) ...]``.

        ``envs``/``seeds`` default to ``QUIET``/``0`` for every candidate
        (matching :meth:`run`'s defaults).
        """
        configs = list(configs)
        n = len(configs)
        envs = [QUIET] * n if envs is None else list(envs)
        seeds = [0] * n if seeds is None else list(seeds)
        if len(envs) != n or len(seeds) != n:
            raise ValueError("configs, envs and seeds must have equal length")
        if n == 0:
            return []
        compiled = self.compile_workload(workload, input_mb)
        return self._simulate(compiled, self._plan_program(compiled), cluster,
                              configs, envs, seeds)

    def _plan_program(self, compiled: CompiledWorkload) -> PlanArrays:
        """The (cached) joint-program columns for ``compiled``.

        Keyed by plan identity like the plan cache's id tier; plans are
        immutable, so the derived arrays are too.
        """
        if self.plan_cache_size == 0:
            return build_plan_arrays(compiled)
        key = id(compiled)
        hit = self._plan_arrays_cache.get(key)
        if hit is not None and hit[0] is compiled:
            self._plan_arrays_cache.move_to_end(key)
            return hit[1]
        arrays = build_plan_arrays(compiled)
        self._plan_arrays_cache[key] = (compiled, arrays)
        while len(self._plan_arrays_cache) > self.plan_cache_size:
            self._plan_arrays_cache.popitem(last=False)
        return arrays

    def _simulate(self, compiled: CompiledWorkload, plan: PlanArrays,
                  cluster: Cluster, configs: Sequence[Mapping[str, Any]],
                  envs: Sequence[Environment],
                  seeds: Sequence[int]) -> list[ExecutionResult]:
        """The one simulation path, for any number of candidates.

        1. Screen each candidate: draw its faults from their own
           ``(salt, seed)`` stream, apply an ``env_spike`` to its
           environment, and answer a rejected resource request at once,
           before any noise draw.
        2. Cost every granted candidate in one fused ``(stages,
           candidates)`` sweep of :func:`compute_plan_cost_batch`.
        3. Walk the stages in plan order, each for every live candidate
           at once, on each candidate's own noise generator.  Injected
           ``oom_kill``, ``straggler`` and ``executor_loss`` faults
           strike at their stage ordinal, which is the plan row: an
           OOM'd row leaves the walk, and lost executors shrink the
           row's slots for later stages.
        """
        calib = self.calibration
        results: list[ExecutionResult | None] = [None] * len(configs)
        granted: list[int] = []
        grants: list[ResourceGrant] = []
        draws: list[FaultDraw] = []
        run_envs: list[Environment] = []
        for i, config in enumerate(configs):
            faults = (
                self.fault_plan.draw(seeds[i]) if self.fault_plan is not None
                else NO_FAULTS
            )
            env = faults.spike_env(envs[i])
            grant = grant_resources(config, cluster)
            if grant.executors < 1:
                results[i] = ExecutionResult(
                    workload=compiled.name, input_mb=compiled.input_mb,
                    runtime_s=_REJECT_S, success=False, executors_granted=0,
                    executors_requested=grant.requested_executors,
                    failure_reason="executor container does not fit any node",
                    environment_factor=env.combined(),
                    faults_injected=_spike_tags(faults),
                )
                continue
            granted.append(i)
            grants.append(grant)
            draws.append(faults)
            run_envs.append(env)
        if not granted:
            return results  # type: ignore[return-value]

        cfgs = [configs[i] for i in granted]
        b = build_batch_inputs(cfgs, cluster, grants,
                               [ExecutorModel.from_config(c) for c in cfgs],
                               run_envs)
        cost = compute_plan_cost_batch(plan, b, calib)
        rngs = self._rng_pool.generators([seeds[i] for i in granted])

        # One bulk unbox per array instead of a numpy scalar lookup per
        # field per candidate per stage; tolist() yields the same Python
        # floats/ints bit for bit.
        slots_l = np.maximum(1, b.executors * b.concurrent).tolist()
        startup_l = (
            calib.app_startup_base_s
            + calib.app_startup_per_executor_s * b.executors
        ).tolist()
        execs_l = b.executors.tolist()
        concurrent_l = b.concurrent.tolist()
        req_l = b.requested.tolist()
        ntasks_ll = cost.num_tasks.tolist()
        total_ll = cost.total_s.tolist()
        driver_ll = cost.driver_s.tolist()
        oom_ll = cost.oom.tolist()
        cpu_ll = cost.cpu_s.tolist()
        gc_ll = cost.gc_s.tolist()
        disk_ll = cost.disk_s.tolist()
        net_ll = cost.net_s.tolist()
        spill_ll = cost.spill_mb_total.tolist()

        noise = self.noise
        stage_ids = plan.stage_ids
        names = plan.names
        submits = plan.job_submits_before
        sigma = calib.run_noise_sigma
        job_submit_s = calib.job_submit_s

        # Per-row walk state; row k is granted candidate k.
        runtime = startup_l
        injected = [list(_spike_tags(faults)) for faults in draws]
        stages: list[list[StageMetrics]] = [[] for _ in granted]
        speculation = [speculation_of(c) for c in cfgs]
        live: Sequence[int] = range(len(granted))
        for s in range(plan.n_stages):
            # Rows that run stage s, grouped into rectangular blocks.
            groups: dict[tuple, list[int]] = {}
            for k in live:
                for _ in range(submits[s]):
                    runtime[k] += job_submit_s
                killed = s == draws[k].oom_stage
                if not (killed or oom_ll[s][k]):
                    groups.setdefault(
                        (ntasks_ll[s][k], slots_l[k], speculation[k]), [],
                    ).append(k)
                    continue
                # Retries then application abort: an injected container
                # kill has the same expensive crash shape as a real OOM.
                # The row leaves the walk.
                wasted = total_ll[s][k] * _MAX_ATTEMPTS + driver_ll[s][k]
                runtime[k] += wasted
                stages[k].append(StageMetrics(
                    stage_id=stage_ids[s], name=names[s],
                    num_tasks=ntasks_ll[s][k], duration_s=wasted,
                    input_mb=plan.input_mb_l[s],
                    cached_read_mb=plan.cached_read_mb_l[s],
                    shuffle_read_mb=plan.shuffle_read_mb_l[s],
                    shuffle_write_mb=plan.shuffle_write_mb_l[s],
                    spill_mb=0.0, cpu_time_s=0.0, gc_time_s=0.0,
                    io_time_s=0.0, net_time_s=0.0, failed=True,
                ))
                if killed:
                    injected[k].append(f"oom_kill:stage{s}")
                    reason = (
                        f"fault-injected OOM kill in stage "
                        f"{stage_ids[s]} ({names[s]})"
                    )
                else:
                    reason = _oom_reason(
                        stage_ids[s], names[s],
                        float(cost.working_set_mb[s, k]),
                        float(cost.execution_mb[s, k]),
                    )
                results[granted[k]] = ExecutionResult(
                    workload=compiled.name, input_mb=compiled.input_mb,
                    runtime_s=runtime[k], success=False, stages=stages[k],
                    executors_granted=execs_l[k],
                    executors_requested=req_l[k],
                    total_slots=slots_l[k],
                    failure_reason=reason,
                    environment_factor=run_envs[k].combined(),
                    faults_injected=tuple(injected[k]),
                )
            live = [k for ks in groups.values() for k in ks]

            for (n_tasks, slots, spec), ks in groups.items():
                makespans, task_metrics, _, _ = schedule_stage_rows(
                    n_tasks, [total_ll[s][k] for k in ks], slots, spec,
                    [rngs[k] for k in ks], calib, noise,
                )
                for k, schedule_s, metrics in zip(ks, makespans,
                                                  task_metrics):
                    faults = draws[k]
                    makespan = schedule_s
                    if s == faults.straggler_stage:
                        makespan *= faults.straggler_factor
                        injected[k].append(
                            f"straggler:stage{s}:x{faults.straggler_factor:g}"
                        )
                    if s == faults.loss_stage and faults.loss_fraction > 0.0:
                        # In-flight work on the lost executors re-runs, and
                        # every later stage schedules onto the surviving
                        # slots only.
                        makespan += schedule_s * faults.loss_fraction
                        executors = execs_l[k]
                        lost = min(
                            executors - 1,
                            max(1, round(executors * faults.loss_fraction)),
                        )
                        if lost > 0:
                            slots_l[k] = max(
                                1, (executors - lost) * concurrent_l[k],
                            )
                        injected[k].append(f"executor_loss:stage{s}:{lost}")
                    elapsed = makespan + driver_ll[s][k]
                    runtime[k] += elapsed
                    stages[k].append(StageMetrics(
                        stage_id=stage_ids[s],
                        name=names[s],
                        num_tasks=n_tasks,
                        duration_s=elapsed,
                        input_mb=plan.input_mb_l[s],
                        cached_read_mb=plan.cached_read_mb_l[s],
                        shuffle_read_mb=plan.shuffle_read_mb_l[s],
                        shuffle_write_mb=plan.shuffle_write_mb_l[s],
                        spill_mb=spill_ll[s][k],
                        cpu_time_s=cpu_ll[s][k] * n_tasks,
                        gc_time_s=gc_ll[s][k] * n_tasks,
                        io_time_s=disk_ll[s][k] * n_tasks,
                        net_time_s=net_ll[s][k] * n_tasks,
                        task_metrics=metrics,
                        output_mb=plan.out_mb[s],
                        writes_output=plan.writes_output[s],
                    ))

        for k in live:  # every stage ran: the application succeeded
            for _ in range(plan.trailing_job_submits):
                runtime[k] += job_submit_s
            if noise:
                runtime[k] *= float(
                    rngs[k].lognormal(mean=-0.5 * sigma**2, sigma=sigma)
                )
            results[granted[k]] = ExecutionResult(
                workload=compiled.name, input_mb=compiled.input_mb,
                runtime_s=runtime[k], success=True, stages=stages[k],
                executors_granted=execs_l[k],
                executors_requested=req_l[k],
                total_slots=slots_l[k],
                environment_factor=run_envs[k].combined(),
                faults_injected=tuple(injected[k]),
            )
        # every index is either rejected at screening or walked above
        return results  # type: ignore[return-value]


def _spike_tags(faults: FaultDraw) -> tuple[str, ...]:
    """The audit tag of an ``env_spike``, which strikes before any stage."""
    if faults.env_multiplier > 1.0:
        return (f"env_spike:x{faults.env_multiplier:g}",)
    return ()


def _oom_reason(stage_id: int, name: str, working_set_mb: float,
                execution_mb: float) -> str:
    return (
        f"OOM in stage {stage_id} ({name}): task working set "
        f"{working_set_mb:.0f}MB cannot fit or spill within "
        f"{execution_mb:.0f}MB of executor execution memory per task"
    )
