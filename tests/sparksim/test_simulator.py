"""Integration tests for the end-to-end Spark simulator.

These assert the *directional* behaviours the tuning literature measures:
more resources help, bad memory sizing spills or crashes, caching helps
iterative workloads, compression trades CPU for bytes.
"""

import pytest

from repro.cloud import Cluster, NOISY, QUIET
from repro.config import SPARK_DEFAULTS, Configuration, spark_space
from repro.sparksim import SparkSimulator
from repro.workloads import KMeans, PageRank, Sort, Wordcount


def _config(**overrides):
    cfg = dict(SPARK_DEFAULTS)
    cfg.update(overrides)
    return Configuration(cfg)


GOOD = _config(**{
    "spark.executor.instances": 8,
    "spark.executor.cores": 8,
    "spark.executor.memory": 24576,
    "spark.default.parallelism": 256,
    "spark.serializer": "kryo",
})


class TestBasicExecution:
    def test_successful_run_has_metrics(self, cluster, simulator):
        r = simulator.run(Wordcount(), 5000, cluster, GOOD, seed=1)
        assert r.success
        assert r.runtime_s > 0
        assert r.num_stages == 2
        assert r.total_input_mb > 0
        assert all(s.num_tasks >= 1 for s in r.stages)

    def test_deterministic_given_seed(self, cluster, simulator):
        a = simulator.run(Sort(), 5000, cluster, GOOD, seed=7)
        b = simulator.run(Sort(), 5000, cluster, GOOD, seed=7)
        assert a.runtime_s == b.runtime_s

    def test_different_seeds_differ(self, cluster, simulator):
        a = simulator.run(Sort(), 5000, cluster, GOOD, seed=1)
        b = simulator.run(Sort(), 5000, cluster, GOOD, seed=2)
        assert a.runtime_s != b.runtime_s

    def test_noise_off_removes_run_variance(self, cluster, quiet_simulator):
        a = quiet_simulator.run(Sort(), 5000, cluster, GOOD, seed=1)
        b = quiet_simulator.run(Sort(), 5000, cluster, GOOD, seed=2)
        assert a.runtime_s == pytest.approx(b.runtime_s)

    def test_runtime_grows_with_input(self, cluster, simulator):
        small = simulator.run(Wordcount(), 5_000, cluster, GOOD, seed=1)
        big = simulator.run(Wordcount(), 50_000, cluster, GOOD, seed=1)
        assert big.runtime_s > 2 * small.runtime_s


class TestResourceSensitivity:
    def test_more_slots_faster(self, cluster, quiet_simulator):
        one = quiet_simulator.run(Sort(), 10_000, cluster, _config(**{
            "spark.executor.instances": 2, "spark.executor.cores": 2,
            "spark.executor.memory": 8192, "spark.default.parallelism": 128,
        }))
        many = quiet_simulator.run(Sort(), 10_000, cluster, _config(**{
            "spark.executor.instances": 16, "spark.executor.cores": 4,
            "spark.executor.memory": 8192, "spark.default.parallelism": 128,
        }))
        assert many.runtime_s < one.runtime_s

    def test_default_config_much_slower_than_tuned(self, cluster, simulator):
        # The 10-89x claims: default requests 2 executors x 1 core.
        default = simulator.run(PageRank(), 5_000, cluster,
                                Configuration(SPARK_DEFAULTS), seed=1)
        tuned = simulator.run(PageRank(), 5_000, cluster, GOOD, seed=1)
        assert default.effective_runtime() > 5 * tuned.effective_runtime()

    def test_bigger_cluster_faster(self, simulator):
        small = Cluster.of("h1.4xlarge", 2)
        big = Cluster.of("h1.4xlarge", 8)
        cfg = GOOD.replace(**{"spark.executor.instances": 32})
        a = simulator.run(Sort(), 20_000, small, cfg, seed=3)
        b = simulator.run(Sort(), 20_000, big, cfg, seed=3)
        assert b.runtime_s < a.runtime_s


class TestFailureModes:
    def test_unsatisfiable_request_fails_fast(self, cluster, simulator):
        cfg = _config(**{"spark.executor.memory": 65536,
                         "spark.executor.memoryOverheadFactor": 0.2})
        r = simulator.run(Wordcount(), 1000, cluster, cfg)
        assert not r.success
        assert r.executors_granted == 0
        assert "does not fit" in r.failure_reason

    def test_oom_on_starved_executors(self, cluster, simulator):
        # Big shuffle partitions + tiny heap + many concurrent tasks = OOM.
        cfg = _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 8,
            "spark.executor.memory": 1024, "spark.default.parallelism": 8,
            "spark.memory.fraction": 0.3,
        })
        r = simulator.run(Sort(), 50_000, cluster, cfg)
        assert not r.success
        assert "OOM" in r.failure_reason
        assert any(s.failed for s in r.stages)

    def test_oom_reports_working_set_and_execution_memory(self, cluster,
                                                          simulator):
        """The OOM message names the task's working set and the per-task
        execution memory it failed to fit, not a spill volume (which is
        zero by definition when a task OOMs)."""
        import re

        pattern = re.compile(r"task working set (\d+)MB cannot fit or spill "
                             r"within (\d+)MB of executor execution memory")
        numbers = []
        for input_mb in (51_200, 204_800):
            r = simulator.run(Sort(), input_mb, cluster, _config(), seed=1)
            assert not r.success
            match = pattern.search(r.failure_reason)
            assert match, r.failure_reason
            numbers.append((int(match.group(1)), int(match.group(2))))
        (small_ws, small_mem), (large_ws, large_mem) = numbers
        assert small_ws > 0 and small_mem > 0
        assert large_ws > small_ws > small_mem
        assert large_mem == small_mem     # same config, same executor memory

    def test_failure_penalty_floor(self, cluster, simulator):
        cfg = _config(**{"spark.executor.memory": 65536})
        r = simulator.run(Wordcount(), 1000, cluster, cfg)
        assert r.effective_runtime() >= 3600.0
        assert r.effective_runtime(failure_floor_s=100.0) < 3600.0


class TestMemoryBehaviour:
    def test_spill_with_coarse_partitions(self, cluster, quiet_simulator):
        # 50 GB shuffle over 16 partitions = ~3 GB/task working sets.
        spilling = quiet_simulator.run(Sort(), 50_000, cluster, _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 4,
            "spark.executor.memory": 8192, "spark.default.parallelism": 16,
        }))
        fine = quiet_simulator.run(Sort(), 50_000, cluster, _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 4,
            "spark.executor.memory": 8192, "spark.default.parallelism": 512,
        }))
        assert spilling.total_spill_mb > 0
        assert fine.total_spill_mb == 0
        assert fine.runtime_s < spilling.runtime_s

    def test_caching_pays_off_for_iterative(self, cluster, quiet_simulator):
        # KMeans re-scans its point set; more memory -> cache fits -> faster.
        small_mem = quiet_simulator.run(KMeans(), 30_000, cluster, _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 4,
            "spark.executor.memory": 2048, "spark.default.parallelism": 256,
        }))
        big_mem = quiet_simulator.run(KMeans(), 30_000, cluster, _config(**{
            "spark.executor.instances": 8, "spark.executor.cores": 4,
            "spark.executor.memory": 24576, "spark.default.parallelism": 256,
        }))
        assert big_mem.runtime_s < small_mem.runtime_s

    def test_cached_reads_recorded(self, cluster, simulator):
        r = simulator.run(PageRank(iterations=2), 3000, cluster, GOOD, seed=1)
        assert sum(s.cached_read_mb for s in r.stages) > 0


class TestEnvironment:
    def test_interference_slows_execution(self, cluster, quiet_simulator):
        calm = quiet_simulator.run(Sort(), 20_000, cluster, GOOD, env=QUIET)
        noisy = quiet_simulator.run(Sort(), 20_000, cluster, GOOD, env=NOISY)
        assert noisy.runtime_s > calm.runtime_s
        assert noisy.environment_factor > 1.0


class TestConfigKnobs:
    def test_kryo_beats_java_on_shuffle_heavy(self, cluster, quiet_simulator):
        java = quiet_simulator.run(Sort(), 30_000, cluster,
                                   GOOD.replace(**{"spark.serializer": "java"}))
        kryo = quiet_simulator.run(Sort(), 30_000, cluster,
                                   GOOD.replace(**{"spark.serializer": "kryo"}))
        assert kryo.runtime_s < java.runtime_s

    def test_excessive_parallelism_costs_overhead(self, cluster, quiet_simulator):
        moderate = quiet_simulator.run(Wordcount(), 5_000, cluster,
                                       GOOD.replace(**{"spark.default.parallelism": 64}))
        excessive = quiet_simulator.run(Wordcount(), 5_000, cluster,
                                        GOOD.replace(**{"spark.default.parallelism": 2000}))
        assert excessive.runtime_s > moderate.runtime_s

    def test_irrelevant_knob_changes_nothing(self, cluster, quiet_simulator):
        a = quiet_simulator.run(Sort(), 10_000, cluster, GOOD)
        b = quiet_simulator.run(Sort(), 10_000, cluster,
                                GOOD.replace(**{"spark.network.timeout": 600}))
        assert a.runtime_s == pytest.approx(b.runtime_s)
