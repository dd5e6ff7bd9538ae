"""Tests for the RDD lineage API and the DAG compiler."""

import pytest

from repro.sparksim import CacheRegistry, JobPlan, RDD, StageProfile, compile_job


class TestRDDLineage:
    def test_source_default_partitioning(self):
        src = RDD.source("data", 1280)
        assert src.partitions == 10  # 128 MB splits

    def test_source_rejects_empty(self):
        with pytest.raises(ValueError):
            RDD.source("data", 0)

    def test_narrow_preserves_partitions(self):
        src = RDD.source("data", 1280, partitions=7)
        assert src.map().partitions == 7
        assert src.filter(keep=0.5).partitions == 7

    def test_size_flows_through_ratios(self):
        src = RDD.source("data", 1000)
        out = src.flat_map(size_ratio=1.5).filter(keep=0.5)
        assert out.size_mb == pytest.approx(750)

    def test_filter_validates_keep(self):
        with pytest.raises(ValueError):
            RDD.source("d", 100).filter(keep=0.0)

    def test_wide_ops_take_explicit_or_default_partitions(self):
        src = RDD.source("data", 1000)
        assert src.reduce_by_key(partitions=33).partitions == 33
        assert src.reduce_by_key().partitions is None  # spark.default.parallelism

    def test_group_by_key_shuffles_everything(self):
        src = RDD.source("data", 1000)
        grouped = src.group_by_key()
        assert grouped.input_mb == pytest.approx(1000)
        assert grouped.op.size_ratio == 1.0
        assert grouped.unspillable_fraction > src.unspillable_fraction

    def test_join_merges_parents(self):
        a = RDD.source("a", 600)
        b = RDD.source("b", 400)
        j = a.join(b)
        assert j.input_mb == pytest.approx(1000)
        assert len(j.parents) == 2

    def test_lineage_topological_and_deduped(self):
        a = RDD.source("a", 100)
        b = a.map()
        c = b.join(b.filter())
        lineage = c.lineage()
        ids = [r.id for r in lineage]
        assert len(ids) == len(set(ids))
        assert ids.index(a.id) < ids.index(b.id) < ids.index(c.id)

    def test_cache_marks(self):
        r = RDD.source("a", 100).map().cache()
        assert r.cached


class TestDAGCompiler:
    def test_map_only_job_single_stage(self):
        job = RDD.source("d", 1000).map().filter().count()
        plan = compile_job(job)
        assert plan.num_stages == 1
        stage = plan.stages[0]
        assert stage.input_mb == pytest.approx(1000)
        assert stage.shuffle_read_mb == 0

    def test_shuffle_cuts_two_stages(self):
        job = RDD.source("d", 1000).map().reduce_by_key(size_ratio=0.3).count()
        plan = compile_job(job)
        assert plan.num_stages == 2
        topo = plan.topological()
        map_stage, reduce_stage = topo[0], topo[1]
        assert map_stage.shuffle_write_mb == pytest.approx(300)
        assert reduce_stage.shuffle_read_mb == pytest.approx(300)
        assert reduce_stage.depends_on == [map_stage.stage_id]

    def test_join_produces_three_stages(self):
        a = RDD.source("a", 600).map()
        b = RDD.source("b", 400).map()
        plan = compile_job(a.join(b).count())
        assert plan.num_stages == 3
        reduce_stage = [s for s in plan.stages if s.shuffle_read_mb > 0]
        assert len(reduce_stage) == 1
        assert reduce_stage[0].shuffle_read_mb == pytest.approx(1000)
        assert len(reduce_stage[0].depends_on) == 2

    def test_shuffle_write_split_by_parent_share(self):
        a = RDD.source("a", 600)
        b = RDD.source("b", 400)
        plan = compile_job(a.join(b).count())
        writes = sorted(s.shuffle_write_mb for s in plan.stages if s.shuffle_write_mb > 0)
        assert writes == [pytest.approx(400), pytest.approx(600)]

    def test_cached_rdd_materialized_then_truncates(self):
        cached = RDD.source("d", 1000).map().cache()
        registry = CacheRegistry()
        plan1 = compile_job(cached.count(), registry)
        assert plan1.stages[0].materializes
        rdd_id, mb, _ = plan1.stages[0].materializes[0]
        registry.materialize(rdd_id, mb, 100.0)

        # Second job over the same cached RDD reads the cache, not the source.
        plan2 = compile_job(cached.map().count(), registry, first_stage_id=10)
        stage = plan2.stages[0]
        assert stage.cached_read_mb == pytest.approx(1000)
        assert stage.input_mb == 0

    def test_uncached_second_job_recomputes(self):
        base = RDD.source("d", 1000).map()
        registry = CacheRegistry()
        compile_job(base.count(), registry)
        plan2 = compile_job(base.filter().count(), registry)
        assert plan2.stages[0].input_mb == pytest.approx(1000)

    def test_recompute_hints_filled(self):
        cached = RDD.source("d", 1000).map(cpu_s_per_mb=0.02).group_by_key().cache()
        plan = compile_job(cached.count())
        producing = [s for s in plan.stages if s.materializes][0]
        assert producing.recompute_cpu_s_per_mb > 0
        # Grouped data re-fetches its shuffle input: ~1 byte per byte.
        assert producing.recompute_io_mb_per_mb == pytest.approx(1.0, rel=0.1)

    def test_stage_ids_offset(self):
        job = RDD.source("d", 100).reduce_by_key().count()
        plan = compile_job(job, first_stage_id=5)
        assert {s.stage_id for s in plan.stages} == {5, 6}

    def test_collect_lands_on_final_stage(self):
        job = RDD.source("d", 100).map().collect(result_fraction=0.1)
        plan = compile_job(job)
        assert plan.stages[0].collect_mb == pytest.approx(10)

    def test_save_marks_output(self):
        job = RDD.source("d", 100).sort_by().save()
        plan = compile_job(job)
        final = plan.topological()[-1]
        assert final.writes_output
        assert final.output_mb == pytest.approx(100)

    def test_graph_is_acyclic_dag(self):
        a = RDD.source("a", 500).map()
        plan = compile_job(a.join(a.filter()).reduce_by_key().count())
        order = plan.topological()       # raises on a cycle
        assert sorted(s.stage_id for s in order) == \
            sorted(s.stage_id for s in plan.stages)
        position = {s.stage_id: i for i, s in enumerate(order)}
        for s in plan.stages:
            for dep in s.depends_on:
                assert position[dep] < position[s.stage_id]


    @staticmethod
    def _plan(deps_by_id):
        return JobPlan("j", [
            StageProfile(stage_id=sid, name=f"s{sid}", num_tasks_hint=1,
                         depends_on=list(deps))
            for sid, deps in deps_by_id
        ])

    def test_topological_order_is_kahn_by_generations(self):
        # Roots in stage order, then each generation's dependants in edge
        # order: the order networkx.topological_sort gave, which fixes
        # the order of the simulator's noise draws.
        plan = self._plan([(0, []), (1, [0]), (2, [0, 0]), (3, [1]),
                           (4, []), (5, [4, 2])])
        assert [s.stage_id for s in plan.topological()] == [0, 4, 1, 2, 3, 5]
        listed_late = self._plan([(3, [1]), (1, [0]), (0, [])])
        assert [s.stage_id for s in listed_late.topological()] == [0, 1, 3]

    def test_cyclic_stage_graph_is_rejected(self):
        plan = self._plan([(0, [2]), (1, [0]), (2, [1]), (3, [])])
        with pytest.raises(ValueError, match="cyclic"):
            plan.topological()
        with pytest.raises(ValueError, match="cyclic"):
            self._plan([(0, [0])]).topological()


class TestCacheRegistry:
    def test_evict_idempotent(self):
        reg = CacheRegistry()
        reg.materialize(1, 100, 50)
        reg.evict(1)
        reg.evict(1)  # no error
        assert not reg.is_materialized(1)
        assert reg.total_cached_mb == 0

    def test_weighted_recompute_means(self):
        reg = CacheRegistry()
        reg.materialize(1, 100, 50, recompute_cpu_s_per_mb=0.1, recompute_io_mb_per_mb=2.0)
        reg.materialize(2, 300, 50, recompute_cpu_s_per_mb=0.02, recompute_io_mb_per_mb=1.0)
        assert reg.mean_recompute_cpu_s_per_mb() == pytest.approx(0.04)
        assert reg.mean_recompute_io_mb_per_mb() == pytest.approx(1.25)

    def test_empty_registry_defaults(self):
        reg = CacheRegistry()
        assert reg.mean_recompute_cpu_s_per_mb() == pytest.approx(0.02)
        assert reg.mean_recompute_io_mb_per_mb() == pytest.approx(1.0)
