"""Tests for the parallel execution subsystem (repro.parallel).

The load-bearing property is the determinism contract: sharding any run
loop across worker processes must leave the statistics *bit-identical*
to a serial run, because every unit of work seeds itself from global
indices rather than shard-local state.  These tests pit ``jobs=1``
against ``jobs=4`` at (sub-)smoke scale for each of the four wired
harnesses, and check that shard seed derivation never collides.
"""

import dataclasses
import os

import pytest

from repro.apps import get_application
from repro.errors import ReproError
from repro.hardening.fence_sets import all_fences
from repro.hardening.insertion import EmpiricalFenceInserter
from repro.litmus import run_litmus
from repro.litmus.tests import ALL_TESTS, MP
from repro.parallel import (
    SERIAL,
    CheckShard,
    LitmusShard,
    ParallelConfig,
    merge_check_shards,
    merge_litmus_shards,
    parallel_map,
    resolve_config,
    shard_ranges,
)
from repro.rng import derive_seed
from repro.scale import SMOKE
from repro.stress.environment import standard_environments
from repro.stress.strategies import FixedLocationStress
from repro.testing.campaign import run_campaign, run_cell
from repro.tuning import shipped_params
from repro.tuning.patches import scan_patches

JOBS4 = ParallelConfig(jobs=4)


class TestParallelConfig:
    def test_serial_by_default(self):
        assert ParallelConfig().serial
        assert SERIAL.serial

    def test_zero_means_cpu_count(self):
        assert ParallelConfig(jobs=0).resolve_jobs() == (
            os.cpu_count() or 1
        )

    def test_negative_jobs_rejected(self):
        with pytest.raises(ReproError):
            ParallelConfig(jobs=-1)

    def test_resolve_config_prefers_explicit(self):
        scale = dataclasses.replace(SMOKE, jobs=8)
        assert resolve_config(JOBS4, scale) is JOBS4
        assert resolve_config(None, scale).jobs == 8
        assert resolve_config(None, None) is SERIAL


class TestShardRanges:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 50, 1000])
    def test_shards_tile_the_range(self, n):
        ranges = shard_ranges(n, JOBS4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    def test_serial_single_shard(self):
        assert shard_ranges(10, SERIAL) == [(0, 10)]

    def test_empty_range(self):
        assert shard_ranges(0, JOBS4) == []

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            shard_ranges(-1, SERIAL)


class TestMerging:
    def test_litmus_merge_sums_coverage(self):
        shards = [
            LitmusShard(0, 4, 1),
            LitmusShard(4, 8, 2),
            LitmusShard(8, 10, 0),
        ]
        assert merge_litmus_shards(shards, 10) == 3

    def test_litmus_merge_rejects_gap(self):
        with pytest.raises(ReproError):
            merge_litmus_shards(
                [LitmusShard(0, 4, 1), LitmusShard(5, 10, 0)], 10
            )

    def test_litmus_merge_rejects_short_coverage(self):
        with pytest.raises(ReproError):
            merge_litmus_shards([LitmusShard(0, 4, 1)], 10)

    def test_check_merge_finds_first_error(self):
        shards = [
            CheckShard(0, 4, None),
            CheckShard(4, 8, 6),
            CheckShard(8, 12, 9),
        ]
        assert merge_check_shards(shards, 12) == 6

    def test_check_merge_all_pass(self):
        shards = [CheckShard(0, 6, None), CheckShard(6, 12, None)]
        assert merge_check_shards(shards, 12) is None


def _square(x):
    return x * x


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(_square, range(6), SERIAL) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_preserves_order_parallel(self):
        assert parallel_map(_square, range(25), JOBS4) == [
            i * i for i in range(25)
        ]

    def test_on_result_serial_fires_in_order(self):
        seen = []
        parallel_map(
            _square, range(6), SERIAL,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(i, i * i) for i in range(6)]

    def test_on_result_parallel_covers_every_index(self):
        # Completion order is arbitrary under a pool (checkpointing must
        # not wait for a slow early chunk), but every (index, result)
        # pair is reported exactly once and the returned list is still
        # in input order.
        seen = []
        out = parallel_map(
            _square, range(25), JOBS4,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert out == [i * i for i in range(25)]
        assert sorted(seen) == [(i, i * i) for i in range(25)]

    def test_on_result_exception_aborts_the_map(self):
        def bomb(index, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            parallel_map(_square, range(6), SERIAL, on_result=bomb)


class TestLitmusDeterminism:
    def test_jobs1_vs_jobs4_identical(self, titan):
        # A configuration known to exhibit weak behaviours, so the
        # equality below is not vacuous (0 == 0).
        spec = FixedLocationStress((0, 64), ("st", "ld"))
        serial = run_litmus(titan, MP, 64, spec, 50, seed=3)
        sharded = run_litmus(
            titan, MP, 64, spec, 50, seed=3, parallel=JOBS4
        )
        assert serial.weak > 0
        assert serial == sharded

    def test_odd_execution_counts_shard_cleanly(self, titan):
        spec = FixedLocationStress((64,), ("st", "ld"))
        for executions in (1, 3, 17):
            serial = run_litmus(titan, MP, 64, spec, executions, seed=5)
            sharded = run_litmus(
                titan, MP, 64, spec, executions, seed=5,
                parallel=ParallelConfig(jobs=3),
            )
            assert serial == sharded


class TestTuningDeterminism:
    def test_patch_scan_identical(self, titan):
        scale = dataclasses.replace(
            SMOKE,
            max_distance=96,
            distance_step=32,
            max_location=96,
            location_step=32,
            executions=12,
        )
        serial = scan_patches(titan, scale, seed=3)
        sharded = scan_patches(titan, scale, seed=3, parallel=JOBS4)
        assert serial.counts == sharded.counts
        assert sum(serial.counts.values()) > 0

    def test_scale_jobs_knob_feeds_the_grid(self, titan):
        scale = dataclasses.replace(
            SMOKE,
            max_distance=64,
            distance_step=32,
            max_location=64,
            location_step=32,
            executions=8,
        )
        serial = scan_patches(titan, scale, seed=3)
        via_scale = scan_patches(
            titan, dataclasses.replace(scale, jobs=4), seed=3
        )
        assert serial.counts == via_scale.counts


class TestCampaignDeterminism:
    def test_grid_identical(self, k20):
        scale = dataclasses.replace(SMOKE, campaign_runs=6)
        apps = [get_application("cbe-dot"), get_application("cbe-ht")]
        envs = ["no-str-", "sys-str+"]
        serial = run_campaign(
            [k20], apps=apps, environments=envs, scale=scale, seed=3
        )
        sharded = run_campaign(
            [k20], apps=apps, environments=envs, scale=scale, seed=3,
            parallel=JOBS4,
        )
        assert serial == sharded
        assert any(cell.errors for cell in serial)

    def test_run_cell_identical(self, k20):
        env = {
            e.name: e
            for e in standard_environments(shipped_params("K20"))
        }["sys-str+"]
        app = get_application("cbe-dot")
        serial = run_cell(app, k20, env, runs=7, seed=2)
        sharded = run_cell(
            app, k20, env, runs=7, seed=2, parallel=JOBS4
        )
        assert serial == sharded


class TestHardeningDeterminism:
    def _inserters(self, titan):
        app = get_application("cbe-dot")
        scale = dataclasses.replace(SMOKE, stability_runs=20)
        return (
            EmpiricalFenceInserter(app, titan, scale=scale, seed=1),
            EmpiricalFenceInserter(
                app, titan, scale=scale, seed=1, parallel=JOBS4
            ),
            app,
        )

    def test_passing_check_identical(self, titan):
        serial, sharded, app = self._inserters(titan)
        fences = all_fences(app)
        assert serial.check_application(fences, 12) is True
        assert sharded.check_application(fences, 12) is True
        assert serial.check_runs == sharded.check_runs == 12

    def test_failing_check_stops_at_same_run(self, titan):
        serial, sharded, _app = self._inserters(titan)
        # No fences at all: the check should fail, and the parallel
        # merge must report the exact run a serial early-exit loop
        # would have stopped on (identical counter advance).
        assert serial.check_application(frozenset(), 40) is False
        assert sharded.check_application(frozenset(), 40) is False
        assert serial.check_runs == sharded.check_runs
        assert serial._check_counter == sharded._check_counter


class TestSeedDerivation:
    def test_no_collisions_across_shard_grid(self, titan):
        # Every (test, distance, location, execution) combination used
        # by a sharded patch scan must map to a distinct seed; a
        # collision would correlate supposedly independent executions.
        seeds = set()
        count = 0
        for test in ALL_TESTS:
            for d in range(0, 96, 32):
                for l in range(0, 96, 32):
                    cell_seed = derive_seed(0, "patch", test.name, d, l)
                    for i in range(24):
                        seeds.add(
                            derive_seed(
                                cell_seed, titan.short_name,
                                test.name, d, i,
                            )
                        )
                        count += 1
        assert len(seeds) == count

    def test_shard_boundaries_do_not_touch_seeds(self):
        # The seed of execution i is a function of i alone — recompute
        # the stream under two different shardings and compare.
        stream = [derive_seed(7, "K20", "MP", 64, i) for i in range(40)]
        for config in (SERIAL, ParallelConfig(jobs=3), JOBS4):
            rebuilt = []
            for start, stop in shard_ranges(40, config):
                rebuilt.extend(
                    derive_seed(7, "K20", "MP", 64, i)
                    for i in range(start, stop)
                )
            assert rebuilt == stream


class TestSharedPool:
    def test_serial_config_gets_no_pool(self):
        from repro.parallel import shared_pool

        assert shared_pool(SERIAL) is None

    def test_pool_cached_per_worker_count(self):
        from repro.parallel import close_shared_pools, shared_pool

        try:
            two = shared_pool(ParallelConfig(jobs=2))
            assert shared_pool(ParallelConfig(jobs=2)) is two
            three = shared_pool(ParallelConfig(jobs=3))
            assert three is not two
        finally:
            close_shared_pools()

    def test_close_forgets_pools(self):
        from repro.parallel import close_shared_pools, shared_pool

        pool = shared_pool(ParallelConfig(jobs=2))
        close_shared_pools()
        try:
            assert shared_pool(ParallelConfig(jobs=2)) is not pool
        finally:
            close_shared_pools()

    def test_pool_reuse_identical_results(self):
        from repro.parallel import close_shared_pools, shared_pool

        config = ParallelConfig(jobs=2)
        items = list(range(20))
        expected = parallel_map(_square, items, config)
        try:
            pool = shared_pool(config)
            first = parallel_map(_square, items, config, pool=pool)
            second = parallel_map(_square, items, config, pool=pool)
            assert first == second == expected
        finally:
            close_shared_pools()


def _square(x):
    return x * x


class TestResultHookError:
    def test_hook_failure_is_typed_with_index(self):
        from repro.errors import ResultHookError

        def hook(index, result):
            if index == 2:
                raise RuntimeError("disk full")

        with pytest.raises(ResultHookError) as info:
            parallel_map(_square, [1, 2, 3, 4], SERIAL, on_result=hook)
        assert info.value.index == 2
        assert "disk full" in str(info.value)

    def test_hook_raising_typed_error_passes_through(self):
        from repro.errors import ResultHookError

        original = ResultHookError(index=1, key="litmus:k", detail="x")

        def hook(index, result):
            raise original

        with pytest.raises(ResultHookError) as info:
            parallel_map(_square, [1, 2], SERIAL, on_result=hook)
        assert info.value is original
        assert info.value.key == "litmus:k"

    def test_submit_units_hook_error_names_content_key(self, tmp_path):
        # A checkpoint failure mid-campaign must surface the content key
        # of the record that could not be written.
        from repro.errors import ResultHookError
        from repro.litmus.units import litmus_unit
        from repro.store import RunLedger, litmus_key, submit_units
        from repro.stress.strategies import NoStress

        key = litmus_key("K20", "MP", "no-str", 64, 8, 0)
        unit = litmus_unit(key, "K20", "MP", 64, NoStress(), 8, seed=0)
        ledger = RunLedger.create(tmp_path / "led")

        class Exploding:
            def write(self, record):
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

        ledger.writer = lambda: Exploding()
        with pytest.raises(ResultHookError) as info:
            submit_units([unit], SERIAL, ledger)
        assert info.value.key == key
        assert "disk full" in str(info.value)


class TestWorkUnits:
    def _unit(self):
        from repro.litmus.units import litmus_unit
        from repro.store import litmus_key
        from repro.stress.strategies import NoStress

        key = litmus_key("K20", "MP", "no-str", 64, 8, 0)
        return litmus_unit(key, "K20", "MP", 64, NoStress(), 8, seed=0)

    def test_json_round_trip(self):
        from repro.parallel import WorkUnit

        unit = self._unit()
        assert WorkUnit.from_json(unit.to_json()) == unit

    def test_malformed_json_refused(self):
        from repro.parallel import WorkUnit

        for bad in (None, 17, {}, {"kind": "litmus"},
                    {"kind": 1, "key": "k", "spec": {}}):
            with pytest.raises(ReproError):
                WorkUnit.from_json(bad)

    def test_unknown_kind_refused(self):
        from repro.parallel import WorkUnit, execute_unit

        unit = WorkUnit(kind="no-such-kind", key="k", spec={})
        with pytest.raises(ReproError, match="no executor"):
            execute_unit(unit)

    def test_executor_key_mismatch_refused(self):
        from repro.litmus.units import execute_litmus_unit
        from repro.parallel import WorkUnit, execute_unit, plan

        unit = WorkUnit(kind="mismatch-kind", key="expected", spec={})
        record_unit = self._unit()
        plan.register_executor(
            "mismatch-kind", lambda u: execute_litmus_unit(record_unit)
        )
        try:
            with pytest.raises(ReproError, match="returned record key"):
                execute_unit(unit)
        finally:
            plan._EXECUTORS.pop("mismatch-kind", None)

    def test_run_units_matches_direct_execution(self):
        from repro.litmus.units import execute_litmus_unit
        from repro.parallel import run_units

        unit = self._unit()
        assert run_units([unit]) == [execute_litmus_unit(unit)]

    def test_run_units_streams_records(self):
        from repro.parallel import run_units

        unit = self._unit()
        seen = []
        run_units([unit], SERIAL, on_record=lambda i, r: seen.append((i, r.key)))
        assert seen == [(0, unit.key)]
