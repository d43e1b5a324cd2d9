"""The parallel batch runtime: determinism, caching, chunking, observability."""

import dataclasses
import errno
import os
import pathlib
import sys
import threading

import pytest

from repro.core.configs import NDP_GZIP1
from repro.simulation import (
    ChunkTiming,
    ResultCache,
    SimConfig,
    chunk_indices,
    compare_strategies,
    config_key,
    mc_run,
    parallel_map,
    resolve_jobs,
    run_simulations,
    simulate,
)
from repro.simulation.trace import TimelineRecorder


def cfg(params, **kw):
    # Short runs: pool semantics are independent of simulation length.
    defaults = dict(params=params, strategy="ndp", work=params.mtti * 6, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDeterminism:
    def test_mc_run_pool_bit_identical_to_serial(self, params):
        """The ISSUE's contract: jobs=4 equals jobs=1 sample-for-sample."""
        serial = mc_run(cfg(params), seeds=range(8), jobs=1)
        pooled = mc_run(cfg(params), seeds=range(8), jobs=4)
        assert serial.samples == pooled.samples
        assert serial.mean == pooled.mean
        assert serial.ci95 == pooled.ci95
        for a, b in zip(serial.results, pooled.results):
            assert a == b

    def test_worker_count_and_chunk_size_irrelevant(self, params):
        configs = [cfg(params, seed=s) for s in range(5)]
        baseline = run_simulations(configs, jobs=1)
        for jobs, chunk in ((2, 1), (3, 2), (None, 5)):
            assert run_simulations(configs, jobs=jobs, chunk_size=chunk) == baseline

    def test_compare_strategies_pool_matches_serial(self, params):
        a = cfg(params, strategy="host", ratio=15, compression=NDP_GZIP1)
        b = cfg(params, strategy="ndp", compression=NDP_GZIP1)
        assert compare_strategies(a, b, seeds=range(4), jobs=1) == compare_strategies(
            a, b, seeds=range(4), jobs=3
        )

    def test_results_in_submission_order(self, params):
        configs = [cfg(params, seed=s) for s in (9, 1, 5)]
        results = run_simulations(configs, jobs=2, chunk_size=1)
        for config, res in zip(configs, results):
            assert res == simulate(config)


class TestEdgeBehaviors:
    def test_empty_seeds_rejected_at_any_job_count(self, params):
        for jobs in (1, 4):
            with pytest.raises(ValueError):
                mc_run(cfg(params), seeds=[], jobs=jobs)

    def test_single_seed_infinite_ci_at_any_job_count(self, params):
        serial = mc_run(cfg(params), seeds=[3], jobs=1)
        pooled = mc_run(cfg(params), seeds=[3], jobs=4)
        assert serial.ci95 == pooled.ci95 == float("inf")
        assert serial.samples == pooled.samples

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_auto_jobs_positive(self):
        assert resolve_jobs(None) >= 1

    def test_empty_config_list(self):
        assert run_simulations([], jobs=4) == ()

    def test_traced_config_runs_inline_and_records(self, params):
        trace = TimelineRecorder()
        run_simulations([cfg(params, trace=trace)], jobs=4)
        assert len(trace.spans) > 0


class TestChunking:
    def test_partition_covers_every_index_once(self):
        for total, jobs, size in ((10, 4, None), (7, 2, 3), (1, 8, None), (33, 4, 16)):
            blocks = chunk_indices(total, jobs, size)
            flat = [i for block in blocks for i in block]
            assert flat == list(range(total))

    def test_zero_total(self):
        assert chunk_indices(0, 4) == []

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_indices(10, 2, 0)


class TestConfigKey:
    def test_stable_and_seed_sensitive(self, params):
        a = cfg(params, seed=1)
        assert config_key(a) == config_key(cfg(params, seed=1))
        assert config_key(a) != config_key(cfg(params, seed=2))

    def test_every_scenario_knob_changes_the_key(self, params):
        base = cfg(params)
        variants = [
            cfg(params, strategy="host", ratio=2),
            cfg(params, compression=NDP_GZIP1),
            cfg(params, work=params.mtti * 7),
            cfg(params, nvm_capacity=4),
            cfg(params, failure_shape=0.7),
            cfg(params.with_(mtti=params.mtti * 2)),
        ]
        keys = {config_key(v) for v in variants}
        assert config_key(base) not in keys
        assert len(keys) == len(variants)

    def test_trace_excluded_from_key(self, params):
        assert config_key(cfg(params)) == config_key(
            cfg(params, trace=TimelineRecorder())
        )


class TestResultCache:
    def test_second_run_served_from_cache(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        cold = mc_run(cfg(params), seeds=range(4), jobs=1, cache=cache)
        assert cache.hits == 0
        warm = mc_run(cfg(params), seeds=range(4), jobs=1, cache=cache)
        assert cache.hits == 4
        assert cold.samples == warm.samples
        for a, b in zip(cold.results, warm.results):
            assert a == b  # full summary round-trips through JSON

    def test_partial_hit_runs_only_missing_seeds(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        mc_run(cfg(params), seeds=[0, 1], jobs=1, cache=cache)
        timings: list[ChunkTiming] = []
        res = mc_run(cfg(params), seeds=[0, 1, 2], jobs=1, cache=cache, timings=timings)
        assert cache.hits == 2
        assert sum(t.size for t in timings) == 1  # only seed 2 executed
        assert res.samples == mc_run(cfg(params), seeds=[0, 1, 2]).samples

    def test_cache_keyed_by_config(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        mc_run(cfg(params), seeds=[0], jobs=1, cache=cache)
        mc_run(cfg(params, strategy="host"), seeds=[0], jobs=1, cache=cache)
        assert cache.hits == 0

    def test_corrupt_entry_is_a_miss(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        config = cfg(params, seed=0)
        run_simulations([config], cache=cache)
        path = cache._path(config_key(config))
        path.write_text("{not json")
        assert cache.get(config_key(config)) is None
        # And the runner recomputes rather than failing.
        (result,) = run_simulations([config], cache=cache)
        assert result == simulate(config)

    def test_corrupt_entry_counted_apart_from_misses_and_overwritten(
        self, params, tmp_path
    ):
        cache = ResultCache(tmp_path)
        config = cfg(params, seed=0)
        key = config_key(config)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 0)
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_text("{not json")
        (result,) = run_simulations([config], cache=cache)
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1)
        assert cache.get(key) == result == simulate(config)  # recompute rewrote it

    def test_counters_exact_under_concurrent_threads(self, params, tmp_path):
        """The service probes from several executor threads at once; no
        counter update may be lost."""
        cache = ResultCache(tmp_path)
        config = cfg(params, seed=0)
        key = config_key(config)
        cache.put(key, simulate(config))

        def probe():
            for _ in range(100):
                cache.get(key)
                cache.get("0" * 64)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert (cache.hits, cache.misses) == (800, 800)

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS, errno.EACCES])
    def test_failed_write_is_dropped_and_counted(self, params, tmp_path, monkeypatch, code):
        cache = ResultCache(tmp_path)
        real_replace = pathlib.Path.replace

        def failing_replace(self, target):
            if ".tmp." in self.name:
                raise OSError(code, os.strerror(code))
            return real_replace(self, target)

        monkeypatch.setattr(pathlib.Path, "replace", failing_replace)
        config = cfg(params, seed=1)
        (result,) = run_simulations([config], cache=cache)
        assert result == simulate(config)
        assert cache.write_errors == 1
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []  # tmp removed
        assert cache.get(config_key(config)) is None

    def test_pool_and_cache_compose(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        pooled = mc_run(cfg(params), seeds=range(6), jobs=3, cache=cache)
        warm = mc_run(cfg(params), seeds=range(6), jobs=3, cache=cache)
        assert pooled.samples == warm.samples
        assert cache.hits == 6


class TestObservability:
    def test_progress_monotone_to_completion(self, params):
        calls = []
        mc_run(
            cfg(params),
            seeds=range(5),
            jobs=2,
            chunk_size=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls[-1] == (5, 5)
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)

    def test_chunk_timings_recorded(self, params):
        timings: list[ChunkTiming] = []
        mc_run(cfg(params), seeds=range(4), jobs=2, chunk_size=2, timings=timings)
        assert sum(t.size for t in timings) == 4
        assert all(t.seconds >= 0 and t.worker_pid > 0 for t in timings)
        assert all(t.per_run >= 0 for t in timings)


class TestParallelMap:
    def test_thread_backend_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(10), jobs=4) == [
            x * x for x in range(10)
        ]

    def test_serial_backend(self):
        assert parallel_map(str, [1, 2], jobs=4, backend="serial") == ["1", "2"]

    def test_process_backend(self):
        assert parallel_map(abs, [-1, -2, 3], jobs=2, backend="process") == [1, 2, 3]

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            parallel_map(abs, [1, 2], backend="fibers")


def test_mc_run_keeps_seed_replacement_semantics(params):
    """The config's own seed is irrelevant; each run uses its batch seed."""
    res_a = mc_run(cfg(params, seed=123), seeds=[1, 2], jobs=2)
    res_b = mc_run(cfg(params, seed=456), seeds=[1, 2], jobs=1)
    assert res_a.samples == res_b.samples


def test_simconfig_fields_fully_cover_cache_key(params):
    """A new SimConfig field must participate in keying (or be explicitly
    excluded like ``trace``) — catch silent staleness at the source."""
    keyed = {f.name for f in dataclasses.fields(SimConfig)} - {"trace"}
    import repro.simulation.pool as pool_mod

    body_fields = {
        f.name
        for f in dataclasses.fields(cfg(params))
        if f.name != "trace"
    }
    assert keyed == body_fields
    assert pool_mod.CACHE_SCHEMA >= 1
