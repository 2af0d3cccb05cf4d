"""Tests for the task engine: validation, pools, seeding, failures."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.context import ObsContext, current_obs
from repro.runtime.engine import Runtime, TaskEngine, _chunk_ranges
from repro.runtime.tasks import Task, TaskResult, task_function

# Test task kinds register at import time; worker processes inherit them
# through the fork start method.


@task_function("test.double")
def _double(context, payload):
    return TaskResult(payload * 2)


@task_function("test.with_context")
def _with_context(context, payload):
    return TaskResult(context + payload)


@task_function("test.boom")
def _boom(context, payload):
    raise ValueError("boom from task body")


@task_function("test.draw")
def _draw(context, payload):
    return TaskResult(float(np.random.random()))


@task_function("test.counted")
def _counted(context, payload):
    current_obs().metrics.inc("widgets_made", payload)
    return TaskResult(payload)


@task_function("test.pid")
def _pid(context, payload):
    return TaskResult(os.getpid())


def _fan_out(n):
    return [Task(f"t{i}", "test.double", payload=i) for i in range(n)]


class TestGraphValidation:
    def test_duplicate_id_rejected(self):
        tasks = [Task("a", "test.double", 1), Task("a", "test.double", 2)]
        with pytest.raises(ConfigError, match="duplicate task id"):
            TaskEngine().run(tasks)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown task kind"):
            TaskEngine().run([Task("a", "no.such.kind")])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            TaskEngine(jobs=0)
        with pytest.raises(ConfigError):
            TaskEngine(jobs=True)
        with pytest.raises(ConfigError):
            TaskEngine(jobs=2.0)


class TestExecution:
    def test_serial_fan_out(self):
        results = TaskEngine(jobs=1).run(_fan_out(7))
        assert results == {f"t{i}": 2 * i for i in range(7)}

    def test_parallel_matches_serial(self):
        serial = TaskEngine(jobs=1).run(_fan_out(9))
        parallel = TaskEngine(jobs=3).run(_fan_out(9))
        assert parallel == serial

    def test_context_ships_to_workers(self):
        tasks = [Task(f"t{i}", "test.with_context", i) for i in range(4)]
        for jobs in (1, 2):
            results = TaskEngine(jobs=jobs).run(tasks, context=100)
            assert results == {f"t{i}": 100 + i for i in range(4)}


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_type_propagates(self, jobs):
        obs = ObsContext()
        engine = TaskEngine(jobs=jobs, obs=obs)
        with pytest.raises(ValueError, match="boom from task body"):
            engine.run([Task("a", "test.boom")])
        assert obs.metrics.snapshot().counter("tasks_failed") == 1

    def test_failure_does_not_poison_engine(self):
        engine = TaskEngine(jobs=2)
        with pytest.raises(ValueError):
            engine.run([Task("a", "test.boom")])
        assert engine.run(_fan_out(3)) == {"t0": 0, "t1": 2, "t2": 4}

    def test_unpicklable_payload_raises_cleanly(self):
        # Must raise in the parent, not deadlock the executor's feeder
        # thread (CPython 3.11 hangs shutdown() on feeder pickling errors).
        tasks = [Task(f"t{i}", "test.double", 1) for i in range(4)]
        tasks.append(Task("bad", "test.double", lambda: 1))
        with pytest.raises(ConfigError, match="bad.*cannot be sent"):
            TaskEngine(jobs=2).run(tasks, context={"shared": True})


class TestSeeding:
    def test_per_task_seed_decides_stream(self):
        tasks = [
            Task(f"d{i}", "test.draw", seed=1000 + i) for i in range(6)
        ]
        serial = TaskEngine(jobs=1).run(tasks)
        parallel = TaskEngine(jobs=3).run(tasks)
        assert parallel == serial
        # Distinct seeds give distinct draws.
        assert len(set(serial.values())) == len(serial)

    def test_same_seed_same_value_regardless_of_position(self):
        first = TaskEngine(jobs=1).run([Task("x", "test.draw", seed=42)])
        buried = TaskEngine(jobs=2).run(
            [Task(f"pad{i}", "test.draw", seed=i) for i in range(5)]
            + [Task("x", "test.draw", seed=42)]
        )
        assert buried["x"] == first["x"]


class TestWorkerCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_merge_into_parent(self, jobs):
        obs = ObsContext()
        engine = TaskEngine(jobs=jobs, obs=obs)
        engine.run([Task(f"c{i}", "test.counted", payload=i) for i in range(4)])
        snapshot = obs.metrics.snapshot()
        assert snapshot.counter("widgets_made") == 0 + 1 + 2 + 3
        assert snapshot.counter("tasks_run") == 4


class TestChunkRanges:
    def test_covers_exactly(self):
        for n in (1, 5, 16, 17):
            for chunks in (1, 3, 8, 40):
                ranges = _chunk_ranges(n, chunks)
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(n))

    def test_balanced(self):
        sizes = [stop - start for start, stop in _chunk_ranges(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_items(self):
        assert _chunk_ranges(0, 4) == [(0, 0)]

    def test_fewer_items_than_chunks(self):
        assert _chunk_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_exact_multiple(self):
        assert _chunk_ranges(16, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_min_items_floors_chunk_size(self):
        ranges = _chunk_ranges(20, 8, min_items=8)
        assert ranges == [(0, 10), (10, 20)]
        for start, stop in ranges:
            assert stop - start >= 8

    def test_min_items_never_empties(self):
        # Fewer items than the floor still yields one full-cover range.
        assert _chunk_ranges(3, 4, min_items=8) == [(0, 3)]

    def test_min_items_one_is_historical_behavior(self):
        assert _chunk_ranges(10, 4, min_items=1) == _chunk_ranges(10, 4)


class TestSingleTaskInline:
    def test_one_pending_task_runs_in_parent(self):
        # A single task must not pay pool startup: it runs inline even
        # on a parallel engine.
        results = TaskEngine(jobs=4).run([Task("only", "test.pid")])
        assert results["only"] == os.getpid()

    def test_multi_task_graph_still_uses_workers(self):
        tasks = [Task(f"p{i}", "test.pid") for i in range(4)]
        results = TaskEngine(jobs=2).run(tasks)
        assert any(pid != os.getpid() for pid in results.values())


class TestAdaptiveRuntime:
    def test_auto_resolves_to_host_cpus(self):
        runtime = Runtime(jobs="auto")
        assert runtime.adaptive
        assert runtime.jobs == (os.cpu_count() or 1)

    def test_explicit_jobs_is_not_adaptive(self):
        assert not Runtime(jobs=4).adaptive
        assert not Runtime().adaptive

    def test_small_workload_gets_single_range(self):
        runtime = Runtime(jobs="auto")
        assert runtime._ranges(8) == [(0, 8)]
        assert runtime._ranges(31) == [(0, 31)]

    def test_large_workload_chunks_with_floor(self):
        runtime = Runtime(jobs="auto")
        ranges = runtime._ranges(64)
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(64))
        if runtime.jobs > 1:
            for start, stop in ranges:
                assert stop - start >= 8

    def test_explicit_jobs_partition_unchanged(self):
        runtime = Runtime(jobs=4)
        assert runtime._ranges(8) == [
            (0, 1), (1, 2), (2, 3), (3, 4),
            (4, 5), (5, 6), (6, 7), (7, 8),
        ]

    def test_bad_jobs_string_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            Runtime(jobs="fast")

    def test_auto_matches_serial_results(self, simple_trace):
        from repro.simgpu.config import GpuConfig

        config = GpuConfig.preset("mainstream")
        reference = Runtime.serial().simulate_trace(simple_trace, config)
        adaptive = Runtime(jobs="auto").simulate_trace(simple_trace, config)
        assert adaptive == reference
