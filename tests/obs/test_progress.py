"""Progress telemetry: reporter lines, gauges, engine integration."""

from __future__ import annotations

import io

from repro.obs.context import ObsContext, current_obs
from repro.obs.metrics import Metrics
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.runtime.engine import Runtime, TaskEngine
from repro.runtime.tasks import Task, TaskResult, task_function


@task_function("progress.noop")
def _noop(context, payload):
    current_obs().metrics.inc("frames_simulated", int(payload))
    return TaskResult(payload)


class TestNullProgress:
    def test_disabled_and_blocking(self):
        assert NULL_PROGRESS.enabled is False
        # None timeout keeps the pool wait blocking exactly as before.
        assert NULL_PROGRESS.heartbeat_interval_s is None

    def test_callbacks_are_noops(self):
        null = NullProgress()
        null.begin(10)
        null.task_done(1, 10, 100)
        null.heartbeat(1, 10, 100)
        null.finish(10, 10, 100)


class TestProgressReporter:
    def _reporter(self, **kwargs):
        stream = io.StringIO()
        metrics = Metrics()
        kwargs.setdefault("interval_s", 0.0)
        reporter = ProgressReporter(stream=stream, metrics=metrics, **kwargs)
        return reporter, stream, metrics

    def test_line_shape(self):
        reporter, stream, _ = self._reporter()
        reporter.begin(4)
        reporter.task_done(1, 4, 600)
        line = stream.getvalue().splitlines()[0]
        assert line.startswith("[progress] tasks 1/4 (25%)")
        assert "frames 600" in line
        assert "elapsed" in line
        assert "eta" in line

    def test_final_task_always_emits(self):
        reporter, stream, _ = self._reporter(interval_s=3600.0)
        reporter.begin(2)
        reporter.task_done(1, 2, 10)  # throttled: first emit window open
        reporter.task_done(2, 2, 20)  # final: must emit regardless
        lines = stream.getvalue().splitlines()
        assert any("tasks 2/2 (100%)" in line for line in lines)
        # No eta on the final line — the run is over.
        final = [line for line in lines if "2/2" in line][0]
        assert "eta" not in final

    def test_throttling_limits_lines(self):
        reporter, stream, _ = self._reporter(interval_s=3600.0)
        reporter.begin(100)
        for i in range(1, 100):
            reporter.task_done(i, 100, i * 10)
        # First due emit plus nothing else (none final, window never due).
        assert reporter.lines_emitted <= 1
        assert len(stream.getvalue().splitlines()) == reporter.lines_emitted

    def test_heartbeat_lines_are_labeled(self):
        reporter, stream, _ = self._reporter()
        reporter.begin(4)
        reporter.heartbeat(0, 4, 0)
        assert stream.getvalue().startswith("[heartbeat] tasks 0/4")

    def test_gauges_recorded(self):
        reporter, _, metrics = self._reporter()
        reporter.begin(4)
        reporter.task_done(2, 4, 100)
        gauges = {
            name: value
            for (name, _labels), value in metrics.snapshot().gauges.items()
        }
        assert gauges["progress_tasks_done"] == 2.0
        assert gauges["progress_tasks_total"] == 4.0
        assert gauges["progress_frames_per_s"] >= 0.0
        assert gauges["progress_eta_s"] > 0.0

    def test_metrics_optional(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=0.0)
        reporter.begin(1)
        reporter.task_done(1, 1, 5)
        assert stream.getvalue()


class TestEngineIntegration:
    def _tasks(self, n=3):
        return [
            Task(f"t{i}", "progress.noop", payload=10) for i in range(n)
        ]

    def test_serial_engine_reports_each_task(self):
        stream = io.StringIO()
        obs = ObsContext()
        reporter = ProgressReporter(
            stream=stream, metrics=obs.metrics, interval_s=0.0
        )
        engine = TaskEngine(jobs=1, obs=obs, progress=reporter)
        engine.run(self._tasks(3))
        lines = stream.getvalue().splitlines()
        assert any("tasks 3/3 (100%)" in line for line in lines)
        gauges = {
            name: value
            for (name, _l), value in obs.metrics.snapshot().gauges.items()
        }
        assert gauges["progress_tasks_done"] == 3.0

    def test_pool_engine_reports_completion(self):
        stream = io.StringIO()
        obs = ObsContext()
        reporter = ProgressReporter(
            stream=stream, metrics=obs.metrics, interval_s=0.0
        )
        engine = TaskEngine(jobs=2, obs=obs, progress=reporter)
        engine.run(self._tasks(4))
        assert any(
            "tasks 4/4 (100%)" in line
            for line in stream.getvalue().splitlines()
        )

    def test_engine_without_progress_stays_silent(self, capsys):
        engine = TaskEngine(jobs=1, obs=ObsContext())
        engine.run(self._tasks(2))
        captured = capsys.readouterr()
        assert "[progress]" not in captured.err
        assert "[progress]" not in captured.out

    def test_runtime_threads_progress_through(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=0.0)
        runtime = Runtime(jobs=1, progress=reporter)
        assert runtime.progress is reporter

    def test_runtime_defaults_to_null_progress(self):
        assert Runtime(jobs=1).progress is NULL_PROGRESS
