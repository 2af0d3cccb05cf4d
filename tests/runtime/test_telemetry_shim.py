"""Stage timing through repro.obs: honest nesting, worker merges, wiring."""

import threading
import time

from repro.obs.context import ObsContext
from repro.obs.metrics import Metrics
from repro.obs.spans import Tracer
from repro.obs.stages import record_stage, stage, stage_seconds, summary_line
from repro.runtime.engine import Runtime, TaskEngine
from repro.runtime.tasks import Task, TaskResult, task_function


@task_function("shim.sleepy")
def _sleepy(context, payload, deps):
    time.sleep(payload)
    return TaskResult(payload)


def _stages(obs):
    return stage_seconds(obs.metrics.snapshot())


class TestNestedTimerAccounting:
    def test_nested_stage_does_not_double_count(self):
        obs = ObsContext()
        with stage("outer", obs):
            with stage("inner", obs):
                time.sleep(0.02)
        stages, top = _stages(obs)
        # Both stages are on record...
        assert set(stages) == {"outer", "inner"}
        # ...but only the top-level one counts toward wall time.
        assert set(top) == {"outer"}
        assert sum(top.values()) <= stages["outer"] * 1.001

    def test_summary_line_reports_top_level_only(self):
        obs = ObsContext()
        with stage("outer", obs):
            with stage("inner", obs):
                time.sleep(0.02)
        line = summary_line(obs.metrics.snapshot())
        total = float(line.split("stage_time=")[1].rstrip("s"))
        # Summing every level would report outer+inner (~2x the wall time).
        assert total < 1.5 * _stages(obs)[0]["outer"]

    def test_summary_line_names_the_zero_timer_state(self):
        # All-cache-hit runs record no stage time; the summary must say
        # so explicitly instead of silently dropping the stage column.
        line = summary_line(Metrics().snapshot())
        assert "no stages recorded" in line
        assert "stage_time=" not in line

    def test_summary_line_keeps_stage_time_when_timers_exist(self):
        obs = ObsContext()
        with stage("stage", obs):
            pass
        line = summary_line(obs.metrics.snapshot())
        assert "stage_time=" in line
        assert "no stages recorded" not in line

    def test_same_stage_reentered_at_top_accumulates(self):
        obs = ObsContext()
        for _ in range(2):
            with stage("stage", obs):
                pass
        stages, top = _stages(obs)
        assert top["stage"] == stages["stage"]

    def test_nesting_is_per_registry_and_per_thread(self):
        obs, other = ObsContext(), ObsContext()

        def side():
            with stage("side", obs):
                pass

        with stage("outer", obs):
            # Another run's stage, or this run's stage in another thread,
            # does not nest under "outer".
            with stage("elsewhere", other):
                pass
            thread = threading.Thread(target=side)
            thread.start()
            thread.join()
        assert set(_stages(obs)[1]) == {"outer", "side"}
        assert set(_stages(other)[1]) == {"elsewhere"}

    def test_timer_opens_span_on_bound_tracer(self):
        obs = ObsContext(tracer=Tracer())
        with stage("stagework", obs):
            pass
        spans = obs.tracer.spans()
        assert [s.name for s in spans] == ["stagework"]
        assert spans[0].category == "stage"


class TestMergeTimers:
    def test_merge_timers_accumulates_as_nested(self):
        # A worker records its stage time in its own registry; the parent
        # folds the dump in, and it stays nested: never top-level.
        parent = Metrics()
        reports = ({"worker.sim": 0.5}, {"worker.sim": 0.25, "worker.cluster": 0.1})
        for timers in reports:
            worker = Metrics()
            for name, seconds in timers.items():
                record_stage(worker, name, seconds)
            parent.merge(worker.dump())
        stages, top = stage_seconds(parent.snapshot())
        assert stages["worker.sim"] == 0.75
        assert stages["worker.cluster"] == 0.1
        assert "worker.sim" not in top
        assert sum(top.values()) == 0.0

    def test_engine_merges_worker_timers_serial_and_pool(self):
        for jobs in (1, 2):
            obs = ObsContext()
            engine = TaskEngine(jobs=jobs, obs=obs)
            engine.run(
                [Task(f"s{i}", "shim.sleepy", payload=0.01) for i in range(2)]
            )
            stages, top = _stages(obs)
            assert stages["worker.shim.sleepy"] >= 0.02, f"jobs={jobs}"
            assert "worker.shim.sleepy" not in top

    def test_report_marks_nested_stages(self):
        obs = ObsContext()
        with stage("outer", obs):
            with stage("inner", obs):
                pass
        series = {
            dict(labels)["stage"]: dict(labels)["level"]
            for name, labels in obs.metrics.snapshot().histograms
        }
        assert series == {"outer": "top", "inner": "nested"}


class TestRuntimeWiring:
    def test_runtime_exposes_metrics_and_tracer(self):
        metrics, tracer = Metrics(), Tracer()
        runtime = Runtime(jobs=1, metrics=metrics, tracer=tracer)
        assert runtime.tracer is tracer is runtime.obs.tracer
        assert runtime.metrics is metrics is runtime.obs.metrics
        assert runtime.engine.obs is runtime.obs

    def test_labeled_counts_aggregate_in_snapshot(self):
        metrics = Metrics()
        metrics.inc("frames_simulated", 3, phase="a")
        metrics.inc("frames_simulated", 4, phase="b")
        assert metrics.snapshot().counter_total("frames_simulated") == 7
        assert metrics.counter_total("frames_simulated") == 7
        assert "frames_simulated=7" in summary_line(metrics.snapshot())
