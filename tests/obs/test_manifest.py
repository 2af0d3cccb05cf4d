"""The run record as reproducibility record: digests match the cache's,
seeds and environment are recorded, and the file form round-trips."""

import json

from repro import __version__
from repro.cli import main
from repro.gfx.traceio import load_trace_auto, save_trace_auto
from repro.obs.history import (
    RUN_STORE_VERSION,
    RunRecord,
    RunStore,
    collect_record,
)
from repro.obs.metrics import Metrics
from repro.runtime.keys import config_digest, trace_digest
from repro.simgpu.config import GpuConfig


class TestCollect:
    def test_reproduces_cache_digests(self, simple_trace, tmp_path):
        trace_path = tmp_path / "t.json"
        save_trace_auto(simple_trace, str(trace_path))
        out = tmp_path / "run.json"
        assert main(
            [
                "simulate", str(trace_path), "--no-cache", "--no-run-store",
                "--manifest-out", str(out),
            ]
        ) == 0
        record = json.loads(out.read_text())
        config = GpuConfig.preset("mainstream")
        trace = load_trace_auto(str(trace_path))
        assert record["config_digests"] == {config.name: config_digest(config)}
        assert record["trace_digests"] == {trace.name: trace_digest(trace)}

    def test_records_seeds_and_environment(self):
        record = collect_record(
            "subset",
            argv=["subset", "t.json"],
            seeds={"pipeline": 7, "corpus": 42},
            jobs=4,
            duration_s=1.5,
        )
        assert record.seeds == {"pipeline": 7, "corpus": 42}
        assert record.argv == ("subset", "t.json")
        assert record.jobs == 4
        assert record.metrics["derived:duration_s"] == 1.5
        assert record.environment["package_version"] == __version__
        assert record.environment["host_cpu_count"] >= 1
        assert {"kernels_requested", "kernels_backend"} <= set(record.environment)

    def test_metrics_snapshot_flattens(self):
        metrics = Metrics()
        metrics.inc("frames_simulated", 9, phase="ground")
        record = collect_record("simulate", snapshot=metrics.snapshot())
        assert record.metrics["counter:frames_simulated{phase=ground}"] == 9
        assert record.metrics["counter:frames_simulated"] == 9


class TestRoundTrip:
    def test_write_and_load(self, tmp_path, simple_trace):
        config = GpuConfig.preset("lowpower")
        record = collect_record(
            "validate",
            argv=["validate", "t.json", "s.json"],
            seeds={"pipeline": 0},
            config_digests={config.name: config_digest(config)},
            trace_digests={simple_trace.name: trace_digest(simple_trace)},
        )
        path = tmp_path / "run.json"
        path.write_text(record.to_json())

        loaded = json.loads(path.read_text())
        assert loaded["run_store_version"] == RUN_STORE_VERSION
        assert loaded["command"] == "validate"
        assert loaded["seeds"] == {"pipeline": 0}
        assert RunRecord.from_dict(loaded) == record
        # The store appends the same bytes.
        stored = RunStore(tmp_path / "runs").append(record)
        assert stored.read_text() == path.read_text()
