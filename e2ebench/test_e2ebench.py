"""Self-tests of the end-to-end benchmark (tiny inputs, about a minute).

Run from the checkout root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import service_mixed  # noqa: E402
import subset_cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

harness.require_program()


@pytest.fixture
def ctx():
    workspace = harness.Workspace()
    try:
        kernels, compile_s = harness.pin_kernels(workspace)
        yield harness.Context(workspace, 5, 1.0, kernels, compile_s)
    finally:
        workspace.close()


def test_declaration_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace, capsys):
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        tiny=True,
    )
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0, capsys.readouterr().err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["traced.wall_s"] > 0
        layer_self = sum(metrics[k] for k in layers.SELF_TIME_METRICS)
        if workload != "service_mixed":
            assert layer_self <= metrics["traced.wall_s"]
            assert metrics["traced.unattributed_s"] >= 0


def test_subset_gate_fires_on_a_subset_from_another_seed(ctx):
    paths_a, _ = subset_cli.generate(ctx, subset_cli.TINY)
    ctx.seed = 6
    paths_b, _ = subset_cli.generate(ctx, subset_cli.TINY)
    game = subset_cli.GAMES[0]
    child, subset_def = subset_cli.run_subset_process(ctx, paths_a[game])
    ref_a = subset_cli.reference(ctx, paths_a[game])
    ref_b = subset_cli.reference(ctx, paths_b[game])
    check = subset_cli.check_process
    assert check(game, child, subset_def, ref_a.report, ref_a.subset_def) == []
    assert subset_def != ref_b.subset_def
    assert check(game, child, subset_def, ref_b.report, ref_b.subset_def)
    assert check(game, child, ref_b.subset_def, ref_a.report, ref_a.subset_def)


def test_service_gate_fires_on_a_perturbed_or_inconsistent_result(ctx):
    paths, _ = service_mixed.generate(ctx, service_mixed.TINY)
    specs = service_mixed.job_specs(paths[:1])[:1]
    assert specs[0]["kind"] == "simulate"
    expected = service_mixed.expected_results(ctx, specs)
    fields = expected[0].fields
    good = {"result": dict(fields)}
    bad = {"result": {**fields, "total_time_ms": fields["total_time_ms"] * 1.001}}

    def session(*results):
        jobs = [service_mixed.JobRun(0, 0.1, {}, r, 0.0) for r in results]
        return service_mixed.Session(1.0, 0.0, jobs, Path("."), Path("."))

    check = service_mixed.check_session
    assert check(session(good, good), specs, expected) == (0, [])
    failed, problems = check(session(good, bad), specs, expected)
    assert failed == 1 and problems
    rerun = {"result": {**fields, "num_frames": -1}}
    assert check(session(good, rerun), specs, expected)[0] == 1


def test_state_guard_reports_new_state_files(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path / "checkout")
    monkeypatch.chdir(tmp_path)
    workspace = types.SimpleNamespace(
        user_cache=tmp_path / "user" / ".cache" / "repro",
        home=tmp_path / "home",
        kernels_root=tmp_path / "kernels",
    )
    (workspace.kernels_root / "kernels").mkdir(parents=True)
    guard = harness.StateGuard(workspace)
    assert guard.violations() == []
    (workspace.kernels_root / "kernels" / "k.so").write_bytes(b"k")
    assert guard.violations() == []
    for path in (
        harness.ROOT / ".repro" / "precomp" / "x.fpc",
        tmp_path / ".repro" / "runs" / "r.json",
        workspace.user_cache / "ab" / "a.pkl",
        workspace.home / ".cache" / "repro" / "ab" / "b.pkl",
        workspace.kernels_root / "ab" / "c.pkl",
    ):
        path.parent.mkdir(parents=True)
        path.write_bytes(b"x")
    assert len(guard.violations()) == 5


def test_state_guard_fires_when_the_program_falls_back_to_its_defaults(
    ctx, tmp_path, monkeypatch
):
    """A ``repro subset`` without --run-store, --precomp-dir or --cache-dir."""
    from repro import cli
    from repro.simgpu.batch import clear_precomp_cache

    trace = tmp_path / "trace.json"
    harness.generate_trace(ctx.workspace, trace, subset_cli.GAMES[0], 16, 5, 0.1)
    monkeypatch.chdir(tmp_path)
    guard = harness.StateGuard(ctx.workspace)
    try:
        assert cli.main(["subset", str(trace), "--jobs", "1"]) == 0
    finally:
        clear_precomp_cache()
    found = guard.violations()
    assert any(v.startswith("./.repro/runs/") for v in found), found
    assert any(v.startswith("./.repro/precomp/") for v in found), found
    assert any(v.startswith("$REPRO_CACHE_DIR/") for v in found), found


def test_span_self_time_excludes_children():
    rec = harness.SpanRecorder()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.02)
    own = rec.self_times()
    assert own["inner"] == pytest.approx(rec.total("inner"))
    assert own["outer"] + own["inner"] == pytest.approx(rec.total("outer"))
    assert rec.top_level_total() == pytest.approx(rec.total("outer"))


def test_tail_latency_keeps_ten_samples_beyond():
    value, label = harness.tail_latency([float(i) for i in range(1, 101)])
    assert value == pytest.approx(90.1) and label == "p90 of 100"
    value, label = harness.tail_latency([float(i) for i in range(40, 0, -1)])
    assert value == 30.0 and label == "p75 of 40"
    assert sum(1 for i in range(1, 41) if i > value) == 10
    value, label = harness.tail_latency([3.0, 1.0, 2.0])
    assert value == 2.0 and label.startswith("p50 of 3")
