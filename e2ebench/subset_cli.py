"""Workload ``subset_cli``: three ``repro subset`` processes, one per game.

Why: this is what a user of the methodology waits for.  Interpreter
start and import, trace load, feature extraction and leader clustering
do most of the work; multi-config evaluation does almost none (one
config), so an evaluator change barely shows here.

Each process gets a fresh artifact cache, precompute store and run
store, ``--jobs 1``, and is timed from process start to exit.  Rounds
of the three processes repeat until the measuring budget is spent; the
first round is a warm-up, checked but not timed.  A *pass* is one
process per game; ``wall_s`` is the median pass, the sum of the
per-game median process times.  A *job* in the latency metrics is one
process.
"""

from __future__ import annotations

import io
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    BenchError,
    ChildRun,
    Context,
    Outcome,
    SpanRecorder,
    dir_bytes,
    generate_trace,
    median,
    repro_cli,
    run_child,
    tail_latency,
)
from layers import NO_SERVICE, layer_metrics, traced_layers

GAMES = ("bioshock1_like", "bioshock2_like", "bioshock_infinite_like")
PRESET = "mainstream"
#: Each trace is generated this many times and the median time reported.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Size:
    frames: int
    scale: float
    min_rounds: int


#: Rounds run before the timed ones (checked, not timed).
WARMUP = 1

#: 24 full-scale frames per game (~15K / ~22K / ~29K draws), so that a
#: run holds several rounds of the three processes; at least 2 timed.
FULL = Size(frames=24, scale=1.0, min_rounds=WARMUP + 2)
#: For the benchmark's own tests.
TINY = Size(frames=16, scale=0.1, min_rounds=WARMUP + 1)


@dataclass
class Reference:
    """The fused in-process pipeline's answer for one trace."""

    report: List[str]
    subset_def: str
    parent_draws: int
    rep_draws: int
    sim: Dict[str, float]


def report_lines(text: str) -> List[str]:
    """The deterministic part of a subset report (no wall-clock lines)."""
    return [
        line.rstrip()
        for line in text.splitlines()
        if line.strip()
        and not line.startswith("[runtime]")
        and not line.startswith("subset definition written")
    ]


def generate(ctx: Context, size: Size) -> Tuple[Dict[str, Path], List[float]]:
    """Write one trace per game with ``repro generate``; returns paths and times.

    Each trace is written ``SETUP_REPEATS`` times (the same bytes) so
    that ``setup_s`` is a median over several set-ups.
    """
    traces_dir = ctx.workspace.fresh("traces")
    paths: Dict[str, Path] = {}
    times: List[float] = []
    for game in GAMES:
        paths[game] = traces_dir / f"{game}.json"
        for _ in range(SETUP_REPEATS):
            times.append(
                generate_trace(
                    ctx.workspace, paths[game], game, size.frames, ctx.seed, size.scale
                )
            )
    return paths, times


@dataclass
class SubsetCall:
    """The arguments of one ``repro subset`` call and where its outputs go."""

    args: List[str]
    def_path: Path
    cache_dir: Path
    run_store: Path

    def subset_def(self) -> str:
        if not self.def_path.is_file():
            return ""
        return self.def_path.read_text(encoding="utf-8")


def subset_call(ctx: Context, path: Path) -> SubsetCall:
    """``repro subset`` arguments with a fresh cache, store and run store."""
    ws = ctx.workspace
    def_path = ws.fresh("subset-def") / "subset.json"
    cache_dir, run_store = ws.fresh("cache"), ws.fresh("runs")
    args = [
        "subset", str(path), "--preset", PRESET, "--jobs", "1",
        "--cache-dir", str(cache_dir),
        "--precomp-dir", str(ws.fresh("precomp")),
        "--run-store", str(run_store),
        "--save-def", str(def_path),
    ]
    return SubsetCall(args, def_path, cache_dir, run_store)


def run_subset_process(ctx: Context, path: Path) -> Tuple[ChildRun, str]:
    call = subset_call(ctx, path)
    run = run_child(repro_cli(*call.args), ctx.workspace)
    return run, call.subset_def()


def reference(ctx: Context, path: Path) -> Reference:
    """The library's fused ``SubsettingPipeline.run`` on the same file."""
    from repro.core.pipeline import SubsettingPipeline
    from repro.core.subsetio import write_subset
    from repro.gfx.traceio import load_trace
    from repro.runtime.engine import Runtime
    from repro.simgpu.config import GpuConfig

    trace = load_trace(path)
    ctx.workspace.use_precomp_dir(ctx.workspace.fresh("precomp"))
    result = SubsettingPipeline().run(
        trace, GpuConfig.preset(PRESET), runtime=Runtime(jobs=1)
    )
    buffer = io.StringIO()
    write_subset(result.subset, buffer)
    return Reference(
        report=report_lines(result.report()),
        subset_def=buffer.getvalue(),
        parent_draws=trace.num_draws,
        rep_draws=sum(p.num_clusters for p in result.frame_predictions),
        sim=summary_figures({f: getattr(result, f) for _, f in SIM_FIELDS}),
    )


#: The pipeline's accuracy figures, as named on ``PipelineResult`` and in
#: the run's fidelity sidecar summary.
SIM_FIELDS = (
    ("sim.e1_error_pct", "mean_prediction_error"),
    ("sim.efficiency_pct", "mean_efficiency"),
    ("sim.subset_time_error_pct", "subset_time_error"),
    ("sim.combined_subset_pct", "combined_draw_fraction"),
)


def summary_figures(summary: Dict[str, float]) -> Dict[str, float]:
    """Simulated accuracy from a fidelity summary, in percent."""
    return {metric: 100.0 * float(summary[field]) for metric, field in SIM_FIELDS}


def mean_figures(figures: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: sum(f[key] for f in figures) / len(figures) for key in figures[0]}


def check_process(
    game: str, run: ChildRun, subset_def: str, report: List[str], expected_def: str
) -> List[str]:
    """Problems with one CLI process against the expected report and definition."""
    if run.returncode != 0:
        return [run.failure(f"{game}: repro subset")]
    problems = []
    if report_lines(run.stdout) != report:
        problems.append(f"{game}: CLI report differs from the in-process pipeline")
    if subset_def != expected_def:
        problems.append(f"{game}: --save-def differs from the in-process subset")
    return problems


def run(ctx: Context, traced: bool, size: Size = FULL) -> Outcome:
    paths, setup_times = generate(ctx, size)
    setup_s = ctx.compile_s + median(setup_times)
    if traced:
        return _run_traced(ctx, paths, setup_s)

    rounds: List[List[Tuple[str, ChildRun, str]]] = []
    started = time.perf_counter()
    while len(rounds) < size.min_rounds or time.perf_counter() - started < ctx.seconds:
        rounds.append([(game, *run_subset_process(ctx, paths[game])) for game in GAMES])
    processes = [process for one_round in rounds for process in one_round]

    refs = {game: reference(ctx, paths[game]) for game in GAMES}
    problems: List[str] = []
    failed = 0
    for game, child, subset_def in processes:
        ref = refs[game]
        found = check_process(game, child, subset_def, ref.report, ref.subset_def)
        failed += bool(found)
        problems.extend(found)

    # The first round warms up and is checked but not timed.
    timed = [process for one_round in rounds[WARMUP:] for process in one_round]
    walls = [child.wall_s for _, child, _ in timed]
    wall_s = sum(
        median([child.wall_s for g, child, _ in timed if g == game]) for game in GAMES
    )
    tail, tail_label = tail_latency(walls)
    parent = sum(refs[g].parent_draws for g in GAMES)
    simulated = sum(refs[g].parent_draws + refs[g].rep_draws for g in GAMES)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": max(child.peak_rss_mb for _, child, _ in processes),
        "draws_per_s": parent / wall_s,
        "config_draws_per_s": simulated / wall_s,
        "job_p50_s": median(walls),
        "job_p90_s": tail,
        "jobs_per_s": len(GAMES) / wall_s,
    }
    return Outcome(
        metrics=metrics,
        attempted=len(processes),
        failed=failed,
        problems=problems,
        notes={
            "rounds": len(rounds),
            "process_walls_s": [round(c.wall_s, 3) for _, c, _ in processes],
            "job_p90_s": tail_label,
            "parent_draws": parent,
            **{
                k: round(v, 6)
                for k, v in mean_figures([ref.sim for ref in refs.values()]).items()
            },
        },
    )


# -- traced run -----------------------------------------------------------------


def run_subset_in_process(ctx: Context, path: Path) -> Tuple[SubsetCall, int, str]:
    """The same ``repro subset`` call through ``repro.cli.main`` in this process."""
    from repro import cli

    call = subset_call(ctx, path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(call.args)
    return call, code, out.getvalue()


def recorded_run(call: SubsetCall):
    """The run record and its fidelity summary the call left in its run store."""
    from repro.obs.history import RunStore

    store = RunStore(call.run_store)
    records = store.records(command="subset")
    if len(records) != 1:
        raise BenchError(f"expected one subset run record, found {len(records)}")
    summary = store.load_artifact_section(records[0], "fidelity")["summary"]
    return records[0], summary


def _run_traced(ctx: Context, paths: Dict[str, Path], setup_s: float) -> Outcome:
    untraced = {game: run_subset_process(ctx, paths[game]) for game in GAMES}
    untraced_wall = sum(r.wall_s for r, _ in untraced.values())

    rec = SpanRecorder()
    traced: Dict[str, Tuple[SubsetCall, int, str]] = {}
    started = time.perf_counter()
    with traced_layers(rec):
        for game in GAMES:
            with rec.span("import"):
                imported = run_child(
                    [sys.executable, "-c", "import repro.cli"], ctx.workspace
                )
            if imported.returncode != 0:
                raise BenchError(imported.failure("import repro.cli"))
            traced[game] = run_subset_in_process(ctx, paths[game])
    wall = time.perf_counter() - started

    problems: List[str] = []
    failed = 0
    for game in GAMES:
        child, subset_def = untraced[game]
        call, code, stdout = traced[game]
        if code != 0:
            found = [f"{game}: in-process repro subset returned {code}"]
        else:
            found = check_process(
                game, child, subset_def, report_lines(stdout), call.subset_def()
            )
        failed += bool(found)
        problems.extend(found)

    metrics, accounting = layer_metrics(rec, wall, untraced_wall)
    problems.extend(accounting)
    records, summaries = zip(*(recorded_run(traced[g][0]) for g in GAMES))

    def total(counter: str) -> float:
        return float(sum(r.metrics.get(f"counter:{counter}", 0.0) for r in records))

    hits, misses = total("precomp_store_hits"), total("precomp_store_misses")
    calls = [traced[g][0] for g in GAMES]
    metrics.update(
        {
            "simgpu.precomp_store.publish_s": sum(
                r.stages.get("precomp_publish", 0.0) for r in records
            ),
            "simgpu.precomp_store.hits": hits,
            "simgpu.precomp_store.misses": misses,
            "simgpu.precomp_store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.engine.tasks": total("tasks_run"),
            "runtime.cache.bytes_written": float(dir_bytes([c.cache_dir for c in calls])),
            "obs.record.bytes": float(dir_bytes([c.run_store for c in calls])),
            **NO_SERVICE,
            **mean_figures([summary_figures(s) for s in summaries]),
            "sim.ranking_spearman": 0.0,
            "sim.time_pearson": 0.0,
            "error_rate": failed / len(GAMES),
        }
    )
    return Outcome(
        metrics=metrics,
        attempted=len(GAMES),
        failed=failed,
        problems=problems,
        notes={"setup_s": round(setup_s, 4), "untraced_wall_s": round(untraced_wall, 4)},
        recorder=rec,
    )
