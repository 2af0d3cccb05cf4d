"""Workload ``service_mixed``: the job service driven over real HTTP.

Why: compute per job is small, so the fixed costs of each job dominate:
HTTP round-trips, job-store writes, queue wait, event notification,
trace digesting, artifact-cache reads (every spec runs twice) and
run-record and sidecar writes.

An in-process ``build_server`` (one executor worker, fresh job store,
artifact cache, run store and precompute store per session) is driven
by a closed loop of 2 clients.  Each client keeps one job in flight:
``ServiceClient.submit``, ``wait`` and ``result``, as ``repro jobs
submit --wait`` does.  Every spec is submitted twice (two seeded orders,
one after the other, new ones each session), so about half the jobs are
warm-cache reruns or coalesce onto a running twin.  Sessions repeat,
each with fresh state, until the measuring budget is spent; the first
is a warm-up, checked but not timed.

The job mix is an assumption: no job log or measured traffic exists to
weight it, so every trace file gets one job of each kind the service
accepts (``simulate``, ``subset``, ``sweep``) with default parameters.
Latency is also reported per kind, so a reader can reweight.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import (
    BenchError,
    Context,
    Outcome,
    SpanRecorder,
    dir_bytes,
    generate_trace,
    median,
    self_peak_rss_mb,
    tail_latency,
)
from layers import SERVICE_JOB_KINDS, job_kind_metric, layer_metrics, traced_layers

GAMES = ("bioshock1_like", "bioshock2_like", "bioshock_infinite_like")
EXECUTOR_THREAD = "repro-job-worker-0"
#: Closed-loop clients, each with one job in flight (the host's ``nproc``).
CLIENTS = 2
#: The simulate jobs' configuration.
PRESET = "mainstream"


@dataclass(frozen=True)
class Size:
    frames: int
    scale: float
    traces_per_game: int
    min_sessions: int


#: Sessions run before the timed ones (checked, not timed).
WARMUP = 1

#: 6 trace files x 3 kinds x 2 submissions = 36 jobs a session, >= 3 timed.
FULL = Size(frames=16, scale=0.25, traces_per_game=2, min_sessions=WARMUP + 3)
#: For the benchmark's own tests: 3 trace files, 18 jobs a session.
TINY = Size(frames=16, scale=0.05, traces_per_game=1, min_sessions=WARMUP + 1)


@dataclass
class JobRun:
    spec_index: int
    latency_s: float
    status: Dict[str, Any]
    result: Optional[Dict[str, Any]]
    notify_s: float
    error: Optional[str] = None


@dataclass
class Session:
    wall_s: float
    boot_s: float
    jobs: List[JobRun]
    cache_dir: Path
    run_store: Path


def generate(ctx: Context, size: Size) -> Tuple[List[Path], List[float]]:
    traces_dir = ctx.workspace.fresh("traces")
    paths, times = [], []
    for game in GAMES:
        for k in range(size.traces_per_game):
            path = traces_dir / f"{game}-{k}.json"
            times.append(
                generate_trace(
                    ctx.workspace, path, game, size.frames, 1000 * ctx.seed + k, size.scale
                )
            )
            paths.append(path)
    return paths, times


def job_specs(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    """One job of each kind per trace file, default parameters."""
    specs: List[Dict[str, Any]] = []
    for path in paths:
        for kind in SERVICE_JOB_KINDS:
            spec: Dict[str, Any] = {"kind": kind, "trace": {"path": str(path)}}
            if kind == "simulate":
                spec["config"] = {"preset": PRESET}
            specs.append(spec)
    return specs


def submission_order(num_specs: int, seed: int, session: int = 0) -> List[int]:
    """Every spec twice: one seeded order, then another; new orders per session."""
    rng = random.Random(f"{seed}:{session}")
    first, second = list(range(num_specs)), list(range(num_specs))
    rng.shuffle(first)
    rng.shuffle(second)
    return first + second


def run_session(
    ctx: Context, specs: Sequence[Dict[str, Any]], order: Sequence[int]
) -> Session:
    from repro.service.client import ServiceClient
    from repro.service.http import build_server

    ws = ctx.workspace
    ws.use_precomp_dir(ws.fresh("precomp"))
    cache_dir, run_store = ws.fresh("cache"), ws.fresh("runs")
    boot_start = time.perf_counter()
    server, _ = build_server(
        workers=1, job_dir=ws.fresh("jobs"), cache_dir=cache_dir, run_store=run_store
    )
    serving = threading.Thread(target=server.serve_forever, name="bench-http")
    serving.start()
    boot_s = time.perf_counter() - boot_start
    pending = list(range(len(order)))
    lock = threading.Lock()
    runs: List[Optional[JobRun]] = [None] * len(order)

    def client_loop() -> None:
        client = ServiceClient(server.url, timeout_s=120.0)
        while True:
            with lock:
                if not pending:
                    return
                slot = pending.pop(0)
            spec_index = order[slot]
            start = time.perf_counter()
            try:
                job_id = client.submit(specs[spec_index])["job_id"]
                status = client.wait(job_id, timeout_s=120.0)
                notify_s = time.time() - float(status.get("finished_unix") or time.time())
                result = None
                if status.get("state") == "succeeded":
                    result = client.result(job_id)
                runs[slot] = JobRun(
                    spec_index, time.perf_counter() - start, status, result, notify_s,
                    None if result is not None else f"job {job_id} {status.get('state')}",
                )
            except Exception as exc:  # a failed job is counted, not fatal
                runs[slot] = JobRun(
                    spec_index, time.perf_counter() - start, {}, None, 0.0,
                    f"{type(exc).__name__}: {exc}",
                )

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}")
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        wall_s = time.perf_counter() - start
    finally:
        server.close()
        serving.join(timeout=30.0)
    if any(thread.is_alive() for thread in threads) or serving.is_alive():
        raise BenchError("service session did not finish in time")
    return Session(wall_s, boot_s, [r for r in runs if r is not None], cache_dir, run_store)


def _payload(result: Dict[str, Any]) -> Dict[str, Any]:
    return result.get("result", result)


def direct_call(ctx: Context, spec: Dict[str, Any], traces: Dict[str, Any]):
    """The library's answer to ``spec``: expected result fields and work counts.

    Returns (expected fields, parent draws, simulated config x draw
    evaluations).
    """
    from repro.analysis.sweep import pathfinding_sweep
    from repro.core.pipeline import SubsettingPipeline
    from repro.core.subsetting import build_subset
    from repro.gfx.traceio import load_trace_auto
    from repro.runtime.engine import Runtime
    from repro.service.specs import validate_job_request

    job = validate_job_request(spec)
    path = job.trace["path"]
    if path not in traces:
        traces[path] = load_trace_auto(path)
    trace = traces[path]
    config = job.gpu_config()
    ctx.workspace.use_precomp_dir(ctx.workspace.fresh("precomp"))
    runtime = Runtime(jobs=1)
    draws = trace.num_draws
    if job.kind == "simulate":
        result = runtime.simulate_trace(trace, config)
        expected = {
            "total_time_ms": float(result.total_time_ms),
            "mean_fps": float(result.mean_fps),
            "num_draws": draws,
        }
        return expected, draws, draws
    if job.kind == "subset":
        params = job.params
        result = SubsettingPipeline(
            radius=float(params["radius"]),
            interval_length=int(params["interval_length"]),
            phase_tolerance=float(params["tolerance"]),
            seed=int(params["seed"]),
        ).run(trace, config, runtime=runtime)
        expected = {
            "mean_prediction_error": float(result.mean_prediction_error),
            "mean_efficiency": float(result.mean_efficiency),
            "mean_outlier_rate": float(result.mean_outlier_rate),
            "num_phases": int(result.detection.num_phases),
            "subset_draw_fraction": float(result.subset.draw_fraction),
            "combined_draw_fraction": float(result.combined_draw_fraction),
            "subset_time_error": float(result.subset_time_error),
        }
        reps = sum(p.num_clusters for p in result.frame_predictions)
        return expected, draws, draws + reps
    subset = build_subset(trace)
    result = pathfinding_sweep(trace, subset, runtime=runtime)
    expected = {
        "config_names": list(result.config_names),
        "parent_times_ms": [t / 1e6 for t in result.parent_times_ns],
        "subset_estimated_times_ms": [t / 1e6 for t in result.subset_estimated_times_ns],
        "ranking_agreement": float(result.ranking_agreement),
    }
    subset_draws = sum(trace.frames[p].num_draws for p in subset.frame_positions)
    return expected, draws, len(result.config_names) * (draws + subset_draws)


@dataclass
class Expected:
    """The direct library call's answer to one spec, and its work counts."""

    fields: Dict[str, Any]
    parent_draws: int
    config_draws: int


def expected_results(ctx: Context, specs: Sequence[Dict[str, Any]]) -> List[Expected]:
    traces: Dict[str, Any] = {}
    return [Expected(*direct_call(ctx, spec, traces)) for spec in specs]


def check_session(
    session: Session, specs: Sequence[Dict[str, Any]], expected: Sequence[Expected]
) -> Tuple[int, List[str]]:
    """Failed job count and problems.

    A job fails when it did not succeed, when its result differs from
    the other submission of the same spec, or when it differs from the
    direct library call on that spec.
    """
    by_spec: Dict[int, List[JobRun]] = {}
    for job in session.jobs:
        by_spec.setdefault(job.spec_index, []).append(job)
    problems: List[str] = []
    failed = 0
    for index, jobs in sorted(by_spec.items()):
        want = expected[index].fields
        payloads = [_payload(j.result) if j.result is not None else None for j in jobs]
        for job, payload in zip(jobs, payloads):
            if job.error is not None:
                problems.append(f"spec {index}: {job.error}")
            elif any(payload.get(k) != v for k, v in want.items()):
                problems.append(f"spec {index} ({specs[index]['kind']}): result != library call")
            elif payload != payloads[0]:
                problems.append(f"spec {index}: rerun result != first run")
            else:
                continue
            failed += 1
    lost = 2 * len(specs) - len(session.jobs)
    if lost:
        problems.append(f"{lost} submissions never completed")
    return failed + lost, problems


def kind_latencies(
    sessions: Sequence[Session], specs: Sequence[Dict[str, Any]]
) -> Dict[str, List[float]]:
    """Job latencies per job kind, over every session."""
    out: Dict[str, List[float]] = {}
    for session in sessions:
        for job in session.jobs:
            out.setdefault(specs[job.spec_index]["kind"], []).append(job.latency_s)
    return out


def run(ctx: Context, traced: bool, size: Size = FULL) -> Outcome:
    paths, gen_times = generate(ctx, size)
    specs = job_specs(paths)
    if traced:
        return _run_traced(ctx, specs, submission_order(len(specs), ctx.seed), gen_times)
    sessions: List[Session] = []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds or len(sessions) < size.min_sessions:
        order = submission_order(len(specs), ctx.seed, len(sessions))
        sessions.append(run_session(ctx, specs, order))
    peak = self_peak_rss_mb()
    expected = expected_results(ctx, specs)
    failed, problems = 0, []
    for session in sessions:
        session_failed, session_problems = check_session(session, specs, expected)
        failed += session_failed
        problems.extend(session_problems)
    # The first session warms up and is checked but not timed.
    timed = sessions[WARMUP:]
    jobs = [job for session in timed for job in session.jobs]
    tail, tail_label = tail_latency([job.latency_s for job in jobs])

    def per_session(count) -> float:
        """Median over sessions of ``count(job)`` summed per host second."""
        return median(
            [sum(count(j) for j in session.jobs) / session.wall_s for session in timed]
        )

    metrics = {
        "setup_s": ctx.compile_s + median(gen_times) + median([x.boot_s for x in sessions]),
        "wall_s": median([session.wall_s for session in timed]),
        "peak_rss_mb": peak,
        "draws_per_s": per_session(lambda j: expected[j.spec_index].parent_draws),
        "config_draws_per_s": per_session(lambda j: expected[j.spec_index].config_draws),
        "job_p50_s": median([median([j.latency_s for j in s.jobs]) for s in timed]),
        "job_p90_s": tail,
        "jobs_per_s": per_session(lambda j: 1),
    }
    return Outcome(
        metrics=metrics,
        attempted=2 * len(specs) * len(sessions),
        failed=failed,
        problems=problems,
        notes={
            "sessions": len(sessions),
            "timed_jobs": len(jobs),
            "specs": len(specs),
            "job_p90_s": tail_label,
            "job_p50_s_by_kind": {
                kind: round(median(values), 4)
                for kind, values in kind_latencies(timed, specs).items()
            },
        },
    )


def _job_times(session: Session, field_a: str, field_b: str) -> List[float]:
    return [
        float(j.status[field_b]) - float(j.status[field_a])
        for j in session.jobs
        if j.status.get(field_a) is not None and j.status.get(field_b) is not None
    ]


def _run_traced(ctx: Context, specs, order, gen_times: Sequence[float]) -> Outcome:
    import numpy as np

    untraced = run_session(ctx, specs, order)
    rec = SpanRecorder()
    with traced_layers(rec):
        session = run_session(ctx, specs, order)
    failed, problems = check_session(session, specs, expected_results(ctx, specs))

    metrics, accounting = layer_metrics(
        rec, session.wall_s, untraced.wall_s, threads=(EXECUTOR_THREAD,)
    )
    problems.extend(accounting)
    job_metrics = [j.result.get("metrics", {}) for j in session.jobs if j.result]

    def total(counter: str) -> float:
        return float(sum(m.get(f"counter:{counter}", 0.0) for m in job_metrics))

    hits, misses = total("precomp_store_hits"), total("precomp_store_misses")
    deduped = sum(
        1 for j in session.jobs
        if j.status.get("coalesced_with")
        or (j.result and j.result.get("metrics", {}).get("counter:frames_simulated", 0.0) == 0.0)
    )
    submits = [s.duration for s in rec.spans if s.name == "service.http.submit"]
    results = {}
    for job in session.jobs:
        if job.result is not None:
            results.setdefault(job.spec_index, _payload(job.result))
    subsets = [r for i, r in results.items() if specs[i]["kind"] == "subset"]
    sweeps = [r for i, r in results.items() if specs[i]["kind"] == "sweep"]
    by_kind = kind_latencies([untraced], specs)

    def mean(values: Sequence[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    metrics.update(
        {
            "service.http.submit_s": median(submits) if submits else 0.0,
            "service.executor.queue_wait_s": median(_job_times(session, "created_unix", "started_unix")),
            "service.executor.run_s": median(_job_times(session, "started_unix", "finished_unix")),
            "service.executor.dedup_ratio": deduped / len(order),
            "service.events.notify_s": median([j.notify_s for j in session.jobs]),
            **{
                job_kind_metric(kind): median(by_kind[kind]) for kind in SERVICE_JOB_KINDS
            },
            "simgpu.precomp_store.publish_s": 0.0,
            "simgpu.precomp_store.hits": hits,
            "simgpu.precomp_store.misses": misses,
            "simgpu.precomp_store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.engine.tasks": total("tasks_run"),
            "runtime.cache.bytes_written": float(dir_bytes([session.cache_dir])),
            "obs.record.bytes": float(dir_bytes([session.run_store])),
            "sim.e1_error_pct": 100.0 * mean([r["mean_prediction_error"] for r in subsets]),
            "sim.efficiency_pct": 100.0 * mean([r["mean_efficiency"] for r in subsets]),
            "sim.subset_time_error_pct": 100.0 * mean([r["subset_time_error"] for r in subsets]),
            "sim.combined_subset_pct": 100.0 * mean([r["combined_draw_fraction"] for r in subsets]),
            "sim.ranking_spearman": mean([r["ranking_agreement"] for r in sweeps]),
            "sim.time_pearson": mean(
                [
                    float(np.corrcoef(r["parent_times_ms"], r["subset_estimated_times_ms"])[0, 1])
                    for r in sweeps
                ]
            ),
            "error_rate": failed / len(order),
        }
    )
    return Outcome(
        metrics=metrics,
        attempted=len(order),
        failed=failed,
        problems=problems,
        notes={
            "setup_s": round(ctx.compile_s + median(gen_times) + untraced.boot_s, 4),
            "untraced_wall_s": round(untraced.wall_s, 4),
            "jobs": len(order),
        },
        recorder=rec,
    )
