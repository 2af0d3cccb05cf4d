"""Per-layer timing for the traced run, from outside the program.

:func:`traced_layers` temporarily replaces each layer's public entry
points with wrappers that record a span (and, where a layer does
countable work, a count) in a :class:`~harness.SpanRecorder`, then
restores the originals.  Attributes are patched where callers look them
up: a module that did ``from x import f`` is patched as well as ``x``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from harness import SpanRecorder

After = Optional[Callable[[SpanRecorder, Any], None]]


def _count_draws(rec: SpanRecorder, trace: Any) -> None:
    rec.count("gfx.traceio.draws", trace.num_draws)


def _count_clusters(rec: SpanRecorder, result: Any) -> None:
    rec.count("core.leader.clusters", result.num_clusters)
    rec.count("core.leader.draws", len(result.labels))


def _count_frames(rec: SpanRecorder, result: Any) -> None:
    rec.count("simgpu.precompute.frames")


def _count_config_draws(rec: SpanRecorder, result: Any) -> None:
    rec.count(
        "simgpu.evaluate.config_draws",
        sum(len(out.draw_times_ns) for outs in result for out in outs),
    )


def _count_keys(rec: SpanRecorder, result: Any) -> None:
    rec.count("runtime.keys.calls")


def _count_cache_get(rec: SpanRecorder, result: Any) -> None:
    from repro.runtime.cache import CACHE_MISS

    rec.count("runtime.cache.misses" if result is CACHE_MISS else "runtime.cache.hits")


def _count_requests(rec: SpanRecorder, result: Any) -> None:
    rec.count("service.http.requests")


def _targets() -> List[Tuple[Any, str, str, bool, After]]:
    """(owner, attribute, layer, record a span?, after-hook) per entry point."""
    from importlib import import_module

    from repro.core.features import FeatureExtractor
    from repro.core.normalize import Normalizer
    from repro.core.subsetting import WorkloadSubset
    from repro.runtime.cache import ArtifactCache
    from repro.service.client import ServiceClient

    # By module path: ``repro.core`` re-exports functions under some of
    # these module names.
    (cli, cluster_frame, leader, pipeline, representatives, subsetting, traceio,
     artifacts, history, engine, keys, executor, batch) = (
        import_module(f"repro.{name}")
        for name in (
            "cli", "core.cluster_frame", "core.leader", "core.pipeline",
            "core.representatives", "core.subsetting", "gfx.traceio",
            "obs.artifacts", "obs.history", "runtime.engine", "runtime.keys",
            "service.executor", "simgpu.batch",
        )
    )

    return [
        (traceio, "load_trace", "gfx.traceio", True, _count_draws),
        (FeatureExtractor, "frame_matrix", "core.features", True, None),
        (Normalizer, "fit_transform", "core.normalize", True, None),
        (leader, "leader_cluster", "core.leader", True, _count_clusters),
        (cluster_frame, "leader_cluster", "core.leader", True, _count_clusters),
        (representatives, "representative_indices", "core.representatives", True, None),
        (representatives, "cluster_sizes", "core.representatives", True, None),
        (cluster_frame, "representative_indices", "core.representatives", True, None),
        (cluster_frame, "cluster_sizes", "core.representatives", True, None),
        (pipeline.SubsettingPipeline, "representative_trace", "core.representatives", True, None),
        (batch, "frame_precomp_cached", "simgpu.precompute", True, None),
        (batch, "precompute_frame", "simgpu.precompute", True, _count_frames),
        (batch, "simulate_frame_range_multi", "simgpu.evaluate", True, _count_config_draws),
        (engine.Runtime, "simulate_frames_many", "runtime.engine", True, None),
        (engine.Runtime, "cluster_frames", "runtime.engine", True, None),
        (keys, "trace_digest", "runtime.keys", True, _count_keys),
        (keys, "task_key", "runtime.keys", True, _count_keys),
        (engine, "task_key", "runtime.keys", True, _count_keys),
        (ArtifactCache, "get", "runtime.cache.get", True, _count_cache_get),
        (ArtifactCache, "put", "runtime.cache.put", True, None),
        (pipeline, "predict_time_ns", "core.predict", True, None),
        (pipeline, "rep_times_from_draw_times", "core.predict", True, None),
        (pipeline, "cluster_quality", "core.predict", True, None),
        (pipeline, "detect_phases", "core.phase", True, None),
        (pipeline, "build_subset", "core.phase", True, None),
        (subsetting, "build_subset", "core.phase", True, None),
        (WorkloadSubset, "materialize", "core.phase", True, None),
        (history, "record_run", "obs.record", True, None),
        (executor, "record_run", "obs.record", True, None),
        (cli, "record_run", "obs.record", True, None),
        (artifacts, "pipeline_artifact_sections", "obs.record", True, None),
        (artifacts, "sweep_artifact_sections", "obs.record", True, None),
        (ServiceClient, "submit", "service.http.submit", True, None),
        (ServiceClient, "request", "service.http", False, _count_requests),
        (ServiceClient, "events", "service.http", False, _count_requests),
    ]


def _wrap(func: Callable, rec: SpanRecorder, layer: str, spanned: bool, after: After) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if spanned:
            with rec.span(layer):
                result = func(*args, **kwargs)
        else:
            result = func(*args, **kwargs)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


@contextmanager
def traced_layers(rec: SpanRecorder) -> Iterator[None]:
    """Patch every layer entry point."""
    patched = []
    try:
        for owner, attr, layer, spanned, after in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                replacement: Any = staticmethod(
                    _wrap(original.__func__, rec, layer, spanned, after)
                )
            else:
                replacement = _wrap(original, rec, layer, spanned, after)
            setattr(owner, attr, replacement)
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


#: Per-layer self-time metrics and the span each one reads.
SELF_TIME_METRICS = {
    "import.s": "import",
    "gfx.traceio.s": "gfx.traceio",
    "core.features.s": "core.features",
    "core.normalize.s": "core.normalize",
    "core.leader.s": "core.leader",
    "core.representatives.s": "core.representatives",
    "simgpu.precompute.s": "simgpu.precompute",
    "simgpu.evaluate.s": "simgpu.evaluate",
    "runtime.engine.s": "runtime.engine",
    "runtime.keys.s": "runtime.keys",
    "runtime.cache.get_s": "runtime.cache.get",
    "runtime.cache.put_s": "runtime.cache.put",
    "core.predict.s": "core.predict",
    "core.phase.s": "core.phase",
    "obs.record.s": "obs.record",
    "service.http.submit_s": "service.http.submit",
}

#: Job kinds of ``service_mixed``: every kind ``repro.service.specs``
#: accepts, one job of each per trace file.
SERVICE_JOB_KINDS = ("simulate", "subset", "sweep")


def job_kind_metric(kind: str) -> str:
    return f"service.job.{kind}_p50_s"


#: Service metrics of the workloads that run no service.
NO_SERVICE = {
    "service.executor.queue_wait_s": 0.0,
    "service.executor.run_s": 0.0,
    "service.executor.dedup_ratio": 0.0,
    "service.events.notify_s": 0.0,
    **{job_kind_metric(kind): 0.0 for kind in SERVICE_JOB_KINDS},
}

#: Layers that do the computing an engine call hands out.
COMPUTE_LAYERS = frozenset(
    {
        "simgpu.evaluate",
        "simgpu.precompute",
        "core.features",
        "core.normalize",
        "core.leader",
        "core.representatives",
    }
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def engine_split(rec: SpanRecorder, threads: Optional[Sequence[str]] = None) -> Tuple[float, float]:
    """(engine wall, compute inside it): outermost compute spans under engine spans."""
    spans = [s for s in rec.spans if threads is None or s.thread in threads]
    by_id = {s.span_id: s for s in spans}
    engine_total = 0.0
    compute = 0.0
    for s in spans:
        if s.name == "runtime.engine":
            outer = by_id.get(s.parent)
            while outer is not None and outer.name != "runtime.engine":
                outer = by_id.get(outer.parent)
            if outer is None:
                engine_total += s.duration
        elif s.name in COMPUTE_LAYERS:
            under_engine = False
            under_compute = False
            outer = by_id.get(s.parent)
            while outer is not None:
                if outer.name in COMPUTE_LAYERS:
                    under_compute = True
                if outer.name == "runtime.engine":
                    under_engine = True
                outer = by_id.get(outer.parent)
            if under_engine and not under_compute:
                compute += s.duration
    return engine_total, compute


def layer_metrics(
    rec: SpanRecorder,
    wall_s: float,
    untraced_wall_s: float,
    threads: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, float], List[str]]:
    """Span-derived per-layer metrics, plus any accounting problems.

    Workload-specific metrics (store counters, bytes written, service
    waits, simulated accuracy) are added by the workload.
    """
    own = rec.self_times(threads)
    counts = rec.counts
    metrics = {name: own.get(span, 0.0) for name, span in SELF_TIME_METRICS.items()}
    metrics["gfx.traceio.draws_per_s"] = _ratio(
        counts.get("gfx.traceio.draws", 0), own.get("gfx.traceio", 0.0)
    )
    metrics["core.leader.us_per_draw"] = 1e6 * _ratio(
        own.get("core.leader", 0.0), counts.get("core.leader.draws", 0)
    )
    metrics["core.leader.clusters"] = float(counts.get("core.leader.clusters", 0))
    metrics["simgpu.precompute.frames"] = float(counts.get("simgpu.precompute.frames", 0))
    metrics["simgpu.evaluate.config_draws_per_s"] = _ratio(
        counts.get("simgpu.evaluate.config_draws", 0), own.get("simgpu.evaluate", 0.0)
    )
    metrics["runtime.keys.calls"] = float(counts.get("runtime.keys.calls", 0))
    hits = counts.get("runtime.cache.hits", 0)
    misses = counts.get("runtime.cache.misses", 0)
    metrics["runtime.cache.hits"] = float(hits)
    metrics["runtime.cache.misses"] = float(misses)
    metrics["runtime.cache.hit_ratio"] = _ratio(hits, hits + misses)
    engine_total, compute = engine_split(rec, threads)
    metrics["runtime.engine.overhead_s"] = engine_total - compute
    metrics["service.http.requests"] = float(counts.get("service.http.requests", 0))
    attributed = rec.top_level_total(threads)
    metrics["traced.wall_s"] = wall_s
    metrics["traced.unattributed_s"] = wall_s - attributed
    metrics["traced.overhead_pct"] = 100.0 * _ratio(wall_s - untraced_wall_s, untraced_wall_s)
    problems = []
    layer_self = sum(own.get(span, 0.0) for span in SELF_TIME_METRICS.values())
    if layer_self > wall_s * 1.0001:
        problems.append(
            f"layer self time {layer_self:.4f}s exceeds traced wall {wall_s:.4f}s"
        )
    return metrics, problems
