"""Task vocabulary for the runtime engine.

A :class:`Task` is one unit of pipeline work: simulate or cluster a
range of frames.  Task *functions* are module-level (so worker
processes can resolve them by kind name after a fork/spawn) and
registered in :data:`TASK_FUNCTIONS`; they receive the run's shared
``context`` (shipped once per worker, not once per task — the trace is
the heavy part) and their payload, and return their value (optionally
wrapped in a :class:`TaskResult`).

Task bodies run under an ambient :class:`repro.obs.ObsContext`: the
counters, histograms, and nested spans they record land in the parent's
registry directly when executing inline, or in a worker-local registry
that ships back inside the :class:`TaskResult` (``metrics``, ``spans``)
when executing in a pool worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.context import current_obs


@dataclass(frozen=True)
class TaskResult:
    """A task function's return value plus its observability payload.

    ``metrics`` is a worker registry dump (counters, histograms, stage
    time) and ``spans`` the spans recorded inside the worker.  Task
    functions only ever fill ``value``; the engine's worker wrapper
    attaches the rest.
    """

    value: Any
    metrics: Optional[Mapping[str, Any]] = None
    spans: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class Task:
    """One independent unit of work for the task engine.

    ``seed``, when set, seeds numpy's legacy global RNG in the worker
    before the task body runs (derive it with
    :func:`repro.util.rng.spawn_worker_seed` so it depends on the task's
    identity, never on scheduling).
    """

    task_id: str
    kind: str
    payload: Any = None
    seed: Optional[int] = None


TaskFunction = Callable[[Any, Any], Any]

TASK_FUNCTIONS: Dict[str, TaskFunction] = {}


def task_function(kind: str) -> Callable[[TaskFunction], TaskFunction]:
    """Register a task function under ``kind`` (importable module scope).

    Registration happens at import time, so any module that defines task
    kinds must be imported in the worker as well — the built-in kinds
    live here; test/extension kinds rely on the fork start method or on
    the engine pickling the submission closure's imports.
    """

    def register(fn: TaskFunction) -> TaskFunction:
        if kind in TASK_FUNCTIONS:
            raise ConfigError(f"task kind {kind!r} is already registered")
        TASK_FUNCTIONS[kind] = fn
        return fn

    return register


def resolve_task_function(kind: str) -> TaskFunction:
    try:
        return TASK_FUNCTIONS[kind]
    except KeyError:
        known = ", ".join(sorted(TASK_FUNCTIONS))
        raise ConfigError(
            f"unknown task kind {kind!r}; registered kinds: {known}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in task kinds
# ---------------------------------------------------------------------------


@task_function("simulate_frame_range")
def _simulate_frame_range(context: Any, payload: Any) -> TaskResult:
    """Simulate frames ``[start, stop)`` of the context trace on N configs.

    All configs are evaluated in one task so the order-dependent context
    arrays (texture warmth, switch penalties) are computed once per
    distinct warm capacity / switch-cost triple — the row sharing
    :func:`repro.simgpu.batch.simulate_frame_multi` gives a serial DVFS
    sweep.

    ``payload`` optionally carries the phase label (the runtime's stage
    name, e.g. ``ground_truth``); simulated-frame counts are recorded as
    ``frames_simulated{phase=...}`` on the ambient metrics registry.
    """
    from repro.simgpu.batch import simulate_frame_range_multi

    trace = context
    configs, start, stop, phase = payload
    per_config = simulate_frame_range_multi(trace, configs, start, stop)
    current_obs().metrics.inc(
        "frames_simulated", (stop - start) * len(configs), phase=phase
    )
    return TaskResult(tuple(tuple(outputs) for outputs in per_config))


@task_function("cluster_frame_range")
def _cluster_frame_range(context: Any, payload: Any) -> TaskResult:
    """Cluster frames ``[start, stop)`` of the context trace.

    Records ``frames_clustered`` and the cluster-count and cluster-size
    distributions (``frame_cluster_count``, ``cluster_size`` histograms)
    on the ambient metrics registry.
    """
    from repro.core.cluster_frame import cluster_frame
    from repro.core.features import FeatureExtractor

    trace = context
    params, start, stop = payload
    extractor = FeatureExtractor(trace)
    metrics = current_obs().metrics
    clusterings = []
    for i in range(start, stop):
        clustering = cluster_frame(
            extractor.frame_matrix(trace.frames[i]), **dict(params)
        )
        metrics.observe("frame_cluster_count", clustering.num_clusters)
        for weight in clustering.weights:
            metrics.observe("cluster_size", float(weight))
        clusterings.append(clustering)
    metrics.inc("frames_clustered", stop - start)
    return TaskResult(tuple(clusterings))
