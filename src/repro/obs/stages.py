"""Stage timing: a run's coarse regions, timed into its metrics registry.

A *stage* is a named region of a command (``ground_truth``, ``cluster``,
``predict``, ...).  :func:`stage` opens a ``stage`` span on the run's
tracer and records the region's wall seconds into the run's
:class:`~repro.obs.metrics.Metrics` registry as the histogram series
``stage_s{stage=<name>,level=top|nested}``.  A stage is ``top`` when no
other stage of the same registry is open in the current thread, and
``nested`` otherwise, so a total over top-level stages never counts a
second twice.

Worker-side stage time (the engine's ``worker.<kind>``, always nested:
it elapses inside a parent-side stage) ships back through
:meth:`~repro.obs.metrics.Metrics.dump` / ``merge`` like every other
series.  Run records read the series back through
:func:`stage_seconds` as ``stages`` / ``top_stages``; it is not
flattened into the record's gated ``metrics``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple

from repro.obs.context import ObsContext, current_obs
from repro.obs.metrics import Metrics, MetricsSnapshot

#: Histogram series holding stage wall time, labeled ``{stage, level}``.
STAGE_SERIES = "stage_s"

# ids of the registries with a stage open in this thread/context.
_OPEN_STAGES: ContextVar[Tuple[int, ...]] = ContextVar(
    "repro_open_stages", default=()
)


def record_stage(
    metrics: Metrics, name: str, seconds: float, top: bool = False
) -> None:
    """Add ``seconds`` of stage ``name`` to ``metrics``."""
    metrics.observe(
        STAGE_SERIES, seconds, stage=name, level="top" if top else "nested"
    )


@contextmanager
def stage(name: str, obs: Optional[ObsContext] = None) -> Iterator[None]:
    """Time the body as stage ``name`` of ``obs`` (default: the ambient run)."""
    obs = obs if obs is not None else current_obs()
    registry = id(obs.metrics)
    open_stages = _OPEN_STAGES.get()
    token = _OPEN_STAGES.set(open_stages + (registry,))
    start = time.perf_counter()
    try:
        with obs.tracer.span(name, category="stage"):
            yield
    finally:
        _OPEN_STAGES.reset(token)
        record_stage(
            obs.metrics, name, time.perf_counter() - start,
            top=registry not in open_stages,
        )


def stage_seconds(
    snapshot: MetricsSnapshot,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(stages, top_stages)``: seconds per stage, all levels and top only."""
    stages: Dict[str, float] = {}
    top: Dict[str, float] = {}
    for (name, labels), hist in snapshot.histograms.items():
        if name != STAGE_SERIES:
            continue
        label = dict(labels)
        stage_name = label["stage"]
        stages[stage_name] = stages.get(stage_name, 0.0) + hist.total
        if label["level"] == "top":
            top[stage_name] = top.get(stage_name, 0.0) + hist.total
    return stages, top


def summary_line(snapshot: MetricsSnapshot) -> str:
    """The one-line ``[runtime]`` digest the CLI and reports print."""
    parts = [
        f"tasks={snapshot.counter_total('tasks_run')}",
        f"frames_simulated={snapshot.counter_total('frames_simulated')}",
        f"cache_hits={snapshot.counter_total('cache_hits')}",
        f"cache_misses={snapshot.counter_total('cache_misses')}",
    ]
    stages, top = stage_seconds(snapshot)
    if not stages:
        # All-cache-hit runs and bare engine use time no stage; say so
        # instead of silently dropping the column.
        parts.append("no stages recorded")
    else:
        parts.append(f"stage_time={sum(top.values()):.2f}s")
    return "[runtime] " + " ".join(parts)
