"""Parallel execution engine with a content-addressed artifact cache.

Pathfinding is embarrassingly parallel — hundreds of frames times
dozens of candidate architectures — and its artifacts are reused for
months.  This subsystem supplies the execution layer the rest of the
library runs on:

- :class:`~repro.runtime.engine.TaskEngine` — independent frame-range
  tasks on a process pool, with a serial ``jobs=1`` fallback that is
  bit-identical to the historical code paths;
- :class:`~repro.runtime.cache.ArtifactCache` — results keyed by a
  stable digest of (trace content, GPU config, algorithm parameters,
  format version), persisted on disk so re-runs and interrupted sweeps
  skip completed work;
- :class:`~repro.runtime.engine.Runtime` — the facade the pipeline,
  experiment, sweep, and CLI layers accept as ``runtime=``.  Its
  ``metrics`` (a :class:`~repro.obs.metrics.Metrics` registry) and
  ``tracer`` are the run's one telemetry API: counters (tasks run,
  cache hits/misses, frames simulated), histograms, and stage time
  (:func:`repro.obs.stages.stage`) all land there.

See ``docs/RUNTIME.md`` for the architecture, the cache-key recipe, and
the invalidation rules, and ``docs/OBSERVABILITY.md`` for the span
model and metric naming conventions.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CACHE_MISS,
    ArtifactCache,
    NullCache,
    default_cache_dir,
)
from repro.runtime.engine import Runtime, TaskEngine
from repro.runtime.keys import (
    CACHE_FORMAT_VERSION,
    config_digest,
    params_digest,
    task_key,
    trace_digest,
)
from repro.runtime.tasks import TASK_FUNCTIONS, Task, TaskResult, task_function

__all__ = [
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CACHE_MISS",
    "NullCache",
    "Runtime",
    "TASK_FUNCTIONS",
    "Task",
    "TaskEngine",
    "TaskResult",
    "config_digest",
    "default_cache_dir",
    "params_digest",
    "task_function",
    "task_key",
    "trace_digest",
]
