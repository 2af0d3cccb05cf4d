"""Dependency-aware task engine and the user-facing :class:`Runtime`.

The engine executes a task graph either inline (``jobs=1`` — the serial
fallback, bit-identical to the pre-runtime code paths) or on a
``ProcessPoolExecutor``.  The run's shared ``context`` (typically the
trace) ships to each worker once via the pool initializer instead of
once per task; per-task child seeds come from
:func:`repro.util.rng.spawn_worker_seed`, so results never depend on
worker count or completion order.

Observability rides the same rails: each task runs under an ambient
:class:`~repro.obs.context.ObsContext` and inside a ``task:<kind>``
span.  Inline tasks record straight into the parent's tracer/metrics;
pool tasks record into a worker-local pair — rooted at the span id the
parent captured at submit time — and ship spans, timers, and metric
dumps back inside the :class:`~repro.runtime.tasks.TaskResult`, where
:meth:`TaskEngine._finish` folds them in (the counter-merge pattern,
generalized).

:class:`Runtime` bundles an engine, a content-addressed
:class:`~repro.runtime.cache.ArtifactCache`, and a
:class:`~repro.runtime.telemetry.Telemetry` into the object the
pipeline, suite, sweep, and CLI layers thread through.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.obs.context import ObsContext, activate_obs
from repro.obs.metrics import Metrics
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.spans import NULL_TRACER, Tracer
from repro.runtime.cache import CACHE_MISS, ArtifactCache, NullCache
from repro.runtime.keys import task_key
from repro.runtime.tasks import Task, TaskResult, resolve_task_function
from repro.runtime.telemetry import Telemetry, TelemetrySnapshot
from repro.util.rng import spawn_worker_seed

if TYPE_CHECKING:
    from repro.gfx.trace import Trace
    from repro.simgpu.batch import BatchFrameOutput
    from repro.simgpu.config import GpuConfig
    from repro.simgpu.simulator import TraceResult

#: Anything the engine can consult for artifacts: the real store or the
#: inert default.  (A Protocol would be overkill for two shapes.)
CacheLike = Union[ArtifactCache, NullCache]

_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(
    context: Any,
    kind: str,
    payload: Any,
    dep_values: Dict[str, Any],
    seed: Optional[int],
) -> TaskResult:
    """Execute one task body (same code inline and in workers)."""
    if seed is not None:
        # Seed the legacy global stream so any np.random fallback inside a
        # task is reproducible per task identity, not per worker schedule.
        np.random.seed(seed % 2**32)
    fn = resolve_task_function(kind)
    result = fn(context, payload, dep_values)
    if not isinstance(result, TaskResult):
        result = TaskResult(result)
    return result


def _execute_in_worker(blob: bytes) -> TaskResult:
    # The work item arrives pre-pickled: the parent serializes it before
    # submit so an unpicklable payload raises there, synchronously, instead
    # of poisoning the executor's feeder thread (which deadlocks
    # ``shutdown(wait=True)`` on CPython 3.11).
    kind, payload, dep_values, seed, task_id, parent_span_id, trace_on = (
        pickle.loads(blob)
    )
    tracer = Tracer(root_parent_id=parent_span_id) if trace_on else NULL_TRACER
    metrics = Metrics()
    start = time.perf_counter()
    with activate_obs(ObsContext(tracer=tracer, metrics=metrics)):
        with tracer.span(f"task:{kind}", category="task", task_id=task_id):
            result = _run_task(_WORKER_CONTEXT, kind, payload, dep_values, seed)
    elapsed = time.perf_counter() - start
    metrics.observe("task_wall_s", elapsed, worker=str(os.getpid()))
    return TaskResult(
        value=result.value,
        counters=result.counters,
        timers={**result.timers, f"worker.{kind}": elapsed},
        metrics=metrics.dump(),
        spans=tuple(tracer.drain()),
    )


def _topological_order(tasks: Sequence[Task]) -> List[Task]:
    """Kahn's algorithm, stable with respect to submission order."""
    by_id: Dict[str, Task] = {}
    for task in tasks:
        if task.task_id in by_id:
            raise ConfigError(f"duplicate task id {task.task_id!r}")
        by_id[task.task_id] = task
    children: Dict[str, List[str]] = {task.task_id: [] for task in tasks}
    blocked_by: Dict[str, int] = {}
    for task in tasks:
        for dep in task.deps:
            if dep not in by_id:
                raise ConfigError(
                    f"task {task.task_id!r} depends on unknown task {dep!r}"
                )
            children[dep].append(task.task_id)
        blocked_by[task.task_id] = len(task.deps)
    ready = [task for task in tasks if blocked_by[task.task_id] == 0]
    order: List[Task] = []
    cursor = 0
    while cursor < len(ready):
        task = ready[cursor]
        cursor += 1
        order.append(task)
        for child_id in children[task.task_id]:
            blocked_by[child_id] -= 1
            if blocked_by[child_id] == 0:
                ready.append(by_id[child_id])
    if len(order) != len(tasks):
        stuck = sorted(tid for tid, n in blocked_by.items() if n > 0)
        raise ConfigError(f"task graph has a dependency cycle involving {stuck}")
    return order


class TaskEngine:
    """Executes task graphs serially or on a process pool.

    ``jobs=1`` runs every task inline in topological submission order —
    no subprocesses, no pickling — and is the reference behavior the
    parallel path must reproduce exactly (results, counters, and span
    counts alike).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[CacheLike] = None,
        telemetry: Optional[Telemetry] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigError(f"jobs must be an int >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = cache if cache is not None else NullCache()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.progress = progress if progress is not None else NULL_PROGRESS

    # -- execution ---------------------------------------------------------

    def run(
        self, tasks: Sequence[Task], context: Any = None
    ) -> Dict[str, Any]:
        """Execute ``tasks`` and return ``{task_id: value}``.

        Cached tasks (``cache_key`` set, entry present) are resolved
        without executing — or submitting — anything.  A task exception
        propagates to the caller with its original type; remaining tasks
        are cancelled.
        """
        order = _topological_order(tasks)
        results: Dict[str, Any] = {}
        pending: List[Task] = []
        for task in order:
            if task.cache_key is not None:
                hit = self.cache.get(task.cache_key)
                if hit is not CACHE_MISS:
                    results[task.task_id] = hit
                    self.telemetry.count("tasks_from_cache")
                    continue
            pending.append(task)
        if not pending:
            return results
        self.progress.begin(len(pending))
        if self.jobs == 1 or len(pending) == 1:
            # A one-task graph gains nothing from a pool: spinning up a
            # worker process costs orders of magnitude more than the
            # inline dispatch, and the inline path is the reference
            # behavior anyway.
            self._run_serial(pending, context, results)
        else:
            self._run_pool(pending, context, results)
        self.progress.finish(
            len(pending), len(pending), self._frames_simulated()
        )
        return results

    def _frames_simulated(self) -> int:
        return self.telemetry.counter("frames_simulated")

    def _finish(self, task: Task, result: TaskResult, results: Dict[str, Any]) -> None:
        results[task.task_id] = result.value
        self.telemetry.count("tasks_run")
        if result.counters:
            self.telemetry.merge_counters(result.counters)
        if result.timers:
            self.telemetry.merge_timers(result.timers)
        if result.metrics:
            self.telemetry.metrics.merge(result.metrics)
        if result.spans:
            self.telemetry.tracer.merge(result.spans)
        if task.cache_key is not None:
            self.cache.put(task.cache_key, result.value)

    def _dep_values(self, task: Task, results: Dict[str, Any]) -> Dict[str, Any]:
        return {dep: results[dep] for dep in task.deps}

    def _run_serial(
        self, pending: List[Task], context: Any, results: Dict[str, Any]
    ) -> None:
        telemetry = self.telemetry
        obs = ObsContext(tracer=telemetry.tracer, metrics=telemetry.metrics)
        total = len(pending)
        with activate_obs(obs):
            for done, task in enumerate(pending, start=1):
                start = time.perf_counter()
                try:
                    with telemetry.tracer.span(
                        f"task:{task.kind}", category="task", task_id=task.task_id
                    ):
                        result = _run_task(
                            context, task.kind, task.payload,
                            self._dep_values(task, results), task.seed,
                        )
                except Exception:
                    telemetry.count("tasks_failed")
                    raise
                elapsed = time.perf_counter() - start
                telemetry.observe("task_wall_s", elapsed, worker="main")
                telemetry.merge_timers({f"worker.{task.kind}": elapsed})
                self._finish(task, result, results)
                self.progress.task_done(done, total, self._frames_simulated())

    def _run_pool(
        self, pending: List[Task], context: Any, results: Dict[str, Any]
    ) -> None:
        children: Dict[str, List[Task]] = {}
        blocked_by: Dict[str, int] = {}
        for task in pending:
            # Deps already satisfied from cache don't block execution.
            open_deps = [dep for dep in task.deps if dep not in results]
            blocked_by[task.task_id] = len(open_deps)
            for dep in open_deps:
                children.setdefault(dep, []).append(task)
        ready = [task for task in pending if blocked_by[task.task_id] == 0]
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)),
            initializer=_init_worker,
            initargs=(context,),
        )
        futures: Dict[Future[TaskResult], Task] = {}
        tracer = self.telemetry.tracer

        def submit(task: Task) -> None:
            try:
                blob = pickle.dumps(
                    (task.kind, task.payload,
                     self._dep_values(task, results), task.seed,
                     task.task_id, tracer.current_span_id(), tracer.enabled)
                )
            except Exception as exc:
                raise ConfigError(
                    f"task {task.task_id!r} payload cannot be sent to a "
                    f"worker process: {exc}"
                ) from exc
            futures[pool.submit(_execute_in_worker, blob)] = task

        total = len(pending)
        finished = 0
        heartbeat_s = self.progress.heartbeat_interval_s
        try:
            for task in ready:
                submit(task)
            while futures:
                done, _ = wait(
                    set(futures),
                    timeout=heartbeat_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Workers are still heads-down past the heartbeat
                    # interval: surface liveness rather than going dark.
                    self.progress.heartbeat(
                        finished, total, self._frames_simulated()
                    )
                    continue
                for future in done:
                    task = futures.pop(future)
                    try:
                        result = future.result()
                    except Exception:
                        self.telemetry.count("tasks_failed")
                        raise
                    self._finish(task, result, results)
                    finished += 1
                    self.progress.task_done(
                        finished, total, self._frames_simulated()
                    )
                    for child in children.get(task.task_id, ()):
                        blocked_by[child.task_id] -= 1
                        if blocked_by[child.task_id] == 0:
                            submit(child)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _chunk_ranges(
    num_items: int, num_chunks: int, min_items: int = 1
) -> List[Tuple[int, int]]:
    """Split ``[0, num_items)`` into contiguous near-equal ranges.

    ``min_items`` floors the chunk size: chunks smaller than it cost more
    in task dispatch than the work they carry, so the chunk count is
    reduced until every range holds at least ``min_items`` items (or one
    chunk remains).
    """
    if min_items > 1:
        num_chunks = min(num_chunks, max(1, num_items // min_items))
    num_chunks = max(1, min(num_chunks, num_items))
    base, extra = divmod(num_items, num_chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class Runtime:
    """Parallel, cache-aware execution facade for the pipeline layers.

    The default construction (``Runtime()`` / :meth:`Runtime.serial`) is
    the zero-surprise configuration: one process, no cache, results
    bit-identical to the historical serial code paths.  ``jobs=N`` adds
    process-pool parallelism; ``jobs="auto"`` sizes the pool to the host
    CPU count *and* falls back to inline execution for workloads smaller
    than ``serial_cutoff`` frames, where pool startup and pickling cost
    more than the simulation itself (results are identical either way —
    only the execution strategy adapts).  ``cache_dir=...`` (or a
    prebuilt ``cache``) adds the content-addressed artifact store, so
    repeated experiments and interrupted sweeps skip every
    already-computed simulation.

    ``tracer=Tracer()`` (or a prebuilt ``telemetry`` bound to one)
    enables hierarchical span tracing; the default
    :data:`~repro.obs.spans.NULL_TRACER` makes every span a no-op.
    """

    #: Below this many work items, ``jobs="auto"`` runs inline: on traces
    #: this small the process pool's startup + serialization overhead
    #: exceeds the simulation work (measured in BENCH_runtime.json).
    DEFAULT_SERIAL_CUTOFF = 32

    def __init__(
        self,
        jobs: Union[int, str] = 1,
        cache: Optional[CacheLike] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        telemetry: Optional[Telemetry] = None,
        tracer: Optional[object] = None,
        seed: int = 0,
        chunks_per_job: int = 2,
        serial_cutoff: Optional[int] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ConfigError("pass either cache or cache_dir, not both")
        if telemetry is not None and tracer is not None:
            raise ConfigError(
                "pass either telemetry (bound to a tracer) or tracer, not both"
            )
        if not isinstance(chunks_per_job, int) or chunks_per_job < 1:
            raise ConfigError(
                f"chunks_per_job must be an int >= 1, got {chunks_per_job!r}"
            )
        if serial_cutoff is not None and (
            not isinstance(serial_cutoff, int)
            or isinstance(serial_cutoff, bool)
            or serial_cutoff < 0
        ):
            raise ConfigError(
                f"serial_cutoff must be an int >= 0, got {serial_cutoff!r}"
            )
        self.adaptive = jobs == "auto"
        if self.adaptive:
            jobs = os.cpu_count() or 1
        self.serial_cutoff = (
            serial_cutoff if serial_cutoff is not None
            else self.DEFAULT_SERIAL_CUTOFF
        )
        if telemetry is None:
            telemetry = Telemetry(tracer=tracer)
        self.telemetry = telemetry
        if cache is None:
            cache = (
                ArtifactCache(cache_dir, telemetry=self.telemetry)
                if cache_dir is not None
                else NullCache()
            )
        if isinstance(cache, ArtifactCache) and cache.telemetry is None:
            cache.telemetry = self.telemetry
        self.cache = cache
        self.seed = seed
        self.chunks_per_job = chunks_per_job
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.engine = TaskEngine(
            jobs=jobs, cache=cache, telemetry=self.telemetry,
            progress=self.progress,
        )

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def tracer(self) -> Any:
        """The span tracer observability layers record into."""
        return self.telemetry.tracer

    @property
    def metrics(self) -> Metrics:
        """The labeled metrics registry behind the telemetry shim."""
        return self.telemetry.metrics

    @classmethod
    def serial(cls) -> "Runtime":
        """One process, no cache — the reference configuration."""
        return cls(jobs=1)

    # -- chunking ----------------------------------------------------------

    def _ranges(self, num_items: int) -> List[Tuple[int, int]]:
        """Work partition for ``num_items`` frames under this runtime.

        ``jobs="auto"`` runtimes return a single range for workloads
        under ``serial_cutoff`` (the engine runs one-task graphs inline,
        so small traces never touch the pool) and floor the chunk size
        for everything else; explicit ``jobs=N`` keeps the historical
        fixed partition.
        """
        if self.jobs == 1:
            return [(0, num_items)]
        if self.adaptive:
            if num_items < self.serial_cutoff:
                return [(0, num_items)]
            min_items = max(1, self.serial_cutoff // 4)
            return _chunk_ranges(
                num_items, self.jobs * self.chunks_per_job, min_items=min_items
            )
        return _chunk_ranges(num_items, self.jobs * self.chunks_per_job)

    # -- simulation --------------------------------------------------------

    def simulate_frames_many(
        self,
        trace: Trace,
        configs: Sequence[GpuConfig],
        label: str = "simulate",
    ) -> List[List[BatchFrameOutput]]:
        """Per-frame outputs of ``trace`` on every config, cache-first.

        One artifact per (trace content, config) pair; configs missing
        from the cache are simulated together in one task graph so each
        chunk computes the order-dependent context arrays once per
        distinct context signature (the DVFS-sweep sharing the serial
        batch path has always had).  ``label`` names the stage timer,
        the trace span, and the ``frames_simulated{phase=...}`` label.
        """
        configs = list(configs)
        if not configs:
            return []
        keys = [
            task_key("simulate_frames", trace=trace, config=config)
            for config in configs
        ]
        by_key: Dict[str, Any] = {}
        need: List[Tuple[str, Any]] = []
        for key, config in zip(keys, configs):
            if key in by_key or any(key == k for k, _ in need):
                continue
            hit = self.cache.get(key)
            if hit is not CACHE_MISS:
                by_key[key] = hit
            else:
                need.append((key, config))
        if need:
            need_configs = tuple(config for _, config in need)
            ranges = self._ranges(trace.num_frames)
            tasks = [
                Task(
                    task_id=f"{label}:{start}:{stop}",
                    kind="simulate_frame_range",
                    payload=(need_configs, start, stop, label),
                    seed=spawn_worker_seed(
                        self.seed, "simulate_frame_range", start, stop
                    ),
                )
                for start, stop in ranges
            ]
            self._prepublish_precomp(trace, len(tasks))
            with self.telemetry.timer(label):
                values = self.engine.run(tasks, context=trace)
            for position, (key, _) in enumerate(need):
                outputs: list = []
                for start, stop in ranges:
                    outputs.extend(values[f"{label}:{start}:{stop}"][position])
                by_key[key] = outputs
                self.cache.put(key, outputs)
        return [list(by_key[key]) for key in keys]

    def _prepublish_precomp(self, trace: "Trace", num_tasks: int) -> None:
        """Publish the trace's precompute to the shared store before fan-out.

        Only worth doing when the run will actually fan out (multiple
        tasks on a multi-job engine) *and* a compiled kernel backend is
        active: publishing from the parent is serial, so with the
        pure-python kernels it would cost more than letting each worker
        compute-and-publish its own chunk.  With compiled kernels the
        parent precomputes each frame once machine-wide and workers
        mmap the arrays instead of recomputing (ROADMAP item 2).
        """
        if num_tasks <= 1 or self.engine.jobs <= 1:
            return
        from repro.simgpu import _kernels
        from repro.simgpu.batch import prepublish_precomp
        from repro.simgpu.precomp_store import active_store

        if active_store() is None:
            return
        try:
            if _kernels.backend().name == "python":
                return
        except Exception:
            return
        with self.telemetry.timer("precomp_publish"):
            published = prepublish_precomp(trace)
        if published:
            self.telemetry.count("precomp_prepublished_frames", published)

    def simulate_frames(
        self, trace: Trace, config: GpuConfig, label: str = "simulate"
    ) -> List[BatchFrameOutput]:
        """Per-frame :class:`~repro.simgpu.batch.BatchFrameOutput` list."""
        return self.simulate_frames_many(trace, [config], label=label)[0]

    def simulate_trace(
        self, trace: Trace, config: GpuConfig, label: str = "simulate"
    ) -> TraceResult:
        """Cache-aware, parallel equivalent of ``simulate_trace_multi``."""
        from repro.simgpu.batch import trace_result_from_outputs

        outputs = self.simulate_frames(trace, config, label=label)
        return trace_result_from_outputs(trace.name, config.name, outputs)

    def total_time_ns(
        self, trace: Trace, config: GpuConfig, label: str = "simulate"
    ) -> float:
        """Whole-trace time on ``config`` (sum over per-frame outputs)."""
        return float(
            sum(out.time_ns for out in self.simulate_frames(trace, config, label))
        )

    # -- clustering --------------------------------------------------------

    def cluster_frames(self, trace: Trace, **params: object) -> list:
        """Per-frame clusterings of ``trace``, cache-first.

        ``params`` are forwarded to
        :func:`repro.core.cluster_frame.cluster_frame` verbatim and
        participate in the cache key.
        """
        key = task_key("cluster_frames", trace=trace, params=params)
        hit = self.cache.get(key)
        if hit is not CACHE_MISS:
            return list(hit)
        base_seed = params.get("seed")
        if not isinstance(base_seed, int) or isinstance(base_seed, bool):
            base_seed = self.seed
        payload_params = tuple(sorted(params.items()))
        ranges = self._ranges(trace.num_frames)
        tasks = [
            Task(
                task_id=f"cluster:{start}:{stop}",
                kind="cluster_frame_range",
                payload=(payload_params, start, stop),
                seed=spawn_worker_seed(
                    base_seed, "cluster_frame_range", start, stop
                ),
            )
            for start, stop in ranges
        ]
        with self.telemetry.timer("cluster"):
            values = self.engine.run(tasks, context=trace)
        clusterings: list = []
        for start, stop in ranges:
            clusterings.extend(values[f"cluster:{start}:{stop}"])
        self.cache.put(key, clusterings)
        return clusterings

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return self.telemetry.snapshot()

    def report(self) -> str:
        return self.telemetry.report()
