"""Task engine and the user-facing :class:`Runtime`.

The engine executes a list of independent tasks (contiguous frame
ranges) either inline (``jobs=1`` — the serial fallback, bit-identical
to the pre-runtime code paths) or on a ``ProcessPoolExecutor``.  The
run's shared ``context`` (typically the trace) ships to each worker
once via the pool initializer instead of once per task; per-task child
seeds come from :func:`repro.util.rng.spawn_worker_seed`, so results
never depend on worker count or completion order.

Observability rides the same rails: each task runs under an ambient
:class:`~repro.obs.context.ObsContext` and inside a ``task:<kind>``
span.  Inline tasks record straight into the parent's tracer/metrics;
pool tasks record into a worker-local pair — rooted at the span id the
parent captured at submit time — and ship spans and a metrics dump
(stage time included) back inside the
:class:`~repro.runtime.tasks.TaskResult`, where
:meth:`TaskEngine._finish` folds them in.

:class:`Runtime` bundles an engine, a content-addressed
:class:`~repro.runtime.cache.ArtifactCache`, and the run's
:class:`~repro.obs.context.ObsContext` (metrics registry plus tracer)
into the object the pipeline, experiment, sweep, and CLI layers
thread through.
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
from repro.obs.metrics import Metrics, MetricsSnapshot
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.spans import NULL_TRACER, Tracer
from repro.obs.stages import record_stage, stage
from repro.runtime.cache import CACHE_MISS, ArtifactCache, NullCache
from repro.runtime.keys import task_key
from repro.runtime.tasks import Task, TaskResult, resolve_task_function
from repro.util.rng import spawn_worker_seed

if TYPE_CHECKING:
    from repro.gfx.trace import Trace
    from repro.simgpu.batch import BatchFrameOutput
    from repro.simgpu.config import GpuConfig
    from repro.simgpu.simulator import TraceResult

_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(
    context: Any, kind: str, payload: Any, seed: Optional[int]
) -> TaskResult:
    """Execute one task body (same code inline and in workers)."""
    if seed is not None:
        # Seed the legacy global stream so any np.random fallback inside a
        # task is reproducible per task identity, not per worker schedule.
        np.random.seed(seed % 2**32)
    fn = resolve_task_function(kind)
    result = fn(context, payload)
    if not isinstance(result, TaskResult):
        result = TaskResult(result)
    return result


def _execute_in_worker(blob: bytes) -> TaskResult:
    # The work item arrives pre-pickled: the parent serializes it before
    # submit so an unpicklable payload raises there, synchronously, instead
    # of poisoning the executor's feeder thread (which deadlocks
    # ``shutdown(wait=True)`` on CPython 3.11).
    kind, payload, seed, task_id, parent_span_id, trace_on = pickle.loads(blob)
    tracer = Tracer(root_parent_id=parent_span_id) if trace_on else NULL_TRACER
    metrics = Metrics()
    start = time.perf_counter()
    with activate_obs(ObsContext(tracer=tracer, metrics=metrics)):
        with tracer.span(f"task:{kind}", category="task", task_id=task_id):
            result = _run_task(_WORKER_CONTEXT, kind, payload, seed)
    elapsed = time.perf_counter() - start
    metrics.observe("task_wall_s", elapsed, worker=str(os.getpid()))
    record_stage(metrics, f"worker.{kind}", elapsed)
    return TaskResult(
        value=result.value, metrics=metrics.dump(), spans=tuple(tracer.drain())
    )


class TaskEngine:
    """Executes a list of independent tasks serially or on a process pool.

    ``jobs=1`` runs every task inline in submission order — no
    subprocesses, no pickling — and is the reference behavior the
    parallel path must reproduce exactly (results, counters, and span
    counts alike).
    """

    def __init__(
        self,
        jobs: int = 1,
        obs: Optional[ObsContext] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigError(f"jobs must be an int >= 1, got {jobs!r}")
        self.jobs = jobs
        self.obs = obs if obs is not None else ObsContext()
        self.progress = progress if progress is not None else NULL_PROGRESS

    # -- execution ---------------------------------------------------------

    def run(
        self, tasks: Sequence[Task], context: Any = None
    ) -> Dict[str, Any]:
        """Execute ``tasks`` and return ``{task_id: value}``.

        A task exception propagates to the caller with its original
        type; remaining tasks are cancelled.
        """
        seen: set = set()
        for task in tasks:
            if task.task_id in seen:
                raise ConfigError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
        results: Dict[str, Any] = {}
        if not tasks:
            return results
        total = len(tasks)
        self.progress.begin(total)
        if self.jobs == 1 or total == 1:
            # One task gains nothing from a pool: spinning up a worker
            # process costs orders of magnitude more than the inline
            # dispatch, and the inline path is the reference behavior
            # anyway.
            self._run_serial(tasks, context, results)
        else:
            self._run_pool(tasks, context, results)
        self.progress.finish(total, total, self._frames_simulated())
        return results

    def _frames_simulated(self) -> int:
        return self.obs.metrics.counter_total("frames_simulated")

    def _finish(self, task: Task, result: TaskResult, results: Dict[str, Any]) -> None:
        results[task.task_id] = result.value
        self.obs.metrics.inc("tasks_run")
        self.obs.metrics.merge(result.metrics)
        self.obs.tracer.merge(result.spans)

    def _run_serial(
        self, tasks: Sequence[Task], context: Any, results: Dict[str, Any]
    ) -> None:
        metrics, tracer = self.obs.metrics, self.obs.tracer
        total = len(tasks)
        with activate_obs(self.obs):
            for done, task in enumerate(tasks, start=1):
                start = time.perf_counter()
                try:
                    with tracer.span(
                        f"task:{task.kind}", category="task", task_id=task.task_id
                    ):
                        result = _run_task(
                            context, task.kind, task.payload, task.seed
                        )
                except Exception:
                    metrics.inc("tasks_failed")
                    raise
                elapsed = time.perf_counter() - start
                metrics.observe("task_wall_s", elapsed, worker="main")
                record_stage(metrics, f"worker.{task.kind}", elapsed)
                self._finish(task, result, results)
                self.progress.task_done(done, total, self._frames_simulated())

    def _run_pool(
        self, tasks: Sequence[Task], context: Any, results: Dict[str, Any]
    ) -> None:
        tracer = self.obs.tracer
        blobs = []
        for task in tasks:
            try:
                blobs.append(pickle.dumps(
                    (task.kind, task.payload, task.seed, task.task_id,
                     tracer.current_span_id(), tracer.enabled)
                ))
            except Exception as exc:
                raise ConfigError(
                    f"task {task.task_id!r} payload cannot be sent to a "
                    f"worker process: {exc}"
                ) from exc
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(context,),
        )
        total = len(tasks)
        finished = 0
        heartbeat_s = self.progress.heartbeat_interval_s
        try:
            futures: Dict[Future[TaskResult], Task] = {
                pool.submit(_execute_in_worker, blob): task
                for task, blob in zip(tasks, blobs)
            }
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
                        self.obs.metrics.inc("tasks_failed")
                        raise
                    self._finish(task, result, results)
                    finished += 1
                    self.progress.task_done(
                        finished, total, self._frames_simulated()
                    )
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
    than :attr:`SERIAL_CUTOFF` frames, where pool startup and pickling
    cost more than the simulation itself (results are identical either
    way — only the execution strategy adapts).  ``cache_dir=...`` adds
    the content-addressed artifact store, so repeated experiments and
    interrupted sweeps skip every already-computed simulation.

    ``tracer=Tracer()`` enables hierarchical span tracing; the default
    :data:`~repro.obs.spans.NULL_TRACER` makes every span a no-op.
    ``metrics`` is the run's registry (a fresh one by default); counters,
    histograms, and stage time of every layer below land in it.
    """

    #: Below this many work items, ``jobs="auto"`` runs inline: on traces
    #: this small the process pool's startup + serialization overhead
    #: exceeds the simulation work (measured in BENCH_runtime.json).
    SERIAL_CUTOFF = 32

    #: Frame-range tasks per worker process: two keeps a pool busy when
    #: chunks finish unevenly without multiplying per-task overhead.
    CHUNKS_PER_JOB = 2

    #: Base of every per-task seed (see :func:`spawn_worker_seed`);
    #: clustering params that carry their own ``seed`` override it.
    SEED = 0

    def __init__(
        self,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[object] = None,
        progress: Optional[Union[ProgressReporter, NullProgress]] = None,
    ) -> None:
        self.adaptive = jobs == "auto"
        if self.adaptive:
            jobs = os.cpu_count() or 1
        self.obs = ObsContext(
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics if metrics is not None else Metrics(),
        )
        self.cache: Union[ArtifactCache, NullCache] = (
            ArtifactCache(cache_dir, metrics=self.metrics)
            if cache_dir is not None
            else NullCache()
        )
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.engine = TaskEngine(jobs=jobs, obs=self.obs, progress=self.progress)

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def tracer(self) -> Any:
        """The span tracer observability layers record into."""
        return self.obs.tracer

    @property
    def metrics(self) -> Metrics:
        """The run's labeled metrics registry."""
        return self.obs.metrics

    @classmethod
    def serial(cls) -> "Runtime":
        """One process, no cache — the reference configuration."""
        return cls(jobs=1)

    # -- chunking ----------------------------------------------------------

    def _ranges(self, num_items: int) -> List[Tuple[int, int]]:
        """Work partition for ``num_items`` frames under this runtime.

        ``jobs="auto"`` runtimes return a single range for workloads
        under :attr:`SERIAL_CUTOFF` (the engine runs a single task
        inline, so small traces never touch the pool) and floor the chunk size
        for everything else; explicit ``jobs=N`` keeps the historical
        fixed partition.
        """
        if self.jobs == 1:
            return [(0, num_items)]
        if self.adaptive:
            if num_items < self.SERIAL_CUTOFF:
                return [(0, num_items)]
            min_items = max(1, self.SERIAL_CUTOFF // 4)
            return _chunk_ranges(
                num_items, self.jobs * self.CHUNKS_PER_JOB, min_items=min_items
            )
        return _chunk_ranges(num_items, self.jobs * self.CHUNKS_PER_JOB)

    # -- simulation --------------------------------------------------------

    def simulate_frames_many(
        self,
        trace: Trace,
        configs: Sequence[GpuConfig],
        label: str = "simulate",
    ) -> List[List[BatchFrameOutput]]:
        """Per-frame outputs of ``trace`` on every config, cache-first.

        One artifact per (trace content, config) pair; configs missing
        from the cache are simulated together, one task per frame range,
        so each chunk computes the order-dependent context arrays once
        per distinct context signature (the DVFS-sweep sharing the serial
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
                        self.SEED, "simulate_frame_range", start, stop
                    ),
                )
                for start, stop in ranges
            ]
            self._prepublish_precomp(trace, len(tasks))
            with stage(label, self.obs):
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
        with stage("precomp_publish", self.obs):
            published = prepublish_precomp(trace)
        if published:
            self.metrics.inc("precomp_prepublished_frames", published)

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
            base_seed = self.SEED
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
        with stage("cluster", self.obs):
            values = self.engine.run(tasks, context=trace)
        clusterings: list = []
        for start, stop in ranges:
            clusterings.extend(values[f"cluster:{start}:{stop}"])
        self.cache.put(key, clusterings)
        return clusterings

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()
