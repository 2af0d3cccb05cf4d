#!/usr/bin/env python
"""Precompute fast-path benchmark: compiled kernels + shared mmap store.

Two measured layers, written to ``BENCH_precomp.json`` at the repo root:

- **precompute_layer** — the cold single-process frame-precompute pass
  (``precompute_frame`` over every frame) with ``REPRO_KERNELS=python`` vs the resolved
  compiled backend (numba or the bundled C extension).  Parity is
  asserted bit for bit: every ``FramePrecomp`` array must satisfy
  ``==``, so the reported ``parity_max_rel_err`` is exactly 0.0.
- **sweep_layer** — end-to-end multi-process sweeps (fresh ``Runtime``
  per round, process-pool fan-out, no artifact cache) in three modes:
  ``recompute_python`` (store disabled, pure-python kernels — the
  per-worker-recompute path as it existed before the fast path),
  ``recompute_compiled`` (store disabled, compiled kernels), and
  ``shared_store`` (compiled kernels + the shared mmap precompute
  store).  The headline speedup compares ``shared_store`` against
  ``recompute_python``; the marginal store-only win over compiled
  recompute is reported alongside, so each factor's contribution is
  visible.  All three modes must produce bit-identical outputs.

Gates (CI smoke): ``--min-precomp-speedup R`` fails the run unless the
compiled precompute layer beats python by at least R; ``--min-store-
speedup R`` does the same for the sweep headline.  Both gates are
skipped (with a note) when no compiled backend resolves on the host.
(Function names deliberately avoid the ``bench_*`` pattern that pytest
collects from this directory; this script is standalone.)

    python benchmarks/bench_precomp_store.py [--frames N] [--scale S]
        [--jobs N] [--rounds N] [--min-precomp-speedup R]
        [--min-store-speedup R]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets  # noqa: E402
from repro.obs.history import record_run  # noqa: E402
from repro.runtime.engine import Runtime  # noqa: E402
from repro.simgpu import _kernels  # noqa: E402
from repro.simgpu.batch import clear_precomp_cache, precompute_frame  # noqa: E402
from repro.simgpu.config import GpuConfig  # noqa: E402
from repro.simgpu.precomp_store import PRECOMP_DIR_ENV  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_precomp.json"

#: Store hit/miss/publish counters surfaced per sweep mode (worker-side
#: counts merge back into the runtime's telemetry with the task results).
STORE_COUNTERS = (
    "precomp_store_hits",
    "precomp_store_misses",
    "precomp_store_publishes",
    "precomp_prepublished_frames",
)


def _use_backend(name: str) -> None:
    os.environ[_kernels.KERNELS_ENV] = name
    _kernels._reset_backend_cache()
    clear_precomp_cache()


def _array_fields(fp) -> list:
    return [
        (f.name, getattr(fp, f.name))
        for f in dataclasses.fields(fp)
        if isinstance(getattr(fp, f.name), np.ndarray)
    ]


def _precompute_frames(trace) -> list:
    """Uncached ``FramePrecomp`` of every frame of ``trace``."""
    return [precompute_frame(trace, frame) for frame in trace.frames]


def _precomp_parity(reference, candidate) -> float:
    """Exact-parity check between two per-frame ``FramePrecomp`` lists.

    Returns the worst relative error over every array column — the
    fast-path contract makes that exactly 0.0, and the caller asserts
    it; a nonzero return only happens on the way to a raised error.
    """
    worst = 0.0
    for ref_fp, new_fp in zip(reference, candidate):
        for name, ref_arr in _array_fields(ref_fp):
            new_arr = getattr(new_fp, name)
            if np.array_equal(ref_arr, new_arr):
                continue
            with np.errstate(invalid="ignore"):
                ref_f = np.asarray(ref_arr, dtype=np.float64)
                new_f = np.asarray(new_arr, dtype=np.float64)
                scale = np.maximum(np.abs(ref_f), 1.0)
                worst = max(worst, float(np.max(np.abs(ref_f - new_f) / scale)))
    return worst


def measure_precompute_layer(trace, reps: int) -> dict:
    """Cold single-process precompute: python vs the compiled backend."""

    def cold_best(backend: str) -> float:
        best = float("inf")
        for _ in range(reps):
            _use_backend(backend)
            start = time.perf_counter()
            _precompute_frames(trace)
            best = min(best, time.perf_counter() - start)
        return best

    _use_backend("auto")
    compiled = _kernels.backend().name
    python_s = cold_best("python")
    record = {
        "reps_best_of": reps,
        "compiled_backend": None if compiled == "python" else compiled,
        "trace_precompute_s": {"python": round(python_s, 4)},
        "speedup_compiled_vs_python": None,
        "parity_max_rel_err": None,
    }
    if compiled == "python":
        return record

    compiled_s = cold_best(compiled)
    _use_backend("python")
    reference = _precompute_frames(trace)
    _use_backend(compiled)
    candidate = _precompute_frames(trace)
    parity = _precomp_parity(reference, candidate)
    assert parity == 0.0, (
        f"compiled precompute diverged from python reference: {parity}"
    )
    record["trace_precompute_s"][compiled] = round(compiled_s, 4)
    record["speedup_compiled_vs_python"] = round(python_s / compiled_s, 2)
    record["parity_max_rel_err"] = parity
    return record


def _sweep_rounds(trace, jobs: int, rounds: int, configs_per_round: int):
    """Fresh-Runtime sweep rounds; returns (total_s, outputs, counters).

    Each round is a new ``Runtime`` (its own process pool, no artifact
    cache) over a distinct candidate set — the job-queue service
    pattern, where every sweep request fans out against the same trace.
    ``clear_precomp_cache()`` before each round keeps the comparison
    honest: the fork-based pool must not inherit a warm parent memo.
    """
    base = GpuConfig.preset("mainstream")
    total = 0.0
    outputs = []
    counters = {name: 0 for name in STORE_COUNTERS}
    for round_index in range(rounds):
        configs = [
            base.scaled(
                name=f"round{round_index}-cand{i}",
                core_clock_mhz=base.core_clock_mhz * (0.85 + 0.05 * i),
                tex_cache_kb=base.tex_cache_kb * (1 + i % 2),
            )
            for i in range(configs_per_round)
        ]
        clear_precomp_cache()
        runtime = Runtime(jobs=jobs)
        start = time.perf_counter()
        outputs.append(runtime.simulate_frames_many(trace, configs, "bench"))
        total += time.perf_counter() - start
        for name in STORE_COUNTERS:
            counters[name] += runtime.metrics.counter_total(name)
    return total, outputs, counters


def _sweep_parity(reference, candidate) -> float:
    worst = 0.0
    for ref_round, new_round in zip(reference, candidate):
        for ref_outputs, new_outputs in zip(ref_round, new_round):
            for ref_frame, new_frame in zip(ref_outputs, new_outputs):
                for attr in ("time_ns", "core_cycles", "dram_cycles"):
                    ref_value = getattr(ref_frame, attr)
                    new_value = getattr(new_frame, attr)
                    scale = max(abs(ref_value), 1.0)
                    worst = max(worst, abs(ref_value - new_value) / scale)
    return worst


def measure_sweep_layer(
    trace, jobs: int, rounds: int, configs_per_round: int
) -> dict:
    modes = {}
    counters = {}
    outputs = {}

    os.environ[PRECOMP_DIR_ENV] = ""  # store disabled
    _use_backend("python")
    modes["recompute_python"], outputs["recompute_python"], counters[
        "recompute_python"
    ] = _sweep_rounds(trace, jobs, rounds, configs_per_round)

    _use_backend("auto")
    compiled = _kernels.backend().name
    if compiled != "python":
        modes["recompute_compiled"], outputs["recompute_compiled"], counters[
            "recompute_compiled"
        ] = _sweep_rounds(trace, jobs, rounds, configs_per_round)

        with tempfile.TemporaryDirectory(prefix="repro-precomp-") as tmp:
            os.environ[PRECOMP_DIR_ENV] = tmp
            modes["shared_store"], outputs["shared_store"], counters[
                "shared_store"
            ] = _sweep_rounds(trace, jobs, rounds, configs_per_round)
            stored_frames = len(list(Path(tmp).rglob("*.fpc")))
        os.environ[PRECOMP_DIR_ENV] = ""
        clear_precomp_cache()

    parity = max(
        _sweep_parity(outputs["recompute_python"], candidate)
        for candidate in outputs.values()
    )
    assert parity == 0.0, (
        f"sweep modes diverged (store/kernels must be bit-identical): {parity}"
    )

    record = {
        "jobs": jobs,
        "rounds": rounds,
        "configs_per_round": configs_per_round,
        "compiled_backend": None if compiled == "python" else compiled,
        "total_s": {name: round(s, 4) for name, s in modes.items()},
        "speedup_store_vs_python_recompute": None,
        "speedup_store_vs_compiled_recompute": None,
        "store_counters": counters,
        "parity_max_rel_err": parity,
    }
    if "shared_store" in modes:
        record["speedup_store_vs_python_recompute"] = round(
            modes["recompute_python"] / modes["shared_store"], 2
        )
        record["speedup_store_vs_compiled_recompute"] = round(
            modes["recompute_compiled"] / modes["shared_store"], 2
        )
        record["store_frames_published"] = stored_frames
    return record


def run_benchmark(args) -> dict:
    trace = datasets.load("bioshock1_like", frames=args.frames, scale=args.scale)
    precompute_layer = measure_precompute_layer(trace, args.reps)

    sweep_trace = (
        trace
        if args.sweep_frames == args.frames
        else datasets.load(
            "bioshock1_like", frames=args.sweep_frames, scale=args.scale
        )
    )
    sweep_layer = measure_sweep_layer(
        sweep_trace, args.jobs, args.rounds, args.configs
    )

    return {
        "trace": trace.name,
        "frames": trace.num_frames,
        "draws": trace.num_draws,
        "sweep_frames": sweep_trace.num_frames,
        "kernels": _kernels.kernel_info(),
        "precompute_layer": precompute_layer,
        "sweep_layer": sweep_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--sweep-frames", type=int, default=48)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--configs", type=int, default=2)
    parser.add_argument(
        "--min-precomp-speedup",
        type=float,
        default=None,
        help=(
            "fail unless the compiled precompute layer beats python by "
            "at least this factor (skipped if no compiled backend)"
        ),
    )
    parser.add_argument(
        "--min-store-speedup",
        type=float,
        default=None,
        help=(
            "fail unless shared_store beats recompute_python end to end "
            "by at least this factor (skipped if no compiled backend)"
        ),
    )
    parser.add_argument("-o", "--output", default=str(OUTPUT_PATH))
    args = parser.parse_args(argv)

    record = run_benchmark(args)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    precomp = record["precompute_layer"]
    sweep = record["sweep_layer"]
    record_run(
        "bench:precomp_store",
        argv=sys.argv[1:],
        metrics={
            "gauge:precomp_compiled_speedup": float(
                precomp["speedup_compiled_vs_python"] or 0.0
            ),
            "gauge:sweep_store_speedup": float(
                sweep["speedup_store_vs_python_recompute"] or 0.0
            ),
            "gauge:precomp_parity_max_rel_err": float(
                precomp["parity_max_rel_err"] or 0.0
            ),
            "counter:precomp_store_hits": int(
                sweep["store_counters"]
                .get("shared_store", {})
                .get("precomp_store_hits", 0)
            ),
        },
        stages={
            f"sweep_{name}": seconds
            for name, seconds in sweep["total_s"].items()
        },
        extra={
            "trace": record["trace"],
            "kernels": record["kernels"],
            "jobs": sweep["jobs"],
        },
    )

    print(
        f"{record['trace']}: {record['frames']} frames, "
        f"{record['draws']} draws (sweep over {record['sweep_frames']} frames)"
    )
    compiled = precomp["compiled_backend"]
    if compiled is None:
        print("  no compiled backend on this host; gates skipped")
    else:
        timings = precomp["trace_precompute_s"]
        print(
            f"  precompute: python {timings['python']:.4f}s | "
            f"{compiled} {timings[compiled]:.4f}s "
            f"({precomp['speedup_compiled_vs_python']:.2f}x, "
            f"parity {precomp['parity_max_rel_err']:.1f})"
        )
        totals = sweep["total_s"]
        print(
            f"  sweep x{sweep['rounds']} rounds: python-recompute "
            f"{totals['recompute_python']:.3f}s | compiled-recompute "
            f"{totals['recompute_compiled']:.3f}s | shared-store "
            f"{totals['shared_store']:.3f}s"
        )
        print(
            f"  store end-to-end: {sweep['speedup_store_vs_python_recompute']:.2f}x "
            f"vs python recompute, "
            f"{sweep['speedup_store_vs_compiled_recompute']:.2f}x vs "
            f"compiled recompute"
        )
    print(f"wrote {args.output}")

    failed = False
    if compiled is not None and args.min_precomp_speedup is not None:
        achieved = precomp["speedup_compiled_vs_python"]
        if achieved < args.min_precomp_speedup:
            print(
                f"FAIL: precompute speedup {achieved:.2f}x below required "
                f"{args.min_precomp_speedup:.2f}x"
            )
            failed = True
    if compiled is not None and args.min_store_speedup is not None:
        achieved = sweep["speedup_store_vs_python_recompute"]
        if achieved < args.min_store_speedup:
            print(
                f"FAIL: sweep store speedup {achieved:.2f}x below required "
                f"{args.min_store_speedup:.2f}x"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
