"""Performance-signal phase detection — the ablation foil to shader vectors.

One could detect phases from measured per-frame performance instead of
shader vectors.  The catch: performance is a property of *one*
architecture, so the phase structure can shift when the candidate
architecture changes — exactly what a pathfinding subset must not do.
Shader vectors are API-stream facts and give the same phases everywhere.

This module implements the performance-based detector so experiment E10
can quantify the difference: shader-vector phases have cross-architecture
agreement 1.0 by construction; performance phases score lower.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.shadervector import partition_intervals
from repro.errors import PhaseDetectionError
from repro.gfx.trace import Trace
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig


def pass_time_matrix(
    trace: Trace, config: GpuConfig, runtime: Optional[Runtime] = None
) -> np.ndarray:
    """(num_frames, num_pass_types) matrix of per-pass times on ``config``.

    The per-pass breakdown is the performance analog of a shader vector:
    it captures *where* the frame's time goes on this architecture.
    Columns are ordered by sorted pass-type name.  The simulation runs
    through ``runtime`` (serial and uncached by default).
    """
    if runtime is None:
        runtime = Runtime.serial()
    outputs = runtime.simulate_frames(trace, config)
    pass_names = sorted({name for out in outputs for name in out.pass_times_ns})
    column = {name: j for j, name in enumerate(pass_names)}
    matrix = np.zeros((len(outputs), len(pass_names)))
    for i, out in enumerate(outputs):
        for name, value in out.pass_times_ns.items():
            matrix[i, column[name]] = value
    return matrix


def detect_phases_from_performance(
    matrix: np.ndarray,
    interval_length: int = 4,
    tolerance: float = 0.10,
) -> Tuple[int, ...]:
    """Greedy first-match phase ids over interval-mean performance vectors.

    Mirrors the shader-vector similarity rule (relative L1 within
    ``tolerance``) so the only difference under test is the *signal*.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise PhaseDetectionError(
            f"matrix must be a non-empty 2-D array, got shape {matrix.shape}"
        )
    if tolerance < 0:
        raise PhaseDetectionError(f"tolerance must be >= 0, got {tolerance}")
    intervals = partition_intervals(matrix.shape[0], interval_length)
    founders: List[np.ndarray] = []
    phase_ids: List[int] = []
    for interval in intervals:
        vector = matrix[interval.start : interval.end].mean(axis=0)
        matched: Optional[int] = None
        for phase, founder in enumerate(founders):
            scale = max(founder.sum(), vector.sum())
            if scale <= 0:
                continue
            if np.abs(vector - founder).sum() / scale <= tolerance:
                matched = phase
                break
        if matched is None:
            founders.append(vector)
            matched = len(founders) - 1
        phase_ids.append(matched)
    return tuple(phase_ids)


def cross_architecture_agreement(
    labels_a: Tuple[int, ...], labels_b: Tuple[int, ...]
) -> float:
    """Rand index between two phase labelings of the same intervals.

    Pair-counting agreement: the fraction of interval pairs on which the
    two labelings agree about same-phase/different-phase.  1.0 means the
    phase structure is identical (up to renaming).
    """
    if len(labels_a) != len(labels_b):
        raise PhaseDetectionError(
            f"labelings cover {len(labels_a)} vs {len(labels_b)} intervals"
        )
    n = len(labels_a)
    if n < 2:
        raise PhaseDetectionError("agreement needs at least two intervals")
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            agree += same_a == same_b
            total += 1
    return agree / total
