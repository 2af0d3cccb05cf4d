"""Operating-point calibration: choose the similarity radius automatically.

The radius trades prediction accuracy against clustering efficiency
(experiment E3).  Rather than hand-tuning, :func:`calibrate_radius`
binary-searches the radius that hits a target efficiency — or the
largest radius whose prediction error stays under a budget — on a
sample of frames.  This is how the repository's default radius was set
(see EXPERIMENTS.md) and how a user should retune for their own traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.core.predict import predict_time_ns, rep_times_from_draw_times
from repro.errors import ClusteringError
from repro.gfx.trace import Trace
from repro.simgpu.batch import simulate_frame_range_multi
from repro.simgpu.config import GpuConfig


@dataclass(frozen=True)
class CalibrationPoint:
    """Measured metrics at one radius."""

    radius: float
    mean_error: float
    mean_efficiency: float


@dataclass(frozen=True)
class CalibrationResult:
    """The chosen radius and the search trajectory."""

    radius: float
    achieved: CalibrationPoint
    history: Tuple[CalibrationPoint, ...]


def _sample_frames(trace: Trace, max_frames: int, seed: int) -> List[int]:
    if trace.num_frames <= max_frames:
        return list(range(trace.num_frames))
    positions = np.linspace(0, trace.num_frames - 1, max_frames)
    return sorted({int(round(p)) for p in positions})


def _measure(
    trace: Trace,
    config: GpuConfig,
    frame_positions: List[int],
    ground,
    extractor: FeatureExtractor,
    radius: float,
) -> CalibrationPoint:
    errors = []
    efficiencies = []
    for position in frame_positions:
        truth = ground[position]
        clustering = cluster_frame(
            extractor.frame_matrix(trace.frames[position]), radius=radius
        )
        rep_times = rep_times_from_draw_times(clustering, truth.draw_times_ns)
        predicted = predict_time_ns(rep_times, clustering.weights)
        errors.append(abs(predicted - truth.time_ns) / truth.time_ns)
        efficiencies.append(clustering.efficiency)
    return CalibrationPoint(
        radius=radius,
        mean_error=float(np.mean(errors)),
        mean_efficiency=float(np.mean(efficiencies)),
    )


def calibrate_radius(
    trace: Trace,
    config: GpuConfig,
    target_efficiency: Optional[float] = None,
    max_error: Optional[float] = None,
    radius_bounds: Tuple[float, float] = (0.01, 3.0),
    iterations: int = 10,
    sample_frames: int = 12,
    seed: int = 0,
) -> CalibrationResult:
    """Binary-search the similarity radius for an operating point.

    Exactly one of ``target_efficiency`` (hit this clustering efficiency)
    or ``max_error`` (largest radius keeping mean prediction error at or
    below this fraction) must be given.  Both objectives are monotone in
    the radius, which is what makes bisection sound (efficiency rises,
    error broadly rises).
    """
    if (target_efficiency is None) == (max_error is None):
        raise ClusteringError(
            "pass exactly one of target_efficiency or max_error"
        )
    if target_efficiency is not None and not 0.0 < target_efficiency < 1.0:
        raise ClusteringError(
            f"target_efficiency must be in (0, 1), got {target_efficiency}"
        )
    if max_error is not None and not max_error > 0:
        raise ClusteringError(f"max_error must be > 0, got {max_error}")
    lo, hi = radius_bounds
    if not 0 < lo < hi:
        raise ClusteringError(f"bad radius_bounds {radius_bounds}")

    frame_positions = _sample_frames(trace, sample_frames, seed)
    (ground,) = simulate_frame_range_multi(trace, [config], 0, trace.num_frames)
    extractor = FeatureExtractor(trace)

    history: List[CalibrationPoint] = []
    best: Optional[CalibrationPoint] = None
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        point = _measure(trace, config, frame_positions, ground, extractor, mid)
        history.append(point)
        if target_efficiency is not None:
            if best is None or abs(point.mean_efficiency - target_efficiency) < abs(
                best.mean_efficiency - target_efficiency
            ):
                best = point
            if point.mean_efficiency < target_efficiency:
                lo = mid
            else:
                hi = mid
        else:
            if point.mean_error <= max_error:
                # Feasible: remember it and try a larger radius.
                if best is None or point.radius > best.radius:
                    best = point
                lo = mid
            else:
                hi = mid
    if best is None:
        # No feasible radius under the error budget: take the tightest.
        best = _measure(
            trace, config, frame_positions, ground, extractor, radius_bounds[0]
        )
        history.append(best)
    return CalibrationResult(
        radius=best.radius, achieved=best, history=tuple(history)
    )
