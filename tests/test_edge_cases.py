"""Edge-case and failure-injection tests across module boundaries."""

import dataclasses

import numpy as np
import pytest

from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.core.phasedetect import detect_phases
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_subset
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator
from repro.simgpu.batch import simulate_trace_multi

from tests.conftest import make_draw, make_world

CFG = GpuConfig.preset("mainstream")


class TestSingleElementWorlds:
    def test_single_frame_single_draw_pipeline(self):
        trace = make_world([[make_draw()]])
        result = SubsettingPipeline().run(trace, CFG)
        assert result.mean_efficiency == 0.0  # one draw = one cluster
        assert result.subset.num_frames == 1
        assert result.subset_time_error == pytest.approx(0.0, abs=1e-12)

    def test_single_draw_clustering(self):
        trace = make_world([[make_draw()]])
        features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
        clustering = cluster_frame(features)
        assert clustering.num_clusters == 1
        assert clustering.weights[0] == 1

    def test_interval_longer_than_trace(self):
        trace = make_world([[make_draw()], [make_draw()]])
        detection = detect_phases(trace, interval_length=10)
        assert detection.num_intervals == 1
        assert detection.retained_frame_fraction == 1.0

    def test_subset_of_unrepetitive_trace_is_everything(self):
        # Frames with wildly different shader mixes: no merging possible.
        frames = [
            [make_draw(shader_id=i + 1) for _ in range(3)] for i in range(4)
        ]
        trace = make_world(frames)
        subset = build_subset(trace, interval_length=1, tolerance=0.01)
        assert subset.num_frames == trace.num_frames
        assert subset.frame_fraction == 1.0


class TestDegenerateDraws:
    def test_zero_pixel_draw_simulates(self):
        # A fully occluded draw still costs vertex work and overhead.
        draw = make_draw(pixels=0, shaded_fraction=0.0)
        trace = make_world([[draw]])
        result = GpuSimulator(CFG).simulate_trace(trace)
        assert result.total_time_ns > 0

    def test_textureless_draw(self):
        draw = make_draw(texture_ids=())
        trace = make_world([[draw]])
        result = GpuSimulator(CFG).simulate_frame(
            trace.frames[0], trace, keep_draw_costs=True
        )
        assert result.draw_costs[0].traffic.texture_bytes == 0.0

    def test_huge_instance_count(self):
        draw = make_draw(vertex_count=4, instance_count=100000, pixels=1000)
        trace = make_world([[draw]])
        result = simulate_trace_multi(trace, [CFG])[0]
        assert np.isfinite(result.total_time_ns)

    def test_identical_draws_cluster_to_one(self):
        draws = [make_draw() for _ in range(50)]
        trace = make_world([draws])
        features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
        clustering = cluster_frame(features, radius=1e-9)
        assert clustering.num_clusters == 1
        assert clustering.weights[0] == 50


class TestExtremeConfigs:
    def test_tiny_gpu_still_monotone(self):
        tiny = GpuConfig(
            name="tiny",
            num_shader_cores=1,
            simd_width=4,
            core_clock_mhz=50.0,
            memory_clock_mhz=100.0,
            dram_bytes_per_mem_cycle=4.0,
            rop_units=1,
            tex_units_per_core=1,
        )
        small = make_world([[make_draw(pixels=1000)]])
        large = make_world([[make_draw(pixels=100000)]])
        t_small = simulate_trace_multi(small, [tiny])[0].total_time_ns
        t_large = simulate_trace_multi(large, [tiny])[0].total_time_ns
        assert t_large > t_small

    def test_giant_cache_eliminates_capacity_misses(self):
        huge_cache = CFG.scaled(tex_cache_kb=1 << 20)  # 1 GiB
        draw = make_draw(pixels=2000)
        trace = make_world([[draw]])
        normal = GpuSimulator(CFG).simulate_frame(
            trace.frames[0], trace, keep_draw_costs=True
        )
        cached = GpuSimulator(huge_cache).simulate_frame(
            trace.frames[0], trace, keep_draw_costs=True
        )
        assert (
            cached.draw_costs[0].traffic.texture_bytes
            <= normal.draw_costs[0].traffic.texture_bytes
        )

    def test_metadata_does_not_affect_simulation(self):
        draw = make_draw()
        noisy = dataclasses.replace(draw)
        noisy.metadata["comment"] = "hello"
        a = simulate_trace_multi(make_world([[draw]]), [CFG])[0].total_time_ns
        b = simulate_trace_multi(make_world([[noisy]]), [CFG])[0].total_time_ns
        assert a == b
